"""Finite, lasso, and infinite-trace language decisions."""

import hashlib
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    bar,
    determinize,
    dfa_accepts,
    four_port_join,
    gba,
    lassos_up_to,
    lts,
    lts_to_bar,
    naive_profile_compose,
    naive_reach,
    naive_simulated,
    parity_left,
    parity_right,
    reachable_states,
    rec,
    rename_machine,
    shortest_separating_length,
    states_reaching_accepting_cycles,
    words_up_to,
)
from tsr import languages
from tsr.automata import (
    Bar,
    Ltsr,
    _indexed,
    accepts_finite,
    accepts_lasso,
    base_of,
    degeneralize,
    reach,
    traceable,
    validate,
    with_idle_loops,
)
from tsr.congruence import (
    RELATIONS,
    GenParams,
    buchi_counterexample,
    language_preserving_mutate,
    parity_bars,
    random_machine,
    relation_equiv,
)
from tsr.errors import (
    AlphabetLimitError,
    AlphabetMismatchError,
    DataSetMismatchError,
    InvalidRecordError,
    SizeBoundError,
    TsrError,
)
from tsr.join import join, join_bar_flat, join_lts
from tsr.languages import (
    accepting_loop_states,
    buchi_complement,
    buchi_empty,
    buchi_equiv,
    buchi_intersect,
    componentwise_accepts_finite,
    componentwise_lasso_traceable,
    componentwise_traceable,
    finite_equiv,
    infinite_traceable_equiv,
    shortest_accept_difference,
)
from tsr.languages import _profile_space, _simulated
from tsr.records import ALPHABET_LIMIT_ENV, TAU, FiniteWord, Lasso, enumerate_alphabet
from tsr.serialize import dumps_canonical, machine_to_json, verdict_to_json, witness_to_json

GOLDEN = Path(__file__).parent / "golden"
A = rec(A="0")
F = rec(zz0="0")


def simulated(a, b) -> bool:
    """``_simulated`` on the id tables of two machines."""
    return _simulated(_indexed(a), _indexed(b))


def a_loop():
    return bar(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"], ["s0"])


def dead_after_one():
    return bar(
        ["s0", "s1"], ["A"], ["0"], [("s0", A, "s1")], ["s0"], ["s0"],
    )


def test_determinize_agrees_with_subset_acceptance():
    machines = [
        parity_left(),
        bar(
            ["s0", "s1"], ["A"], ["0"],
            [("s0", A, "s0"), ("s0", A, "s1")],
            ["s0"], ["s1"],
        ),
    ]
    for m in machines:
        d = determinize(m)
        for symbols in words_up_to([TAU, A], 4):
            w = FiniteWord.of(symbols, names={"A"})
            assert dfa_accepts(d, w) == accepts_finite(m, w)


def test_finite_equiv_parity_witness_is_the_empty_word():
    verdict = finite_equiv(parity_left(), parity_right())
    assert not verdict.equal
    assert verdict.witness == FiniteWord((), frozenset({"A"}))
    assert verdict.witness_kind == "finite"


def test_finite_equiv_equal_machines():
    assert finite_equiv(parity_left(), parity_left()).equal
    renamed = bar(
        ["a", "b"], ["A"], ["0"],
        [("a", A, "b"), ("b", A, "a")],
        ["a"], ["b"],
    )
    assert finite_equiv(parity_left(), renamed).equal


def test_shortest_accept_difference():
    w = shortest_accept_difference(parity_left(), parity_right())
    assert w == FiniteWord((A,), frozenset({"A"}))
    assert shortest_accept_difference(parity_left(), parity_left()) is None


def test_buchi_equiv_equal_and_unequal():
    assert buchi_equiv(parity_left(), parity_right()).equal
    verdict = buchi_equiv(a_loop(), dead_after_one())
    assert not verdict.equal
    assert verdict.witness_kind == "lasso"
    assert accepts_lasso(a_loop(), verdict.witness)
    assert not accepts_lasso(dead_after_one(), verdict.witness)


def test_buchi_equiv_ignores_unreachable_states():
    padded = bar(
        ["s0", "dead"], ["A"], ["0"],
        [("s0", A, "s0"), ("dead", A, "dead")],
        ["s0"], ["s0", "dead"],
    )
    assert buchi_equiv(a_loop(), padded).equal


def test_buchi_equiv_monoid_limit():
    with pytest.raises(SizeBoundError):
        buchi_equiv(parity_left(), parity_right(), monoid_limit=1)


def test_buchi_complement_is_exact_on_small_machines():
    for seed in range(5):
        b = random_machine(
            GenParams(name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}), seed=seed),
            "bar",
        )
        comp = buchi_complement(b)
        assert validate(comp) == []
        letters = [TAU, rec(A="0"), rec(A="1")]
        for pre, per in lassos_up_to(letters, 2, 2):
            l = Lasso.of(pre, per, names={"A"})
            assert accepts_lasso(b, l) != accepts_lasso(comp, l)
        assert buchi_empty(buchi_intersect(b, comp)) is None


@st.composite
def profile_triples(draw):
    """A machine with k = 0-3 final sets, and three profiles over it.

    The machine is a Bar when k = 1 and the coin says so, else a Gba; a Gba
    with an empty family tracks one member holding every state.  Profiles of
    real words put a pair in member j's set whenever an endpoint lies in
    F_j, so the drawn ones do too; that is what makes the unit a unit.
    """
    n = draw(st.integers(1, 9))
    k = draw(st.integers(0, 3))
    states = [f"s{p}" for p in range(n)]
    family = [draw(st.frozensets(st.sampled_from(states))) for _ in range(k)]
    if k == 1 and draw(st.booleans()):
        machine = bar(states, ["A"], ["0"], [], states[:1], family[0])
        members = [machine.final]
    else:
        machine = gba(states, ["A"], ["0"], [], states[:1], family)
        members = list(machine.final_family) or [frozenset(states)]
    finals = [frozenset(states.index(q) for q in m) for m in members]
    pairs = [(p, q) for p in range(n) for q in range(n)]
    triple = []
    for _ in range(3):
        reach = draw(st.frozensets(st.sampled_from(pairs)))
        fins = []
        for final in finals:
            fin = draw(st.frozensets(st.sampled_from(sorted(reach)))) if reach else frozenset()
            fins.append(fin | {(p, q) for (p, q) in reach if p in final or q in final})
        triple.append((reach, tuple(fins)))
    return n, machine, finals, triple


def _pack(n, profile):
    """Member j's pairs at offset j*n*n, as the packed layout has them."""
    reach, fins = profile

    def bits(pairs):
        return sum(1 << (p * n + q) for (p, q) in pairs)

    return bits(reach), sum(bits(fin) << (j * n * n) for j, fin in enumerate(fins))


@given(profile_triples())
def test_packed_profile_product_is_relational_composition(case):
    n, machine, finals, (a, b, c) = case
    space = _profile_space(_indexed(machine), [])
    pa, pb, pc = (_pack(n, x) for x in (a, b, c))
    assert space.mult(pa, pb) == _pack(n, naive_profile_compose(a, b))
    assert space.mult(space.mult(pa, pb), pc) == space.mult(pa, space.mult(pb, pc))
    assert space.mult(pa, space.unit) == pa
    assert space.mult(space.unit, pa) == pa
    assert space.unit == _pack(
        n, ({(p, p) for p in range(n)}, tuple({(p, p) for p in f} for f in finals))
    )


@given(profile_triples())
def test_loop_entries_need_every_members_diagonal(case):
    n, machine, _, profiles = case
    space = _profile_space(_indexed(machine), [])
    for reach, fins in profiles:
        loops = {q for q in range(n) if all((q, q) in fin for fin in fins)}
        entries = {p for (p, q) in reach if q in loops}
        assert space.loop_entries(_pack(n, (reach, fins))) == sum(1 << p for p in entries)


@st.composite
def join_pairs(draw):
    """Two small random automata and a context: a's mate b is either a
    verified b-equivalent mutation or an unrelated automaton."""
    params = GenParams(max_states=2, seed=draw(st.integers(0, 10**6)))
    a = random_machine(params, "bar")
    if draw(st.booleans()):
        b = language_preserving_mutate(a, draw(st.integers(0, 10**6)), "b")
    else:
        b = random_machine(replace(params, seed=params.seed + 1), "bar")
    names = draw(st.sampled_from([{"cx0"}, {"A", "B"}, {"A", "cx0"}]))
    c = random_machine(
        replace(params, seed=draw(st.integers(0, 10**6)), name_pool=frozenset(names)), "bar"
    )
    return join(a, c), join(b, c)


@given(join_pairs())
def test_buchi_equiv_on_joins_matches_the_flattened_joins(pair):
    g1, g2 = pair
    verdict = buchi_equiv(g1, g2)
    flat1, flat2 = degeneralize(g1), degeneralize(g2)
    assert verdict.equal == buchi_equiv(flat1, flat2).equal
    if not verdict.equal:
        w = verdict.witness
        assert accepts_lasso(g1, w) != accepts_lasso(g2, w)
        assert accepts_lasso(flat1, w) != accepts_lasso(flat2, w)


def test_buchi_equiv_empty_family_accepts_every_infinite_run():
    edges = [("s0", A, "s1"), ("s1", A, "s1")]
    anything = gba(["s0", "s1"], ["A"], ["0"], edges, ["s0"], [])
    all_final = bar(["s0", "s1"], ["A"], ["0"], edges, ["s0"], ["s0", "s1"])
    assert buchi_equiv(anything, all_final).equal
    once = gba(["s0", "s1"], ["A"], ["0"], edges, ["s0"], [["s0"]])
    verdict = buchi_equiv(anything, once)
    assert not verdict.equal
    assert accepts_lasso(anything, verdict.witness)
    assert not accepts_lasso(once, verdict.witness)


@st.composite
def small_bar_pairs(draw):
    """Two random automata over one alphabet with at most 4 states, in
    either order: the second is unrelated to the first, or the first with
    transitions and final states added, so that it accepts at least as much."""
    params = GenParams(
        max_states=4,
        name_pool=frozenset({"A"}),
        data_pool=frozenset({"0", "1"}),
        seed=draw(st.integers(0, 10**6)),
    )
    a = random_machine(params, "bar")
    if draw(st.booleans()):
        b = random_machine(replace(params, seed=params.seed + 1), "bar")
    else:
        states = st.sampled_from(sorted(a.states))
        letters = st.sampled_from(sorted(enumerate_alphabet(a.names, a.data)))
        extra = draw(st.lists(st.tuples(states, letters, states), max_size=3))
        final = draw(st.sets(states))
        edges = a.transitions | set(extra)
        b = Bar.make(a.states, a.names, a.data, edges, a.initial, a.final | final)
    return (a, b) if draw(st.booleans()) else (b, a)


def included(a, b) -> bool:
    """Whether every lasso ``a`` accepts is accepted by ``b``, by emptiness of
    ``a`` intersected with the complement of ``b``."""
    return buchi_empty(buchi_intersect(a, buchi_complement(b))) is None


@given(small_bar_pairs())
def test_simulation_proves_inclusion_and_equiv_is_inclusion_both_ways(pair):
    x, y = pair
    inclusions = [included(a, b) for a, b in ((x, y), (y, x))]
    assert simulated(x, y) <= inclusions[0]
    assert simulated(y, x) <= inclusions[1]
    assert buchi_equiv(x, y).equal == all(inclusions)


@given(join_pairs())
def test_simulation_on_joins_agrees_with_the_flattened_joins(pair):
    g1, g2 = pair
    assume(len(g1.final_family) == len(g2.final_family) == 2)
    if simulated(g1, g2) and simulated(g2, g1):
        assert buchi_equiv(degeneralize(g1), degeneralize(g2)).equal


def test_simulation_on_joins_maps_every_final_set():
    # The counterexample's joins have the same moves and differ only in
    # their final sets, so simulation must not settle them.
    j1, j2 = buchi_counterexample().joins
    assert len(j1.final_family) == len(j2.final_family) == 2
    assert not (simulated(j1, j2) and simulated(j2, j1))
    assert not buchi_equiv(degeneralize(j1), degeneralize(j2)).equal
    # A join with its state names reversed is the same machine, but whose
    # final set sorts first can flip, so only a map that swaps them works.
    params = GenParams(max_states=2, seed=0)
    flipped = 0
    for seed in range(12):
        g = join(
            random_machine(replace(params, seed=seed), "bar"),
            random_machine(replace(params, seed=seed + 100, name_pool=frozenset({"cx0"})), "bar"),
        )
        if len(g.final_family) != 2:
            continue
        order = sorted(g.states)
        mapping = dict(zip(order, reversed(order)))
        renamed = rename_machine(g, mapping)
        flipped += renamed.final_family[0] == frozenset(map(mapping.get, g.final_family[1]))
        assert simulated(g, renamed) and simulated(renamed, g)
        assert buchi_equiv(degeneralize(g), degeneralize(renamed)).equal
    assert flipped


def two_member_joins():
    """``join_pairs`` whose joins both have two final sets."""
    return join_pairs().filter(
        lambda pair: len(pair[0].final_family) == len(pair[1].final_family) == 2
    )


@given(
    st.one_of(
        small_bar_pairs(),
        two_member_joins(),
        two_member_joins().map(lambda pair: (degeneralize(pair[0]), pair[1])),
    )
)
def test_simulation_is_the_textbook_greatest_fixpoint(pair):
    # Inclusion bounds simulation only from above, so this pins the fixpoint
    # itself: a kernel that refines too far or too little fails here.
    x, y = pair
    assert simulated(x, y) == naive_simulated(x, y)
    assert simulated(y, x) == naive_simulated(y, x)


@pytest.mark.parametrize("t", range(6))
def test_ladder_b_joins_are_pinned_equal_by_simulation(t, monkeypatch):
    # Joins of 2 to 40 trimmed states; simulation settles each of them both
    # ways, so no profile monoid is built.
    closures, joint_closure = [], languages._joint_closure

    def counted(*args):
        closures.append(args)
        return joint_closure(*args)

    monkeypatch.setattr(languages, "_joint_closure", counted)
    a, b, c = ladder_triple("b", t)
    assert buchi_equiv(join(a, c), join(b, c)).equal
    assert closures == []


def test_buchi_equiv_tries_simulation_before_the_monoid():
    a = random_machine(GenParams(seed=3), "bar")
    mate = language_preserving_mutate(a, 3, "b")
    context = random_machine(GenParams(seed=4, name_pool=frozenset({"cx0"})), "bar")
    # A bound of 1 admits only the unit, so any monoid closure would refuse.
    assert buchi_equiv(a, mate, monoid_limit=1).equal
    assert buchi_equiv(join(a, context), join(mate, context), monoid_limit=1).equal


def test_buchi_equiv_stops_at_the_first_disagreeing_period():
    params = GenParams(seed=209)
    names = frozenset({"A", "cx0"})
    context = random_machine(replace(params, seed=2 * 10**6 + 209, name_pool=names), "bar")
    fuzzed = (
        join(random_machine(params, "bar"), context),
        join(random_machine(replace(params, seed=10**6 + 209), "bar"), context),
    )
    # The first pair's monoid has 3 elements over the labels that occur, the
    # second's over 20,000.
    for (j1, j2), limit in ((buchi_counterexample().joins, 2), (fuzzed, 10)):
        verdict = buchi_equiv(j1, j2, monoid_limit=limit)
        assert not verdict.equal
        assert dumps_canonical(verdict_to_json(verdict)) == dumps_canonical(
            verdict_to_json(buchi_equiv(j1, j2))
        )
        assert accepts_lasso(j1, verdict.witness) != accepts_lasso(j2, verdict.witness)
        with pytest.raises(SizeBoundError):
            buchi_equiv(j1, j2, monoid_limit=limit - 1)


def test_buchi_complement_keeps_only_live_states():
    params = GenParams(max_states=5, name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}))
    for seed in range(12):
        comp = buchi_complement(random_machine(replace(params, seed=seed), "bar"))
        live = states_reaching_accepting_cycles(comp)
        assert comp.base.states - live <= comp.base.initial | {"never"}


def universal_bars():
    """A one-state Bar whose final state loops on every letter of {A}x{0},
    and the same with a second, unreachable state that loops on every letter.
    """
    letters = enumerate_alphabet(frozenset({"A"}), frozenset({"0"}))
    loops = [("q0", r, "q0") for r in letters]
    spare = [("q1", r, "q1") for r in letters]
    return (
        bar(["q0"], ["A"], ["0"], loops, ["q0"], ["q0"]),
        bar(["q0", "q1"], ["A"], ["0"], loops + spare, ["q0"], ["q0"]),
    )


def test_complement_of_a_universal_bar_keeps_the_initial_readers_loops():
    # No pair (sigma, rho) is non-accepting, so nothing is committed and the
    # initial reader reaches no cut; it is kept all the same, with its loops.
    letters = enumerate_alphabet(frozenset({"A"}), frozenset({"0"}))
    for b in universal_bars():
        comp = buchi_complement(b)
        assert comp.states == {"r0", "never"}
        assert comp.initial == {"r0"}
        assert comp.final == {"never"}
        assert comp.transitions == {("r0", r, "r0") for r in letters}


def test_buchi_complement_explores_only_live_states(monkeypatch):
    explored = []
    real_explore = languages._explore

    def counting_explore(roots, edges):
        found, rows = real_explore(roots, edges)
        explored.append(len(found))
        return found, rows

    params = GenParams(max_states=5, name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}))
    kept = 0
    monkeypatch.setattr(languages, "_explore", counting_explore)
    for seed in range(12):
        comp = buchi_complement(random_machine(replace(params, seed=seed), "bar"))
        kept += len(comp.states - {"never"})
    assert sum(explored) == kept == 3155


def test_buchi_complement_state_guard_counts_reachable_states():
    def ring(n, *unreachable):
        states = [f"q{i}" for i in range(n)]
        edges = [(q, A, states[(i + 1) % n]) for i, q in enumerate(states)]
        return bar(states + list(unreachable), ["A"], ["0"], edges, ["q0"], ["q0"])

    with pytest.raises(SizeBoundError, match="limited to 8 states, got 9"):
        buchi_complement(ring(9))
    comp = buchi_complement(ring(8, "island"))
    assert not accepts_lasso(comp, Lasso((), (A,), frozenset({"A"})))
    assert accepts_lasso(comp, Lasso((), (TAU,), frozenset({"A"})))


def c9_machine(seed):
    """One of the machines C9 complements: up to five states over {A}x{0, 1}."""
    params = GenParams(max_states=5, name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}))
    return random_machine(replace(params, seed=seed), "bar")


# The profile monoid of C9's machine 11, unit included, has this many elements.
C9_MACHINE_11_MONOID = 148


def test_buchi_complement_monoid_bound_trips_one_below_the_monoid(monkeypatch):
    b = c9_machine(11)
    expected = buchi_complement(b)
    monkeypatch.setattr(languages, "COMPLEMENT_MONOID_LIMIT", C9_MACHINE_11_MONOID)
    assert buchi_complement(b) == expected
    limit = C9_MACHINE_11_MONOID - 1
    monkeypatch.setattr(languages, "COMPLEMENT_MONOID_LIMIT", limit)
    with pytest.raises(SizeBoundError, match=f"profile monoid exceeded {limit} elements"):
        buchi_complement(b)


def test_buchi_complement_computes_each_product_once(monkeypatch):
    # The closure expands each element once and records its Cayley graph;
    # idempotents and linked pairs are read off that graph.
    calls = {"successors": 0, "mult": 0}
    space_class = languages._ProfileSpace
    for method in calls:
        real = getattr(space_class, method)

        def counted(self, *args, _real=real, _method=method):
            calls[_method] += 1
            return _real(self, *args)

        monkeypatch.setattr(space_class, method, counted)
    buchi_complement(c9_machine(11))
    assert calls == {"successors": C9_MACHINE_11_MONOID, "mult": 0}


def emptiness_line(b) -> str:
    """``buchi_empty(b)`` as ``complement_path_digest`` pins it.  The digest
    was recorded while a witness lasso came wrapped with the name of the
    machine accepting it, always ``"machine"``, so a witness is written in
    that wrapper's repr."""
    witness = buchi_empty(b)
    if witness is None:
        return "None"
    return f"LassoWitness(lasso={witness!r}, accepted_by='machine')"


def complement_path_digest(seeds=range(12)) -> str:
    """sha256 of every complement-path output on C9's family machines.

    Covers each machine's complement as canonical JSON, ``emptiness_line``
    of the machine and of its intersection with the complement, and the
    sorted ``accepting_loop_states`` of both machines for every period of up
    to two letters.
    """
    names, data = frozenset({"A"}), frozenset({"0", "1"})
    params = GenParams(max_states=5, name_pool=names, data_pool=data)
    letters = enumerate_alphabet(names, data)
    periods = [per for per in words_up_to(letters, 2) if per]
    digest = hashlib.sha256()
    for seed in seeds:
        b = random_machine(replace(params, seed=seed), "bar")
        c = buchi_complement(b)
        lines = [
            dumps_canonical(machine_to_json(c)),
            emptiness_line(b),
            emptiness_line(buchi_intersect(b, c)),
        ]
        lines += [repr(sorted(accepting_loop_states(m, per))) for m in (b, c) for per in periods]
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


def test_complement_path_outputs_are_pinned():
    # Recorded before the complement path moved onto the int SCC kernel.
    expected = (GOLDEN / "complement.sha256").read_text(encoding="utf-8").strip()
    assert complement_path_digest() == expected


def wide_complement_digest(seeds=range(100, 160)) -> str:
    """sha256 of ``buchi_complement`` as canonical JSON, or the name of the
    error it raises, on seeded machines over three alphabets and on
    ``universal_bars``.

    The settings are (max states, ports, data): (4, {A}, {0, 1}),
    (3, {A, B}, {0}) and (3, {A}, {0, 1, 2}).
    """
    settings = ((4, {"A"}, {"0", "1"}), (3, {"A", "B"}, {"0"}), (3, {"A"}, {"0", "1", "2"}))
    machines = [
        random_machine(GenParams(n, frozenset(names), frozenset(data), seed=seed), "bar")
        for n, names, data in settings
        for seed in seeds
    ]
    digest = hashlib.sha256()
    for b in machines + list(universal_bars()):
        try:
            line = dumps_canonical(machine_to_json(buchi_complement(b)))
        except TsrError as exc:
            line = type(exc).__name__
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_complements_over_wider_alphabets_are_pinned():
    # Recorded before the complement stopped exploring dead blocks and readers.
    expected = (GOLDEN / "complement_wide.sha256").read_text(encoding="utf-8").strip()
    assert wide_complement_digest() == expected


def decision_digest(seeds=range(90)) -> str:
    """sha256 of the decision procedures' outputs on seeded random pairs.

    Each seed draws two machines of up to four states over data {0}, the
    first over ports {A, B} and the second over {A}, {A, B} or {A, C}; a seed
    makes both Buchi automata, both plain systems, or one of each.  Covered,
    as canonical JSON: ``finite_equiv`` on the machines and on their bases,
    ``infinite_traceable_equiv``, ``buchi_equiv`` (on two Buchi automata),
    ``shortest_accept_difference`` both ways, and the mate that
    ``language_preserving_mutate`` gives the first machine under every
    relation that applies to it.  The decisions run on the drawn pair and on
    the first machine against its ``it`` mate, which is equal in most
    relations, so the searches also run to exhaustion.
    """
    data = frozenset({"0"})
    pools = (frozenset({"A"}), frozenset({"A", "B"}), frozenset({"A", "C"}))
    kinds = (("bar", "bar"), ("lts", "lts"), ("bar", "lts"))
    digest = hashlib.sha256()
    for seed in seeds:
        kind1, kind2 = kinds[seed % 3]
        params = GenParams(max_states=4, name_pool=frozenset({"A", "B"}), data_pool=data)
        m1 = random_machine(replace(params, seed=seed), kind1)
        m2 = random_machine(
            replace(params, seed=seed + 1000, name_pool=pools[seed // 3 % 3]), kind2
        )
        lines = []
        mates = {}
        for rel in RELATIONS:
            if rel == "b" and kind1 != "bar":
                continue
            mates[rel] = language_preserving_mutate(m1, seed, rel)
            lines.append(dumps_canonical(machine_to_json(mates[rel])))
        for x1, x2 in ((m1, m2), (m1, mates["it"])):
            verdicts = [
                finite_equiv(x1, x2),
                finite_equiv(base_of(x1), base_of(x2)),
                infinite_traceable_equiv(x1, x2),
            ]
            if isinstance(x1, Bar) and isinstance(x2, Bar):
                verdicts.append(buchi_equiv(x1, x2))
            lines += [dumps_canonical(verdict_to_json(v)) for v in verdicts]
            lines += [
                dumps_canonical(witness_to_json(shortest_accept_difference(y1, y2)))
                for y1, y2 in ((x1, x2), (x2, x1))
            ]
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


def test_decision_outputs_are_pinned():
    # Recorded before the subset-pair searches were merged into one.
    expected = (GOLDEN / "decisions.sha256").read_text(encoding="utf-8").strip()
    assert decision_digest() == expected


WIDE_NAMES, WIDE_DATA = frozenset({"A", "B", "C"}), frozenset({"0", "1"})


def ladder_triple(rel, t):
    """The machines a, b and c of trial ``t`` of the size ladder for ``rel``:
    drawn as ``congruence._trial_inputs`` draws a fuzz trial, from a master
    generator seeded ``scale:{rel}:{t}``, with up to nine states."""
    params = GenParams(9, WIDE_NAMES, WIDE_DATA, trapless=rel == "it")
    kind = "lts" if rel in ("ft", "it") else "bar"
    master = random.Random(f"scale:{rel}:{t}")
    a = random_machine(replace(params, seed=master.getrandbits(64)), kind)
    b = language_preserving_mutate(a, master.getrandbits(64), rel)
    roll = master.random()
    if roll < 1 / 3:
        context_names = frozenset({f"cx{master.getrandbits(8) % 2}"})
    elif roll < 2 / 3:
        context_names = params.name_pool
    else:
        context_names = frozenset({min(params.name_pool), "cx0"})
    c = random_machine(replace(params, seed=master.getrandbits(64), name_pool=context_names), kind)
    return a, b, c


def unequal_triple(s):
    """Two unrelated Buchi automata of up to nine states and a context over
    {A, cx0}, drawn from seeds s, s + 1000 and s + 2000."""
    params = GenParams(9, WIDE_NAMES, WIDE_DATA, seed=s)
    a = random_machine(params, "bar")
    b = random_machine(replace(params, seed=s + 1000), "bar")
    c = random_machine(replace(params, seed=s + 2000, name_pool=frozenset({"A", "cx0"})), "bar")
    return a, b, c


def wide_decision_digest() -> str:
    """sha256 of the decision procedures' outputs on pairs of joins of up
    to 126 states.

    The pairs are ``x(a, c)`` against ``x(b, c)`` for each builder x of
    ``join``, ``join_lts`` and ``join_bar_flat``.  The triples are the size
    ladder's equal ft trials 4 and 18 and it trials 2, 8 and 14, whose plain
    systems are read as Buchi automata with every state final, and the
    unequal triples of seeds 2, 4, 5, 66 and 71.  Their tables hold 6 to
    126 states, on both sides of 8, 16 and 64.  Covered, as canonical JSON:
    ``finite_equiv``, ``infinite_traceable_equiv`` and
    ``shortest_accept_difference`` both ways on every pair, and
    ``buchi_equiv`` on the ladder's Buchi pairs and on the joins of seeds 2,
    4 and 5; on the other pairs it takes seconds to minutes.
    """
    ladder = [("ft", 4), ("ft", 18), ("it", 2), ("it", 8), ("it", 14)]
    catalogue = [
        (map(lts_to_bar, ladder_triple(*trial)), (join, join_bar_flat)) for trial in ladder
    ]
    catalogue += [(unequal_triple(s), (join,) if s in (2, 4, 5) else ()) for s in (2, 4, 5, 66, 71)]
    digest = hashlib.sha256()
    for (a, b, c), lasso_builders in catalogue:
        lines = []
        for build in (join, join_lts, join_bar_flat):
            x1, x2 = build(a, c), build(b, c)
            verdicts = [finite_equiv(x1, x2), infinite_traceable_equiv(x1, x2)]
            if build in lasso_builders:
                verdicts.append(buchi_equiv(x1, x2))
            lines += [dumps_canonical(verdict_to_json(v)) for v in verdicts]
            lines += [
                dumps_canonical(witness_to_json(shortest_accept_difference(y1, y2)))
                for y1, y2 in ((x1, x2), (x2, x1))
            ]
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


def test_wide_decision_outputs_are_pinned():
    # Recorded before the join builders were named through one routine.
    expected = (GOLDEN / "decisions_wide.sha256").read_text(encoding="utf-8").strip()
    assert wide_decision_digest() == expected


# buchi_equiv(join(a, c), join(b, c)) on unequal_triple(s), as canonical JSON,
# recorded while every prefix pair was still listed before the closure: that
# took 17 s for s = 1 and 9 s for s = 3 on 2 CPUs.
UNEQUAL_JOIN_VERDICTS = {
    1: {"equal": False, "witness_kind": "lasso", "witness": {
        "prefix": [], "period": [{"A": "1", "B": "0"}, {"A": "1", "B": "0", "C": "1"}]}},
    3: {"equal": False, "witness_kind": "lasso", "witness": {
        "prefix": [], "period": [{}, {"A": "0", "B": "0"}, {"A": "0", "B": "1", "cx0": "0"}]}},
}


@pytest.mark.parametrize("s", sorted(UNEQUAL_JOIN_VERDICTS))
def test_unequal_join_verdicts_are_pinned_and_found_without_every_prefix_pair(s):
    a, b, c = unequal_triple(s)
    j1, j2 = join(a, c), join(b, c)
    started = time.monotonic()
    verdict = buchi_equiv(j1, j2)
    elapsed = time.monotonic() - started
    assert dumps_canonical(verdict_to_json(verdict)) == dumps_canonical(UNEQUAL_JOIN_VERDICTS[s])
    assert accepts_lasso(j1, verdict.witness) != accepts_lasso(j2, verdict.witness)
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_flattened_join_refusal_is_pinned_and_found_without_every_prefix_pair():
    # The closure passes the bound before any class disagrees; listing the
    # prefix pairs first took 78 s on 2 CPUs.
    a, b, c = unequal_triple(2)
    started = time.monotonic()
    with pytest.raises(SizeBoundError) as refused:
        buchi_equiv(join_bar_flat(a, c), join_bar_flat(b, c), monoid_limit=300)
    elapsed = time.monotonic() - started
    assert str(refused.value) == (
        "profile monoid exceeded 300 elements; reduce machine size or raise the bound"
    )
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def builder_digest(seeds=range(60)) -> str:
    """sha256 of the machines the product builders make, as canonical JSON.

    Each seed draws a Buchi automaton of up to three states over ports
    {A, B} and one over {B, C}, {A, B} or {C}, both over data {0, 1}, and
    covers their ``join``, their ``join_bar_flat`` and ``join_lts`` of the
    first one's plain system with the second.  Then, for each of C9's twelve
    family machines b, ``buchi_intersect(b, buchi_complement(b))``.
    """
    data = frozenset({"0", "1"})
    pools = (frozenset({"B", "C"}), frozenset({"A", "B"}), frozenset({"C"}))
    params = GenParams(max_states=3, name_pool=frozenset({"A", "B"}), data_pool=data)
    digest = hashlib.sha256()
    for seed in seeds:
        m1 = random_machine(replace(params, seed=seed), "bar")
        m2 = random_machine(replace(params, seed=seed + 1000, name_pool=pools[seed % 3]), "bar")
        built = (join(m1, m2), join_bar_flat(m1, m2), join_lts(base_of(m1), m2))
        digest.update("\n".join(dumps_canonical(machine_to_json(m)) for m in built).encode())
    family = GenParams(max_states=5, name_pool=frozenset({"A"}), data_pool=data)
    for seed in range(12):
        b = random_machine(replace(family, seed=seed), "bar")
        product = buchi_intersect(b, buchi_complement(b))
        digest.update(dumps_canonical(machine_to_json(product)).encode())
    return digest.hexdigest()


def test_builder_outputs_are_pinned():
    # Recorded before the joins and the Buchi product moved onto the id table.
    expected = (GOLDEN / "builders.sha256").read_text(encoding="utf-8").strip()
    assert builder_digest() == expected


def test_buchi_intersect():
    both =buchi_intersect(parity_left(), parity_right())
    for pre, per in lassos_up_to([TAU, A], 2, 2):
        l = Lasso.of(pre, per, names={"A"})
        expected = accepts_lasso(parity_left(), l) and accepts_lasso(parity_right(), l)
        assert accepts_lasso(both, l) == expected
    with pytest.raises(AlphabetMismatchError):
        buchi_intersect(
            parity_left(),
            bar(["s0"], ["B"], ["0"], [("s0", rec(B="0"), "s0")], ["s0"], ["s0"]),
        )
    with pytest.raises(AlphabetMismatchError):
        buchi_intersect(
            parity_left(),
            bar(["s0"], ["A"], ["1"], [("s0", rec(A="1"), "s0")], ["s0"], ["s0"]),
        )


def test_intersections_with_complements_are_built_reachable_only():
    # The full two-copy products of C9's first twelve machines with their
    # complements have 24,742 states and 65,668 transitions in all.  In one
    # of the twelve no final state is reachable, so it carries the padding
    # state.
    names, data = frozenset({"A"}), frozenset({"0", "1"})
    params = GenParams(max_states=5, name_pool=names, data_pool=data)
    states = transitions = padded = 0
    for seed in range(12):
        b = random_machine(replace(params, seed=seed), "bar")
        both = buchi_intersect(b, buchi_complement(b))
        padded += "never" in both.states
        states += len(both.states - {"never"})
        transitions += len(both.transitions)
    assert (states, transitions, padded) == (1519, 4525, 1)


@st.composite
def bar_pairs(draw):
    """Two small random Buchi automata over ports {A} and data {0, 1}."""
    params = GenParams(max_states=4, name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}))
    return tuple(random_machine(replace(params, seed=draw(st.integers(0, 10**6))), "bar")
                 for _ in range(2))


@given(bar_pairs())
def test_buchi_intersect_builds_only_reachable_states(pair):
    b1, b2 = pair
    both = buchi_intersect(b1, b2)
    assert validate(both) == []
    reachable = reachable_states(both)
    if reachable & both.final:
        assert both.states == reachable
    else:
        assert both.states == reachable | {"never"} and both.final == {"never"}
    letters = [TAU, rec(A="0"), rec(A="1")]
    for pre, per in lassos_up_to(letters, 2, 2):
        l = Lasso.of(pre, per, names={"A"})
        assert accepts_lasso(both, l) == (accepts_lasso(b1, l) and accepts_lasso(b2, l))


EMPTINESS_STATES = ("a", "a!", "a(b)", "b", "x,y", "a)", "(b", "a\\", "!", "q,(")


def emptiness_digest(seeds=range(300)) -> str:
    """sha256 of ``buchi_empty``'s witnesses, as canonical JSON, on seeded
    Buchi automata named awkwardly.

    Each seed draws a machine of up to six states over ports {A} and data
    {0, 1}, with several initial states on some seeds and final states both
    on and off cycles, and renames its states to names drawn from
    ``EMPTINESS_STATES``, whose characters sort below ``,`` and ``)``.
    Every fifth seed also covers the intersection of the machine with the
    one drawn at the seed before.
    """
    params = GenParams(max_states=6, name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}))
    digest = hashlib.sha256()
    previous = None
    for seed in seeds:
        m = random_machine(replace(params, seed=seed), "bar")
        names = random.Random(f"emptiness:{seed}").sample(EMPTINESS_STATES, len(m.states))
        b = rename_machine(m, dict(zip(sorted(m.states), names)))
        machines = [b] if seed % 5 or previous is None else [b, buchi_intersect(b, previous)]
        for x in machines:
            digest.update(dumps_canonical(witness_to_json(buchi_empty(x))).encode())
        previous = b
    return digest.hexdigest()


def test_emptiness_witnesses_are_pinned():
    # Recorded before emptiness moved onto its machine's own id table.
    expected = (GOLDEN / "emptiness.sha256").read_text(encoding="utf-8").strip()
    assert emptiness_digest() == expected


def test_buchi_empty():
    witness = buchi_empty(parity_left())
    assert isinstance(witness, Lasso)
    assert accepts_lasso(parity_left(), witness)
    assert buchi_empty(dead_after_one()) is None


def test_accepting_loop_states():
    left = parity_left()
    assert accepting_loop_states(left, (A,)) == {"q0", "q1"}
    assert accepting_loop_states(left, (TAU,)) == frozenset()
    assert accepting_loop_states(left, (A, A)) == {"q0", "q1"}


def test_accepting_loop_states_refuses_a_period_symbol_that_is_not_a_record():
    # As a Lasso's period would; a record over ports the machine lacks is
    # still a letter that dies.
    left = parity_left()
    for period in (("x",), (A, "x"), ("x", A), (A, None)):
        with pytest.raises(InvalidRecordError):
            accepting_loop_states(left, period)
    assert accepting_loop_states(left, (rec(Z="0"),)) == frozenset()


def test_buchi_helpers_refuse_machines_without_one_final_set():
    left, _ = parity_bars()
    for machine in (join(left, left), left.base):
        with pytest.raises(TsrError):
            accepting_loop_states(machine, (A,))
        with pytest.raises(TsrError):
            buchi_empty(machine)
        with pytest.raises(TsrError):
            buchi_intersect(machine, left)
        with pytest.raises(TsrError):
            buchi_intersect(left, machine)
        with pytest.raises(TsrError, match="buchi_complement takes a Buchi automaton"):
            buchi_complement(machine)


def test_buchi_equiv_refuses_a_plain_system_and_loop_states_an_empty_period():
    left, right = parity_bars()
    with pytest.raises(TsrError, match="buchi_equiv compares two Buchi"):
        buchi_equiv(base_of(left), right)
    with pytest.raises(TsrError, match="period must be non-empty"):
        accepting_loop_states(left, ())


def test_infinite_traceable_equiv_refuses_past_the_pair_search_limit(monkeypatch):
    # The parity pair meets two pairs with both sides alive, whether its
    # plain systems or its Bars are compared.
    bars = parity_bars()
    for left, right in (map(base_of, bars), bars):
        monkeypatch.setattr(languages, "PAIR_SEARCH_LIMIT", 2)
        assert infinite_traceable_equiv(left, right).equal
        monkeypatch.setattr(languages, "PAIR_SEARCH_LIMIT", 1)
        with pytest.raises(SizeBoundError, match="pair search limit"):
            infinite_traceable_equiv(left, right)


@given(st.one_of(small_bar_pairs(), join_pairs()))
def test_ft_and_it_decide_a_machine_as_its_plain_system(pair):
    x, y = pair
    plain = finite_equiv(base_of(x), base_of(y))
    assert verdict_to_json(relation_equiv("ft", x, y)) == verdict_to_json(plain)
    plain = infinite_traceable_equiv(base_of(x), base_of(y))
    assert verdict_to_json(infinite_traceable_equiv(x, y)) == verdict_to_json(plain)


def test_accepting_loop_states_matches_lasso_acceptance():
    letters = [TAU, rec(A="0"), rec(A="1")]
    for seed in range(5):
        b = random_machine(
            GenParams(name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}), seed=seed),
            "bar",
        )
        for pre, per in lassos_up_to(letters, 2, 2):
            l = Lasso.of(pre, per, names={"A"})
            loop_ok = bool(
                reach(b, b.initial, FiniteWord.of(pre, names={"A"}))
                & accepting_loop_states(b, tuple(per))
            )
            assert loop_ok == accepts_lasso(b, l)


@st.composite
def dead_end_pairs(draw, kind="lts"):
    """A small random machine and the same machine with unproductive states
    added: ``a0`` and ``u0`` lead only into the trap ``u1``, so both have the
    same infinite runs.  ``a0`` sorts before the machine's own states and
    ``u0``, ``u1`` after them."""
    names = draw(st.sampled_from([frozenset({"A"}), frozenset({"A", "B"})]))
    seed = draw(st.integers(0, 10**6))
    m = random_machine(GenParams(max_states=3, name_pool=names, seed=seed), kind)
    base = base_of(m)
    letters = sorted(enumerate_alphabet(base.names, base.data))
    dead = st.sampled_from(["a0", "u0"])
    into = st.tuples(st.sampled_from(sorted(base.states)), st.sampled_from(letters), dead)
    tailed = Ltsr.make(
        base.states | {"a0", "u0", "u1"},
        base.names,
        base.data,
        base.transitions
        | set(draw(st.lists(into, min_size=1, max_size=3)))
        | {("a0", letters[0], "u1"), ("u0", letters[-1], "u1")},
        base.initial | draw(st.sets(dead)),
    )
    return m, (tailed if kind == "lts" else Bar(**vars(tailed), final=m.final))


@given(st.one_of(dead_end_pairs(), dead_end_pairs("bar")), st.data())
def test_reach_matches_the_naive_walk(pair, data):
    m = pair[1]
    foreign = [rec(Z="0"), rec(A="9")]  # a port and a value the machine lacks
    letters = sorted(enumerate_alphabet(m.names, m.data)) + foreign
    start = data.draw(st.sets(st.sampled_from(sorted(m.states) + ["ghost"])))
    symbols = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=4)))
    word = FiniteWord(symbols, m.names | {"Z"})
    assert reach(m, start, word) == naive_reach(m, start, symbols)
    reached = naive_reach(m, m.initial, symbols)
    assert traceable(m, word) == bool(reached)
    assert accepts_finite(m, word) == bool(reached & (m.final if isinstance(m, Bar) else m.states))


@given(dead_end_pairs(), dead_end_pairs(), st.booleans())
def test_infinite_traces_are_the_buchi_language_with_every_state_final(p, q, mates):
    m1, m2 = (p[1], p[0]) if mates else (p[1], q[1])
    verdict = infinite_traceable_equiv(m1, m2)
    b1, b2 = lts_to_bar(m1), lts_to_bar(m2)
    assert verdict.equal == buchi_equiv(b1, b2).equal
    assert verdict.equal or not mates
    if not verdict.equal:
        assert accepts_lasso(b1, verdict.witness) != accepts_lasso(b2, verdict.witness)


@given(dead_end_pairs(), dead_end_pairs("bar"))
def test_finite_equiv_witnesses_separate_the_machines(p, q):
    for x, y in (p, q, (p[1], q[1])):
        verdict = finite_equiv(x, y)
        if not verdict.equal:
            assert accepts_finite(x, verdict.witness) != accepts_finite(y, verdict.witness)


def test_finite_equiv_witness_is_the_full_alphabet_oracles_shortest():
    # The search steps only on labels that occur; the oracle determinizes
    # each machine over its whole alphabet and searches the union alphabet.
    data = frozenset({"0", "1"})
    names = frozenset({"A", "B"})
    letters = enumerate_alphabet(names | {"C"}, data)
    lengths = []
    for seed in range(40):
        m1 = random_machine(
            GenParams(max_states=4, name_pool=names, data_pool=data, seed=seed),
            ("bar", "lts")[seed % 2],
        )
        # The mate gains port C and a C-labelled move, and loses one move.
        rng = random.Random(seed)
        order = sorted(m1.states)
        dropped = rng.choice(sorted(m1.transitions))
        added = (rng.choice(order), rec(C=rng.choice("01")), rng.choice(order))
        m2 = replace(m1, names=names | {"C"}, transitions=(m1.transitions - {dropped}) | {added})
        assert validate(m2) == []
        verdict = finite_equiv(m1, m2)
        d1, d2 = determinize(m1), determinize(m2)
        shortest = shortest_separating_length(d1, d2, letters)
        assert verdict.equal == (shortest is None)
        if not verdict.equal:
            assert dfa_accepts(d1, verdict.witness) != dfa_accepts(d2, verdict.witness)
            assert len(verdict.witness) <= shortest
            lengths.append(shortest)
    assert len(lengths) > 30 and max(lengths) >= 3


def test_four_port_joins_are_compared_over_their_labels():
    # 81 letters over four ports, more than enumeration allows; 42 occur.
    j = four_port_join("lts")
    other = four_port_join("lts", seeds=(1, 2, 4))
    assert len({r for _, r, _ in j.transitions}) == 42
    assert finite_equiv(j, j).equal
    assert infinite_traceable_equiv(j, j).equal
    assert shortest_accept_difference(j, j) is None
    verdict = finite_equiv(j, other)
    assert not verdict.equal
    assert traceable(j, verdict.witness) != traceable(other, verdict.witness)
    verdict = infinite_traceable_equiv(j, other)
    assert not verdict.equal
    assert accepts_lasso(lts_to_bar(j), verdict.witness) != accepts_lasso(
        lts_to_bar(other), verdict.witness
    )
    for x, y in ((j, other), (other, j)):
        w = shortest_accept_difference(x, y)
        assert traceable(x, w) and not traceable(y, w)


def test_flattened_four_port_bar_join_is_compared_over_its_labels():
    b = four_port_join("bar")
    assert len(b.states) == 48 and len({r for _, r, _ in b.transitions}) == 42
    mate = language_preserving_mutate(b, 7, "b")
    for other in (b, mate):
        assert finite_equiv(b, other).equal
        assert buchi_equiv(b, other).equal


def test_buchi_complement_still_refuses_above_the_alphabet_limit(monkeypatch):
    monkeypatch.delenv(ALPHABET_LIMIT_ENV, raising=False)
    loop = bar(["s0"], ["A", "B", "C", "D"], ["0", "1"], [("s0", A, "s0")], ["s0"], ["s0"])
    # The complement needs an edge on each of the 81 letters.
    with pytest.raises(AlphabetLimitError, match="81 letters"):
        buchi_complement(loop)


def test_infinite_traceable_equiv_equal():
    loop = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    cycle = lts(
        ["t0", "t1"], ["A"], ["0"],
        [("t0", A, "t1"), ("t1", A, "t0")],
        ["t0"],
    )
    assert infinite_traceable_equiv(loop, cycle).equal


def test_infinite_traceable_equiv_witness():
    loop = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    silent = lts(["t0"], ["A"], ["0"], [], ["t0"])
    verdict = infinite_traceable_equiv(loop, silent)
    assert not verdict.equal
    assert verdict.witness == Lasso((), (A,), frozenset({"A"}))
    assert accepts_lasso(lts_to_bar(loop), verdict.witness)
    assert not accepts_lasso(lts_to_bar(silent), verdict.witness)


def test_infinite_traceable_equiv_across_name_sets():
    a_side = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    b_side = lts(["t0"], ["B"], ["0"], [("t0", rec(B="0"), "t0")], ["t0"])
    verdict = infinite_traceable_equiv(a_side, b_side)
    assert not verdict.equal
    w = verdict.witness
    assert accepts_lasso(lts_to_bar(a_side), w) != accepts_lasso(lts_to_bar(b_side), w)


def test_data_set_mismatch_is_rejected():
    one = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    other = lts(["s0"], ["A"], ["1"], [("s0", rec(A="1"), "s0")], ["s0"])
    with pytest.raises(DataSetMismatchError):
        finite_equiv(one, other)
    with pytest.raises(DataSetMismatchError):
        infinite_traceable_equiv(one, other)


def test_componentwise_formulas_on_an_idle_pair():
    m1 = with_idle_loops(parity_left().base)
    m2 = with_idle_loops(
        lts(["c0"], ["zz0"], ["0"], [("c0", F, "c0")], ["c0"])
    )
    j = join_lts(m1, m2)
    union_names = m1.names | m2.names
    af = rec(A="0", zz0="0")
    for symbols in [(), (A,), (af,), (F, F, A), (A, A), (TAU, A)]:
        w = FiniteWord.of(symbols, names=union_names)
        assert componentwise_traceable(w, m1, m2) == bool(
            reach(j, j.initial, w)
        )
    for pre, per in [((), (af,)), ((A,), (F,)), ((), (A,)), ((TAU,), (A, F))]:
        l = Lasso.of(pre, per, names=union_names)
        assert componentwise_lasso_traceable(l, m1, m2) == accepts_lasso(
            lts_to_bar(j), l
        )


def test_componentwise_accepts_finite_on_an_idle_pair():
    b1 = with_idle_loops(parity_left())
    b2 = with_idle_loops(
        bar(["c0"], ["zz0"], ["0"], [("c0", F, "c0")], ["c0"], ["c0"])
    )

    g = join(b1, b2)
    union_names = b1.names | b2.names
    af = rec(A="0", zz0="0")
    for symbols in [(), (A,), (af,), (F, A), (A, A), (A, F, TAU)]:
        w = FiniteWord.of(symbols, names=union_names)
        assert componentwise_accepts_finite(w, b1, b2) == accepts_finite(g, w)
