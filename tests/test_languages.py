"""Finite, lasso, and infinite-trace language decisions."""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import (
    bar,
    determinize,
    dfa_accepts,
    gba,
    lassos_up_to,
    lts,
    lts_to_bar,
    naive_profile_compose,
    naive_reach,
    reachable_states,
    rec,
    rename_machine,
    states_reaching_accepting_cycles,
    words_up_to,
)
from tsr.automata import (
    Bar,
    Ltsr,
    accepts_finite,
    accepts_lasso,
    base_of,
    degeneralize,
    gba_accepts_lasso,
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
)
from tsr.errors import AlphabetMismatchError, DataSetMismatchError, SizeBoundError, TsrError
from tsr.join import join, join_lts
from tsr.languages import (
    LassoWitness,
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
from tsr.records import TAU, FiniteWord, Lasso, enumerate_alphabet
from tsr.serialize import dumps_canonical, machine_to_json, verdict_to_json, witness_to_json

GOLDEN = Path(__file__).parent / "golden"
A = rec(A="0")
F = rec(zz0="0")


def parity_left():
    return bar(
        ["q0", "q1"], ["A"], ["0"],
        [("q0", A, "q1"), ("q1", A, "q0")],
        ["q0"], ["q1"],
    )


def parity_right():
    return bar(
        ["q0", "q1"], ["A"], ["0"],
        [("q0", A, "q1"), ("q1", A, "q0")],
        ["q0"], ["q0"],
    )


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
    space = _profile_space(machine, [])
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
    space = _profile_space(machine, [])
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
        assert gba_accepts_lasso(g1, w) != gba_accepts_lasso(g2, w)
        assert accepts_lasso(flat1, w) != accepts_lasso(flat2, w)


def test_buchi_equiv_empty_family_accepts_every_infinite_run():
    edges = [("s0", A, "s1"), ("s1", A, "s1")]
    anything = gba(["s0", "s1"], ["A"], ["0"], edges, ["s0"], [])
    all_final = bar(["s0", "s1"], ["A"], ["0"], edges, ["s0"], ["s0", "s1"])
    assert buchi_equiv(anything, all_final).equal
    once = gba(["s0", "s1"], ["A"], ["0"], edges, ["s0"], [["s0"]])
    verdict = buchi_equiv(anything, once)
    assert not verdict.equal
    assert gba_accepts_lasso(anything, verdict.witness)
    assert not gba_accepts_lasso(once, verdict.witness)


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
    assert _simulated(x, y) <= inclusions[0]
    assert _simulated(y, x) <= inclusions[1]
    assert buchi_equiv(x, y).equal == all(inclusions)


@given(join_pairs())
def test_simulation_on_joins_agrees_with_the_flattened_joins(pair):
    g1, g2 = pair
    assume(len(g1.final_family) == len(g2.final_family) == 2)
    if _simulated(g1, g2) and _simulated(g2, g1):
        assert buchi_equiv(degeneralize(g1), degeneralize(g2)).equal


def test_simulation_on_joins_maps_every_final_set():
    # The counterexample's joins have the same moves and differ only in
    # their final sets, so simulation must not settle them.
    j1, j2 = buchi_counterexample().joins
    assert len(j1.final_family) == len(j2.final_family) == 2
    assert not (_simulated(j1, j2) and _simulated(j2, j1))
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
        assert _simulated(g, renamed) and _simulated(renamed, g)
        assert buchi_equiv(degeneralize(g), degeneralize(renamed)).equal
    assert flipped


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
    # The first pair's monoid has 4 elements, the second's over 20,000.
    for (j1, j2), limit in ((buchi_counterexample().joins, 3), (fuzzed, 10)):
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


def complement_path_digest(seeds=range(12)) -> str:
    """sha256 of every complement-path output on C9's family machines.

    Covers each machine's complement as canonical JSON, the repr of
    ``buchi_empty`` on the machine and on its intersection with the
    complement, and the sorted ``accepting_loop_states`` of both machines for
    every period of up to two letters.
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
            repr(buchi_empty(b)),
            repr(buchi_empty(buchi_intersect(b, c))),
        ]
        lines += [repr(sorted(accepting_loop_states(m, per))) for m in (b, c) for per in periods]
        digest.update("\n".join(lines).encode() + b"\n")
    return digest.hexdigest()


def test_complement_path_outputs_are_pinned():
    # Recorded before the complement path moved onto the int SCC kernel.
    expected = (GOLDEN / "complement.sha256").read_text(encoding="utf-8").strip()
    assert complement_path_digest() == expected


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


def test_buchi_empty():
    witness = buchi_empty(parity_left())
    assert isinstance(witness, LassoWitness)
    assert witness.accepted_by == "machine"
    assert accepts_lasso(parity_left(), witness.lasso)
    assert buchi_empty(dead_after_one()) is None


def test_accepting_loop_states():
    left = parity_left()
    assert accepting_loop_states(left, (A,)) == {"q0", "q1"}
    assert accepting_loop_states(left, (TAU,)) == frozenset()
    assert accepting_loop_states(left, (A, A)) == {"q0", "q1"}


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
