"""Machines: stepping, validation, acceptance, degeneralization."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bar,
    gba,
    lassos_up_to,
    lts,
    lts_to_bar,
    naive_lasso_accepts,
    naive_live_ids,
    naive_validate,
    parity_left,
    parity_right,
    reachable_from,
    rec,
    step,
    words_up_to,
)
from tsr.automata import (
    Bar,
    Gba,
    Ltsr,
    Verdict,
    accepts_finite,
    accepts_lasso,
    base_of,
    degeneralize,
    finite_targets,
    reach,
    strongly_connected_components,
    traceable,
    trap_states,
    validate,
    with_idle_loops,
    without_invisible_edges,
)
import tsr
from tsr import automata
from tsr.automata import _final_sets, _ids, _index, _indexed, _live_ids, _loop_ids
from tsr.congruence import GenParams, random_machine
from tsr.join import join
from tsr.languages import accepting_loop_states
from tsr.records import TAU, FiniteWord, Lasso, enumerate_alphabet
from tsr.serialize import dumps_canonical, machine_to_json

A = rec(A="0")
GOLDEN = Path(__file__).parent / "golden"
F = rec(zz0="0")


def test_reach_steps_one_letter():
    m = parity_left()
    assert step(m, {"q0"}, A) == {"q1"}
    assert step(m, {"q0", "q1"}, A) == {"q0", "q1"}
    assert step(m, {"q0"}, TAU) == frozenset()


def test_reach_is_lenient_about_foreign_symbols():
    m = parity_left()
    foreign = FiniteWord.of([rec(B="0")], names={"A", "B"})
    assert reach(m, {"q0"}, foreign) == frozenset()
    assert not traceable(m, foreign)
    w = FiniteWord.of([A, A, A], names={"A"})
    assert reach(m, {"q0"}, w) == {"q1"}


def test_parity_finite_acceptance():
    left, right = parity_left(), parity_right()
    for k in range(9):
        w = FiniteWord.of([A] * k, names={"A"})
        assert accepts_finite(left, w) == (k % 2 == 1)
        assert accepts_finite(right, w) == (k % 2 == 0)


def test_parity_lasso_acceptance():
    left, right = parity_left(), parity_right()
    only_a = Lasso.of([], [A], names={"A"})
    for m in (left, right):
        assert accepts_lasso(m, only_a)
        assert accepts_lasso(m, Lasso.of([A], [A, A], names={"A"}))
        assert not accepts_lasso(m, Lasso.of([], [TAU], names={"A"}))


def test_lasso_acceptance_is_unrolling_invariant():
    machines = [parity_left(), parity_right(), with_idle_loops(parity_left())]
    letters = [TAU, A]
    for m in machines:
        for pre, per in lassos_up_to(letters, 1, 2):
            base_lasso = Lasso.of(pre, per, names={"A"})
            variants = [
                Lasso.of(pre + per, per, names={"A"}),
                Lasso.of(pre, per + per, names={"A"}),
                Lasso.of(pre + per + per, per, names={"A"}),
            ]
            expected = accepts_lasso(m, base_lasso)
            for v in variants:
                assert accepts_lasso(m, v) == expected


def test_traceable_matches_lts_to_bar_acceptance():
    m = lts(
        ["s0", "s1"], ["A"], ["0"],
        [("s0", A, "s1"), ("s1", TAU, "s1")],
        ["s0"],
    )
    b = lts_to_bar(m)
    assert b.final == m.states
    for symbols in words_up_to([TAU, A], 4):
        w = FiniteWord.of(symbols, names={"A"})
        assert traceable(m, w) == accepts_finite(b, w)


def test_finite_targets():
    m = parity_left()
    assert finite_targets(m.base) == {"q0", "q1"}
    assert finite_targets(m) == {"q1"}
    g = gba(
        ["q0", "q1"], ["A"], ["0"],
        [("q0", A, "q1"), ("q1", A, "q0")],
        ["q0"], [["q0", "q1"], ["q1"]],
    )
    assert finite_targets(g) == {"q1"}
    empty_family = gba(
        ["q0"], ["A"], ["0"], [("q0", A, "q0")], ["q0"], [],
    )
    assert finite_targets(empty_family) == {"q0"}


def test_gba_family_is_canonical():
    g = gba(
        ["q0", "q1"], ["A"], ["0"],
        [("q0", A, "q1"), ("q1", A, "q0")],
        ["q0"], [["q1"], ["q0", "q1"], ["q1"]],
    )
    assert g.final_family == (
        frozenset({"q0", "q1"}),
        frozenset({"q1"}),
    )


def test_gba_empty_family_accepts_any_infinite_run():
    g = gba(["q0"], ["A"], ["0"], [("q0", A, "q0")], ["q0"], [])
    assert accepts_lasso(g, Lasso.of([], [A], names={"A"}))
    assert not accepts_lasso(g, Lasso.of([], [TAU], names={"A"}))


def test_gba_accepts_lasso_is_the_old_name_of_accepts_lasso():
    # perfbench/workloads.py still reads the old name.
    assert tsr.gba_accepts_lasso is tsr.accepts_lasso


@st.composite
def lasso_cases(draw):
    """A system on 1-4 states over port A, a final set, a family of 0-3 final
    sets, and a lasso over TAU and A whose prefix may hold a foreign letter."""
    n = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(n)]
    state = st.sampled_from(states)
    nonempty = st.sets(state, min_size=1)
    edges = draw(st.sets(st.tuples(state, st.sampled_from([TAU, A]), state), max_size=10))
    base = lts(states, ["A"], ["0"], edges, draw(nonempty))
    final = draw(nonempty)
    family = [draw(nonempty) for _ in range(draw(st.integers(0, 3)))]
    prefix = draw(st.lists(st.sampled_from([TAU, A, rec(B="0")]), max_size=2))
    period = draw(st.lists(st.sampled_from([TAU, A]), min_size=1, max_size=3))
    return base, final, family, Lasso.of(prefix, period, names={"A", "B"})


@given(lasso_cases())
def test_accepts_lasso_takes_every_machine_kind(case):
    # A plain system accepts as its all-final Buchi view does; a Gba needs a
    # cycle through every family member, and an empty family accepts every
    # infinite run.
    base, final, family, l = case
    expected = {
        base: accepts_lasso(lts_to_bar(base), l),
        Bar(**vars(base), final=frozenset(final)): naive_lasso_accepts(base, [final], l),
        Gba.make(base.states, ["A"], ["0"], base.transitions, base.initial, family):
            naive_lasso_accepts(base, family, l),
    }
    assert expected[base] == naive_lasso_accepts(base, [base.states], l)
    for m, accepted in expected.items():
        assert accepts_lasso(m, l) == accepted


def test_a_bar_and_its_plain_system_are_distinct_cache_keys():
    # _indexed, which holds the finite targets, is cached per machine; were
    # a Bar equal to its plain system, the second call would read the first's
    # targets.
    b = bar(["s0", "s1"], ["A"], ["0"], [("s0", A, "s1")], ["s0"], ["s0"])
    plain = base_of(b)
    w = FiniteWord((A,), frozenset({"A"}))
    assert accepts_finite(plain, w)
    assert not accepts_finite(b, w)
    assert plain != b and plain == base_of(plain)
    assert type(plain) is Ltsr and not hasattr(plain, "base")
    assert isinstance(b, Ltsr) and b.base == plain


def test_trap_states_and_idle_loops():
    m = lts(["s0", "s1"], ["A"], ["0"], [("s0", A, "s1")], ["s0"])
    assert trap_states(m) == {"s1"}
    idle = with_idle_loops(m)
    assert trap_states(idle) == frozenset()
    assert (("s1", TAU, "s1")) in idle.transitions
    # Idle closure replaces pre-existing invisible edges with self-loops only.
    noisy = lts(["s0", "s1"], ["A"], ["0"], [("s0", TAU, "s1")], ["s0"])
    closed = with_idle_loops(noisy)
    assert ("s0", TAU, "s1") not in closed.transitions
    assert ("s0", TAU, "s0") in closed.transitions
    stripped = without_invisible_edges(closed)
    assert all(not t[1].is_invisible for t in stripped.transitions)


def test_validate_reports_violations():
    assert validate(parity_left()) == []
    empty = Ltsr(frozenset(), frozenset(), frozenset(), frozenset(), frozenset())
    msgs = validate(empty)
    assert any("at least one state" in v for v in msgs)
    assert any("non-empty name set" in v for v in msgs)
    assert any("initial" in v for v in msgs)

    bad_edge = Ltsr(
        frozenset({"s0"}), frozenset({"A"}), frozenset({"0"}),
        frozenset({("s0", rec(B="1"), "s9")}), frozenset({"s0"}),
    )
    msgs = validate(bad_edge)
    assert any("undeclared states" in v for v in msgs)
    assert any("outside the name set" in v for v in msgs)
    assert any("outside the data set" in v for v in msgs)

    no_final = Bar(
        frozenset({"s0"}), frozenset({"A"}), frozenset({"0"}),
        frozenset({("s0", A, "s0")}), frozenset({"s0"}), frozenset(),
    )
    assert any("final set must be non-empty" in v for v in validate(no_final))

    stray_member = Gba(**vars(base_of(no_final)), final_family=(frozenset({"sX"}),))
    assert any("final-family member" in v for v in validate(stray_member))


def test_validate_reports_tokens_initial_states_labels_and_finals():
    base = Ltsr(
        frozenset({"s0", "bad state"}), frozenset({"A"}), frozenset({"0"}),
        frozenset({("s0", "A=0", "s0")}), frozenset({"s0", "s9"}),
    )
    msgs = validate(Bar(**vars(base), final=frozenset({"s8"})))
    assert "state id must be a non-empty string without whitespace, got 'bad state'" in msgs
    assert "initial states must be states of the machine" in msgs
    assert "transition label 'A=0' is not a record" in msgs
    assert "final states must be states of the machine" in msgs


def test_validate_reports_a_label_that_is_not_a_record_beside_records():
    # Sorting the transitions once compared the str label with the Record
    # leaving the same state and raised TypeError.
    base = Ltsr(
        frozenset({"s0"}), frozenset({"A"}), frozenset({"0"}),
        frozenset({("s0", "A=0", "s0"), ("s0", A, "s0")}), frozenset({"s0"}),
    )
    assert validate(base) == ["transition label 'A=0' is not a record"]


def test_validate_reports_record_labels_by_source_label_and_target():
    base = Ltsr(
        frozenset({"s0", "s1"}), frozenset({"A"}), frozenset({"0"}),
        frozenset({
            ("s1", rec(A="1"), "s0"),
            ("s0", rec(B="0"), "s1"),
            ("s0", rec(A="1"), "s9"),
            ("s0", rec(A="1"), "s1"),
        }),
        frozenset({"s0"}),
    )
    assert validate(base) == [
        "transition label {A=1} uses data outside the data set",
        "transition s0 -{A=1}-> s9 uses undeclared states",
        "transition label {A=1} uses data outside the data set",
        "transition label {B=0} uses ports outside the name set",
        "transition label {A=1} uses data outside the data set",
    ]


def test_validate_reports_tokens_that_are_not_strings_beside_strings():
    # Sorting the tokens, or the transitions by source, once compared an int
    # with a str and raised TypeError.
    def machine(states, names, transitions):
        return Ltsr(frozenset(states), frozenset(names), frozenset({"0"}),
                    frozenset(transitions), frozenset({"s0"}))

    assert validate(machine({"s0", 1}, {"A"}, {("s0", A, "s0")})) == [
        "state id must be a non-empty string without whitespace, got 1",
    ]
    assert validate(machine({"s0"}, {"A", 2}, {("s0", A, "s0")})) == [
        "port name must be a non-empty string without whitespace, got 2",
    ]
    assert validate(machine({"s0"}, {"A"}, {(1, A, "s0"), ("s0", A, "s0")})) == [
        "transition 1 -{A=0}-> s0 uses undeclared states",
    ]


def test_validate_reports_a_transition_that_is_not_a_triple_last():
    # Unpacking each transition into (source, label, target) once raised
    # ValueError on a pair.
    assert validate(Ltsr.make(["q0"], ["A"], ["0"], [("q0", A)], ["q0"])) == [
        f"transition {('q0', A)!r} is not a (source, label, target) triple",
    ]
    odd = Ltsr(
        frozenset({"s0"}), frozenset({"A"}), frozenset({"0"}),
        frozenset({"s0", ("s0", A, "s0", "s0"), ("s0", A, "s9")}), frozenset({"s0"}),
    )
    assert validate(odd) == [
        "transition s0 -{A=0}-> s9 uses undeclared states",
        "transition 's0' is not a (source, label, target) triple",
        f"transition {('s0', A, 's0', 's0')!r} is not a (source, label, target) triple",
    ]


def _faulty(seed):
    """A seeded machine with faults added to its edges: labels that are fine
    elsewhere put on edges to or from undeclared states, foreign ports,
    foreign data, labels that are not records and transitions that are not
    triples, each drawn at random."""
    rng = random.Random(f"faulty:{seed}")
    m = random_machine(GenParams(4, frozenset("AB"), frozenset("01"), seed=seed))
    edges = sorted(m.transitions)
    extra = set()
    for _ in range(rng.randint(1, 6)):
        src, label, dst = rng.choice(edges)
        ghost = rng.choice(["zz", "a b", "q9"])
        choice = rng.randrange(5)
        if choice == 0:
            extra.add(rng.choice([(src, label, ghost), (ghost, label, dst), (ghost, label, ghost)]))
        elif choice == 1:
            extra.add((src, rec({**dict(label.entries), "Z": "0"}), rng.choice([dst, ghost])))
        elif choice == 2:
            extra.add((src, rec({"A": "7", "B": rng.choice("017")}), rng.choice([dst, ghost])))
        elif choice == 3:
            extra.add((src, rng.choice(["A=0", ("A", "0"), 3]), rng.choice([dst, ghost])))
        else:
            extra.add(rng.choice([(src, label), (src, label, dst, dst), src, (3,)]))
    kind = rng.choice([Ltsr, Bar, Gba])
    fields = dict(vars(base_of(m)), transitions=m.transitions | extra)
    if kind is Bar:
        return Bar(**fields, final=frozenset(rng.sample(sorted(m.states) + ["q9"], 2)))
    if kind is Gba:
        return Gba(**fields, final_family=(m.final, frozenset({rng.choice(["q0", "q9"])})))
    return Ltsr(**fields)


@pytest.mark.parametrize("seed", range(40))
def test_validate_reports_what_a_per_transition_check_reports(seed):
    m = _faulty(seed)
    assert validate(m) == naive_validate(m)
    assert validate(m), "every seeded machine carries a fault"


def test_strongly_connected_components():
    edges = {"a": ["b"], "b": ["a", "c"], "c": []}
    sccs = strongly_connected_components(["a", "b", "c"], lambda n: edges[n])
    assert sorted(tuple(sorted(s)) for s in sccs) == [("a", "b"), ("c",)]
    loop = {"x": ["x"]}
    assert [list(s) for s in strongly_connected_components(["x"], lambda n: loop[n])] == [["x"]]


@st.composite
def digraphs(draw):
    """A digraph on 0-12 listed nodes plus up to 3 nodes outside the list.

    Returns the listed nodes (shuffled, perhaps with a repeat) and the
    successor lists of every node; self-loops and edges to the outside
    nodes occur.
    """
    n = draw(st.integers(0, 12))
    total = n + draw(st.integers(0, 3))
    succ = [draw(st.lists(st.integers(0, total - 1), max_size=3)) for _ in range(total)]
    nodes = draw(st.permutations(range(n)))
    if nodes and draw(st.booleans()):
        nodes = nodes + [nodes[0]]
    return nodes, succ


@st.composite
def table_machines(draw):
    """An Ltsr, a Bar, a join and an empty-family Gba, from two systems on
    1-3 states over ports A and B and data {0, 1}.  Each system draws its
    labels from three letters, so some letter of its alphabet is often
    unused."""
    bars = []
    for port in ("A", "B"):
        n = draw(st.integers(1, 3))
        states = [f"{port.lower()}{i}" for i in range(n)]
        state = st.sampled_from(states)
        letters = st.sampled_from([TAU, rec({port: "0"}), rec({port: "1"})])
        edges = draw(st.sets(st.tuples(state, letters, state), max_size=8))
        initial = draw(st.sets(state, min_size=1))
        bars.append(bar(states, [port], ["0", "1"], edges, initial, draw(st.sets(state))))
    base = base_of(bars[0])
    return [base, bars[0], join(*bars), Gba(**vars(base), final_family=())]


@given(table_machines())
def test_the_id_table_holds_the_rows_masks_and_final_masks_of_a_machine(machines):
    for m in machines:
        table = _indexed(m)
        order = table.order
        assert order == sorted(m.states)
        assert table.initial == sum(1 << order.index(q) for q in m.initial)
        # A letter of the alphabet that no transition carries has no rows.
        labels = {r for _, r, _ in m.transitions}
        assert table.succ.keys() == table.masks.keys() == labels
        edges = {
            (order[i], r, order[j])
            for r, rows in table.succ.items()
            for i, row in enumerate(rows)
            for j in row
        }
        assert edges == m.transitions
        # Rows list their ids once each, lowest first.
        for r, rows in table.succ.items():
            assert table.masks[r] == [sum(1 << j for j in row) for row in rows]
            assert all(list(row) == sorted(set(row)) for row in rows)
        for i, row in enumerate(table.moves):
            assert list(row) == sorted({j for rows in table.succ.values() for j in rows[i]})
        as_set = lambda mask: frozenset(order[i] for i in _ids(mask))
        assert tuple(map(as_set, table.finals)) == _final_sets(m)
        assert as_set(table.targets) == finite_targets(m)
        assert trap_states(m) == m.states - {src for src, _, _ in m.transitions}


@given(digraphs())
def test_sccs_are_the_mutual_reachability_classes_in_reverse_topological_order(graph):
    nodes, succ = graph
    sccs = strongly_connected_components(nodes, lambda v: succ[v])
    reach_of = {v: reachable_from(succ, v) | {v} for v in range(len(succ))}
    found = [v for scc in sccs for v in scc]
    assert len(found) == len(set(found))
    assert set(found) == set().union(*(reach_of[v] for v in nodes))
    position = {}
    for i, scc in enumerate(sccs):
        for v in scc:
            assert set(scc) == {w for w in reach_of[v] if v in reach_of[w]}
            position[v] = i
    for v in found:
        for w in succ[v]:
            assert position[w] <= position[v]


@given(digraphs(), st.data())
def test_live_ids_are_the_nodes_reaching_an_accepting_cycle(graph, data):
    # Zero to three lists; sinks, self-loops and lists with no member occur.
    _, succ = graph
    n = len(succ)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    accepting = data.draw(st.lists(flags, max_size=3))
    assert _live_ids(succ, *accepting) == naive_live_ids(succ, accepting)


def test_gba_lasso_acceptance_matches_batched_loop_states():
    # For each period the loop states are found once, and every prefix is
    # judged by the states it reaches, as accepting_loop_states does for a
    # Bar; a family of two sets makes the second set matter too.  Each
    # period's answer is first taken from a table of its own; then every
    # period is asked again of one warm table, reversed and shuffled, so an
    # answer read at the wrong position of a shared rotation shows.
    names = frozenset({"A"})
    letters = sorted(enumerate_alphabet(names, frozenset({"0", "1"})))
    periods = words_up_to(letters, 3)[1:]
    periods += [per * k for per in words_up_to(letters, 2)[1:] for k in (2, 3)]
    prefixes = words_up_to(letters, 2)
    for seed in range(40):
        b = random_machine(
            GenParams(max_states=4, name_pool=names, data_pool=frozenset({"0", "1"}), seed=seed),
            "bar",
        )
        rng = random.Random(f"gba-family:{seed}")
        family = [{q for q in sorted(b.states) if rng.random() < 0.5} or set(b.final)
                  for _ in range(2)]
        g = Gba.make(b.states, b.names, b.data, b.transitions, b.initial, family)
        cold = {m: {per: _loop_ids(_index(m), per) for per in periods} for m in (g, b)}
        order = _index(g).order
        for per in periods:
            loop = {order[i] for i in _ids(cold[g][per])}
            # Prefixes of up to one letter for the longer periods keep the
            # naive search quick.
            for pre in prefixes if len(per) < 3 else prefixes[:4]:
                l = Lasso(pre, per, names)
                batched = bool(reach(g, g.initial, FiniteWord(pre, names)) & loop)
                assert accepts_lasso(g, l) == batched == naive_lasso_accepts(g, g.final_family, l)
        shuffled = list(periods)
        rng.shuffle(shuffled)
        for asked in (periods[::-1], shuffled):
            warm = _index(g)
            assert [_loop_ids(warm, per) for per in asked] == [cold[g][per] for per in asked]
        order = _index(b).order
        for per in shuffled:
            expected = {order[i] for i in _ids(cold[b][per])}
            assert accepting_loop_states(b, per) == expected


def test_rotations_and_powers_of_a_period_share_one_product(monkeypatch):
    # Reading (a b)^w accepts from q0 only and (b a)^w from q1 only, so an
    # answer read at the wrong position of the shared product shows.
    a, b = rec(A="0"), rec(A="1")
    m = bar(["q0", "q1"], ["A"], ["0", "1"], [("q0", a, "q1"), ("q1", b, "q0")], ["q0"], ["q0"])
    periods = [(a, b), (b, a), (a, b, a, b), (b, a, b, a)]
    expected = [_loop_ids(_index(m), per) for per in periods]
    built = []
    monkeypatch.setattr(automata, "_live_ids", lambda *args: built.append(args) or _live_ids(*args))
    _indexed.cache_clear()
    table = _indexed(m)
    assert [_loop_ids(table, per) for per in periods] == expected == [0b01, 0b10, 0b01, 0b10]
    assert accepting_loop_states(m, (b, a)) == {"q1"}
    assert accepts_lasso(m, Lasso((a,), (b, a, b, a), frozenset({"A"})))
    assert len(built) == 1
    _indexed.cache_clear()
    assert accepting_loop_states(m, (a, b, a, b)) == {"q0"}
    assert len(built) == 2


def test_degeneralize_single_member_family():
    g = gba(
        ["q0", "q1"], ["A"], ["0"],
        [("q0", A, "q1"), ("q1", A, "q0")],
        ["q0"], [["q1"]],
    )
    flat = degeneralize(g)
    reference = parity_left()
    for pre, per in lassos_up_to([TAU, A], 2, 2):
        l = Lasso.of(pre, per, names={"A"})
        assert accepts_lasso(flat, l) == accepts_lasso(g, l)
        assert accepts_lasso(flat, l) == accepts_lasso(reference, l)


def test_degeneralize_of_an_empty_family_is_one_all_final_copy():
    # An empty family constrains nothing, like one member holding every state.
    g = gba(
        ["q0", "q1", "q2"], ["A"], ["0"],
        [("q0", A, "q1"), ("q1", A, "q0"), ("q1", TAU, "q2"), ("q2", TAU, "q2"), ("q2", A, "q1")],
        ["q0"], [],
    )
    flat = degeneralize(g)
    assert flat.states == {"(q0,1)", "(q1,1)", "(q2,1)"}
    assert flat.final == flat.states
    for pre, per in lassos_up_to([TAU, A], 2, 3):
        l = Lasso.of(pre, per, names={"A"})
        assert accepts_lasso(flat, l) == accepts_lasso(g, l)


def test_degeneralize_preserves_lasso_language():
    g = gba(
        ["q0", "q1", "q2"], ["A"], ["0"],
        [
            ("q0", A, "q1"), ("q1", A, "q2"), ("q2", A, "q0"),
            ("q0", TAU, "q0"), ("q2", TAU, "q1"),
        ],
        ["q0"], [["q0"], ["q1", "q2"]],
    )
    flat = degeneralize(g)
    for pre, per in lassos_up_to([TAU, A], 2, 3):
        l = Lasso.of(pre, per, names={"A"})
        assert accepts_lasso(flat, l) == accepts_lasso(g, l)


def test_degeneralize_finite_acceptance_includes_prefixes_of_accepted_lassos():
    # Joining the two-state cycle with an always-firing one-state context is
    # the canonical case where no single final set can match both languages:
    # the flattening accepts, finitely, some prefixes of its accepted lassos.
    from tsr.join import join

    left = parity_left()
    context = bar(["c0"], ["zz0"], ["0"], [("c0", F, "c0")], ["c0"], ["c0"])
    g = join(left, context)
    flat = degeneralize(g)
    empty = FiniteWord.of([], names=g.names)
    assert not accepts_finite(g, empty)
    assert accepts_finite(flat, empty)
    # One-sided inclusion always holds: the flattening only ever adds words.
    letters = [TAU, rec(A="0"), F, rec(A="0", zz0="0")]
    for symbols in words_up_to(letters, 3):
        w = FiniteWord.of(symbols, names=g.names)
        if accepts_finite(g, w):
            assert accepts_finite(flat, w)


def test_degeneralize_pads_when_nothing_accepts():
    g = gba(["q0"], ["A"], ["0"], [], ["q0"], [["q0"]])
    flat = degeneralize(g)
    assert validate(flat) == []
    for pre, per in lassos_up_to([TAU, A], 1, 1):
        assert not accepts_lasso(flat, Lasso.of(pre, per, names={"A"}))


def test_degeneralize_pads_a_family_with_no_common_state_and_no_cycle():
    g = gba(["q0", "q1"], ["A"], ["0"], [("q0", A, "q1")], ["q0"], [["q0"], ["q1"]])
    flat = degeneralize(g)
    assert validate(flat) == []
    assert flat.final == frozenset({"(pad,0)"})
    assert flat.states == {"(q0,1)", "(q0,2)", "(q1,1)", "(q1,2)", "(pad,0)"}
    for pre, per in lassos_up_to([TAU, A], 1, 1):
        assert not accepts_lasso(flat, Lasso.of(pre, per, names={"A"}))


def degeneralize_digest(seeds=range(80)) -> str:
    """sha256 of ``degeneralize`` on seeded Gbas, as canonical JSON.

    Seed s draws a Gba of one to four states over port A and data {0, 1},
    with a family of s % 4 members; state names are drawn from a pool whose
    names hold ``,``, ``(``, ``)`` and ``\\``.  Members may be empty, and
    the edges are sparse enough that some seeds reach no cycle.
    """
    pool = ["q0", "a,b", "(x", "p\\", "(u,v)", ")", "s\\,t", "(q1,2)"]
    letters = [TAU, rec(A="0"), rec(A="1")]
    digest = hashlib.sha256()
    for seed in seeds:
        rng = random.Random(f"degeneralize:{seed}")
        states = rng.sample(pool, rng.randint(1, 4))
        edges = [
            (src, r, dst)
            for src in states
            for r in letters
            for dst in states
            if rng.random() < 0.25
        ]
        initial = [q for q in states if rng.random() < 0.4] or [states[0]]
        family = [[q for q in states if rng.random() < 0.5] for _ in range(seed % 4)]
        flat = degeneralize(gba(states, ["A"], ["0", "1"], edges, initial, family))
        digest.update(dumps_canonical(machine_to_json(flat)).encode())
    return digest.hexdigest()


def test_degeneralize_outputs_are_pinned():
    # Recorded before degeneralize moved onto the id table.
    expected = (GOLDEN / "degeneralize.sha256").read_text(encoding="utf-8").strip()
    assert degeneralize_digest() == expected


def test_verdict_witness_kind():
    assert Verdict(True).witness_kind is None
    w = FiniteWord.of([A], names={"A"})
    assert Verdict(False, w).witness_kind == "finite"
    l = Lasso.of([], [A], names={"A"})
    assert Verdict(False, l).witness_kind == "lasso"
