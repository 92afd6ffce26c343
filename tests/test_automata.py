"""Machines: stepping, validation, acceptance, degeneralization."""

import random

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
    gba_accepts_lasso,
    reach,
    strongly_connected_components,
    traceable,
    trap_states,
    validate,
    with_idle_loops,
    without_invisible_edges,
)
from tsr.automata import _indexed, _live_ids, _loop_ids
from tsr.congruence import GenParams, random_machine
from tsr.records import TAU, FiniteWord, Lasso, enumerate_alphabet

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
    assert gba_accepts_lasso(g, Lasso.of([], [A], names={"A"}))
    assert not gba_accepts_lasso(g, Lasso.of([], [TAU], names={"A"}))


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
        assert gba_accepts_lasso(m, l) == accepted


def test_a_bar_and_its_plain_system_are_distinct_cache_keys():
    # _indexed, _masks and _targets_mask are cached per machine; were a Bar
    # equal to its plain system, the second call would read the first's
    # finite targets.
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
    # Bar; a family of two sets makes the second set matter too.
    names = frozenset({"A"})
    letters = sorted(enumerate_alphabet(names, frozenset({"0", "1"})))
    for seed in range(40):
        b = random_machine(
            GenParams(max_states=4, name_pool=names, data_pool=frozenset({"0", "1"}), seed=seed),
            "bar",
        )
        rng = random.Random(f"gba-family:{seed}")
        family = [{q for q in sorted(b.states) if rng.random() < 0.5} or set(b.final)
                  for _ in range(2)]
        g = Gba.make(b.states, b.names, b.data, b.transitions, b.initial, family)
        for per in words_up_to(letters, 2)[1:]:
            loop = {q for q, ok in zip(_indexed(g)[0], _loop_ids(g, per)) if ok}
            for pre in words_up_to(letters, 2):
                l = Lasso(pre, per, names)
                batched = bool(reach(g, g.initial, FiniteWord(pre, names)) & loop)
                assert accepts_lasso(g, l) == batched == naive_lasso_accepts(g, g.final_family, l)


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
        assert accepts_lasso(flat, l) == gba_accepts_lasso(g, l)
        assert accepts_lasso(flat, l) == accepts_lasso(reference, l)


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
        assert accepts_lasso(flat, l) == gba_accepts_lasso(g, l)


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


def test_verdict_witness_kind():
    assert Verdict(True).witness_kind is None
    w = FiniteWord.of([A], names={"A"})
    assert Verdict(False, w).witness_kind == "finite"
    l = Lasso.of([], [A], names={"A"})
    assert Verdict(False, l).witness_kind == "lasso"
