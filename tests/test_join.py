"""The join composition: rules, structure, and known compositions."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bar,
    gba,
    lts,
    lts_to_bar,
    naive_join_edges,
    rec,
    rename_machine,
    states_reaching_accepting_cycles,
)
from tsr import automata
from tsr.automata import (
    Bar,
    Gba,
    _index,
    _indexed,
    _kept,
    _plain,
    accepts_finite,
    accepts_lasso,
    base_of,
    degeneralize,
    validate,
)
from tsr.congruence import GenParams, random_machine, relation_equiv
from tsr.errors import DataSetMismatchError, TsrError
from tsr.join import (
    _joined_table,
    distinguishing_context,
    fresh_name,
    join,
    join_bar_flat,
    join_lts,
    product_state,
)
from tsr.languages import _productive, buchi_intersect, componentwise_lasso_traceable
from tsr.records import TAU, FiniteWord, Lasso, Record

A = rec(A="0")
F = rec(zz0="0")
AF = rec(A="0", zz0="0")


def two_state_cycle(final):
    return bar(
        ["q0", "q1"], ["A"], ["0"],
        [("q0", A, "q1"), ("q1", A, "q0")],
        ["q0"], final,
    )


def firing_context():
    return bar(["c0"], ["zz0"], ["0"], [("c0", F, "c0")], ["c0"], ["c0"])


def test_join_of_cycle_and_firing_context_exactly():
    g = join(two_state_cycle(["q1"]), firing_context())
    p, q = product_state("q0", "c0"), product_state("q1", "c0")
    assert g.states == {p, q}
    assert g.initial == {p}
    assert g.names == {"A", "zz0"}
    assert g.transitions == {
        (p, A, q), (q, A, p),          # the cycle moves alone
        (p, F, p), (q, F, q),          # the context fires alone
        (p, AF, q), (q, AF, p),        # both move on the merged record
    }
    assert g.final_family == (
        frozenset({p, q}),             # any cycle state with the final context
        frozenset({q}),                # the final cycle state with any context
    )
    assert validate(g) == []


def test_join_shape_and_type():
    g = join(two_state_cycle(["q1"]), two_state_cycle(["q0"]))
    assert isinstance(g, Gba)
    assert len(g.states) == 4
    assert g.names == {"A"}
    base = join_lts(two_state_cycle(["q1"]).base, two_state_cycle(["q0"]).base)
    assert base.states == g.states
    with pytest.raises(TsrError):
        join(two_state_cycle(["q1"]).base, two_state_cycle(["q0"]))


def test_join_requires_shared_data():
    other = bar(["c0"], ["B"], ["1"], [("c0", rec(B="1"), "c0")], ["c0"], ["c0"])
    with pytest.raises(DataSetMismatchError):
        join(two_state_cycle(["q1"]), other)


def test_join_is_commutative_up_to_state_swap():
    pairs = [
        (two_state_cycle(["q1"]), firing_context()),
        (two_state_cycle(["q1"]), two_state_cycle(["q0"])),
    ]
    for m1, m2 in pairs:
        left = join(m1, m2)
        right = join(m2, m1)
        mapping = {
            product_state(b, a): product_state(a, b)
            for a in base_of(m1).states
            for b in base_of(m2).states
        }
        assert rename_machine(right, mapping) == left


def test_join_same_name_set_synchronizes_on_identical_letters():
    m1 = two_state_cycle(["q1"]).base
    m2 = lts(
        ["s0"], ["A"], ["0"],
        [("s0", A, "s0"), ("s0", TAU, "s0")],
        ["s0"],
    )
    j = join_lts(m1, m2)
    # Visible moves must match exactly; the invisible self-loop interleaves.
    assert j.transitions == {
        (product_state("q0", "s0"), A, product_state("q1", "s0")),
        (product_state("q1", "s0"), A, product_state("q0", "s0")),
        (product_state("q0", "s0"), TAU, product_state("q0", "s0")),
        (product_state("q1", "s0"), TAU, product_state("q1", "s0")),
    }


def test_join_edges_match_naive_rules_on_random_machines():
    for seed in range(12):
        m1 = random_machine(
            GenParams(name_pool=frozenset({"A", "B"}), seed=seed), "lts"
        )
        m2 = random_machine(
            GenParams(name_pool=frozenset({"B", "C"}), seed=seed + 100), "lts"
        )
        j = join_lts(m1, m2)
        assert j.transitions == naive_join_edges(base_of(m1), base_of(m2))
        assert len(j.states) == len(m1.states) * len(m2.states)
        assert j.names == m1.names | m2.names


@st.composite
def small_lts(draw, names):
    """A machine of 1-3 states over ``names`` with up to 6 edges, invisible ones included."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    label = st.dictionaries(st.sampled_from(sorted(names)), st.sampled_from(["0", "1"])).map(
        Record.of
    )
    edges = draw(st.lists(
        st.tuples(st.sampled_from(states), label, st.sampled_from(states)), max_size=6
    ))
    return lts(states, names, ["0", "1"], edges, states[:1])


NAME_SET_PAIRS = {
    "shared": ({"A", "B"}, {"A", "B"}),
    "disjoint": ({"A"}, {"B"}),
    "overlapping": ({"A", "B"}, {"B", "C"}),
    "nested": ({"A"}, {"A", "B"}),
}


@pytest.mark.parametrize("relation", sorted(NAME_SET_PAIRS))
@given(data=st.data())
def test_joined_base_matches_the_per_transition_pair_rules(relation, data):
    names1, names2 = NAME_SET_PAIRS[relation]
    m1 = data.draw(small_lts(names1))
    m2 = data.draw(small_lts(names2))
    for left, right in ((m1, m2), (m2, m1), (m1, lts(["c"], names2, ["0", "1"], [], ["c"]))):
        j = join_lts(left, right)
        assert j.transitions == naive_join_edges(left, right)
        assert j.states == {product_state(a, b) for a in left.states for b in right.states}
        assert j.initial == {product_state(a, b) for a in left.initial for b in right.initial}
        assert j.names == left.names | right.names


def same_table(built, indexed):
    """Two id tables are equal field by field, rows of ids as sets."""
    assert built.order == indexed.order
    assert built.initial == indexed.initial
    assert built.masks == indexed.masks
    assert built.finals == indexed.finals
    assert built.targets == indexed.targets
    as_sets = lambda rows: [set(row) for row in rows]
    assert {r: as_sets(rows) for r, rows in built.succ.items()} == {
        r: as_sets(rows) for r, rows in indexed.succ.items()
    }
    assert as_sets(built.moves) == as_sets(indexed.moves)


# State names whose pairs do not sort in (left id, right id) order: "(a!,x)"
# and "(a(b),x)" sort before "(a,x)"; the others are escaped in a pair.
AWKWARD_STATES = ("a", "a!", "a(b)", "b", "x,y", "a)", "(b", "a\\")


def awkwardly_named(data, m):
    """``m`` with its states renamed to names drawn from ``AWKWARD_STATES``."""
    order = sorted(m.states)
    names = data.draw(st.lists(
        st.sampled_from(AWKWARD_STATES), min_size=len(order), max_size=len(order), unique=True
    ))
    return rename_machine(m, dict(zip(order, names)))


def awkward_bar(data, names):
    """A Buchi automaton over ``names`` with states drawn from ``AWKWARD_STATES``."""
    m = awkwardly_named(data, data.draw(small_lts(names)))
    final = data.draw(st.sets(st.sampled_from(sorted(m.states)), min_size=1))
    return bar(m.states, m.names, m.data, m.transitions, m.initial, final)


@pytest.mark.parametrize("relation", sorted(NAME_SET_PAIRS))
@given(data=st.data())
def test_joined_table_is_the_id_table_of_the_named_join(relation, data):
    names1, names2 = NAME_SET_PAIRS[relation]
    m1 = awkwardly_named(data, data.draw(small_lts(names1)))
    m2 = awkwardly_named(data, data.draw(small_lts(names2)))
    joined = join_lts(m1, m2)
    assert joined.transitions == naive_join_edges(m1, m2)
    # The table the join keeps for _indexed against the one read off it.
    same_table(_indexed(joined), _index(joined))
    same_table(_joined_table(m1, m2), _index(joined))


@pytest.mark.parametrize("relation", sorted(NAME_SET_PAIRS))
@given(data=st.data())
def test_flat_and_plain_joins_of_renumbered_bars_match_their_definitions(relation, data):
    b1, b2 = (awkward_bar(data, names) for names in NAME_SET_PAIRS[relation])
    assert join_bar_flat(b1, b2) == degeneralize(join(b1, b2))
    for joined in (join(b1, b2), join_lts(b1, b2), join_bar_flat(b1, b2)):
        same_table(_indexed(joined), _index(joined))
    _indexed.cache_clear()  # degeneralize names its own table, not join_bar_flat's
    flat = degeneralize(join(b1, b2))
    same_table(_indexed(flat), _index(flat))
    assert join_lts(b1, b2) == join_lts(base_of(b1), base_of(b2))


def counted_indexing(monkeypatch) -> list:
    """The machines ``_index`` is called on from now on, the memo emptied."""
    calls = []
    monkeypatch.setattr(automata, "_index", lambda m: calls.append(m) or _index(m))
    _indexed.cache_clear()
    return calls


def test_join_lts_after_join_indexes_nothing_new(monkeypatch):
    b1, b2 = two_state_cycle(["q1"]), firing_context()
    calls = counted_indexing(monkeypatch)
    join(b1, b2)
    assert calls == [b1, b2]
    join_lts(b1, b2)
    assert calls == [b1, b2]


def test_the_plain_system_of_an_unindexed_bar_indexes_nothing(monkeypatch):
    b = two_state_cycle(["q1"])
    calls = counted_indexing(monkeypatch)
    assert base_of(b) == b.base
    assert calls == []


@pytest.mark.parametrize("decide", [
    lambda b1, b2: relation_equiv("ft", b1, b2).equal,
    lambda b1, b2: componentwise_lasso_traceable(Lasso((), (AF,), frozenset({"A", "zz0"})), b1, b2),
], ids=["ft", "lasso_traces"])
def test_plain_decisions_on_indexed_bars_index_nothing_more(monkeypatch, decide):
    # Both read the plain view of each Bar's own table, so Bars already
    # indexed are not indexed again.
    b1, b2 = two_state_cycle(["q1"]), firing_context()
    calls = counted_indexing(monkeypatch)
    _indexed(b1), _indexed(b2)
    relation_equiv.cache_clear()
    del calls[:]
    decide(b1, b2)
    assert calls == []


def padded_flattening():
    g = gba(["p", "q"], ["A"], ["0"], [("p", A, "q")], ["p"], [{"p"}, {"q"}])
    return degeneralize(g)


@pytest.mark.parametrize("build", [
    lambda: two_state_cycle(["q1"]),
    lambda: gba(["p", "q"], ["A"], ["0"], [("p", A, "q"), ("q", A, "q")], ["p"], []),
    padded_flattening,
    lambda: join(two_state_cycle(["q1"]), firing_context()),
], ids=["bar", "empty_family", "padded_flattening", "join"])
def test_the_plain_system_shares_its_machines_table(build):
    # Its table is the machine's with acceptance set aside, but reading the
    # plain system, or a Bar's base, leaves the memo as it was.
    _indexed.cache_clear()
    m = build()
    table = _indexed(m)
    kept = list(automata._tables.items())
    plain = base_of(m)
    if isinstance(m, Bar):
        assert m.base == plain
    assert list(automata._tables.items()) == kept
    same_table(_plain(table), _index(plain))


def test_a_flattened_join_whose_copies_sort_keeps_its_table(monkeypatch):
    # Both members of the join's family hold every state, so it has one
    # member, and the names (q,1) sort as the joined names q do.
    b1, b2 = two_state_cycle(["q0", "q1"]), firing_context()
    calls = counted_indexing(monkeypatch)
    flat = join_bar_flat(b1, b2)
    table = _indexed(flat)
    assert calls == [b1, b2]
    same_table(table, _index(flat))


def test_a_padded_flattening_is_indexed_from_its_edges():
    flat = padded_flattening()
    assert "(pad,0)" in flat.states and flat.final == {"(pad,0)"}
    same_table(_indexed(flat), _index(flat))


def restricted(m, states):
    """``m`` cut down to ``states``: the edges between them, and its initial
    and final states among them."""
    keep = frozenset(states)
    fields = dict(
        states=keep,
        transitions=frozenset(t for t in m.transitions if t[0] in keep and t[2] in keep),
        initial=m.initial & keep,
    )
    if isinstance(m, Bar):
        fields["final"] = m.final & keep
    return replace(m, **fields)


@pytest.mark.parametrize("relation", sorted(NAME_SET_PAIRS))
@given(data=st.data())
def test_kept_ids_in_order_give_the_table_of_the_restricted_machine(relation, data):
    b1, b2 = (awkward_bar(data, names) for names in NAME_SET_PAIRS[relation])
    for m in (b1, b2, join_lts(b1, b2)):
        table = _indexed(m)
        assert _kept(table, list(range(len(table.order)))) is table
        ids = sorted(data.draw(st.sets(st.sampled_from(range(len(table.order))))))
        same_table(_kept(table, ids), _index(restricted(m, [table.order[i] for i in ids])))


@pytest.mark.parametrize("relation", sorted(NAME_SET_PAIRS))
@given(data=st.data())
def test_productive_keeps_exactly_the_states_with_an_infinite_run(relation, data):
    b1, b2 = (awkward_bar(data, names) for names in NAME_SET_PAIRS[relation])
    for m in (b1, join_lts(b1, b2)):
        infinite = states_reaching_accepting_cycles(lts_to_bar(base_of(m)))
        productive = _productive(_indexed(m))
        assert productive.order == sorted(infinite)
        same_table(productive, _index(restricted(m, infinite)))


def test_join_with_inert_context_is_a_tagged_copy():
    m = two_state_cycle(["q1"]).base
    inert = lts(["c0"], ["Z"], ["0"], [], ["c0"])
    j = join_lts(m, inert)
    assert j.transitions == {
        (product_state(s, "c0"), r, product_state(d, "c0"))
        for s, r, d in m.transitions
    }


def test_join_bar_flat_is_a_buchi_automaton_with_the_same_lasso_language():
    from tsr.automata import accepts_lasso

    g = join(two_state_cycle(["q1"]), firing_context())
    flat = join_bar_flat(two_state_cycle(["q1"]), firing_context())
    assert isinstance(flat, Bar)
    for lasso in [
        Lasso.of([], [A], names=g.names),
        Lasso.of([A], [F], names=g.names),
        Lasso.of([], [F], names=g.names),
        Lasso.of([], [AF], names=g.names),
        Lasso.of([F], [A, F], names=g.names),
    ]:
        assert accepts_lasso(flat, lasso) == accepts_lasso(g, lasso)


def comma_named_pair():
    """Component names whose naive pairings collide: ("x,y", "z") and ("x", "y,z")."""
    left = bar(["x", "x,y"], ["A"], ["0"], [("x", A, "x,y")], ["x"], ["x,y"])
    right = bar(
        ["z", "y,z"], ["B"], ["0"], [("z", rec(B="0"), "y,z")], ["z"], ["y,z"]
    )
    return left, right


def test_join_keeps_pairs_of_comma_names_apart():
    left, right = comma_named_pair()
    g = join(left, right)
    assert len(g.states) == 4
    assert validate(g) == []
    # After A only the left side has reached its final state.
    assert not accepts_finite(g, FiniteWord((A,), g.names))
    assert accepts_finite(g, FiniteWord((A, rec(B="0")), g.names))


def test_product_names_of_plain_and_joined_states_are_unchanged():
    assert product_state("q0", "c0") == "(q0,c0)"
    assert product_state("(q0,c0)", "((s1,s2),t)") == "((q0,c0),((s1,s2),t))"
    assert product_state("x,y", "z") == "(x\\,y,z)"
    assert product_state("a)", "(b") == "(a\\),\\(b)"


adversarial_names = st.lists(
    st.text(alphabet="a,()\\", min_size=1, max_size=3), min_size=1, max_size=5, unique=True
)


@given(adversarial_names, adversarial_names)
def test_composite_state_names_never_collide(names1, names2):
    pairs = {product_state(a, b): (a, b) for a in names1 for b in names2}
    assert len(pairs) == len(names1) * len(names2)
    m1 = bar(names1, ["A"], ["0"], [(q, A, q) for q in names1], names1, names1)
    m2 = bar(names2, ["A"], ["0"], [(q, A, names2[0]) for q in names2], names2, names2)
    g = join(m1, m2)
    assert len(g.states) == len(names1) * len(names2)
    assert len(g.transitions) == len(names1) * len(names2)
    # The intersection is built from its initial pairs, so it is taken with a
    # self-loop copy of m2 on which every triple (q1, q2, copy) is reachable.
    loops2 = bar(names2, ["A"], ["0"], [(q, A, q) for q in names2], names2, names2)
    both = buchi_intersect(m1, loops2)
    assert len(both.states) == 2 * len(names1) * len(names2)
    assert len(both.transitions) == 2 * len(names1) * len(names2)


def test_fresh_name():
    assert fresh_name(set()) == "zz0"
    assert fresh_name({"zz0", "zz1"}) == "zz2"
    assert fresh_name({"A"}, stem="A") == "A0"


def test_distinguishing_context():
    c = distinguishing_context({"A"}, {"A", "B"}, {"0", "1"})
    assert c.states == {"c0"}
    assert c.initial == c.final == {"c0"}
    assert len(c.names) == 1
    (port,) = c.names
    assert port not in {"A", "B"}
    assert c.transitions == {("c0", Record.of({port: "0"}), "c0")}
    with pytest.raises(TsrError):
        distinguishing_context({"A"}, {"A"}, set())
