"""Finite, lasso, and infinite-trace language decisions."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bar,
    lassos_up_to,
    lts,
    naive_profile_compose,
    rec,
    states_reaching_accepting_cycles,
    words_up_to,
)
from tsr.automata import (
    accepts_finite,
    accepts_lasso,
    lts_to_bar,
    reach,
    validate,
    with_idle_loops,
)
from tsr.congruence import GenParams, random_machine
from tsr.errors import AlphabetMismatchError, DataSetMismatchError, SizeBoundError
from tsr.join import join_lts
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
    determinize,
    dfa_accepts,
    finite_equiv,
    infinite_traceable_equiv,
    shortest_accept_difference,
)
from tsr.languages import _profile_space
from tsr.records import TAU, FiniteWord, Lasso

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
    """A machine size, a final set, and three profiles over it.

    Profiles of real words put a pair in ``fin`` whenever an endpoint is
    final, so the drawn ones do too; that is what makes the unit a unit.
    """
    n = draw(st.integers(1, 9))
    final = draw(st.frozensets(st.integers(0, n - 1)))
    pairs = [(p, q) for p in range(n) for q in range(n)]
    triple = []
    for _ in range(3):
        reach = draw(st.frozensets(st.sampled_from(pairs)))
        fin = draw(st.frozensets(st.sampled_from(sorted(reach)))) if reach else frozenset()
        fin |= {(p, q) for (p, q) in reach if p in final or q in final}
        triple.append((reach, frozenset(fin)))
    return n, final, triple


def _pack(n, profile):
    return tuple(sum(1 << (p * n + q) for (p, q) in pairs) for pairs in profile)


@given(profile_triples())
def test_packed_profile_product_is_relational_composition(case):
    n, final, (a, b, c) = case
    states = [f"s{p}" for p in range(n)]
    machine = bar(states, ["A"], ["0"], [], states[:1], [states[p] for p in final])
    space = _profile_space(machine, [])
    pa, pb, pc = (_pack(n, x) for x in (a, b, c))
    assert space.mult(pa, pb) == _pack(n, naive_profile_compose(a, b))
    assert space.mult(space.mult(pa, pb), pc) == space.mult(pa, space.mult(pb, pc))
    assert space.mult(pa, space.unit) == pa
    assert space.mult(space.unit, pa) == pa


def test_buchi_complement_keeps_only_live_states():
    params = GenParams(max_states=5, name_pool=frozenset({"A"}), data_pool=frozenset({"0", "1"}))
    for seed in range(12):
        comp = buchi_complement(random_machine(replace(params, seed=seed), "bar"))
        live = states_reaching_accepting_cycles(comp)
        assert comp.base.states - live <= comp.base.initial | {"never"}


def test_buchi_intersect():
    both = buchi_intersect(parity_left(), parity_right())
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
    from tsr.join import join

    g = join(b1, b2)
    union_names = b1.names | b2.names
    af = rec(A="0", zz0="0")
    for symbols in [(), (A,), (af,), (F, A), (A, A), (A, F, TAU)]:
        w = FiniteWord.of(symbols, names=union_names)
        assert componentwise_accepts_finite(w, b1, b2) == accepts_finite(g, w)
