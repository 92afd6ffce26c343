"""Random machines, language-preserving mutation, congruence checking."""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import bar, four_port_join, lts, rec, rename_machine
from tsr import congruence, languages
from tsr.automata import (
    Bar,
    Gba,
    Verdict,
    _indexed,
    accepts_lasso,
    base_of,
    trap_states,
    validate,
)
from tsr.congruence import (
    RELATIONS,
    CongruenceInstance,
    GenParams,
    relation_equiv,
    buchi_counterexample,
    check_instance,
    distinguish_by_context,
    fuzz_congruence,
    language_preserving_mutate,
    parity_bars,
    random_machine,
)
from tsr.errors import SizeBoundError, TrapStateError, TsrError
from tsr.join import distinguishing_context, join, join_lts
from tsr.languages import buchi_equiv, finite_equiv, shortest_accept_difference
from tsr.records import TAU, Lasso
from tsr.serialize import (
    dumps_canonical,
    instance_to_json,
    machine_to_json,
    report_to_json,
    verdict_to_json,
)

GOLDEN = Path(__file__).parent / "golden"
A = rec(A="0")


def test_gen_params_validation():
    with pytest.raises(TsrError):
        GenParams(max_states=0)
    with pytest.raises(TsrError):
        GenParams(name_pool=frozenset())
    with pytest.raises(TsrError):
        GenParams(data_pool=frozenset())


def test_random_machine_is_deterministic_and_well_formed():
    for seed in range(8):
        params = GenParams(seed=seed)
        m1 = random_machine(params, "bar")
        m2 = random_machine(params, "bar")
        assert m1 == m2
        assert validate(m1) == []
        assert len(m1.states) <= params.max_states
        assert m1.names == params.name_pool
        assert m1.data == params.data_pool
    with pytest.raises(TsrError):
        random_machine(GenParams(), "weird")


def test_random_machine_trapless():
    for seed in range(8):
        m = random_machine(GenParams(seed=seed, trapless=True), "lts")
        assert trap_states(m) == frozenset()


def test_language_preserving_mutate_is_verified_per_relation():
    for rel in RELATIONS:
        kind = "lts" if rel in ("ft", "it") else "bar"
        for seed in range(5):
            m = random_machine(
                GenParams(seed=seed, trapless=(rel == "it")), kind
            )
            mutated = language_preserving_mutate(m, seed, rel)
            assert relation_equiv(rel, m, mutated).equal


def generator_digest(seeds=range(60)) -> str:
    """sha256 of the fuzz generators' outputs, as canonical JSON.

    For each seed: ``random_machine`` with default parameters as a Buchi
    automaton, as a plain system and as a trapless plain system, and the mate
    ``language_preserving_mutate`` gives, under each relation, the machine
    that relation's fuzzer draws (plain for ft, trapless plain for it, Buchi
    for f and b).
    """
    digest = hashlib.sha256()
    for seed in seeds:
        buchi = random_machine(GenParams(seed=seed), "bar")
        plain = random_machine(GenParams(seed=seed), "lts")
        trapless = random_machine(GenParams(seed=seed, trapless=True), "lts")
        drawn = {"ft": plain, "it": trapless, "f": buchi, "b": buchi}
        machines = [buchi, plain, trapless]
        machines += [language_preserving_mutate(drawn[rel], seed, rel) for rel in RELATIONS]
        digest.update("\n".join(dumps_canonical(machine_to_json(m)) for m in machines).encode())
    return digest.hexdigest()


def test_fuzz_generators_are_pinned():
    # A fuzz report carries no seed and no per-trial machines, so an unchanged
    # report cannot show that the drawn machines and mates are unchanged.
    expected = (GOLDEN / "generators.sha256").read_text(encoding="utf-8").strip()
    assert generator_digest() == expected


def instance_digest(seeds=(1, 2, 3)) -> str:
    """sha256 of ``check_instance`` on the fuzzers' trials, as canonical JSON.

    For each seed: trials 0-99 of ``ft``, ``f`` and ``it`` and trials 0-39
    of ``b``, each drawn as ``fuzz_congruence`` draws it; a trial that
    raises a ``TsrError`` is recorded by the error's name.
    """
    digest = hashlib.sha256()
    for rel, trials in (("ft", 100), ("f", 100), ("it", 100), ("b", 40)):
        for seed in seeds:
            params = GenParams(seed=seed, trapless=rel == "it")
            for t in range(trials):
                try:
                    instance = check_instance(rel, *congruence._trial_inputs(rel, params, t))
                    line = dumps_canonical(instance_to_json(instance))
                except TsrError as exc:
                    line = type(exc).__name__
                digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_checked_instances_are_pinned():
    # Recorded before the conclusions moved onto the joined id tables.
    expected = (GOLDEN / "instances.sha256").read_text(encoding="utf-8").strip()
    assert instance_digest() == expected


# State names for a, b and c under which (left id, right id) order is not
# the order of the pair names: "(a!,c)" and "(a(b),c)" sort before "(a,c)",
# and "(a,c!)" before "(a,c)"; "a,b" is escaped in a pair.
RENAMINGS = (("a", "a!", "a(b)"), ("a", "a!", "a,b"), ("c", "c!", "c(d)"))


@pytest.mark.parametrize("rel", RELATIONS)
def test_conclusions_on_kept_join_tables_match_the_parsed_joins(rel):
    # Unrelated pairs, so that the conclusion's witness is a live one.
    kind = "lts" if rel in ("ft", "it") else "bar"
    compose = join_lts if kind == "lts" else join
    differ = 0
    for seed in range(40):
        params = GenParams(seed=seed, trapless=rel == "it")
        pools = (params.name_pool, params.name_pool, frozenset({"A", "cx0"}))
        a, b, c = (
            rename_machine(m, dict(zip(sorted(m.states), names)))
            for m, names in zip(
                (random_machine(replace(params, seed=seed + k, name_pool=pool), kind)
                 for k, pool in zip((0, 1000, 2000), pools)),
                RENAMINGS,
            )
        )
        joins = compose(a, c), compose(b, c)
        kept = relation_equiv(rel, *joins)  # on the tables the joins were named from
        _indexed.cache_clear()
        relation_equiv.cache_clear()
        parsed = relation_equiv(rel, *joins)  # on tables read off the named joins
        assert verdict_to_json(kept) == verdict_to_json(parsed)
        differ += not parsed.equal
    assert differ >= 10


def test_language_preserving_mutate_refuses_when_no_candidate_is_equal(monkeypatch):
    monkeypatch.setattr(congruence, "relation_equiv", lambda rel, a, b: Verdict(False))
    for rel in RELATIONS:
        m = random_machine(GenParams(seed=1), "lts" if rel in ("ft", "it") else "bar")
        with pytest.raises(TsrError, match="renaming was judged non-equivalent"):
            language_preserving_mutate(m, 0, rel)


def test_mutating_a_machine_over_more_letters_than_enumeration_allows():
    # The 4-port join has 81 letters, more than enumeration allows, so adding
    # an unreachable state gives no candidate; on these seeds the shuffle
    # tries it first, and another mutation must give the mate.
    m = four_port_join("bar")
    for seed in (0, 2, 4, 5, 8):
        mate = language_preserving_mutate(m, seed, "b")
        assert relation_equiv("b", m, mate).equal


def test_parity_bars_facts():
    left, right = parity_bars()
    assert left.base == right.base
    assert left.final == {"q1"}
    assert right.final == {"q0"}
    assert trap_states(left) == frozenset()
    assert buchi_equiv(left, right).equal
    verdict = finite_equiv(left, right)
    assert not verdict.equal
    assert len(verdict.witness.symbols) <= 1


def test_buchi_counterexample():
    inst = buchi_counterexample()
    assert isinstance(inst, CongruenceInstance)
    assert inst.relation == "b"
    assert inst.premise_holds
    assert not inst.conclusion_holds
    w = inst.witness
    assert isinstance(w, Lasso)
    assert w.prefix == (A,)
    assert len(w.period) == 1
    (loop_letter,) = w.period
    assert loop_letter.domain == inst.context.names
    j1 = join(inst.left, inst.context)
    j2 = join(inst.right, inst.context)
    assert accepts_lasso(j1, w)
    assert not accepts_lasso(j2, w)


def test_check_instance_ft():
    a = random_machine(GenParams(seed=5), "lts")
    b = language_preserving_mutate(a, 17, "ft")
    c = random_machine(GenParams(seed=9), "lts")
    inst = check_instance("ft", a, b, c)
    assert inst.premise_holds
    assert inst.conclusion_holds
    assert inst.witness is None


def test_check_instance_b_finds_the_counterexample():
    left, right = parity_bars()
    context = distinguishing_context(left.names, right.names, left.data)
    inst = check_instance("b", left, right, context)
    assert inst.premise_holds
    assert not inst.conclusion_holds
    assert inst.witness is not None
    j1, j2 = join(left, context), join(right, context)
    assert accepts_lasso(j1, inst.witness) != accepts_lasso(j2, inst.witness)


def test_check_instance_rejects_bad_inputs():
    with pytest.raises(TsrError):
        check_instance("nope", *parity_bars(), parity_bars()[0])
    trap = lts(["s0", "s1"], ["A"], ["0"], [("s0", A, "s1")], ["s0"])
    live = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    with pytest.raises(TrapStateError):
        check_instance("it", trap, live, live)
    with pytest.raises(TsrError):
        check_instance("f", live, live, live)


def test_distinguish_by_context_on_the_parity_pair():
    left, right = parity_bars()
    result = distinguish_by_context(left, right)
    assert result is not None
    context, lasso = result
    assert isinstance(context, Bar)
    j1, j2 = join(left, context), join(right, context)
    assert accepts_lasso(j1, lasso) != accepts_lasso(j2, lasso)


def test_distinguish_by_context_equal_pair():
    left, _ = parity_bars()
    renamed = language_preserving_mutate(left, 3, "b")
    fully_equal = language_preserving_mutate(left, 4, "f")
    if finite_equiv(left, fully_equal).equal and buchi_equiv(left, fully_equal).equal:
        assert distinguish_by_context(left, fully_equal) is None
    assert finite_equiv(left, renamed).equal or distinguish_by_context(
        left, renamed
    ) is not None


def test_distinguish_by_context_refuses_anything_but_two_bars():
    # A pair of equal joins, the parity pair without its final sets, and a
    # Buchi automaton against a join.
    left, right = parity_bars()
    joined = join(left, right)
    for pair in ((joined, joined), (base_of(left), base_of(right)), (left, joined)):
        with pytest.raises(TsrError, match="distinguish compares two Buchi automata"):
            distinguish_by_context(*pair)


def test_distinguish_by_context_gives_none_when_an_invisible_step_blurs_the_difference():
    # b1 accepts A=0 at once; b2 only after a further invisible step.  The
    # lasso languages agree, and in a join that step fires together with the
    # context's letter, so the candidate lasso is accepted by both joins and
    # the direct comparison finds them equal.
    b1 = bar(["q0", "q1"], ["A"], ["0"], [("q0", A, "q1"), ("q1", TAU, "q1")], ["q0"], ["q1"])
    b2 = bar(
        ["q0", "p", "f"], ["A"], ["0"],
        [("q0", A, "p"), ("p", TAU, "f"), ("f", TAU, "f")],
        ["q0"], ["f"],
    )
    assert shortest_accept_difference(b1, b2).symbols == (A,)
    assert buchi_equiv(b1, b2).equal
    context = distinguishing_context(b1.names, b2.names, b1.data)
    assert buchi_equiv(join(b1, context), join(b2, context)).equal
    assert distinguish_by_context(b1, b2) is None


def test_distinguish_by_context_falls_back_to_comparing_the_joins():
    # The lasso languages agree.  The shortest finite difference, A=0, is
    # blurred as above: b2's invisible step fires with the context's letter.
    # The direct comparison of the joins finds A=0 A=0 and then the context's
    # letter forever: b1 waits in its final p2, b2 in s2, which is not final.
    b1 = bar(
        ["p0", "p1", "p2"], ["A"], ["0"],
        [("p0", A, "p1"), ("p1", TAU, "p1"), ("p1", A, "p2")],
        ["p0"], ["p1", "p2"],
    )
    b2 = bar(
        ["s0", "s1", "s1f", "s2"], ["A"], ["0"],
        [("s0", A, "s1"), ("s1", TAU, "s1f"), ("s1f", TAU, "s1f"), ("s1", A, "s2")],
        ["s0"], ["s1f"],
    )
    assert buchi_equiv(b1, b2).equal
    assert shortest_accept_difference(b1, b2).symbols == (A,)
    context, lasso = distinguish_by_context(b1, b2)
    assert (lasso.prefix, lasso.period) == ((A, A), (rec(zz0="0"),))
    assert accepts_lasso(join(b1, context), lasso)
    assert not accepts_lasso(join(b2, context), lasso)


def test_distinguish_by_context_searches_finite_words_once_when_they_agree(monkeypatch):
    # b1 loops on A=0 in one final state; b2 loops on A=0 in a non-final state
    # that may step into a final dead end.  Both states of each are initial,
    # so the finite languages are equal and the lasso languages are not.
    b1 = bar(["q0"], ["A"], ["0"], [("q0", A, "q0")], ["q0"], ["q0"])
    b2 = bar(["p", "f"], ["A"], ["0"], [("p", A, "p"), ("p", A, "f")], ["p", "f"], ["f"])
    assert finite_equiv(b1, b2).equal and not buchi_equiv(b1, b2).equal
    searches = []
    search = languages._pair_search

    def counted(*args):
        searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(languages, "_pair_search", counted)
    context, lasso = distinguish_by_context(b1, b2)
    assert searches == [None]
    assert accepts_lasso(join(b1, context), lasso) != accepts_lasso(join(b2, context), lasso)


def test_fuzz_injects_the_counterexample_for_the_lasso_relation():
    report = fuzz_congruence("b", GenParams(), 1)
    assert report.trials == 1
    assert report.failed == 1
    assert report.passed == 0
    (failure,) = report.failures
    assert failure.relation == "b"
    assert failure.witness is not None


def test_fuzz_b_decides_the_trial_the_flattened_joins_refused():
    # Trial 10 of seed 3 has a joint monoid of about 9,000 elements on the
    # generalized joins; degeneralized first, it passed the 20,000 bound.
    report = fuzz_congruence("b", GenParams(seed=3), 16)
    assert report.vacuous == 0
    assert (report.passed, report.failed) == (15, 1)
    (failure,) = report.failures
    w = failure.witness
    assert len(w.period) == 1
    j1, j2 = join(failure.left, failure.context), join(failure.right, failure.context)
    assert accepts_lasso(j1, w) != accepts_lasso(j2, w)


def test_fuzz_congruence_holds_on_small_runs():
    for rel in ("ft", "f", "it"):
        report = fuzz_congruence(rel, GenParams(seed=7), 25)
        assert report.relation == rel
        assert report.trials == 25
        assert report.failed == 0
        assert report.failures == ()
        assert report.passed + report.vacuous == 25


def test_fuzz_counts_a_trial_refused_by_a_size_bound_as_vacuous(monkeypatch):
    # The first trial is refused by a size bound, or its premise is made to
    # fail after its joins were checked for traps.
    params, trials = GenParams(seed=7), 6
    first = fuzz_congruence("it", params, 1)
    every = fuzz_congruence("it", params, trials)
    check = congruence.check_instance

    def refused(instance):
        raise SizeBoundError("bound")

    def premise_failed(instance):
        return replace(instance, premise_holds=False)

    for change, traps_lost in ((refused, first.join_traps_observed), (premise_failed, 0)):
        calls = []

        def change_first(*args):
            calls.append(args)
            instance = check(*args)
            return change(instance) if len(calls) == 1 else instance

        monkeypatch.setattr(congruence, "check_instance", change_first)
        report = fuzz_congruence("it", params, trials)
        assert len(calls) == trials
        assert report.vacuous == every.vacuous - first.vacuous + 1
        assert report.passed == every.passed - first.passed
        assert report.failed == every.failed == 0
        assert report.join_traps_observed == every.join_traps_observed - traps_lost


def test_fuzz_is_deterministic():
    r1 = fuzz_congruence("ft", GenParams(seed=3), 10)
    r2 = fuzz_congruence("ft", GenParams(seed=3), 10)
    assert report_to_json(r1) == report_to_json(r2)


def test_fuzz_rejects_bad_arguments():
    with pytest.raises(TsrError):
        fuzz_congruence("x", GenParams(), 1)
    with pytest.raises(TsrError):
        fuzz_congruence("ft", GenParams(), -1)


@pytest.mark.parametrize("relation", ["f", "b"])
def test_mutating_a_join_keeps_its_final_family(relation):
    joined = join(*parity_bars())
    for seed in range(4):
        mate = language_preserving_mutate(joined, seed, relation)
        assert isinstance(mate, Gba)
        assert len(mate.final_family) == len(joined.final_family)
        assert relation_equiv(relation, joined, mate).equal
