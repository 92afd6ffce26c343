"""Acceptance suite: one test per criterion, one summary line each.

Every test computes its verdict first, records it for the terminal summary,
then asserts.  A test that dies early leaves no record and is reported as
not having run to completion.
"""

import itertools
import time

from conftest import record_acceptance
from helpers import lassos_up_to, lts_to_bar, step, walk_words, words_up_to
from tsr.automata import (
    accepts_finite,
    accepts_lasso,
    finite_targets,
    reach,
    traceable,
    validate,
    with_idle_loops,
    without_invisible_edges,
)
from tsr.congruence import (
    GenParams,
    buchi_counterexample,
    distinguish_by_context,
    fuzz_congruence,
    parity_bars,
    random_machine,
)
from tsr.errors import IncompatibleRecordsError, SizeBoundError
from tsr.join import join, join_bar_flat, join_lts, product_state
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
)
from tsr.records import (
    FiniteWord,
    Lasso,
    Record,
    comp,
    enumerate_alphabet,
    restrict,
    restrict_word,
    union,
    vis,
)

ONE_DATUM = frozenset({"0"})

POOL_ROTATION = (
    (frozenset({"A", "B"}), frozenset({"B", "C"})),
    (frozenset({"A", "B"}), frozenset({"A", "B"})),
    (frozenset({"A"}), frozenset({"A", "B"})),
)


def seeded_pair(i, kind, trapless=False):
    """Deterministic machine pair number ``i``, name pools overlapping."""
    pools = POOL_ROTATION[i % len(POOL_ROTATION)]
    left = random_machine(
        GenParams(name_pool=pools[0], data_pool=ONE_DATUM, seed=i, trapless=trapless),
        kind,
    )
    right = random_machine(
        GenParams(
            name_pool=pools[1], data_pool=ONE_DATUM, seed=i + 5000, trapless=trapless
        ),
        kind,
    )
    return left, right


def idle_pair(i, kind, trapless=False):
    left, right = seeded_pair(i, kind, trapless)
    return with_idle_loops(left), with_idle_loops(right)


def union_letters(m1, m2):
    return enumerate_alphabet(m1.names | m2.names, m1.data)


def test_c01_equal_lasso_languages_distinct_finite_languages():
    started = time.monotonic()
    left, right = parity_bars()
    lasso_verdict = buchi_equiv(left, right)
    finite_verdict = finite_equiv(left, right)
    elapsed = time.monotonic() - started
    ok = (
        lasso_verdict.equal
        and not finite_verdict.equal
        and finite_verdict.witness is not None
        and len(finite_verdict.witness.symbols) <= 1
        and elapsed < 1.0
    )
    record_acceptance(
        "C1",
        ok,
        f"witness length {len(finite_verdict.witness.symbols)}, {elapsed:.3f}s",
    )
    assert ok


def test_c02_lasso_equivalence_is_not_a_congruence():
    started = time.monotonic()
    instance = buchi_counterexample()
    assert instance.premise_holds
    assert not instance.conclusion_holds
    assert buchi_equiv(instance.left, instance.right).equal

    witness = instance.witness
    assert isinstance(witness, Lasso)
    assert len(witness.prefix) == 1 and witness.prefix[0].domain == {"A"}
    assert len(witness.period) == 1
    assert witness.period[0].domain == instance.context.names

    j_left = join(instance.left, instance.context)
    j_right = join(instance.right, instance.context)
    gba_split = accepts_lasso(j_left, witness) and not accepts_lasso(
        j_right, witness
    )
    flat_split = accepts_lasso(
        join_bar_flat(instance.left, instance.context), witness
    ) and not accepts_lasso(join_bar_flat(instance.right, instance.context), witness)
    elapsed = time.monotonic() - started
    ok = gba_split and flat_split and elapsed < 1.0
    record_acceptance("C2", ok, f"witness re-verified twice, {elapsed:.3f}s")
    assert ok


def test_c03_joint_reachability_factors_through_the_components():
    started = time.monotonic()
    violations = 0
    words = 0
    spot = [0]
    for i in range(50):
        m1, m2 = idle_pair(i, "lts")
        joined = join_lts(m1, m2)
        letters = union_letters(m1, m2)
        names = m1.names | m2.names
        to_left = {r: restrict(r, m1.names) for r in letters}
        to_right = {r: restrict(r, m2.names) for r in letters}

        def check(word, joint, left, right):
            nonlocal violations
            expected = frozenset(
                product_state(a, b) for a in left for b in right
            )
            if joint != expected:
                violations += 1
            spot[0] += 1
            if spot[0] % 293 == 0:
                w = FiniteWord(word, names)
                assert joint == reach(joined, joined.initial, w)
                assert left == reach(
                    m1, m1.initial, vis(restrict_word(w, m1.names))
                )

        def extend(node, r):
            word, joint, left, right = node
            word = word + (r,)
            joint = step(joined, joint, r)
            left = step(m1, left, to_left[r])
            right = step(m2, right, to_right[r])
            check(word, joint, left, right)
            return (word, joint, left, right)

        root = (
            (),
            frozenset(joined.initial),
            frozenset(m1.initial),
            frozenset(m2.initial),
        )
        check(*root)
        words += walk_words(letters, 4, root, extend)
    elapsed = time.monotonic() - started
    ok = violations == 0 and words >= 50 * 341 and elapsed < 60.0
    record_acceptance(
        "C3", ok, f"50 pairs, {words} words, {violations} violations, {elapsed:.1f}s"
    )
    assert ok


def test_c04_finite_trace_membership_factors_through_the_components():
    started = time.monotonic()
    mismatches = 0
    words = 0
    spot = [0]
    for i in range(50):
        m1, m2 = idle_pair(i, "lts")
        joined = join_lts(m1, m2)
        letters = union_letters(m1, m2)
        names = m1.names | m2.names

        def check(word, joint):
            nonlocal mismatches
            w = FiniteWord(word, names)
            if bool(joint) != componentwise_traceable(w, m1, m2):
                mismatches += 1
            spot[0] += 1
            if spot[0] % 157 == 0:
                assert bool(joint) == traceable(joined, w)

        def extend(node, r):
            word, joint = node
            word = word + (r,)
            joint = step(joined, joint, r)
            check(word, joint)
            return (word, joint)

        root = ((), frozenset(joined.initial))
        check(*root)
        words += walk_words(letters, 4, root, extend)
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and words >= 50 * 341
    record_acceptance(
        "C4", ok, f"50 pairs, {words} words, {mismatches} mismatches, {elapsed:.1f}s"
    )
    assert ok


def test_c05_lasso_trace_membership_factors_through_the_components():
    started = time.monotonic()
    mismatches = 0
    lassos = 0
    for i in range(30):
        m1, m2 = idle_pair(i, "lts", trapless=True)
        joined_bar = lts_to_bar(join_lts(m1, m2))
        names = m1.names | m2.names
        letters = sorted(
            union_letters(m1, m2), key=lambda r: (len(r.entries), r.entries)
        )[:3]
        for prefix, period in lassos_up_to(letters, 2, 2):
            l = Lasso(prefix, period, names)
            if accepts_lasso(joined_bar, l) != componentwise_lasso_traceable(
                l, m1, m2
            ):
                mismatches += 1
            lassos += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and lassos == 30 * 156 and elapsed < 120.0
    record_acceptance(
        "C5", ok, f"30 pairs, {lassos} lassos, {mismatches} mismatches, {elapsed:.1f}s"
    )
    assert ok


def test_c06_finite_acceptance_of_joins_factors_through_the_components():
    started = time.monotonic()
    mismatches = 0
    words = 0
    spot = [0]
    for i in range(50):
        b1, b2 = idle_pair(i, "bar")
        joined = join(b1, b2)
        targets = finite_targets(joined)
        letters = union_letters(b1, b2)
        names = b1.names | b2.names

        def check(word, joint):
            nonlocal mismatches
            w = FiniteWord(word, names)
            if bool(joint & targets) != componentwise_accepts_finite(w, b1, b2):
                mismatches += 1
            spot[0] += 1
            if spot[0] % 157 == 0:
                assert bool(joint & targets) == accepts_finite(joined, w)

        def extend(node, r):
            word, joint = node
            word = word + (r,)
            joint = step(joined, joint, r)
            check(word, joint)
            return (word, joint)

        root = ((), frozenset(joined.initial))
        check(*root)
        words += walk_words(letters, 4, root, extend)
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and words >= 50 * 341
    record_acceptance(
        "C6", ok, f"50 pairs, {words} words, {mismatches} mismatches, {elapsed:.1f}s"
    )
    assert ok


def test_c07_fuzzed_congruence_holds_for_ft_f_it():
    started = time.monotonic()
    failed = 0
    vacuous = 0
    trials = 0
    for relation in ("ft", "f", "it"):
        for seed in (1, 2, 3):
            report = fuzz_congruence(relation, GenParams(seed=seed), 1000)
            failed += report.failed
            vacuous += report.vacuous
            trials += report.trials
    elapsed = time.monotonic() - started
    ok = failed == 0 and trials == 9000 and elapsed < 600.0
    record_acceptance(
        "C7",
        ok,
        f"{trials} trials, {vacuous} vacuous, {failed} failed, {elapsed:.1f}s",
    )
    assert ok


def test_c08_distinguishing_contexts_for_inequivalent_machines():
    started = time.monotonic()
    found = 0
    unverifiable = 0
    seed = 0
    while found < 100 and seed < 600:
        params = dict(name_pool=frozenset({"A", "B"}), data_pool=ONE_DATUM)
        b1 = without_invisible_edges(
            random_machine(GenParams(seed=seed, **params), "bar")
        )
        b2 = without_invisible_edges(
            random_machine(GenParams(seed=seed + 7777, **params), "bar")
        )
        seed += 1
        try:
            if finite_equiv(b1, b2).equal and buchi_equiv(b1, b2).equal:
                continue
        except SizeBoundError:
            continue
        found += 1
        result = distinguish_by_context(b1, b2)
        if result is None:
            unverifiable += 1
            continue
        context, witness = result
        hit_left = accepts_lasso(join(b1, context), witness)
        hit_right = accepts_lasso(join(b2, context), witness)
        if hit_left == hit_right:
            unverifiable += 1
    elapsed = time.monotonic() - started
    ok = found >= 100 and unverifiable == 0
    record_acceptance(
        "C8",
        ok,
        f"{found} inequivalent pairs, {unverifiable} unverifiable, {elapsed:.1f}s",
    )
    assert ok


def test_c09_complementation_is_exact_on_small_machines():
    started = time.monotonic()
    machines = 0
    skipped = 0
    violations = 0
    checks = 0
    spot = [0]
    names = frozenset({"A"})
    data = frozenset({"0", "1"})
    letters = enumerate_alphabet(names, data)
    periods = [per for per in words_up_to(letters, 3) if per]
    seed = 0
    while machines < 20 and seed < 60:
        b = random_machine(
            GenParams(max_states=5, name_pool=names, data_pool=data, seed=seed), "bar"
        )
        seed += 1
        try:
            complement = buchi_complement(b)
        except SizeBoundError:
            skipped += 1
            continue
        machines += 1
        assert validate(complement) == []
        loops_b = {per: accepting_loop_states(b, per) for per in periods}
        loops_c = {per: accepting_loop_states(complement, per) for per in periods}

        def check(word, in_b, in_c):
            nonlocal violations, checks
            for per in periods:
                hit_b = bool(in_b & loops_b[per])
                hit_c = bool(in_c & loops_c[per])
                if hit_b == hit_c:
                    violations += 1
                checks += 1
                spot[0] += 1
                if spot[0] % 371 == 0:
                    l = Lasso(word, per, names)
                    assert hit_b == accepts_lasso(b, l)
                    assert hit_c == accepts_lasso(complement, l)

        def extend(node, r):
            word, in_b, in_c = node
            word = word + (r,)
            in_b = step(b, in_b, r)
            in_c = step(complement, in_c, r)
            check(word, in_b, in_c)
            return (word, in_b, in_c)

        root = ((), frozenset(b.initial), frozenset(complement.initial))
        check(*root)
        walk_words(letters, 3, root, extend)
        if buchi_empty(buchi_intersect(b, complement)) is not None:
            violations += 1
    elapsed = time.monotonic() - started
    ok = machines >= 20 and violations == 0 and elapsed < 300.0
    record_acceptance(
        "C9",
        ok,
        f"{machines} machines ({skipped} skipped), {checks} lassos, "
        f"{violations} violations, {elapsed:.1f}s",
    )
    assert ok


def test_c10_record_algebra_laws_hold_exhaustively():
    started = time.monotonic()
    violations = 0
    checks = 0
    name_sets = [
        frozenset(combo)
        for size in range(4)
        for combo in itertools.combinations("ABC", size)
    ]
    for data in (frozenset({"0"}), frozenset({"0", "1"})):
        alphabets = {ns: enumerate_alphabet(ns, data) for ns in name_sets}
        for ns, letters in alphabets.items():
            if len(letters) != (len(data) + 1) ** len(ns):
                violations += 1
            checks += 1
            for r in letters:
                for m1 in name_sets:
                    if restrict(r, m1) != Record.of(
                        {p: dict(r.entries)[p] for p in r.domain & m1}
                    ):
                        violations += 1
                    checks += 1
                    for m2 in name_sets:
                        if restrict(restrict(r, m1), m2) != restrict(r, m1 & m2):
                            violations += 1
                        checks += 1
        for n1 in name_sets:
            for n2 in name_sets:
                joint = {r: 0 for r in alphabets[frozenset(n1 | n2)]}
                for r1 in alphabets[n1]:
                    v1 = dict(r1.entries)
                    for r2 in alphabets[n2]:
                        v2 = dict(r2.entries)
                        shared = r1.domain & r2.domain
                        agree = all(v1[p] == v2[p] for p in shared)
                        expected = (
                            r1.domain & n2 == r2.domain & n1
                        ) and agree
                        got = comp(r1, n1, r2, n2)
                        if got != expected or got != comp(r2, n2, r1, n1):
                            violations += 1
                        checks += 1
                        if not agree:
                            try:
                                union(r1, r2)
                                violations += 1
                            except IncompatibleRecordsError:
                                pass
                            checks += 1
                        if not got:
                            continue
                        merged = union(r1, r2)
                        if (
                            merged.domain != r1.domain | r2.domain
                            or restrict(merged, n1) != r1
                            or restrict(merged, n2) != r2
                        ):
                            violations += 1
                        checks += 1
                        joint[merged] += 1
                # unique decomposition: compatible pairs are in bijection
                # with the joint alphabet
                if any(count != 1 for count in joint.values()):
                    violations += 1
                checks += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 5.0
    record_acceptance(
        "C10", ok, f"{checks} checks, {violations} violations, {elapsed:.2f}s"
    )
    assert ok
