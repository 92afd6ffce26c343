"""Command-line interface.

Batch, non-interactive surface over the library: load, validate, join,
compare, test membership, fuzz congruence properties, and print the built-in
counterexample.  All output is deterministic given the inputs and seed.

Exit codes: 0 on success (valid / equal / member / expectation met), 1 when
a comparison reports not-equal, a word is rejected, or a violation is found,
and 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from .automata import (
    Bar,
    Gba,
    Ltsr,
    accepts_finite,
    accepts_lasso,
    trap_states,
    validate,
)
from .congruence import (
    RELATIONS,
    GenParams,
    buchi_counterexample,
    distinguish_by_context,
    fuzz_congruence,
    relation_equiv,
)
from .errors import TsrError
from .join import join, join_bar_flat, join_lts
from .languages import finite_equiv
from .records import ALPHABET_LIMIT_ENV
from .serialize import (
    dumps_canonical,
    dumps_machine,
    instance_to_json,
    lasso_from_json,
    lasso_to_json,
    load_json,
    load_machine,
    machine_to_json,
    report_to_json,
    verdict_to_json,
    word_from_json,
)

EPILOG = (
    "exit codes: 0 success/equal, 1 not-equal or violation found, 2 usage or "
    "input error. Comparisons step only on the labels that occur in the "
    f"machines. The environment variable {ALPHABET_LIMIT_ENV} overrides the "
    "64-letter alphabet enumeration guard, which only complementation and "
    "the random machines of fuzz apply."
)


def _load_valid(path: str):
    m = load_machine(path)
    violations = validate(m)
    if violations:
        raise TsrError(f"{path}: " + "; ".join(violations))
    return m


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        m = load_machine(args.machine)
    except TsrError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    violations = validate(m)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 2
    n = len(m.states)
    plural = "state" if n == 1 else "states"
    suffix = ", trapless" if not trap_states(m) else ""
    print(f"valid {type(m).__name__}, {n} {plural}{suffix}")
    return 0


def cmd_join(args) -> int:
    m1 = _load_valid(args.left)
    m2 = _load_valid(args.right)
    if isinstance(m1, Bar) and isinstance(m2, Bar):
        result = join_bar_flat(m1, m2) if args.flatten else join(m1, m2)
    elif type(m1) is Ltsr and type(m2) is Ltsr:
        result = join_lts(m1, m2)
    else:
        raise TsrError("join needs two Buchi automata or two plain transition systems")
    _emit(dumps_machine(result), args.output)
    return 0


def cmd_equiv(args) -> int:
    m1 = _load_valid(args.left)
    m2 = _load_valid(args.right)
    rel = args.relation
    if rel in ("f", "b") and not all(isinstance(m, (Bar, Gba)) for m in (m1, m2)):
        raise TsrError(f"relation {rel} compares (generalized) Buchi automata")
    if rel == "it":
        for path, m in ((args.left, m1), (args.right, m2)):
            if trap_states(m):
                print(
                    f"warning: {path} has trap states; the infinite-trace "
                    "congruence claim does not cover it, comparing anyway",
                    file=sys.stderr,
                )
    verdict = relation_equiv(rel, m1, m2)
    sys.stdout.write(dumps_canonical(verdict_to_json(verdict)))
    return 0 if verdict.equal else 1


def _check_data(symbols, data, what: str):
    # Ports need no check here: the word and lasso constructors refuse a
    # symbol with a port outside the machine's name set.
    for r in symbols:
        for _, value in r.entries:
            if value not in data:
                raise TsrError(f"{what} uses data outside the machine's data set: {r}")


def cmd_member(args) -> int:
    m = _load_valid(args.machine)
    if args.word:
        word = word_from_json(load_json(args.word), m.names)
        _check_data(word.symbols, m.data, "word")
        ok = accepts_finite(m, word)
    else:
        lasso = lasso_from_json(load_json(args.lasso), m.names)
        _check_data(lasso.prefix + lasso.period, m.data, "lasso")
        ok = accepts_lasso(m, lasso)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_fuzz(args) -> int:
    names = frozenset(x for x in args.names.split(",") if x)
    data = frozenset(x for x in args.data.split(",") if x)
    params = GenParams(
        max_states=args.max_states,
        name_pool=names,
        data_pool=data,
        trapless=args.trapless,
        seed=args.seed,
    )
    report = fuzz_congruence(args.relation, params, args.trials)
    _emit(dumps_canonical(report_to_json(report)), args.output)
    print(
        f"relation {report.relation}: {report.passed} passed, "
        f"{report.vacuous} vacuous, {report.failed} failed",
        file=sys.stderr,
    )
    if args.expect_violations:
        return 0 if report.failed > 0 else 1
    if args.relation == "b":
        return 0
    return 0 if report.failed == 0 else 1


def cmd_counterexample(args) -> int:
    instance = buchi_counterexample()
    premise_f = finite_equiv(instance.left, instance.right)
    j1, j2 = instance.joins
    w = instance.witness
    checks = [
        f"lasso languages of left and right equal: {instance.premise_holds}",
        f"finite-word languages of left and right equal: {premise_f.equal}",
        f"joined machines lasso-equal: {instance.conclusion_holds}",
        f"join(left, context) accepts witness: {accepts_lasso(j1, w)}",
        f"join(right, context) accepts witness: {accepts_lasso(j2, w)}",
    ]
    payload = {**instance_to_json(instance), "checks": checks}
    sys.stdout.write(dumps_canonical(payload))
    return 0


def cmd_distinguish(args) -> int:
    m1 = _load_valid(args.left)
    m2 = _load_valid(args.right)
    result = distinguish_by_context(m1, m2)
    if result is None:
        payload = {"distinguishable": False, "context": None, "witness": None}
        sys.stdout.write(dumps_canonical(payload))
        return 0
    context, witness = result
    payload = {
        "distinguishable": True,
        "context": machine_to_json(context),
        "witness": lasso_to_json(witness),
    }
    sys.stdout.write(dumps_canonical(payload))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsr",
        description="Transition systems and Buchi automata over record alphabets.",
        epilog=EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file against all invariants")
    p.add_argument("machine", help="machine JSON file")

    p = sub.add_parser("join", help="compose two machine files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument(
        "--flatten",
        action="store_true",
        help="collapse the generalized result to a plain Buchi automaton",
    )
    p.add_argument("-o", "--output", help="write the result here instead of stdout")

    p = sub.add_parser("equiv", help="compare two machine files under a relation")
    p.add_argument("--relation", required=True, choices=RELATIONS)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("member", help="test a word or lasso against a machine")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="finite word JSON file (array of records)")
    group.add_argument("--lasso", help='lasso JSON file ({"prefix": [...], "period": [...]})')
    p.add_argument("machine")

    p = sub.add_parser("fuzz", help="randomized congruence checking for one relation")
    p.add_argument("--relation", required=True, choices=RELATIONS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=3)
    p.add_argument("--names", default="A,B", help="comma-separated port name pool")
    p.add_argument("--data", default="0", help="comma-separated data value pool")
    p.add_argument(
        "--trapless",
        action="store_true",
        help="force trapless machines (implied by --relation it)",
    )
    p.add_argument(
        "--expect-violations",
        action="store_true",
        help="succeed only when at least one violation is found",
    )
    p.add_argument("-o", "--output", help="write the report here instead of stdout")

    sub.add_parser(
        "counterexample",
        help="print the built-in proof that lasso equivalence is not a congruence",
    )

    p = sub.add_parser(
        "distinguish",
        help="construct a context whose joins separate two automata, if possible",
    )
    p.add_argument("left")
    p.add_argument("right")

    return parser


# Built by the first call of ``main``; it holds nothing derived from inputs.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # Looked up at call time, so a wrapper installed on ``cmd_<name>``
        # after the parser was built is the function that runs.
        return globals()[f"cmd_{args.command}"](args)
    except (TsrError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
