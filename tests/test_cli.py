"""End-to-end command line behaviour, driven in process through main()."""

import json
from pathlib import Path

import pytest

from helpers import bar, lts, rec
from tsr.cli import main
from tsr.congruence import parity_bars
from tsr.records import Record
from tsr.serialize import dumps_canonical, machine_to_json

A = rec(A="0")
TAU = Record.of({})
GOLDEN = Path(__file__).parent / "golden"


def write_machine(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(dumps_canonical(machine_to_json(m)), encoding="utf-8")
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def parity_files(tmp_path):
    left, right = parity_bars()
    return (
        write_machine(tmp_path, "left.json", left),
        write_machine(tmp_path, "right.json", right),
    )


def test_validate_ok(tmp_path, capsys):
    left, _ = parity_bars()
    path = write_machine(tmp_path, "m.json", left)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "Bar" in out and "trapless" in out


def test_validate_violations(tmp_path, capsys):
    broken = bar(["s0"], ["A"], ["0"], [], ["s0"], [])
    path = write_machine(tmp_path, "broken.json", broken)
    assert main(["validate", path]) == 2
    assert "violation" in capsys.readouterr().out


def test_validate_unparseable(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("label", [["A", "0"], {"A": 0}, {"A": ["0"]}])
def test_malformed_label_exits_two(tmp_path, capsys, label):
    machine = {
        "names": ["A"], "data": ["0"], "states": ["s0"], "initial": ["s0"],
        "transitions": [
            {"from": "s0", "label": {"A": "0"}, "to": "s0"},
            {"from": "s0", "label": label, "to": "s0"},
        ],
    }
    path = write_json(tmp_path, "bad.json", machine)
    assert main(["validate", path]) == 2
    assert "invalid" in capsys.readouterr().err


def test_join_bars_and_flatten(parity_files, tmp_path, capsys):
    left, right = parity_files
    assert main(["join", left, right]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "final_family" in obj

    out_path = str(tmp_path / "flat.json")
    assert main(["join", "--flatten", left, right, "-o", out_path]) == 0
    flat = json.loads(open(out_path, encoding="utf-8").read())
    assert "final" in flat and "final_family" not in flat


def test_join_of_comma_named_states(tmp_path, capsys):
    left = bar(["x", "x,y"], ["A"], ["0"], [("x", A, "x,y")], ["x"], ["x,y"])
    right = bar(["z", "y,z"], ["B"], ["0"], [("z", rec(B="0"), "y,z")], ["z"], ["y,z"])
    lp = write_machine(tmp_path, "l.json", left)
    rp = write_machine(tmp_path, "r.json", right)
    out_path = str(tmp_path / "joined.json")
    assert main(["join", lp, rp, "-o", out_path]) == 0
    joined = json.loads(open(out_path, encoding="utf-8").read())
    assert len(joined["states"]) == 4
    assert main(["validate", out_path]) == 0
    assert "4 states" in capsys.readouterr().out
    only_a = write_json(tmp_path, "a.json", [{"A": "0"}])
    assert main(["member", "--word", only_a, out_path]) == 1
    assert capsys.readouterr().out.strip() == "false"
    both = write_json(tmp_path, "ab.json", [{"A": "0"}, {"B": "0"}])
    assert main(["member", "--word", both, out_path]) == 0


def test_join_lts(tmp_path, capsys):
    m = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    path = write_machine(tmp_path, "m.json", m)
    assert main(["join", path, path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "final" not in obj and "final_family" not in obj


def test_join_mixed_kinds_is_an_error(tmp_path, capsys):
    m = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    b, _ = parity_bars()
    lp = write_machine(tmp_path, "l.json", m)
    bp = write_machine(tmp_path, "b.json", b)
    # Every kind is an Ltsr, so only a plain system on both sides may take
    # the join_lts branch; a Gba is never an input to join.
    gp = str(GOLDEN / "joined.json")
    for left, right in ((lp, bp), (bp, lp), (gp, gp)):
        assert main(["join", left, right]) == 2
        assert "error" in capsys.readouterr().err


def test_equiv_exit_codes(parity_files, capsys):
    left, right = parity_files
    assert main(["equiv", "--relation", "b", left, right]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["equal"] is True

    assert main(["equiv", "--relation", "f", left, right]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["equal"] is False
    assert verdict["witness_kind"] == "finite"


def test_equiv_it_warns_about_traps(tmp_path, capsys):
    trap = lts(["s0", "s1"], ["A"], ["0"], [("s0", A, "s1")], ["s0"])
    path = write_machine(tmp_path, "trap.json", trap)
    code = main(["equiv", "--relation", "it", path, path])
    captured = capsys.readouterr()
    assert code == 0
    assert "trap" in captured.err


def test_equiv_b_requires_acceptance(tmp_path, capsys):
    m = lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"])
    path = write_machine(tmp_path, "m.json", m)
    assert main(["equiv", "--relation", "b", path, path]) == 2


def test_member_word(parity_files, tmp_path, capsys):
    left, _ = parity_files
    odd = write_json(tmp_path, "odd.json", [{"A": "0"}])
    even = write_json(tmp_path, "even.json", [{"A": "0"}, {"A": "0"}])
    assert main(["member", "--word", odd, left]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", "--word", even, left]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_member_lasso(parity_files, tmp_path, capsys):
    left, _ = parity_files
    good = write_json(tmp_path, "l.json", {"prefix": [], "period": [{"A": "0"}]})
    assert main(["member", "--lasso", good, left]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_member_out_of_alphabet(parity_files, tmp_path, capsys):
    left, _ = parity_files
    alien = write_json(tmp_path, "w.json", [{"Z": "9"}])
    alien_lasso = write_json(tmp_path, "l.json", {"prefix": [], "period": [{"Z": "0"}]})
    for argv in (["--word", alien], ["--lasso", alien_lasso]):
        assert main(["member", *argv, left]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "ports outside the declared name set" in err


def test_member_outside_the_alphabet_exits_two(parity_files, tmp_path, capsys):
    left, _ = parity_files
    foreign_word = write_json(tmp_path, "w.json", [{"A": "9"}])
    assert main(["member", "--word", foreign_word, left]) == 2
    assert "word uses data outside" in capsys.readouterr().err
    foreign_lasso = write_json(tmp_path, "l.json", {"prefix": [{"A": "0"}], "period": [{"A": "9"}]})
    assert main(["member", "--lasso", foreign_lasso, left]) == 2
    assert "lasso uses data outside" in capsys.readouterr().err


def test_invalid_machine_file_exits_two(parity_files, tmp_path, capsys):
    left, _ = parity_files
    broken = write_machine(tmp_path, "broken.json", bar(["s0"], ["A"], ["0"], [], ["s9"], ["s0"]))
    for argv in (["equiv", "--relation", "f", left, broken], ["join", broken, left]):
        assert main(argv) == 2
        assert "initial states must be states of the machine" in capsys.readouterr().err


def test_fuzz_clean_run(capsys):
    assert main(["fuzz", "--relation", "ft", "--trials", "5"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["failed"] == 0
    assert "5 passed" in captured.err or "passed" in captured.err


def test_fuzz_expect_violations(capsys):
    code = main(["fuzz", "--relation", "ft", "--trials", "5", "--expect-violations"])
    capsys.readouterr()
    assert code == 1
    assert main(["fuzz", "--relation", "b", "--trials", "1", "--expect-violations"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 1


def test_fuzz_b_exits_zero_despite_failures(capsys):
    assert main(["fuzz", "--relation", "b", "--trials", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 1


def test_counterexample_command(capsys):
    assert main(["counterexample"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["relation"] == "b"
    assert payload["premise_holds"] is True
    assert payload["conclusion_holds"] is False
    assert len(payload["checks"]) == 5


def test_distinguish(parity_files, capsys):
    left, right = parity_files
    assert main(["distinguish", left, right]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["distinguishable"] is True
    assert payload["context"] is not None

    assert main(["distinguish", left, left]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distinguishable"] is False


def test_distinguish_a_plain_system_exits_two(parity_files, tmp_path, capsys):
    left, _ = parity_files
    plain = write_machine(tmp_path, "m.json", lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"]))
    assert main(["distinguish", left, plain]) == 2
    assert "distinguish compares two Buchi automata" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["equiv", "--relation", "zz", "x", "y"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["member", "machine.json"])
    assert info.value.code == 2


def test_missing_file_is_reported(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2
    assert capsys.readouterr().err != ""


# Outputs of the commands that exercise the profile monoid and the Ramsey
# scan, pinned byte for byte.  Each pair in tests/golden has a left and a
# right machine: parity is the two parity automata (lasso-equal, finite
# languages differ); mutant is a fuzz trial's joined machines (equal in both
# languages); unequal is two random automata whose lasso languages differ;
# refusal is the fuzz trial whose joint monoid passes the 20,000-element bound.
GOLDEN_CASES = [("counterexample", ["counterexample"], 0)] + [
    (f"{pair}.{argv[0]}", argv + [f"{pair}_left.json", f"{pair}_right.json"], code)
    for pair, equiv_code, distinguish_code in (
        ("parity", 0, 1),
        ("mutant", 0, 0),
        ("unequal", 1, 1),
        ("refusal", 2, 2),
    )
    for argv, code in (
        (["equiv", "--relation", "b"], equiv_code),
        (["distinguish"], distinguish_code),
    )
]
# validate and member on a joined machine (a Gba: the parity automaton
# accepting odd lengths joined with a private-letter context) and on a plain
# system with a trap state; each member command gets one word or lasso file.
GOLDEN_CASES += [
    (f"{machine}.{name}", argv + [f"{machine}.json"], code)
    for machine, codes in (("joined", (0, 1, 0)), ("plain", (0, 0, 1)))
    for (name, argv), code in zip(
        (
            ("validate", ["validate"]),
            ("member_word", ["member", "--word", f"{machine}_word.json"]),
            ("member_lasso", ["member", "--lasso", f"{machine}_lasso.json"]),
        ),
        codes,
    )
]


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs(name, argv, code, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    err = GOLDEN / f"{name}.err"
    assert captured.err == (err.read_text(encoding="utf-8") if err.exists() else "")
