"""JSON round-trips and format errors."""

import json
from pathlib import Path

import pytest

from helpers import bar, gba, lts, rec
from tsr.automata import Verdict, base_of
from tsr.congruence import GenParams, fuzz_congruence, random_machine
from tsr.errors import InvalidRecordError, MachineFormatError, TsrError
from tsr.join import join, join_bar_flat, join_lts
from tsr.records import FiniteWord, Lasso, Record
from tsr.serialize import (
    dumps_canonical,
    dumps_machine,
    lasso_from_json,
    lasso_to_json,
    load_json,
    load_machine,
    machine_from_json,
    machine_to_json,
    record_from_json,
    record_to_json,
    report_to_json,
    verdict_to_json,
    word_from_json,
    word_to_json,
)

A = rec(A="0")
TAU = Record.of({})


def test_record_round_trip():
    for r in (TAU, A, rec(A="0", B="1")):
        assert record_from_json(record_to_json(r)) == r
    assert record_to_json(rec(B="1", A="0")) == {"A": "0", "B": "1"}
    with pytest.raises(MachineFormatError):
        record_from_json(["A", "0"])
    with pytest.raises(MachineFormatError):
        record_from_json({"A": 0})


def test_word_round_trip():
    w = FiniteWord((A, TAU, A), frozenset({"A"}))
    assert word_from_json(word_to_json(w), {"A"}) == w
    with pytest.raises(MachineFormatError):
        word_from_json({"not": "a list"}, {"A"})


def test_lasso_round_trip():
    l = Lasso((TAU,), (A,), frozenset({"A"}))
    assert lasso_from_json(lasso_to_json(l), {"A"}) == l
    with pytest.raises(MachineFormatError):
        lasso_from_json({"prefix": []}, {"A"})
    with pytest.raises(MachineFormatError):
        lasso_from_json({"prefix": {}, "period": []}, {"A"})


def test_machine_round_trip_all_kinds():
    transitions = [("s0", A, "s1"), ("s1", TAU, "s0")]
    machines = [
        lts(["s0", "s1"], ["A"], ["0"], transitions, ["s0"]),
        bar(["s0", "s1"], ["A"], ["0"], transitions, ["s0"], ["s1"]),
        gba(["s0", "s1"], ["A"], ["0"], transitions, ["s0"], [["s0"], ["s1"]]),
    ]
    for m in machines:
        obj = machine_to_json(m)
        assert machine_from_json(obj) == m
        assert dumps_canonical(obj) == dumps_canonical(machine_to_json(m))


def test_machine_json_is_sorted():
    m = bar(["b", "a"], ["B", "A"], ["1", "0"], [("b", TAU, "a")], ["b"], ["a"])
    obj = machine_to_json(m)
    assert obj["states"] == ["a", "b"]
    assert obj["names"] == ["A", "B"]
    assert obj["data"] == ["0", "1"]
    assert obj["final"] == ["a"]


def test_machine_from_json_errors():
    good = machine_to_json(lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"]))
    with pytest.raises(MachineFormatError):
        machine_from_json([good])
    for key in ("states", "names", "data", "initial", "transitions"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(MachineFormatError):
            machine_from_json(broken)
    both = dict(good)
    both["final"] = ["s0"]
    both["final_family"] = [["s0"]]
    with pytest.raises(MachineFormatError):
        machine_from_json(both)
    bad_states = dict(good)
    bad_states["states"] = ["s0", 1]
    with pytest.raises(MachineFormatError):
        machine_from_json(bad_states)
    bad_edge = dict(good)
    bad_edge["transitions"] = [{"from": "s0", "to": "s0"}]
    with pytest.raises(MachineFormatError):
        machine_from_json(bad_edge)
    bad_family = dict(good)
    bad_family["final_family"] = [["s0"], "s0"]
    with pytest.raises(MachineFormatError):
        machine_from_json(bad_family)


def test_machine_from_json_rejects_non_array_parts():
    good = machine_to_json(lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"]))
    cases = {
        '"transitions" must be an array': {"transitions": {"from": "s0"}},
        "transition endpoints must be strings": {
            "transitions": [{"from": "s0", "label": {"A": "0"}, "to": 0}]
        },
        '"final_family" must be an array of state arrays': {"final_family": "s0"},
    }
    for message, change in cases.items():
        with pytest.raises(MachineFormatError, match=message):
            machine_from_json({**good, **change})


EDGE = {"from": "s0", "label": {"A": "0"}, "to": "s0"}
SHAPE = 'each transition must be an object with exactly "from", "label", "to"'
PORT = "port name must be a non-empty string without whitespace, got 'A B'"
REFUSED_EDGES = {
    "not-an-object": (["s0", {"A": "0"}, "s0"], MachineFormatError, SHAPE),
    "missing-key": ({"from": "s0", "to": "s0"}, MachineFormatError, SHAPE),
    "extra-key": ({**EDGE, "weight": "1"}, MachineFormatError, SHAPE),
    "endpoint-not-a-string": (
        {**EDGE, "from": 0}, MachineFormatError, "transition endpoints must be strings"
    ),
    "label-not-an-object": (
        {**EDGE, "label": ["A", "0"]}, MachineFormatError, "a record must be a JSON object, got list"
    ),
    "label-value-not-a-string": (
        {**EDGE, "label": {"A": 0}}, MachineFormatError, "record ports and values must be strings"
    ),
    "label-port-with-whitespace": ({**EDGE, "label": {"A B": "0"}}, InvalidRecordError, PORT),
    # Record's order: entries by port, each port before its value.
    "first-bad-token-by-port": ({**EDGE, "label": {"B": "x y", "A B": "0"}}, InvalidRecordError, PORT),
    "bad-value-after-good-port": (
        {**EDGE, "label": {"B": "x y", "A": "0"}}, InvalidRecordError,
        "data value must be a non-empty string without whitespace, got 'x y'",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_EDGES))
def test_machine_from_json_refuses_a_bad_transition_with_its_message(case):
    edge, error, message = REFUSED_EDGES[case]
    good = machine_to_json(lts(["s0"], ["A"], ["0"], [("s0", A, "s0")], ["s0"]))
    for edges in ([edge], [EDGE, edge]):
        with pytest.raises(TsrError) as info:
            machine_from_json({**good, "transitions": edges})
        assert type(info.value) is error
        assert str(info.value) == message


MALFORMED_LABELS = {
    "non-object": ["A", "0"],
    "non-string-value": {"A": 0},
    "list-value": {"A": ["0"]},
}


def machine_with_labels(*labels):
    return {
        "names": ["A", "B"], "data": ["0", "1"], "states": ["s0"], "initial": ["s0"],
        "transitions": [{"from": "s0", "label": r, "to": "s0"} for r in labels],
    }


@pytest.mark.parametrize("kind", sorted(MALFORMED_LABELS))
def test_malformed_labels_are_format_errors(kind):
    bad = MALFORMED_LABELS[kind]
    for labels in ((bad,), ({"A": "0"}, bad), (bad, {"A": "0"})):
        with pytest.raises(MachineFormatError):
            machine_from_json(machine_with_labels(*labels))


def test_equal_labels_load_as_one_record():
    raw = machine_with_labels({"A": "0", "B": "1"}, {"B": "1", "A": "0"}, {}, {}, {"A": "0"})
    raw["states"] = ["s0", "s1", "s2", "s3", "s4"]
    for i, t in enumerate(raw["transitions"]):
        t["to"] = f"s{i}"
    labels = {dst: r for _, r, dst in machine_from_json(raw).transitions}
    assert labels["s0"] is labels["s1"] == rec(A="0", B="1")
    assert labels["s2"] is labels["s3"] == TAU
    assert labels["s4"] == A


def test_verdict_json_shape():
    w = FiniteWord((A,), frozenset({"A"}))
    assert verdict_to_json(Verdict(True)) == {
        "equal": True,
        "witness": None,
        "witness_kind": None,
    }
    obj = verdict_to_json(Verdict(False, w))
    assert obj == {"equal": False, "witness": [{"A": "0"}], "witness_kind": "finite"}
    lasso_obj = verdict_to_json(Verdict(False, Lasso((), (A,), frozenset({"A"}))))
    assert lasso_obj["witness_kind"] == "lasso"
    assert lasso_obj["witness"] == {"prefix": [], "period": [{"A": "0"}]}


def test_report_json_shape():
    report = fuzz_congruence("ft", GenParams(seed=1), 3)
    obj = report_to_json(report)
    assert set(obj) == {
        "relation",
        "trials",
        "passed",
        "vacuous",
        "failed",
        "failures",
        "join_traps_observed",
    }
    assert obj["trials"] == 3


def test_load_json_and_load_machine(tmp_path):
    path = tmp_path / "m.json"
    m = random_machine(GenParams(seed=2), "bar")
    path.write_text(dumps_canonical(machine_to_json(m)), encoding="utf-8")
    assert load_machine(str(path)) == m

    bad = tmp_path / "bad.json"
    bad.write_text("{ oops", encoding="utf-8")
    with pytest.raises(MachineFormatError) as info:
        load_json(str(bad))
    assert "line 1" in str(info.value)


def test_dumps_canonical_is_stable():
    text = dumps_canonical({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent / "golden").glob("*.json")), ids=lambda p: p.name
)
def test_dumps_canonical_matches_json_dumps_on_golden_files(path):
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert dumps_canonical(obj) == _reference(obj)


@pytest.mark.parametrize("relation", ["ft", "f", "it", "b"])
def test_dumps_canonical_matches_json_dumps_on_fuzz_reports(relation):
    report = report_to_json(fuzz_congruence(relation, GenParams(seed=3), 20))
    assert dumps_canonical(report) == _reference(report)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[], {}, [[]], [{}], {"a": {}, "b": []}],
        {"x": [[[]]], "y": {"z": {}}},
        (1, ("a", ()), [()]),
        [True, False, None],
        {"t": True, "f": False, "n": None},
        [0, -3, 7, 10**30, -(10**30)],
        [0.5, 1e300, -0.0, 0.0, 1e-300, 2.5e-5, 123456789.125],
        "plain",
        "h\u00e9llo \u2603 \U0001f600 \u00ff",
        "\x00\x01\x1f\t\n\r\b\f\"\\/\x7f\u2028",
        {"\n\"k\u00e9\x01": 1, "a": [True, None], "": {"\U0001f600": "\\"}},
        {"b": 1, "a": 2, "B": 3, "\u00e9": 4, "aa": 5},
    ],
)
def test_dumps_canonical_matches_json_dumps_on_chosen_values(obj):
    assert dumps_canonical(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, [{("a",): 1}]])
def test_dumps_canonical_refuses_a_key_that_is_not_a_string(obj):
    # The wire formats only have string keys; json.dumps would write 1 as "1".
    with pytest.raises(TypeError):
        dumps_canonical(obj)


# dumps_machine writes a machine's rows in its id table's order, and
# machine_to_json sorts them; these pin the two orders and the two writers to
# each other byte for byte.
GOLDEN_MACHINES = [
    path for path in sorted((Path(__file__).parent / "golden").glob("*.json"))
    if "states" in json.loads(path.read_text(encoding="utf-8"))
]


@pytest.mark.parametrize("path", GOLDEN_MACHINES, ids=lambda p: p.name)
def test_dumps_machine_is_pinned_to_dumps_canonical_on_golden_machines(path):
    m = load_machine(str(path))
    assert dumps_machine(m) == dumps_canonical(machine_to_json(m))


@pytest.mark.parametrize("path", GOLDEN_MACHINES, ids=lambda p: p.name)
def test_golden_machines_load_as_make_builds_them(path):
    obj = json.loads(path.read_text(encoding="utf-8"))
    edges = [(t["from"], Record.of(t["label"]), t["to"]) for t in obj["transitions"]]
    fields = (obj["states"], obj["names"], obj["data"], edges, obj["initial"])
    if "final" in obj:
        made = bar(*fields, obj["final"])
    elif "final_family" in obj:
        made = gba(*fields, obj["final_family"])
    else:
        made = lts(*fields)
    m = load_machine(str(path))
    assert type(m) is type(made)
    assert m == made


def _renamed(m, seed):
    """``m`` with its states renamed; every fourth seed picks names that
    need escaping or look like product states."""
    odd = seed % 4 == 0
    name = {q: f'{q}"\\\u00e9,({{' if odd else q for q in m.states}.get
    return bar(
        map(name, m.states), m.names, m.data,
        [(name(src), r, name(dst)) for src, r, dst in m.transitions],
        map(name, m.initial), map(name, m.final),
    )


@pytest.mark.parametrize("seed", range(12))
def test_dumps_machine_is_pinned_to_dumps_canonical_on_seeded_joins(seed):
    data = frozenset({"0", "1"})
    a = _renamed(random_machine(GenParams(4, frozenset("AB"), data, seed=seed)), seed)
    c = random_machine(GenParams(4, frozenset("BC"), data, seed=seed + 100))
    for m in (join(a, c), join_bar_flat(a, c), join_lts(base_of(a), base_of(c))):
        assert dumps_machine(m) == dumps_canonical(machine_to_json(m))


ODD = '"q\\\u00e9,({'
EDGES = [("s0", TAU, ODD), (ODD, rec(A="0", B="1"), "s0"), ("s0", rec({"\u00e9\"": "\\"}), "s0")]


@pytest.mark.parametrize(
    "m",
    [
        lts(["s0", ODD], ["A", "B", "\u00e9\""], ["0", "1", "\\"], EDGES, ["s0"]),
        bar(["s0", ODD], ["A", "B"], ["0", "1"], EDGES[:2], [ODD], []),
        gba(["s0", ODD], ["A", "B"], ["0", "1"], EDGES[:2], ["s0"], [[], [ODD, "s0"]]),
        gba(["s0", ODD], ["A", "B"], ["0", "1"], EDGES[:2], ["s0"], []),
        lts(["s0"], [], [], [], []),
        bar(["s0"], ["A"], ["0"], [], ["s0"], ["s0"]),
    ],
    ids=["lts", "bar-empty-final", "gba-empty-member", "gba-empty-family", "lts-bare", "bar-no-edges"],
)
def test_dumps_machine_is_pinned_to_dumps_canonical_on_edge_cases(m):
    assert dumps_machine(m) == dumps_canonical(machine_to_json(m))
