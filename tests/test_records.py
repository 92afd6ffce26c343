"""Record algebra: construction, restriction, compatibility, union, words."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsr import records
from tsr.errors import AlphabetLimitError, IncompatibleRecordsError, InvalidRecordError
from tsr.records import (
    ALPHABET_LIMIT_ENV,
    TAU,
    FiniteWord,
    Lasso,
    Record,
    comp,
    enumerate_alphabet,
    restrict,
    restrict_lasso,
    restrict_word,
    union,
    vis,
    vis_lasso,
)

A1 = Record.of(A="1")
A2 = Record.of(A="2")
B2 = Record.of(B="2")
AB = Record.of(A="1", B="2")


def test_record_construction_is_canonical():
    assert Record.of({"B": "2", "A": "1"}) == Record.of(A="1", B="2")
    assert Record.of(A="1").entries == (("A", "1"),)
    assert str(AB) == "{A=1,B=2}"
    assert str(TAU) == "tau"


def test_record_token_rules():
    with pytest.raises(InvalidRecordError):
        Record.of({"": "1"})
    with pytest.raises(InvalidRecordError):
        Record.of({"a b": "1"})
    with pytest.raises(InvalidRecordError):
        Record.of({"A": ""})
    with pytest.raises(InvalidRecordError):
        Record.of({"A": 1})
    with pytest.raises(InvalidRecordError):
        Record((("B", "1"), ("A", "1")))
    with pytest.raises(InvalidRecordError):
        Record((("A", "1"), ("A", "2")))
    with pytest.raises(InvalidRecordError):
        Record((("A",),))
    with pytest.raises(InvalidRecordError):
        Record([("A", "1")])


def test_invisible_record():
    assert TAU.is_invisible
    assert TAU.domain == frozenset()
    assert not A1.is_invisible
    assert restrict(TAU, {"A", "B"}) == TAU
    assert restrict(A1, ()) == TAU


def test_restrict():
    assert restrict(AB, {"A"}) == A1
    assert restrict(AB, {"B"}) == B2
    assert restrict(AB, {"A", "B", "C"}) == AB
    assert restrict(AB, {"C"}) == TAU


def test_comp_agreement_and_blocking():
    # Same port, same value: compatible whatever the other's name set adds.
    assert comp(A1, {"A"}, A1, {"A", "B"})
    # Same port, different values: incompatible.
    assert not comp(A1, {"A"}, A2, {"A"})
    # One side fires A, the other knows A but stays silent: A is blocked.
    assert not comp(A1, {"A"}, TAU, {"A"})
    # The silent side does not know A at all: no blocking, compatible.
    assert comp(A1, {"A"}, TAU, {"B"})
    # r1 stays silent on B which r2 fires, and r1 knows B: blocked.
    assert not comp(A1, {"A", "B"}, B2, {"B"})
    # Disjoint name sets never block each other.
    assert comp(A1, {"A"}, B2, {"B"})
    assert comp(TAU, {"A"}, TAU, {"B"})


def test_comp_rejects_out_of_name_set_records():
    with pytest.raises(InvalidRecordError):
        comp(A1, {"B"}, TAU, {"B"})
    with pytest.raises(InvalidRecordError):
        comp(TAU, {"B"}, A1, {"B"})


def test_union():
    assert union(A1, B2) == AB
    assert union(A1, A1) == A1
    assert union(AB, TAU) == AB
    assert union(TAU, TAU) == TAU
    with pytest.raises(IncompatibleRecordsError):
        union(A1, A2)


names_st = st.frozensets(st.sampled_from(["A", "B", "C"]), max_size=3)
record_st = st.dictionaries(
    st.sampled_from(["A", "B", "C"]), st.sampled_from(["0", "1"]), max_size=3
).map(Record.of)


@given(record_st, names_st, record_st, names_st)
def test_comp_is_symmetric(r1, extra1, r2, extra2):
    n1 = r1.domain | extra1
    n2 = r2.domain | extra2
    assert comp(r1, n1, r2, n2) == comp(r2, n2, r1, n1)


@given(record_st, names_st, record_st, names_st)
def test_union_of_compatible_records_decomposes_uniquely(r1, extra1, r2, extra2):
    n1 = r1.domain | extra1
    n2 = r2.domain | extra2
    if not comp(r1, n1, r2, n2):
        return
    merged = union(r1, r2)
    assert merged.domain == r1.domain | r2.domain
    assert restrict(merged, n1) == r1
    assert restrict(merged, n2) == r2


@given(record_st, names_st, names_st)
def test_restrict_composes_by_intersection(r, s, t):
    assert restrict(restrict(r, s), t) == restrict(r, s & t)
    assert restrict(restrict(r, s), s) == restrict(r, s)


def test_alphabet_size_law():
    for names in [(), ("A",), ("A", "B"), ("A", "B", "C")]:
        for data in [(), ("0",), ("0", "1")]:
            letters = enumerate_alphabet(names, data)
            assert len(letters) == (len(data) + 1) ** len(names)
            assert len(set(letters)) == len(letters)
            assert letters == sorted(letters)
            assert TAU in letters
            for r in letters:
                assert r.domain <= frozenset(names)
                assert all(v in data for _, v in r.entries)


def test_alphabet_limit_guard(monkeypatch):
    names = [f"n{i}" for i in range(7)]
    with pytest.raises(AlphabetLimitError):
        enumerate_alphabet(names, ["0"])
    monkeypatch.setenv(ALPHABET_LIMIT_ENV, "128")
    assert len(enumerate_alphabet(names, ["0"])) == 128
    monkeypatch.setenv(ALPHABET_LIMIT_ENV, "not-a-number")
    with pytest.raises(AlphabetLimitError):
        enumerate_alphabet(names, ["0"])


def test_a_lowered_limit_refuses_an_alphabet_already_enumerated(monkeypatch):
    names = ["A", "B", "C"]
    assert len(enumerate_alphabet(names, ["0"])) == 8
    monkeypatch.setenv(ALPHABET_LIMIT_ENV, "7")
    with pytest.raises(AlphabetLimitError, match="8 letters which exceeds the limit of 7"):
        enumerate_alphabet(names, ["0"])


def test_mutating_an_enumerated_alphabet_leaves_the_next_one_alone():
    letters = enumerate_alphabet(["A", "B"], ["0", "1"])
    expected = list(letters)
    letters.clear()
    again = enumerate_alphabet(("B", "A"), ("1", "0"))
    assert again == expected and again is not letters


def test_finite_word():
    w = FiniteWord.of([A1, TAU, B2])
    assert w.names == {"A", "B"}
    assert len(w) == 3
    assert list(w) == [A1, TAU, B2]
    with pytest.raises(InvalidRecordError):
        FiniteWord.of([A1], names={"B"})
    assert vis(w) == FiniteWord.of([A1, B2], names={"A", "B"})
    assert restrict_word(w, {"A"}) == FiniteWord((A1, TAU, TAU), frozenset({"A"}))


def test_lasso():
    l = Lasso.of([A1], [B2])
    assert l.names == {"A", "B"}
    with pytest.raises(InvalidRecordError):
        Lasso.of([A1], [])
    assert restrict_lasso(l, {"B"}) == Lasso((TAU,), (B2,), frozenset({"B"}))
    assert vis_lasso(l) == l
    # A period that goes quiet collapses to its visible prefix.
    quiet = Lasso.of([A1, TAU], [TAU], names={"A"})
    assert vis_lasso(quiet) == FiniteWord((A1,), frozenset({"A"}))


def test_words_over_different_name_sets_differ():
    assert FiniteWord.of([A1], names={"A"}) != FiniteWord.of([A1], names={"A", "B"})
    assert Lasso.of([], [A1], names={"A"}) != Lasso.of([], [A1], names={"A", "B"})


SRC = Path(__file__).resolve().parent.parent / "src"

PICKLE_RECORDS = """
import pickle, sys
from tsr.records import Record
records = [Record.of(A="1"), Record.of(A="1", B="x"), Record.of(port="value")]
sys.stdout.write(pickle.dumps(records).hex())
"""

UNPICKLE_AND_LOOK_UP = """
import pickle, sys
from tsr.records import Record
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = {Record.of(A="1"), Record.of(A="1", B="x"), Record.of(port="value")}
assert all(r in fresh for r in loaded), "an unpickled record is missing from a set of fresh ones"
assert {hash(r) for r in loaded} == {hash(r) for r in fresh}
"""


def run_python(code, hash_seed, stdin=""):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_unpickled_records_hash_like_fresh_ones_in_another_process():
    # String hashes are salted per process: a record pickled with its cached
    # hash would compare equal to a fresh one but not be found in a set.
    dumped = run_python(PICKLE_RECORDS, hash_seed=1)
    run_python(UNPICKLE_AND_LOOK_UP, hash_seed=2, stdin=dumped)


def test_copies_and_unpickled_records_equal_the_original():
    for r in (TAU, A1, AB):
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin == r and hash(twin) == hash(r) and twin.domain == r.domain
            assert twin in {r} and r in {twin}


def test_record_hash_and_domain_are_fixed_at_construction():
    r = Record.of(B="2", A="1")
    assert r.domain is r.domain == {"A", "B"}
    assert hash(r) == hash(Record((("A", "1"), ("B", "2"))))
    assert {r: 1}[AB] == 1


@pytest.fixture
def token_checks(monkeypatch):
    """Counts the calls made to ``records.check_token``."""
    calls = []
    check = records.check_token

    def counted(token, what="token"):
        calls.append(token)
        return check(token, what)

    monkeypatch.setattr(records, "check_token", counted)
    return calls


def test_union_and_restrict_do_not_recheck_tokens(token_checks):
    c3, abc = Record.of(C="3"), Record.of(A="1", B="2", C="3")
    assert token_checks == ["C", "3", "A", "1", "B", "2", "C", "3"]
    token_checks.clear()
    assert union(AB, c3) == abc
    assert union(A1, B2) == AB and union(TAU, A1) == A1
    assert restrict(AB, {"B"}) == B2 and restrict(AB, {"A", "B"}) == AB
    assert restrict(AB, {"C"}) == TAU
    assert union(A1, B2).domain == {"A", "B"}
    assert hash(restrict(AB, {"A"})) == hash(A1)
    assert token_checks == []


def test_checked_constructors_still_reject_bad_tokens(token_checks):
    for build in (
        lambda: Record((("A", "1"), ("B", " "))),
        lambda: Record.of({"a b": "1"}),
        lambda: Record.of(A=""),
        lambda: enumerate_alphabet(["A", "b c"], ["0"]),
        lambda: enumerate_alphabet(["A"], ["0", "x y"]),
    ):
        token_checks.clear()
        with pytest.raises(InvalidRecordError):
            build()
        assert token_checks


@pytest.mark.parametrize("space", [" ", "\t", "\x1c", "\xa0", "\u2028", "\u3000"])
def test_check_token_rejects_every_kind_of_whitespace(space):
    for token in (space, "a" + space, space + "b", "a" + space + "b"):
        with pytest.raises(InvalidRecordError) as info:
            records.check_token(token, "port name")
        assert str(info.value) == (
            f"port name must be a non-empty string without whitespace, got {token!r}"
        )


@pytest.mark.parametrize("char", ["\u200b", "\u00e9"])
def test_check_token_accepts_characters_that_are_not_whitespace(char):
    for token in (char, "a" + char, char + "b"):
        assert records.check_token(token) == token


def test_check_token_rejects_the_empty_string_and_non_strings():
    for token in ("", None, 1, ("A",)):
        with pytest.raises(InvalidRecordError, match="non-empty string without whitespace"):
            records.check_token(token)


def test_word_operations_skip_rechecking_symbols(monkeypatch):
    checked = []
    monkeypatch.setattr(records, "_check_symbols", lambda symbols, names: checked.append(symbols))
    names = frozenset({"A", "B"})
    w = FiniteWord((A1, TAU, AB), names)
    l = Lasso((AB,), (TAU, B2), names)
    quiet = Lasso((AB,), (TAU,), names)
    checked.clear()
    results = (
        restrict_word(w, {"A"}), vis(w), restrict_lasso(l, {"B"}), vis_lasso(l), vis_lasso(quiet)
    )
    assert checked == []
    assert results == (
        FiniteWord((A1, TAU, A1), frozenset({"A"})),
        FiniteWord((A1, AB), names),
        Lasso((B2,), (TAU, B2), frozenset({"B"})),
        Lasso((AB,), (B2,), names),
        FiniteWord((AB,), names),
    )


def test_word_constructors_still_reject_bad_symbols():
    for symbols in ((A1, B2), (A1, "A=1"), (AB,)):
        with pytest.raises(InvalidRecordError):
            FiniteWord(symbols, frozenset({"A"}))
        with pytest.raises(InvalidRecordError):
            Lasso((), symbols, frozenset({"A"}))
        with pytest.raises(InvalidRecordError):
            Lasso(symbols, (A1,), frozenset({"A"}))
