"""Records and the words built from them.

A record is a partial function from port names to data values.  It carries
positive information (the ports it assigns) and, relative to a declared name
set, negative information (the ports it leaves blocked).  The record with
empty domain is the invisible record ``TAU``: a step labelled with it is not
observable on any port.

Words and lassos carry the name set they are read over, because two equal
symbol sequences over different name sets block different ports and must not
compare equal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import AlphabetLimitError, IncompatibleRecordsError, InvalidRecordError

# Port names and data values are plain string tokens: non-empty, no whitespace.

DEFAULT_ALPHABET_LIMIT = 64
ALPHABET_LIMIT_ENV = "TSR_ALPHABET_LIMIT"


def check_token(token: str, what: str = "token") -> str:
    # split() drops every whitespace character, so it gives [token] exactly
    # when the token is non-empty and holds none.
    if not isinstance(token, str) or token.split() != [token]:
        raise InvalidRecordError(
            f"{what} must be a non-empty string without whitespace, got {token!r}"
        )
    return token


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built without ``__post_init__``.

    Only for fields that already satisfy the class's checks by construction.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, order=True)
class Record:
    """An immutable record, stored as entries sorted by port name.

    The sorted-tuple representation makes equality, hashing, ordering, and
    serialization canonical: there is exactly one object shape per record.
    The hash and ``domain`` are computed once, at construction; they are not
    pickled or copied, because string hashes differ from process to process.
    """

    entries: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            raise InvalidRecordError(f"record entries must be a tuple, got {self.entries!r}")
        seen = None
        for entry in self.entries:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise InvalidRecordError(f"record entry must be a (port, value) pair: {entry!r}")
            port, value = entry
            check_token(port, "port name")
            check_token(value, "data value")
            if seen is not None and port <= seen:
                raise InvalidRecordError("record entries must be strictly sorted by port name")
            seen = port
        self._seal()

    @classmethod
    def _trusted(cls, entries: tuple) -> "Record":
        """A record from entries that are already checked and strictly sorted."""
        r = _unchecked(cls, entries=entries)
        r._seal()
        return r

    def _seal(self) -> None:
        # Same value as the dataclass hash, so set and dict orders do not move.
        self.__dict__["domain"] = frozenset(port for port, _ in self.entries)
        self.__dict__["_hash"] = hash((self.entries,))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.entries,))

    @classmethod
    def of(cls, assignments: Optional[Mapping[str, str]] = None, **kw: str) -> "Record":
        merged = dict(assignments or {})
        merged.update(kw)
        return cls(tuple(sorted(merged.items())))

    def get(self, port: str) -> Optional[str]:
        for name, value in self.entries:
            if name == port:
                return value
        return None

    @property
    def is_invisible(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if not self.entries:
            return "tau"
        return "{" + ",".join(f"{p}={v}" for p, v in self.entries) + "}"


TAU = Record()


def restrict(r: Record, names: Iterable[str]) -> Record:
    """Keep only the assignments whose port lies in ``names``."""
    keep = frozenset(names)
    if r.domain <= keep:
        return r
    return Record._trusted(tuple(e for e in r.entries if e[0] in keep))


def comp(r1: Record, names1: Iterable[str], r2: Record, names2: Iterable[str]) -> bool:
    """Compatibility of two records relative to their declared name sets.

    True iff each record exposes exactly the same ports into the other's name
    set (so neither blocks a port the other fires) and they agree on every
    shared port.  The name sets matter: compatibility is not a property of the
    two domains alone.
    """
    n1 = frozenset(names1)
    n2 = frozenset(names2)
    d1 = r1.domain
    d2 = r2.domain
    if not d1 <= n1:
        raise InvalidRecordError(f"record {r1} is not a record over its declared name set")
    if not d2 <= n2:
        raise InvalidRecordError(f"record {r2} is not a record over its declared name set")
    if (d1 & n2) != (d2 & n1):
        return False
    return all(r1.get(port) == r2.get(port) for port in d1 & d2)


def union(r1: Record, r2: Record) -> Record:
    """Union of two records that agree on shared ports.

    Callers are responsible for the name-set half of compatibility (see
    ``comp``); this function checks the part that is visible from the records
    alone and raises if a shared port carries two different values.
    """
    merged = dict(r1.entries)
    for port, value in r2.entries:
        if port in merged and merged[port] != value:
            raise IncompatibleRecordsError(
                f"records disagree on port {port}: {merged[port]!r} vs {value!r}"
            )
        merged[port] = value
    return Record._trusted(tuple(sorted(merged.items())))


def alphabet_limit() -> int:
    raw = os.environ.get(ALPHABET_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ALPHABET_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise AlphabetLimitError(f"{ALPHABET_LIMIT_ENV} must be an integer, got {raw!r}")


def enumerate_alphabet(names: Iterable[str], data: Iterable[str]):
    """All records over ``names`` and ``data``, sorted canonically.

    The alphabet has (|data|+1) ** |names| letters; enumeration refuses above
    the configured limit because every guarded algorithm downstream would blow
    up with it.  Each name and data value is checked once, and every record
    is built from checked entries.
    """
    ns = sorted(frozenset(names))
    ds = sorted(frozenset(data))
    if not ds:
        return [TAU]
    cap = alphabet_limit()
    count = (len(ds) + 1) ** len(ns)
    if count > cap:
        raise AlphabetLimitError(
            f"alphabet has {count} letters which exceeds the limit of {cap}"
        )
    if ns:  # with no names the one record is TAU, which reads no token
        for n in ns:
            check_token(n, "port name")
        for v in ds:
            check_token(v, "data value")
    # Entry tuples sort as their records do.
    rows = sorted(
        tuple((n, v) for n, v in zip(ns, choice) if v is not None)
        for choice in product([None] + ds, repeat=len(ns))
    )
    return [Record._trusted(entries) for entries in rows]


def _check_records(symbols) -> None:
    for r in symbols:
        if not isinstance(r, Record):
            raise InvalidRecordError(f"word symbol is not a Record: {r!r}")


def _check_symbols(symbols: tuple, names: frozenset) -> None:
    _check_records(symbols)
    for r in symbols:
        if not r.domain <= names:
            raise InvalidRecordError(
                f"symbol {r} uses ports outside the declared name set {sorted(names)}"
            )


def _names_read(symbols) -> frozenset:
    """The ports the symbols assign: the name set of a word declared without one."""
    return frozenset().union(*(r.domain for r in symbols))


@dataclass(frozen=True)
class FiniteWord:
    """A finite sequence of records over a declared name set."""

    symbols: tuple = ()
    names: frozenset = frozenset()

    def __post_init__(self) -> None:
        _check_symbols(self.symbols, self.names)

    @classmethod
    def of(cls, symbols: Iterable[Record], names: Optional[Iterable[str]] = None) -> "FiniteWord":
        syms = tuple(symbols)
        return cls(syms, _names_read(syms) if names is None else frozenset(names))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.symbols)


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic infinite word: ``prefix`` then ``period`` forever.

    The period must be non-empty.  Lassos are the finite representations on
    which all omega-language questions in this package are decided; two
    omega-regular languages are equal exactly when they agree on every lasso.
    """

    prefix: tuple = ()
    period: tuple = ()
    names: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not self.period:
            raise InvalidRecordError("lasso period must be non-empty")
        _check_symbols(self.prefix + self.period, self.names)

    @classmethod
    def of(
        cls,
        prefix: Iterable[Record],
        period: Iterable[Record],
        names: Optional[Iterable[str]] = None,
    ) -> "Lasso":
        pre = tuple(prefix)
        per = tuple(period)
        return cls(pre, per, _names_read(pre + per) if names is None else frozenset(names))


Word = Union[FiniteWord, Lasso]


def restrict_word(w: FiniteWord, names: Iterable[str]) -> FiniteWord:
    """Pointwise restriction; same length, the declared name set becomes ``names``."""
    keep = frozenset(names)
    return _unchecked(FiniteWord, symbols=tuple(restrict(r, keep) for r in w.symbols), names=keep)


def restrict_lasso(l: Lasso, names: Iterable[str]) -> Lasso:
    keep = frozenset(names)
    return _unchecked(
        Lasso,
        prefix=tuple(restrict(r, keep) for r in l.prefix),
        period=tuple(restrict(r, keep) for r in l.period),
        names=keep,
    )


def vis(w: FiniteWord) -> FiniteWord:
    """Drop every invisible symbol; what remains is the observable content."""
    return _unchecked(
        FiniteWord, symbols=tuple(r for r in w.symbols if not r.is_invisible), names=w.names
    )


def vis_lasso(l: Lasso) -> Word:
    """Observable content of a lasso.

    If the period still contains a visible record the result is again a lasso;
    if the period is entirely invisible the stream goes quiet after the prefix
    and the result collapses to the finite word vis(prefix).
    """
    pre = tuple(r for r in l.prefix if not r.is_invisible)
    per = tuple(r for r in l.period if not r.is_invisible)
    if per:
        return _unchecked(Lasso, prefix=pre, period=per, names=l.names)
    return _unchecked(FiniteWord, symbols=pre, names=l.names)
