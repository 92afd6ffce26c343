"""JSON wire formats.

A record is an object mapping port names to data values, the invisible
record being {}.  A finite word is an array of records; a lasso is
{"prefix": [...], "period": [...]}.  A machine is an object with "names",
"data", "states", "initial", "transitions" (each transition being
{"from", "label", "to"}), plus "final" for a Buchi automaton or
"final_family" for a generalized one; a plain transition system has
neither.  Output is canonical: sorted keys, sorted lists, two-space
indentation, LF newlines, so identical machines serialize byte-for-byte
identically.  Its bytes equal ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline, with non-ASCII characters written as ASCII escapes.

``dumps_canonical`` writes any payload.  ``dumps_machine`` writes one
machine, as ``tsr join`` does, straight from its id table and with the same
bytes as ``dumps_canonical(machine_to_json(m))``: the table's ids follow the
sorted state names, so it walks the rows in the order that ``_rows`` sorts
them into for ``machine_to_json``.  ``_final_field`` gives both paths the
one acceptance field.  ``machine_from_json`` checks each transition's shape
and builds each distinct label once.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .automata import Bar, Gba, Ltsr, Machine, Verdict, _canonical_family, _indexed
from .congruence import CongruenceInstance, FuzzReport
from .errors import MachineFormatError
from .records import FiniteWord, Lasso, Record


def record_to_json(r: Record) -> dict:
    return {port: value for port, value in r.entries}


def record_from_json(obj) -> Record:
    if not isinstance(obj, dict):
        raise MachineFormatError(f"a record must be a JSON object, got {type(obj).__name__}")
    for port, value in obj.items():
        if not isinstance(port, str) or not isinstance(value, str):
            raise MachineFormatError("record ports and values must be strings")
    return Record(tuple(sorted(obj.items())))


def _label_from_json(obj, labels: dict) -> Record:
    """``record_from_json(obj)``, built once per distinct label in ``labels``.

    ``labels`` maps each item tuple seen to its record, and each record to
    itself, so that equal labels written in another key order share one."""
    try:
        key = tuple(obj.items())
        return labels[key]
    except KeyError:
        record = record_from_json(obj)
        record = labels[key] = labels.setdefault(record, record)
        return record
    except (AttributeError, TypeError):  # not a dict, or an unhashable value
        return record_from_json(obj)


def word_to_json(w: FiniteWord) -> list:
    return [record_to_json(r) for r in w.symbols]


def word_from_json(obj, names) -> FiniteWord:
    if not isinstance(obj, list):
        raise MachineFormatError("a finite word must be a JSON array of records")
    return FiniteWord(tuple(record_from_json(r) for r in obj), frozenset(names))


def lasso_to_json(l: Lasso) -> dict:
    return {
        "prefix": [record_to_json(r) for r in l.prefix],
        "period": [record_to_json(r) for r in l.period],
    }


def lasso_from_json(obj, names) -> Lasso:
    if not isinstance(obj, dict) or set(obj) != {"prefix", "period"}:
        raise MachineFormatError('a lasso must be an object with exactly "prefix" and "period"')
    if not isinstance(obj["prefix"], list) or not isinstance(obj["period"], list):
        raise MachineFormatError("lasso prefix and period must be arrays of records")
    return Lasso(
        tuple(record_from_json(r) for r in obj["prefix"]),
        tuple(record_from_json(r) for r in obj["period"]),
        frozenset(names),
    )


def witness_to_json(w: Optional[Union[FiniteWord, Lasso]]):
    if w is None:
        return None
    if isinstance(w, FiniteWord):
        return word_to_json(w)
    return lasso_to_json(w)


def verdict_to_json(v: Verdict) -> dict:
    return {
        "equal": v.equal,
        "witness": witness_to_json(v.witness),
        "witness_kind": v.witness_kind,
    }


def _rows(m: Machine) -> list:
    """The transitions of ``m`` as ``(src, label entries, dst)`` rows in
    canonical order.  Entries are sorted by port, so this is the order of
    the labels' sorted JSON items."""
    return sorted([(src, r.entries, dst) for src, r, dst in m.transitions])


def _final_field(m: Machine) -> dict:
    """The acceptance field of a machine's JSON: "final" for a Bar,
    "final_family" for a Gba, none for a plain transition system."""
    if isinstance(m, Bar):
        return {"final": sorted(m.final)}
    if isinstance(m, Gba):
        return {"final_family": [sorted(member) for member in m.final_family]}
    return {}


def machine_to_json(m: Machine) -> dict:
    return {
        "names": sorted(m.names),
        "data": sorted(m.data),
        "states": sorted(m.states),
        "initial": sorted(m.initial),
        "transitions": [
            {"from": src, "label": dict(entries), "to": dst} for src, entries, dst in _rows(m)
        ],
        **_final_field(m),
    }


_TRANSITION_KEYS = frozenset({"from", "label", "to"})


def _string_list(obj, key) -> list:
    value = obj.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise MachineFormatError(f'"{key}" must be an array of strings')
    return value


def machine_from_json(obj) -> Machine:
    if not isinstance(obj, dict):
        raise MachineFormatError("a machine must be a JSON object")
    for key in ("names", "data", "states", "initial", "transitions"):
        if key not in obj:
            raise MachineFormatError(f'machine is missing required key "{key}"')
    if "final" in obj and "final_family" in obj:
        raise MachineFormatError('a machine cannot carry both "final" and "final_family"')
    names = _string_list(obj, "names")
    data = _string_list(obj, "data")
    states = _string_list(obj, "states")
    initial = _string_list(obj, "initial")
    raw = obj["transitions"]
    if not isinstance(raw, list):
        raise MachineFormatError('"transitions" must be an array')
    transitions = []
    labels = {}
    for t in raw:
        if not isinstance(t, dict) or t.keys() != _TRANSITION_KEYS:
            raise MachineFormatError(
                'each transition must be an object with exactly "from", "label", "to"'
            )
        src, dst = t["from"], t["to"]
        if not isinstance(src, str) or not isinstance(dst, str):
            raise MachineFormatError("transition endpoints must be strings")
        transitions.append((src, _label_from_json(t["label"], labels), dst))
    # The fields as the kinds' make() would build them, each built once.
    fields = (
        frozenset(states), frozenset(names), frozenset(data),
        frozenset(transitions), frozenset(initial),
    )
    if "final" in obj:
        return Bar(*fields, frozenset(_string_list(obj, "final")))
    if "final_family" in obj:
        family = obj["final_family"]
        if not isinstance(family, list):
            raise MachineFormatError('"final_family" must be an array of state arrays')
        members = []
        for member in family:
            if not isinstance(member, list) or not all(isinstance(x, str) for x in member):
                raise MachineFormatError("every final-family member must be an array of strings")
            members.append(frozenset(member))
        return Gba(*fields, _canonical_family(members))
    return Ltsr(*fields)


def instance_to_json(ci: CongruenceInstance) -> dict:
    return {
        "relation": ci.relation,
        "left": machine_to_json(ci.left),
        "right": machine_to_json(ci.right),
        "context": machine_to_json(ci.context),
        "premise_holds": ci.premise_holds,
        "conclusion_holds": ci.conclusion_holds,
        "witness": witness_to_json(ci.witness),
    }


def report_to_json(r: FuzzReport) -> dict:
    return {
        "relation": r.relation,
        "trials": r.trials,
        "passed": r.passed,
        "vacuous": r.vacuous,
        "failed": r.failed,
        "failures": [instance_to_json(ci) for ci in r.failures],
        "join_traps_observed": r.join_traps_observed,
    }


_quote = json.encoder.encode_basestring_ascii


def _write(obj, indent: str, out: list) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    would write it, ``indent`` being a newline and the current level's spaces.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; this
    writer quotes strings with the C encoder's escaping.  A key that is not a
    string raises TypeError.
    """
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    else:
        out.append(json.dumps(obj))


def dumps_canonical(obj) -> str:
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _strings(values) -> str:
    """A set of strings as ``_write`` writes its sorted list as a field of a
    top-level object."""
    if not values:
        return "[]"
    return "[\n    " + ",\n    ".join(map(_quote, sorted(values))) + "\n  ]"


def dumps_machine(m: Machine) -> str:
    """``dumps_canonical(machine_to_json(m))``, written from the machine's id
    table without building its dicts.

    Every transition must carry a record between declared states, as every
    join result's do.  Ids follow the sorted state names, so the rows come out in
    canonical order with no sort: sources by id, then labels in ``Record``
    order, then targets by id.  Each state and each distinct label is quoted
    once, and the pre-quoted parts are joined."""
    table = _indexed(m)
    quoted = [_quote(q) for q in table.order]
    tails = [q + "\n    }" for q in quoted]
    letters = []
    for r, masks in sorted(table.masks.items(), key=lambda item: item[0].entries):
        items = [_quote(port) + ": " + _quote(value) for port, value in r.entries]
        label = "{\n        " + ",\n        ".join(items) + "\n      }" if items else "{}"
        letters.append((',\n      "label": ' + label + ',\n      "to": ', masks))
    rows = []
    for i, src in enumerate(quoted):
        head = '{\n      "from": ' + src
        for label, masks in letters:
            mask = masks[i]
            if mask:
                prefix = head + label
                while mask:  # _ids inlined: a join has many edges to write
                    low = mask & -mask
                    rows.append(prefix + tails[low.bit_length() - 1])
                    mask ^= low
    out = ['{\n  "data": ', _strings(m.data)]
    for key, value in _final_field(m).items():
        out += [",\n  ", _quote(key), ": "]
        _write(value, "\n  ", out)
    out += [
        ',\n  "initial": ', _strings(m.initial),
        ',\n  "names": ', _strings(m.names),
        ',\n  "states": ', _strings(m.states),
        ',\n  "transitions": ', "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]",
        "\n}\n",
    ]
    return "".join(out)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as e:
            raise MachineFormatError(
                f"{path}: line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
        except UnicodeDecodeError as e:
            raise MachineFormatError(f"{path}: not UTF-8 text ({e.reason})") from e
        except RecursionError as e:
            raise MachineFormatError(f"{path}: JSON nested too deeply") from e


def load_machine(path: str) -> Machine:
    return machine_from_json(load_json(path))
