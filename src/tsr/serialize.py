"""JSON wire formats.

A record is an object mapping port names to data values, the invisible
record being {}.  A finite word is an array of records; a lasso is
{"prefix": [...], "period": [...]}.  A machine is an object with "names",
"data", "states", "initial", "transitions" (each transition being
{"from", "label", "to"}), plus "final" for a Buchi automaton or
"final_family" for a generalized one; a plain transition system has
neither.  Output is canonical: sorted keys, sorted lists, two-space
indentation, LF newlines, so identical machines serialize byte-for-byte
identically.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .automata import Bar, Gba, Ltsr, Machine, Verdict
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
    return Record.of(obj)


def _label_from_json(obj, labels: dict) -> Record:
    """``record_from_json(obj)``, built once per distinct label in ``labels``."""
    try:
        return labels[frozenset(obj.items())]
    except (AttributeError, KeyError, TypeError):
        pass  # not a dict, an unhashable value, or a new label
    record = record_from_json(obj)
    labels[frozenset(obj.items())] = record
    return record


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


def _transition_key(t: dict):
    return (t["from"], sorted(t["label"].items()), t["to"])


def machine_to_json(m: Machine) -> dict:
    transitions = [
        {"from": src, "label": record_to_json(r), "to": dst}
        for (src, r, dst) in m.transitions
    ]
    transitions.sort(key=_transition_key)
    out = {
        "names": sorted(m.names),
        "data": sorted(m.data),
        "states": sorted(m.states),
        "initial": sorted(m.initial),
        "transitions": transitions,
    }
    if isinstance(m, Bar):
        out["final"] = sorted(m.final)
    elif isinstance(m, Gba):
        out["final_family"] = [sorted(member) for member in m.final_family]
    return out


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
        if not isinstance(t, dict) or set(t) != {"from", "label", "to"}:
            raise MachineFormatError(
                'each transition must be an object with exactly "from", "label", "to"'
            )
        if not isinstance(t["from"], str) or not isinstance(t["to"], str):
            raise MachineFormatError("transition endpoints must be strings")
        transitions.append((t["from"], _label_from_json(t["label"], labels), t["to"]))
    fields = (states, names, data, transitions, initial)
    if "final" in obj:
        return Bar.make(*fields, _string_list(obj, "final"))
    if "final_family" in obj:
        family = obj["final_family"]
        if not isinstance(family, list):
            raise MachineFormatError('"final_family" must be an array of state arrays')
        members = []
        for member in family:
            if not isinstance(member, list) or not all(isinstance(x, str) for x in member):
                raise MachineFormatError("every final-family member must be an array of strings")
            members.append(frozenset(member))
        return Gba.make(*fields, members)
    return Ltsr.make(*fields)


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


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as e:
            raise MachineFormatError(
                f"{path}: line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e


def load_machine(path: str) -> Machine:
    return machine_from_json(load_json(path))
