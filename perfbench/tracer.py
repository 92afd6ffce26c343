"""Spans around calls into the public functions of each ``tsr`` module.

The tracer replaces every public function of a layer module with a wrapper,
both in the module that defines it and in every ``tsr`` module (the package
included) that imported it by name, so the wrapper is what callers find when
they look the name up.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent); the spans of one op are collected
together and folded into per-function totals when the op ends.  Self time is
a span's duration minus the time its child spans cover.  Private helpers are
not wrapped, so their time is self time of the public function that called
them.  ``check_token`` runs for every record entry and is only counted.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("records", "automata", "join", "languages", "congruence", "serialize", "cli")
COUNT_ONLY = {"records.check_token"}
REFUSALS = ("SizeBoundError", "AlphabetLimitError")


def _machine_size(m):
    base = getattr(m, "base", m)
    return len(base.states), len(base.transitions)


def _states_out(stats, result):
    stats["states_out"] += _machine_size(result)[0]


def _states_and_transitions_out(stats, result):
    states, transitions = _machine_size(result)
    stats["states_out"] += states
    stats["transitions_out"] += transitions


def _bytes_out(stats, result):
    stats["bytes_out"] += len(result.encode("utf-8"))


# Counters read off a function's return value, after its span has closed.
RESULT_HOOKS = {
    "join.join": _states_and_transitions_out,
    "join.join_lts": _states_and_transitions_out,
    "automata.degeneralize": _states_out,
    "languages.buchi_complement": _states_out,
    "languages.buchi_intersect": _states_out,
    "serialize.dumps_canonical": _bytes_out,
}


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        # "module.function" -> counter name -> value; "self_s" is in seconds.
        self.stats = defaultdict(lambda: defaultdict(float))
        self._spans = None  # the current op's spans while an op is open
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tsr" or name.startswith("tsr."))
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"tsr.{layer}"]
            for name, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def _wrap(self, key, fn):
        stats = self.stats[key]
        if key in COUNT_ONLY:
            def counted(*args, **kwargs):
                if self._spans is not None:
                    stats["calls"] += 1
                return fn(*args, **kwargs)
            return counted

        hook = RESULT_HOOKS.get(key)

        def spanned(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = self._stack
            span = [key, perf_counter(), 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if type(e).__name__ in REFUSALS:
                    stats["refused"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(stats, result)
            return result

        return spanned

    # -- ops -----------------------------------------------------------------

    def begin_op(self):
        self._spans = []
        self._stack = []

    def end_op(self):
        """Fold the op's spans into per-function calls and self time."""
        spans, self._spans = self._spans, None
        child_time = {}
        for key, start, end, parent in spans:
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + (end - start)
        for span in spans:
            key, start, end, _ = span
            stats = self.stats[key]
            stats["calls"] += 1
            stats["self_s"] += (end - start) - child_time.get(id(span), 0.0)

    def snapshot(self):
        """Plain copy of the counters gathered so far."""
        return {key: dict(values) for key, values in self.stats.items() if values}
