"""A fixed reference job that tells how fast the host runs at the moment.

The benchmark shares a few cores of a host with other tenants, and the speed
those cores give a Python thread drifts by up to twofold over seconds to
minutes.  Every op's time moves with that drift, which no choice of op or of
run length removes.  So an untraced run also times this job every 50 ms,
inside ops as well as between them, and reports each time-based metric
twice: as measured, and scaled to the speed at which this job takes
``NOMINAL_S``.

The job is a subset construction over frozensets of state names with tuple
labels, the kind of work ``tsr`` does most, written with the stdlib only and
sharing no code with ``tsr``: a change to the library leaves it as it is.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

_rng = random.Random("perfbench:probe")
_STATES = tuple(f"q{i}" for i in range(7))
_LETTERS = tuple((n, d) for n in ("A", "B") for d in ("0", "1"))
_STEP = {
    (p, a): frozenset(q for q in _STATES if _rng.random() < 0.3)
    for p in _STATES for a in _LETTERS
}
# What the job must return: the subset count and the edge count.
_EXPECTED = (38, 152)
_REPS = 2

# About the job's time, _REPS runs, in the host's fast spells: a 2.1 GHz
# Xeon core with Python 3.11.  Any constant would do; this one keeps the
# scaled figures close to those measured on an unloaded host.
NOMINAL_S = 0.0006


def _job():
    start = frozenset(_STATES[:1])
    seen = {start: 0}
    todo = [start]
    edges = []
    while todo:
        s = todo.pop()
        for a in _LETTERS:
            t = frozenset(q for p in s for q in _STEP[p, a])
            if t not in seen:
                seen[t] = len(seen)
                todo.append(t)
            edges.append((seen[s], a, seen[t]))
    return len(seen), len(edges)


def probe():
    """Seconds the reference job takes now.

    The collector is off meanwhile, so that a heap the last op left behind
    does not count as host speed.
    """
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(_REPS):
            result = _job()
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    if result != _EXPECTED:
        raise RuntimeError(f"perfbench probe returned {result}, not {_EXPECTED}")
    return elapsed
