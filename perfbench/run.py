"""Benchmark for tsr: four workloads, end-to-end and per-layer metrics.

One workload run:

    python3 perfbench/run.py --workload fuzz-small --seed 1 --seconds 25 --trace 0

Every workload, untraced and traced at ``--seed`` and untraced again at the
held-out ``--heldout-seed``, each in its own process:

    python3 perfbench/run.py [--seed 1] [--heldout-seed 2] [--seconds 25] [--out report.json]

A run imports ``tsr`` from ``src/`` next to this directory, builds its inputs
from the seed, and then runs them in a closed loop, one op at a time in one
thread, in whole passes until ``--seconds`` have gone by.  Every op's result
is checked; a wrong verdict ends the run with exit code 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The lines before it print every metric with its
unit and sample count, and the run's commit, Python version, CPU count,
platform and seed.

The host's speed drifts by up to twofold over seconds to minutes, with the
load other tenants put on it.  An untraced run therefore also times a fixed
reference job (probe.py) every 50 ms, and reports each time-based metric
both as measured and, with the suffix ``_norm``, scaled to the speed at which
the reference job takes its nominal time.  BENCHMARK.json bounds the scaled
forms; ``setup_s`` is scaled too, and ``setup_s_raw`` is as measured.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from layers import LAYER_TABLE, PER_LAYER, per_layer_metrics  # noqa: E402
from probe import NOMINAL_S, probe  # noqa: E402
from tracer import LAYERS, REFUSALS, Tracer  # noqa: E402
from workloads import WORKLOADS, WrongResult  # noqa: E402

# An op that returns a verdict within this limit counts as decided in time;
# ROADMAP item 3 states its target against it.
LIMIT_S = 0.5
SETUP_REPS = 9
# A percentile is reported only with ten samples beyond it, so the median needs 20.
MIN_SAMPLES = 20
# The reference job runs this often during an untraced run (see HostSpeed).
PROBE_EVERY_S = 0.05
PROBE_SPAN = 5

# (metric, unit): the end-to-end metrics BENCHMARK.json lists.  The run also
# prints p90, p99, max and failed_ratio; they are not bounded because they
# are either missing on the workloads with few ops or zero on most workloads.
# Time-based metrics are bounded in their ``_norm`` form, scaled to the
# reference job's nominal speed (see probe.py); the run prints both forms.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s_norm", "1/s"),
    ("op_ms_p50_norm", "ms"),
    ("decided_in_limit_ratio_norm", "ratio"),
    ("peak_rss_mb", "MB"),
)


def load_library():
    """Import tsr from src/ afresh, discarding any copy already imported."""
    for name in [n for n in sys.modules if n == "tsr" or n.startswith("tsr.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    lib = SimpleNamespace(**{
        layer: importlib.import_module(f"tsr.{layer}") for layer in LAYERS + ("errors",)
    })
    if Path(lib.records.__file__).resolve().parent != SRC / "tsr":
        raise SystemExit(f"perfbench: imported tsr from {lib.records.__file__}, not {SRC}")
    return lib


def cache_clearers(lib):
    """cache_clear of every memoised tsr function.

    Each op starts cold, as a new ``tsr`` process or a new fuzz trial does;
    otherwise every pass after the first would find the entries of the last.
    """
    found = {}
    for module in vars(lib).values():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj.cache_clear
    return list(found.values())


class HostSpeed:
    """Times the reference job every PROBE_EVERY_S of a run, from a timer signal.

    The probe runs wherever the run is, inside an op or between two, so a
    long op is probed while it runs.  ``adjust`` takes each probe's time out
    of the op it interrupted.
    """

    def __init__(self):
        self.probes = []  # (start, seconds), in time order

    def _tick(self, signum, frame):
        start = perf_counter()
        self.probes.append((start, probe()))

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        # One more, so that even the last op and a run shorter than
        # PROBE_EVERY_S have a probe after them.
        self._tick(None, None)

    def adjust(self, samples):
        """[(start, elapsed, error)] to [(seconds, error, scale)].

        ``seconds`` leaves out the probes inside the op.  ``scale`` brings it
        to nominal host speed: NOMINAL_S over the median of the probes taken
        during the op and the PROBE_SPAN on each side of it, since one probe
        alone can read a third too slow.
        """
        starts = [t for t, _ in self.probes]
        times = [d for _, d in self.probes]
        out = []
        for start, elapsed, error in samples:
            lo = bisect.bisect_left(starts, start)
            hi = bisect.bisect_left(starts, start + elapsed)
            near = times[max(0, lo - PROBE_SPAN):hi + PROBE_SPAN]
            out.append((elapsed - sum(times[lo:hi]), error, NOMINAL_S / statistics.median(near)))
        return out


def run_pass(wl, lib, items, state, clear, refusals, tracer=None):
    """Run every item once; returns [(start, seconds, refusal reason or None)].

    A refusal is kept as its reason only: the exception's traceback would
    keep the refused op's machines alive for the rest of the run.
    """
    samples = []
    for item in items:
        for fn in clear:
            fn()
        if tracer is not None:
            tracer.begin_op()
        start = perf_counter()
        try:
            result, error = wl.run(lib, item), None
        except refusals as e:
            result, error = None, e
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        wl.check(lib, item, result, error, state)
        samples.append((start, elapsed, None if error is None else reason(error)))
    # Collect the pass's cyclic garbage, so that every pass starts from the
    # same heap and peak RSS does not depend on how many passes ran.
    gc.collect()
    return samples


def percentile(sorted_values, q):
    """Nearest-rank percentile, or None without ten samples beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted_values[rank - 1]


def reason(error):
    return f"{type(error).__name__}: {str(error).split(';')[0]}"


def end_to_end(passes, setup_s, speed):
    """Every end-to-end metric: {name: (value, unit, samples)}.

    The op-time-based ones come twice: as measured, and with the suffix
    ``_norm`` from op times scaled to nominal host speed.  ``setup_s`` is
    scaled the same way; ``setup_s_raw`` is as measured.
    """
    samples = [s for p in passes for s in p]
    errors = [e for _, e, _ in samples if e is not None]
    n = len(samples)
    report = {"setup_s_raw": (setup_s[0], "s", SETUP_REPS), "setup_s": (setup_s[1], "s", SETUP_REPS)}
    for suffix, time_of in (("", lambda s: s[0]), ("_norm", lambda s: s[0] * s[2])):
        ms = sorted(time_of(s) * 1000.0 for s in samples)
        report["ops_per_s" + suffix] = (
            statistics.median(len(p) / sum(map(time_of, p)) for p in passes), "1/s", n
        )
        # The median of each item's median over the passes: every pass runs
        # the same items, and one item's slow pass cannot move it.  The run
        # makes at least MIN_SAMPLES samples, so ten lie beyond it.
        report["op_ms_p50" + suffix] = (
            1000.0 * statistics.median(
                statistics.median(map(time_of, runs)) for runs in zip(*passes)
            ),
            "ms", n,
        )
        for name, q in (("op_ms_p90", 0.9), ("op_ms_p99", 0.99)):
            value = percentile(ms, q)
            if value is not None:
                report[name + suffix] = (value, "ms", n)
        report["op_ms_max" + suffix] = (ms[-1], "ms", n)
        decided = sum(1 for s in samples if s[1] is None and time_of(s) <= LIMIT_S)
        report["decided_in_limit_ratio" + suffix] = (decided / n, "ratio", n)
    report["failed_ratio"] = (len(errors) / n, "ratio", n)
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    probes = [d for _, d in speed.probes]
    report["host_speed"] = (NOMINAL_S / statistics.median(probes), "ratio", len(probes))
    by_reason = Counter(errors)
    return report, n, len(errors), by_reason


def metadata(args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env, timeout=30,
            capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
    }


def run_workload(args, workdir):
    wl = WORKLOADS[args.workload]()
    setups = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPS):
            if workdir.exists():
                shutil.rmtree(workdir)
            workdir.mkdir(parents=True)
            start = perf_counter()
            lib = load_library()
            items = wl.setup(lib, args.seed, str(workdir))
            setups.append((start, perf_counter() - start, None))
    setups = speed.adjust(setups)
    # (as measured, at nominal host speed), each the median of SETUP_REPS
    setup_s = (statistics.median(t for t, _, _ in setups),
               statistics.median(t * k for t, _, k in setups))
    clear = cache_clearers(lib)
    refusals = tuple(getattr(lib.errors, name) for name in REFUSALS)
    state = {}

    def one_pass(tracer=None):
        return run_pass(wl, lib, items, state, clear, refusals, tracer)

    start = perf_counter()
    if not args.trace:
        passes = []
        with HostSpeed() as speed:
            while (not passes or perf_counter() - start < args.seconds
                   or sum(map(len, passes)) < MIN_SAMPLES):
                passes.append(one_pass())
        passes = [speed.adjust(p) for p in passes]
        report, attempted, failed, by_reason = end_to_end(passes, setup_s, speed)
        print(f"# passes: {len(passes)} of {len(items)} ops; ops_per_s_norm by pass: "
              + " ".join(f"{len(p) / sum(t * k for t, _, k in p):.4g}" for p in passes))
        for name, (value, unit, n) in report.items():
            print(f"# {name} = {value:.6g} {unit} (n={n})")
        print(f"# failed_by_reason: {json.dumps(dict(sorted(by_reason.items())))}")
        print(f"# outcomes: {json.dumps(wl.summary(state), sort_keys=True)}")
        metrics = {name: {"value": report[name][0], "unit": unit} for name, unit in END_TO_END}
        return attempted, failed, metrics

    # A first pass, not counted, so that neither side of the ratio runs cold.
    one_pass()
    plain, traced = [], []
    while not traced or perf_counter() - start < args.seconds:
        plain.append(one_pass())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append((one_pass(tracer), tracer.snapshot()))
        finally:
            tracer.uninstall()
    live = getattr(wl, "live", {})
    live_states = sum(v[0] for v in live.values())
    complement_states = sum(v[1] for v in live.values())
    per_pass = [per_layer_metrics(stats, live_states, complement_states) for _, stats in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    op_time = lambda p: sum(s[1] for s in p)  # noqa: E731
    values["trace.overhead_ratio"] = (
        statistics.median(op_time(p) for p, _ in traced) / statistics.median(map(op_time, plain))
    )
    print(f"# traced passes: {len(traced)}, untraced passes: {len(plain)}, of {len(items)} ops")
    for name, unit in PER_LAYER:
        print(f"# {name} = {values[name]:.6g} {unit} (per pass)")
    for key, stats in sorted(traced[-1][1].items()):
        print(f"# fn {key}: calls={stats.get('calls', 0):.0f} self_s={stats.get('self_s', 0):.6g}")
    for group, moves, on, flat in LAYER_TABLE:
        print(f"# predicted: {group} -> {moves}; moves on {on}; flat on {flat}")
    samples = [s for p, _ in traced for s in p] + [s for p in plain for s in p]
    failed = sum(1 for s in samples if s[2] is not None)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    return len(samples), failed, metrics


def single(args):
    print("# run: " + json.dumps(metadata(args), sort_keys=True))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        attempted, failed, metrics = run_workload(args, workdir)
        correct = True
    except WrongResult as e:
        print(f"perfbench: wrong result: {e}", file=sys.stderr)
        # The run stops at the first op that fails its check.
        attempted, failed, metrics, correct = 1, 0, {}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload untraced and traced, then untraced at the held-out seed."""
    runs, status = [], 0
    plan = [(w, args.seed, 0) for w in WORKLOADS] + [(w, args.seed, 1) for w in WORKLOADS]
    plan += [(w, args.heldout_seed, 0) for w in WORKLOADS]
    for workload, seed, trace in plan:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        print(f"== {workload} seed={seed} trace={trace}", flush=True)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or not result or not result["correct"]:
            status = 1
        header = json.loads(lines[0][len("# run: "):]) if lines else {}
        runs.append({"run": header, "exit": proc.returncode, "result": result,
                     "report": [line[2:] for line in lines[1:-1]]})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print("== summary")
    for run in runs:
        r = run["result"] or {}
        shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in r.get("metrics", {}).items()
                          if k in dict(END_TO_END) or k == "trace.overhead_ratio")
        print(f"{run['run'].get('workload')} seed={run['run'].get('seed')} "
              f"trace={run['run'].get('trace')} exit={run['exit']} "
              f"correct={r.get('correct')} attempted={r.get('attempted')} "
              f"failed={r.get('failed')} {shown}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--heldout-seed", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all, write every run's report here")
    args = parser.parse_args(argv)
    if not (SRC / "tsr" / "__init__.py").is_file():
        print(f"perfbench: no tsr package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
