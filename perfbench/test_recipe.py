"""Checks on the benchmark itself.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tsr  # noqa: E402
from tsr.congruence import GenParams, fuzz_congruence  # noqa: E402
from tsr.errors import SizeBoundError  # noqa: E402

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import run_trial, trial_outcome  # noqa: E402

LIB = SimpleNamespace(**{
    name: importlib.import_module(f"tsr.{name}") for name in LAYERS + ("errors",)
})


@pytest.mark.parametrize(
    "rel,seed,trials", [("ft", 1, 30), ("f", 1, 30), ("it", 1, 30), ("b", 3, 12)]
)
def test_trial_recipe_reproduces_fuzz_congruence(rel, seed, trials):
    report = fuzz_congruence(rel, GenParams(seed=seed), trials)
    counts = Counter()
    for t in range(trials):
        try:
            counts[trial_outcome(run_trial(LIB, rel, seed, t))] += 1
        except SizeBoundError:
            counts["vacuous"] += 1
    assert (counts["passed"], counts["vacuous"], counts["failed"]) == (
        report.passed, report.vacuous, report.failed
    )


def test_tracer_wraps_every_import_and_restores_it():
    original = LIB.records.comp
    tracer = Tracer()
    tracer.install()
    try:
        assert LIB.records.comp is not original
        assert LIB.join.comp is LIB.records.comp is tsr.comp
        tracer.begin_op()
        run_trial(LIB, "ft", 1, 1)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert LIB.records.comp is LIB.join.comp is tsr.comp is original
    stats = tracer.snapshot()
    assert stats["congruence.check_instance"]["calls"] == 1
    assert stats["records.check_token"]["calls"] > 0
    assert stats["join.join_lts"]["states_out"] > 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_host_speed_takes_probes_out_of_ops_and_scales_by_nearby_ones():
    speed = run.HostSpeed()
    nominal = run.NOMINAL_S
    # Probes at t = 0, 1, 2, 3 taking nominal, twice, twice and four times nominal.
    speed.probes = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 2 * nominal), (3.0, 4 * nominal)]
    (inside, _, scale_in), (between, error, _) = speed.adjust(
        [(0.5, 2.0, None), (3.5, 0.1, "SizeBoundError: bound")]
    )
    # The first op ran from 0.5 to 2.5 and holds the probes at 1 and 2.
    assert inside == pytest.approx(2.0 - 4 * nominal)
    assert scale_in == pytest.approx(0.5)
    assert error == "SizeBoundError: bound"
    assert between == pytest.approx(0.1)
