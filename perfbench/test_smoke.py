"""Self-tests of the benchmark, on its tiny smoke instance.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from metrics import StepTotals
from spans import Tracer, span_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def smoke(workload, trace, seed=7):
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


# fit-uniform is not in BENCHMARK.json, but run.py still runs it.
@pytest.mark.parametrize("workload", ["fit-dp", "fit-uniform", "impute"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    text, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace or m["unit"] in ("s", "ms"):
            assert got["value"] > 0, m["name"]
    # Every metric is printed by name, with its unit, before the JSON line.
    for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line for line in text.splitlines())
    if trace and workload.startswith("fit"):
        assert result["metrics"]["trace.coverage_pct"]["value"] >= 90.0


def test_counts_repeat_for_one_seed():
    exact = ("sampler.hidden_edges", "sampler.negatives", "graph.edges", "model.forward_gflop",
             "training.loss_first")
    runs = [smoke("fit-dp", 1, seed=11)[1]["metrics"] for _ in range(2)]
    for name in exact:
        assert runs[0][name]["value"] == runs[1][name]["value"], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fit-dp", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_boundary_is_reported_not_fatal():
    def work():
        return 3

    modules = {
        name: types.SimpleNamespace() for name in ("training", "model", "experiment", "baselines")
    }
    modules["baselines"].knn_impute = work
    tracer = Tracer(modules)
    assert "training.backward" in tracer.missing
    assert "baselines.knn_impute" not in tracer.missing
    tracer.enable()
    assert modules["baselines"].knn_impute() == 3
    tracer.disable()
    assert modules["baselines"].knn_impute is work
    assert [s[0] for s in tracer.spans] == [f"{__name__}.work"]


def traced_epoch_coverage(backward_name):
    """Coverage of one traced epoch whose `train_epoch` spends most of its
    time in a callee bound as `training.<backward_name>`."""
    training = types.SimpleNamespace()

    def backward():
        time.sleep(0.05)

    def train_epoch():
        getattr(training, backward_name)()
        time.sleep(0.002)

    for fn in (backward, train_epoch):
        fn.__module__ = "graphimpute.training"
    setattr(training, backward_name, backward)
    training.train_epoch = train_epoch
    modules = {name: types.SimpleNamespace() for name in ("model", "experiment", "baselines")}
    tracer = Tracer({"training": training, **modules})
    tracer.enable()
    start = time.perf_counter()
    training.train_epoch()
    wall = time.perf_counter() - start
    tracer.disable()
    step = types.SimpleNamespace(traced=True, wall=wall, lo=0, hi=len(tracer.spans))
    return StepTotals([step], tracer.spans).coverage()


def test_coverage_drops_when_a_boundary_is_renamed():
    # The root's own time is not coverage, so losing the boundary under it shows.
    assert traced_epoch_coverage("backward") >= 80.0
    assert traced_epoch_coverage("backward_renamed") < 1.0


def test_self_time_subtracts_direct_children():
    # parent 0..10 with children 1..3 and 4..8; grandchild 5..6 inside the second
    spans = [
        ("a.child", 1.0, 3.0, 1, 0),
        ("a.grand", 5.0, 6.0, 3, 2),
        ("b.child", 4.0, 8.0, 2, 0),
        ("a.root", 0.0, 10.0, 0, -1),
    ]
    totals = span_totals(spans)
    assert totals["a.root"] == (10.0, 4.0, 1)
    assert totals["b.child"] == (4.0, 3.0, 1)
    assert sum(row[1] for row in totals.values()) == 10.0
