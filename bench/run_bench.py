"""Scale benchmark: one pass of the graphimpute pipeline at 50k x 2000.

    python3 bench/run_bench.py [--out bench]

Runs from the root of a source checkout and imports the package from its
`src/` directory. The instance has 50000 patients and 2000 events at rank 10
and density 0.02, so ~1.4M observed edges; the split, model and train settings
are the acceptance benchmark's, imported from `perfbench/workloads.py`. Each
stage runs once and is timed on its own, in this order:

- `generate_s`: `dataset.generate_synthetic`;
- `filter_split_s`: `dataset.filter_rare_events` and `dataset.split`;
- `fit_setup_s` and `epoch_s`: `training.fit` for 3 epochs, its set-up
  (graph build, SVD initialisation) apart from each epoch;
- `score_grid_s`: `experiment.score_test_grid` over the full test grid;
- `evaluate_s`: `experiment.evaluate_grid` under each cutoff policy;
- `knn_s`: one Jaccard k-NN job (k = 10) over the same test grid.

`experiment.StageTimer`, the timer behind each command's `telemetry.json`,
reads the process's peak RSS and minor page faults after every stage, so the
stage that sets the peak, and the stages that fault memory in, show. The peak
RSS right after the imports, before generation, is `import_peak_rss_mb`: the
footprint of the libraries the pipeline loads. BLAS is
pinned to one thread before numpy loads, and the pin is read back from the
OpenBLAS copies that numpy and scipy bundle (`perfbench/run.py:openblas`).
Before the scale instance, `perfbench/run.py --trace 1` runs once for each
of `fit-dp` and `impute` at the acceptance size (5000x500, seed 101, its
default 45 s), one process after the other, and the record keeps the final
JSON line of each (the per-layer metrics, such as `model.score_grid_ms`)
under `perfbench_trace`; a run that fails or is not correct fails the
benchmark. The record, with the git sha (`dirty` when tracked files differ
from HEAD) and library versions, goes to `<out>/BENCH_<sha>.json`. A run
takes about five minutes and under 1 GB; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import BLAS_ENV, git_sha, openblas  # noqa: E402

INSTANCE = dict(patients=50_000, events=2000, rank=10, density=0.02, seed=101)
EPOCHS = 3
TRACED_WORKLOADS = ("fit-dp", "impute")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path, default=ROOT / "bench", help="output directory")
    return parser.parse_args(argv)


def dirty() -> bool:
    """Whether tracked files differ from HEAD."""
    proc = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return proc.returncode == 0 and bool(proc.stdout.strip())


def traced_run(workload: str) -> dict | None:
    """The final JSON line of a traced perfbench run at the acceptance size,
    or None (with the reason on stderr) when the run fails or is not correct."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        print(f"error: traced {workload} run failed (exit {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    traces = {}
    for workload in TRACED_WORKLOADS:
        traces[workload] = traced_run(workload)
        if traces[workload] is None:
            return 1
        print(f"traced {workload} run recorded")
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    from graphimpute import baselines, dataset, evaluation, experiment, training
    from perfbench.workloads import MODEL, SPLIT, TRAIN

    threads, blas_config = openblas()
    if not threads:
        print("warning: could not read the OpenBLAS thread count back", file=sys.stderr)
    elif any(count != 1 for count in threads.values()):
        print(f"error: BLAS thread counts {threads}, expected 1", file=sys.stderr)
        return 2
    import_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'imports':<28} {'':>11}   peak RSS {import_peak_rss_mb:7.0f} MB")

    train_config = training.TrainConfig(epochs=EPOCHS, **TRAIN)
    stage = experiment.StageTimer()
    with stage("generate_s"):
        ds, truth = dataset.generate_synthetic(
            INSTANCE["patients"], INSTANCE["events"], INSTANCE["rank"], INSTANCE["density"],
            seed=INSTANCE["seed"],
        )
    with stage("filter_split_s"):
        filtered, event_map = dataset.filter_rare_events(ds, SPLIT.min_event_frequency)
        sd = dataset.split(filtered, SPLIT, event_index_map=event_map)
    rows = []
    with stage("fit_s"):
        state = training.fit(sd.train, MODEL, train_config, log=rows.append)
    with stage("score_grid_s"):
        grid = experiment.score_test_grid(state.params, sd.train, sd.test_visible)
    reports = {}
    for policy in evaluation.CUTOFF_POLICIES:
        with stage(f"evaluate_{policy}_s"):
            reports[policy] = experiment.evaluate_grid(grid, sd, policy)
    del grid
    knn = baselines.KnnConfig(k_neighbors=10)
    with stage("knn_s"):
        baselines.knn_impute(sd.train, sd.test_visible.positives, sd.test_visible.num_patients, knn)
    for name, rec in stage.items():
        print(f"{name:<28} {rec['seconds']:9.3f} s   peak RSS {rec['peak_rss_mb']:7.0f} MB"
              f"   minor faults {rec['minor_faults']:9d}")
    timings = {name: rec["seconds"] for name, rec in stage.items()}
    epoch_s = [row["wall_seconds"] for row in rows]
    timings["fit_setup_s"] = timings["fit_s"] - sum(epoch_s)

    sha = git_sha()
    record = {
        "git_sha": sha,
        "dirty": dirty(),
        "instance": INSTANCE,
        "split": dataclasses.asdict(SPLIT),
        "model": dataclasses.asdict(MODEL),
        "train": dataclasses.asdict(train_config),
        "knn": dataclasses.asdict(knn),
        "counts": {
            "truth_positives": len(truth),
            "observed_positives": len(ds.positives),
            "events_kept": sd.train.num_events,
            "train_patients": sd.train.num_patients,
            "test_patients": sd.test_visible.num_patients,
            "train_edges": len(sd.train.positives),
            "test_visible_edges": len(sd.test_visible.positives),
            "test_heldout_edges": len(sd.test_heldout),
            "test_grid_cells": sd.test_visible.num_patients * sd.train.num_events,
            "hidden_edges_per_epoch": [row["hidden_edges"] for row in rows],
        },
        "timings_s": {**timings, "epoch_s": epoch_s},
        "peak_rss_mb_after": {name: rec["peak_rss_mb"] for name, rec in stage.items()},
        "minor_faults_after": {name: rec["minor_faults"] for name, rec in stage.items()},
        "perfbench_trace": traces,
        "import_peak_rss_mb": import_peak_rss_mb,
        "peak_rss_mb": stage["knn_s"]["peak_rss_mb"],
        "losses": [row["loss"] for row in rows],
        "balanced_accuracy_mean": {
            p: r.summary()["balanced_accuracy"]["mean"] for p, r in reports.items()
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": blas_config,
        },
        "blas_threads": threads,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{(sha or 'nogit')[:12]}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"peak RSS {record['peak_rss_mb']:.0f} MB; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
