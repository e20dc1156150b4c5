"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each check appends one PASS/FAIL verdict line to RESULTS; the conftest
terminal-summary hook echoes them after the run. The benchmark instance
(5000 patients x 500 events, rank 10, ~2% density) and both sampler
variants are trained once in module-scoped fixtures and shared by the
bias, baseline-comparison, and runtime checks.
"""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from conftest import random_bipartite
from graphimpute import experiment
from graphimpute import model as model_mod
from graphimpute import training
from graphimpute.baselines import KnnConfig, knn_impute, frequency_baseline
from graphimpute.cli import main as cli_main
from graphimpute.dataset import (
    Dataset,
    SplitSpec,
    demographics_stats,
    filter_rare_events,
    generate_synthetic,
    split,
    standardize_demographics,
)
from graphimpute.evaluation import evaluate, recall_frequency_spearman
from graphimpute.graph import build
from graphimpute.model import ModelConfig, init_params
from graphimpute.sampler import sample_invisible, sample_negative_degree_preserving
from graphimpute.seeding import substream_seed
from graphimpute.training import TrainConfig, backward, balanced_bce, loss_forward

RESULTS: list[str] = []

# benchmark instance and the training configuration used on it
BENCH_DATA = dict(m=5000, n=500, rank=10, target_density=0.02, seed=101)
BENCH_SPLIT = SplitSpec(train_fraction=0.7, test_mask_fraction=0.3, min_event_frequency=0.001, seed=5)
BENCH_MODEL = dict(embedding_dim=32, num_layers=3, scorer_hidden=32)
BENCH_TRAIN = dict(learning_rate=0.02, mask_probability=0.3, epochs=500, warmup_epochs=100, seed=11)


def _verdict(label: str, ok: bool, detail: str) -> None:
    RESULTS.append(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def bench_split():
    ds, _ = generate_synthetic(
        BENCH_DATA["m"], BENCH_DATA["n"], BENCH_DATA["rank"],
        BENCH_DATA["target_density"], seed=BENCH_DATA["seed"],
    )
    filtered, emap = filter_rare_events(ds, BENCH_SPLIT.min_event_frequency)
    return split(filtered, BENCH_SPLIT, event_index_map=emap)


@pytest.fixture(scope="module")
def bench_runs(bench_split):
    """Both sampler variants trained on the benchmark; reports at cutoff 0.5."""
    runs = {}
    mc = ModelConfig(**BENCH_MODEL)
    for version, sampler in (("degree_preserving", "degree_preserving"), ("uniform", "uniform")):
        tc = TrainConfig(negative_sampler=sampler, **BENCH_TRAIN)
        t0 = time.perf_counter()
        state = training.fit(bench_split.train, mc, tc)
        wall = time.perf_counter() - t0
        grid = experiment.score_test_grid(state.params, bench_split.train, bench_split.test_visible)
        report = experiment.evaluate_grid(grid, bench_split, "fixed")
        runs[version] = {"state": state, "grid": grid, "report": report, "wall": wall}
    return runs


def _gradient_instance():
    # the full graph is these visible edges plus the hidden ones
    g_vis = build(np.array([[0, 0], [1, 1], [1, 3], [2, 4], [3, 0], [3, 1], [4, 2]]), 6, 5)
    hidden = np.array([[0, 2], [2, 3], [5, 4]])
    negatives = np.array([[0, 4], [2, 0], [5, 1]])
    demo = np.random.default_rng(5).normal(size=(6, 2))
    config = ModelConfig(embedding_dim=4, num_layers=3, scorer_hidden=3)
    params = init_params(config, num_events=5, seed=6)
    return params, g_vis, demo, hidden, negatives


def test_every_gradient_matches_central_differences():
    t0 = time.perf_counter()
    params, g, demo, pos, neg = _gradient_instance()
    _, grads = backward(params, g, demo, pos, neg)
    h = 1e-5
    worst = 0.0
    for name, tensor in params.named_tensors():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_forward(params, g, demo, pos, neg)
            flat[idx] = orig - h
            down = loss_forward(params, g, demo, pos, neg)
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(gflat[idx]))
            if denom > 1e-10:
                worst = max(worst, abs(gflat[idx] - fd) / denom)
    elapsed = time.perf_counter() - t0
    _verdict(
        "acceptance 1 gradient correctness",
        worst <= 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_negative_sampler_marginals_across_seeds():
    t0 = time.perf_counter()
    m, n = 500, 200
    exact = 0
    for r in range(100):
        rng = np.random.default_rng(9000 + r)
        g = build(random_bipartite(rng, m, n, 0.03), m, n)
        inv, _ = sample_invisible(g, 0.2, seed=int(rng.integers(2**31)))
        neg, relaxed, gap = sample_negative_degree_preserving(g, inv, seed=int(rng.integers(2**31)))
        assert not g.contains_pairs(neg).any()
        assert np.array_equal(
            np.bincount(inv[:, 0], minlength=m), np.bincount(neg[:, 0], minlength=m)
        )
        if not relaxed and gap == 0:
            exact += 1
        else:
            assert gap <= 2, f"run {r}: event marginal L1 gap {gap}"
    elapsed = time.perf_counter() - t0
    _verdict(
        "acceptance 2 sampler marginals",
        exact >= 95 and elapsed < 60.0,
        f"exact event marginals {exact}/100, {elapsed:.1f}s",
    )


def _memorization_instance():
    rng = np.random.default_rng(42)
    grid = rng.random((20, 10)) < 0.25
    for i in range(20):
        if not grid[i].any():
            grid[i, rng.integers(10)] = True
        while grid[i].sum() > 5:
            on = np.flatnonzero(grid[i])
            grid[i, rng.choice(on)] = False
    pairs = np.argwhere(grid).astype(np.int64)
    demo = np.column_stack([rng.normal(50, 10, 20), rng.integers(0, 2, 20)]).astype(np.float64)
    return Dataset(20, 10, pairs, demo)


def test_loss_anchor_and_memorization():
    half = np.full(6, 0.5)
    anchor_err = abs(balanced_bce(half, half) - math.log(2.0))

    ds = _memorization_instance()
    mc = ModelConfig(embedding_dim=16, num_layers=3, scorer_hidden=32)
    tc = TrainConfig(learning_rate=0.02, epochs=2000, seed=0, warmup_epochs=20)
    graph = build(ds.positives, ds.num_patients, ds.num_events)
    demo = standardize_demographics(ds.demographics, demographics_stats(ds.demographics))
    emb = model_mod.init_event_embeddings_svd(ds, 16, seed=substream_seed(tc.seed, "svd-init"))
    params = init_params(mc, ds.num_events, substream_seed(tc.seed, "weight-init"), event_embeddings=emb)
    state = training.init_train_state(params)
    # memorize one mask: epoch 0's hidden edges every epoch, fresh negatives
    batch = training.sample_epoch_batch(graph, tc, 0)
    g_visible = build(batch.visible, ds.num_patients, ds.num_events)
    reached = None
    for epoch in range(tc.epochs):
        neg_seed = substream_seed(tc.seed, "negatives", epoch)
        negatives = sample_negative_degree_preserving(graph, batch.invisible, neg_seed)[0]
        loss, grads = backward(state.params, g_visible, demo, batch.invisible, negatives)
        training.adam_update(state, grads, tc)
        if loss < 0.05:
            reached = epoch
            break
    _verdict(
        "acceptance 3 loss anchors",
        anchor_err <= 1e-9 and reached is not None,
        f"ln2 err {anchor_err:.1e}, memorized at iteration {reached}",
    )


def test_uniform_sampling_recall_tracks_frequency(bench_runs):
    rho_uniform = recall_frequency_spearman(bench_runs["uniform"]["report"])
    rho_balanced = recall_frequency_spearman(bench_runs["degree_preserving"]["report"])
    walls = [bench_runs[k]["wall"] for k in ("uniform", "degree_preserving")]
    _verdict(
        "acceptance 4 sampling bias contrast",
        rho_uniform - rho_balanced >= 0.2 and max(walls) <= 600.0,
        f"spearman uniform {rho_uniform:.3f} vs balanced {rho_balanced:.3f}, "
        f"trainings {walls[0]:.0f}s/{walls[1]:.0f}s",
    )


def test_graph_model_beats_baselines_with_balanced_errors(bench_runs, bench_split):
    report = bench_runs["degree_preserving"]["report"]
    s = report.summary()
    bal = s["balanced_accuracy"]["mean"]
    gap = abs(s["sensitivity"]["mean"] - s["specificity"]["mean"])

    tv = bench_split.test_visible
    knn_grid = knn_impute(bench_split.train, tv.positives, tv.num_patients, KnnConfig())
    knn_bal = experiment.evaluate_grid(knn_grid, bench_split, "fixed").summary()["balanced_accuracy"]["mean"]
    freq_grid = frequency_baseline(bench_split.train, num_test_patients=tv.num_patients)
    freq_bal = experiment.evaluate_grid(freq_grid, bench_split, "fixed").summary()["balanced_accuracy"]["mean"]

    _verdict(
        "acceptance 5 baseline comparison",
        bal >= knn_bal + 0.05 and bal >= freq_bal + 0.05 and gap <= 0.15,
        f"graph {bal:.3f} vs knn {knn_bal:.3f} / frequency {freq_bal:.3f}, sens-spec gap {gap:.3f}",
    )


def _dense_rows(pairs, num_rows, num_cols):
    out = np.zeros((num_rows, num_cols), dtype=bool)
    out[pairs[:, 0], pairs[:, 1]] = True
    return out


def _brute_force_knn(train_bool, query_bool, k):
    """Score grid of k-NN voting under the Jaccard distance, ties to the lower train index."""
    m = train_bool.shape[0]
    scores = np.empty((query_bool.shape[0], train_bool.shape[1]))
    for qi, q in enumerate(query_bool):
        dists = []
        for ti in range(m):
            t = train_bool[ti]
            union = np.count_nonzero(q | t)
            d = 0.0 if union == 0 else np.count_nonzero(q != t) / union
            dists.append((d, ti))
        dists.sort()
        nearest = [ti for _, ti in dists[:k]]
        scores[qi] = train_bool[nearest].mean(axis=0)
    return scores


def test_knn_matches_brute_force_exactly():
    rng = np.random.default_rng(33)
    m, n, t = 50, 30, 20
    train = Dataset(m, n, random_bipartite(rng, m, n, 0.15), rng.normal(size=(m, 2)))
    query_pairs = random_bipartite(rng, t, n, 0.15)
    cfg = KnnConfig()
    got = knn_impute(train, query_pairs, t, cfg)
    train_bool = _dense_rows(train.positives, m, n)
    query_bool = _dense_rows(query_pairs, t, n)
    expected = _brute_force_knn(train_bool, query_bool, cfg.k_neighbors)
    same = np.array_equal(got, expected)
    _verdict("acceptance 6 knn oracle", same, f"all {t}x{n} scores identical: {same}")


def test_confusion_matrix_worked_example():
    # three patients, one event: scores 0.9 / 0.4 / 0.6, held-out positive at 0.9
    scores = np.array([[0.9], [0.4], [0.6]])
    report = evaluate(
        scores,
        visible=np.empty((0, 2), dtype=np.int64),
        heldout=np.array([[0, 0]]),
        train_frequencies=np.array([0.5]),
        cutoff_policy="fixed",
    )
    got = (int(report.tp[0]), int(report.fn[0]), int(report.tn[0]), int(report.fp[0]),
           float(report.sensitivity[0]), float(report.specificity[0]), float(report.balanced_accuracy[0]))
    expected = (1, 0, 1, 1, 1.0, 0.5, 0.75)
    _verdict("acceptance 7 metric oracle", got == expected, f"(tp,fn,tn,fp,sens,spec,bal) = {got}")


def _pipeline_run(tmp_path, tag):
    cfg = {
        "seed": 7,
        "data": {"synthetic": {"num_patients": 120, "num_events": 30, "rank": 3, "target_density": 0.08}},
        "split": {"min_event_frequency": 0.01},
        "model": {"embedding_dim": 8, "num_layers": 2, "scorer_hidden": 4},
        "train": {"epochs": 50},
        "knn": {"k_neighbors": 5},
    }
    cfg_path = tmp_path / f"config_{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    train_dir = tmp_path / f"train_{tag}"
    eval_dir = tmp_path / f"eval_{tag}"
    assert cli_main([
        "train", "--config", str(cfg_path), "--run-dir", str(train_dir), "--deterministic",
    ]) == 0
    assert cli_main([
        "evaluate", "--config", str(cfg_path), "--run-dir", str(eval_dir),
        "--checkpoint", str(train_dir / "checkpoint.npz"), "--deterministic",
    ]) == 0
    return train_dir, eval_dir


def test_train_evaluate_reruns_are_byte_identical(tmp_path):
    # every file that the train and evaluate manifests list is compared;
    # telemetry.json holds the clocks and is listed by neither
    runs = {tag: _pipeline_run(tmp_path, tag) for tag in "ab"}
    listed = [
        (step, name)
        for step, manifest in enumerate(("manifest.json", "evaluate_manifest.json"))
        for name in json.loads((runs["a"][step] / manifest).read_text())["files"]
    ]
    compared_before = {
        "evaluate_manifest.json",
        "graph_fixed_per_event.csv",
        "graph_fixed_summary.json",
        "graph_train_frequency_per_event.csv",
        "graph_train_frequency_summary.json",
    }
    assert compared_before <= {name for step, name in listed if step == 1}
    # the split facts are the train manifest's `split` record, not a file of
    # their own, so they are compared with it
    assert {"checkpoint.npz", "manifest.json", "training_log.csv"} <= {
        name for step, name in listed if step == 0
    }
    assert "split" in json.loads((runs["a"][0] / "manifest.json").read_text())
    assert all((run_dir / "telemetry.json").exists() for run_dir in runs["a"])
    assert "telemetry.json" not in {name for _, name in listed}
    identical = [
        name for step, name in listed
        if filecmp.cmp(runs["a"][step] / name, runs["b"][step] / name, shallow=False)
    ]
    _verdict(
        "acceptance 8 determinism",
        len(listed) >= 8 and len(identical) == len(listed),
        f"{len(identical)}/{len(listed)} artifacts byte-identical",
    )


def test_benchmark_runtime_and_scoring_throughput(bench_split):
    mc = ModelConfig(**BENCH_MODEL)
    tc = TrainConfig(**{**BENCH_TRAIN, "epochs": 200})
    t0 = time.perf_counter()
    state = training.fit(bench_split.train, mc, tc)
    t_score = time.perf_counter()
    grid = experiment.score_test_grid(state.params, bench_split.train, bench_split.test_visible)
    t_eval = time.perf_counter()
    experiment.evaluate_grid(grid, bench_split, "fixed").summary()
    total = time.perf_counter() - t0
    throughput = grid.size / (t_eval - t_score)
    _verdict(
        "acceptance 9 scale sanity",
        total < 600.0 and throughput >= 1e6,
        f"train+eval {total:.0f}s, {throughput:.2e} scores/s",
    )
