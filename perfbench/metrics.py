"""Turning a workload's steps, counts and spans into named metrics.

End-to-end metrics come from untraced steps. A step is one epoch on the fit
workloads and one graph-imputer job on impute. Per-layer metrics come from
the traced steps of the same run. Epoch-level layers (sampler, training and
the model's training forward) are read from the timed epochs on fit-*, and
from the set-up's training epochs on impute, whose timed loop never trains.
Job-level layers (inductive scoring, evaluation, baselines) are read from the
timed jobs on impute, and from the imputation jobs that check the fitted
model after the loop on fit-*. Layer shares and the tracing overhead and
coverage are over the timed loop. Coverage is the share of a step's wall time
that named layers explain: the self time of every span except the step's
outermost one (`train_epoch` for an epoch, `run_evaluate` for a job), whose
self time is whatever no boundary inside it accounts for.

Why the bounded step metric is a ratio to a reference kernel: on a shared
2-vCPU KVM guest (Intel Xeon, family 6, model 143), execution speed moves
between levels up to ~1.7x apart, for seconds at a time, and often stays at
one level for a whole run. A fixed numpy kernel shows the same levels, with
CPU time equal to wall time, so it is contention from other tenants, not
steal. No statistic of raw step times inside one run removes a run-long slow
phase: over ten seeds of 45 s runs the fastest step spread by 0.07 to 0.20
(IQR over median) and the median step by up to 0.27. So a fixed kernel
(`workloads.Reference`, 6 to 9 ms) runs just before each timed step, and the
bounded metric is the median over steps of the step's time over that
kernel's time, which cancels the host's speed at that moment: over the same
ten-seed sets it spread by 0.04 to 0.09 (perfbench/BASELINE.md). A
change to the program moves the ratio as it moves the step; only a change
that alters the kernel's own speed (process-wide BLAS or numpy settings)
would also move the reference. The raw times are printed beside it: the
reference's median time (the host's speed during the run), the fastest and
median step, the tail (p80, the highest of p50/p80/p90 with at least ten
samples beyond it on every workload) and mean throughput, each with its
sample count. The k-NN job time is a plain median: impute runs only a few
k-NN jobs, too few for a percentile with ten samples beyond it.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import span_totals

# Bounded metrics, listed in BENCHMARK.json, as (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("step_ref_ratio_p50", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded beside them.
ALSO_MEASURED = (
    ("ref_ms_p50", "ms"),
    ("step_ms_min", "ms"),
    ("step_ms_p50", "ms"),
    ("step_ms_p80", "ms"),
    ("steps_per_s", "1/s"),
    ("scores_per_s", "1/s"),
    ("knn_ms_median", "ms"),
    ("error_rate", "ratio"),
)

LAYERS = ("sampler", "graph", "model", "training", "experiment", "evaluation", "baselines")

PER_LAYER = (
    ("dataset.generate_s", "s"),
    ("dataset.split_s", "s"),
    ("sampler.mask_ms", "ms"),
    ("sampler.negatives_ms", "ms"),
    ("sampler.negatives_per_s", "1/s"),
    ("sampler.relaxed_share", "ratio"),
    ("sampler.event_gap_mean", "count"),
    ("sampler.hidden_edges", "count"),
    ("sampler.negatives", "count"),
    ("graph.build_ms", "ms"),
    ("graph.edges", "count"),
    ("model.forward_ms", "ms"),
    ("model.score_edges_ms", "ms"),
    ("model.forward_gflop", "GFLOP"),
    ("model.forward_gflops", "GFLOP/s"),
    ("model.svd_init_ms", "ms"),
    ("model.message_pass_ms", "ms"),
    ("model.score_grid_ms", "ms"),
    ("training.backward_ms", "ms"),
    ("training.backward_self_ms", "ms"),
    ("training.adam_ms", "ms"),
    ("training.batch_self_ms", "ms"),
    ("training.epoch_self_ms", "ms"),
    ("training.loss_first", "nat"),
    ("training.loss_last", "nat"),
    ("experiment.score_test_grid_self_ms", "ms"),
    ("experiment.run_evaluate_self_ms", "ms"),
    ("experiment.grid_cells", "count"),
    ("evaluation.evaluate_ms", "ms"),
    ("evaluation.write_ms", "ms"),
    ("baselines.knn_ms", "ms"),
    ("baselines.frequency_ms", "ms"),
    *((f"{layer}.share_pct", "%") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.missing", "count"),
    ("error_rate", "ratio"),
)

# The outermost span of a step, left out of coverage.
ROOTS = ("training.train_epoch", "experiment.run_evaluate")

NEGATIVE_SAMPLERS = ("sampler.sample_negative_degree_preserving", "sampler.sample_negative_uniform")


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def forward_flops(patients: int, events: int, edges: int, cfg) -> int:
    """Computed FLOPs of the encoder plus all message-passing rounds.

    Products count two FLOPs per multiply-add: the demographics encoder, two
    sparse neighbour means per round (one per side) and four dense d x d maps
    per round. Biases and rectifiers are not counted.
    """
    d = cfg.embedding_dim
    rounds = 2 * edges * d * 2 + 2 * (patients + events) * d * d * 2
    return 2 * patients * cfg.demographics_dim * d + cfg.num_layers * rounds


def scorer_flops(pairs: int, cfg) -> int:
    """Computed FLOPs of the two-layer scorer on `pairs` (patient, event) pairs."""
    h = cfg.scorer_hidden
    return 2 * pairs * (2 * cfg.embedding_dim * h + h)


def grid_flops(patients: int, events: int, cfg) -> int:
    """Computed FLOPs of `score_grid`: the two half products, then per cell
    two broadcast adds and the hidden-to-logit product."""
    d, h = cfg.embedding_dim, cfg.scorer_hidden
    return 2 * (patients + events) * d * h + patients * events * 4 * h


def end_to_end(res, peak_rss_mb: float, failed: int) -> dict:
    """{name: (value, samples, unit)} from the untraced steps, END_TO_END
    first, then ALSO_MEASURED."""
    steps = [s for s in res.steps if not s.traced]
    walls = [s.wall for s in steps]
    busy = sum(walls)
    knn = [s.wall for s in res.jobs if s.kind == "knn" and not s.traced]
    refs = [s.ref for s in steps if s.ref > 0]
    ratios = [s.wall / s.ref for s in steps if s.ref > 0]
    values = {
        "setup_s": (median(res.setup_s), len(res.setup_s)),
        "step_ref_ratio_p50": (median(ratios), len(ratios)),
        "ref_ms_p50": (1e3 * median(refs), len(refs)),
        "step_ms_min": (1e3 * min(walls, default=0.0), len(walls)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "step_ms_p50": (1e3 * median(walls), len(walls)),
        "step_ms_p80": (1e3 * percentile(walls, 80), len(walls)),
        "steps_per_s": (len(walls) / busy if busy else 0.0, len(walls)),
        "scores_per_s": (sum(s.work for s in steps) / busy if busy else 0.0, len(walls)),
        "knn_ms_median": (1e3 * median(knn), len(knn)),
        "error_rate": (failed / res.attempted if res.attempted else 0.0, res.attempted),
    }
    return {name: (*values[name], unit) for name, unit in END_TO_END + ALSO_MEASURED}


class StepTotals:
    """Per-step span totals for a list of traced steps."""

    def __init__(self, steps, spans):
        self.steps = [s for s in steps if s.traced]
        self.totals = [span_totals(spans[s.lo : s.hi]) for s in self.steps]

    def ms(self, *names, own: bool = False) -> list[float]:
        """Per-step milliseconds in the named spans; self time with `own`."""
        col = 1 if own else 0
        return [
            1e3 * sum(t[name][col] for name in names if name in t) for t in self.totals
        ]

    def median_ms(self, *names, own: bool = False) -> float:
        return median(self.ms(*names, own=own))

    def layer_share(self, layer: str) -> float:
        wall = sum(s.wall for s in self.steps)
        own = sum(
            row[1] for t in self.totals for name, row in t.items() if name.split(".")[0] == layer
        )
        return 100.0 * own / wall if wall else 0.0

    def coverage(self) -> float:
        """Median share of a step's wall time in the self time of spans below its root."""
        return median(
            [
                100.0 * sum(row[1] for name, row in t.items() if name not in ROOTS) / s.wall
                for s, t in zip(self.steps, self.totals)
            ]
        )


def per_layer(res, workload: str, model_cfg, tracer, failed: int) -> dict:
    """{name: (value, samples, unit)} from the traced steps and set-up spans."""
    spans = tracer.spans
    impute = workload == "impute"
    primary = StepTotals(res.steps, spans)
    epochs = StepTotals(res.epochs, spans)
    loop = StepTotals(res.loop, spans)
    jobs = {
        kind: StepTotals([s for s in res.jobs if s.kind == kind], spans)
        for kind in ("graph", "knn", "frequency")
    }
    grid = jobs["graph"]

    def durations(name):
        return [end - start for n, start, end, _, _ in spans if n == name]

    split_s = [
        a + b for a, b in zip(durations("dataset.filter_rare_events"), durations("dataset.split"))
    ]
    neg_ms = epochs.ms(*NEGATIVE_SAMPLERS)
    negatives_drawn = sum(s.work // 2 for s in epochs.steps)  # work is 2k, k negatives
    c = res.counts
    if impute:
        gflop = (
            forward_flops(c["patients"], c["events"], c["inductive_edges"], model_cfg)
            + grid_flops(c["test_patients"], c["events"], model_cfg)
        ) / 1e9
        forward = grid.ms("model.encode_patients", "model.message_pass", "model.score_grid")
    else:
        gflop = (
            forward_flops(c["train_patients"], c["events"], c["visible_edges"], model_cfg)
            + scorer_flops(c["hidden_edges"] + c["negatives"], model_cfg)
        ) / 1e9
        forward = epochs.ms("model.forward_trace", "model.score_edges_raw")
    rows = res.rows
    untraced = [s.wall for s in res.steps if not s.traced]
    traced = [s.wall for s in res.steps if s.traced]
    values = {
        "dataset.generate_s": (median(durations("dataset.generate_synthetic")), len(split_s)),
        "dataset.split_s": (median(split_s), len(split_s)),
        "sampler.mask_ms": (epochs.median_ms("sampler.sample_invisible"), len(epochs.steps)),
        "sampler.negatives_ms": (median(neg_ms), len(neg_ms)),
        "sampler.negatives_per_s": (
            1e3 * negatives_drawn / sum(neg_ms) if sum(neg_ms) else 0.0,
            len(neg_ms),
        ),
        "sampler.relaxed_share": (
            sum(bool(r["relaxed"]) for r in rows) / len(rows) if rows else 0.0,
            len(rows),
        ),
        "sampler.event_gap_mean": (
            float(np.mean([r["event_marginal_l1_gap"] for r in rows])) if rows else 0.0,
            len(rows),
        ),
        "sampler.hidden_edges": (c["hidden_edges"], 1),
        "sampler.negatives": (c["negatives"], 1),
        "graph.build_ms": (primary.median_ms("graph.build"), len(primary.steps)),
        "graph.edges": (c["inductive_edges"] if impute else c["visible_edges"], 1),
        "model.forward_ms": (epochs.median_ms("model.forward_trace"), len(epochs.steps)),
        "model.score_edges_ms": (epochs.median_ms("model.score_edges_raw"), len(epochs.steps)),
        "model.forward_gflop": (gflop, 1),
        "model.forward_gflops": (1e3 * gflop / median(forward) if forward else 0.0, len(forward)),
        "model.svd_init_ms": (1e3 * median(durations("model.init_event_embeddings_svd")), len(split_s)),
        "model.message_pass_ms": (grid.median_ms("model.message_pass"), len(grid.steps)),
        "model.score_grid_ms": (grid.median_ms("model.score_grid"), len(grid.steps)),
        "training.backward_ms": (epochs.median_ms("training.backward"), len(epochs.steps)),
        "training.backward_self_ms": (
            epochs.median_ms("training.backward", own=True),
            len(epochs.steps),
        ),
        "training.adam_ms": (epochs.median_ms("training.adam_update"), len(epochs.steps)),
        "training.batch_self_ms": (
            epochs.median_ms("training.sample_epoch_batch", own=True),
            len(epochs.steps),
        ),
        "training.epoch_self_ms": (
            epochs.median_ms("training.train_epoch", own=True),
            len(epochs.steps),
        ),
        "training.loss_first": (res.loss_first, 1),
        "training.loss_last": (res.loss_last, 1),
        "experiment.score_test_grid_self_ms": (
            grid.median_ms("experiment.score_test_grid", own=True),
            len(grid.steps),
        ),
        "experiment.run_evaluate_self_ms": (
            grid.median_ms("experiment.run_evaluate", own=True),
            len(grid.steps),
        ),
        "experiment.grid_cells": (c["grid_cells"], 1),
        "evaluation.evaluate_ms": (grid.median_ms("evaluation.evaluate"), len(grid.steps)),
        "evaluation.write_ms": (
            grid.median_ms("evaluation.write_per_event_csv", "evaluation.write_summary_json"),
            len(grid.steps),
        ),
        "baselines.knn_ms": (jobs["knn"].median_ms("baselines.knn_impute"), len(jobs["knn"].steps)),
        "baselines.frequency_ms": (
            jobs["frequency"].median_ms("baselines.frequency_baseline"),
            len(jobs["frequency"].steps),
        ),
        **{
            f"{layer}.share_pct": (loop.layer_share(layer), len(loop.steps))
            for layer in LAYERS
        },
        "trace.overhead_pct": (
            100.0 * (median(traced) / median(untraced) - 1.0) if traced and untraced else 0.0,
            len(traced),
        ),
        "trace.coverage_pct": (primary.coverage(), len(primary.steps)),
        "trace.missing": (len(tracer.missing), len(tracer.missing)),
        "error_rate": (failed / res.attempted if res.attempted else 0.0, res.attempted),
    }
    return {name: (*values[name], unit) for name, unit in PER_LAYER}
