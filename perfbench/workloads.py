"""The benchmark's workloads, each a closed loop from one client.

Every workload starts from the same set-up: generate the synthetic cohort
from the workload seed, drop rare events, split patients, then run `fit` for
its first WARMUP_EPOCHS epochs (initialisation, SVD event embeddings and the
first, slower epochs). The set-up is repeated SETUP_REPEATS times on the same
seed, so its time is a median and its counts and losses can be compared for
exact repeats.

- fit-dp, fit-uniform: `training.fit` keeps going after the warm-up; each
  timed step is one epoch, measured as the gap between consecutive calls of
  fit's per-epoch `log` callback. The loop ends by raising from `log`. After
  it, the fitted model and both baselines each run one imputation job on the
  test split, as an output check.
- impute: the set-up's trained parameters are scored by
  `experiment.run_evaluate(imputer="graph")` jobs; after the first graph job
  of every cycle one k-NN and one frequency job run. Each timed step is one
  graph job.

Just before each timed step a fixed reference kernel runs (`Reference`),
outside the step's time, so that each step can also be read against the
host's speed at that moment.

All timing is of public calls; the outputs of every step are checked here
and failures are counted, not raised.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from graphimpute import dataset, experiment, training
from graphimpute.dataset import SplitSpec, encode_pairs
from graphimpute.graph import build
from graphimpute.model import ModelConfig
from graphimpute.training import TrainConfig


@dataclass(frozen=True)
class Instance:
    patients: int
    events: int
    rank: int
    density: float


# The acceptance instance, model and train config (tests/test_acceptance.py).
ACCEPTANCE = Instance(patients=5000, events=500, rank=10, density=0.02)
SMOKE = Instance(patients=400, events=60, rank=4, density=0.05)
SPLIT = SplitSpec(train_fraction=0.7, test_mask_fraction=0.3, min_event_frequency=0.001, seed=5)
MODEL = ModelConfig(embedding_dim=32, num_layers=3, scorer_hidden=32)
TRAIN = dict(learning_rate=0.02, mask_probability=0.3, warmup_epochs=100, seed=11)

WARMUP_EPOCHS = 5
SETUP_REPEATS = 3
# fit is asked for more epochs than any run reaches; the loop stops by time.
OPEN_ENDED_EPOCHS = 10**6
# One cycle of impute jobs: graph, knn, frequency, then the rest graph. A
# k-NN job costs about three graph jobs, so one per cycle keeps baselines
# near a tenth of the loop and leaves most of it to timed graph jobs.
IMPUTE_CYCLE = ("graph", "knn", "frequency") + ("graph",) * 29

SAMPLERS = {"fit-dp": "degree_preserving", "fit-uniform": "uniform", "impute": "degree_preserving"}


class StopFit(Exception):
    """Raised from fit's log callback to end the timed loop."""


@dataclass
class Step:
    """One timed (or set-up) step: an epoch, or an imputation job."""

    kind: str
    wall: float
    traced: bool
    work: int  # pairs scored: hidden positives plus negatives, or grid cells
    lo: int  # span index range of the step
    hi: int
    ref: float = 0.0  # seconds of the reference kernel run just before; 0 if none


class Reference:
    """A fixed kernel whose time tracks the host's speed at the moment.

    It mixes what the program's steps spend their time on: interpreter-bound
    calls on small arrays, a pass over an 8 MB array and small matrix
    products. Its arrays are allocated once, so it faults in no pages.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.block = rng.standard_normal((64, 487, 32))
        self.out = np.empty_like(self.block)
        self.weights = rng.standard_normal(32)
        self.rows = np.empty(self.block.shape[:2])
        self.square = rng.standard_normal((64, 64))
        self.product = np.empty_like(self.square)
        self.small = [rng.standard_normal(50) for _ in range(20)]

    def __call__(self) -> float:
        """Seconds one run of the kernel takes."""
        t0 = time.perf_counter()
        np.add(self.block, 1.0, out=self.out)
        np.maximum(self.out, 0.0, out=self.out)
        np.matmul(self.out, self.weights, out=self.rows)
        for _ in range(50):
            np.matmul(self.square, self.square, out=self.product)
        for _ in range(60):
            for x in self.small:
                float(np.add(x, 1.0).sum())
        return time.perf_counter() - t0


@dataclass
class Context:
    """Everything one run needs; `tracer` is None unless the run is traced."""

    instance: Instance
    seed: int
    seconds: float
    out_dir: Path
    tracer: object = None
    problems: list = field(default_factory=list)
    failed: int = 0

    def fail(self, what: str, count: int = 1) -> None:
        """Record a failed check; `count` is how many steps it fails."""
        self.problems.append(what)
        self.failed += count

    def call(self, fn):
        """`fn`, recorded as a span while tracing is on."""
        if self.tracer is not None and self.tracer.active:
            return self.tracer.wrap(fn)
        return fn


@dataclass
class Result:
    setup_s: list  # seconds, one per set-up repeat
    steps: list  # the timed steps the end-to-end metrics come from
    loop: list  # every step of the timed loop
    epochs: list  # the epochs the epoch-level layer metrics come from
    jobs: list  # the imputation jobs the job-level layer metrics come from
    rows: list  # fit's per-epoch rows of those epochs
    counts: dict
    loss_first: float
    loss_last: float
    attempted: int


class EpochLog:
    """fit's `log` callback: stamps each epoch, optionally ends the loop.

    With `seconds` set, the first `warmup` epochs are set-up, later ones are
    timed, and tracing (if any) alternates epoch by epoch so traced and
    untraced epochs interleave. With `reference` set, it runs before each
    timed epoch; an epoch's time runs from the end of the callback before it
    to the start of its own, so it leaves the callback out.
    """

    def __init__(self, tracer=None, warmup: int = 0, seconds: float | None = None, reference=None):
        self.tracer = tracer
        self.warmup = warmup
        self.seconds = seconds
        self.reference = reference
        self.rows: list[dict] = []
        self.ends: list[float] = []  # callback entry: the epoch just ended
        self.starts: list[float] = []  # callback exit: the next epoch starts
        self.refs: list[float] = []
        self.marks: list[int] = []
        self.traced = [tracer is not None and tracer.active]
        self.setup_end: float | None = None

    def __call__(self, row: dict) -> None:
        now = time.perf_counter()
        self.rows.append(row)
        self.ends.append(now)
        self.marks.append(len(self.tracer.spans) if self.tracer else 0)
        done = len(self.rows)
        ref = 0.0
        if self.seconds is not None and done >= self.warmup:
            if done == self.warmup:
                self.setup_end = now
            elif now - self.setup_end >= self.seconds:
                raise StopFit
            if self.tracer is not None:
                if (done - self.warmup) % 2:
                    self.tracer.enable()
                else:
                    self.tracer.disable()
            if self.reference is not None:
                ref = self.reference()
        self.refs.append(ref)
        self.traced.append(self.tracer is not None and self.tracer.active)
        self.starts.append(time.perf_counter())

    def steps(self, first: int) -> list[Step]:
        """Steps for epochs from `first` on; epoch 0 has no start stamp."""
        return [
            Step(
                "epoch",
                self.ends[e] - self.starts[e - 1],
                self.traced[e],
                2 * self.rows[e]["hidden_edges"],
                self.marks[e - 1],
                self.marks[e],
                self.refs[e - 1],
            )
            for e in range(max(first, 1), len(self.rows))
        ]


def train_config(sampler: str, epochs: int) -> TrainConfig:
    return TrainConfig(negative_sampler=sampler, epochs=epochs, **TRAIN)


def prepare(ctx: Context):
    """Generate, filter and split the workload's cohort."""
    inst = ctx.instance
    ds, _ = ctx.call(dataset.generate_synthetic)(
        inst.patients, inst.events, inst.rank, inst.density, seed=ctx.seed
    )
    filtered, event_map = ctx.call(dataset.filter_rare_events)(ds, SPLIT.min_event_frequency)
    return ctx.call(dataset.split)(filtered, SPLIT, event_index_map=event_map)


def fingerprint(sd, rows) -> tuple:
    """Sizes and warm-up epoch rows that must repeat exactly for one seed."""
    return (
        sd.train.num_patients,
        sd.train.num_events,
        len(sd.train.positives),
        len(sd.test_visible.positives),
        len(sd.test_heldout),
        tuple(
            (r["loss"], r["hidden_edges"], r["relaxed"], r["event_marginal_l1_gap"])
            for r in rows[:WARMUP_EPOCHS]
        ),
    )


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def instance_counts(sd) -> dict:
    return {
        "patients": sd.train.num_patients + sd.test_visible.num_patients,
        "train_patients": sd.train.num_patients,
        "test_patients": sd.test_visible.num_patients,
        "events": sd.train.num_events,
        "train_edges": len(sd.train.positives),
        "test_visible_edges": len(sd.test_visible.positives),
        "test_heldout_edges": len(sd.test_heldout),
    }


def check_losses(ctx: Context, rows) -> None:
    bad = [r["epoch"] for r in rows if not np.isfinite(r["loss"])]
    if bad:
        ctx.fail(f"non-finite loss at epochs {bad[:5]}", len(bad))


def check_repeats(ctx: Context, prints) -> None:
    if any(p != prints[0] for p in prints[1:]):
        ctx.fail("set-up repeats of one seed differ in sizes, counts or losses")


def redraw_batches(ctx: Context, sd, sampler: str, rows) -> list:
    """Redraw a few epochs' batches and validate them against the full graph."""
    graph = build(sd.train.positives, sd.train.num_patients, sd.train.num_events)
    tc = train_config(sampler, len(rows))
    batches = []
    for epoch in sorted({0, 1, len(rows) - 1}):
        batch = training.sample_epoch_batch(graph, tc, epoch)
        problem = batch_problem(batch, graph, sampler)
        if problem:
            ctx.fail(f"epoch {epoch} batch invalid: {problem}")
        row = rows[epoch]
        if (len(batch.invisible), batch.relaxed, batch.event_marginal_l1_gap) != (
            row["hidden_edges"],
            row["relaxed"],
            row["event_marginal_l1_gap"],
        ):
            ctx.fail(f"epoch {epoch} redrawn batch differs from the logged one")
        batches.append(batch)
    return batches


def batch_problem(batch, graph, sampler: str) -> str | None:
    """`EdgeBatch.validate` for degree-preserving batches. Uniform negatives
    do not keep marginals, so those batches get validate's other checks."""
    if sampler == "degree_preserving":
        try:
            batch.validate(graph)
        except ValueError as exc:
            return str(exc)
        return None
    n = graph.num_events
    visible = encode_pairs(batch.visible, n)
    hidden = encode_pairs(batch.invisible, n)
    negative = encode_pairs(batch.negative, n)
    if not np.array_equal(np.sort(np.concatenate([visible, hidden])), graph.edge_codes()):
        return "visible and invisible do not partition the edge set"
    if len(negative) != len(hidden) or len(np.unique(negative)) != len(negative):
        return "negatives are not distinct or not as many as the hidden edges"
    if np.any(graph.contains_pairs(batch.negative)):
        return "negative set intersects the positive edges"
    if batch.relaxed or batch.event_marginal_l1_gap:
        return "uniform batch reports a relaxation"
    return None


def epoch_counts(batch) -> dict:
    return {
        "hidden_edges": len(batch.invisible),
        "negatives": len(batch.negative),
        "visible_edges": len(batch.visible),
    }


class Capture:
    """Stands in for a module-level function, within a `with` block, and
    keeps the last value it returned."""

    def __init__(self, module, name: str):
        self.module = module
        self.name = name
        self.original = getattr(module, name)
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.original(*args, **kwargs)
        return self.last

    def __enter__(self):
        setattr(self.module, self.name, self)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)


class Jobs:
    """Runs `experiment.run_evaluate` jobs on one split and checks each one.

    The score grid is not returned by run_evaluate, so it is taken from
    `experiment.imputer_score_grid` while the runner is open.
    """

    def __init__(self, ctx: Context, sd, params):
        inst = ctx.instance
        self.ctx = ctx
        self.sd = sd
        self.params = params
        self.cfg = experiment.parse_config(
            {
                "seed": ctx.seed,
                "data": {
                    "synthetic": {
                        "num_patients": inst.patients,
                        "num_events": inst.events,
                        "rank": inst.rank,
                        "target_density": inst.density,
                    }
                },
                "split": {k: v for k, v in asdict(SPLIT).items() if k != "seed"},
                "model": asdict(MODEL),
            }
        )
        self.cells = sd.test_visible.num_patients * sd.train.num_events
        self.dir = ctx.out_dir / f"jobs-{os.getpid()}"
        self.grid = Capture(experiment, "imputer_score_grid")
        self.ref = {}

    def __enter__(self):
        self.grid.__enter__()
        return self

    def __exit__(self, *exc):
        self.grid.__exit__(*exc)
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, kind: str, traced: bool) -> Step:
        tracer = self.ctx.tracer
        if traced:
            tracer.enable()
        lo = len(tracer.spans) if tracer else 0
        evaluate = self.ctx.call(experiment.run_evaluate)
        self.grid.last = None
        t0 = time.perf_counter()
        reports = evaluate(self.cfg, self.dir, params=self.params, sd=self.sd, imputer=kind)
        wall = time.perf_counter() - t0
        if traced:
            tracer.disable()
        hi = len(tracer.spans) if tracer else 0
        problems = job_problems(kind, self.grid.last, reports, self.sd, self.cfg, self.dir, self.ref)
        if problems:
            self.ctx.problems.extend(problems)
            self.ctx.failed += 1
        return Step(kind, wall, traced, self.cells if kind == "graph" else 0, lo, hi)


def job_problems(kind: str, grid, reports, sd, cfg, job_dir, ref: dict) -> list[str]:
    """Output checks for one imputation job."""
    t, n = sd.test_visible.num_patients, sd.train.num_events
    if grid is None or grid.shape != (t, n) or not np.all(np.isfinite(grid)):
        return [f"{kind} grid is missing, misshapen or not finite"]
    problems = []
    if kind == "graph":
        if not (np.all(grid > 0.0) and np.all(grid < 1.0)):
            problems.append("graph scores outside (0, 1)")
    elif kind == "knn":
        k = cfg.knn.k_neighbors
        if not np.array_equal(grid * k, np.round(grid * k)) or grid.min() < 0 or grid.max() > 1:
            problems.append("k-NN scores off the grid {0, 1/k, ..., 1}")
    elif not np.array_equal(grid, np.broadcast_to(sd.train.event_frequencies(), grid.shape)):
        problems.append("frequency scores differ from the train frequencies")

    held = np.bincount(sd.test_heldout[:, 1], minlength=n)
    visible = np.bincount(sd.test_visible.positives[:, 1], minlength=n)
    for policy, report in reports.items():
        if policy.startswith("_"):
            continue
        if not np.array_equal(report.tp + report.fn, held):
            problems.append(f"{kind}/{policy}: tp+fn differs from the held-out count")
        if not np.array_equal(report.tp + report.fn + report.tn + report.fp, t - visible):
            problems.append(f"{kind}/{policy}: tp+fn+tn+fp differs from t*n - |visible|")

    if kind == "graph":
        files = sorted(job_dir.glob("graph_*")) + [job_dir / "evaluate_manifest.json"]
        seen = (digest(grid), digest(*[np.frombuffer(f.read_bytes(), np.uint8) for f in files]))
        ref.setdefault("graph", seen)
        if seen != ref["graph"]:
            problems.append("graph grid or artifacts differ between jobs")
    return problems


def run_fit(ctx: Context, sampler: str) -> Result:
    tracer = ctx.tracer
    if tracer is not None:
        tracer.enable()
    setup_s, prints, setup_logs = [], [], []
    for _ in range(SETUP_REPEATS - 1):
        t0 = time.perf_counter()
        sd = prepare(ctx)
        log = EpochLog(tracer)
        training.fit(sd.train, MODEL, train_config(sampler, WARMUP_EPOCHS), log=log)
        setup_s.append(time.perf_counter() - t0)
        prints.append(fingerprint(sd, log.rows))
        setup_logs.append(log)

    log = EpochLog(tracer, WARMUP_EPOCHS, ctx.seconds, Reference())
    t0 = time.perf_counter()
    sd = prepare(ctx)
    # fit ends by StopFit and returns nothing, so its state is taken where
    # fit creates it.
    with Capture(training, "init_train_state") as state:
        try:
            training.fit(sd.train, MODEL, train_config(sampler, OPEN_ENDED_EPOCHS), log=log)
        except StopFit:
            pass
    if tracer is not None:
        tracer.disable()
    setup_s.append(log.setup_end - t0)
    prints.append(fingerprint(sd, log.rows))

    rows = log.rows
    timed = rows[WARMUP_EPOCHS:]
    check_losses(ctx, [r for lg in setup_logs for r in lg.rows] + rows)
    if not rows[-1]["loss"] < rows[0]["loss"]:
        ctx.fail(f"loss did not fall: first {rows[0]['loss']}, last {rows[-1]['loss']}")
    check_repeats(ctx, prints)
    batches = redraw_batches(ctx, sd, sampler, rows)
    # The fitted model, and the baselines on the same split, must impute.
    with Jobs(ctx, sd, state.last.params) as jobs:
        checked = [jobs.run(kind, tracer is not None) for kind in ("graph", "knn", "frequency")]
    epochs = log.steps(WARMUP_EPOCHS)
    return Result(
        setup_s=setup_s,
        steps=epochs,
        loop=epochs,
        epochs=epochs,
        jobs=checked,
        rows=timed,
        counts={**instance_counts(sd), **epoch_counts(batches[0]), "grid_cells": jobs.cells},
        loss_first=rows[0]["loss"],
        loss_last=rows[-1]["loss"],
        attempted=len(timed) + len(checked),
    )


def run_impute(ctx: Context) -> Result:
    tracer = ctx.tracer
    if tracer is not None:
        tracer.enable()
    sampler = SAMPLERS["impute"]
    setup_s, prints, logs = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sd = prepare(ctx)
        log = EpochLog(tracer)
        state = training.fit(sd.train, MODEL, train_config(sampler, WARMUP_EPOCHS), log=log)
        setup_s.append(time.perf_counter() - t0)
        params = [tensor for _, tensor in state.params.named_tensors()]
        prints.append((fingerprint(sd, log.rows), digest(*params)))
        logs.append(log)
    if tracer is not None:
        tracer.disable()
    rows = [r for lg in logs for r in lg.rows]
    check_losses(ctx, rows)
    check_repeats(ctx, prints)
    batches = redraw_batches(ctx, sd, sampler, logs[-1].rows)

    loop, graph_jobs, reference = [], 0, Reference()
    with Jobs(ctx, sd, state.params) as jobs:
        start = time.perf_counter()
        while time.perf_counter() - start < ctx.seconds:
            kind = IMPUTE_CYCLE[len(loop) % len(IMPUTE_CYCLE)]
            # Tracing alternates over graph jobs; baseline jobs are rare, so
            # all of them are traced.
            traced = tracer is not None and (kind != "graph" or graph_jobs % 2 == 1)
            ref = reference() if kind == "graph" else 0.0
            loop.append(jobs.run(kind, traced))
            loop[-1].ref = ref
            graph_jobs += kind == "graph"

    counts = {**instance_counts(sd), **epoch_counts(batches[0])}
    counts["grid_cells"] = jobs.cells
    counts["inductive_edges"] = len(sd.train.positives) + len(sd.test_visible.positives)
    return Result(
        setup_s=setup_s,
        steps=[s for s in loop if s.kind == "graph"],
        loop=loop,
        epochs=[s for lg in logs for s in lg.steps(1)],
        jobs=loop,
        rows=rows,
        counts=counts,
        loss_first=rows[0]["loss"],
        loss_last=rows[-1]["loss"],
        attempted=len(loop),
    )


def run(ctx: Context, workload: str) -> Result:
    if workload == "impute":
        return run_impute(ctx)
    return run_fit(ctx, SAMPLERS[workload])
