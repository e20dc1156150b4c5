"""Run orchestration: strict config parsing, the data -> split -> train ->
evaluate pipeline, sampler comparison, and artifact writing.

Every run is driven by one JSON config with a single top-level seed. Stage
seeds (generate, split, mask, negatives, init) derive from it through named
substreams, so no stage's randomness can shift another's. Commands write all
outputs into a run directory through one `RunWriter`: a manifest echoes the
resolved config and lists the files written, and `telemetry.json` keeps the
clocks apart from them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines as baselines_mod
from .dataset import (
    Dataset,
    SplitDataset,
    SplitSpec,
    demographics_stats,
    filter_rare_events,
    generate_synthetic,
    load_triplets,
    pair_columns,
    split,
    standardize_demographics,
    write_dataset,
    write_json,
    write_table,
)
from .baselines import KnnConfig
from .evaluation import (
    CUTOFF_POLICIES,
    MetricsReport,
    bias_profile,
    evaluate,
    export_event_embeddings,
    write_bias_csv,
    write_per_event_csv,
    write_summary_json,
)
from .graph import build
from .model import (
    CheckpointError,
    ModelConfig,
    ModelParams,
    encode_patients,
    load_checkpoint,
    message_pass,
    save_checkpoint,
    score_grid,
)
from .seeding import substream_seed
from .training import TrainConfig, TrainState, fit


class ConfigError(ValueError):
    """Invalid or unknown configuration; maps to exit code 2 in the CLI."""


@dataclass(frozen=True)
class SyntheticSpec:
    num_patients: int = 5000
    num_events: int = 500
    rank: int = 10
    target_density: float = 0.02
    observe_probability: float = 0.7


@dataclass(frozen=True)
class DataSpec:
    triplets: str | None = None
    demographics: str | None = None
    synthetic: SyntheticSpec | None = None

    def __post_init__(self):
        if self.synthetic is not None:
            for key in ("triplets", "demographics"):
                if getattr(self, key) is not None:
                    raise ConfigError(f"data.{key} is not read with data.synthetic; remove it")
        elif self.triplets is None:
            raise ConfigError("data needs exactly one source: files or synthetic")
        elif self.demographics is None:
            raise ConfigError("data.triplets requires data.demographics")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    data: DataSpec
    split: SplitSpec
    model: ModelConfig
    train: TrainConfig
    knn: KnnConfig
    output_dir: str = "runs"


# A config value has exactly its field's type (a bool is not an int here), or
# is an integer for a float; refusals name the types as JSON does. They come
# after the section is built, so that a value the class refuses keeps its
# own message.
_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _build_section(cls, payload, section: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    allowed = {f.name for f in dataclasses.fields(cls)}
    for key in payload:
        if key == "seed":
            raise ConfigError(
                f"{section}.seed is derived from the top-level seed; remove it"
            )
        if key not in allowed:
            raise ConfigError(f"unknown config key {section}.{key}")
    hints = typing.get_type_hints(cls)
    options = {key: typing.get_args(hints[key]) or (hints[key],) for key in payload}
    payload = dict(payload)
    for key, (kind, *_) in options.items():
        if dataclasses.is_dataclass(kind) and payload[key] is not None:
            payload[key] = _build_section(kind, payload[key], f"{section}.{key}")
    try:
        built = cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from exc
    for key, value in payload.items():
        if not any(type(value) is t or (t is float and type(value) is int) for t in options[key]):
            kinds = " or ".join(_JSON_NAMES.get(t, t.__name__) for t in options[key])
            raise ConfigError(f"{section}.{key} must be {kinds}")
    return built


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping; reject unknown keys anywhere. The keys
    are `RunConfig`'s fields; a field typed as a dataclass (or `X | None` of
    one) is a section whose keys are its class's fields, at any depth."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    fields = typing.get_type_hints(RunConfig)
    for key in raw:
        if key not in fields:
            raise ConfigError(f"unknown config key {key}")
    if "seed" not in raw:
        raise ConfigError("missing required config field: seed")
    seed = raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if "data" not in raw:
        raise ConfigError("missing required config field: data")
    values = {"seed": seed}
    for name, cls in fields.items():
        if dataclasses.is_dataclass(cls):
            values[name] = _build_section(cls, raw.get(name, {}), name)
    if "output_dir" in raw:
        if not isinstance(raw["output_dir"], str):
            raise ConfigError("output_dir must be a string")
        values["output_dir"] = raw["output_dir"]
    values["split"] = dataclasses.replace(values["split"], seed=substream_seed(seed, "split"))
    values["train"] = dataclasses.replace(values["train"], seed=seed)
    return RunConfig(**values)


def apply_overrides(raw: dict, overrides: dict) -> dict:
    """Overlay dotted-path overrides (e.g. {"train.epochs": 5}) onto raw config."""
    out = json.loads(json.dumps(raw))
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {dotted}: {part} is not a section")
        node[parts[-1]] = value
    return out


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if overrides:
        raw = apply_overrides(raw, overrides)
    return parse_config(raw)


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical reloadable mapping: top-level seed only, no derived seeds."""
    out = dataclasses.asdict(cfg)
    del out["split"]["seed"], out["train"]["seed"]
    out["data"] = {key: value for key, value in out["data"].items() if value is not None}
    return out


def _generate(cfg: RunConfig) -> tuple[Dataset, np.ndarray]:
    """The configured synthetic cohort and its ground-truth pairs."""
    spec = dataclasses.asdict(cfg.data.synthetic)
    try:
        return generate_synthetic(**spec, seed=substream_seed(cfg.seed, "generate"))
    except ValueError as exc:
        raise ConfigError(f"data.synthetic: {exc}") from None


def prepare_dataset(cfg: RunConfig) -> Dataset:
    if cfg.data.synthetic is not None:
        return _generate(cfg)[0]
    return load_triplets(cfg.data.triplets, cfg.data.demographics)


def prepare_split(cfg: RunConfig, ds: Dataset) -> SplitDataset:
    try:
        filtered, event_map = filter_rare_events(ds, cfg.split.min_event_frequency)
        return split(filtered, cfg.split, event_index_map=event_map)
    except ValueError as exc:
        raise ConfigError(f"split: {exc}") from None


def _latents(
    params: ModelParams,
    train_ds: Dataset,
    test_visible: Dataset | None,
    patient_rows: slice,
) -> tuple[np.ndarray, np.ndarray]:
    """Latents of the patients in `patient_rows` (train rows first, then
    test) and of all events after message passing on the train graph.

    Test patients, if given, join after the train patients through their
    visible positives. Demographics are standardized with train statistics.
    """
    cohort = [train_ds] if test_visible is None else [train_ds, test_visible]
    stats = demographics_stats(train_ds.demographics)
    demo = np.vstack([standardize_demographics(d.demographics, stats) for d in cohort])
    starts = np.cumsum([0] + [d.num_patients for d in cohort])
    pairs = np.concatenate([d.positives + [start, 0] for d, start in zip(cohort, starts)])
    g = build(pairs, int(starts[-1]), train_ds.num_events)
    p0 = encode_patients(params, demo)
    return message_pass(params, g, p0, params.event_embeddings, patient_rows=patient_rows)


def score_test_grid(
    params: ModelParams, train_ds: Dataset, test_visible: Dataset
) -> np.ndarray:
    """Inductive scores for every (test patient, event) pair.

    Test patients join the message-passing graph through their visible
    positives; train patients stay present so event neighborhoods keep their
    train context.
    """
    test_rows = slice(train_ds.num_patients, None)
    p_lat, e_lat = _latents(params, train_ds, test_visible, test_rows)
    return score_grid(params, p_lat, e_lat)


def imputer_score_grid(
    imputer: str,
    cfg: RunConfig,
    sd: SplitDataset,
    params: ModelParams | None = None,
) -> np.ndarray:
    if imputer == "graph":
        if params is None:
            raise ValueError("graph imputer needs model parameters")
        return score_test_grid(params, sd.train, sd.test_visible)
    if imputer == "knn":
        return baselines_mod.knn_impute(
            sd.train, sd.test_visible.positives, sd.test_visible.num_patients, cfg.knn
        )
    if imputer == "frequency":
        return baselines_mod.frequency_baseline(
            sd.train, num_test_patients=sd.test_visible.num_patients
        )
    raise ConfigError(f"unknown imputer {imputer!r}")


def evaluate_grid(
    grid: np.ndarray, sd: SplitDataset, cutoff_policy: str, fixed_cutoff: float = 0.5
) -> MetricsReport:
    return evaluate(
        grid,
        sd.test_visible.positives,
        sd.test_heldout,
        sd.train.event_frequencies(),
        cutoff_policy=cutoff_policy,
        fixed_cutoff=fixed_cutoff,
    )


def write_training_log(state: TrainState, path) -> None:
    rows = state.epoch_stats
    columns = {
        name: [row[name] for row in rows]
        for name in ("epoch", "loss", "hidden_edges", "relaxed", "event_marginal_l1_gap")
    }
    columns["relaxed"] = [int(relaxed) for relaxed in columns["relaxed"]]
    write_table(path, columns)


def write_manifest(path, command: str, cfg: RunConfig, extra: dict | None = None) -> None:
    write_json(path, {"command": command, "config": config_to_dict(cfg), **(extra or {})})


class StageTimer(dict):
    """Stage name -> seconds, then the process's peak RSS (MB) and minor page
    faults read after the stage (`resource.getrusage`)."""

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        yield
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self[name] = {
            "seconds": time.perf_counter() - t0,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt,
        }


class RunWriter:
    """One command's run directory. It records every file name it hands out
    and times stages; `close` writes the manifest, whose sorted `files` lists
    those names and itself, and the command's entry of `telemetry.json` with
    the stage records. The directory is made on the first `path` or `close`,
    so a command refused before it writes anything leaves none behind. No
    manifest lists `telemetry.json`; it is keyed by command, so that commands
    sharing a directory (`train`, then `evaluate`) keep each other's entries."""

    def __init__(self, run_dir, command: str, cfg: RunConfig, manifest="manifest.json"):
        self.dir = Path(run_dir)
        self.command, self.cfg, self.manifest = command, cfg, manifest
        self.files, self.stage = {manifest}, StageTimer()

    def path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files.add(name)
        return self.dir / name

    def write_report(self, report: MetricsReport, stem: str) -> None:
        write_per_event_csv(report, self.path(f"{stem}_per_event.csv"))
        write_summary_json(report, self.path(f"{stem}_summary.json"))

    def close(self, extra: dict | None = None, **telemetry) -> None:
        extra = {**(extra or {}), "files": sorted(self.files)}
        write_manifest(self.path(self.manifest), self.command, self.cfg, extra)
        path = self.dir / "telemetry.json"
        try:
            entries = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            entries = {}
        entries[self.command] = {"stages": self.stage, **telemetry}
        write_json(path, entries)


def _split_record(cfg: RunConfig, sd: SplitDataset) -> dict:
    """The `split` record of the train and split manifests: the derived split
    seed, the partition's sizes and `train_sha256`, the fingerprint that a
    checkpoint stores and `evaluate` compares against."""
    return {
        "seed": cfg.split.seed,
        "events": sd.train.num_events,
        "train_patients": sd.train.num_patients,
        "test_patients": sd.test_visible.num_patients,
        "train_positives": len(sd.train.positives),
        "test_visible_positives": len(sd.test_visible.positives),
        "test_heldout_positives": len(sd.test_heldout),
        "train_sha256": sd.train_sha256(),
    }


def run_train(cfg: RunConfig, run_dir, log=None) -> tuple[TrainState, SplitDataset]:
    """Full training command: data, split, fit, checkpoint + log + manifest."""
    run = RunWriter(run_dir, "train", cfg)
    with run.stage("data"):
        ds = prepare_dataset(cfg)
        sd = prepare_split(cfg, ds)
    with run.stage("fit"):
        state = fit(sd.train, cfg.model, cfg.train, log=log)
    with run.stage("write"):
        record = _split_record(cfg, sd)
        save_checkpoint(run.path("checkpoint.npz"), cfg.model, state.params, record["train_sha256"])
        write_training_log(state, run.path("training_log.csv"))
    run.close(
        {
            "dataset": {
                "patients": ds.num_patients,
                "events_before_filter": ds.num_events,
                "events": sd.train.num_events,
                "observed_positives": len(ds.positives),
            },
            "final_loss": state.epoch_stats[-1]["loss"] if state.epoch_stats else None,
            "split": record,
        },
        epoch_seconds=[row["wall_seconds"] for row in state.epoch_stats],
    )
    return state, sd


def run_evaluate(
    cfg: RunConfig,
    run_dir,
    checkpoint_path=None,
    params: ModelParams | None = None,
    sd: SplitDataset | None = None,
    imputer: str = "graph",
    fixed_cutoff: float = 0.5,
) -> dict[str, MetricsReport]:
    """Evaluation command; returns one report per policy of
    `CUTOFF_POLICIES`, keyed by policy.

    Parameters may come from a checkpoint file or be passed directly. The
    split is re-derived from the config unless given, which is deterministic
    for a fixed config. The scoring time is the `score` stage of the
    `evaluate` entry in the run's `telemetry.json`. A fixed cutoff that is
    not a number in [0, 1] and a graph imputer with neither checkpoint nor
    parameters are refused before anything is read or written: scores are
    probabilities, so under any other cutoff, or nan, every prediction is
    the same. A k-NN `k_neighbors` above the train patient count is refused
    before anything is scored.
    """
    if not 0.0 <= fixed_cutoff <= 1.0:
        raise ConfigError(f"--cutoff (fixed_cutoff) must lie in [0, 1], got {fixed_cutoff}")
    if imputer == "graph" and params is None and checkpoint_path is None:
        raise ConfigError("the graph imputer needs --checkpoint (checkpoint_path) or params")
    run = RunWriter(run_dir, "evaluate", cfg, "evaluate_manifest.json")
    with run.stage("data"):
        if sd is None:
            sd = prepare_split(cfg, prepare_dataset(cfg))
        if imputer == "graph" and params is None:
            params = _checked_checkpoint(cfg, checkpoint_path, sd)
        if imputer == "knn" and cfg.knn.k_neighbors > sd.train.num_patients:
            raise ConfigError(
                f"knn.k_neighbors={cfg.knn.k_neighbors} exceeds the {sd.train.num_patients} train patients"
            )
    with run.stage("score"):
        grid = imputer_score_grid(imputer, cfg, sd, params)
    reports = {}
    with run.stage("evaluate"):
        for policy in CUTOFF_POLICIES:
            reports[policy] = evaluate_grid(grid, sd, policy, fixed_cutoff)
            run.write_report(reports[policy], f"{imputer}_{policy}")
    run.close({"imputer": imputer, "policies": list(CUTOFF_POLICIES)})
    return reports


def summary_table(reports: dict[str, MetricsReport], imputer: str, runtime_s: float) -> str:
    """Plain-text metrics table, one row per cutoff policy."""
    lines = [
        f"{'method':<10} {'cutoff':<16} {'sensitivity':<16} {'specificity':<16} "
        f"{'balanced_acc':<16} {'runtime_s':>9}"
    ]
    for policy, report in reports.items():
        s = report.summary()
        cells = []
        for name in ("sensitivity", "specificity", "balanced_accuracy"):
            cells.append(f"{s[name]['mean']:.3f} ± {s[name]['std']:.3f}")
        lines.append(
            f"{imputer:<10} {policy:<16} {cells[0]:<16} {cells[1]:<16} "
            f"{cells[2]:<16} {runtime_s:>9.2f}"
        )
    return "\n".join(lines)


def run_compare_samplers(cfg: RunConfig, run_dir) -> dict:
    """Train twice (uniform vs degree-preserving negatives), profile the bias.

    Everything except the negative sampler is identical, including all seeds.
    """
    run = RunWriter(run_dir, "compare-samplers", cfg)
    with run.stage("data"):
        sd = prepare_split(cfg, prepare_dataset(cfg))
    reports = {}
    for version, sampler in (("v1", "uniform"), ("v2", "degree_preserving")):
        with run.stage(f"sampler_{version}"):
            train_cfg = dataclasses.replace(cfg.train, negative_sampler=sampler)
            state = fit(sd.train, cfg.model, train_cfg)
            grid = score_test_grid(state.params, sd.train, sd.test_visible)
            reports[version] = evaluate_grid(grid, sd, "fixed")
            run.write_report(reports[version], f"sampler_{version}")
    with run.stage("bias"):
        profile = bias_profile(reports["v1"], reports["v2"])
        write_bias_csv(profile, run.path("bias_profile.csv"))
        write_json(
            run.path("bias_summary.json"),
            {
                "spearman_recall_frequency_v1": profile.spearman_v1,
                "spearman_recall_frequency_v2": profile.spearman_v2,
            },
        )
    run.close()
    return {"profile": profile, "v1": reports["v1"], "v2": reports["v2"]}


def run_generate(cfg: RunConfig, run_dir) -> dict:
    """Write a synthetic cohort as triplet + demographics + ground-truth files."""
    if cfg.data.synthetic is None:
        raise ConfigError("generate requires a data.synthetic section")
    run = RunWriter(run_dir, "generate", cfg)
    with run.stage("generate"):
        ds, truth = _generate(cfg)
    paths = {
        "triplets": run.path("triplets.csv"),
        "demographics": run.path("demographics.csv"),
        "ground_truth": run.path("ground_truth.csv"),
    }
    with run.stage("write"):
        write_dataset(ds, paths["triplets"], paths["demographics"])
        write_table(paths["ground_truth"], pair_columns(truth, ds.patient_labels, ds.event_labels))
    run.close({"observed_positives": len(ds.positives), "true_positives": len(truth)})
    return {"dataset": ds, "paths": paths}


def run_split(cfg: RunConfig, run_dir) -> SplitDataset:
    """Materialize the split: manifest plus train/test triplet files.

    Patient ids are the cohort's, so the train and test files name disjoint
    patients.
    """
    run = RunWriter(run_dir, "split", cfg)
    with run.stage("data"):
        sd = prepare_split(cfg, prepare_dataset(cfg))
    with run.stage("write"):
        write_dataset(sd.train, run.path("train_triplets.csv"), run.path("train_demographics.csv"))
        test = sd.test_visible
        write_dataset(test, run.path("test_visible_triplets.csv"), run.path("test_demographics.csv"))
        heldout = pair_columns(sd.test_heldout, test.patient_labels, test.event_labels)
        write_table(run.path("test_heldout.csv"), heldout)
    run.close({"split": _split_record(cfg, sd)})
    return sd


def _checked_checkpoint(cfg: RunConfig, checkpoint_path, sd: SplitDataset) -> ModelParams:
    """Checkpoint parameters, refused unless they fit the run's model config and
    were trained on the run's train split."""
    try:
        model_cfg, params, split_sha256 = load_checkpoint(checkpoint_path)
    except CheckpointError as exc:
        raise ConfigError(f"{checkpoint_path}: {exc}") from None
    if model_cfg != cfg.model:
        fields = [k for k, v in dataclasses.asdict(model_cfg).items() if v != getattr(cfg.model, k)]
        raise ConfigError(f"checkpoint model config differs from the run config in {', '.join(fields)}")
    if params.num_events() != sd.train.num_events:
        raise ConfigError(
            f"checkpoint has {params.num_events()} events but split has {sd.train.num_events}"
        )
    run_split = sd.train_sha256()
    if split_sha256 != run_split:
        raise ConfigError(
            f"checkpoint was trained on split {split_sha256}, not on this run's split {run_split}"
        )
    return params


def run_export_embeddings(cfg: RunConfig, run_dir, checkpoint_path) -> None:
    """Message-pass on the train graph and export event latents + neighbors."""
    run = RunWriter(run_dir, "export-embeddings", cfg)
    with run.stage("data"):
        sd = prepare_split(cfg, prepare_dataset(cfg))
        params = _checked_checkpoint(cfg, checkpoint_path, sd)
    with run.stage("embed"):
        e_lat = _latents(params, sd.train, None, slice(0))[1]
    with run.stage("write"):
        export_event_embeddings(
            e_lat,
            run.path("event_embeddings.csv"),
            run.path("event_neighbors.csv"),
            event_labels=sd.train.event_labels,
            event_categories=sd.train.event_categories,
        )
    run.close()
