"""Run orchestration: strict config parsing, the data -> split -> train ->
evaluate pipeline, sampler comparison, and artifact writing.

Every run is driven by one JSON config with a single top-level seed. Stage
seeds (generate, split, mask, negatives, init) derive from it through named
substreams, so no stage's randomness can shift another's. Commands write all
outputs into a run directory and echo the resolved config in a manifest.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import time
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
    split,
    standardize_demographics,
    write_split_manifest,
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
        file_source = self.triplets is not None
        if file_source and self.demographics is None:
            raise ConfigError("data.triplets requires data.demographics")
        if file_source == (self.synthetic is not None):
            raise ConfigError("data needs exactly one source: files or synthetic")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    data: DataSpec
    split: SplitSpec
    model: ModelConfig
    train: TrainConfig
    knn: KnnConfig
    output_dir: str = "runs"


_TOP_KEYS = ("seed", "data", "split", "model", "train", "knn", "output_dir")


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
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} config: {exc}") from exc


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config mapping; reject unknown keys anywhere."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key}")
    if "seed" not in raw:
        raise ConfigError("missing required config field: seed")
    seed = raw["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if "data" not in raw:
        raise ConfigError("missing required config field: data")

    data_raw = dict(raw["data"]) if isinstance(raw["data"], dict) else None
    if data_raw is None:
        raise ConfigError("config section 'data' must be an object")
    synthetic = data_raw.pop("synthetic", None)
    if synthetic is not None:
        synthetic = _build_section(SyntheticSpec, synthetic, "data.synthetic")
    data = _build_section(DataSpec, {**data_raw, "synthetic": synthetic}, "data")

    split_spec = _build_section(SplitSpec, raw.get("split", {}), "split")
    split_spec = dataclasses.replace(split_spec, seed=substream_seed(seed, "split"))
    model_cfg = _build_section(ModelConfig, raw.get("model", {}), "model")
    train_cfg = _build_section(TrainConfig, raw.get("train", {}), "train")
    train_cfg = dataclasses.replace(train_cfg, seed=seed)
    knn_cfg = _build_section(KnnConfig, raw.get("knn", {}), "knn")
    output_dir = raw.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    return RunConfig(
        seed=seed,
        data=data,
        split=split_spec,
        model=model_cfg,
        train=train_cfg,
        knn=knn_cfg,
        output_dir=output_dir,
    )


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
    data = {}
    if cfg.data.synthetic is not None:
        data["synthetic"] = dataclasses.asdict(cfg.data.synthetic)
    else:
        data["triplets"] = cfg.data.triplets
        data["demographics"] = cfg.data.demographics
    split_d = dataclasses.asdict(cfg.split)
    split_d.pop("seed")
    train_d = dataclasses.asdict(cfg.train)
    train_d.pop("seed")
    return {
        "seed": cfg.seed,
        "data": data,
        "split": split_d,
        "model": dataclasses.asdict(cfg.model),
        "train": train_d,
        "knn": dataclasses.asdict(cfg.knn),
        "output_dir": cfg.output_dir,
    }


def prepare_dataset(cfg: RunConfig) -> Dataset:
    if cfg.data.synthetic is not None:
        s = cfg.data.synthetic
        ds, _ = generate_synthetic(
            s.num_patients,
            s.num_events,
            s.rank,
            s.target_density,
            seed=substream_seed(cfg.seed, "generate"),
            observe_probability=s.observe_probability,
        )
        return ds
    return load_triplets(cfg.data.triplets, cfg.data.demographics)


def prepare_split(cfg: RunConfig, ds: Dataset) -> SplitDataset:
    filtered, event_map = filter_rare_events(ds, cfg.split.min_event_frequency)
    return split(filtered, cfg.split, event_index_map=event_map)


def _latents(
    params: ModelParams,
    train_ds: Dataset,
    test_visible: Dataset | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Patient and event latents after message passing on the train graph.

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
    return message_pass(params, g, p0, params.event_embeddings)


def score_test_grid(
    params: ModelParams, train_ds: Dataset, test_visible: Dataset
) -> np.ndarray:
    """Inductive scores for every (test patient, event) pair.

    Test patients join the message-passing graph through their visible
    positives; train patients stay present so event neighborhoods keep their
    train context.
    """
    p_lat, e_lat = _latents(params, train_ds, test_visible)
    return score_grid(params, p_lat[train_ds.num_patients :], e_lat)


def train_event_latents(params: ModelParams, train_ds: Dataset) -> np.ndarray:
    """Event embeddings after message passing on the train graph."""
    return _latents(params, train_ds)[1]


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "loss", "hidden_edges", "relaxed", "event_marginal_l1_gap", "wall_seconds"]
        )
        for row in state.epoch_stats:
            writer.writerow(
                [
                    row["epoch"],
                    f"{row['loss']:.10g}",
                    row["hidden_edges"],
                    int(row["relaxed"]),
                    row["event_marginal_l1_gap"],
                    f"{row['wall_seconds']:.6f}",
                ]
            )


def write_manifest(path, command: str, cfg: RunConfig, extra: dict | None = None) -> None:
    payload = {"command": command, "config": config_to_dict(cfg)}
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_train(cfg: RunConfig, run_dir, log=None) -> tuple[TrainState, SplitDataset]:
    """Full training command: data, split, fit, checkpoint + log + manifest."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ds = prepare_dataset(cfg)
    sd = prepare_split(cfg, ds)
    state = fit(sd.train, cfg.model, cfg.train, log=log)
    save_checkpoint(run_dir / "checkpoint.npz", cfg.model, state.params)
    write_training_log(state, run_dir / "training_log.csv")
    write_split_manifest(run_dir / "split_manifest.txt", cfg.split, sd)
    write_manifest(
        run_dir / "manifest.json",
        "train",
        cfg,
        {
            "dataset": {
                "patients": ds.num_patients,
                "events_before_filter": ds.num_events,
                "events": sd.train.num_events,
                "observed_positives": len(ds.positives),
            },
            "final_loss": state.loss_history[-1] if state.loss_history else None,
        },
    )
    return state, sd


def run_evaluate(
    cfg: RunConfig,
    run_dir,
    checkpoint_path=None,
    params: ModelParams | None = None,
    sd: SplitDataset | None = None,
    policies=CUTOFF_POLICIES,
    imputer: str = "graph",
    fixed_cutoff: float = 0.5,
) -> dict[str, MetricsReport]:
    """Evaluation command; returns reports keyed by cutoff policy.

    Parameters may come from a checkpoint file or be passed directly. The
    split is re-derived from the config unless given, which is deterministic
    for a fixed config.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if imputer == "graph" and params is None:
        if checkpoint_path is None:
            raise ValueError("need a checkpoint or explicit parameters")
        model_cfg, params, _ = load_checkpoint(checkpoint_path)
        if model_cfg != cfg.model:
            raise ConfigError(
                "checkpoint model config does not match the run config"
            )
    if sd is None:
        sd = prepare_split(cfg, prepare_dataset(cfg))
    if imputer == "graph" and params.num_events() != sd.train.num_events:
        raise ConfigError(
            f"checkpoint has {params.num_events()} events but split has {sd.train.num_events}"
        )

    t0 = time.perf_counter()
    grid = imputer_score_grid(imputer, cfg, sd, params)
    score_seconds = time.perf_counter() - t0
    reports = {}
    for policy in policies:
        if policy not in CUTOFF_POLICIES:
            raise ConfigError(f"unknown cutoff policy {policy!r}")
        report = evaluate_grid(grid, sd, policy, fixed_cutoff)
        reports[policy] = report
        stem = f"{imputer}_{policy}"
        write_per_event_csv(report, run_dir / f"{stem}_per_event.csv")
        write_summary_json(report, run_dir / f"{stem}_summary.json")
    write_manifest(
        run_dir / "evaluate_manifest.json",
        "evaluate",
        cfg,
        {"imputer": imputer, "policies": list(policies)},
    )
    reports["_score_seconds"] = score_seconds
    return reports


def summary_table(reports: dict, imputer: str) -> str:
    """Plain-text metrics table, one row per cutoff policy."""
    lines = [
        f"{'method':<10} {'cutoff':<16} {'sensitivity':<16} {'specificity':<16} "
        f"{'balanced_acc':<16} {'runtime_s':>9}"
    ]
    runtime = reports.get("_score_seconds", float("nan"))
    for policy, report in reports.items():
        if policy.startswith("_"):
            continue
        s = report.summary()
        cells = []
        for name in ("sensitivity", "specificity", "balanced_accuracy"):
            cells.append(f"{s[name]['mean']:.3f} ± {s[name]['std']:.3f}")
        lines.append(
            f"{imputer:<10} {policy:<16} {cells[0]:<16} {cells[1]:<16} "
            f"{cells[2]:<16} {runtime:>9.2f}"
        )
    return "\n".join(lines)


def run_compare_samplers(cfg: RunConfig, run_dir, log=None) -> dict:
    """Train twice (uniform vs degree-preserving negatives), profile the bias.

    Everything except the negative sampler is identical, including all seeds.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ds = prepare_dataset(cfg)
    sd = prepare_split(cfg, ds)
    reports = {}
    for version, sampler in (("v1", "uniform"), ("v2", "degree_preserving")):
        train_cfg = dataclasses.replace(cfg.train, negative_sampler=sampler)
        state = fit(sd.train, cfg.model, train_cfg, log=log)
        grid = score_test_grid(state.params, sd.train, sd.test_visible)
        report = evaluate_grid(grid, sd, "fixed")
        reports[version] = report
        write_per_event_csv(report, run_dir / f"sampler_{version}_per_event.csv")
        write_summary_json(report, run_dir / f"sampler_{version}_summary.json")
    profile = bias_profile(reports["v1"], reports["v2"])
    write_bias_csv(profile, run_dir / "bias_profile.csv")
    with open(run_dir / "bias_summary.json", "w") as fh:
        json.dump(
            {
                "spearman_recall_frequency_v1": profile.spearman_v1,
                "spearman_recall_frequency_v2": profile.spearman_v2,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    write_manifest(run_dir / "manifest.json", "compare-samplers", cfg)
    return {"profile": profile, "v1": reports["v1"], "v2": reports["v2"]}


def run_generate(cfg: RunConfig, run_dir) -> dict:
    """Write a synthetic cohort as triplet + demographics + ground-truth files."""
    if cfg.data.synthetic is None:
        raise ConfigError("generate requires a data.synthetic section")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    s = cfg.data.synthetic
    ds, truth = generate_synthetic(
        s.num_patients,
        s.num_events,
        s.rank,
        s.target_density,
        seed=substream_seed(cfg.seed, "generate"),
        observe_probability=s.observe_probability,
    )
    paths = {
        "triplets": run_dir / "triplets.csv",
        "demographics": run_dir / "demographics.csv",
        "ground_truth": run_dir / "ground_truth.csv",
    }
    write_dataset_files(ds, paths["triplets"], paths["demographics"])
    event_labels = ds.event_labels
    with open(paths["ground_truth"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "event_id"])
        for i, j in truth:
            writer.writerow([_patient_label(ds, i), event_labels[j]])
    write_manifest(
        run_dir / "manifest.json",
        "generate",
        cfg,
        {"observed_positives": len(ds.positives), "true_positives": len(truth)},
    )
    return {"dataset": ds, "paths": paths}


def _patient_label(ds: Dataset, i: int) -> str:
    return ds.patient_labels[i] if ds.patient_labels is not None else f"p{i:06d}"


def write_dataset_files(ds: Dataset, triplets_path, demographics_path) -> None:
    """Write a dataset in the triplet + demographics format load_triplets reads."""
    labels = ds.event_labels or [f"e{j:05d}" for j in range(ds.num_events)]
    with open(demographics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "age", "sex"])
        for i in range(ds.num_patients):
            writer.writerow(
                [
                    _patient_label(ds, i),
                    f"{ds.demographics[i, 0]:.10g}",
                    int(ds.demographics[i, 1]),
                ]
            )
    with open(triplets_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "event_id"])
        for i, j in ds.positives:
            writer.writerow([_patient_label(ds, i), labels[j]])


def run_split(cfg: RunConfig, run_dir) -> SplitDataset:
    """Materialize the split: manifest plus train/test triplet files."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    ds = prepare_dataset(cfg)
    sd = prepare_split(cfg, ds)
    write_split_manifest(run_dir / "split_manifest.txt", cfg.split, sd)
    write_dataset_files(sd.train, run_dir / "train_triplets.csv", run_dir / "train_demographics.csv")
    write_dataset_files(
        sd.test_visible, run_dir / "test_visible_triplets.csv", run_dir / "test_demographics.csv"
    )
    labels = sd.train.event_labels or [f"e{j:05d}" for j in range(sd.train.num_events)]
    with open(run_dir / "test_heldout.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "event_id"])
        for i, j in sd.test_heldout:
            writer.writerow([_patient_label(sd.test_visible, i), labels[j]])
    write_manifest(run_dir / "manifest.json", "split", cfg)
    return sd


def run_export_embeddings(cfg: RunConfig, run_dir, checkpoint_path) -> None:
    """Message-pass on the train graph and export event latents + neighbors."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _, params, _ = load_checkpoint(checkpoint_path)
    sd = prepare_split(cfg, prepare_dataset(cfg))
    if params.num_events() != sd.train.num_events:
        raise ConfigError(
            f"checkpoint has {params.num_events()} events but split has {sd.train.num_events}"
        )
    e_lat = train_event_latents(params, sd.train)
    export_event_embeddings(
        e_lat,
        run_dir / "event_embeddings.csv",
        run_dir / "event_neighbors.csv",
        event_labels=sd.train.event_labels,
        event_categories=sd.train.event_categories,
    )
    write_manifest(run_dir / "manifest.json", "export-embeddings", cfg)
