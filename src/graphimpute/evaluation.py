"""Per-event confusion statistics over held-out test entries, frequency-binned
bias profiles for comparing negative-sampling schemes, and embedding export.

Held-out positives are the prediction targets; every unmeasured entry of a
test patient (no observed positive anywhere in the record) counts as a
negative. Predictions are strict: score > cutoff. An event with no held-out
positive has undefined sensitivity and is excluded from summary aggregates
rather than counted as zero.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.stats

CUTOFF_POLICIES = ("fixed", "train_frequency")


@dataclass
class MetricsReport:
    cutoff_policy: str
    fixed_cutoff: float | None
    train_frequencies: np.ndarray
    tp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    fp: np.ndarray
    sensitivity: np.ndarray
    specificity: np.ndarray
    balanced_accuracy: np.ndarray

    @property
    def num_events(self) -> int:
        return len(self.train_frequencies)

    def summary(self) -> dict:
        """Mean and std (over events with the metric defined) for each metric."""
        out = {"cutoff_policy": self.cutoff_policy}
        if self.cutoff_policy == "fixed":
            out["fixed_cutoff"] = self.fixed_cutoff
        for name in ("sensitivity", "specificity", "balanced_accuracy"):
            values = getattr(self, name)
            defined = values[~np.isnan(values)]
            out[name] = {
                "mean": float(defined.mean()) if len(defined) else float("nan"),
                "std": float(defined.std()) if len(defined) else float("nan"),
                "events_defined": int(len(defined)),
                "events_excluded": int(self.num_events - len(defined)),
            }
        return out


def _metric_ratio(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    out = np.full(len(num), np.nan)
    ok = denom > 0
    out[ok] = num[ok] / denom[ok]
    return out


def evaluate(
    scores: np.ndarray,
    visible: np.ndarray,
    heldout: np.ndarray,
    train_frequencies: np.ndarray,
    cutoff_policy: str = "fixed",
    fixed_cutoff: float = 0.5,
) -> MetricsReport:
    """Confusion statistics per event from a full test-patient x event score grid.

    `visible` and `heldout` hold test-local (patient, event) pairs; everything
    outside their union is an unmeasured entry and enters the negatives. Under
    the train_frequency policy each event's cutoff is its train-set frequency;
    either way an entry is imputed positive iff its score is strictly greater.
    """
    if cutoff_policy not in CUTOFF_POLICIES:
        raise ValueError(f"unknown cutoff policy {cutoff_policy!r}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a (test patients, events) matrix")
    t, n = scores.shape
    train_frequencies = np.asarray(train_frequencies, dtype=np.float64)
    if len(train_frequencies) != n:
        raise ValueError("train_frequencies length does not match score columns")
    visible = np.asarray(visible, dtype=np.int64).reshape(-1, 2)
    heldout = np.asarray(heldout, dtype=np.int64).reshape(-1, 2)
    for pairs, label in ((visible, "visible"), (heldout, "heldout")):
        if len(pairs) and (
            pairs.min() < 0 or pairs[:, 0].max() >= t or pairs[:, 1].max() >= n
        ):
            raise ValueError(f"{label} pairs out of range for the score grid")

    if cutoff_policy == "fixed":
        cutoff = np.full(n, fixed_cutoff)
    else:
        cutoff = train_frequencies
    predicted = scores > cutoff[None, :]

    held_mask = np.zeros((t, n), dtype=bool)
    held_mask[heldout[:, 0], heldout[:, 1]] = True
    measured = held_mask.copy()
    measured[visible[:, 0], visible[:, 1]] = True
    unmeasured = ~measured

    tp = np.count_nonzero(predicted & held_mask, axis=0).astype(np.int64)
    fn = np.count_nonzero(~predicted & held_mask, axis=0).astype(np.int64)
    fp = np.count_nonzero(predicted & unmeasured, axis=0).astype(np.int64)
    tn = np.count_nonzero(~predicted & unmeasured, axis=0).astype(np.int64)

    sens = _metric_ratio(tp.astype(np.float64), (tp + fn).astype(np.float64))
    spec = _metric_ratio(tn.astype(np.float64), (tn + fp).astype(np.float64))
    bal = (sens + spec) / 2.0
    return MetricsReport(
        cutoff_policy=cutoff_policy,
        fixed_cutoff=fixed_cutoff if cutoff_policy == "fixed" else None,
        train_frequencies=train_frequencies,
        tp=tp,
        fn=fn,
        tn=tn,
        fp=fp,
        sensitivity=sens,
        specificity=spec,
        balanced_accuracy=bal,
    )


def _nan_mean(values: np.ndarray) -> float:
    defined = values[~np.isnan(values)]
    return float(defined.mean()) if len(defined) else float("nan")


def frequency_bin_edges(train_frequencies: np.ndarray, num_bins: int = 10) -> np.ndarray:
    """Log-spaced bin edges spanning the positive train frequencies."""
    pos = train_frequencies[train_frequencies > 0]
    if len(pos) == 0:
        raise ValueError("no event has positive train frequency")
    lo, hi = float(pos.min()), float(pos.max())
    if lo == hi:
        # Degenerate range: one bin containing everything.
        return np.array([lo * 0.5, hi * 2.0])
    return np.geomspace(lo, hi, num_bins + 1)


def assign_frequency_bins(train_frequencies: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per event; -1 for events with zero train frequency."""
    bins = np.searchsorted(edges, train_frequencies, side="right") - 1
    bins = np.minimum(bins, len(edges) - 2)
    bins[train_frequencies <= 0] = -1
    return bins


def recall_frequency_spearman(report: MetricsReport) -> float:
    """Spearman correlation between train frequency and per-event recall.

    Events with undefined recall are dropped; a constant input makes the
    correlation undefined and NaN is returned.
    """
    defined = ~np.isnan(report.sensitivity)
    freqs = report.train_frequencies[defined]
    recall = report.sensitivity[defined]
    if len(freqs) < 2:
        return float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.stats.ConstantInputWarning)
        rho = scipy.stats.spearmanr(freqs, recall).statistic
    return float(rho)


@dataclass
class BiasProfile:
    """Side-by-side frequency-binned metrics for two sampling schemes."""

    rows: list[dict]
    spearman_v1: float
    spearman_v2: float


def bias_profile(
    report_v1: MetricsReport, report_v2: MetricsReport, num_bins: int = 10
) -> BiasProfile:
    """Compare uniform (v1) against degree-preserving (v2) sampling reports.

    Both reports must cover the same events with the same train frequencies.
    """
    if report_v1.num_events != report_v2.num_events or not np.allclose(
        report_v1.train_frequencies, report_v2.train_frequencies
    ):
        raise ValueError("reports cover different event sets")
    edges = frequency_bin_edges(report_v1.train_frequencies, num_bins)
    bins = assign_frequency_bins(report_v1.train_frequencies, edges)
    rows = []
    for b in range(len(edges) - 1):
        members = bins == b
        rows.append(
            {
                "bin": b,
                "freq_lo": float(edges[b]),
                "freq_hi": float(edges[b + 1]),
                "num_events": int(members.sum()),
                "recall_v1": _nan_mean(report_v1.sensitivity[members]),
                "recall_v2": _nan_mean(report_v2.sensitivity[members]),
                "specificity_v1": _nan_mean(report_v1.specificity[members]),
                "specificity_v2": _nan_mean(report_v2.specificity[members]),
            }
        )
    return BiasProfile(
        rows=rows,
        spearman_v1=recall_frequency_spearman(report_v1),
        spearman_v2=recall_frequency_spearman(report_v2),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_per_event_csv(report: MetricsReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "event",
                "train_frequency",
                "tp",
                "fn",
                "tn",
                "fp",
                "sensitivity",
                "specificity",
                "balanced_accuracy",
            ]
        )
        for j in range(report.num_events):
            writer.writerow(
                [
                    j,
                    _fmt(float(report.train_frequencies[j])),
                    int(report.tp[j]),
                    int(report.fn[j]),
                    int(report.tn[j]),
                    int(report.fp[j]),
                    _fmt(float(report.sensitivity[j])),
                    _fmt(float(report.specificity[j])),
                    _fmt(float(report.balanced_accuracy[j])),
                ]
            )


def write_summary_json(report: MetricsReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_bias_csv(profile: BiasProfile, path) -> None:
    fields = [
        "bin",
        "freq_lo",
        "freq_hi",
        "num_events",
        "recall_v1",
        "recall_v2",
        "specificity_v1",
        "specificity_v2",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields + ["spearman_v1", "spearman_v2"])
        for row in profile.rows:
            writer.writerow(
                [_fmt(row[f]) for f in fields]
                + [_fmt(profile.spearman_v1), _fmt(profile.spearman_v2)]
            )


def cosine_neighbors(embeddings: np.ndarray, top_k: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Top-k cosine-similarity neighbors per row (dense all-pairs; O(n^2) memory).

    Ties broken by lower index; a zero row has cosine 0 with everything.
    Returns (indices, similarities), each (n, top_k).
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    unit = np.divide(embeddings, norms, out=np.zeros_like(embeddings, dtype=np.float64), where=norms > 0)
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    top_k = min(top_k, sims.shape[0] - 1)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :top_k]
    return order, np.take_along_axis(sims, order, axis=1)


def export_event_embeddings(
    embeddings: np.ndarray,
    embeddings_path,
    neighbors_path,
    event_labels=None,
    event_categories=None,
    top_k: int = 10,
) -> None:
    """Write latent event embeddings and their top-k cosine neighbor lists."""
    n, d = embeddings.shape
    labels = event_labels if event_labels is not None else [str(j) for j in range(n)]
    categories = event_categories if event_categories is not None else [""] * n
    with open(embeddings_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event", "category"] + [f"dim_{i}" for i in range(d)])
        for j in range(n):
            writer.writerow(
                [labels[j], categories[j]] + [_fmt(float(x)) for x in embeddings[j]]
            )
    idx, sims = cosine_neighbors(embeddings, top_k)
    with open(neighbors_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event", "rank", "neighbor", "cosine_similarity"])
        for j in range(n):
            for r in range(idx.shape[1]):
                writer.writerow(
                    [labels[j], r + 1, labels[idx[j, r]], _fmt(float(sims[j, r]))]
                )
