"""Per-event confusion statistics over held-out test entries, frequency-binned
bias profiles for comparing negative-sampling schemes, and embedding export.

Held-out positives are the prediction targets; every unmeasured entry of a
test patient (no observed positive anywhere in the record) counts as a
negative. Predictions are strict: score > cutoff. An event with no held-out
positive has undefined sensitivity and is excluded from summary aggregates
rather than counted as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_pairs, encode_pairs, unique_codes, write_json, write_table
from .graph import in_sorted

CUTOFF_POLICIES = ("fixed", "train_frequency")
FREQUENCY_BINS = 10
EXPORT_NEIGHBORS = 10


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
    A nan or infinite score is refused, naming its cell, since a nan cell would
    count as a negative prediction; an off-grid pair is refused naming its set.
    """
    if cutoff_policy not in CUTOFF_POLICIES:
        raise ValueError(f"unknown cutoff policy {cutoff_policy!r}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a (test patients, events) matrix")
    t, n = scores.shape
    # the mask is not kept, so the grid-sized `predicted` below reuses its memory
    if not np.isfinite(scores).all():
        i, j = divmod(int(np.argmin(np.isfinite(scores))), n)
        raise ValueError(f"score cell (test row {i}, event column {j}) is {scores[i, j]}, not finite")
    train_frequencies = np.asarray(train_frequencies, dtype=np.float64)
    if len(train_frequencies) != n:
        raise ValueError("train_frequencies length does not match score columns")
    checked = []
    for label, pairs in (("visible", visible), ("heldout", heldout)):
        try:
            checked.append(check_pairs(pairs, t, n))
        except ValueError as exc:
            raise ValueError(f"{label} pairs off the score grid: {exc}") from None
    visible, heldout = checked

    cutoff = fixed_cutoff if cutoff_policy == "fixed" else train_frequencies
    predicted = scores > cutoff
    flat = predicted.ravel()
    # Cells as flat codes i * n + j; a pair in both lists counts as held out.
    held = unique_codes(encode_pairs(heldout, n))
    seen = unique_codes(encode_pairs(visible, n))
    seen = seen[~in_sorted(held, seen)]
    hit = flat[held]
    tp = np.bincount(held[hit] % n, minlength=n)
    fn = np.bincount(held[~hit] % n, minlength=n)
    # counting the bools as bytes into int32 (a column has far fewer than
    # 2^31 rows) runs on numpy's contiguous add loop; sum(axis=0) into the
    # default int64 takes about twice as long
    positives = predicted.view(np.uint8).sum(axis=0, dtype=np.int32)
    fp = positives - tp - np.bincount(seen[flat[seen]] % n, minlength=n)
    tn = t - np.bincount(seen % n, minlength=n) - (tp + fn + fp)

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


def frequency_bin_edges(train_frequencies: np.ndarray) -> np.ndarray:
    """Log-spaced bin edges spanning the positive train frequencies."""
    pos = train_frequencies[train_frequencies > 0]
    if len(pos) == 0:
        raise ValueError("no event has positive train frequency")
    lo, hi = float(pos.min()), float(pos.max())
    if lo == hi:
        # Degenerate range: one bin containing everything.
        return np.array([lo * 0.5, hi * 2.0])
    return np.geomspace(lo, hi, FREQUENCY_BINS + 1)


def assign_frequency_bins(train_frequencies: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin index per event; -1 for events with zero train frequency."""
    bins = np.searchsorted(edges, train_frequencies, side="right") - 1
    bins = np.minimum(bins, len(edges) - 2)
    bins[train_frequencies <= 0] = -1
    return bins


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of `x`; tied values share the mean of their places."""
    ordered = np.sort(x)
    return (np.searchsorted(ordered, x, "left") + np.searchsorted(ordered, x, "right") + 1) / 2


def recall_frequency_spearman(report: MetricsReport) -> float:
    """Spearman correlation between train frequency and per-event recall:
    the Pearson correlation of their midranks.

    Events with undefined recall are dropped; with fewer than 2 events left,
    or a constant input, the correlation is undefined and NaN is returned.
    """
    defined = ~np.isnan(report.sensitivity)
    freqs = report.train_frequencies[defined]
    recall = report.sensitivity[defined]
    if len(freqs) < 2 or np.ptp(freqs) == 0 or np.ptp(recall) == 0:
        return float("nan")
    # [1, 0] is the entry scipy's spearmanr reads, so the values keep its bits
    return float(np.corrcoef(_midranks(freqs), _midranks(recall))[1, 0])


@dataclass
class BiasProfile:
    """Side-by-side frequency-binned metrics for two sampling schemes."""

    rows: list[dict]
    spearman_v1: float
    spearman_v2: float


def bias_profile(report_v1: MetricsReport, report_v2: MetricsReport) -> BiasProfile:
    """Compare uniform (v1) against degree-preserving (v2) sampling reports.

    Both reports must cover the same events with the same train frequencies.
    """
    if report_v1.num_events != report_v2.num_events or not np.allclose(
        report_v1.train_frequencies, report_v2.train_frequencies
    ):
        raise ValueError("reports cover different event sets")
    edges = frequency_bin_edges(report_v1.train_frequencies)
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


_PER_EVENT_COLUMNS = ("tp", "fn", "tn", "fp", "sensitivity", "specificity", "balanced_accuracy")
_BIAS_COLUMNS = (
    "bin", "freq_lo", "freq_hi", "num_events",
    "recall_v1", "recall_v2", "specificity_v1", "specificity_v2",
)


def write_per_event_csv(report: MetricsReport, path) -> None:
    columns = {"event": range(report.num_events), "train_frequency": report.train_frequencies}
    columns.update((name, getattr(report, name)) for name in _PER_EVENT_COLUMNS)
    write_table(path, columns)


def write_summary_json(report: MetricsReport, path) -> None:
    write_json(path, report.summary())


def write_bias_csv(profile: BiasProfile, path) -> None:
    write_table(path, {name: [row[name] for row in profile.rows] for name in _BIAS_COLUMNS})


def cosine_neighbors(embeddings: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
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
    event_labels: list[str],
    event_categories: list[str],
) -> None:
    """Write latent event embeddings and their `EXPORT_NEIGHBORS` nearest
    cosine neighbors."""
    n, d = embeddings.shape
    columns = {"event": event_labels, "category": event_categories}
    columns.update((f"dim_{i}", embeddings[:, i]) for i in range(d))
    write_table(embeddings_path, columns)
    idx, sims = cosine_neighbors(embeddings, EXPORT_NEIGHBORS)
    k = idx.shape[1]
    write_table(
        neighbors_path,
        {
            "event": [label for label in event_labels for _ in range(k)],
            "rank": list(range(1, k + 1)) * n,
            "neighbor": [event_labels[i] for i in idx.ravel().tolist()],
            "cosine_similarity": sims.ravel(),
        },
    )
