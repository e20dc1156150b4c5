"""Ingestion, synthesis, filtering, and splitting of sparse unary patient-event data.

A dataset is a set of observed positive (patient, event) pairs plus per-patient
demographics. Zeros are unreliable: an absent pair means "never measured", not
"did not happen".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Demographic features per patient: (age_years, sex).
DEMOGRAPHICS_DIM = 2


def canonical_pairs(pairs) -> np.ndarray:
    """Return pairs as an (k, 2) int64 array, lexicographically sorted, deduplicated."""
    arr = np.asarray(list(pairs) if isinstance(pairs, (set, frozenset)) else pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    arr = arr.reshape(-1, 2)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = np.any(arr[1:] != arr[:-1], axis=1)
    return arr[keep]


def encode_pairs(pairs: np.ndarray, num_events: int) -> np.ndarray:
    """Encode (patient, event) pairs as sortable int64 codes patient * n + event."""
    if len(pairs) == 0:
        return np.empty(0, dtype=np.int64)
    return pairs[:, 0] * np.int64(num_events) + pairs[:, 1]


def decode_pairs(codes: np.ndarray, num_events: int) -> np.ndarray:
    pairs = np.empty((len(codes), 2), dtype=np.int64)
    pairs[:, 0] = codes // num_events
    pairs[:, 1] = codes % num_events
    return pairs


@dataclass(frozen=True)
class Dataset:
    """Sparse unary patient-event matrix stored as positive-entry pairs.

    ``positives`` is an (k, 2) int64 array of (patient_index, event_index)
    rows, lexicographically sorted with no duplicates. ``demographics`` is an
    (m, 2) float array of (age_years, sex) with sex encoded as {0, 1}.
    """

    num_patients: int
    num_events: int
    positives: np.ndarray
    demographics: np.ndarray
    event_labels: list[str] | None = None
    event_categories: list[str] | None = None
    patient_labels: list[str] | None = None

    def __post_init__(self):
        pos = canonical_pairs(self.positives)
        object.__setattr__(self, "positives", pos)
        demo = np.asarray(self.demographics, dtype=np.float64)
        object.__setattr__(self, "demographics", demo)
        if len(pos) > 0:
            if pos[:, 0].min() < 0 or pos[:, 0].max() >= self.num_patients:
                raise ValueError("patient index out of range")
            if pos[:, 1].min() < 0 or pos[:, 1].max() >= self.num_events:
                raise ValueError("event index out of range")
        if demo.shape != (self.num_patients, DEMOGRAPHICS_DIM):
            raise ValueError(
                f"demographics shape {demo.shape} does not match "
                f"({self.num_patients}, {DEMOGRAPHICS_DIM})"
            )
        if self.event_labels is not None and len(self.event_labels) != self.num_events:
            raise ValueError("event_labels length does not match num_events")
        if self.event_categories is not None and len(self.event_categories) != self.num_events:
            raise ValueError("event_categories length does not match num_events")
        if self.patient_labels is not None and len(self.patient_labels) != self.num_patients:
            raise ValueError("patient_labels length does not match num_patients")

    @property
    def density(self) -> float:
        if self.num_patients == 0 or self.num_events == 0:
            return 0.0
        return len(self.positives) / (self.num_patients * self.num_events)

    def event_counts(self) -> np.ndarray:
        """Number of distinct patients with each event."""
        return np.bincount(self.positives[:, 1], minlength=self.num_events)

    def patient_degrees(self) -> np.ndarray:
        return np.bincount(self.positives[:, 0], minlength=self.num_patients)

    def event_frequencies(self) -> np.ndarray:
        """Per-event fraction of patients with the event."""
        if self.num_patients == 0:
            return np.zeros(self.num_events)
        return self.event_counts() / self.num_patients


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of the patient-level train/test split."""

    train_fraction: float = 0.7
    test_mask_fraction: float = 0.3
    min_event_frequency: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for name in ("train_fraction", "test_mask_fraction", "min_event_frequency"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class SplitDataset:
    """Disjoint train/test patient split with per-test-patient masking.

    ``test_heldout`` pairs use the same test-local patient indices as
    ``test_visible``; together they partition the test patients' positives.
    ``event_index_map`` maps original event indices to filtered ones (-1 for
    events removed by the rare-event filter).
    """

    train: Dataset
    test_visible: Dataset
    test_heldout: np.ndarray
    event_index_map: np.ndarray
    train_patient_indices: np.ndarray
    test_patient_indices: np.ndarray


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def load_triplets(path, demographics_path) -> Dataset:
    """Load a dataset from a triplet file and a demographics file.

    The triplet file holds one ``patient_id,event_id`` row per observed
    positive (duplicates collapse to a single positive); the demographics file
    holds ``patient_id,age,sex`` rows with sex in {M, F, 0, 1} (F -> 0, M -> 1).
    The demographics file defines the patient universe and its row order; event
    ids are reindexed in sorted order.
    """
    demo_rows: list[tuple[str, float, float]] = []
    seen_patients: set[str] = set()
    with open(demographics_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == "patient_id,age,sex":
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(
                    f"{demographics_path}: line {lineno}: expected 3 fields, got {len(fields)}"
                )
            pid, age_s, sex_s = (f.strip() for f in fields)
            try:
                age = float(age_s)
            except ValueError:
                raise ValueError(f"{demographics_path}: line {lineno}: bad age {age_s!r}") from None
            sex_map = {"M": 1.0, "F": 0.0, "0": 0.0, "1": 1.0}
            if sex_s.upper() not in sex_map:
                raise ValueError(f"{demographics_path}: line {lineno}: bad sex {sex_s!r}")
            if pid in seen_patients:
                raise ValueError(f"{demographics_path}: line {lineno}: duplicate patient {pid!r}")
            seen_patients.add(pid)
            demo_rows.append((pid, age, sex_map[sex_s.upper()]))

    patient_ids = [row[0] for row in demo_rows]
    patient_index = {pid: i for i, pid in enumerate(patient_ids)}

    triplets: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == "patient_id,event_id":
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(fields)}")
            triplets.append((fields[0].strip(), fields[1].strip()))

    missing = sorted({pid for pid, _ in triplets if pid not in patient_index})
    if missing:
        raise ValueError(
            "patients present in triplets but absent from demographics: " + ", ".join(missing)
        )

    event_ids = sorted({eid for _, eid in triplets})
    event_index = {eid: j for j, eid in enumerate(event_ids)}
    pairs = np.array(
        [(patient_index[pid], event_index[eid]) for pid, eid in triplets], dtype=np.int64
    ).reshape(-1, 2)

    demographics = np.array([[age, sex] for _, age, sex in demo_rows], dtype=np.float64).reshape(
        len(demo_rows), 2
    )
    return Dataset(
        num_patients=len(demo_rows),
        num_events=len(event_ids),
        positives=pairs,
        demographics=demographics,
        event_labels=event_ids,
        patient_labels=patient_ids,
    )


def filter_rare_events(d: Dataset, min_event_frequency: float) -> tuple[Dataset, np.ndarray]:
    """Drop events observed in fewer than ceil(min_event_frequency * m) patients.

    Returns the filtered dataset and an array mapping original event indices to
    new ones (-1 for removed events). Idempotent at a fixed threshold.
    """
    if not 0.0 <= min_event_frequency < 1.0:
        raise ValueError(f"min_event_frequency must lie in [0, 1), got {min_event_frequency}")
    # Guard against float slop pushing exact products like 0.001 * 1000 over the
    # next integer before ceil.
    threshold = math.ceil(min_event_frequency * d.num_patients - 1e-9)
    counts = d.event_counts()
    keep = counts >= threshold
    if not np.any(keep):
        raise ValueError("empty dataset after filtering")

    event_index_map = np.full(d.num_events, -1, dtype=np.int64)
    kept_indices = np.flatnonzero(keep)
    event_index_map[kept_indices] = np.arange(len(kept_indices))

    pos = d.positives
    pos_keep = keep[pos[:, 1]]
    new_pos = pos[pos_keep].copy()
    new_pos[:, 1] = event_index_map[new_pos[:, 1]]

    def _subset(values):
        return [values[int(j)] for j in kept_indices] if values is not None else None

    filtered = Dataset(
        num_patients=d.num_patients,
        num_events=len(kept_indices),
        positives=new_pos,
        demographics=d.demographics,
        event_labels=_subset(d.event_labels),
        event_categories=_subset(d.event_categories),
        patient_labels=d.patient_labels,
    )
    return filtered, event_index_map


def _subset_patients(d: Dataset, patient_indices: np.ndarray) -> Dataset:
    """Dataset restricted to the given patients, reindexed 0..len-1 in order."""
    local = np.full(d.num_patients, -1, dtype=np.int64)
    local[patient_indices] = np.arange(len(patient_indices))
    pos = d.positives
    mask = local[pos[:, 0]] >= 0
    sub = pos[mask].copy()
    sub[:, 0] = local[sub[:, 0]]
    labels = (
        [d.patient_labels[int(i)] for i in patient_indices] if d.patient_labels is not None else None
    )
    return Dataset(
        num_patients=len(patient_indices),
        num_events=d.num_events,
        positives=sub,
        demographics=d.demographics[patient_indices],
        event_labels=d.event_labels,
        event_categories=d.event_categories,
        patient_labels=labels,
    )


def split(d: Dataset, spec: SplitSpec, event_index_map: np.ndarray | None = None) -> SplitDataset:
    """Partition patients into train/test and mask part of each test patient's record.

    Patients are assigned uniformly at random under ``SplitSpec.seed``. For each
    test patient, round(test_mask_fraction * degree) positives (half away from
    zero) move to the held-out evaluation targets; a degree-1 patient therefore
    keeps its single positive visible. Deterministic given the seed.
    """
    if d.num_patients < 2:
        raise ValueError("need at least 2 patients to split")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(d.num_patients)
    n_train = _round_half_up(spec.train_fraction * d.num_patients)
    n_train = min(max(n_train, 1), d.num_patients - 1)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    train_ds = _subset_patients(d, train_idx)
    test_all = _subset_patients(d, test_idx)

    heldout_chunks = []
    visible_mask = np.ones(len(test_all.positives), dtype=bool)
    pos = test_all.positives
    row_starts = np.searchsorted(pos[:, 0], np.arange(test_all.num_patients))
    row_ends = np.searchsorted(pos[:, 0], np.arange(test_all.num_patients), side="right")
    for i in range(test_all.num_patients):
        lo, hi = row_starts[i], row_ends[i]
        degree = hi - lo
        n_mask = _round_half_up(spec.test_mask_fraction * degree)
        if n_mask == 0:
            continue
        picked = rng.choice(np.arange(lo, hi), size=n_mask, replace=False)
        visible_mask[picked] = False
        heldout_chunks.append(pos[picked])

    heldout = (
        canonical_pairs(np.concatenate(heldout_chunks))
        if heldout_chunks
        else np.empty((0, 2), dtype=np.int64)
    )
    test_visible = replace(test_all, positives=pos[visible_mask])
    if event_index_map is None:
        event_index_map = np.arange(d.num_events, dtype=np.int64)
    return SplitDataset(
        train=train_ds,
        test_visible=test_visible,
        test_heldout=heldout,
        event_index_map=event_index_map,
        train_patient_indices=train_idx,
        test_patient_indices=test_idx,
    )


def generate_synthetic(
    m: int,
    n: int,
    rank: int,
    target_density: float,
    seed: int,
    observe_probability: float = 0.7,
) -> tuple[Dataset, np.ndarray]:
    """Low-rank synthetic cohort with unary missingness.

    Latent factors are standard normal; per-event intercepts are calibrated by
    bisection so each event's expected prevalence matches a heavy-tailed target
    whose overall mean is ``target_density``. Ground-truth positives are
    Bernoulli draws from the calibrated probabilities; the observed dataset
    keeps each true positive independently with ``observe_probability``, so
    observed positives are always a subset of the ground truth. Demographics
    are two covariates (age-like, sex-like) correlated with the first latent
    coordinate.

    Returns the observed dataset and the ground-truth pairs.
    """
    if not 0.0 < target_density < 0.5:
        raise ValueError(f"target_density must lie in (0, 0.5), got {target_density}")
    if rank < 1 or rank > min(m, n):
        raise ValueError(f"rank must lie in [1, min(m, n)], got {rank}")
    rng = np.random.default_rng(seed)
    factors_p = rng.normal(size=(m, rank))
    factors_e = rng.normal(size=(n, rank))

    raw = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    prevalence = raw * (target_density / raw.mean())
    # Clipping changes the mean; rescale a few times to restore it.
    for _ in range(4):
        prevalence = np.clip(prevalence, 1e-4, 0.4)
        prevalence *= target_density / prevalence.mean()
    prevalence = np.clip(prevalence, 1e-4, 0.4)

    logits = factors_p @ factors_e.T
    lo = np.full(n, -30.0)
    hi = np.full(n, 30.0)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        mean_prob = _sigmoid(logits + mid).mean(axis=0)
        too_high = mean_prob > prevalence
        hi = np.where(too_high, mid, hi)
        lo = np.where(too_high, lo, mid)
    bias = 0.5 * (lo + hi)

    probs = _sigmoid(logits + bias)
    truth_mask = rng.random(size=(m, n)) < probs
    truth_i, truth_j = np.nonzero(truth_mask)
    ground_truth = np.column_stack([truth_i, truth_j]).astype(np.int64)

    observed_mask = rng.random(len(ground_truth)) < observe_probability
    positives = ground_truth[observed_mask]

    age = 52.0 + 9.0 * factors_p[:, 0] + rng.normal(scale=4.0, size=m)
    sex = (rng.random(m) < _sigmoid(1.2 * factors_p[:, 0])).astype(np.float64)
    demographics = np.column_stack([age, sex])

    dominant = np.argmax(np.abs(factors_e), axis=1)
    event_labels = [f"e{j:05d}" for j in range(n)]
    event_categories = [f"latent-{k}" for k in dominant]

    ds = Dataset(
        num_patients=m,
        num_events=n,
        positives=positives,
        demographics=demographics,
        event_labels=event_labels,
        event_categories=event_categories,
    )
    return ds, canonical_pairs(ground_truth)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def demographics_stats(demographics: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of the age column, for train-set standardization."""
    age = demographics[:, 0]
    std = float(age.std())
    return float(age.mean()), std if std > 0 else 1.0


def standardize_demographics(demographics: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    """Standardize the age column with (train) stats; the sex column stays {0, 1}."""
    mean, std = stats
    out = demographics.copy()
    out[:, 0] = (out[:, 0] - mean) / std
    return out


def write_split_manifest(path, spec: SplitSpec, sd: SplitDataset) -> None:
    """Text record of the split for reproducibility: seed, fractions, counts."""
    lines = [
        f"seed: {spec.seed}",
        f"train_fraction: {spec.train_fraction}",
        f"test_mask_fraction: {spec.test_mask_fraction}",
        f"min_event_frequency: {spec.min_event_frequency}",
        f"num_events: {sd.train.num_events}",
        f"train_patients: {sd.train.num_patients}",
        f"test_patients: {sd.test_visible.num_patients}",
        f"train_positives: {len(sd.train.positives)}",
        f"test_visible_positives: {len(sd.test_visible.positives)}",
        f"test_heldout_positives: {len(sd.test_heldout)}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
