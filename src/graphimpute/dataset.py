"""Ingestion, synthesis, filtering, and splitting of sparse unary patient-event data.

A dataset is a set of observed positive (patient, event) pairs plus per-patient
demographics. Zeros are unreliable: an absent pair means "never measured", not
"did not happen".
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Demographic features per patient: (age_years, sex).
DEMOGRAPHICS_DIM = 2

# Header rows of the two on-disk formats, which load_triplets reads and
# write_dataset writes.
TRIPLET_HEADER = ("patient_id", "event_id")
DEMOGRAPHICS_HEADER = ("patient_id", "age", "sex")


def encode_pairs(pairs: np.ndarray, num_events: int) -> np.ndarray:
    """Encode (patient, event) pairs as sortable int64 codes patient * n + event."""
    if len(pairs) == 0:
        return np.empty(0, dtype=np.int64)
    return pairs[:, 0] * np.int64(num_events) + pairs[:, 1]


def unique_codes(codes: np.ndarray) -> np.ndarray:
    """Ascending distinct values of an integer code array. One stable sort,
    linear on codes already in order; numpy 2.4's ``np.unique`` hashes before
    it sorts and took ~20x as long on 7k codes."""
    codes = np.sort(codes, kind="stable")
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


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
    (m, 2) float array of (age_years, sex) with sex encoded as {0, 1}. A label
    list left out is filled in: patient ``i`` is ``p{i:06d}``, event ``j`` is
    ``e{j:05d}`` and every event category is ``""``.
    """

    num_patients: int
    num_events: int
    positives: np.ndarray
    demographics: np.ndarray
    event_labels: list[str] | None = None
    event_categories: list[str] | None = None
    patient_labels: list[str] | None = None

    def __post_init__(self):
        pos = np.asarray(self.positives, dtype=np.int64).reshape(-1, 2)
        # Check ranges before encoding: an out-of-range event index would
        # otherwise alias to another patient's valid code.
        if len(pos) > 0:
            if pos[:, 0].min() < 0 or pos[:, 0].max() >= self.num_patients:
                raise ValueError("patient index out of range")
            if pos[:, 1].min() < 0 or pos[:, 1].max() >= self.num_events:
                raise ValueError("event index out of range")
        pos = decode_pairs(unique_codes(encode_pairs(pos, self.num_events)), self.num_events)
        object.__setattr__(self, "positives", pos)
        demo = np.asarray(self.demographics, dtype=np.float64)
        object.__setattr__(self, "demographics", demo)
        if demo.shape != (self.num_patients, DEMOGRAPHICS_DIM):
            raise ValueError(
                f"demographics shape {demo.shape} does not match "
                f"({self.num_patients}, {DEMOGRAPHICS_DIM})"
            )
        for name, count, label in (
            ("event_labels", "num_events", "e{:05d}"),
            ("event_categories", "num_events", ""),
            ("patient_labels", "num_patients", "p{:06d}"),
        ):
            size = getattr(self, count)
            if getattr(self, name) is None:
                object.__setattr__(self, name, list(map(label.format, range(size))))
            elif len(getattr(self, name)) != size:
                raise ValueError(f"{name} length does not match {count}")

    def event_counts(self) -> np.ndarray:
        """Number of distinct patients with each event."""
        return np.bincount(self.positives[:, 1], minlength=self.num_events)

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

    def train_sha256(self) -> str:
        """Hex sha256 of what training sees: the train patients' cohort indices,
        ``event_index_map`` and the train positives."""
        h = hashlib.sha256()
        for a in (self.train_patient_indices, self.event_index_map, self.train.positives):
            a = np.ascontiguousarray(a, dtype=np.int64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
        return h.hexdigest()


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _read_rows(path, header: tuple[str, ...]):
    """(line number, stripped fields) of each non-blank row of a CSV file.

    A first line equal to ``header`` is skipped; a row with another field
    count is an error that names the file and line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == ",".join(header):
                continue
            fields = line.split(",")
            if len(fields) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(fields)}"
                )
            yield lineno, [f.strip() for f in fields]


def load_triplets(path, demographics_path) -> Dataset:
    """Load a dataset from a triplet file and a demographics file.

    The triplet file holds one ``patient_id,event_id`` row per observed
    positive (duplicates collapse to a single positive); the demographics file
    holds ``patient_id,age,sex`` rows with sex in {M, F, 0, 1} (F -> 0, M -> 1).
    The demographics file defines the patient universe and its row order; event
    ids are reindexed in sorted order.
    """
    sex_map = {"M": 1.0, "F": 0.0, "0": 0.0, "1": 1.0}
    demo_rows: list[tuple[float, float]] = []
    patient_index: dict[str, int] = {}
    for lineno, (pid, age_s, sex_s) in _read_rows(demographics_path, DEMOGRAPHICS_HEADER):
        try:
            age = float(age_s)
        except ValueError:
            age = math.nan
        if not math.isfinite(age):  # nan or inf would spread through message passing
            raise ValueError(f"{demographics_path}: line {lineno}: bad age {age_s!r}")
        if sex_s.upper() not in sex_map:
            raise ValueError(f"{demographics_path}: line {lineno}: bad sex {sex_s!r}")
        if pid in patient_index:
            raise ValueError(f"{demographics_path}: line {lineno}: duplicate patient {pid!r}")
        patient_index[pid] = len(demo_rows)
        demo_rows.append((age, sex_map[sex_s.upper()]))

    triplets = [tuple(fields) for _, fields in _read_rows(path, TRIPLET_HEADER)]
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

    demographics = np.array(demo_rows, dtype=np.float64).reshape(len(demo_rows), 2)
    return Dataset(
        num_patients=len(demo_rows),
        num_events=len(event_ids),
        positives=pairs,
        demographics=demographics,
        event_labels=event_ids,
        patient_labels=list(patient_index),
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
        raise ValueError(f"empty dataset after filtering at min_event_frequency={min_event_frequency}")

    event_index_map = np.full(d.num_events, -1, dtype=np.int64)
    kept_indices = np.flatnonzero(keep)
    event_index_map[kept_indices] = np.arange(len(kept_indices))

    pos = d.positives
    pos_keep = keep[pos[:, 1]]
    new_pos = pos[pos_keep].copy()
    new_pos[:, 1] = event_index_map[new_pos[:, 1]]

    filtered = Dataset(
        num_patients=d.num_patients,
        num_events=len(kept_indices),
        positives=new_pos,
        demographics=d.demographics,
        event_labels=[d.event_labels[j] for j in kept_indices],
        event_categories=[d.event_categories[j] for j in kept_indices],
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
    return Dataset(
        num_patients=len(patient_indices),
        num_events=d.num_events,
        positives=sub,
        demographics=d.demographics[patient_indices],
        event_labels=d.event_labels,
        event_categories=d.event_categories,
        patient_labels=[d.patient_labels[i] for i in patient_indices],
    )


def split(d: Dataset, spec: SplitSpec, event_index_map: np.ndarray | None = None) -> SplitDataset:
    """Partition patients into train/test and mask part of each test patient's record.

    Patients are assigned uniformly at random under ``SplitSpec.seed``. For each
    test patient, round(test_mask_fraction * degree) positives (half away from
    zero) move to the held-out evaluation targets; a degree-1 patient's single
    positive therefore stays visible below a test_mask_fraction of 0.5 and is
    held out from 0.5 up. Deterministic given the seed.
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
        visible_mask[lo + rng.choice(degree, size=n_mask, replace=False)] = False

    test_visible = replace(test_all, positives=pos[visible_mask])
    if event_index_map is None:
        event_index_map = np.arange(d.num_events, dtype=np.int64)
    return SplitDataset(
        train=train_ds,
        test_visible=test_visible,
        test_heldout=pos[~visible_mask],
        event_index_map=event_index_map,
        train_patient_indices=train_idx,
        test_patient_indices=test_idx,
    )


# Patient x event cells per block in `generate_synthetic`, 256 KB per float64
# buffer: a calibration sweep's three buffers (768 KB), reused for every
# block, stay in a core's 2 MB L2. The 5000x500 benchmark cohort is 77 blocks
# of 65 patients, 50k x 2000 is 3125 blocks of 16. Timed with the sizes
# interleaved in one process (one BLAS thread, 2-vCPU Xeon), from 1 << 13 to
# 1 << 18: 156, 161, 148, 156, 174 and 195 ms at 5000x500 (best of 8), and
# from 1 << 14, 6.8, 6.1, 5.8, 6.7 and 7.7 s at 50k x 2000 (best of 2).
GENERATE_BLOCK_CELLS = 1 << 15
# Newton on the log of the mean needs 5-6 sweeps at 5000x500 (plain Newton
# took 9-10); bisection alone would need ~46 to shrink the [-30, 30] bracket
# to 1e-12.
_CALIBRATE_MAX_SWEEPS = 64
# Relative error of an event's mean probability above which calibration
# refuses the cohort. Events that settle by Newton land within ~1e-12; one
# that settles on a bracket edge, or is still moving when the sweeps run out,
# is off by orders of magnitude more.
_CALIBRATE_TOLERANCE = 1e-8


def fix_allocator_thresholds() -> None:
    """Keep multi-MB temporaries (an epoch's arrays) on glibc's heap, so that
    they are not mapped, trimmed and faulted in anew, however the process
    freed memory before. Setting either threshold switches off glibc's
    dynamic one, so both are set. Does nothing without glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def generate_synthetic(
    num_patients: int,
    num_events: int,
    rank: int,
    target_density: float,
    seed: int,
    observe_probability: float = 0.7,
) -> tuple[Dataset, np.ndarray]:
    """Low-rank synthetic cohort with unary missingness.

    Latent factors are standard normal; per-event intercepts are calibrated by
    safeguarded Newton steps (``_calibrate_intercepts``) so each event's
    expected prevalence matches a heavy-tailed target whose overall mean is
    ``target_density``. Ground-truth positives are Bernoulli draws from the
    calibrated probabilities; the observed dataset keeps each true positive
    independently with ``observe_probability``, so observed positives are
    always a subset of the ground truth. Demographics are two covariates
    (age-like, sex-like) correlated with the first latent coordinate. The
    patient x event logits are formed in blocks of ``GENERATE_BLOCK_CELLS``
    cells and never held whole; each calibration sweep, and the draw, writes
    every block in place into a few buffers allocated once per call, and the
    draws do not depend on the block size. Fixes glibc's allocator thresholds
    for the whole process first (`fix_allocator_thresholds`).

    Returns the observed dataset and the ground-truth pairs.
    """
    fix_allocator_thresholds()
    if not 0.0 < target_density < 0.5:
        raise ValueError(f"target_density must lie in (0, 0.5), got {target_density}")
    if rank < 1 or rank > min(num_patients, num_events):
        raise ValueError(f"rank must lie in [1, min(num_patients, num_events)], got {rank}")
    if not 0.0 < observe_probability <= 1.0:
        raise ValueError(f"observe_probability must lie in (0, 1], got {observe_probability}")
    rng = np.random.default_rng(seed)
    factors_p = rng.normal(size=(num_patients, rank))
    factors_e = rng.normal(size=(num_events, rank))

    raw = rng.lognormal(mean=0.0, sigma=1.0, size=num_events)
    prevalence = raw * (target_density / raw.mean())
    # Clipping changes the mean; rescale a few times to restore it.
    for _ in range(4):
        prevalence = np.clip(prevalence, 1e-4, 0.4)
        prevalence *= target_density / prevalence.mean()
    prevalence = np.clip(prevalence, 1e-4, 0.4)

    rows = max(1, GENERATE_BLOCK_CELLS // num_events)
    blocks = [slice(start, start + rows) for start in range(0, num_patients, rows)]
    bias = _calibrate_intercepts(factors_p, factors_e, prevalence, blocks)

    ground_truth = _draw_truth(rng, factors_p, factors_e, bias, blocks)
    observed_mask = rng.random(len(ground_truth)) < observe_probability
    positives = ground_truth[observed_mask]

    age = 52.0 + 9.0 * factors_p[:, 0] + rng.normal(scale=4.0, size=num_patients)
    sex = (rng.random(num_patients) < _sigmoid(1.2 * factors_p[:, 0])).astype(np.float64)
    demographics = np.column_stack([age, sex])

    dominant = np.argmax(np.abs(factors_e), axis=1)
    ds = Dataset(
        num_patients=num_patients,
        num_events=num_events,
        positives=positives,
        demographics=demographics,
        event_categories=[f"latent-{k}" for k in dominant],
    )
    return ds, ground_truth


def _draw_truth(
    rng: np.random.Generator, factors_p: np.ndarray, factors_e: np.ndarray, bias: np.ndarray,
    blocks: list[slice],
) -> np.ndarray:
    """Ground-truth (patient, event) pairs, in ascending order: each cell is
    positive where a uniform draw falls below sigmoid(factors_p @ factors_e.T
    + bias). One ``rng.random`` call per block of patients draws the same
    stream as one call for all."""
    n = len(factors_e)
    cells = len(factors_p[blocks[0]]) * n
    x_buf, u_buf = np.empty((2, cells))
    hit_buf = np.empty(cells, dtype=bool)
    parts = []
    for blk in blocks:
        r = len(factors_p[blk])
        x, u, hit = (buf[: r * n].reshape(r, n) for buf in (x_buf, u_buf, hit_buf))
        np.matmul(factors_p[blk], factors_e.T, out=x)
        x += bias
        _sigmoid(x, out=x, scratch=u)
        rng.random(out=u)
        np.less(u, x, out=hit)
        truth_i, truth_j = np.nonzero(hit)
        parts.append(np.column_stack([truth_i + blk.start, truth_j]))
    return np.concatenate(parts)


def _calibrate_intercepts(
    factors_p: np.ndarray, factors_e: np.ndarray, prevalence: np.ndarray, blocks: list[slice]
) -> np.ndarray:
    """Per-event intercepts b with mean over patients of
    sigmoid(factors_p @ factors_e.T + b) equal to ``prevalence``.

    Starts from the probit approximation of the mean: with patient factors of
    mean mu and covariance C, b0 = logit(prevalence) * sqrt(1 + pi v / 8) -
    mu @ e for v = e' C e. Each sweep visits the patient ``blocks`` once for
    the mean probability and its slope, then takes a Newton step on the log
    of the mean, which does not crawl in the exp-like tail where plain Newton
    gains ~1 nat per sweep. A per-event bracket [lo, hi], starting at
    [-30, 30], takes b as its upper end where the mean overshoots and as its
    lower end where it undershoots (so a start below -30 that undershoots
    widens it); a step that leaves the closed bracket is replaced by its
    midpoint. The mean is increasing in b, so this converges like Newton
    near the root and never worse than bisection. An event leaves the sweeps
    once its last step is within 1e-12 relative, and each sweep sums only
    the events still unsettled.

    Raises ValueError when events are still unsettled after
    ``_CALIBRATE_MAX_SWEEPS`` sweeps, or settled with their mean further than
    ``_CALIBRATE_TOLERANCE`` from ``prevalence`` (a root outside the bracket),
    judged by each event's mean in its last sweep.
    """
    m, n = len(factors_p), len(factors_e)
    mu = factors_p.mean(0)
    centred = factors_p - mu
    v = np.einsum("jk,kl,jl->j", factors_e, centred.T @ centred / m, factors_e)
    b = _logit(prevalence) * np.sqrt(1.0 + np.pi * v / 8.0) - factors_e @ mu
    lo = np.full(n, -30.0)
    hi = np.full(n, 30.0)
    act = np.arange(n)
    log_ratio = np.zeros(n)
    # Each block of r patients and w events still unsettled is the first
    # r * w cells of each buffer, so every block runs in the same memory.
    cells = max(len(factors_p[blk]) for blk in blocks) * n
    x_buf, ex_buf, num_buf = np.empty((3, cells))
    for _ in range(_CALIBRATE_MAX_SWEEPS):
        fe = np.ascontiguousarray(factors_e[act].T)
        ba, lo_a, hi_a = b[act], lo[act], hi[act]
        total = np.zeros(len(act))
        slope = np.zeros(len(act))
        for blk in blocks:
            size = len(factors_p[blk]) * len(act)
            x, ex, num = (buf[:size].reshape(-1, len(act)) for buf in (x_buf, ex_buf, num_buf))
            np.matmul(factors_p[blk], fe, out=x)
            x += ba
            # One exp per cell, as in `_sigmoid`: d = 1 / (1 + exp(-|x|)) is
            # the sigmoid of |x|, so the mean's cell is max(ex, x >= 0) * d
            # (d where x >= 0, ex * d elsewhere), and the slope s(1 - s) is
            # ex * d * d.
            np.greater_equal(x, 0.0, out=num)
            np.abs(x, out=ex)
            np.negative(ex, out=ex)
            np.exp(ex, out=ex)
            d = np.add(ex, 1.0, out=x)
            np.divide(1.0, d, out=d)
            np.maximum(ex, num, out=num)
            total += np.multiply(num, d, out=num).sum(0)
            ex *= d
            ex *= d
            slope += ex.sum(0)
        # A mean of 0 and a zero slope (every probability saturated) give
        # -inf or nan, which the bracket test sends to the midpoint.
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.log(total / m) - np.log(prevalence[act])
            step = ba - f * total / slope
        hi_a = np.where(f > 0, ba, hi_a)
        lo_a = np.where(f < 0, ba, lo_a)
        step = np.where((step >= lo_a) & (step <= hi_a), step, 0.5 * (lo_a + hi_a))
        settled = np.abs(step - ba) <= 1e-12 * np.maximum(1.0, np.abs(ba))
        b[act], lo[act], hi[act], log_ratio[act] = step, lo_a, hi_a, f
        act = act[~settled]
        if len(act) == 0:
            break
    rel_err = np.abs(np.expm1(log_ratio))
    off = ~(rel_err <= _CALIBRATE_TOLERANCE)
    off[act] = True
    if off.any():
        raise ValueError(
            f"intercept calibration left {int(off.sum())} of {n} events off their "
            f"prevalence (worst relative error {rel_err[off].max():.3g})"
        )
    return b


def _logit(p: np.ndarray) -> np.ndarray:
    """log(p / (1 - p)) of each value of a float array in (0, 1), bit for bit
    as ``scipy.special.logit`` gives it: scipy's two-branch formula, one value
    at a time through ``math``, whose log and log1p are the platform libm's,
    as in scipy's compiled loop (numpy's vectorized log and log1p round some
    values differently)."""
    return np.array([
        math.log(x / (1.0 - x)) if x < 0.3 or x > 0.65
        else math.log1p(2.0 * (x - 0.5)) - math.log1p(-2.0 * (x - 0.5))
        for x in p.tolist()
    ])


def _sigmoid(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise logistic function of a float array, written into ``out``
    if given (``x`` itself for an in-place update), else into a new array.
    ``scratch``, a float array of ``x``'s shape, is overwritten if given, else
    one is allocated."""
    # exp(-|x|) never overflows; by sign this is 1 / (1 + exp(-x)) or
    # exp(x) / (1 + exp(x)), the same bits as computing each branch apart.
    # exp(-|x|) lies in [0, 1], so max(exp(-|x|), x >= 0) is the numerator
    # exactly: 1 where x >= 0, exp(x) elsewhere (nan stays nan).
    num = np.empty(np.shape(x)) if scratch is None else scratch
    ex = np.empty(np.shape(x)) if out is None else out
    np.greater_equal(x, 0.0, out=num)
    # -|x| as abs then negate: this numpy runs both on SIMD loops but not
    # copysign(x, -1), and both set the same sign bit (nan keeps its payload).
    np.abs(x, out=ex)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    np.maximum(ex, num, out=num)
    ex += 1.0
    return np.divide(num, ex, out=ex)


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


def _table_text(path, columns: dict) -> str:
    """The text ``write_table`` writes to ``path``, which names it in a refusal."""
    formats, lists = [], []
    for name, column in columns.items():
        kind = "i" if isinstance(column, range) else getattr(column, "dtype", np.dtype("O")).kind
        formats.append({"i": "%d", "u": "%d", "f": "%.10g"}.get(kind, "%s"))
        cells = column.tolist() if isinstance(column, np.ndarray) else column
        if formats[-1] == "%s":
            cells = [f"{v:.10g}" if isinstance(v, float) else v for v in cells]
            bad = {v for v in set(cells) if isinstance(v, str) and (
                v != v.strip() or "," in v or "\n" in v or "\r" in v)}
            if bad:
                i = next(i for i, v in enumerate(cells) if v in bad)
                raise ValueError(
                    f"{path}: column {name!r}, row {i + 1}: cell {cells[i]!r} holds a comma, "
                    "a line break or outer space, which would not read back"
                )
        lists.append(cells)
    row = ",".join(formats) + "\r\n"
    rows = (row % cells for cells in zip(*lists, strict=True))
    return "".join([",".join(columns) + "\r\n", *rows])


def write_table(path, columns: dict) -> None:
    """Write a CSV file whose header is the keys of ``columns`` and whose
    columns are its values, which must all have one length. Every row is
    written with one ``%`` format per column: ``%d`` for a ``range`` or a
    numpy integer array, ``%.10g`` for a numpy float array, ``%s`` for any
    other, whose Python floats are first written as ``.10g`` (NaN as ``nan``).
    Cells are written verbatim, as ``_read_rows`` reads them: a cell may hold
    a quote, but a string cell that holds a comma or line break, or has outer
    space, is refused, naming its column and row, before the file is opened.
    """
    Path(path).write_text(_table_text(path, columns), encoding="utf-8", newline="")


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def pair_columns(pairs: np.ndarray, patient_labels: list[str], event_labels: list[str]) -> dict:
    """(patient, event) index pairs as the labelled ``patient_id,event_id``
    columns of a ``write_table`` table."""
    patients, events = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T.tolist()
    columns = ([patient_labels[i] for i in patients], [event_labels[j] for j in events])
    return dict(zip(TRIPLET_HEADER, columns))


def write_dataset(d: Dataset, triplets_path, demographics_path) -> None:
    """Write a dataset in the two files load_triplets reads. A
    label ``write_table`` refuses is refused before either file is opened."""
    age, sex = d.demographics.T
    tables = [
        (demographics_path, dict(zip(DEMOGRAPHICS_HEADER, (d.patient_labels, age, sex.astype(np.int64))))),
        (triplets_path, pair_columns(d.positives, d.patient_labels, d.event_labels)),
    ]
    texts = [(path, _table_text(path, columns)) for path, columns in tables]
    for path, text in texts:
        Path(path).write_text(text, encoding="utf-8", newline="")
