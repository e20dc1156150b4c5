"""Reference imputers: k-nearest-neighbor voting over binary patient vectors
and the train-frequency predictor.

Neighbor search is exact brute force. One product of the sparse 0/1 train
matrix with a dense block of queries gives every query-train intersection
count (small integers, exact in float64), and the Jaccard distance follows
from those counts and the row sizes; no approximate index. A dense product
suits counts that are dense anyway: at 50k x 2000 each query shares an event
with half the train rows. Ties at the k-th distance go to the lower train patient
index, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import Dataset
from .graph import build

# Query x train distance cells per block in `knn_impute`; each cell holds a
# few float64 temporaries. Chosen by timing and peak memory at the benchmark
# size (~3500 train patients, so 74 query rows per block).
KNN_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class KnnConfig:
    k_neighbors: int = 10

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


def nearest_train_patients(train: sp.csr_matrix, query: sp.csr_matrix, k: int) -> np.ndarray:
    """(query rows, train rows) mask of each query's k nearest train rows.

    Inputs are 0/1 CSR matrices over the same columns. The distance is
    Jaccard, (|union| - |intersection|) / |union|, with empty-vs-empty at 0.
    The result holds one dense row per query, so callers pass the queries in
    blocks.
    """
    inter = np.ascontiguousarray((train @ query.toarray().T).T)
    size_q = np.diff(query.indptr)[:, None]
    size_t = np.diff(train.indptr)[None, :]
    union = size_q + size_t - inter
    dist = union - inter
    dist /= np.maximum(union, 1, out=union)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    nearest = dist < kth
    # Fill the remaining places with the lowest-index rows at the k-th distance.
    ties = dist == kth
    room = k - nearest.sum(axis=1, keepdims=True)
    nearest |= ties & (np.cumsum(ties, axis=1) <= room)
    return nearest


def knn_impute(
    train: Dataset,
    test_visible: np.ndarray,
    num_test_patients: int,
    cfg: KnnConfig,
) -> np.ndarray:
    """Score unmeasured entries by the fraction of nearest train patients with
    the event.

    Each test patient is represented by its visible positives only, which
    must ascend with no repeats, as `graph.build` requires. Returns
    the full (test patients, events) score grid; scores lie on the grid
    {0, 1/k, ..., 1}.
    """
    m, n = train.num_patients, train.num_events
    if m == 0:
        raise ValueError("empty train set")
    k = cfg.k_neighbors
    if k > m:
        raise ValueError(f"k_neighbors={k} exceeds {m} train patients")
    train_matrix = build(train.positives, m, n).matrix()
    query = build(test_visible, num_test_patients, n).matrix()
    out = np.empty((num_test_patients, n))
    rows = max(1, KNN_BLOCK_CELLS // m)
    for start in range(0, num_test_patients, rows):
        stop = min(start + rows, num_test_patients)
        nearest = nearest_train_patients(train_matrix, query[start:stop], k)
        votes = sp.csr_matrix(nearest, dtype=np.float64) @ train_matrix
        out[start:stop] = votes.toarray() / k
    return out


def frequency_baseline(train: Dataset, num_test_patients: int) -> np.ndarray:
    """Score every entry by its event's train frequency, ignoring the patient."""
    return np.tile(train.event_frequencies(), (num_test_patients, 1))
