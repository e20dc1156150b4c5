"""Reference imputers: k-nearest-neighbor voting over binary patient vectors
and the train-frequency predictor.

Neighbor search is exact brute force over bit-packed vectors with popcount
distances; no approximate index. Ties at the k-th distance go to the lower
train patient index, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

DISTANCES = ("hamming", "jaccard")


@dataclass(frozen=True)
class KnnConfig:
    k_neighbors: int = 10
    distance: str = "hamming"

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.distance not in DISTANCES:
            raise ValueError(f"unknown distance {self.distance!r}")


def binary_rows(pairs: np.ndarray, num_rows: int, num_cols: int) -> np.ndarray:
    """Dense boolean matrix with True at each (row, col) pair."""
    out = np.zeros((num_rows, num_cols), dtype=bool)
    if len(pairs):
        out[pairs[:, 0], pairs[:, 1]] = True
    return out


def _popcount_rows(packed: np.ndarray) -> np.ndarray:
    return np.bitwise_count(packed).sum(axis=-1, dtype=np.int64)


def nearest_train_patients(
    train_bits: np.ndarray,
    query_bits: np.ndarray,
    k: int,
    distance: str,
    block_size: int = 64,
) -> np.ndarray:
    """Indices of the k nearest train rows per query row, lower index on ties.

    Inputs are np.packbits-packed binary vectors. Hamming counts differing
    bits; Jaccard is 1 - |intersection| / |union| with empty-vs-empty at 0.
    """
    t = query_bits.shape[0]
    out = np.empty((t, k), dtype=np.int64)
    for start in range(0, t, block_size):
        stop = min(start + block_size, t)
        block = query_bits[start:stop, None, :]
        if distance == "hamming":
            dist = _popcount_rows(block ^ train_bits[None, :, :]).astype(np.float64)
        else:
            inter = _popcount_rows(block & train_bits[None, :, :])
            union = _popcount_rows(block | train_bits[None, :, :])
            dist = 1.0 - np.divide(
                inter, union, out=np.ones_like(inter, dtype=np.float64), where=union > 0
            )
        order = np.argsort(dist, axis=1, kind="stable")
        out[start:stop] = order[:, :k]
    return out


def knn_impute(
    train: Dataset,
    test_visible: np.ndarray,
    num_test_patients: int,
    cfg: KnnConfig,
) -> np.ndarray:
    """Score unmeasured entries by the fraction of nearest train patients with
    the event.

    Each test patient is represented by its visible positives only. Returns
    the full (test patients, events) score grid; scores lie on the grid
    {0, 1/k, ..., 1}.
    """
    m, n = train.num_patients, train.num_events
    if m == 0:
        raise ValueError("empty train set")
    if cfg.k_neighbors > m:
        raise ValueError(
            f"k_neighbors={cfg.k_neighbors} exceeds {m} train patients"
        )
    train_bool = binary_rows(train.positives, m, n)
    query_bool = binary_rows(
        np.asarray(test_visible, dtype=np.int64).reshape(-1, 2), num_test_patients, n
    )
    train_bits = np.packbits(train_bool, axis=1)
    query_bits = np.packbits(query_bool, axis=1)
    neighbors = nearest_train_patients(
        train_bits, query_bits, cfg.k_neighbors, cfg.distance
    )
    return train_bool[neighbors].mean(axis=1)


def frequency_baseline(train: Dataset, num_test_patients: int) -> np.ndarray:
    """Score every entry by its event's train frequency, ignoring the patient."""
    return np.tile(train.event_frequencies(), (num_test_patients, 1))
