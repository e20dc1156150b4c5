"""Sparse bipartite adjacency over patient and event partitions.

One patient-side CSR (rows are patients, sorted event indices) gives O(1)
patient degree lookups and cache-friendly neighbor iteration; `matrix` is
the one constructor of its scipy CSR. The event side is its transpose,
formed where it is needed (`model.mean_operators`). Graphs are immutable, so
the edge list, the sorted edge codes and a packed membership bitset of
patients x events bits (O(1) membership tests) are each built once per
graph, on first use, and handed out read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .dataset import encode_pairs


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable bipartite adjacency as a patient-side CSR with sorted rows."""

    num_patients: int
    num_events: int
    patient_indptr: np.ndarray
    patient_indices: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.patient_indices)

    def patient_neighbors(self, patient: int) -> np.ndarray:
        """Sorted event indices adjacent to the patient (a view, do not mutate)."""
        return self.patient_indices[self.patient_indptr[patient] : self.patient_indptr[patient + 1]]

    def patient_degrees(self) -> np.ndarray:
        return np.diff(self.patient_indptr)

    def event_degrees(self) -> np.ndarray:
        return np.bincount(self.patient_indices, minlength=self.num_events)

    def matrix(self, data=None) -> sp.csr_matrix:
        """The patients x events CSR over this graph's rows, with ``data`` (one
        value per edge, in edge order) at its cells, ones by default."""
        if data is None:
            data = np.ones(self.edge_count)
        shape = (self.num_patients, self.num_events)
        return sp.csr_matrix((data, self.patient_indices, self.patient_indptr), shape=shape)

    def all_edges(self) -> np.ndarray:
        """All edges as a lexicographically sorted (k, 2) array (read-only)."""
        return self._edges

    def edge_codes(self) -> np.ndarray:
        """Edges encoded as patient * n + event; sorted ascending by
        construction (read-only)."""
        return self._codes

    def contains_codes(self, codes: np.ndarray) -> np.ndarray:
        """Membership mask of cell codes, each in [0, patients * events)."""
        return (self._bits[codes >> 3] >> (codes & 7) & 1).astype(bool)

    def contains_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized membership test of (k, 2) pairs; off-grid pairs are not members."""
        if len(pairs) == 0:
            return np.empty(0, dtype=bool)
        pairs = np.asarray(pairs, dtype=np.int64)
        found = ((pairs >= 0) & (pairs < (self.num_patients, self.num_events))).all(axis=1)
        found[found] = self.contains_codes(encode_pairs(pairs[found], self.num_events))
        return found

    @cached_property
    def _edges(self) -> np.ndarray:
        patients = np.repeat(np.arange(self.num_patients, dtype=np.int64), self.patient_degrees())
        return _read_only(np.column_stack([patients, self.patient_indices]))

    @cached_property
    def _codes(self) -> np.ndarray:
        return _read_only(encode_pairs(self._edges, self.num_events))

    @cached_property
    def _bits(self) -> np.ndarray:
        """Bit `code & 7` of byte `code >> 3` is set for each edge code. The
        codes ascend, so each byte's bits are OR-ed over one run of codes.
        The codes are formed here rather than read from `_codes`, so that a
        graph whose codes nobody asks for does not hold them."""
        bits = np.zeros((self.num_patients * self.num_events + 7) // 8, dtype=np.uint8)
        codes = encode_pairs(self._edges, self.num_events)
        if len(codes):
            byte = codes >> 3
            starts = np.flatnonzero(np.r_[True, byte[1:] != byte[:-1]])
            masks = np.left_shift(1, codes & 7).astype(np.uint8)
            bits[byte[starts]] = np.bitwise_or.reduceat(masks, starts)
        return _read_only(bits)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def in_sorted(sorted_codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the queries present in an ascending array of codes."""
    pos = np.searchsorted(sorted_codes, queries)
    found = pos < len(sorted_codes)
    found[found] = sorted_codes[pos[found]] == queries[found]
    return found


def build(pairs: np.ndarray, num_patients: int, num_events: int) -> BipartiteGraph:
    """Build the patient-side CSR from (patient, event) pairs in ascending
    code order with no repeats, as a `Dataset`'s positives are; a repeated or
    out-of-order pair is refused."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) > 0:
        if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= num_patients:
            raise ValueError("patient index out of range")
        if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= num_events:
            raise ValueError("event index out of range")
    codes = encode_pairs(pairs, num_events)
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError("edges must ascend with no repeats")
    patient_indptr = np.zeros(num_patients + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=num_patients), out=patient_indptr[1:])
    return BipartiteGraph(
        num_patients=num_patients,
        num_events=num_events,
        patient_indptr=patient_indptr,
        patient_indices=pairs[:, 1].copy(),
    )
