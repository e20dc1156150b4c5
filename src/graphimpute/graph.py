"""Sparse bipartite adjacency over patient and event partitions.

CSR-like index arrays in both orientations give O(1) degree lookups,
O(log edges) membership tests, and cache-friendly neighbor iteration.
Graphs are immutable; mutation returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import canonical_pairs, decode_pairs, encode_pairs


@dataclass(frozen=True)
class BipartiteGraph:
    """Immutable bipartite adjacency; both orientations kept sorted."""

    num_patients: int
    num_events: int
    patient_indptr: np.ndarray
    patient_indices: np.ndarray
    event_indptr: np.ndarray
    event_indices: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.patient_indices)

    def patient_neighbors(self, patient: int) -> np.ndarray:
        """Sorted event indices adjacent to the patient (a view, do not mutate)."""
        return self.patient_indices[self.patient_indptr[patient] : self.patient_indptr[patient + 1]]

    def event_neighbors(self, event: int) -> np.ndarray:
        """Sorted patient indices adjacent to the event (a view, do not mutate)."""
        return self.event_indices[self.event_indptr[event] : self.event_indptr[event + 1]]

    def patient_degrees(self) -> np.ndarray:
        return np.diff(self.patient_indptr)

    def event_degrees(self) -> np.ndarray:
        return np.diff(self.event_indptr)

    def all_edges(self) -> np.ndarray:
        """All edges as a lexicographically sorted (k, 2) array."""
        patients = np.repeat(np.arange(self.num_patients, dtype=np.int64), self.patient_degrees())
        return np.column_stack([patients, self.patient_indices])

    def edge_codes(self) -> np.ndarray:
        """Edges encoded as patient * n + event; sorted ascending by construction."""
        return encode_pairs(self.all_edges(), self.num_events)

    def contains_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Vectorized membership test for an (k, 2) array of pairs."""
        if len(pairs) == 0:
            return np.empty(0, dtype=bool)
        queries = encode_pairs(np.asarray(pairs, dtype=np.int64), self.num_events)
        return in_sorted(self.edge_codes(), queries)


def in_sorted(sorted_codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Mask of the queries present in an ascending array of codes."""
    pos = np.searchsorted(sorted_codes, queries)
    found = pos < len(sorted_codes)
    found[found] = sorted_codes[pos[found]] == queries[found]
    return found


def build(positives, num_patients: int, num_events: int) -> BipartiteGraph:
    """Build both adjacency orientations from a set of (patient, event) pairs."""
    pairs = np.asarray(
        list(positives) if isinstance(positives, (set, frozenset)) else positives, dtype=np.int64
    )
    pairs = pairs.reshape(-1, 2)
    if len(pairs) > 0:
        if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= num_patients:
            raise ValueError("patient index out of range")
        if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= num_events:
            raise ValueError("event index out of range")
    sorted_pairs = canonical_pairs(pairs)
    if len(sorted_pairs) != len(pairs):
        raise ValueError("duplicate edges in input")

    patient_deg = np.bincount(sorted_pairs[:, 0], minlength=num_patients) if len(sorted_pairs) else np.zeros(num_patients, dtype=np.int64)
    event_deg = np.bincount(sorted_pairs[:, 1], minlength=num_events) if len(sorted_pairs) else np.zeros(num_events, dtype=np.int64)
    patient_indptr = np.concatenate([[0], np.cumsum(patient_deg)]).astype(np.int64)
    event_indptr = np.concatenate([[0], np.cumsum(event_deg)]).astype(np.int64)

    patient_indices = sorted_pairs[:, 1].copy()
    event_order = np.lexsort((sorted_pairs[:, 0], sorted_pairs[:, 1]))
    event_indices = sorted_pairs[event_order, 0].copy()

    return BipartiteGraph(
        num_patients=num_patients,
        num_events=num_events,
        patient_indptr=patient_indptr,
        patient_indices=patient_indices,
        event_indptr=event_indptr,
        event_indices=event_indices,
    )


def remove_edges(g: BipartiteGraph, edges) -> BipartiteGraph:
    """New graph without the given edges; every edge must be present."""
    pairs = canonical_pairs(edges)
    if len(pairs) == 0:
        return g
    present = g.contains_pairs(pairs)
    if not np.all(present):
        i, j = pairs[np.flatnonzero(~present)[0]]
        raise ValueError(f"cannot remove non-existent edge ({i}, {j})")
    remaining = np.setdiff1d(g.edge_codes(), encode_pairs(pairs, g.num_events), assume_unique=True)
    return build(decode_pairs(remaining, g.num_events), g.num_patients, g.num_events)
