"""Per-iteration edge partitions: Bernoulli-masked invisible positives, the
visible remainder, and negatives matching the invisible set's marginals.

The degree-preserving sampler realizes both marginal constraints (per-patient
and per-event negative counts equal to the invisible counts) as a
configuration model: it deals the invisible edges' events to slots holding
their patients, re-deals the events of conflicting slots (positive edges and
repeated pairs) with as many clean slots in vectorized rounds, and falls back
to uniform non-edges of the same patient for the slots still in conflict,
reporting the resulting event-marginal gap. Patient marginals are exact in
every outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import decode_pairs, encode_pairs
from .graph import BipartiteGraph

# Cap on re-deal rounds; slots still in conflict after it take the fallback.
REDEAL_ROUNDS = 64


@dataclass(frozen=True)
class EdgeBatch:
    """One training iteration's edge partition."""

    visible: np.ndarray
    invisible: np.ndarray
    negative: np.ndarray
    relaxed: bool
    event_marginal_l1_gap: int

    def validate(self, g_full: BipartiteGraph) -> None:
        """Check every batch invariant against the full graph; raise on violation."""
        n = g_full.num_events
        vis = encode_pairs(self.visible, n)
        inv = encode_pairs(self.invisible, n)
        neg = encode_pairs(self.negative, n)
        if len(np.intersect1d(vis, inv)) != 0:
            raise ValueError("visible and invisible overlap")
        union = np.union1d(vis, inv)
        if len(union) != g_full.edge_count or not np.array_equal(union, g_full.edge_codes()):
            raise ValueError("visible and invisible do not partition the edge set")
        if len(neg) != len(self.invisible):
            raise ValueError("negative and invisible cardinalities differ")
        if len(np.unique(neg)) != len(neg):
            raise ValueError("duplicate negative edges")
        if len(self.negative) and np.any(g_full.contains_pairs(self.negative)):
            raise ValueError("negative set intersects the positive edges")
        m = g_full.num_patients
        inv_p = np.bincount(self.invisible[:, 0], minlength=m) if len(self.invisible) else np.zeros(m, dtype=np.int64)
        neg_p = np.bincount(self.negative[:, 0], minlength=m) if len(self.negative) else np.zeros(m, dtype=np.int64)
        if not np.array_equal(inv_p, neg_p):
            raise ValueError("patient marginals not preserved")
        inv_e = np.bincount(self.invisible[:, 1], minlength=n) if len(self.invisible) else np.zeros(n, dtype=np.int64)
        neg_e = np.bincount(self.negative[:, 1], minlength=n) if len(self.negative) else np.zeros(n, dtype=np.int64)
        gap = int(np.abs(inv_e - neg_e).sum())
        if gap != self.event_marginal_l1_gap:
            raise ValueError(f"recorded event gap {self.event_marginal_l1_gap} != actual {gap}")
        if self.relaxed != (gap > 0):
            raise ValueError("relaxed flag inconsistent with event marginals")


def sample_invisible(g: BipartiteGraph, p: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Assign each edge independently to the invisible set with probability p.

    Returns (invisible, visible); the two partition the edge set.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"mask probability must lie in (0, 1), got {p}")
    rng = np.random.default_rng(seed)
    edges = g.all_edges()
    mask = rng.random(len(edges)) < p
    return np.compress(mask, edges, axis=0), np.compress(~mask, edges, axis=0)


def sample_negative_degree_preserving(
    g_full: BipartiteGraph, invisible: np.ndarray, seed
) -> tuple[np.ndarray, bool, int]:
    """Negative non-edges matching the invisible set's patient and event marginals.

    Each invisible edge gives one slot holding its patient, and a random
    permutation of the invisible edges' events is dealt to the slots, so both
    marginals hold by construction. A slot whose pair is a positive edge or
    repeats an earlier slot's pair is in conflict; each round re-deals the
    events of the conflicting slots together with as many random clean slots.
    Slots still in conflict after ``REDEAL_ROUNDS`` rounds take uniform valid
    non-edges of their own patient, which sets ``relaxed`` and leaves an
    event-marginal L1 gap. Patient marginals are exact in every outcome, and
    the negatives never intersect the positive edges.
    """
    m, n = g_full.num_patients, g_full.num_events
    invisible = np.asarray(invisible, dtype=np.int64).reshape(-1, 2)
    if len(invisible) == 0:
        return np.empty((0, 2), dtype=np.int64), False, 0
    rng = np.random.default_rng(seed)

    demand_p = np.bincount(invisible[:, 0], minlength=m)
    demand_e = np.bincount(invisible[:, 1], minlength=n)
    full_deg = g_full.patient_degrees()
    short = np.flatnonzero(demand_p > n - full_deg)
    if len(short) > 0:
        i = int(short[0])
        raise ValueError(
            f"patient {i} needs {demand_p[i]} negatives but has only "
            f"{n - full_deg[i]} non-edges"
        )

    patients = np.repeat(np.arange(m, dtype=np.int64), demand_p)
    events = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), demand_e))
    codes = patients * n + events

    def conflicts(runs) -> np.ndarray:
        """Conflict flags of the slots `runs`: whole patient runs, in slot order."""
        sub = codes[runs]
        first = np.zeros(len(sub), dtype=bool)
        first[np.unique(sub, return_index=True)[1]] = True
        return g_full.contains_codes(sub) | ~first

    # Slots are dealt in patient order, so a repeated pair lies within one
    # patient's run of slots; each round re-checks only the runs it touched.
    bad = conflicts(slice(None))
    touched = np.zeros(m, dtype=bool)
    for _ in range(REDEAL_ROUNDS):
        if not bad.any():
            break
        clean = np.flatnonzero(~bad)
        partners = rng.choice(clean, size=min(int(bad.sum()), len(clean)), replace=False)
        slots = np.concatenate([np.flatnonzero(bad), partners])
        events[slots] = events[rng.permutation(slots)]
        owners = patients[slots]
        codes[slots] = owners * n + events[slots]
        touched[owners] = True
        runs = np.flatnonzero(touched[patients])
        touched[owners] = False
        bad[runs] = conflicts(runs)

    for i in np.unique(patients[bad]):
        own = patients == i
        ok = np.ones(n, dtype=bool)
        ok[g_full.patient_neighbors(i)] = False
        ok[events[own & ~bad]] = False
        stuck = np.flatnonzero(own & bad)
        events[stuck] = rng.choice(np.flatnonzero(ok), size=len(stuck), replace=False)

    gap = int(np.abs(np.bincount(events, minlength=n) - demand_e).sum())
    return decode_pairs(np.sort(patients * n + events), n), gap > 0, gap


def sample_negative_uniform(g_full: BipartiteGraph, k: int, seed) -> np.ndarray:
    """k distinct non-edges drawn uniformly; the bias-comparison baseline.

    Draws k distinct ranks among the non-edges and maps rank r to its cell
    code: r plus the number of edges whose count of non-edges before them
    (code minus position in the sorted edge codes) is at most r.
    """
    m, n = g_full.num_patients, g_full.num_events
    total = m * n - g_full.edge_count
    if k > total:
        raise ValueError(f"requested {k} negatives but only {total} non-edges exist")
    rng = np.random.default_rng(seed)
    ranks = np.sort(rng.choice(total, size=k, replace=False))
    codes = g_full.edge_codes()
    nonedges_before = codes - np.arange(len(codes))
    return decode_pairs(ranks + np.searchsorted(nonedges_before, ranks, side="right"), n)
