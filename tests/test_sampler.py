import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphimpute.dataset import SplitSpec, decode_pairs, filter_rare_events, generate_synthetic, split
from graphimpute.graph import build, in_sorted
from graphimpute.sampler import (
    REDEAL_ROUNDS,
    EdgeBatch,
    sample_invisible,
    sample_negative_degree_preserving,
    sample_negative_uniform,
)
from graphimpute.training import TrainConfig, sample_epoch_batch


def _random_graph(rng, m, n, density):
    mask = rng.random((m, n)) < density
    pairs = np.column_stack(np.nonzero(mask)).astype(np.int64)
    return build(pairs, m, n)


def _crowded_instance(seed, m=40, n=12, density=0.6):
    """A dense graph whose hidden edges leave each patient few spare non-edges,
    so re-dealing cannot clear every conflict; demands stay feasible."""
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, m, n, density)
    inv, _ = sample_invisible(g, 0.5, seed=seed)
    rank = np.arange(len(inv)) - np.searchsorted(inv[:, 0], inv[:, 0])
    return g, inv[rank < n - g.patient_degrees()[inv[:, 0]]]


def _full_recheck_sampler(g_full, invisible, seed):
    """The degree-preserving sampler as it was when every re-deal round
    re-checked all slots with one `np.unique`; returns its outcome and the
    number of rounds it ran."""
    m, n = g_full.num_patients, g_full.num_events
    rng = np.random.default_rng(seed)
    demand_p = np.bincount(invisible[:, 0], minlength=m)
    demand_e = np.bincount(invisible[:, 1], minlength=n)
    edge_codes = g_full.edge_codes()
    patients = np.repeat(np.arange(m, dtype=np.int64), demand_p)
    events = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), demand_e))
    codes = patients * n + events
    hit = in_sorted(edge_codes, codes)

    def conflicts():
        first = np.zeros(len(codes), dtype=bool)
        first[np.unique(codes, return_index=True)[1]] = True
        return hit | ~first

    bad = conflicts()
    rounds = 0
    for _ in range(REDEAL_ROUNDS):
        if not bad.any():
            break
        rounds += 1
        clean = np.flatnonzero(~bad)
        partners = rng.choice(clean, size=min(int(bad.sum()), len(clean)), replace=False)
        slots = np.concatenate([np.flatnonzero(bad), partners])
        events[slots] = events[rng.permutation(slots)]
        codes[slots] = patients[slots] * n + events[slots]
        hit[slots] = in_sorted(edge_codes, codes[slots])
        bad = conflicts()
    for i in np.unique(patients[bad]):
        own = patients == i
        ok = np.ones(n, dtype=bool)
        ok[g_full.patient_neighbors(i)] = False
        ok[events[own & ~bad]] = False
        stuck = np.flatnonzero(own & bad)
        events[stuck] = rng.choice(np.flatnonzero(ok), size=len(stuck), replace=False)
    gap = int(np.abs(np.bincount(events, minlength=n) - demand_e).sum())
    return (decode_pairs(np.sort(patients * n + events), n), gap > 0, gap), rounds


class TestSampleInvisible:
    def test_partition(self, tiny_graph):
        inv, vis = sample_invisible(tiny_graph, 0.4, seed=0)
        codes = lambda a: {int(i) * 5 + int(j) for i, j in a}
        assert codes(inv) | codes(vis) == codes(tiny_graph.all_edges())
        assert not codes(inv) & codes(vis)

    def test_p_to_zero_limit(self):
        rng = np.random.default_rng(1)
        g = _random_graph(rng, 200, 50, 0.95)
        inv, vis = sample_invisible(g, 1e-12, seed=3)
        assert len(inv) == 0
        assert len(vis) == g.edge_count

    def test_binomial_concentration(self):
        rng = np.random.default_rng(2)
        g = _random_graph(rng, 1000, 100, 0.99)
        k = g.edge_count
        sigma = np.sqrt(k * 0.2 * 0.8)
        for seed in range(20):
            inv, _ = sample_invisible(g, 0.2, seed=seed)
            assert abs(len(inv) - 0.2 * k) <= 4 * sigma

    @pytest.mark.parametrize("m, density, p", [(300, 0.1, 0.3), (5, 0.0, 0.5), (40, 0.5, 1e-12)])
    def test_same_bytes_as_boolean_indexing(self, m, density, p):
        # the split as it was written before np.compress: edges[mask], edges[~mask]
        g = _random_graph(np.random.default_rng(m), m, 20, density)
        edges = g.all_edges()
        mask = np.random.default_rng(7).random(len(edges)) < p
        for got, expect in zip(sample_invisible(g, p, seed=7), (edges[mask], edges[~mask])):
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

    def test_deterministic(self, tiny_graph):
        a = sample_invisible(tiny_graph, 0.3, seed=9)
        b = sample_invisible(tiny_graph, 0.3, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_p_validation(self, tiny_graph):
        with pytest.raises(ValueError):
            sample_invisible(tiny_graph, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_invisible(tiny_graph, 1.0, seed=0)


class TestDegreePreserving:
    def test_two_by_two_forced_instance(self):
        cases = [
            # non-edges are exactly the diagonal; demands force them
            ([[0, 1], [1, 0]], [[0, 1], [1, 0]], [(0, 0), (1, 1)], False, 0),
            # patient 0's only non-edge is event 1, so the event marginal relaxes
            ([[0, 0], [1, 0], [1, 1]], [[0, 0]], [(0, 1)], True, 2),
        ]
        for edges, invisible, expected, want_relaxed, want_gap in cases:
            g = build(np.array(edges), 2, 2)
            neg, relaxed, gap = sample_negative_degree_preserving(g, np.array(invisible), seed=5)
            assert sorted(map(tuple, neg.tolist())) == expected
            assert relaxed is want_relaxed and gap == want_gap

    def test_empty_invisible(self, tiny_graph):
        neg, relaxed, gap = sample_negative_degree_preserving(
            tiny_graph, np.empty((0, 2), dtype=np.int64), seed=1
        )
        assert len(neg) == 0 and relaxed is False and gap == 0

    def test_batch_invariants_random_graphs(self):
        rng = np.random.default_rng(7)
        relaxed_count = 0
        for trial in range(30):
            g = _random_graph(rng, 60, 25, 0.15)
            if g.edge_count == 0:
                continue
            inv, vis = sample_invisible(g, 0.25, seed=trial)
            if len(inv) == 0:
                continue
            neg, relaxed, gap = sample_negative_degree_preserving(g, inv, seed=trial)
            batch = EdgeBatch(vis, inv, neg, relaxed, gap)
            batch.validate(g)
            relaxed_count += int(relaxed)
        assert relaxed_count <= 5

    def test_matches_full_recheck_on_random_graphs(self):
        redealt = 0
        for seed in range(24):
            g = _random_graph(np.random.default_rng(seed), 80, 30, 0.2)
            inv, _ = sample_invisible(g, 0.25, seed=seed)
            (neg, relaxed, gap), rounds = _full_recheck_sampler(g, inv, seed + 100)
            got = sample_negative_degree_preserving(g, inv, seed + 100)
            assert got[0].tobytes() == neg.tobytes(), seed
            assert got[1] is relaxed and got[2] == gap, seed
            redealt += rounds > 0
        assert redealt >= 20  # the re-deal loop really ran

    def test_matches_full_recheck_through_the_fallback(self):
        for seed in range(20):
            g, inv = _crowded_instance(seed)
            (neg, relaxed, gap), rounds = _full_recheck_sampler(g, inv, seed)
            # every re-deal round ran and slots were left for the fallback
            assert relaxed and gap > 0 and rounds == REDEAL_ROUNDS, seed
            got = sample_negative_degree_preserving(g, inv, seed)
            assert got[0].tobytes() == neg.tobytes(), seed
            assert got[1] is True and got[2] == gap, seed

    def test_benchmark_batches_digest(self):
        # the first 20 degree-preserving batches of the benchmark instance
        # (cohort seed 101, split seed 5, train seed 11), as drawn when every
        # re-deal round re-checked all slots
        ds, _ = generate_synthetic(5000, 500, 10, 0.02, seed=101)
        filtered, emap = filter_rare_events(ds, 0.001)
        sd = split(filtered, SplitSpec(0.7, 0.3, 0.001, seed=5), event_index_map=emap)
        g = build(sd.train.positives, sd.train.num_patients, sd.train.num_events)
        config = TrainConfig(mask_probability=0.3, seed=11, negative_sampler="degree_preserving")
        h = hashlib.sha256()
        for epoch in range(20):
            batch = sample_epoch_batch(g, config, epoch)
            h.update(batch.invisible.tobytes())
            h.update(batch.negative.tobytes())
            h.update(np.array([batch.relaxed, batch.event_marginal_l1_gap], dtype=np.int64).tobytes())
        assert h.hexdigest() == (
            "213d8a67dd30c19850b7867a045a16265b9ecaad80b16d20caafd82f6dc13e5e"
        )

    def test_conditional_determinism(self):
        rng = np.random.default_rng(11)
        g = _random_graph(rng, 80, 30, 0.2)
        inv, _ = sample_invisible(g, 0.2, seed=4)
        a = sample_negative_degree_preserving(g, inv, seed=42)
        b = sample_negative_degree_preserving(g, inv, seed=42)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1] and a[2] == b[2]

    def test_precondition_error_names_patient(self):
        # patient 0 has every event; no non-edge available for its demand
        g = build(np.array([[0, 0], [0, 1], [1, 0]]), 2, 2)
        invisible = np.array([[0, 0]])
        with pytest.raises(ValueError, match="patient 0"):
            sample_negative_degree_preserving(g, invisible, seed=0)

    def test_patient_marginals_always_exact_under_relaxation(self):
        # dense graph with few non-edges forces long re-deals and the fallback
        rng = np.random.default_rng(13)
        for trial in range(20):
            g = _random_graph(rng, 15, 8, 0.75)
            if g.edge_count == 0:
                continue
            feasible = (
                np.bincount(g.all_edges()[:, 0], minlength=15)
                <= 8 - g.patient_degrees()
            )
            inv, _ = sample_invisible(g, 0.3, seed=trial)
            if len(inv) == 0:
                continue
            demand = np.bincount(inv[:, 0], minlength=15)
            if np.any(demand > 8 - g.patient_degrees()):
                continue
            neg, relaxed, gap = sample_negative_degree_preserving(g, inv, seed=trial)
            assert np.array_equal(
                np.bincount(neg[:, 0], minlength=15), demand
            )
            assert not np.any(g.contains_pairs(neg))
            assert (gap > 0) == relaxed


class TestUniform:
    def test_k_zero(self, tiny_graph):
        assert len(sample_negative_uniform(tiny_graph, 0, seed=0)) == 0

    def test_full_complement(self):
        g = build(np.array([[0, 0], [1, 1]]), 2, 2)
        neg = sample_negative_uniform(g, 2, seed=3)
        assert sorted(map(tuple, neg.tolist())) == [(0, 1), (1, 0)]

    def test_all_non_edges_at_k_equal_to_their_count(self):
        rng = np.random.default_rng(31)
        for seed in range(100):
            m, n = (int(x) for x in rng.integers(1, 9, size=2))
            cells = rng.random((m, n)) < rng.random()
            g = build(np.argwhere(cells), m, n)
            neg = sample_negative_uniform(g, int((~cells).sum()), seed=seed)
            assert np.array_equal(neg, np.argwhere(~cells)), seed

    def test_too_large_k(self, tiny_graph):
        total = 6 * 5 - tiny_graph.edge_count
        with pytest.raises(ValueError):
            sample_negative_uniform(tiny_graph, total + 1, seed=0)

    def test_no_duplicates_no_edges(self, tiny_graph):
        neg = sample_negative_uniform(tiny_graph, 12, seed=8)
        assert len(neg) == 12
        assert len({(int(i), int(j)) for i, j in neg}) == 12
        assert not np.any(tiny_graph.contains_pairs(neg))

    def test_event_counts_proportional_to_open_slots(self):
        # one event nearly full, one empty; negatives should skew to the empty one
        m = 60
        pairs = np.array([[i, 0] for i in range(m - 2)])
        g = build(pairs, m, 2)
        counts = np.zeros(2)
        for seed in range(300):
            neg = sample_negative_uniform(g, 10, seed=seed)
            counts += np.bincount(neg[:, 1], minlength=2)
        open_slots = np.array([2, 60], dtype=float)
        expected = counts.sum() * open_slots / open_slots.sum()
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 15.0  # 1 dof; generous bound


class TestSamplerBiasContrast:
    def test_uniform_ignores_event_demand_degree_preserving_matches(self):
        rng = np.random.default_rng(23)
        g = _random_graph(rng, 100, 40, 0.1)
        inv, _ = sample_invisible(g, 0.25, seed=6)
        demand_e = np.bincount(inv[:, 1], minlength=40)
        dp_counts = np.zeros(40)
        un_counts = np.zeros(40)
        runs = 25
        for seed in range(runs):
            neg_dp, relaxed, _ = sample_negative_degree_preserving(g, inv, seed=seed)
            if not relaxed:
                assert np.array_equal(
                    np.bincount(neg_dp[:, 1], minlength=40), demand_e
                )
            dp_counts += np.bincount(neg_dp[:, 1], minlength=40)
            neg_un = sample_negative_uniform(g, len(inv), seed=seed)
            un_counts += np.bincount(neg_un[:, 1], minlength=40)
        # degree-preserving tracks demand; uniform tracks open slots instead
        dp_err = np.abs(dp_counts / runs - demand_e).mean()
        open_slots = 100 - g.event_degrees()
        un_expected = len(inv) * open_slots / open_slots.sum()
        un_err = np.abs(un_counts / runs - un_expected).mean()
        assert dp_err < 0.5
        assert un_err < np.abs(un_counts / runs - demand_e).mean()


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_property_batch_invariants(seed):
    rng = np.random.default_rng(seed)
    g = _random_graph(rng, 30, 12, 0.2)
    if g.edge_count == 0:
        return
    inv, vis = sample_invisible(g, 0.3, seed=seed)
    if len(inv) == 0:
        return
    demand = np.bincount(inv[:, 0], minlength=30)
    if np.any(demand > 12 - g.patient_degrees()):
        return
    neg, relaxed, gap = sample_negative_degree_preserving(g, inv, seed=seed + 1)
    EdgeBatch(vis, inv, neg, relaxed, gap).validate(g)
