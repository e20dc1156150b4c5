import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphimpute import baselines
from graphimpute.baselines import (
    KnnConfig,
    frequency_baseline,
    knn_impute,
    nearest_train_patients,
)
from graphimpute.dataset import Dataset
from graphimpute.experiment import ConfigError, parse_config
from graphimpute.graph import build


def _dataset(pairs, m, n):
    return Dataset(
        num_patients=m,
        num_events=n,
        positives=pairs,
        demographics=np.zeros((m, 2)),
    )


def _csr(mask):
    return build(np.argwhere(mask), *mask.shape).matrix()


def _nearest(train_bool, query_bool, k):
    return nearest_train_patients(_csr(train_bool), _csr(query_bool), k)


def _brute_force_knn(train_bool, query_bool, k):
    """Mask of the k smallest (Jaccard distance, train index) pairs per query row."""
    m = train_bool.shape[0]
    out = np.zeros((query_bool.shape[0], m), dtype=bool)
    for qi, q in enumerate(query_bool):
        dists = []
        for ti in range(m):
            t = train_bool[ti]
            union = int(np.sum(q | t))
            inter = int(np.sum(q & t))
            d = 0.0 if union == 0 else 1.0 - inter / union
            dists.append((d, ti))
        dists.sort()
        out[qi, [ti for _, ti in dists[:k]]] = True
    return out


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KnnConfig(k_neighbors=0)

    def test_distance_is_not_an_option(self):
        with pytest.raises(TypeError):
            KnnConfig(distance="jaccard")
        knn = {"k_neighbors": 10, "distance": "hamming"}
        with pytest.raises(ConfigError, match="unknown config key knn.distance"):
            parse_config({"seed": 7, "data": {"synthetic": {}}, "knn": knn})


class TestNearestTrainPatients:
    def test_matches_brute_force_exactly(self):
        # narrow and sparse rows tie often; row 0 of each side is empty, and
        # the last case has no queries at all
        rng = np.random.default_rng(5)
        for m, t, n, density in ((50, 20, 30, 0.2), (12, 4, 1, 0.4), (12, 4, 7, 0.4),
                                 (12, 4, 9, 0.4), (12, 4, 15, 0.1), (9, 0, 5, 0.3)):
            train_bool = rng.random((m, n)) < density
            query_bool = rng.random((t, n)) < density
            train_bool[0] = False
            query_bool[:1] = False
            for k in (1, 3, 7, m):
                got = _nearest(train_bool, query_bool, k)
                expect = _brute_force_knn(train_bool, query_bool, k)
                assert np.array_equal(got, expect), (m, t, n, k)

    def test_identical_patient_is_nearest(self):
        train_bool = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]], dtype=bool)
        got = _nearest(train_bool, train_bool[[1]], 1)
        assert got.tolist() == [[False, True, False]]

    def test_ties_resolve_to_lower_index(self):
        # all-zero query: row 2 at distance 0, then rows 0 and 1 tie at distance 1
        train_bool = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool)
        query_bool = np.zeros((1, 3), dtype=bool)
        got = _nearest(train_bool, query_bool, 2)
        assert got.tolist() == [[True, False, True]]

    def test_jaccard_empty_vs_empty_is_zero_distance(self):
        train_bool = np.array([[1, 1, 1], [0, 0, 0]], dtype=bool)
        query_bool = np.zeros((1, 3), dtype=bool)
        got = _nearest(train_bool, query_bool, 1)
        assert got.tolist() == [[False, True]]

    def test_padding_bits_do_not_leak(self):
        # widths not divisible by 8, given as is and padded with empty event
        # columns up to the next byte: the padding must not move a neighbour
        rng = np.random.default_rng(9)
        for n in (1, 7, 9, 15):
            train_bool = rng.random((12, n)) < 0.4
            query_bool = rng.random((4, n)) < 0.4
            padded = -(-n // 8) * 8
            train_padded = build(np.argwhere(train_bool), 12, padded).matrix()
            query_padded = build(np.argwhere(query_bool), 4, padded).matrix()
            expect = _brute_force_knn(train_bool, query_bool, 3)
            got = _nearest(train_bool, query_bool, 3)
            assert np.array_equal(got, expect), n
            got = nearest_train_patients(train_padded, query_padded, 3)
            assert np.array_equal(got, expect), n


class TestKnnImpute:
    def test_identical_patient_k1_reproduces_profile(self):
        train = _dataset([[0, 0], [0, 2], [1, 1]], 2, 4)
        test_visible = np.array([[0, 0], [0, 2]])
        grid = knn_impute(train, test_visible, 1, KnnConfig(k_neighbors=1))
        assert grid.tolist() == [[1.0, 0.0, 1.0, 0.0]]

    def test_k_equal_m_gives_train_frequency(self):
        rng = np.random.default_rng(3)
        mask = rng.random((12, 6)) < 0.3
        train = _dataset(np.column_stack(np.nonzero(mask)), 12, 6)
        test_visible = np.array([[0, 0]])
        grid = knn_impute(train, test_visible, 1, KnnConfig(k_neighbors=12))
        assert np.allclose(grid[0], train.event_frequencies())

    def test_k_equal_m_gives_every_query_train_frequency(self, monkeypatch):
        rng = np.random.default_rng(8)
        mask = rng.random((40, 9)) < 0.3
        train = _dataset(np.column_stack(np.nonzero(mask)), 40, 9)
        visible = np.column_stack(np.nonzero(rng.random((11, 9)) < 0.3))
        cfg = KnnConfig(k_neighbors=40)
        expect = np.tile(train.event_frequencies(), (11, 1))
        # three query rows per block, with a partial last block
        for cells in (3 * 40, 10**6):
            monkeypatch.setattr(baselines, "KNN_BLOCK_CELLS", cells)
            assert np.array_equal(knn_impute(train, visible, 11, cfg), expect)

    def test_scores_live_on_k_lattice(self):
        rng = np.random.default_rng(4)
        mask = rng.random((30, 10)) < 0.2
        train = _dataset(np.column_stack(np.nonzero(mask)), 30, 10)
        vis_mask = rng.random((5, 10)) < 0.2
        grid = knn_impute(
            train, np.column_stack(np.nonzero(vis_mask)), 5, KnnConfig(k_neighbors=4)
        )
        assert np.allclose(grid * 4, np.round(grid * 4), atol=1e-12)
        assert grid.min() >= 0.0 and grid.max() <= 1.0

    def test_grid_does_not_depend_on_block_size(self, monkeypatch):
        rng = np.random.default_rng(6)
        mask = rng.random((30, 10)) < 0.2
        train = _dataset(np.column_stack(np.nonzero(mask)), 30, 10)
        vis_mask = rng.random((7, 10)) < 0.2
        visible = np.column_stack(np.nonzero(vis_mask))
        cfg = KnnConfig(k_neighbors=4)
        nearest = _brute_force_knn(mask, vis_mask, 4)
        expect = np.array([mask[row].mean(axis=0) for row in nearest])
        # one row per block, blocks of 2 with a partial last block, one block
        for cells in (1, 2 * 30, 10**6):
            monkeypatch.setattr(baselines, "KNN_BLOCK_CELLS", cells)
            grid = knn_impute(train, visible, 7, cfg)
            assert np.array_equal(grid, expect), cells

    def test_empty_train_raises(self):
        train = _dataset(np.empty((0, 2), dtype=np.int64), 0, 3)
        with pytest.raises(ValueError, match="empty train"):
            knn_impute(train, np.empty((0, 2)), 1, KnnConfig(k_neighbors=1))

    def test_k_beyond_train_size_raises(self):
        train = _dataset([[0, 0]], 1, 2)
        with pytest.raises(ValueError, match="k_neighbors"):
            knn_impute(train, np.empty((0, 2)), 1, KnnConfig(k_neighbors=2))

    def test_repeated_visible_pair_raises(self):
        train = _dataset([[0, 0], [1, 1]], 2, 2)
        with pytest.raises(ValueError, match="^edges must ascend with no repeats$"):
            knn_impute(train, np.array([[0, 1], [0, 1]]), 1, KnnConfig(k_neighbors=1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_of_train_patient_scores_its_events_high(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((25, 12)) < 0.25
        mask[:, 0] = False
        mask[0, 0] = True  # make patient 0 distinctive
        train = _dataset(np.column_stack(np.nonzero(mask)), 25, 12)
        dup = np.column_stack(np.nonzero(mask[:1]))
        grid = knn_impute(train, dup, 1, KnnConfig(k_neighbors=1))
        assert np.array_equal(grid[0].astype(bool), mask[0])


class TestFrequencyBaseline:
    def test_rows_repeat_train_frequencies(self):
        train = _dataset([[0, 0], [1, 0], [2, 1]], 4, 3)
        grid = frequency_baseline(train, num_test_patients=2)
        assert grid.shape == (2, 3)
        assert np.allclose(grid[0], [0.5, 0.25, 0.0])
        assert np.array_equal(grid[0], grid[1])
