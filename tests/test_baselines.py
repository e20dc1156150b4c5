import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphimpute.baselines import (
    KnnConfig,
    binary_rows,
    frequency_baseline,
    knn_impute,
    nearest_train_patients,
)
from graphimpute.dataset import Dataset


def _dataset(pairs, m, n):
    return Dataset(
        num_patients=m,
        num_events=n,
        positives=pairs,
        demographics=np.zeros((m, 2)),
    )


def _brute_force_knn(train_bool, query_bool, k, distance):
    m = train_bool.shape[0]
    out = np.empty((query_bool.shape[0], k), dtype=np.int64)
    for qi, q in enumerate(query_bool):
        dists = []
        for ti in range(m):
            t = train_bool[ti]
            if distance == "hamming":
                d = int(np.sum(q ^ t))
            else:
                union = int(np.sum(q | t))
                inter = int(np.sum(q & t))
                d = 0.0 if union == 0 else 1.0 - inter / union
            dists.append((d, ti))
        dists.sort()
        out[qi] = [ti for _, ti in dists[:k]]
    return out


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KnnConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            KnnConfig(distance="cosine")


class TestBinaryRows:
    def test_sets_exact_cells(self):
        out = binary_rows(np.array([[0, 1], [2, 0]]), 3, 2)
        assert out.tolist() == [[False, True], [False, False], [True, False]]

    def test_empty_pairs(self):
        assert not binary_rows(np.empty((0, 2), dtype=np.int64), 2, 2).any()


class TestNearestTrainPatients:
    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        train_bool = rng.random((50, 30)) < 0.2
        query_bool = rng.random((20, 30)) < 0.2
        for distance in ("hamming", "jaccard"):
            got = nearest_train_patients(
                np.packbits(train_bool, axis=1),
                np.packbits(query_bool, axis=1),
                k=7,
                distance=distance,
                block_size=8,
            )
            expect = _brute_force_knn(train_bool, query_bool, 7, distance)
            assert np.array_equal(got, expect), distance

    def test_identical_patient_is_nearest(self):
        train_bool = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]], dtype=bool)
        query_bool = train_bool[[1]]
        got = nearest_train_patients(
            np.packbits(train_bool, axis=1), np.packbits(query_bool, axis=1), 1, "hamming"
        )
        assert got[0, 0] == 1

    def test_ties_resolve_to_lower_index(self):
        # all-zero query equidistant from two single-bit train rows
        train_bool = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool)
        query_bool = np.zeros((1, 3), dtype=bool)
        got = nearest_train_patients(
            np.packbits(train_bool, axis=1), np.packbits(query_bool, axis=1), 3, "hamming"
        )
        assert got[0].tolist() == [2, 0, 1]

    def test_jaccard_empty_vs_empty_is_zero_distance(self):
        train_bool = np.array([[0, 0, 0], [1, 1, 1]], dtype=bool)
        query_bool = np.zeros((1, 3), dtype=bool)
        got = nearest_train_patients(
            np.packbits(train_bool, axis=1), np.packbits(query_bool, axis=1), 1, "jaccard"
        )
        assert got[0, 0] == 0

    def test_padding_bits_do_not_leak(self):
        # widths not divisible by 8 exercise the packbits padding
        rng = np.random.default_rng(9)
        for n in (1, 7, 9, 15):
            train_bool = rng.random((12, n)) < 0.4
            query_bool = rng.random((4, n)) < 0.4
            got = nearest_train_patients(
                np.packbits(train_bool, axis=1), np.packbits(query_bool, axis=1), 3, "hamming"
            )
            expect = _brute_force_knn(train_bool, query_bool, 3, "hamming")
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

    def test_empty_train_raises(self):
        train = _dataset(np.empty((0, 2), dtype=np.int64), 0, 3)
        with pytest.raises(ValueError, match="empty train"):
            knn_impute(train, np.empty((0, 2)), 1, KnnConfig(k_neighbors=1))

    def test_k_beyond_train_size_raises(self):
        train = _dataset([[0, 0]], 1, 2)
        with pytest.raises(ValueError, match="k_neighbors"):
            knn_impute(train, np.empty((0, 2)), 1, KnnConfig(k_neighbors=2))

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
