import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from graphimpute import dataset as ds_mod
from graphimpute.dataset import (
    Dataset,
    SplitSpec,
    demographics_stats,
    filter_rare_events,
    generate_synthetic,
    load_triplets,
    split,
    standardize_demographics,
    write_dataset,
    write_json,
    write_table,
)
from graphimpute.graph import build


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def test_dataset_positives_sorted_and_deduplicated():
    pairs = [(2, 1), (0, 3), (2, 1), (0, 1)]
    out = Dataset(3, 4, pairs, np.zeros((3, 2))).positives
    assert out.tolist() == [[0, 1], [0, 3], [2, 1]]
    assert out.dtype == np.int64


def test_dataset_positives_empty():
    assert Dataset(2, 2, [], np.zeros((2, 2))).positives.shape == (0, 2)


def test_dataset_fills_absent_labels():
    d = Dataset(2, 3, [], np.zeros((2, 2)), event_labels=["a", "b", "c"])
    assert d.event_labels == ["a", "b", "c"]
    assert d.event_categories == ["", "", ""]
    assert d.patient_labels == ["p000000", "p000001"]
    with pytest.raises(ValueError, match="^patient_labels length does not match num_patients$"):
        Dataset(2, 3, [], np.zeros((2, 2)), patient_labels=["p"])


def test_dataset_validates_ranges():
    with pytest.raises(ValueError, match="event index"):
        Dataset(2, 2, np.array([[0, 5]]), np.zeros((2, 2)))
    # event 2 of patient 0 would encode as event 0 of patient 1
    with pytest.raises(ValueError, match="event index"):
        Dataset(2, 2, [[0, 2]], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="patient index"):
        Dataset(2, 2, np.array([[-1, 0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="demographics shape"):
        Dataset(2, 2, np.array([[0, 0]]), np.zeros((3, 2)))


def test_event_counts_and_frequencies():
    d = Dataset(4, 3, np.array([[0, 0], [1, 0], [2, 2]]), np.zeros((4, 2)))
    assert d.event_counts().tolist() == [2, 0, 1]
    assert np.allclose(d.event_frequencies(), [0.5, 0.0, 0.25])


class TestIndicatorMatrix:
    def test_empty_pairs(self):
        # a dataset without positives gives an all-zero patients x events matrix
        d = Dataset(2, 2, [], np.zeros((2, 2)))
        out = build(d.positives, d.num_patients, d.num_events).matrix()
        assert out.dtype == np.float64
        assert out.shape == (2, 2) and out.nnz == 0


def _two_branch_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    extremes = np.array(
        [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 36.7, -36.7, 709.8, -745.2,
         5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max]
    )
    x = np.concatenate([extremes, rng.normal(scale=4.0, size=5000),
                        rng.uniform(-750.0, 750.0, size=5000)])
    got = ds_mod._sigmoid(x)
    assert np.array_equal(got.view(np.uint64), _two_branch_sigmoid(x).view(np.uint64))
    grid = x[:4800].reshape(16, 300)
    assert np.array_equal(ds_mod._sigmoid(grid), _two_branch_sigmoid(grid))
    assert np.isnan(ds_mod._sigmoid(np.array([np.nan]))).all()
    # the out= path: into a separate array, with and without scratch, and in
    # place, where the scratch array's old contents must not matter
    x = np.array([0.0, -0.0, 36.8, -36.8, 745.0, -745.0, np.inf, -np.inf, 0.3, -2.5, np.nan])
    expected = ds_mod._sigmoid(x)
    assert np.array_equal(expected[:-1].view(np.uint64), _two_branch_sigmoid(x[:-1]).view(np.uint64))
    out = np.full_like(x, 7.0)
    assert ds_mod._sigmoid(x, out=out) is out
    assert out.tobytes() == expected.tobytes()
    got = ds_mod._sigmoid(x, out=np.empty_like(x), scratch=np.full_like(x, -3.0))
    assert got.tobytes() == expected.tobytes()
    y = x.reshape(1, -1).copy()
    assert ds_mod._sigmoid(y, out=y, scratch=np.full(y.shape, np.nan)) is y
    assert y.tobytes() == expected.tobytes() and np.isnan(y[0, -1])


def test_logit_matches_scipy_bit_for_bit():
    # the generator's starting intercepts; the same formula in numpy's log and
    # log1p, or the one-branch log(p / (1 - p)), differs on ~2% and ~25% of these
    rng = np.random.default_rng(0)
    edges = [np.nextafter(v, t) for v in (0.3, 0.65) for t in (0.0, v, 1.0)]
    p = np.concatenate([rng.random(300_000), rng.uniform(1e-4, 0.4, 300_000),
                        np.linspace(0.29, 0.66, 100_001), edges])
    assert np.array_equal(ds_mod._logit(p).view(np.uint64), logit(p).view(np.uint64))


class TestLoadTriplets:
    def test_duplicate_collapse_and_reindexing(self, tmp_path):
        _write(tmp_path / "t.csv", "p1,eA\np1,eA\np2,eB\n")
        _write(tmp_path / "d.csv", "p1,50,M\np2,60,F\n")
        d = load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")
        assert d.num_patients == 2 and d.num_events == 2
        assert d.positives.tolist() == [[0, 0], [1, 1]]
        assert d.demographics[:, 1].tolist() == [1.0, 0.0]

    def test_empty_triplets(self, tmp_path):
        _write(tmp_path / "t.csv", "")
        _write(tmp_path / "d.csv", "a,30,0\nb,40,1\nc,50,F\n")
        d = load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")
        assert d.num_patients == 3 and len(d.positives) == 0

    def test_malformed_row_names_line(self, tmp_path):
        _write(tmp_path / "t.csv", "p1,eA,extra\n")
        _write(tmp_path / "d.csv", "p1,50,M\n")
        with pytest.raises(ValueError, match="line 1"):
            load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")

    def test_missing_patient_listed(self, tmp_path):
        _write(tmp_path / "t.csv", "ghost,eA\np1,eA\n")
        _write(tmp_path / "d.csv", "p1,50,M\n")
        with pytest.raises(ValueError, match="ghost"):
            load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")

    def test_duplicate_patient_rejected(self, tmp_path):
        _write(tmp_path / "t.csv", "")
        _write(tmp_path / "d.csv", "p1,50,M\np1,51,F\n")
        with pytest.raises(ValueError, match="duplicate patient"):
            load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")

    def test_headers_skipped(self, tmp_path):
        _write(tmp_path / "t.csv", "patient_id,event_id\np1,eA\n")
        _write(tmp_path / "d.csv", "patient_id,age,sex\np1,50,1\n")
        d = load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")
        assert d.num_patients == 1 and len(d.positives) == 1

    def test_write_dataset_round_trip(self, tmp_path):
        d, _ = generate_synthetic(40, 12, 3, 0.1, seed=5)
        write_dataset(d, tmp_path / "t.csv", tmp_path / "d.csv")
        back = load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")
        assert back.patient_labels == d.patient_labels
        kept = sorted(set(d.positives[:, 1].tolist()))
        assert back.event_labels == [d.event_labels[j] for j in kept]
        assert np.array_equal(back.positives[:, 0], d.positives[:, 0])
        assert np.array_equal(np.array(kept)[back.positives[:, 1]], d.positives[:, 1])
        assert np.allclose(back.demographics, d.demographics, rtol=1e-9, atol=0)
        # a dataset built without labels is written with its default ones
        write_dataset(Dataset(2, 2, [[1, 1]], np.zeros((2, 2))), tmp_path / "t.csv", tmp_path / "d.csv")
        back = load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")
        assert back.patient_labels == ["p000000", "p000001"] and back.event_labels == ["e00001"]

    def test_quoted_id_round_trips(self, tmp_path):
        # csv quoting wrote 'B "b"' as '"B ""b"""', which _read_rows does not
        # unquote, so it came back as another id that sorts before "A"
        d = Dataset(
            2, 3, np.array([[0, 1], [1, 0], [1, 2]]), np.array([[50.0, 1.0], [60.0, 0.0]]),
            event_labels=["A", 'B "b"', "C"], patient_labels=['p "1"', "p2"],
        )
        write_dataset(d, tmp_path / "t.csv", tmp_path / "d.csv")
        back = load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")
        assert back.event_labels == d.event_labels
        assert back.patient_labels == d.patient_labels
        assert np.array_equal(back.positives, d.positives)

    def test_write_table_cell_formats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(
            path,
            {
                "label": ['a "b"', "c"],
                "count": [np.int64(3), 4],
                "value": [1 / 3, float("nan")],
                "numpy_float": list(np.array([0.1, 2.0])),
                "preformatted": ["0.500000", "x"],
            },
        )
        assert path.read_bytes().decode() == (
            "label,count,value,numpy_float,preformatted\r\n"
            'a "b",3,0.3333333333,0.1,0.500000\r\n'
            "c,4,nan,2,x\r\n"
        )
        with pytest.raises(ValueError):
            write_table(path, {"a": [1, 2], "b": [1]})

    def test_write_table_array_and_list_columns_give_same_bytes(self, tmp_path):
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 1 / 3, 1e17])
        ints = np.array([-5, 0, 3, -(2**62), 7, 2**40, -1], dtype=np.int64)
        numeric = {
            "row": range(-3, 4),
            "value": floats,
            "count": ints,
            "single": floats.astype(np.float32),
            "unsigned": np.arange(7, dtype=np.uint8),
        }
        write_table(tmp_path / "fast.csv", numeric)
        # lists of Python numbers are %s columns, their floats preformatted
        write_table(tmp_path / "slow.csv", {k: np.asarray(c).tolist() for k, c in numeric.items()})
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "slow.csv").read_bytes()
        assert fast == (
            b"row,value,count,single,unsigned\r\n"
            b"-3,nan,-5,nan,0\r\n"
            b"-2,inf,0,inf,1\r\n"
            b"-1,-inf,3,-inf,2\r\n"
            b"0,-0,-4611686018427387904,-0,3\r\n"
            b"1,1e-300,7,0,4\r\n"
            b"2,0.3333333333,1099511627776,0.3333333433,5\r\n"
            b"3,1e+17,-1,9.999999843e+16,6\r\n"
        )
        # bool and str arrays keep str(), written verbatim
        write_table(tmp_path / "t.csv", {"flag": np.array([True, False]), "name": np.array(['a "b"', "c"])})
        assert (tmp_path / "t.csv").read_bytes() == b'flag,name\r\nTrue,a "b"\r\nFalse,c\r\n'
        write_table(tmp_path / "t.csv", {"a": np.array([]), "b": range(0)})
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\r\n"
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", {"a": np.zeros(2), "b": range(1)})

    @pytest.mark.parametrize("cell", [" a", "a ", "a,b", "a\nb", "a\rb", "\ta"])
    def test_write_table_refuses_unreadable_cell(self, tmp_path, cell):
        # written verbatim, " a" read back as "a" and "a,b" as two fields
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"column 'name', row 3: cell .* would not read back"):
            write_table(path, {"row": range(3), "name": ["a", "b", cell]})
        assert not path.exists()
        # a cohort is refused whole: neither of its files is written
        for labels, refusal in (({"event_labels": ["a", cell], "patient_labels": ["p"]},
                                 r"t\.csv: column 'event_id', row 2"),
                                ({"event_labels": ["a", "b"], "patient_labels": [cell]},
                                 r"d\.csv: column 'patient_id', row 1")):
            d = Dataset(1, 2, [[0, 0], [0, 1]], np.zeros((1, 2)), **labels)
            with pytest.raises(ValueError, match=refusal):
                write_dataset(d, tmp_path / "t.csv", tmp_path / "d.csv")
            assert not path.exists() and not (tmp_path / "d.csv").exists()

    def test_write_json_sorted_with_final_newline(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": 1, "a": [0.5]})
        assert (tmp_path / "a.json").read_text() == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'

    def test_bad_sex_value(self, tmp_path):
        _write(tmp_path / "t.csv", "")
        _write(tmp_path / "d.csv", "p1,50,X\n")
        with pytest.raises(ValueError, match="bad sex"):
            load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")

    @pytest.mark.parametrize("age", ["old", "nan", "NaN", "inf", "-Infinity"])
    def test_bad_age_names_file_and_line(self, tmp_path, age):
        # a non-finite age would reach every score through message passing
        _write(tmp_path / "t.csv", "p1,e1\n")
        _write(tmp_path / "d.csv", f"p1,50,M\np2,{age},F\n")
        with pytest.raises(ValueError, match=rf"d\.csv: line 2: bad age '{age}'"):
            load_triplets(tmp_path / "t.csv", tmp_path / "d.csv")


class TestFilterRareEvents:
    def test_boundary_single_positive_kept(self):
        # threshold ceil(0.001 * 1000) = 1, so one positive survives
        pos = np.array([[0, 0], [1, 1], [2, 1]])
        d = Dataset(1000, 3, pos, np.zeros((1000, 2)))
        filtered, emap = filter_rare_events(d, 0.001)
        assert filtered.num_events == 2
        assert emap.tolist() == [0, 1, -1]

    def test_zero_positive_event_removed(self):
        d = Dataset(1000, 2, np.array([[0, 0]]), np.zeros((1000, 2)))
        filtered, emap = filter_rare_events(d, 0.001)
        assert filtered.num_events == 1
        assert emap.tolist() == [0, -1]

    def test_column_tally_oracle(self):
        d, _ = generate_synthetic(2000, 400, 6, 0.01, seed=9)
        threshold = 0.002
        filtered, emap = filter_rare_events(d, threshold)
        # independent dense per-column tally
        dense = np.zeros((d.num_patients, d.num_events), dtype=bool)
        dense[d.positives[:, 0], d.positives[:, 1]] = True
        counts = dense.sum(axis=0)
        expected_keep = counts >= math.ceil(threshold * d.num_patients)
        assert filtered.num_events == int(expected_keep.sum())
        assert np.array_equal(emap >= 0, expected_keep)

    def test_idempotent(self):
        d, _ = generate_synthetic(500, 80, 4, 0.02, seed=3)
        once, _ = filter_rare_events(d, 0.01)
        twice, emap = filter_rare_events(once, 0.01)
        assert twice.num_events == once.num_events
        assert np.array_equal(twice.positives, once.positives)
        assert np.array_equal(emap, np.arange(once.num_events))

    def test_all_removed_error(self):
        d = Dataset(1000, 1, np.array([[0, 0]]), np.zeros((1000, 2)))
        with pytest.raises(ValueError, match="empty dataset after filtering"):
            filter_rare_events(d, 0.5)


class TestSplit:
    def test_mask_rounding_forced(self):
        # one test patient with 10 positives at mask fraction 0.3 -> 3 held out
        pos = np.array([[i, j] for i in range(10) for j in range(10)])
        d = Dataset(10, 10, pos, np.zeros((10, 2)))
        sd = split(d, SplitSpec(train_fraction=0.9, test_mask_fraction=0.3, seed=0))
        assert sd.test_visible.num_patients == 1
        assert len(sd.test_heldout) == 3
        assert len(sd.test_visible.positives) == 7

    def test_partition_invariant(self):
        d, _ = generate_synthetic(200, 30, 4, 0.1, seed=21)
        sd = split(d, SplitSpec(seed=4))
        local = sd.test_visible
        vis = {(int(i), int(j)) for i, j in local.positives}
        held = {(int(i), int(j)) for i, j in sd.test_heldout}
        assert not vis & held
        # reconstruct the original positives of the test patients
        test_ids = sd.test_patient_indices
        orig = {
            (int(np.searchsorted(test_ids, i)), int(j))
            for i, j in d.positives
            if i in set(test_ids.tolist())
        }
        assert vis | held == orig

    def test_train_fraction_rounding(self):
        d = Dataset(10, 2, np.array([[0, 0]]), np.zeros((10, 2)))
        sd = split(d, SplitSpec(train_fraction=0.7, seed=1))
        assert sd.train.num_patients == 7
        assert sd.test_visible.num_patients == 3

    def test_deterministic(self):
        d, _ = generate_synthetic(100, 20, 3, 0.1, seed=8)
        a = split(d, SplitSpec(seed=12))
        b = split(d, SplitSpec(seed=12))
        assert np.array_equal(a.train_patient_indices, b.train_patient_indices)
        assert np.array_equal(a.test_heldout, b.test_heldout)
        assert np.array_equal(a.test_visible.positives, b.test_visible.positives)

    def test_benchmark_heldout_digest(self):
        # the held-out cells of the seed-101 benchmark split (split seed 5),
        # as drawn by one rng.choice(np.arange(lo, hi)) per test patient
        ds, _ = generate_synthetic(5000, 500, 10, 0.02, seed=101)
        filtered, emap = filter_rare_events(ds, 0.001)
        sd = split(filtered, SplitSpec(0.7, 0.3, 0.001, seed=5), event_index_map=emap)
        assert hashlib.sha256(sd.test_heldout.tobytes()).hexdigest() == (
            "b07db56655a53542de9d9bff8d8dedbeaba7ff5b8ce27dd7b1111d6d83339123"
        )

    @pytest.mark.parametrize(
        "fraction, kept", [(0.3, True), (0.5, False)], ids=["0.3-kept", "0.5-held-out"]
    )
    def test_degree_one_patient_keeps_positive(self, fraction, kept):
        # round(0.3 * 1) = 0 held out, round(0.5 * 1) = 1 (half up)
        pos = np.array([[i, 0] for i in range(10)])
        d = Dataset(10, 1, pos, np.zeros((10, 2)))
        sd = split(d, SplitSpec(train_fraction=0.5, test_mask_fraction=fraction, seed=2))
        visible = sd.test_visible.num_patients if kept else 0
        assert len(sd.test_visible.positives) == visible
        assert len(sd.test_heldout) == sd.test_visible.num_patients - visible

    def test_too_few_patients(self):
        d = Dataset(1, 1, np.array([[0, 0]]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            split(d, SplitSpec())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)
        with pytest.raises(ValueError):
            SplitSpec(test_mask_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(min_event_frequency=1.5)


class TestGenerateSynthetic:
    def test_truth_density_calibrated(self):
        ds, truth = generate_synthetic(5000, 500, 10, 0.02, seed=101)
        density = len(truth) / (5000 * 500)
        assert 0.015 <= density <= 0.025

    def test_observed_subset_of_truth(self, small_cohort):
        ds, truth = small_cohort
        truth_set = {(int(i), int(j)) for i, j in truth}
        assert all((int(i), int(j)) in truth_set for i, j in ds.positives)

    def test_same_seed_identical(self):
        a, ta = generate_synthetic(100, 20, 3, 0.05, seed=77)
        b, tb = generate_synthetic(100, 20, 3, 0.05, seed=77)
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.demographics, b.demographics)
        assert np.array_equal(ta, tb)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, 10, 3, 0.6, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 10, 0, 0.1, seed=0)
        for observe in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="observe_probability"):
                generate_synthetic(10, 10, 3, 0.1, seed=0, observe_probability=observe)

    def test_benchmark_cohort_digest(self):
        # the bytes of the seed-101 benchmark cohort as bisection calibrated it
        ds, truth = generate_synthetic(5000, 500, 10, 0.02, seed=101)
        h = hashlib.sha256()
        for a in (truth, ds.positives, ds.demographics):
            h.update(np.ascontiguousarray(a).tobytes())
        assert h.hexdigest() == (
            "c909f4f75b640f67e68c25875a725b062895116a7e681506ea65776685ff9712"
        )

    @pytest.mark.parametrize("shape", [(150, 40, 4, 0.08, 17), (2000, 400, 6, 0.01, 9)])
    def test_cohort_does_not_depend_on_block_size(self, monkeypatch, shape):
        m, n, rank, density, seed = shape
        whole = generate_synthetic(m, n, rank, density, seed=seed)
        # blocks of 7 patients with a ragged last block
        monkeypatch.setattr(ds_mod, "GENERATE_BLOCK_CELLS", 7 * n + 3)
        blocked = generate_synthetic(m, n, rank, density, seed=seed)
        assert whole[1].tobytes() == blocked[1].tobytes()
        assert whole[0].positives.tobytes() == blocked[0].positives.tobytes()
        assert whole[0].demographics.tobytes() == blocked[0].demographics.tobytes()
        assert whole[0].event_categories == blocked[0].event_categories

    def test_generation_peak_allocation_is_bounded(self):
        import tracemalloc

        # the traced peak read 3.54-3.55 MB at seeds 101, 7, 202, 3 and 11,
        # reached while `Dataset` sorts the observed pairs; fresh 2 MB
        # temporaries per 2^18-cell block read 11.7 MB, and one array of the
        # whole patient x event grid is 20 MB
        for seed in (101, 7):
            tracemalloc.start()
            try:
                generate_synthetic(5000, 500, 10, 0.02, seed=seed)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4_000_000, seed

    def test_intercepts_hit_prevalence(self, monkeypatch):
        # Newton on the log of the mean takes 5 sweeps here, plain Newton 9; a
        # safeguard that fell back to bisection would not reach 1e-12 within 8.
        monkeypatch.setattr(ds_mod, "_CALIBRATE_MAX_SWEEPS", 8)
        rng = np.random.default_rng(0)
        m, n = 5000, 500
        factors_p = rng.normal(size=(m, 10))
        factors_e = rng.normal(size=(n, 10))
        raw = rng.lognormal(size=n)
        prevalence = np.clip(raw * (0.02 / raw.mean()), 1e-4, 0.4)
        blocks = [slice(start, start + 1200) for start in range(0, m, 1200)]
        bias = ds_mod._calibrate_intercepts(factors_p, factors_e, prevalence, blocks)
        mean = expit(factors_p @ factors_e.T + bias).mean(axis=0)
        assert np.max(np.abs(mean - prevalence) / prevalence) <= 1e-12

    def test_intercepts_hit_prevalence_where_cells_saturate(self, monkeypatch):
        # factors x3 give logits of standard deviation ~28, so many cells
        # saturate: the mean is exp-like in b, where plain Newton gains ~1 nat
        # per sweep, and intercepts fall to ~-200, below the [-30, 30] start
        # bracket; they are reached because the probit start lies below them
        monkeypatch.setattr(ds_mod, "_CALIBRATE_MAX_SWEEPS", 8)
        rng = np.random.default_rng(0)
        m, n = 5000, 500
        factors_p = 3 * rng.normal(size=(m, 10))
        factors_e = 3 * rng.normal(size=(n, 10))
        prevalence = np.where(np.arange(n) % 2 == 0, 1e-4, 0.4)
        blocks = [slice(start, start + 1200) for start in range(0, m, 1200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bias = ds_mod._calibrate_intercepts(factors_p, factors_e, prevalence, blocks)
        mean = expit(factors_p @ factors_e.T + bias).mean(axis=0)
        assert np.max(np.abs(mean - prevalence) / prevalence) <= 1e-12

    def test_unsettled_calibration_is_refused(self, monkeypatch):
        # one sweep leaves every event short of its stop, whatever its error
        monkeypatch.setattr(ds_mod, "_CALIBRATE_MAX_SWEEPS", 1)
        with pytest.raises(ValueError, match=r"left 40 of 40 events off their prevalence"):
            generate_synthetic(150, 40, 4, 0.08, seed=17)

    def test_root_outside_bracket_is_refused(self):
        # one patient at 100 and 999 at 0 put the root of event 0 near -102;
        # the probit start (-20.5) lies inside [-30, 30], so the iterate
        # settles on the -30 edge with its mean ~10x the prevalence. Event 1
        # has its root inside and calibrates.
        factors_p = np.zeros((1000, 1))
        factors_p[0] = 100.0
        factors_e = np.ones((2, 1))
        prevalence = np.array([1e-4, 0.05])
        with pytest.raises(ValueError, match=r"left 1 of 2 events .* error 9\)"):
            ds_mod._calibrate_intercepts(factors_p, factors_e, prevalence, [slice(0, 1000)])


def test_standardize_demographics_uses_given_stats():
    demo = np.column_stack([np.array([40.0, 50.0, 60.0]), np.array([0.0, 1.0, 1.0])])
    stats = demographics_stats(demo)
    out = standardize_demographics(demo, stats)
    assert abs(out[:, 0].mean()) < 1e-12
    assert abs(out[:, 0].std() - 1.0) < 1e-12
    assert np.array_equal(out[:, 1], demo[:, 1])
    # applying train stats to other data uses those stats, not its own
    other = standardize_demographics(np.array([[50.0, 0.0]]), stats)
    assert abs(float(other[0, 0])) < 1e-12


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 15)), min_size=0, max_size=60
    )
)
@settings(max_examples=50, deadline=None)
def test_dataset_positives_are_sorted_unique(pairs):
    out = Dataset(21, 16, pairs, np.zeros((21, 2))).positives
    assert len(set(map(tuple, out.tolist()))) == len(out)
    assert sorted(map(tuple, out.tolist())) == list(map(tuple, out.tolist()))
    assert set(map(tuple, out.tolist())) == set(pairs)


# Ids as real files hold them: quotes, inner spaces and non-ASCII letters, but
# no comma, line break or outer space (write_table refuses those).
_ids = st.text(alphabet="aZ09 \"'éßЖ中-", min_size=1, max_size=6).filter(lambda s: s == s.strip())


@given(
    st.lists(_ids, min_size=1, max_size=8, unique=True),
    st.lists(_ids, min_size=1, max_size=8, unique=True),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_write_dataset_round_trips_labelled_pairs(tmp_path_factory, patients, events, data):
    m, n = len(patients), len(events)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=30))
    demo = data.draw(st.lists(
        st.tuples(st.floats(0, 120, allow_nan=False), st.sampled_from([0.0, 1.0])),
        min_size=m, max_size=m,
    ))
    d = Dataset(m, n, np.array(pairs, dtype=np.int64).reshape(-1, 2), np.array(demo),
                event_labels=events, patient_labels=patients)
    tmp = tmp_path_factory.mktemp("rt")
    write_dataset(d, tmp / "t.csv", tmp / "d.csv")
    back = load_triplets(tmp / "t.csv", tmp / "d.csv")

    def labelled(ds):
        return {(ds.patient_labels[i], ds.event_labels[j]) for i, j in ds.positives.tolist()}

    assert labelled(back) == labelled(d)
    assert back.patient_labels == patients
    assert np.allclose(back.demographics, d.demographics, rtol=1e-9, atol=0)
