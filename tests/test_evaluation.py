import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphimpute import evaluation
from graphimpute.evaluation import (
    BiasProfile,
    MetricsReport,
    assign_frequency_bins,
    bias_profile,
    cosine_neighbors,
    evaluate,
    export_event_embeddings,
    frequency_bin_edges,
    recall_frequency_spearman,
    write_bias_csv,
    write_per_event_csv,
    write_summary_json,
)


def _three_patient_instance():
    """One event, three test patients: one visible, one held out, one never measured."""
    scores = np.array([[0.9], [0.4], [0.6]])
    visible = np.array([[1, 0]])
    heldout = np.array([[0, 0]])
    freqs = np.array([0.3])
    return scores, visible, heldout, freqs


def _dense_counts(scores, visible, heldout, cutoff):
    """(tp, fn, tn, fp) per event from dense t x n masks; the reference count."""
    t, n = scores.shape
    predicted = scores > cutoff
    held_mask = np.zeros((t, n), dtype=bool)
    held_mask[heldout[:, 0], heldout[:, 1]] = True
    measured = held_mask.copy()
    measured[visible[:, 0], visible[:, 1]] = True
    unmeasured = ~measured
    return tuple(
        np.count_nonzero(mask, axis=0)
        for mask in (
            predicted & held_mask,
            ~predicted & held_mask,
            ~predicted & unmeasured,
            predicted & unmeasured,
        )
    )


class TestEvaluate:
    def test_three_patient_worked_example(self):
        scores, visible, heldout, freqs = _three_patient_instance()
        report = evaluate(scores, visible, heldout, freqs)
        assert report.tp[0] == 1 and report.fn[0] == 0
        assert report.tn[0] == 0 and report.fp[0] == 1
        assert report.sensitivity[0] == 1.0
        assert report.specificity[0] == 0.0
        assert report.balanced_accuracy[0] == 0.5

    def test_visible_entries_never_counted(self):
        scores, visible, heldout, freqs = _three_patient_instance()
        report = evaluate(scores, visible, heldout, freqs)
        # 3 cells, 1 visible: only 2 enter the confusion table
        assert report.tp[0] + report.fn[0] + report.tn[0] + report.fp[0] == 2

    def test_strict_inequality_at_cutoff(self):
        scores = np.array([[0.5], [0.5]])
        report = evaluate(scores, np.empty((0, 2)), np.array([[0, 0]]), np.array([0.2]))
        # score == cutoff imputes negative
        assert report.tp[0] == 0 and report.fn[0] == 1
        assert report.tn[0] == 1 and report.fp[0] == 0

    def test_all_high_scores(self):
        scores = np.full((4, 2), 0.99)
        heldout = np.array([[0, 0], [1, 1]])
        report = evaluate(scores, np.empty((0, 2)), heldout, np.array([0.5, 0.5]))
        assert np.all(report.sensitivity == 1.0)
        assert np.all(report.specificity == 0.0)

    def test_all_low_scores(self):
        scores = np.full((4, 2), 0.01)
        heldout = np.array([[0, 0], [1, 1]])
        report = evaluate(scores, np.empty((0, 2)), heldout, np.array([0.5, 0.5]))
        assert np.all(report.sensitivity == 0.0)
        assert np.all(report.specificity == 1.0)

    def test_event_without_heldout_has_nan_sensitivity(self):
        scores = np.array([[0.9, 0.1]])
        report = evaluate(scores, np.empty((0, 2)), np.array([[0, 0]]), np.array([0.5, 0.5]))
        assert np.isnan(report.sensitivity[1])
        assert not np.isnan(report.specificity[1])
        assert np.isnan(report.balanced_accuracy[1])

    def test_fully_measured_event_has_nan_specificity(self):
        scores = np.array([[0.9], [0.2]])
        report = evaluate(
            scores, np.array([[1, 0]]), np.array([[0, 0]]), np.array([0.4])
        )
        assert np.isnan(report.specificity[0])

    def test_train_frequency_policy_uses_per_event_cutoffs(self):
        scores = np.array([[0.3, 0.3]])
        freqs = np.array([0.2, 0.4])
        report = evaluate(
            scores, np.empty((0, 2)), np.array([[0, 0], [0, 1]]), freqs,
            cutoff_policy="train_frequency",
        )
        # 0.3 > 0.2 but not > 0.4
        assert report.tp.tolist() == [1, 0]
        assert report.fn.tolist() == [0, 1]
        assert report.fixed_cutoff is None

    def test_unknown_policy_raises(self):
        scores, visible, heldout, freqs = _three_patient_instance()
        with pytest.raises(ValueError, match="cutoff policy"):
            evaluate(scores, visible, heldout, freqs, cutoff_policy="roc")

    def test_out_of_range_pairs_raise(self):
        scores, visible, heldout, freqs = _three_patient_instance()
        with pytest.raises(ValueError, match="heldout"):
            evaluate(scores, visible, np.array([[3, 0]]), freqs)

    @pytest.mark.parametrize("bad, cell", [
        (np.nan, "test row 1, event column 0"),
        (np.inf, "test row 2, event column 3"),
    ])
    def test_non_finite_score_is_refused_naming_its_cell(self, bad, cell):
        # a nan row used to count as negative predictions: the patient's
        # held-out positive became a false negative, its other cells true
        # negatives, and specificity read 0.333 where the finite rows give 0
        scores = np.full((3, 4), 0.9)
        if np.isnan(bad):
            scores[1] = bad
        else:
            scores[2, 3] = bad
        visible = np.array([[0, 0], [1, 1], [2, 2]])
        heldout = np.array([[0, 1], [1, 0], [2, 0]])
        with pytest.raises(ValueError, match=rf"score cell \({cell}\) is {bad}, not finite"):
            evaluate(scores, visible, heldout, np.full(4, 0.3))

    def test_summary_recomputes_from_per_event_values(self):
        rng = np.random.default_rng(0)
        scores = rng.random((30, 8))
        heldout = np.column_stack([rng.integers(0, 30, 40), rng.integers(0, 8, 40)])
        report = evaluate(scores, np.empty((0, 2)), heldout, np.full(8, 0.1))
        s = report.summary()
        defined = report.balanced_accuracy[~np.isnan(report.balanced_accuracy)]
        assert s["balanced_accuracy"]["mean"] == pytest.approx(defined.mean())
        assert s["balanced_accuracy"]["std"] == pytest.approx(defined.std())
        assert s["balanced_accuracy"]["events_defined"] == len(defined)

    def test_counts_match_dense_masks(self):
        rng = np.random.default_rng(21)
        shapes = [(1, 1), (1, 6), (7, 1), (1, 1), (9, 5), (30, 12), (4, 4)]
        for trial in range(60):
            t, n = shapes[trial % len(shapes)]
            scores = rng.random((t, n))
            scores[rng.random((t, n)) < 0.2] = 0.5  # ties at the fixed cutoff
            freqs = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)

            def pairs(count):
                return np.column_stack([rng.integers(0, t, count), rng.integers(0, n, count)])

            # repeats within a list, and overlap between the lists
            heldout = pairs(int(rng.integers(0, 2 * t * n + 1)))
            visible = pairs(int(rng.integers(0, 2 * t * n + 1)))
            if len(heldout) and trial % 3 == 0:
                visible = np.vstack([visible, heldout[: len(heldout) // 2 + 1]])
            for policy, cutoff in (("fixed", 0.5), ("train_frequency", freqs)):
                report = evaluate(scores, visible, heldout, freqs, cutoff_policy=policy)
                want = _dense_counts(scores, visible, heldout, cutoff)
                got = (report.tp, report.fn, report.tn, report.fp)
                for name, a, b in zip(("tp", "fn", "tn", "fp"), got, want):
                    assert np.array_equal(a, b), (trial, policy, name)

    def test_predicted_positive_counts_equal_bool_sums(self):
        # 301 rows: not a multiple of 8, and above a byte's range, so a count
        # of all-True columns kept in uint8 would wrap
        rng = np.random.default_rng(23)
        t, n = 301, 5
        scores = rng.random((t, n))
        scores[:, 0], scores[:, 1] = 1.0, 0.0  # every cell predicted, none predicted
        freqs = np.array([0.2, 0.9, 0.5, 0.0, 0.99])
        heldout = np.column_stack([rng.integers(0, t, 40), rng.integers(0, n, 40)])
        for policy, cutoff in (("fixed", 0.5), ("train_frequency", freqs)):
            report = evaluate(scores, np.empty((0, 2)), heldout, freqs, cutoff_policy=policy)
            want = (scores > cutoff).sum(axis=0)
            assert want[0] == t and want[1] == 0
            assert np.array_equal(report.tp + report.fp, want), policy
            assert report.fp.dtype == report.tp.dtype == np.int64

    def test_counts_with_empty_pair_lists(self):
        rng = np.random.default_rng(22)
        scores = rng.random((5, 3))
        empty = np.empty((0, 2), dtype=np.int64)
        for visible, heldout in ((empty, empty), (np.array([[1, 2], [1, 2]]), empty)):
            report = evaluate(scores, visible, heldout, np.full(3, 0.5))
            want = _dense_counts(scores, visible, heldout, 0.5)
            assert all(
                np.array_equal(a, b)
                for a, b in zip((report.tp, report.fn, report.tn, report.fp), want)
            )

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=20, deadline=None)
    def test_raising_cutoff_never_raises_sensitivity(self, cutoff):
        rng = np.random.default_rng(7)
        scores = rng.random((20, 5))
        heldout = np.column_stack([rng.integers(0, 20, 25), rng.integers(0, 5, 25)])
        lo = evaluate(scores, np.empty((0, 2)), heldout, np.full(5, 0.1), fixed_cutoff=cutoff)
        hi = evaluate(
            scores, np.empty((0, 2)), heldout, np.full(5, 0.1), fixed_cutoff=min(cutoff + 0.3, 0.999)
        )
        assert np.all(hi.tp <= lo.tp)
        assert np.all(hi.fp <= lo.fp)


class TestFrequencyBins:
    def test_edges_span_positive_range(self):
        freqs = np.array([0.001, 0.01, 0.1, 0.0])
        edges = frequency_bin_edges(freqs)
        assert len(edges) == 11
        assert edges[0] == pytest.approx(0.001)
        assert edges[-1] == pytest.approx(0.1)
        assert np.all(np.diff(np.log(edges)) > 0)
        ratios = edges[1:] / edges[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_degenerate_single_frequency(self):
        edges = frequency_bin_edges(np.array([0.05, 0.05]))
        assert len(edges) == 2
        bins = assign_frequency_bins(np.array([0.05, 0.05]), edges)
        assert bins.tolist() == [0, 0]

    def test_zero_frequency_events_unbinned(self):
        freqs = np.array([0.0, 0.01, 0.1])
        bins = assign_frequency_bins(freqs, frequency_bin_edges(freqs))
        assert bins[0] == -1
        assert bins[1] == 0
        assert bins[2] == 9

    def test_all_zero_raises(self):
        with pytest.raises(ValueError, match="positive"):
            frequency_bin_edges(np.zeros(4))

    def test_bin_table_counts_every_positive_event(self):
        rng = np.random.default_rng(3)
        freqs = rng.uniform(0.001, 0.5, 40)
        report = evaluate(
            rng.random((10, 40)),
            np.empty((0, 2)),
            np.column_stack([rng.integers(0, 10, 60), rng.integers(0, 40, 60)]),
            freqs,
        )
        rows = bias_profile(report, report).rows
        assert sum(r["num_events"] for r in rows) == 40
        assert all(r["freq_lo"] < r["freq_hi"] for r in rows)


class TestSpearman:
    def test_monotone_recall_gives_one(self):
        n = 12
        freqs = np.geomspace(0.01, 0.5, n)
        report = MetricsReport(
            cutoff_policy="fixed",
            fixed_cutoff=0.5,
            train_frequencies=freqs,
            tp=np.ones(n, dtype=np.int64),
            fn=np.zeros(n, dtype=np.int64),
            tn=np.ones(n, dtype=np.int64),
            fp=np.zeros(n, dtype=np.int64),
            sensitivity=np.linspace(0.1, 0.9, n),
            specificity=np.ones(n),
            balanced_accuracy=np.ones(n),
        )
        assert recall_frequency_spearman(report) == pytest.approx(1.0)

    def test_constant_recall_is_nan(self):
        n = 5
        report = MetricsReport(
            cutoff_policy="fixed",
            fixed_cutoff=0.5,
            train_frequencies=np.geomspace(0.01, 0.5, n),
            tp=np.ones(n, dtype=np.int64),
            fn=np.zeros(n, dtype=np.int64),
            tn=np.ones(n, dtype=np.int64),
            fp=np.zeros(n, dtype=np.int64),
            sensitivity=np.full(n, 0.4),
            specificity=np.ones(n),
            balanced_accuracy=np.ones(n),
        )
        assert np.isnan(recall_frequency_spearman(report))

    def test_single_defined_event_is_nan(self):
        report = evaluate(
            np.array([[0.9, 0.1]]),
            np.empty((0, 2)),
            np.array([[0, 0]]),
            np.array([0.5, 0.5]),
        )
        assert np.isnan(recall_frequency_spearman(report))


class TestBiasProfile:
    def _report(self, sens):
        n = len(sens)
        freqs = np.geomspace(0.01, 0.5, n)
        return evaluate(
            np.tile(sens, (2, 1)) + 0.2,
            np.empty((0, 2)),
            np.column_stack([np.zeros(n, dtype=np.int64), np.arange(n)]),
            freqs,
        )

    def test_identical_reports_have_equal_columns(self):
        report = self._report(np.linspace(0.1, 0.7, 10))
        profile = bias_profile(report, report)
        for row in profile.rows:
            if row["num_events"]:
                assert row["recall_v1"] == row["recall_v2"]
        assert profile.spearman_v1 == profile.spearman_v2

    def test_mismatched_event_sets_raise(self):
        a = self._report(np.linspace(0.1, 0.7, 10))
        b = self._report(np.linspace(0.1, 0.7, 11))
        with pytest.raises(ValueError, match="event sets"):
            bias_profile(a, b)


class TestCosineNeighbors:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        emb = rng.normal(size=(300, 8))
        idx, sims = cosine_neighbors(emb, top_k=5)
        unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        full = unit @ unit.T
        for j in (0, 17, 299):
            order = sorted(
                (i for i in range(300) if i != j),
                key=lambda i: (-full[j, i], i),
            )[:5]
            assert idx[j].tolist() == order
            assert np.allclose(sims[j], full[j, order], atol=1e-12)

    def test_identical_rows_have_unit_similarity(self):
        emb = np.vstack([np.ones(4), np.ones(4), -np.ones(4)])
        idx, sims = cosine_neighbors(emb, top_k=2)
        assert idx[0, 0] == 1
        assert sims[0, 0] == pytest.approx(1.0)
        assert sims[0, 1] == pytest.approx(-1.0)

    def test_orthogonal_rows(self):
        emb = np.eye(3)
        idx, sims = cosine_neighbors(emb, top_k=2)
        assert np.allclose(sims, 0.0, atol=1e-12)
        # ties resolve to lower indices first
        assert idx[2].tolist() == [0, 1]

    def test_zero_row_scores_zero_everywhere(self):
        emb = np.vstack([np.zeros(4), np.ones(4), 2 * np.ones(4)])
        idx, sims = cosine_neighbors(emb, top_k=2)
        assert np.allclose(sims[0], 0.0)
        assert idx[0].tolist() == [1, 2]

    def test_top_k_clipped_to_population(self):
        idx, sims = cosine_neighbors(np.eye(3), top_k=10)
        assert idx.shape == (3, 2)


class TestWriters:
    def test_per_event_csv_round_trip(self, tmp_path):
        scores, visible, heldout, freqs = _three_patient_instance()
        report = evaluate(scores, visible, heldout, freqs)
        path = tmp_path / "per_event.csv"
        write_per_event_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["tp"] == "1" and rows[0]["fp"] == "1"
        assert float(rows[0]["sensitivity"]) == 1.0
        assert float(rows[0]["train_frequency"]) == 0.3

    def test_summary_json_is_deterministic(self, tmp_path):
        scores, visible, heldout, freqs = _three_patient_instance()
        report = evaluate(scores, visible, heldout, freqs)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(report, a)
        write_summary_json(report, b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["cutoff_policy"] == "fixed"
        assert payload["sensitivity"]["mean"] == 1.0

    def test_nan_metrics_serialize_as_nan_cells(self, tmp_path):
        scores = np.array([[0.9, 0.1]])
        report = evaluate(scores, np.empty((0, 2)), np.array([[0, 0]]), np.array([0.5, 0.5]))
        path = tmp_path / "per_event.csv"
        write_per_event_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["sensitivity"] == "nan"
        assert np.isnan(float(rows[1]["sensitivity"]))

    def test_bias_csv_header_and_rows(self, tmp_path):
        n = 10
        freqs = np.geomspace(0.01, 0.5, n)
        report = evaluate(
            np.tile(np.linspace(0.1, 0.7, n), (2, 1)),
            np.empty((0, 2)),
            np.column_stack([np.zeros(n, dtype=np.int64), np.arange(n)]),
            freqs,
        )
        profile = bias_profile(report, report)
        path = tmp_path / "bias.csv"
        write_bias_csv(profile, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["bin", "freq_lo", "freq_hi", "num_events"]
        assert len(rows) == 11

    def test_export_embeddings_files(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(6, 3))
        epath = tmp_path / "emb.csv"
        npath = tmp_path / "nbr.csv"
        monkeypatch.setattr(evaluation, "EXPORT_NEIGHBORS", 2)
        export_event_embeddings(emb, epath, npath, [f"ev{j}" for j in range(6)], [""] * 6)
        with open(epath) as fh:
            erows = list(csv.reader(fh))
        assert erows[0] == ["event", "category", "dim_0", "dim_1", "dim_2"]
        assert len(erows) == 7
        got = np.array([[float(x) for x in row[2:]] for row in erows[1:]])
        assert np.allclose(got, emb, atol=1e-9)
        with open(npath) as fh:
            nrows = list(csv.DictReader(fh))
        assert len(nrows) == 12
        assert nrows[0]["event"] == "ev0" and nrows[0]["rank"] == "1"
