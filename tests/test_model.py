import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import expit

from conftest import random_bipartite
from graphimpute import model
from graphimpute.dataset import Dataset
from graphimpute.graph import build
from graphimpute.model import (
    CHECKPOINT_FORMAT_VERSION,
    ModelConfig,
    encode_patients,
    forward_trace,
    init_event_embeddings_svd,
    init_params,
    load_checkpoint,
    mean_operators,
    message_pass,
    save_checkpoint,
    score_edges_raw,
    score_grid,
)


def _small_config(**kw):
    base = dict(embedding_dim=4, num_layers=2, scorer_hidden=3)
    base.update(kw)
    return ModelConfig(**base)


def _dataset_from_pairs(pairs, m, n):
    return Dataset(
        num_patients=m,
        num_events=n,
        positives=pairs,
        demographics=np.zeros((m, 2)),
    )


def _zero_layer(params, idx=None):
    """Set layer weights so the round is an identity on both sides."""
    rng = range(len(params.layers)) if idx is None else [idx]
    for i in rng:
        layer = params.layers[i]
        d = layer.w_self_p.shape[0]
        layer.w_self_p[...] = np.eye(d)
        layer.w_nbr_p[...] = 0.0
        layer.b_p[...] = 0.0
        layer.w_self_e[...] = np.eye(d)
        layer.w_nbr_e[...] = 0.0
        layer.b_e[...] = 0.0


def _dense_reference(params, config, g, p0, e0):
    """Loop-based forward used as an independent oracle for message_pass."""
    adj = np.zeros((g.num_patients, g.num_events))
    for i, j in g.all_edges():
        adj[i, j] = 1.0
    p, e = np.array(p0), np.array(e0)
    last = config.num_layers - 1
    for idx in range(config.num_layers):
        layer = params.layers[idx]
        mp = np.zeros_like(p)
        me = np.zeros_like(e)
        for i in range(g.num_patients):
            nbrs = np.nonzero(adj[i])[0]
            if len(nbrs):
                mp[i] = e[nbrs].mean(axis=0)
        for j in range(g.num_events):
            nbrs = np.nonzero(adj[:, j])[0]
            if len(nbrs):
                me[j] = p[nbrs].mean(axis=0)
        p_new = p @ layer.w_self_p + mp @ layer.w_nbr_p + layer.b_p
        e_new = e @ layer.w_self_e + me @ layer.w_nbr_e + layer.b_e
        if idx < last:
            p_new = np.maximum(p_new, 0.0)
            e_new = np.maximum(e_new, 0.0)
        p, e = p_new, e_new
    return p, e


def _csr_event_operator(g):
    """The event-side mean operator as an explicit event-row CSR, as it was
    built before it became a view: the transpose converted with `.tocsr()`."""
    deg_e = g.event_degrees()
    inv_e = np.divide(1.0, deg_e, out=np.zeros(len(deg_e)), where=deg_e > 0)
    shape = (g.num_patients, g.num_events)
    return sp.csr_matrix(
        (inv_e[g.patient_indices], g.patient_indices, g.patient_indptr), shape=shape
    ).T.tocsr()


def _csr_event_message_pass(params, g, p, e, patient_rows=slice(None)):
    """`message_pass` as it was before it streamed the patient CSR: the
    event-row CSR operator and one fresh array per term."""
    ap, ae = mean_operators(g)[0], _csr_event_operator(g)
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        me = ae @ p
        if idx == last:
            p, ap = p[patient_rows], ap[patient_rows]
        p_new = p @ layer.w_self_p + ap @ (e @ layer.w_nbr_p) + layer.b_p
        e_new = e @ layer.w_self_e + me @ layer.w_nbr_e + layer.b_e
        if idx < last:
            p_new, e_new = np.maximum(p_new, 0.0), np.maximum(e_new, 0.0)
        p, e = p_new, e_new
    return p, e


def _bytes_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMeanOperators:
    def test_rows_average_neighbors(self, tiny_graph):
        ap, ae = mean_operators(tiny_graph)
        e0 = np.arange(5, dtype=float)[:, None]
        # patient 0 has events {0, 2} -> mean 1.0
        assert ap.shape == (6, 5)
        assert (ap @ e0)[0, 0] == pytest.approx(1.0)
        p0 = np.arange(6, dtype=float)[:, None]
        # event 3 has patients {1, 2} -> mean 1.5
        assert (ae @ p0)[3, 0] == pytest.approx(1.5)

    def test_isolated_rows_are_zero(self):
        g = build(np.array([[0, 0]]), 3, 2)
        ap, ae = mean_operators(g)
        x = np.ones((2, 3))
        assert np.array_equal((ap @ x)[1], np.zeros(3))
        assert np.array_equal((ae @ np.ones((3, 3)))[1], np.zeros(3))

    def test_event_view_products_match_the_event_row_csr(self):
        # isolated patients and events, and rows of every length up to dense
        rng = np.random.default_rng(41)
        pairs = random_bipartite(rng, 200, 60, 0.2)
        pairs = pairs[(pairs[:, 0] % 17 != 3) & (pairs[:, 1] % 11 != 5)]
        g = build(pairs, 200, 60)
        ae, csr = mean_operators(g)[1], _csr_event_operator(g)
        x, y = rng.normal(size=(200, 7)), rng.normal(size=(60, 7))
        assert ae.shape == csr.shape == (60, 200)
        assert _bytes_equal(ae @ x, csr @ x)
        assert _bytes_equal(ae.T @ y, csr.T @ y)


class TestEncode:
    def test_affine_relu_oracle(self):
        params = init_params(_small_config(), num_events=3, seed=0)
        params.encoder_weight[...] = np.array([[1.0, -1.0, 0.0, 2.0], [0.0, 1.0, 1.0, 0.0]])
        params.encoder_bias[...] = np.array([0.5, 0.0, -3.0, 0.0])
        demo = np.array([[1.0, 2.0], [-1.0, 0.0]])
        expect = np.array([[1.5, 1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 0.0]])
        assert np.allclose(encode_patients(params, demo), expect, atol=1e-12)


class TestMessagePass:
    def test_matches_dense_reference(self, tiny_graph):
        rng = np.random.default_rng(3)
        config = _small_config(num_layers=3)
        params = init_params(config, num_events=5, seed=1)
        p0 = rng.normal(size=(6, 4))
        e0 = rng.normal(size=(5, 4))
        p, e = message_pass(params, tiny_graph, p0, e0)
        p_ref, e_ref = _dense_reference(params, config, tiny_graph, p0, e0)
        assert np.allclose(p, p_ref, atol=1e-10)
        assert np.allclose(e, e_ref, atol=1e-10)

    def test_matches_aggregate_then_map(self):
        # the patient side maps the events before aggregating, ap @ (e @ w);
        # the reference aggregates first, (ap @ e) @ w
        rng = np.random.default_rng(5)
        pairs = np.argwhere(rng.random((60, 25)) < 0.15)
        g = build(pairs, 60, 25)
        config = _small_config(embedding_dim=8, num_layers=3)
        params = init_params(config, num_events=25, seed=6)
        p, e = rng.normal(size=(60, 8)), rng.normal(size=(25, 8))
        got = message_pass(params, g, p, e)
        ap, ae = mean_operators(g)
        for idx, layer in enumerate(params.layers):
            p_new = p @ layer.w_self_p + (ap @ e) @ layer.w_nbr_p + layer.b_p
            e_new = e @ layer.w_self_e + (ae @ p) @ layer.w_nbr_e + layer.b_e
            if idx < len(params.layers) - 1:
                p_new, e_new = np.maximum(p_new, 0.0), np.maximum(e_new, 0.0)
            p, e = p_new, e_new
        np.testing.assert_allclose(got[0], p, rtol=1e-12)
        np.testing.assert_allclose(got[1], e, rtol=1e-12)

    def test_identity_layers_pass_through(self, tiny_graph):
        config = _small_config(num_layers=2)
        params = init_params(config, num_events=5, seed=2)
        _zero_layer(params)
        p0 = np.abs(np.random.default_rng(0).normal(size=(6, 4)))
        e0 = np.abs(np.random.default_rng(1).normal(size=(5, 4)))
        p, e = message_pass(params, tiny_graph, p0, e0)
        # nonnegative inputs survive the inter-layer relu unchanged
        assert np.allclose(p, p0, atol=1e-12)
        assert np.allclose(e, e0, atol=1e-12)

    def test_single_layer_pure_aggregation(self):
        g = build(np.array([[0, 0], [0, 1], [1, 1]]), 3, 2)
        config = _small_config(num_layers=1)
        params = init_params(config, num_events=2, seed=3)
        layer = params.layers[0]
        layer.w_self_p[...] = 0.0
        layer.w_nbr_p[...] = np.eye(4)
        layer.b_p[...] = 0.0
        layer.w_self_e[...] = 0.0
        layer.w_nbr_e[...] = np.eye(4)
        layer.b_e[...] = 0.0
        p0 = np.random.default_rng(4).normal(size=(3, 4))
        e0 = np.random.default_rng(5).normal(size=(2, 4))
        p, e = message_pass(params, g, p0, e0)
        assert np.allclose(p[0], (e0[0] + e0[1]) / 2, atol=1e-12)
        assert np.allclose(p[1], e0[1], atol=1e-12)
        assert np.array_equal(p[2], np.zeros(4))  # isolated patient
        assert np.allclose(e[1], (p0[0] + p0[1]) / 2, atol=1e-12)

    def test_updates_use_previous_round_states(self):
        # event update must read pre-update patient states; doubling the
        # patient self map would otherwise leak into the event mean
        g = build(np.array([[0, 0]]), 1, 1)
        config = _small_config(num_layers=1)
        params = init_params(config, num_events=1, seed=6)
        layer = params.layers[0]
        layer.w_self_p[...] = 2 * np.eye(4)
        layer.w_nbr_p[...] = 0.0
        layer.b_p[...] = 0.0
        layer.w_self_e[...] = 0.0
        layer.w_nbr_e[...] = np.eye(4)
        layer.b_e[...] = 0.0
        p0 = np.full((1, 4), 3.0)
        e0 = np.zeros((1, 4))
        _, e = message_pass(params, g, p0, e0)
        assert np.allclose(e[0], p0[0], atol=1e-12)

    def test_patient_permutation_equivariance(self, tiny_graph):
        rng = np.random.default_rng(7)
        config = _small_config(num_layers=3)
        params = init_params(config, num_events=5, seed=8)
        p0 = rng.normal(size=(6, 4))
        e0 = rng.normal(size=(5, 4))
        p, e = message_pass(params, tiny_graph, p0, e0)
        perm = rng.permutation(6)
        pairs = tiny_graph.all_edges().copy()
        inv = np.empty(6, dtype=np.int64)
        inv[perm] = np.arange(6)
        pairs[:, 0] = inv[pairs[:, 0]]
        g2 = build(np.unique(pairs, axis=0), 6, 5)
        p2, e2 = message_pass(params, g2, p0[perm], e0)
        assert np.allclose(p2, p[perm], atol=1e-10)
        assert np.allclose(e2, e, atol=1e-10)

    def test_aggregate_stays_in_convex_hull(self):
        rng = np.random.default_rng(9)
        raw = np.column_stack([np.repeat(np.arange(8), 3), rng.integers(0, 6, 24)])
        g = build(np.unique(raw, axis=0), 8, 6)
        config = _small_config(num_layers=1)
        params = init_params(config, num_events=6, seed=10)
        layer = params.layers[0]
        layer.w_self_p[...] = 0.0
        layer.w_nbr_p[...] = np.eye(4)
        layer.b_p[...] = 0.0
        e0 = rng.normal(size=(6, 4))
        p, _ = message_pass(params, g, np.zeros((8, 4)), e0)
        assert np.all(p >= e0.min(axis=0) - 1e-12)
        assert np.all(p <= e0.max(axis=0) + 1e-12)

    def test_empty_graph_is_finite(self):
        g = build(np.empty((0, 2), dtype=np.int64), 4, 3)
        config = _small_config()
        params = init_params(config, num_events=3, seed=11)
        p, e = message_pass(
            params, g,
            np.random.default_rng(0).normal(size=(4, 4)),
            np.random.default_rng(1).normal(size=(3, 4)),
        )
        assert np.all(np.isfinite(p)) and np.all(np.isfinite(e))

    @pytest.mark.parametrize(
        "rows", [slice(230, None), slice(0), slice(None), slice(0, 300)], ids=["tail", "empty", "all", "all-explicit"]
    )
    def test_patient_rows_keep_the_full_pass_rows(self, rows):
        rng = np.random.default_rng(33)
        g = build(random_bipartite(rng, 300, 40, 0.1), 300, 40)
        params = init_params(_small_config(embedding_dim=16, num_layers=3), num_events=40, seed=34)
        p0, e0 = rng.normal(size=(300, 16)), params.event_embeddings
        p_full, e_full = message_pass(params, g, p0, e0)
        p, e = message_pass(params, g, p0, e0, patient_rows=rows)
        assert p.tobytes() == p_full[rows].tobytes() and p.shape == p_full[rows].shape
        assert e.tobytes() == e_full.tobytes()

    @pytest.mark.parametrize("rows", [slice(None), slice(230, None), slice(0)], ids=["all", "tail", "empty"])
    def test_same_bytes_as_the_event_row_csr_pass(self, rows):
        rng = np.random.default_rng(37)
        g = build(random_bipartite(rng, 300, 40, 0.1), 300, 40)
        params = init_params(_small_config(embedding_dim=16, num_layers=3), num_events=40, seed=38)
        p0, e0 = rng.normal(size=(300, 16)), params.event_embeddings
        got = message_pass(params, g, p0, e0, patient_rows=rows)
        expect = _csr_event_message_pass(params, g, p0, e0, patient_rows=rows)
        assert _bytes_equal(got[0], expect[0]) and _bytes_equal(got[1], expect[1])

    def test_trimmed_patient_rows_refuse_a_trace(self, tiny_graph):
        params = init_params(_small_config(), num_events=5, seed=35)
        p0 = np.random.default_rng(36).normal(size=(6, 4))
        with pytest.raises(ValueError, match="patient_rows"):
            message_pass(params, tiny_graph, p0, params.event_embeddings, model.ForwardTrace(), slice(3, None))
        trace = model.ForwardTrace()
        message_pass(params, tiny_graph, p0, params.event_embeddings, trace, slice(0, 6))
        assert trace.patient_states[-1].shape == (6, 4)


class TestScorer:
    def test_zero_weights_give_half(self):
        params = init_params(_small_config(), num_events=2, seed=0)
        params.scorer_w1[...] = 0.0
        probs, _ = score_edges_raw(params, np.ones((2, 4)), np.ones((2, 4)), [[0, 0], [1, 1]])
        assert np.allclose(probs, 0.5, atol=1e-15)

    def test_large_bias_saturates(self):
        params = init_params(_small_config(), num_events=2, seed=0)
        params.scorer_w1[...] = 0.0
        params.scorer_b2[...] = 30.0
        hi, _ = score_edges_raw(params, np.zeros((1, 4)), np.zeros((1, 4)), [[0, 0]])
        params.scorer_b2[...] = -30.0
        lo, _ = score_edges_raw(params, np.zeros((1, 4)), np.zeros((1, 4)), [[0, 0]])
        assert hi[0] == pytest.approx(1.0, abs=1e-12) and hi[0] < 1.0
        assert lo[0] == pytest.approx(0.0, abs=1e-12) and lo[0] > 0.0

    def test_hand_computed_instance(self):
        params = init_params(_small_config(embedding_dim=1, scorer_hidden=2), num_events=1, seed=0)
        params.scorer_w1[...] = np.array([[1.0, -1.0], [2.0, 1.0]])
        params.scorer_b1[...] = np.array([0.0, 0.5])
        params.scorer_w2[...] = np.array([1.0, 2.0])
        params.scorer_b2[...] = -0.5
        p_lat = np.array([[2.0], [-1.0]])
        e_lat = np.array([[-1.0], [1.0]])
        # (0, 0): u = [2, -1]; h_pre = [0, -2.5]; h = [0, 0]; logit = -0.5
        # (1, 1): u = [-1, 1]; h_pre = h = [1, 2.5]; logit = 1 + 5 - 0.5 = 5.5
        probs, h = score_edges_raw(params, p_lat, e_lat, [[0, 0], [1, 1]])
        assert np.array_equal(h, [[0.0, 0.0], [1.0, 2.5]])
        logits = np.log(probs / (1.0 - probs))
        assert logits == pytest.approx([-0.5, 5.5])
        assert probs[0] == pytest.approx(1 / (1 + np.exp(0.5)), abs=1e-12)

    def test_pair_blocks_match_one_gather(self, monkeypatch):
        rng = np.random.default_rng(16)
        params = init_params(_small_config(), num_events=7, seed=17)
        p_lat = rng.normal(size=(9, 4))
        e_lat = rng.normal(size=(7, 4))
        # 50 pairs at 8 per block: six full blocks and a partial one of 2
        pairs = np.column_stack([rng.integers(0, 9, 50), rng.integers(0, 7, 50)])
        monkeypatch.setattr(model, "PAIR_BLOCK_ROWS", 8)
        probs, h = score_edges_raw(params, p_lat, e_lat, pairs)
        left, right = model._first_layer_halves(params, p_lat, e_lat)
        ref_h = np.maximum(left[pairs[:, 0]] + right[pairs[:, 1]], 0.0)
        ref_probs = model._sigmoid(ref_h @ params.scorer_w2 + params.scorer_b2)
        assert h.tobytes() == ref_h.tobytes()
        assert probs.tobytes() == ref_probs.tobytes()

    def test_grid_matches_pairwise(self, monkeypatch):
        rng = np.random.default_rng(14)
        params = init_params(_small_config(), num_events=7, seed=15)
        p_lat = rng.normal(size=(9, 4))
        e_lat = rng.normal(size=(7, 4))
        # 9 rows at 4 per block end in a partial block of 1
        monkeypatch.setattr(model, "GRID_BLOCK_ROWS", 4)
        grid = score_grid(params, p_lat, e_lat)
        pairs = np.column_stack(
            [np.repeat(np.arange(9), 7), np.tile(np.arange(7), 9)]
        )
        flat, _ = score_edges_raw(params, p_lat, e_lat, pairs)
        assert np.allclose(grid.reshape(-1), flat, atol=1e-12)
        monkeypatch.setattr(model, "GRID_BLOCK_ROWS", 128)
        assert np.array_equal(grid, score_grid(params, p_lat, e_lat))

    @pytest.mark.parametrize("block_rows, group_rows, hidden", [
        pytest.param(1, 64, 5, id="1-64"),
        pytest.param(4, 12, 5, id="4-12"),
        pytest.param(8, 64, 5, id="8-64"),
        pytest.param(128, 64, 5, id="128-64"),
        # the default block at the benchmark's 32 hidden units; groups of 20
        # end every group in a ragged block of 4, and 149 rows end in a ragged
        # group of 9
        pytest.param(8, 20, 32, id="8-20-hidden32"),
    ])
    def test_grid_matches_block_loop_with_separate_sigmoid(
        self, monkeypatch, block_rows, group_rows, hidden
    ):
        # the block loop before the in-place epilogue: a new logit array per
        # block, then the constant, a sigmoid into new arrays and the clip
        def reference(params, p_lat, e_lat):
            left, right = model._first_layer_halves(params, p_lat, e_lat)
            neg_right = np.ascontiguousarray(-right.T)
            const = right @ params.scorer_w2 + params.scorer_b2
            out = np.empty((len(p_lat), len(e_lat)))
            for start in range(0, len(p_lat), block_rows):
                h = np.maximum(left[start : start + block_rows, :, None], neg_right)
                x = params.scorer_w2 @ h + const
                ex = np.exp(-np.abs(x))
                out[start : start + block_rows] = np.where(x >= 0, 1.0, ex) / (1.0 + ex)
            return np.clip(out, model.PROB_EPS, 1.0 - model.PROB_EPS)

        rng = np.random.default_rng(22)
        params = init_params(_small_config(embedding_dim=6, scorer_hidden=hidden), num_events=37, seed=23)
        # 149 rows: ragged last blocks and groups; at scale 20 many logits
        # saturate, and at 100 over a tenth of the cells sit at each clip
        for scale in (1.0, 20.0, 100.0):
            p_lat, e_lat = rng.normal(size=(149, 6)) * scale, rng.normal(size=(37, 6)) * scale
            monkeypatch.setattr(model, "GRID_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(model, "GRID_GROUP_ROWS", group_rows)
            expected = reference(params, p_lat, e_lat)
            if scale == 100.0:
                for clip in (model.PROB_EPS, 1.0 - model.PROB_EPS):
                    assert np.mean(expected == clip) > 0.1
            assert score_grid(params, p_lat, e_lat).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [1, 50])
    def test_grid_matches_dense_reference(self, scale):
        # integer latents and first-layer weights make both halves exact, so
        # some hidden pre-activations are exactly zero (left == -right); at
        # scale 50 most logits saturate
        rng = np.random.default_rng(18)
        params = init_params(_small_config(scorer_hidden=5), num_events=7, seed=19)
        params.scorer_w1[...] = rng.integers(-2, 3, size=params.scorer_w1.shape).astype(float)
        params.scorer_b1[...] = rng.integers(-2, 3, size=5) * float(scale)
        rows = 2 * model.GRID_BLOCK_ROWS + 3  # the last block is ragged
        p_lat = rng.integers(-2, 3, size=(rows, 4)) * float(scale)
        e_lat = rng.integers(-2, 3, size=(7, 4)) * float(scale)
        left = p_lat @ params.scorer_w1[:4]
        right = e_lat @ params.scorer_w1[4:] + params.scorer_b1
        pre = left[:, None, :] + right[None, :, :]
        assert np.any((pre == 0.0) & (left[:, None, :] != 0.0))
        logits = np.maximum(pre, 0.0) @ params.scorer_w2 + params.scorer_b2
        expected = np.clip(expit(logits), model.PROB_EPS, 1.0 - model.PROB_EPS)
        if scale == 50:
            assert np.mean(np.abs(logits) > 35.0) > 0.5
        np.testing.assert_allclose(score_grid(params, p_lat, e_lat), expected, rtol=0, atol=1e-12)

    def test_grid_peak_allocation_is_bounded(self):
        import tracemalloc

        # the grid, one block of hidden units, one epilogue group's scratch and
        # a few arrays the size of the first-layer halves; a second temporary
        # the size of a block's hidden units fails at 32 units, and a second
        # grid-sized array (a whole-grid sigmoid's temporary) at 2000 rows
        for t, n, hidden in ((200, 100, 32), (2000, 100, 4)):
            rng = np.random.default_rng(20)
            params = init_params(_small_config(scorer_hidden=hidden), num_events=n, seed=21)
            p_lat, e_lat = rng.normal(size=(t, 4)), rng.normal(size=(n, 4))
            score_grid(params, p_lat, e_lat)
            tracemalloc.start()
            try:
                score_grid(params, p_lat, e_lat)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            bound = 8 * (
                t * n
                + model.GRID_BLOCK_ROWS * hidden * n
                + model.GRID_GROUP_ROWS * n
                + 4 * (t + n) * hidden
            )
            assert peak <= bound, (t, n, hidden)

    def test_scores_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(16)
        params = init_params(_small_config(), num_events=5, seed=17)
        probs = score_grid(params, rng.normal(size=(20, 4)) * 50, rng.normal(size=(5, 4)) * 50)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


class TestSvdInit:
    def test_block_matrix_exact_oracle(self):
        # disjoint all-ones blocks: singular values sqrt(rows*cols), right
        # vectors the normalized column indicators
        pairs = (
            [[i, j] for i in range(12) for j in range(8)]
            + [[12 + i, 8 + j] for i in range(6) for j in range(5)]
            + [[18 + i, 13 + j] for i in range(4) for j in range(2)]
        )
        ds = _dataset_from_pairs(pairs, 22, 15)
        emb = init_event_embeddings_svd(ds, 3, seed=0)
        sigmas = [np.sqrt(96.0), np.sqrt(30.0), np.sqrt(8.0)]
        supports = [range(0, 8), range(8, 13), range(13, 15)]
        for col, (sigma, sup) in enumerate(zip(sigmas, supports)):
            expect = np.zeros(15)
            expect[list(sup)] = np.sqrt(sigma) / np.sqrt(len(sup))
            got = emb[:, col]
            err = min(np.abs(got - expect).max(), np.abs(got + expect).max())
            assert err < 1e-8

    def test_subspace_agrees_with_dense_svd(self, monkeypatch):
        rng = np.random.default_rng(21)
        mask = rng.random((150, 50)) < 0.15
        ds = _dataset_from_pairs(np.column_stack(np.nonzero(mask)), 150, 50)
        monkeypatch.setattr(model, "SVD_POWER_ITERS", 20)
        emb = init_event_embeddings_svd(ds, 5, seed=1)
        dense = np.zeros((150, 50))
        dense[mask] = 1.0
        _, _, vt = np.linalg.svd(dense)
        angles = scipy.linalg.subspace_angles(emb, vt[:5].T)
        assert angles.max() < 1e-3

    def test_scaling_uses_sqrt_of_singular_value(self):
        pairs = [[i, j] for i in range(9) for j in range(4)]
        ds = _dataset_from_pairs(pairs, 9, 4)
        emb = init_event_embeddings_svd(ds, 1, seed=0)
        # rank one: sigma = 6, v = 1/2 ones
        assert np.allclose(np.abs(emb[:, 0]), np.sqrt(6.0) / 2.0, atol=1e-8)

    def test_rank_deficit_warns_and_noise_fills(self):
        pairs = [[i, j] for i in range(5) for j in range(3)]
        ds = _dataset_from_pairs(pairs, 5, 6)  # events 3..5 never occur: rank 1
        with pytest.warns(UserWarning, match="rank"):
            emb = init_event_embeddings_svd(ds, 4, seed=2)
        assert emb.shape == (6, 4)
        sigma1 = np.sqrt(15.0)
        assert np.allclose(np.abs(emb[:3, 0]), np.sqrt(sigma1) / np.sqrt(3.0), atol=1e-8)
        noise = emb[:, 1:]
        assert np.all(noise != 0.0)
        assert np.abs(noise).max() < 0.1 * np.sqrt(sigma1)

    def test_dim_beyond_matrix_side_is_allowed(self):
        rng = np.random.default_rng(23)
        mask = rng.random((20, 10)) < 0.4
        ds = _dataset_from_pairs(np.column_stack(np.nonzero(mask)), 20, 10)
        with pytest.warns(UserWarning, match="rank"):
            emb = init_event_embeddings_svd(ds, 16, seed=3)
        assert emb.shape == (10, 16)
        assert np.all(np.isfinite(emb))

    def test_deterministic(self, small_cohort):
        ds, _ = small_cohort
        a = init_event_embeddings_svd(ds, 6, seed=9)
        b = init_event_embeddings_svd(ds, 6, seed=9)
        assert np.array_equal(a, b)


class TestInitParams:
    def test_shapes_and_zero_biases(self):
        config = _small_config(num_layers=3)
        params = init_params(config, num_events=7, seed=0)
        assert params.event_embeddings.shape == (7, 4)
        assert params.encoder_weight.shape == (2, 4)
        assert len(params.layers) == 3
        assert params.scorer_w1.shape == (8, 3)
        assert params.scorer_w2.shape == (3,)
        assert params.scorer_b2.shape == ()
        for name, tensor in params.named_tensors():
            if name.endswith((".bias", ".b_p", ".b_e", ".b1", ".b2")):
                assert np.all(tensor == 0.0), name

    def test_glorot_ranges(self):
        params = init_params(_small_config(), num_events=5, seed=1)
        assert np.abs(params.encoder_weight).max() <= np.sqrt(6.0 / 6.0)
        assert np.abs(params.scorer_w1).max() <= np.sqrt(6.0 / 11.0)
        for layer in params.layers:
            assert np.abs(layer.w_self_p).max() <= np.sqrt(6.0 / 8.0)

    def test_deterministic_and_seed_sensitive(self):
        config = _small_config()
        a = dict(init_params(config, 5, seed=4).named_tensors())
        b = dict(init_params(config, 5, seed=4).named_tensors())
        c = dict(init_params(config, 5, seed=5).named_tensors())
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_embedding_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            init_params(_small_config(), 5, seed=0, event_embeddings=np.zeros((4, 4)))

    def test_check_finite_names_offender(self):
        params = init_params(_small_config(), 5, seed=0)
        params.scorer_b1[0] = np.nan
        with pytest.raises(FloatingPointError, match="scorer.b1"):
            params.check_finite()


class TestForwardTrace:
    def test_final_states_match_message_pass(self, tiny_graph):
        rng = np.random.default_rng(31)
        config = _small_config(num_layers=3)
        params = init_params(config, num_events=5, seed=32)
        demo = rng.normal(size=(6, 2))
        trace = forward_trace(params, tiny_graph, demo)
        p, e = message_pass(
            params, tiny_graph,
            encode_patients(params, demo), params.event_embeddings,
        )
        assert np.array_equal(trace.patient_states[-1], p)
        assert np.array_equal(trace.event_states[-1], e)
        assert len(trace.patient_states) == len(trace.event_states) == 4
        assert len(trace.event_means) == 3


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        config = _small_config(num_layers=3)
        params = init_params(config, num_events=6, seed=40)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, config, params, "split")
        config2, params2, split = load_checkpoint(path)
        assert config2 == config and split == "split"
        orig = dict(params.named_tensors())
        for name, tensor in params2.named_tensors():
            assert np.array_equal(tensor, orig[name]), name
            assert tensor.dtype == orig[name].dtype, name

    def test_loads_file_with_extras(self, tmp_path):
        import json

        # version-3 files written before extras were dropped list them in the
        # meta and store each as an extra/ array; both are ignored on load
        config = _small_config()
        params = init_params(config, num_events=3, seed=42)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, config, params, "split")
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["extras"] = ["loss_history"]
        arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
        arrays["extra/loss_history"] = np.array([0.7, 0.6])
        np.savez(path, **arrays)
        config2, params2, _ = load_checkpoint(path)
        assert config2 == config
        orig = dict(params.named_tensors())
        for name, tensor in params2.named_tensors():
            assert np.array_equal(tensor, orig[name]), name

    def test_rejects_unknown_version(self, tmp_path):
        import json

        config = _small_config()
        params = init_params(config, num_events=3, seed=41)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, config, params, "split")
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        # 999 is unknown; 1 is the format whose model config had layer_bias,
        # 2 the one whose model config had demographics_dim, 3 the one without
        # a split fingerprint
        versions = ((999, {}), (1, {"layer_bias": True}), (2, {"demographics_dim": 2}), (3, {}))
        for version, extra in versions:
            meta["format_version"] = version
            meta["config"].update(extra)
            arrays["meta"] = np.array(json.dumps(meta))
            np.savez(path, **arrays)
            with pytest.raises(ValueError, match="version"):
                load_checkpoint(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")
