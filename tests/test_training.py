import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from graphimpute import training
from graphimpute.dataset import generate_synthetic, write_dataset
from graphimpute.graph import build
from graphimpute.model import (
    ModelConfig,
    forward_trace,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_edges_raw,
)
from graphimpute.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LOG_EPS,
    TrainConfig,
    adam_update,
    backward,
    balanced_bce,
    fit,
    init_train_state,
    loss_forward,
    sample_epoch_batch,
    train_epoch,
)

LN2 = float(np.log(2.0))


def _losses(state):
    return [row["loss"] for row in state.epoch_stats]


class TestBalancedBce:
    def test_all_half_is_ln2_exact(self):
        for k in (1, 3, 100):
            loss = balanced_bce(np.full(k, 0.5), np.full(k, 0.5))
            assert abs(loss - LN2) <= 1e-12

    def test_hand_oracle(self):
        loss = balanced_bce([0.9, 0.8], [0.2, 0.1])
        expect = -(np.log(0.9) + np.log(0.8) + np.log(0.8) + np.log(0.9)) / 4.0
        assert loss == pytest.approx(expect, abs=1e-15)

    def test_perfect_scores(self):
        loss = balanced_bce([1.0, 1.0], [0.0, 0.0])
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_clamp_keeps_loss_finite(self):
        loss = balanced_bce([0.0], [1.0])
        assert np.isfinite(loss)
        assert loss == pytest.approx(-np.log(LOG_EPS), abs=1e-9)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty batch"):
            balanced_bce([], [])

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="size"):
            balanced_bce([0.5], [0.5, 0.5])

    def test_returns_python_float(self):
        assert type(balanced_bce([0.5], [0.5])) is float


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(mask_probability=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mask_probability=1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(negative_sampler="importance")
        with pytest.raises(ValueError):
            TrainConfig(warmup_epochs=-1)

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


def _fd_instance():
    # the full graph is these visible edges plus the hidden ones
    g_vis = build(np.array([[0, 0], [1, 1], [1, 3], [2, 4], [3, 0], [3, 1], [4, 2]]), 6, 5)
    hidden = np.array([[0, 2], [2, 3], [5, 4]])
    negatives = np.array([[0, 4], [2, 0], [5, 1]])
    demo = np.random.default_rng(5).normal(size=(6, 2))
    config = ModelConfig(embedding_dim=4, num_layers=3, scorer_hidden=3)
    params = init_params(config, num_events=5, seed=6)
    return params, g_vis, demo, hidden, negatives


class TestBackward:
    def test_finite_difference_spot_check(self):
        params, g, demo, pos, neg = _fd_instance()
        _, grads = backward(params, g, demo, pos, neg)
        tensors = dict(params.named_tensors())
        h = 1e-6
        rng = np.random.default_rng(0)
        for name, tensor in tensors.items():
            flat = tensor.reshape(-1)
            for idx in {0, int(rng.integers(flat.size))}:
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_forward(params, g, demo, pos, neg)
                flat[idx] = orig - h
                down = loss_forward(params, g, demo, pos, neg)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                an = grads[name].reshape(-1)[idx]
                assert an == pytest.approx(fd, rel=1e-4, abs=1e-9), f"{name}[{idx}]"

    def test_event_outside_graph_and_batch_gets_zero_gradient(self):
        params, g, demo, pos, neg = _fd_instance()
        # event 4 appears only through hidden/negative pairs; rebuild both
        # without it and drop its edges from the visible graph
        g2 = build(
            np.array([[0, 0], [1, 1], [1, 3], [3, 0], [3, 1], [4, 2]]), 6, 5
        )
        pos2 = np.array([[0, 2], [2, 3]])
        neg2 = np.array([[2, 0], [5, 1]])
        _, grads = backward(params, g2, demo, pos2, neg2)
        assert np.array_equal(grads["event_embeddings"][4], np.zeros(4))
        assert np.any(grads["event_embeddings"][0] != 0.0)


def _dense_scorer_reference(params, p_lat, e_lat, pairs, dlogit):
    """Scorer gradients and latent adjoints through the wide per-pair input
    u = [P[p], E[e]], scattered back to the nodes with np.add.at."""
    u = np.concatenate([p_lat[pairs[:, 0]], e_lat[pairs[:, 1]]], axis=1)
    h_pre = u @ params.scorer_w1 + params.scorer_b1
    dh = np.outer(dlogit, params.scorer_w2) * (h_pre > 0)
    du = dh @ params.scorer_w1.T
    d = p_lat.shape[1]
    d_p = np.zeros_like(p_lat)
    d_e = np.zeros_like(e_lat)
    np.add.at(d_p, pairs[:, 0], du[:, :d])
    np.add.at(d_e, pairs[:, 1], du[:, d:])
    grads = {
        "scorer.w1": u.T @ dh,
        "scorer.b1": dh.sum(axis=0),
        "scorer.w2": np.maximum(h_pre, 0.0).T @ dlogit,
        "scorer.b2": dlogit.sum(),
    }
    return grads, d_p, d_e


class TestScorerGradients:
    def test_match_dense_reference(self):
        rng = np.random.default_rng(21)
        m, n, k = 12, 6, 40
        config = ModelConfig(embedding_dim=5, num_layers=2, scorer_hidden=4)
        params = init_params(config, num_events=n, seed=22)
        g = build(np.unique(rng.integers(0, [m, n], size=(30, 2)), axis=0), m, n)
        demo = rng.normal(size=(m, 2))
        # 2k pairs over 12 x 6 nodes, so every node's pairs repeat
        pos = rng.integers(0, [m, n], size=(k, 2))
        neg = rng.integers(0, [m, n], size=(k, 2))
        _, grads = backward(params, g, demo, pos, neg)

        trace = forward_trace(params, g, demo)
        p_lat, e_lat = trace.patient_states[-1], trace.event_states[-1]
        pairs = np.concatenate([pos, neg])
        probs, h = score_edges_raw(params, p_lat, e_lat, pairs)
        dlogit = np.concatenate([probs[:k] - 1.0, probs[k:]]) / (2.0 * k)
        ref, ref_p, ref_e = _dense_scorer_reference(params, p_lat, e_lat, pairs, dlogit)
        # read before the backward, which builds the hidden adjoint in h
        assert np.any(grads["scorer.w1"] != 0.0) and np.any(h == 0.0)
        d_p, d_e = training._scorer_backward(params, pairs, h, dlogit, {}, p_lat, e_lat)
        for name, expect in ref.items():
            np.testing.assert_allclose(grads[name], expect, rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(d_p, ref_p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_e, ref_e, rtol=0, atol=1e-12)


def _two_csr_scorer_backward(params, pairs, h, dlogit, grads, patient_latents, event_latents):
    """`_scorer_backward` as it was before its one incidence product: a
    patient and an event incidence CSR, each built from COO triplets."""
    grads["scorer.w2"] = h.T @ dlogit
    grads["scorer.b2"] = dlogit.sum()
    mask = np.greater(h, 0.0, out=h)
    rows = np.arange(len(pairs))
    to_p = sp.csr_matrix((dlogit, (pairs[:, 0], rows)), shape=(len(patient_latents), len(pairs)))
    to_e = sp.csr_matrix((dlogit, (pairs[:, 1], rows)), shape=(len(event_latents), len(pairs)))
    dhp = (to_p @ mask) * params.scorer_w2
    dhe = (to_e @ mask) * params.scorer_w2
    grads["scorer.b1"] = dhe.sum(axis=0)
    grads["scorer.w1"] = np.concatenate([patient_latents.T @ dhp, event_latents.T @ dhe])
    d = patient_latents.shape[1]
    return dhp @ params.scorer_w1[:d].T, dhe @ params.scorer_w1[d:].T


class TestScorerBackwardBits:
    @pytest.mark.parametrize("k", [1, 5, 800])
    def test_same_bytes_as_two_incidence_csrs(self, k):
        # k pairs over 30 x 12 nodes: a single pair, then repeated patients
        # and events; patient 29 and event 11 are in no pair
        rng = np.random.default_rng(k)
        m, n = 30, 12
        params = init_params(ModelConfig(embedding_dim=6, num_layers=1, scorer_hidden=5), n, seed=k)
        p_lat, e_lat = rng.normal(size=(m, 6)), rng.normal(size=(n, 6))
        pairs = rng.integers(0, [m - 1, n - 1], size=(k, 2))
        _, h = score_edges_raw(params, p_lat, e_lat, pairs)
        dlogit = rng.normal(size=k) / k
        got, expect = {}, {}
        adjoints = training._scorer_backward(params, pairs, h.copy(), dlogit, got, p_lat, e_lat)
        ref = _two_csr_scorer_backward(params, pairs, h, dlogit, expect, p_lat, e_lat)
        assert got.keys() == expect.keys()
        for a, b in [*zip(adjoints, ref), *((got[key], expect[key]) for key in expect)]:
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _per_tensor_adam(params, moments, step, grads, config):
    """Adam as it was written before the flat buffer: one pass per tensor,
    with `moments` mapping each name to its (m, v) arrays."""
    lr = config.learning_rate
    if config.warmup_epochs > 0:
        lr *= min(1.0, step / config.warmup_epochs)
    bias1 = 1.0 - ADAM_BETA1**step
    bias2 = 1.0 - ADAM_BETA2**step
    for name, tensor in params.named_tensors():
        g = grads[name]
        m, v = moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        tensor -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


class TestAdam:
    def test_flat_step_matches_per_tensor_loop_bitwise(self):
        config = ModelConfig(embedding_dim=4, num_layers=2, scorer_hidden=3)
        params = init_params(config, num_events=5, seed=4)
        oracle = init_params(config, num_events=5, seed=4)
        moments = {name: (np.zeros_like(t), np.zeros_like(t)) for name, t in oracle.named_tensors()}
        state = init_train_state(params)
        tc = TrainConfig(learning_rate=0.03, warmup_epochs=3)
        rng = np.random.default_rng(5)
        for step in range(1, 6):  # through the warm-up ramp and past it
            grads = {name: rng.normal(size=t.shape) for name, t in oracle.named_tensors()}
            adam_update(state, grads, tc)
            _per_tensor_adam(oracle, moments, step, grads, tc)
            for (name, got), (_, expect) in zip(params.named_tensors(), oracle.named_tensors()):
                assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), (step, name)

    def test_params_are_views_of_one_buffer(self, tmp_path):
        config = ModelConfig(embedding_dim=3, num_layers=2, scorer_hidden=2)
        params = init_params(config, num_events=4, seed=1)
        save_checkpoint(tmp_path / "ckpt.npz", config, params, "split")
        _, loaded, _ = load_checkpoint(tmp_path / "ckpt.npz")
        for p in (params, loaded):
            start = 0
            for name, tensor in p.named_tensors():
                assert tensor.base is p.flat, name
                assert tensor.ctypes.data == p.flat.ctypes.data + start * p.flat.itemsize, name
                start += tensor.size
            assert start == p.flat.size
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_misshapen_gradient_raises_naming_tensor(self):
        # a (1,) gradient used to broadcast over the (2,) scorer.b1
        config = ModelConfig(embedding_dim=3, num_layers=1, scorer_hidden=2)
        params = init_params(config, num_events=2, seed=1)
        state = init_train_state(params)
        before = params.flat.copy()
        grads = {name: np.zeros_like(t) for name, t in params.named_tensors()}
        grads["scorer.b1"] = np.ones(1)
        with pytest.raises(ValueError, match=r"scorer\.b1.*\(1,\).*\(2,\)"):
            adam_update(state, grads, TrainConfig(learning_rate=0.01))
        assert np.array_equal(params.flat, before) and state.step == 0

    def test_rebound_tensor_raises_naming_it(self):
        # a rebound tensor would no longer view the buffer that Adam steps,
        # so it would silently stop training; the rebinding itself is refused
        config = ModelConfig(embedding_dim=3, num_layers=2, scorer_hidden=2)
        params = init_params(config, num_events=2, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError, match="w_nbr_e"):
            params.layers[1].w_nbr_e = params.layers[1].w_nbr_e.copy()
        with pytest.raises(dataclasses.FrozenInstanceError, match="scorer_b1"):
            params.scorer_b1 = np.zeros(2)
        with pytest.raises(TypeError):
            params.layers[0] = params.layers[1]

    def test_poisoned_params_raise_naming_tensor(self):
        # a non-finite gradient is refused before the step, naming the first
        # such tensor in layout order, and leaves the state as it was
        config = ModelConfig(embedding_dim=3, num_layers=2, scorer_hidden=2)
        params = init_params(config, num_events=2, seed=1)
        state = init_train_state(params)
        tc = TrainConfig(learning_rate=0.01)
        grads = {name: np.ones_like(t) for name, t in params.named_tensors()}
        adam_update(state, grads, tc)
        before = [params.flat.copy(), state.adam_m.copy(), state.adam_v.copy()]
        grads["scorer.w1"][0, 0] = np.inf
        grads["layers.1.b_e"][1] = np.nan
        with pytest.raises(FloatingPointError, match=r"non-finite gradient for parameter layers\.1\.b_e$"):
            adam_update(state, grads, tc)
        after = [params.flat, state.adam_m, state.adam_v]
        assert all(np.array_equal(a, b) for a, b in zip(after, before)) and state.step == 1

    def test_first_step_closed_form(self):
        config = ModelConfig(embedding_dim=3, num_layers=1, scorer_hidden=2)
        params = init_params(config, num_events=2, seed=1)
        state = init_train_state(params)
        before = {name: tensor.copy() for name, tensor in params.named_tensors()}
        rng = np.random.default_rng(2)
        grads = {name: rng.normal(size=t.shape) for name, t in params.named_tensors()}
        tc = TrainConfig(learning_rate=0.01)
        adam_update(state, grads, tc)
        # step 1: m-hat = g, v-hat = g^2, so the update is lr * g / (|g| + eps)
        for name, tensor in params.named_tensors():
            g = grads[name]
            expect = before[name] - 0.01 * g / (np.abs(g) + ADAM_EPS)
            assert np.allclose(tensor, expect, atol=1e-12), name
        assert state.step == 1

    def test_warmup_scales_first_step(self):
        config = ModelConfig(embedding_dim=3, num_layers=1, scorer_hidden=2)
        params = init_params(config, num_events=2, seed=1)
        state = init_train_state(params)
        before = {name: tensor.copy() for name, tensor in params.named_tensors()}
        grads = {name: np.ones_like(t) for name, t in params.named_tensors()}
        tc = TrainConfig(learning_rate=0.01, warmup_epochs=10)
        adam_update(state, grads, tc)
        for name, tensor in params.named_tensors():
            expect = before[name] - 0.001 * 1.0 / (1.0 + ADAM_EPS)
            assert np.allclose(tensor, expect, atol=1e-12), name

    def test_zero_gradients_leave_params_fixed(self):
        config = ModelConfig(embedding_dim=3, num_layers=1, scorer_hidden=2)
        params = init_params(config, num_events=2, seed=3)
        state = init_train_state(params)
        before = {name: tensor.copy() for name, tensor in params.named_tensors()}
        grads = {name: np.zeros_like(t) for name, t in params.named_tensors()}
        adam_update(state, grads, TrainConfig())
        for name, tensor in params.named_tensors():
            assert np.array_equal(tensor, before[name]), name


class TestEpochSampling:
    def test_deterministic_per_epoch(self, tiny_graph):
        tc = TrainConfig(seed=5)
        a = sample_epoch_batch(tiny_graph, tc, epoch=3)
        b = sample_epoch_batch(tiny_graph, tc, epoch=3)
        assert np.array_equal(a.invisible, b.invisible)
        assert np.array_equal(a.negative, b.negative)

    def test_epochs_draw_different_masks(self, tiny_graph):
        tc = TrainConfig(seed=5)
        masks = [
            frozenset(map(tuple, sample_epoch_batch(tiny_graph, tc, e).invisible.tolist()))
            for e in range(8)
        ]
        assert len(set(masks)) > 1

    def test_single_edge_graph_retries_until_nonempty(self):
        g = build(np.array([[0, 0]]), 2, 2)
        batch = sample_epoch_batch(g, TrainConfig(seed=0, mask_probability=0.2), epoch=0)
        assert len(batch.invisible) == 1
        assert len(batch.visible) == 0

    def test_batch_validates_against_graph(self, tiny_graph):
        batch = sample_epoch_batch(tiny_graph, TrainConfig(seed=1), epoch=0)
        batch.validate(tiny_graph)
        assert len(batch.negative) == len(batch.invisible)


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_params(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        tc = TrainConfig(learning_rate=0.0, epochs=2, seed=2)
        state = fit(ds, mc, tc)
        fresh = fit(ds, mc, TrainConfig(learning_rate=0.0, epochs=0, seed=2))
        for name, tensor in state.params.named_tensors():
            assert np.array_equal(tensor, dict(fresh.params.named_tensors())[name]), name
        assert len(state.epoch_stats) == 2

    def test_non_finite_step_raises_naming_tensor(self, small_cohort):
        # one pass over the flat buffer finds it; the error still names a tensor
        ds, _ = small_cohort
        graph = build(ds.positives, ds.num_patients, ds.num_events)
        params = init_params(ModelConfig(embedding_dim=4, num_layers=1, scorer_hidden=2), ds.num_events, seed=0)
        state = init_train_state(params)
        tc = TrainConfig(learning_rate=float("inf"), seed=1)
        with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite values in parameter event_embeddings"
        ):
            train_epoch(state, tc, graph, ds.demographics, 0)

    def test_stats_row_fields(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        state = fit(ds, mc, TrainConfig(epochs=3, seed=4))
        row = state.epoch_stats[-1]
        assert row["epoch"] == 2
        assert np.isfinite(row["loss"])
        assert row["hidden_edges"] > 0
        assert row["wall_seconds"] > 0


class TestFit:
    def test_same_seed_bitwise_identical(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        tc = TrainConfig(epochs=6, seed=9)
        a = fit(ds, mc, tc)
        b = fit(ds, mc, tc)
        assert _losses(a) == _losses(b)
        for name, tensor in a.params.named_tensors():
            assert np.array_equal(tensor, dict(b.params.named_tensors())[name]), name

    def test_different_seed_diverges(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        a = fit(ds, mc, TrainConfig(epochs=2, seed=9))
        b = fit(ds, mc, TrainConfig(epochs=2, seed=10))
        assert _losses(a) != _losses(b)

    def test_loss_drops_below_chance(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=16, num_layers=3, scorer_hidden=16)
        state = fit(ds, mc, TrainConfig(epochs=120, seed=3))
        assert np.mean(_losses(state)[-5:]) < LN2 - 0.02

    def test_log_callback_sees_every_epoch(self, small_cohort):
        ds, _ = small_cohort
        rows = []
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        fit(ds, mc, TrainConfig(epochs=4, seed=1), log=rows.append)
        assert [r["epoch"] for r in rows] == [0, 1, 2, 3]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's allocator")
    def test_steady_epochs_keep_their_heap(self, tmp_path):
        # A fresh process that loads its cohort from files has freed no large
        # blocks before fit, so without fixed allocator thresholds each epoch
        # maps or trims its temporaries and faults them in anew: 1400-2100
        # faults per epoch here, and more with either threshold set alone
        # (the arrays are above glibc's default 128 KB mmap threshold).
        ds, _ = generate_synthetic(2000, 300, 6, 0.03, seed=3)
        triplets, demographics = tmp_path / "triplets.csv", tmp_path / "demographics.csv"
        write_dataset(ds, triplets, demographics)
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from graphimpute.dataset import load_triplets\n"
            "from graphimpute.model import ModelConfig\n"
            "from graphimpute.training import TrainConfig, fit\n"
            f"ds = load_triplets({str(triplets)!r}, {str(demographics)!r})\n"
            "faults = []\n"
            "fit(ds, ModelConfig(embedding_dim=32, num_layers=3, scorer_hidden=32),\n"
            "    TrainConfig(epochs=30, seed=11),\n"
            "    log=lambda row: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))\n"
            "print(np.diff(faults[10:]).mean())\n"
        )
        src = str(Path(training.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert float(out.stdout) < 100

    def test_benchmark_fit_digest(self):
        # parameters and losses after 20 epochs on the benchmark instance
        # (cohort seed 101, split seed 5, train seed 11, the acceptance config),
        # as trained when the event-side mean operator was an explicit CSR and
        # the scorer backward used two incidence matrices; one BLAS thread in
        # a fresh process, since a threaded BLAS may sum in another order
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from graphimpute.dataset import SplitSpec, filter_rare_events, generate_synthetic, split\n"
            "from graphimpute.model import ModelConfig\n"
            "from graphimpute.training import TrainConfig, fit\n"
            "ds, _ = generate_synthetic(5000, 500, 10, 0.02, seed=101)\n"
            "filtered, emap = filter_rare_events(ds, 0.001)\n"
            "sd = split(filtered, SplitSpec(0.7, 0.3, 0.001, seed=5), event_index_map=emap)\n"
            "for sampler in ('degree_preserving', 'uniform'):\n"
            "    state = fit(sd.train, ModelConfig(embedding_dim=32, num_layers=3, scorer_hidden=32),\n"
            "                TrainConfig(learning_rate=0.02, mask_probability=0.3, epochs=20,\n"
            "                            warmup_epochs=100, seed=11, negative_sampler=sampler))\n"
            "    h = hashlib.sha256()\n"
            "    for _, tensor in state.params.named_tensors():\n"
            "        h.update(tensor.tobytes())\n"
            "    h.update(np.array([row['loss'] for row in state.epoch_stats]).tobytes())\n"
            "    print(h.hexdigest())\n"
        )
        src = str(Path(training.__file__).resolve().parents[1])
        threads = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env = {**os.environ, "PYTHONPATH": src, **threads}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == [
            "db5a301e420d5ababecb68763d9da69d236ff30ccebc44c78c8ad133ee6660fd",
            "49cff144076435e018284a97d5832d0bfe9295988eca7c2706e485d35e07e654",
        ]
