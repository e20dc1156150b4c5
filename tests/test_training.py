import numpy as np
import pytest

from graphimpute import training
from graphimpute.dataset import generate_synthetic
from graphimpute.graph import build, remove_edges
from graphimpute.model import ModelConfig, init_params
from graphimpute.training import (
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
    g_full = build(
        np.array([[0, 0], [0, 2], [1, 1], [1, 3], [2, 3], [2, 4], [3, 0], [3, 1], [4, 2], [5, 4]]),
        6,
        5,
    )
    hidden = np.array([[0, 2], [2, 3], [5, 4]])
    g_vis = remove_edges(g_full, hidden)
    negatives = np.array([[0, 4], [2, 0], [5, 1]])
    demo = np.random.default_rng(5).normal(size=(6, 2))
    config = ModelConfig(embedding_dim=4, num_layers=3, scorer_hidden=3)
    params = init_params(config, num_events=5, seed=6)
    return params, g_vis, demo, hidden, negatives


class TestBackward:
    def test_loss_matches_loss_forward(self):
        params, g, demo, pos, neg = _fd_instance()
        loss, _ = backward(params, g, demo, pos, neg)
        assert loss == pytest.approx(loss_forward(params, g, demo, pos, neg), abs=1e-14)

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

    def test_poisoned_params_raise_naming_tensor(self):
        params, g, demo, pos, neg = _fd_instance()
        params.event_embeddings[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite gradient for parameter"):
            backward(params, g, demo, pos, neg)


class TestAdam:
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

    def test_fixed_mask_repeats_but_negatives_vary(self, tiny_graph):
        tc = TrainConfig(seed=5, fixed_mask=True, negative_sampler="uniform")
        a = sample_epoch_batch(tiny_graph, tc, epoch=0)
        b = sample_epoch_batch(tiny_graph, tc, epoch=7)
        assert np.array_equal(a.invisible, b.invisible)
        negs = {
            frozenset(map(tuple, sample_epoch_batch(tiny_graph, tc, e).negative.tolist()))
            for e in range(8)
        }
        assert len(negs) > 1

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
        assert len(state.loss_history) == 2

    def test_stats_row_fields(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        state = fit(ds, mc, TrainConfig(epochs=3, seed=4))
        row = state.epoch_stats[-1]
        assert row["epoch"] == 2
        assert row["loss"] == state.loss_history[-1]
        assert row["hidden_edges"] > 0
        assert row["wall_seconds"] > 0


class TestFit:
    def test_same_seed_bitwise_identical(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        tc = TrainConfig(epochs=6, seed=9)
        a = fit(ds, mc, tc)
        b = fit(ds, mc, tc)
        assert a.loss_history == b.loss_history
        for name, tensor in a.params.named_tensors():
            assert np.array_equal(tensor, dict(b.params.named_tensors())[name]), name

    def test_different_seed_diverges(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        a = fit(ds, mc, TrainConfig(epochs=2, seed=9))
        b = fit(ds, mc, TrainConfig(epochs=2, seed=10))
        assert a.loss_history != b.loss_history

    def test_loss_drops_below_chance(self, small_cohort):
        ds, _ = small_cohort
        mc = ModelConfig(embedding_dim=16, num_layers=3, scorer_hidden=16)
        state = fit(ds, mc, TrainConfig(epochs=120, seed=3))
        assert np.mean(state.loss_history[-5:]) < LN2 - 0.02

    def test_log_callback_sees_every_epoch(self, small_cohort):
        ds, _ = small_cohort
        rows = []
        mc = ModelConfig(embedding_dim=8, num_layers=2, scorer_hidden=4)
        fit(ds, mc, TrainConfig(epochs=4, seed=1), log=rows.append)
        assert [r["epoch"] for r in rows] == [0, 1, 2, 3]
