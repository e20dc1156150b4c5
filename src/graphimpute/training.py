"""Training loop: balanced masked-edge objective, reverse-mode gradients
written out for this fixed architecture, and Adam.

Each epoch hides a random subset of train edges, runs message passing on the
survivors, and asks the scorer to separate the hidden edges from an equal
number of sampled non-edges. The loss averages both sides with weight 1/(2k)
each, so the gradient scale does not depend on the mask draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import model as model_mod
from .dataset import Dataset, demographics_stats, standardize_demographics
from .graph import BipartiteGraph, build
from .model import ModelConfig, ModelParams, forward_trace, score_edges_raw
from .sampler import (
    EdgeBatch,
    sample_invisible,
    sample_negative_degree_preserving,
    sample_negative_uniform,
)
from .seeding import substream_seed

LOG_EPS = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0066
    epochs: int = 200
    mask_probability: float = 0.2
    seed: int = 0
    warmup_epochs: int = 0
    negative_sampler: str = "degree_preserving"
    fixed_mask: bool = False

    def __post_init__(self):
        if not 0.0 < self.mask_probability < 1.0:
            raise ValueError("mask_probability must be in (0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.negative_sampler not in ("degree_preserving", "uniform"):
            raise ValueError(f"unknown negative_sampler {self.negative_sampler!r}")


@dataclass
class TrainState:
    params: ModelParams
    step: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    loss_history: list = field(default_factory=list)
    epoch_stats: list = field(default_factory=list)


def init_train_state(params: ModelParams) -> TrainState:
    state = TrainState(params=params)
    for name, tensor in params.named_tensors():
        state.adam_m[name] = np.zeros_like(tensor)
        state.adam_v[name] = np.zeros_like(tensor)
    return state


def balanced_bce(p_pos: np.ndarray, p_neg: np.ndarray) -> float:
    """Mean negative log-likelihood with equal weight on both score sets.

    Requires len(p_pos) == len(p_neg) == k > 0; probabilities are clamped at
    1e-12 from both ends before the log.
    """
    p_pos = np.asarray(p_pos, dtype=np.float64)
    p_neg = np.asarray(p_neg, dtype=np.float64)
    if len(p_pos) == 0:
        raise ValueError("empty batch: no hidden positives to score")
    if len(p_pos) != len(p_neg):
        raise ValueError(
            f"score sets must match in size, got {len(p_pos)} and {len(p_neg)}"
        )
    k = len(p_pos)
    pos_term = np.log(np.maximum(p_pos, LOG_EPS)).sum()
    neg_term = np.log(np.maximum(1.0 - p_neg, LOG_EPS)).sum()
    return float(-(pos_term + neg_term) / (2.0 * k))


def _forward(params, g_visible, demographics, positives, negatives):
    """Forward pass shared by the loss and its gradient.

    Scores the stacked [positives; negatives] pairs in one scorer call;
    balanced_bce checks that both sets are non-empty and of equal size.
    Returns the loss, the forward trace, the stacked pairs, and the scorer's
    probabilities, hidden pre-activations and inputs.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 2)
    negatives = np.asarray(negatives, dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate([positives, negatives])
    trace = forward_trace(params, g_visible, demographics)
    probs, _, h_pre, u = score_edges_raw(
        params, trace.patient_states[-1], trace.event_states[-1], pairs
    )
    k = len(positives)
    loss = balanced_bce(probs[:k], probs[k:])
    return loss, trace, pairs, probs, h_pre, u


def loss_forward(
    params: ModelParams,
    g_visible: BipartiteGraph,
    demographics: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
) -> float:
    """Loss only, via the same forward path as the gradient computation."""
    return _forward(params, g_visible, demographics, positives, negatives)[0]


def _scorer_backward(params, pairs, h_pre, u, dlogit, grads, num_patients, num_events):
    """Scorer gradients into `grads`; returns the adjoints of the patient and
    event latents, summed over each node's pairs by a sparse incidence product."""
    h = np.maximum(h_pre, 0.0)
    grads["scorer.w2"] = h.T @ dlogit
    grads["scorer.b2"] = dlogit.sum()
    dh = np.outer(dlogit, params.scorer_w2) * (h_pre > 0)
    grads["scorer.w1"] = u.T @ dh
    grads["scorer.b1"] = dh.sum(axis=0)
    du = dh @ params.scorer_w1.T
    d = du.shape[1] // 2
    ones = np.ones(len(pairs))
    rows = np.arange(len(pairs))
    to_p = sp.csr_matrix((ones, (pairs[:, 0], rows)), shape=(num_patients, len(pairs)))
    to_e = sp.csr_matrix((ones, (pairs[:, 1], rows)), shape=(num_events, len(pairs)))
    return to_p @ du[:, :d], to_e @ du[:, d:]


def backward(
    params: ModelParams,
    g_visible: BipartiteGraph,
    demographics: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for every parameter tensor.

    Reverse-mode pass specialized to encoder -> L message-passing rounds ->
    scorer. The neighbor-mean adjoint is the transposed mean operator; an
    incidence product undoes the pair gather in the scorer. Gradients of
    clamped log terms are zero, matching the piecewise loss exactly.
    """
    loss, trace, pairs, probs, h_pre, u = _forward(
        params, g_visible, demographics, positives, negatives
    )
    k = len(pairs) // 2
    # d loss / d logit; terms whose log argument was clamped contribute zero.
    p_pos, p_neg = probs[:k], probs[k:]
    dlogit = np.concatenate(
        [
            np.where(p_pos > LOG_EPS, (p_pos - 1.0) / (2.0 * k), 0.0),
            np.where(1.0 - p_neg > LOG_EPS, p_neg / (2.0 * k), 0.0),
        ]
    )
    grads = {}
    d_p, d_e = _scorer_backward(
        params, pairs, h_pre, u, dlogit, grads, g_visible.num_patients, g_visible.num_events
    )

    ap_t = trace.agg_patient.T
    ae_t = trace.agg_event.T
    last = len(params.layers) - 1
    for idx in range(last, -1, -1):
        layer = params.layers[idx]
        if idx < last:
            d_p = d_p * (trace.patient_states[idx + 1] > 0)
            d_e = d_e * (trace.event_states[idx + 1] > 0)
        prefix = f"layers.{idx}"
        grads[f"{prefix}.w_self_p"] = trace.patient_states[idx].T @ d_p
        grads[f"{prefix}.w_nbr_p"] = trace.patient_means[idx].T @ d_p
        grads[f"{prefix}.b_p"] = d_p.sum(axis=0)
        grads[f"{prefix}.w_self_e"] = trace.event_states[idx].T @ d_e
        grads[f"{prefix}.w_nbr_e"] = trace.event_means[idx].T @ d_e
        grads[f"{prefix}.b_e"] = d_e.sum(axis=0)
        d_p_prev = d_p @ layer.w_self_p.T + ae_t @ (d_e @ layer.w_nbr_e.T)
        d_e_prev = d_e @ layer.w_self_e.T + ap_t @ (d_p @ layer.w_nbr_p.T)
        d_p, d_e = d_p_prev, d_e_prev

    grads["event_embeddings"] = d_e
    d_enc = d_p * (trace.patient_states[0] > 0)
    grads["encoder.weight"] = demographics.T @ d_enc
    grads["encoder.bias"] = d_enc.sum(axis=0)

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter {name}")
    return loss, grads


def adam_update(state: TrainState, grads: dict[str, np.ndarray], config: TrainConfig) -> None:
    """One Adam step over all parameter tensors, in place."""
    state.step += 1
    lr = config.learning_rate
    if config.warmup_epochs > 0:
        # Linear ramp over the first warmup_epochs steps; Adam's first steps
        # are sign-steps and a full-size one can deactivate the scorer.
        lr *= min(1.0, state.step / config.warmup_epochs)
    bias1 = 1.0 - ADAM_BETA1**state.step
    bias2 = 1.0 - ADAM_BETA2**state.step
    for name, tensor in state.params.named_tensors():
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        tensor -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def sample_epoch_batch(
    train_graph: BipartiteGraph, config: TrainConfig, epoch: int
) -> EdgeBatch:
    """Mask edges and draw matched negatives for one epoch.

    Seeds come from named substreams of the run seed, so the mask and negative
    draws of different epochs (and of other pipeline stages) are independent.
    A mask draw that hides nothing is redrawn from the next substream index.
    """
    mask_index = 0 if config.fixed_mask else epoch
    for attempt in range(100):
        seed = substream_seed(config.seed, "mask", mask_index * 100 + attempt)
        invisible, visible = sample_invisible(train_graph, config.mask_probability, seed)
        if len(invisible) > 0:
            break
    else:
        raise RuntimeError("mask draw hid no edges in 100 attempts")
    neg_seed = substream_seed(config.seed, "negatives", epoch)
    if config.negative_sampler == "degree_preserving":
        negative, relaxed, gap = sample_negative_degree_preserving(
            train_graph, invisible, neg_seed
        )
    else:
        negative = sample_negative_uniform(train_graph, len(invisible), neg_seed)
        relaxed, gap = False, 0
    return EdgeBatch(
        visible=visible,
        invisible=invisible,
        negative=negative,
        relaxed=relaxed,
        event_marginal_l1_gap=gap,
    )


def train_epoch(
    state: TrainState,
    train_config: TrainConfig,
    train_graph: BipartiteGraph,
    demographics: np.ndarray,
    epoch: int,
) -> dict:
    """One full optimization step; returns the epoch's stats row."""
    t0 = time.perf_counter()
    batch = sample_epoch_batch(train_graph, train_config, epoch)
    g_visible = build(batch.visible, train_graph.num_patients, train_graph.num_events)
    loss, grads = backward(
        state.params, g_visible, demographics, batch.invisible, batch.negative
    )
    adam_update(state, grads, train_config)
    state.params.check_finite()
    state.loss_history.append(loss)
    row = {
        "epoch": epoch,
        "loss": loss,
        "hidden_edges": len(batch.invisible),
        "relaxed": batch.relaxed,
        "event_marginal_l1_gap": batch.event_marginal_l1_gap,
        "wall_seconds": time.perf_counter() - t0,
    }
    state.epoch_stats.append(row)
    return row


def fit(
    train: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    log=None,
) -> TrainState:
    """Train from scratch on one dataset; returns the final state.

    Event embeddings start from the scaled SVD of the train matrix, patient
    features from standardized demographics. `log`, if given, is called with
    each epoch's stats row.
    """
    graph = build(train.positives, train.num_patients, train.num_events)
    stats = demographics_stats(train.demographics)
    demo = standardize_demographics(train.demographics, stats)
    emb = model_mod.init_event_embeddings_svd(
        train,
        model_config.embedding_dim,
        seed=substream_seed(train_config.seed, "svd-init"),
    )
    params = model_mod.init_params(
        model_config,
        train.num_events,
        substream_seed(train_config.seed, "weight-init"),
        event_embeddings=emb,
    )
    state = init_train_state(params)
    for epoch in range(train_config.epochs):
        row = train_epoch(state, train_config, graph, demo, epoch)
        if log is not None:
            log(row)
    return state
