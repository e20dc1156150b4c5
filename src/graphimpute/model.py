"""Forward computation: node feature initialization, stacked two-sided
mean-aggregation message passing, and the sigmoid edge scorer.

Embeddings are row-major (one node per row); weight matrices act on the
right. Each round updates both partitions synchronously from the previous
round's embeddings, with a rectifier between rounds but not after the last.
A node with no neighbors aggregates a zero vector.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .dataset import DEMOGRAPHICS_DIM, Dataset, _sigmoid
from .graph import BipartiteGraph

CHECKPOINT_FORMAT_VERSION = 3

# Keep probabilities strictly inside (0, 1) even under logit saturation.
PROB_EPS = 1e-15


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 95
    num_layers: int = 3
    scorer_hidden: int = 32
    # Fixed by the data format (`Dataset` enforces it), so not a config key;
    # a class attribute so that FLOP counts (perfbench/metrics.py) can read it.
    demographics_dim: ClassVar[int] = DEMOGRAPHICS_DIM

    def __post_init__(self):
        for name in ("embedding_dim", "num_layers", "scorer_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class LayerParams:
    """One message-passing round: self and neighbor-mean maps for each side."""

    w_self_p: np.ndarray
    w_nbr_p: np.ndarray
    b_p: np.ndarray
    w_self_e: np.ndarray
    w_nbr_e: np.ndarray
    b_e: np.ndarray


@dataclass
class ModelParams:
    event_embeddings: np.ndarray
    encoder_weight: np.ndarray
    encoder_bias: np.ndarray
    layers: list[LayerParams]
    scorer_w1: np.ndarray
    scorer_b1: np.ndarray
    scorer_w2: np.ndarray
    scorer_b2: np.ndarray

    def named_tensors(self):
        """Stable (name, array) iteration used by the optimizer and checkpoints."""
        yield "event_embeddings", self.event_embeddings
        yield "encoder.weight", self.encoder_weight
        yield "encoder.bias", self.encoder_bias
        for idx, layer in enumerate(self.layers):
            yield f"layers.{idx}.w_self_p", layer.w_self_p
            yield f"layers.{idx}.w_nbr_p", layer.w_nbr_p
            yield f"layers.{idx}.b_p", layer.b_p
            yield f"layers.{idx}.w_self_e", layer.w_self_e
            yield f"layers.{idx}.w_nbr_e", layer.w_nbr_e
            yield f"layers.{idx}.b_e", layer.b_e
        yield "scorer.w1", self.scorer_w1
        yield "scorer.b1", self.scorer_b1
        yield "scorer.w2", self.scorer_w2
        yield "scorer.b2", self.scorer_b2

    def check_finite(self):
        for name, tensor in self.named_tensors():
            if not np.all(np.isfinite(tensor)):
                raise FloatingPointError(f"non-finite values in parameter {name}")

    def num_events(self) -> int:
        return self.event_embeddings.shape[0]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    config: ModelConfig,
    num_events: int,
    seed,
    event_embeddings: np.ndarray | None = None,
) -> ModelParams:
    """Seeded parameter initialization; weights uniform in the Glorot range,
    biases zero, event table Gaussian unless a (typically SVD) table is given."""
    rng = np.random.default_rng(seed)
    d = config.embedding_dim
    f = config.demographics_dim
    h = config.scorer_hidden
    if event_embeddings is None:
        event_embeddings = rng.normal(scale=d**-0.5, size=(num_events, d))
    else:
        event_embeddings = np.array(event_embeddings, dtype=np.float64)
        if event_embeddings.shape != (num_events, d):
            raise ValueError(
                f"event embedding shape {event_embeddings.shape} != ({num_events}, {d})"
            )
    layers = [
        LayerParams(
            w_self_p=_glorot(rng, d, d, (d, d)),
            w_nbr_p=_glorot(rng, d, d, (d, d)),
            b_p=np.zeros(d),
            w_self_e=_glorot(rng, d, d, (d, d)),
            w_nbr_e=_glorot(rng, d, d, (d, d)),
            b_e=np.zeros(d),
        )
        for _ in range(config.num_layers)
    ]
    return ModelParams(
        event_embeddings=event_embeddings,
        encoder_weight=_glorot(rng, f, d, (f, d)),
        encoder_bias=np.zeros(d),
        layers=layers,
        scorer_w1=_glorot(rng, 2 * d, h, (2 * d, h)),
        scorer_b1=np.zeros(h),
        scorer_w2=_glorot(rng, h, 1, (h,)),
        scorer_b2=np.zeros(()),
    )


def init_event_embeddings_svd(
    train: Dataset, d: int, power_iters: int = 8, seed=0
) -> np.ndarray:
    """Top-d right singular vectors of the train matrix, scaled by sqrt(singular value).

    Computed by randomized subspace iteration on the sparse matrix, so the cost
    is bounded by a few sparse products per power step. Deterministic given the
    seed. If the matrix rank falls below d (including d > min(m, n)), the
    remaining columns are filled with small seeded Gaussian noise and a warning
    is issued.
    """
    m, n = train.num_patients, train.num_events
    rng = np.random.default_rng(seed)
    pos = train.positives
    x = sp.csr_matrix(
        (np.ones(len(pos)), (pos[:, 0], pos[:, 1])), shape=(m, n), dtype=np.float64
    )

    k = min(d, m, n)
    width = min(k + 10, n)
    probe = rng.normal(size=(n, width))
    q, _ = np.linalg.qr(x @ probe)
    for _ in range(power_iters):
        z, _ = np.linalg.qr(x.T @ q)
        q, _ = np.linalg.qr(x @ z)
    b = (x.T @ q).T
    _, sigma, vt = np.linalg.svd(b, full_matrices=False)
    sigma = sigma[:k]
    v = vt[:k].T

    tol = (sigma[0] if len(sigma) else 0.0) * 1e-10
    dead = np.ones(d, dtype=bool)
    dead[:k] = sigma <= tol
    emb = np.zeros((n, d))
    emb[:, :k] = v * np.sqrt(np.where(dead[:k], 0.0, sigma))
    if np.any(dead):
        n_dead = int(dead.sum())
        warnings.warn(
            f"train matrix rank < {d}: filled {n_dead} embedding columns with noise",
            stacklevel=2,
        )
        scale = 0.01 * np.sqrt(max(float(sigma[0]) if len(sigma) else 1.0, 1.0))
        emb[:, dead] = rng.normal(scale=scale, size=(n, n_dead))
    return emb


def encode_patients(params: ModelParams, demographics: np.ndarray) -> np.ndarray:
    """Project (standardized) demographics to the embedding space; inductive."""
    return np.maximum(demographics @ params.encoder_weight + params.encoder_bias, 0.0)


def mean_operators(g: BipartiteGraph) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Row-normalized neighbor-mean operators (patient side m x n, event side n x m).

    The event side is the transpose of the patient CSR with each column
    scaled by its event's inverse degree. Rows of isolated nodes are empty,
    realizing the zero-vector rule for empty neighborhoods.
    """
    deg_p = g.patient_degrees()
    deg_e = g.event_degrees()
    inv_p = np.divide(1.0, deg_p, out=np.zeros(len(deg_p)), where=deg_p > 0)
    inv_e = np.divide(1.0, deg_e, out=np.zeros(len(deg_e)), where=deg_e > 0)
    shape = (g.num_patients, g.num_events)
    ap = sp.csr_matrix(
        (np.repeat(inv_p, deg_p), g.patient_indices, g.patient_indptr), shape=shape
    )
    ae = sp.csr_matrix(
        (inv_e[g.patient_indices], g.patient_indices, g.patient_indptr), shape=shape
    ).T.tocsr()
    return ap, ae


@dataclass
class ForwardTrace:
    """Intermediates of one forward pass, kept for the backward pass.

    The states hold each round's input and, last, the final latents. A
    rectifier's derivative is read off its output (positive exactly where its
    input was), so pre-activations are not kept.
    """

    patient_states: list[np.ndarray] = field(default_factory=list)
    event_states: list[np.ndarray] = field(default_factory=list)
    patient_means: list[np.ndarray] = field(default_factory=list)
    event_means: list[np.ndarray] = field(default_factory=list)
    agg_patient: sp.csr_matrix | None = None
    agg_event: sp.csr_matrix | None = None


def forward_trace(
    params: ModelParams, g_visible: BipartiteGraph, demographics: np.ndarray
) -> ForwardTrace:
    """Encoder plus all message-passing rounds, recording every intermediate."""
    trace = ForwardTrace()
    patient_init = encode_patients(params, demographics)
    message_pass(params, g_visible, patient_init, params.event_embeddings, trace)
    return trace


def message_pass(
    params: ModelParams,
    g_visible: BipartiteGraph,
    patient_init: np.ndarray,
    event_init: np.ndarray,
    trace: ForwardTrace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Latent embeddings after all rounds, from explicit initial features.

    If `trace` is given, the mean operators, each round's input states and
    neighbor means, and the final latents are recorded into it.
    """
    ap, ae = mean_operators(g_visible)
    p, e = patient_init, event_init
    if trace is not None:
        trace.agg_patient, trace.agg_event = ap, ae
        trace.patient_states.append(p)
        trace.event_states.append(e)
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        mp = ap @ e
        me = ae @ p
        p_new = p @ layer.w_self_p + mp @ layer.w_nbr_p + layer.b_p
        e_new = e @ layer.w_self_e + me @ layer.w_nbr_e + layer.b_e
        if idx < last:
            p_new = np.maximum(p_new, 0.0)
            e_new = np.maximum(e_new, 0.0)
        p, e = p_new, e_new
        if trace is not None:
            trace.patient_means.append(mp)
            trace.event_means.append(me)
            trace.patient_states.append(p)
            trace.event_states.append(e)
    return p, e


def score_edges_raw(
    params: ModelParams,
    patient_latents: np.ndarray,
    event_latents: np.ndarray,
    pairs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scorer forward returning (probs, logits, hidden preact, concat input)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    u = np.concatenate(
        [patient_latents[pairs[:, 0]], event_latents[pairs[:, 1]]], axis=1
    )
    h_pre = u @ params.scorer_w1 + params.scorer_b1
    h = np.maximum(h_pre, 0.0)
    logits = h @ params.scorer_w2 + params.scorer_b2
    return _sigmoid(logits), logits, h_pre, u


def score_grid(
    params: ModelParams,
    patient_latents: np.ndarray,
    event_latents: np.ndarray,
    block_size: int = 128,
) -> np.ndarray:
    """All patients x all events probability matrix, computed in row blocks.

    The affine part splits into independent patient and event halves, so each
    block costs one broadcasted add plus the hidden-layer products.
    """
    d = event_latents.shape[1]
    left = patient_latents @ params.scorer_w1[:d]
    right = event_latents @ params.scorer_w1[d:]
    t = patient_latents.shape[0]
    n = event_latents.shape[0]
    out = np.empty((t, n))
    for start in range(0, t, block_size):
        stop = min(start + block_size, t)
        h = left[start:stop, None, :] + right[None, :, :] + params.scorer_b1
        np.maximum(h, 0.0, out=h)
        logits = h @ params.scorer_w2 + params.scorer_b2
        out[start:stop] = _sigmoid(logits)
    return np.clip(out, PROB_EPS, 1.0 - PROB_EPS)


def save_checkpoint(path, config: ModelConfig, params: ModelParams, extras=None) -> None:
    """Write a versioned checkpoint that round-trips bit-exactly."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(config),
        "num_events": params.num_events(),
        "extras": sorted(extras) if extras else [],
    }
    arrays = {f"param/{name}": tensor for name, tensor in params.named_tensors()}
    if extras:
        arrays.update({f"extra/{key}": np.asarray(value) for key, value in extras.items()})
    np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams, dict[str, np.ndarray]]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['format_version']}")
        config = ModelConfig(**meta["config"])
        get = lambda name: data[f"param/{name}"]
        layers = [
            LayerParams(
                w_self_p=get(f"layers.{i}.w_self_p"),
                w_nbr_p=get(f"layers.{i}.w_nbr_p"),
                b_p=get(f"layers.{i}.b_p"),
                w_self_e=get(f"layers.{i}.w_self_e"),
                w_nbr_e=get(f"layers.{i}.w_nbr_e"),
                b_e=get(f"layers.{i}.b_e"),
            )
            for i in range(config.num_layers)
        ]
        params = ModelParams(
            event_embeddings=get("event_embeddings"),
            encoder_weight=get("encoder.weight"),
            encoder_bias=get("encoder.bias"),
            layers=layers,
            scorer_w1=get("scorer.w1"),
            scorer_b1=get("scorer.b1"),
            scorer_w2=get("scorer.w2"),
            scorer_b2=get("scorer.b2"),
        )
        extras = {key: data[f"extra/{key}"] for key in meta["extras"]}
    return config, params, extras
