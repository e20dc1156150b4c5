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
import zipfile
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np
import scipy.sparse as sp

from .dataset import DEMOGRAPHICS_DIM, Dataset, _sigmoid, check_pairs
from .graph import BipartiteGraph, build

CHECKPOINT_FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """A checkpoint this code does not read: a file that is not an npz
    archive, a meta that is not JSON, an unsupported format version, a missing
    array or meta key, an unreadable (object) array, an unknown config key, an
    event count below 1, an array whose shape does not fit the stored config,
    an array of another dtype than integer or float, or an array holding a
    non-finite value."""


# Keep probabilities strictly inside (0, 1) even under logit saturation.
PROB_EPS = 1e-15
# Patient rows per `score_grid` block: with the copy-then-maximum block, a
# 1500 x 487 grid with 32 hidden units took 24.5 ms at 8 rows, 26.1 at 4, 31.2
# at 16 and 37.4 at 32 (fastest of ten; one BLAS thread, 2-vCPU host); the
# block's hidden units (1 MB there) are one buffer.
GRID_BLOCK_ROWS = 8
# Patient rows per `score_grid` epilogue (constant, sigmoid and clip in place):
# the group's logits and its one scratch array stay in cache (250 KB each on a
# 487-event grid), where one pass over the whole grid would need a grid-sized
# scratch array and a pass per block would pay each call's overhead per block.
# The 1500 x 487 grid took 24.5 ms at 64 rows, 25.1 at 32 and 24.8 at 128;
# a 15000 x 1967 grid 1.77 s at 64, 1.73 at 32 and 1.79 at 128, within the
# host's spread (same host as above).
GRID_GROUP_ROWS = 64
# Pairs per `score_edges_raw` block: the event half is gathered and added into
# the hidden units one block at a time, so its temporary is 2^16 x hidden
# floats (16 MB at 32 units) rather than a second pairs x hidden array.
PAIR_BLOCK_ROWS = 1 << 16
SVD_POWER_ITERS = 8


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


@dataclass(frozen=True)
class LayerParams:
    """One message-passing round: self and neighbor-mean maps for each side."""

    w_self_p: np.ndarray
    w_nbr_p: np.ndarray
    b_p: np.ndarray
    w_self_e: np.ndarray
    w_nbr_e: np.ndarray
    b_e: np.ndarray


_LAYER_TENSORS = tuple(f.name for f in fields(LayerParams))


@dataclass(frozen=True)
class ModelParams:
    """Each tensor is a view of one float64 buffer, `flat`, in `named_tensors()`
    order. Frozen, as is `LayerParams`: a tensor is written in place
    (`t[...] = x`), never rebound off the buffer."""

    event_embeddings: np.ndarray
    encoder_weight: np.ndarray
    encoder_bias: np.ndarray
    layers: tuple[LayerParams, ...]
    scorer_w1: np.ndarray
    scorer_b1: np.ndarray
    scorer_w2: np.ndarray
    scorer_b2: np.ndarray
    flat: np.ndarray = field(repr=False)

    def named_tensors(self):
        """Stable (name, array) iteration used by the optimizer and checkpoints."""
        yield "event_embeddings", self.event_embeddings
        yield "encoder.weight", self.encoder_weight
        yield "encoder.bias", self.encoder_bias
        for idx, layer in enumerate(self.layers):
            for attr in _LAYER_TENSORS:
                yield f"layers.{idx}.{attr}", getattr(layer, attr)
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
    elif np.shape(event_embeddings) != (num_events, d):
        raise ValueError(
            f"event embedding shape {np.shape(event_embeddings)} != ({num_events}, {d})"
        )
    layers = [
        (_glorot(rng, d, d, (d, d)), _glorot(rng, d, d, (d, d)), np.zeros(d),
         _glorot(rng, d, d, (d, d)), _glorot(rng, d, d, (d, d)), np.zeros(d))
        for _ in range(config.num_layers)
    ]
    head = (event_embeddings, _glorot(rng, f, d, (f, d)), np.zeros(d))
    w1 = _glorot(rng, 2 * d, h, (2 * d, h))
    scorer = (w1, np.zeros(h), _glorot(rng, h, 1, (h,)), np.zeros(()))
    # drawn in the seed stream's order, laid out in `named_tensors()` order
    tensors = [*head, *(t for layer in layers for t in layer), *scorer]
    flat = np.concatenate([np.ravel(t) for t in tensors], dtype=np.float64)
    parts = np.split(flat, np.cumsum([np.size(t) for t in tensors])[:-1])
    views = [part.reshape(np.shape(t)) for part, t in zip(parts, tensors, strict=True)]
    k = len(_LAYER_TENSORS)
    layer_views = tuple(LayerParams(*views[i : i + k]) for i in range(3, len(views) - 4, k))
    return ModelParams(*views[:3], layer_views, *views[-4:], flat)


def init_event_embeddings_svd(train: Dataset, d: int, seed=0) -> np.ndarray:
    """Top-d right singular vectors of the train matrix, scaled by sqrt(singular value).

    Computed by randomized subspace iteration on the sparse matrix, so the cost
    is bounded by a few sparse products per power step. Deterministic given the
    seed. If the matrix rank falls below d (including d > min(m, n)), the
    remaining columns are filled with small seeded Gaussian noise and a warning
    is issued.
    """
    m, n = train.num_patients, train.num_events
    rng = np.random.default_rng(seed)
    x = build(train.positives, m, n).matrix()

    k = min(d, m, n)
    width = min(k + 10, n)
    probe = rng.normal(size=(n, width))
    q, _ = np.linalg.qr(x @ probe)
    for _ in range(SVD_POWER_ITERS):
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
    h = demographics @ params.encoder_weight
    h += params.encoder_bias
    return np.maximum(h, 0.0, out=h)


def mean_operators(g: BipartiteGraph) -> tuple[sp.csr_matrix, sp.csc_matrix]:
    """Row-normalized neighbor-mean operators (patient side m x n, event side n x m).

    Both share the patient CSR's structure, so no product needs a format
    conversion. The event side is the transpose view (CSC) of that CSR with
    each column scaled by its event's inverse degree: a product with it
    streams the patient rows, and its own `.T` is the patient-row CSR again.
    Each output row still sums its neighbors in ascending order. Rows of
    isolated nodes are empty, realizing the zero-vector rule for empty
    neighborhoods.
    """
    deg_p = g.patient_degrees()
    deg_e = g.event_degrees()
    inv_p = np.divide(1.0, deg_p, out=np.zeros(len(deg_p)), where=deg_p > 0)
    inv_e = np.divide(1.0, deg_e, out=np.zeros(len(deg_e)), where=deg_e > 0)
    return g.matrix(np.repeat(inv_p, deg_p)), g.matrix(inv_e[g.patient_indices]).T


@dataclass
class ForwardTrace:
    """Intermediates of one forward pass, kept for the backward pass.

    The states hold each round's input and, last, the final latents. A
    rectifier's derivative is read off its output (positive exactly where its
    input was), so pre-activations are not kept. The patient side's neighbor
    mean is never formed (see `message_pass`), so only the event side's is kept.
    The event-side operator is the CSC view that `mean_operators` returns; its
    `.T` is the patient-row CSR the backward gathers through.
    """

    patient_states: list[np.ndarray] = field(default_factory=list)
    event_states: list[np.ndarray] = field(default_factory=list)
    event_means: list[np.ndarray] = field(default_factory=list)
    agg_patient: sp.csr_matrix | None = None
    agg_event: sp.csc_matrix | None = None


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
    patient_rows: slice = slice(None),
) -> tuple[np.ndarray, np.ndarray]:
    """Latent embeddings after all rounds, from explicit initial features.

    The patient side applies its neighbor map before aggregating,
    ap @ (e @ w_nbr_p), so its dense product runs over event rows; the event
    side aggregates first, (ae @ p) @ w_nbr_e, because its mean is the small
    side. If `trace` is given, the mean operators, each round's input states
    and event-side neighbor means, and the final latents are recorded into it.

    The last round updates only the patients in `patient_rows` (all of them
    by default), whose latents alone are returned, with the same bits as the
    full pass's rows; the events still aggregate every patient. A trace needs
    every row, so a trimmed slice with `trace` is a ValueError.
    """
    every = range(patient_init.shape[0])
    trimmed = every[patient_rows] != every
    if trimmed and trace is not None:
        raise ValueError("a traced pass updates every patient; patient_rows must keep all rows")
    ap, ae = mean_operators(g_visible)
    p, e = patient_init, event_init
    if trace is not None:
        trace.agg_patient, trace.agg_event = ap, ae
        trace.patient_states.append(p)
        trace.event_states.append(e)
    last = len(params.layers) - 1
    for idx, layer in enumerate(params.layers):
        me = ae @ p
        if idx == last and trimmed:
            p, ap = p[patient_rows], ap[patient_rows]
        # summed in place, left to right: p @ w_self + ap @ (e @ w_nbr) + b
        p_new = p @ layer.w_self_p
        p_new += ap @ (e @ layer.w_nbr_p)
        p_new += layer.b_p
        e_new = e @ layer.w_self_e
        e_new += me @ layer.w_nbr_e
        e_new += layer.b_e
        if idx < last:
            np.maximum(p_new, 0.0, out=p_new)
            np.maximum(e_new, 0.0, out=e_new)
        p, e = p_new, e_new
        if trace is not None:
            trace.event_means.append(me)
            trace.patient_states.append(p)
            trace.event_states.append(e)
    return p, e


def _first_layer_halves(
    params: ModelParams, patient_latents: np.ndarray, event_latents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The scorer's first layer split by input side: (P @ w1[:d], E @ w1[d:] + b1).

    On a pair (i, j) the hidden pre-activation is left[i] + right[j], so both
    scorer paths multiply each node once, not once per pair or cell, and add
    the bias once per event.
    """
    d = event_latents.shape[1]
    left = patient_latents @ params.scorer_w1[:d]
    return left, event_latents @ params.scorer_w1[d:] + params.scorer_b1


def score_edges_raw(
    params: ModelParams,
    patient_latents: np.ndarray,
    event_latents: np.ndarray,
    pairs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Scorer forward on (patient, event) pairs, off-grid ones refused: (probs, hidden units).

    The hidden pre-activation gathers the two first-layer halves per pair,
    adding the event half in blocks of PAIR_BLOCK_ROWS pairs, and is rectified
    in place; the backward reads the rectifier's derivative off the returned
    units (positive exactly where the pre-activation was).
    """
    pairs = check_pairs(pairs, len(patient_latents), len(event_latents))
    left, right = _first_layer_halves(params, patient_latents, event_latents)
    h = left[pairs[:, 0]]
    for start in range(0, len(pairs), PAIR_BLOCK_ROWS):
        block = h[start : start + PAIR_BLOCK_ROWS]
        block += right[pairs[start : start + PAIR_BLOCK_ROWS, 1]]
        np.maximum(block, 0.0, out=block)
    return _sigmoid(h @ params.scorer_w2 + params.scorer_b2), h


def score_grid(
    params: ModelParams, patient_latents: np.ndarray, event_latents: np.ndarray
) -> np.ndarray:
    """All patients x all events probability matrix, computed in row blocks.

    With relu(l + r) = max(l, -r) + r, the logit of cell (i, j) is
    w2 . max(left[i], -right[j]) + c_j, where c_j = w2 . right[j] + b2 is
    computed once per event. Each block of GRID_BLOCK_ROWS patients copies its
    left halves across one reused (rows, hidden, events) buffer, takes the
    maximum with -right in place, both operands contiguous, and writes its
    logits into the grid. numpy has a SIMD loop for that maximum but not for
    one whose operand is broadcast along the events (stride 0): on a 1500 x 487
    grid with 32 hidden units the broadcast maxima took 23.4 ms, the copies
    and contiguous maxima 20.2 ms. Each group of GRID_GROUP_ROWS patients then
    gets its constant, sigmoid and clip in place. The logits match the
    pairwise scorer's up to summation order (~1e-15).
    """
    left, right = _first_layer_halves(params, patient_latents, event_latents)
    neg_right = np.ascontiguousarray(-right.T)
    const = right @ params.scorer_w2 + params.scorer_b2
    t, n = patient_latents.shape[0], neg_right.shape[1]
    out = np.empty((t, n))
    buf = np.empty((min(GRID_BLOCK_ROWS, t), *neg_right.shape))
    scratch = np.empty((min(GRID_GROUP_ROWS, t), n))
    for group in range(0, t, GRID_GROUP_ROWS):
        group_stop = min(group + GRID_GROUP_ROWS, t)
        for start in range(group, group_stop, GRID_BLOCK_ROWS):
            stop = min(start + GRID_BLOCK_ROWS, group_stop)
            h = buf[: stop - start]
            h[...] = left[start:stop, :, None]
            np.maximum(h, neg_right, out=h)
            np.matmul(params.scorer_w2, h, out=out[start:stop])
        x = out[group:group_stop]
        x += const
        _sigmoid(x, out=x, scratch=scratch[: group_stop - group])
        np.clip(x, PROB_EPS, 1.0 - PROB_EPS, out=x)
    return out


def save_checkpoint(path, config: ModelConfig, params: ModelParams, split_sha256: str) -> None:
    """Write a versioned checkpoint that round-trips bit-exactly, with the
    fingerprint of the split it was trained on."""
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(config),
        "num_events": params.num_events(),
        "split_sha256": split_sha256,
    }
    arrays = {f"param/{name}": tensor for name, tensor in params.named_tensors()}
    np.savez(path, meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def _entry(mapping, key: str, kind: str):
    """`mapping[key]`, or a CheckpointError naming the missing key."""
    try:
        return mapping[key]
    except KeyError:
        raise CheckpointError(f"checkpoint has no {kind} {key}") from None
    except ValueError as exc:  # an npz object array, which allow_pickle=False does not read
        raise CheckpointError(f"checkpoint {kind} {key} cannot be read ({exc})") from None


def _int_entry(mapping, key: str, kind: str) -> int:
    """`_entry`, or a CheckpointError naming the key if its value is not an int
    (a bool is an int to Python, not here)."""
    value = _entry(mapping, key, kind)
    if type(value) is not int:
        raise CheckpointError(f"checkpoint {kind} {key} is not an integer")
    return value


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams, str]:
    """Read a checkpoint: its config, parameters and split fingerprint. Meta
    keys and arrays this version does not use are ignored.

    Each array is copied into the one `init_params` makes for the stored config
    and event count, and must have its shape, an integer or float dtype and
    finite values, so that none is broadcast later, cast from a string or
    truncated from a complex number, or turns every score nan.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError("not an npz archive")
    with data:
        try:
            meta = json.loads(str(_entry(data, "meta", "array")))
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint meta is not JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise CheckpointError("checkpoint meta is not a JSON object")
        version = _entry(meta, "format_version", "meta key")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        stored_config = _entry(meta, "config", "meta key")
        if not isinstance(stored_config, dict):
            raise CheckpointError("checkpoint meta key config is not a JSON object")
        unknown = sorted(set(stored_config) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise CheckpointError(f"checkpoint config has unknown key {', '.join(unknown)}")
        for key in stored_config:  # every ModelConfig field is an int
            _int_entry(stored_config, key, "config key")
        try:
            config = ModelConfig(**stored_config)
        except ValueError as exc:
            raise CheckpointError(f"checkpoint config: {exc}") from None
        num_events = _int_entry(meta, "num_events", "meta key")
        if num_events < 1:
            raise CheckpointError("checkpoint meta key num_events must be >= 1")
        params = init_params(config, num_events, seed=0)
        for name, tensor in params.named_tensors():
            stored = _entry(data, f"param/{name}", "array")
            if stored.shape != tensor.shape:
                raise CheckpointError(
                    f"checkpoint array {name} has shape {stored.shape}, expected {tensor.shape}"
                )
            if stored.dtype.kind not in "iuf":
                raise CheckpointError(
                    f"checkpoint array {name} has dtype {stored.dtype}, not a real number type"
                )
            tensor[...] = stored
            if not np.isfinite(tensor).all():
                raise CheckpointError(f"checkpoint array {name} holds a non-finite value")
    return config, params, _entry(meta, "split_sha256", "meta key")
