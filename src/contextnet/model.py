"""Model: embeddings, contextual embedding (TCE), refinement blocks, head.

Parameters are one ordered mapping from tensor name to array; param_shapes
gives the names and their order. Only training keeps a tape: its forward
pass keeps every intermediate needed by the hand-written backward pass in a
TapeCache, while scoring (score_chunks, SCORE_CHUNK rows at a time) keeps
just the last stage. Parameter sharing across blocks is realized by storing
shared tensors once and resolving block -> storage slot, so gradients of
shared tensors accumulate additively.

Activations are batch-last: a block maps [k, f, B] -> [k, f, B], so every
broadcast and reduction runs over rows of B contiguous values and the FFN
is one GEMM over [k, f*B]. The head is a logistic regression over the
[k*f, B] output of the last block, so field_weights splits each logit
exactly into per-field terms. Parameters keep their checkpoint layout
(embeddings are length-k rows, flat axes in (f, k) order); the passes read
agg_w, proj_w, proj_b and head_w through a (k, f) reordering of that axis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from contextnet.data import EncodedDataset
from contextnet.metrics import logloss
from contextnet.ops import (
    Rng,
    layer_norm,
    layer_norm_backward,
    logit,
    mix_seed,
    row_sums,
    sigmoid,
)

PFFN = "pffn"
SFFN = "sffn"

SHARE_NOTHING = "none"
SHARE_AGG = "agg"
SHARE_AGG_PROJ = "agg-proj"

LN_EPS = 1e-5
_INIT_SALT = 0x1217
SCORE_CHUNK = 4096  # rows per tape-free scoring pass

# tensor name -> array, in param_shapes order
Params = dict[str, np.ndarray]

# tensors entering the L2 penalty: weights only, no biases or LN affine
_REGULARIZED = ("embed", "agg_w", "proj_w", "ffn_w1", "ffn_w2", "head_w")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    n_blocks = 0 degenerates to logistic regression over the embeddings.
    The no_* flags remove one component each: the contextual-embedding merge,
    the feed-forward map, the layer norm, or the residual connection (the
    residual exists only in the pffn variant).
    """

    n_fields: int
    embed_dim: int = 10
    agg_width: int = 20
    n_blocks: int = 3
    variant: str = SFFN
    sharing: str = SHARE_NOTHING
    no_tce: bool = False
    no_ffn: bool = False
    no_ln: bool = False
    no_rc: bool = False
    l2: float = 0.0

    def __post_init__(self):
        if self.n_fields < 1:
            raise ValueError("n_fields must be >= 1")
        if self.embed_dim < 1 or self.agg_width < 1:
            raise ValueError("embed_dim and agg_width must be >= 1")
        if self.n_blocks < 0:
            raise ValueError("n_blocks must be >= 0")
        if self.variant not in (PFFN, SFFN):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.sharing not in (SHARE_NOTHING, SHARE_AGG, SHARE_AGG_PROJ):
            raise ValueError(f"unknown sharing strategy {self.sharing!r}")
        if not 0.0 <= self.l2 < float("inf"):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")

    @property
    def flat_dim(self) -> int:
        return self.n_fields * self.embed_dim

    @property
    def has_tce(self) -> bool:
        return self.n_blocks >= 1 and not self.no_tce

    @property
    def has_ffn(self) -> bool:
        return self.n_blocks >= 1 and not self.no_ffn

    @property
    def has_ln(self) -> bool:
        return self.has_ffn and not self.no_ln

    def agg_slot(self, block: int) -> int:
        return 0 if self.sharing in (SHARE_AGG, SHARE_AGG_PROJ) else block

    def proj_slot(self, block: int) -> int:
        return 0 if self.sharing == SHARE_AGG_PROJ else block


def param_shapes(config: ModelConfig, cardinalities: list[int]) -> dict[str, tuple]:
    """Name -> shape of every learnable tensor, in checkpoint order.

    Tensors come kind by kind (embed.0, embed.1, ..., agg_w.0, ...), then
    head_w [f*k] and head_b [1]. embed.i is [cardinality_i, k]; numerical
    fields use a single row scaled by the standardized value. agg/proj
    tensors exist per storage slot (1 when shared across blocks, n_blocks
    otherwise). Biases exist only where the architecture carries them: the
    sffn map has none.
    """
    k, t, f, m = config.embed_dim, config.agg_width, config.n_fields, config.flat_dim
    tce_blocks = range(config.n_blocks if config.has_tce else 0)
    n_agg = len({config.agg_slot(b) for b in tce_blocks})
    n_proj = len({config.proj_slot(b) for b in tce_blocks})
    n_ffn = config.n_blocks if config.has_ffn else 0
    n_pffn = n_ffn if config.variant == PFFN else 0
    n_ln = config.n_blocks if config.has_ln else 0
    shapes = {f"embed.{i}": (card, k) for i, card in enumerate(cardinalities)}
    for kind, count, shape in (
        ("agg_w", n_agg, (t, m)),
        ("agg_b", n_agg, (t,)),
        ("proj_w", n_proj, (f, k, t)),
        ("proj_b", n_proj, (f, k)),
        ("ffn_w1", n_ffn, (k, k)),
        ("ffn_b1", n_pffn, (k,)),
        ("ffn_w2", n_pffn, (k, k)),
        ("ffn_b2", n_pffn, (k,)),
        ("ln_gain", n_ln, (k,)),
        ("ln_bias", n_ln, (k,)),
    ):
        shapes.update((f"{kind}.{i}", shape) for i in range(count))
    shapes["head_w"] = (m,)
    shapes["head_b"] = (1,)
    return shapes


def _regularized(name: str) -> bool:
    return name.partition(".")[0] in _REGULARIZED


def _draw_order(name: str) -> tuple[bool, int]:
    """Random draws run embed, agg_w, proj_w, then block by block ffn_w1
    before ffn_w2 -- not the checkpoint order, which lists every ffn_w1
    before any ffn_w2. Same-seed checkpoints depend on both orders."""
    kind, _, index = name.partition(".")
    ffn = kind.startswith("ffn")
    return ffn, int(index) if ffn else 0


def init_params(
    config: ModelConfig,
    cardinalities: list[int],
    seed: int,
    pos_rate: float | None = None,
) -> Params:
    """Allocate and initialize every tensor the configuration calls for.

    Embeddings start small (Normal, std 0.01), fully connected weights use
    the uniform fan-based bound sqrt(6 / (fan_in + fan_out)), biases start
    at zero, and the head starts as the prior: w = 0 and w0 = logit of the
    training positive rate when known, so the initial predictions are
    calibrated to the base rate.
    """
    shapes = param_shapes(config, cardinalities)
    rng = Rng(mix_seed(seed, _INIT_SALT))
    params = {}
    for name in sorted(shapes, key=_draw_order):
        kind, shape = name.partition(".")[0], shapes[name]
        if kind == "embed":
            params[name] = rng.normal(shape, scale=0.01)
        elif kind in ("agg_w", "proj_w", "ffn_w1", "ffn_w2"):
            bound = np.sqrt(6.0 / (shape[-1] + shape[-2]))  # [.., fan_out, fan_in]
            params[name] = rng.uniform(-bound, bound, shape)
        elif kind == "ln_gain":
            params[name] = np.ones(shape)
        else:
            params[name] = np.zeros(shape)
    if pos_rate is not None:
        params["head_b"][0] = logit(min(max(pos_rate, 1e-6), 1.0 - 1e-6))
    return {name: params[name] for name in shapes}


class NonFiniteScore(ArithmeticError):
    """A scored row's logit is NaN or infinite."""


@dataclass
class TapeCache:
    """Forward intermediates consumed by the backward pass (one per batch);
    a pass without a tape keeps only the last stage, logits and scores.
    Activations are batch-last, so batch is the contiguous axis."""

    stages: list  # [e0 .. eL]: embedding layer, then block outputs, [k, f, B]
    # per block, None where the configuration lacks the component:
    agg_act: list = field(default_factory=list)  # [t, B] aggregation, after relu
    context: list = field(default_factory=list)  # [k, f, B] contextual embeddings
    merged: list = field(default_factory=list)  # [k, f, B] Hadamard-merged
    ffn_hidden: list = field(default_factory=list)  # pffn hidden, after relu, [k, f*B]
    ln: list = field(default_factory=list)  # LayerNormCache over [k, f, B]
    logits: np.ndarray = None  # [B]
    scores: np.ndarray = None  # [B]


def embed(batch: EncodedDataset, params: Params, config: ModelConfig) -> np.ndarray:
    """Per-field embeddings, numerical fields' rows scaled by their values: [k, f, B]."""
    B = len(batch)
    out = np.empty((config.embed_dim, config.n_fields, B))
    for i in range(config.n_fields):
        out[:, i, :] = params[f"embed.{i}"][batch.indices[:, i]].T
    for j, i in enumerate(batch.numerical):
        out[:, i, :] *= batch.values[:, j]
    return out


def _kf_order(config: ModelConfig) -> np.ndarray:
    """Index into the (f, k)-ordered flat parameter axis of agg_w, proj_w,
    proj_b and head_w for each row of a batch-last [k*f, B] activation."""
    f, k = config.n_fields, config.embed_dim
    return np.arange(f * k).reshape(f, k).T.ravel()


def predict(
    batch: EncodedDataset, params: Params, config: ModelConfig, keep_tape: bool = True
) -> tuple[np.ndarray, TapeCache]:
    """Full forward pass; returns scores in (0, 1) and the tape for backward.

    Each block merges its input with a contextual embedding (Hadamard
    product), then applies the variant's feed-forward map and layer norm.
    Every block's context is aggregated from the embedding layer, never
    from a refined block output. With keep_tape off, intermediates are
    released once the next exists and the merge overwrites the context;
    the arithmetic, and so every output bit, stays the same.
    """
    B = len(batch)
    f, k = config.n_fields, config.embed_dim
    e0 = embed(batch, params, config)
    e0_flat = e0.reshape(k * f, B)
    kf = _kf_order(config)
    tape = TapeCache([e0])
    e_cur = e0
    for block in range(config.n_blocks):
        # views (flat, out) pin their base arrays, so they are reset too
        agg_act = ce = hidden = ln_cache = flat = out = None
        merged = e_cur
        if config.has_tce:
            sa = config.agg_slot(block)
            sp = config.proj_slot(block)
            agg_act = params[f"agg_w.{sa}"][:, kf] @ e0_flat
            agg_act += params[f"agg_b.{sa}"][:, None]
            np.maximum(agg_act, 0.0, out=agg_act)
            ce = params[f"proj_w.{sp}"].reshape(k * f, -1)[kf] @ agg_act
            ce += params[f"proj_b.{sp}"].reshape(-1, 1)[kf]
            ce = ce.reshape(k, f, B)
            merged = np.multiply(e_cur, ce, out=None if keep_tape else ce)
        e_next = merged
        if config.has_ffn:
            flat = merged.reshape(k, f * B)
            w1 = params[f"ffn_w1.{block}"]
            if config.variant == PFFN:
                hidden = w1.T @ flat
                hidden += params[f"ffn_b1.{block}"][:, None]
                np.maximum(hidden, 0.0, out=hidden)
                out = params[f"ffn_w2.{block}"].T @ hidden
                out += params[f"ffn_b2.{block}"][:, None]
                if not config.no_rc:
                    out += flat
            else:
                out = w1.T @ flat
            e_next = out.reshape(k, f, B)
            if config.has_ln:
                if not keep_tape:  # nothing reads these again
                    e_cur = ce = merged = flat = hidden = None
                e_next, ln_cache = layer_norm(
                    e_next, params[f"ln_gain.{block}"], params[f"ln_bias.{block}"], LN_EPS
                )
        if keep_tape:
            tape.agg_act.append(agg_act)
            tape.context.append(ce)
            tape.merged.append(merged)
            tape.ffn_hidden.append(hidden)
            tape.ln.append(ln_cache)
            tape.stages.append(e_next)
        e_cur = e_next
    if not keep_tape:
        tape.stages = [e_cur]
    tape.logits = params["head_w"][kf] @ e_cur.reshape(k * f, B) + params["head_b"][0]
    tape.scores = sigmoid(tape.logits)
    return tape.scores, tape


def field_weights(final: np.ndarray, params: Params, config: ModelConfig):
    """Signed per-field logit contributions of a batch-last [k, f, B] final
    stage: [f, B]. With head_b they sum to the logit."""
    w = params["head_w"].reshape(config.n_fields, config.embed_dim)
    return np.einsum("kfb,fk->fb", final, w)


def require_finite(tape: TapeCache, first_row: int) -> None:
    """Raise NonFiniteScore naming the first row whose logit is not finite,
    counting from first_row, the chunk's position in the scored dataset."""
    bad = np.flatnonzero(~np.isfinite(tape.logits))
    if bad.size:
        raise NonFiniteScore(
            f"scored row {first_row + bad[0]}: logit {tape.logits[bad[0]]} is not finite"
        )


def score_chunks(dataset: EncodedDataset, params: Params, config: ModelConfig):
    """Yield (rows, tape) for each SCORE_CHUNK-row slice of a dataset, in
    order, each scored by a forward pass without a tape, so memory is
    bounded by the chunk, not the dataset. A non-finite logit raises
    NonFiniteScore."""
    for start in range(0, len(dataset), SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        _, tape = predict(dataset.take(rows), params, config, keep_tape=False)
        require_finite(tape, start)
        yield rows, tape


def predict_scores(dataset: EncodedDataset, params: Params, config: ModelConfig) -> np.ndarray:
    """Scores of every row of a dataset, chunk by chunk (score_chunks)."""
    out = np.empty(len(dataset))
    for rows, tape in score_chunks(dataset, params, config):
        out[rows] = tape.scores
    return out


def l2_norm(params: Params) -> float:
    """Sum of squares over the regularized tensors (weights, not biases)."""
    return float(sum(np.sum(a * a) for n, a in params.items() if _regularized(n)))


def grad_rows(g) -> tuple:
    """(rows, values) of a gradient: (rows, sums) as it is, an array at all rows."""
    return g if isinstance(g, tuple) else (slice(None), g)


def loss_and_grads(
    batch: EncodedDataset, params: Params, config: ModelConfig
) -> tuple[float, dict]:
    """Mean cross-entropy plus l2 penalty and its exact gradients.

    The reverse pass mirrors the forward tape: head -> blocks -> contextual
    embeddings -> embedding tables. Gradients of tensors shared across
    blocks accumulate additively. At l2 = 0 an embedding table's gradient
    is the (rows, sums) of ops.row_sums, no zeroed table; with l2 > 0 each
    regularized weight w additionally receives 2 * l2 * w, as an array.
    """
    scores, tape = predict(batch, params, config)
    loss = logloss(scores, batch.labels)
    objective = loss
    grads = {n: np.zeros_like(a) for n, a in params.items() if not n.startswith("embed.")}
    B = len(batch)
    f, k = config.n_fields, config.embed_dim

    kf = _kf_order(config)
    dlogits = (scores - batch.labels) / B
    grads["head_w"][kf] = tape.stages[-1].reshape(k * f, B) @ dlogits
    grads["head_b"][0] = dlogits.sum()
    d_cur = np.outer(params["head_w"][kf], dlogits).reshape(k, f, B)
    e0_flat = tape.stages[0].reshape(k * f, B)
    d_e0_flat = np.zeros_like(e0_flat)

    for block in reversed(range(config.n_blocks)):
        d_merged = d_cur
        if config.has_ffn:
            d_out = d_cur
            if config.has_ln:
                d_out, dgain, dbias = layer_norm_backward(tape.ln[block], d_cur)
                grads[f"ln_gain.{block}"] += dgain
                grads[f"ln_bias.{block}"] += dbias
            d_out = d_out.reshape(k, f * B)
            merged = tape.merged[block].reshape(k, f * B)
            w1 = params[f"ffn_w1.{block}"]
            if config.variant == PFFN:
                grads[f"ffn_w2.{block}"] += tape.ffn_hidden[block] @ d_out.T
                grads[f"ffn_b2.{block}"] += d_out.sum(axis=1)
                d_pre = params[f"ffn_w2.{block}"] @ d_out
                # relu backward: its output is > 0 exactly where its input is
                d_pre *= tape.ffn_hidden[block] > 0.0
                grads[f"ffn_w1.{block}"] += merged @ d_pre.T
                grads[f"ffn_b1.{block}"] += d_pre.sum(axis=1)
                d_merged = w1 @ d_pre
                if not config.no_rc:
                    d_merged += d_out
            else:
                grads[f"ffn_w1.{block}"] += merged @ d_out.T
                d_merged = w1 @ d_out
            d_merged = d_merged.reshape(k, f, B)

        d_cur = d_merged
        if config.has_tce:
            d_cur = d_merged * tape.context[block]
            d_ce = np.multiply(d_merged, tape.stages[block], out=d_merged)
            d_ce = d_ce.reshape(k * f, B)
            sa = config.agg_slot(block)
            sp = config.proj_slot(block)
            grads[f"proj_w.{sp}"].reshape(k * f, -1)[kf] += d_ce @ tape.agg_act[block].T
            grads[f"proj_b.{sp}"].reshape(-1)[kf] += d_ce.sum(axis=1)
            d_agg_pre = params[f"proj_w.{sp}"].reshape(k * f, -1)[kf].T @ d_ce
            d_agg_pre *= tape.agg_act[block] > 0.0
            grads[f"agg_w.{sa}"][:, kf] += d_agg_pre @ e0_flat.T
            grads[f"agg_b.{sa}"] += d_agg_pre.sum(axis=1)
            d_e0_flat += params[f"agg_w.{sa}"][:, kf].T @ d_agg_pre

    d_cur += d_e0_flat.reshape(k, f, B)
    for j, i in enumerate(batch.numerical):
        d_cur[:, i, :] *= batch.values[:, j]
    for i in range(f):
        grads[f"embed.{i}"] = row_sums(batch.indices[:, i], d_cur[:, i, :])

    if config.l2 > 0.0:
        objective = loss + config.l2 * l2_norm(params)
        for name, w in params.items():
            if _regularized(name):
                rows, g = grad_rows(grads[name])
                grads[name] = 2.0 * config.l2 * w
                grads[name][rows] += g
    return objective, grads
