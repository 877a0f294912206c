"""Token embedding, masked encoder layers, and the joint-scoring forward.

The encoder is a classic post-layernorm stack: residual multi-head
self-attention followed by a residual feed-forward block, both closed by a
layernorm. Every head of a layer shares one boolean allow-matrix, injected
into the attention softmax.

Input convention for a scored pair: ``[CLS] q_1..q_n [SEP] d_1..d_m [SEP]``
with learned absolute position embeddings. Document positions start at the
fixed offset ``max_query + 2`` regardless of the actual query length, so a
document's rows are identical whether it is encoded jointly with a query or
on its own — the property that makes precomputed document states reusable.

Over-length inputs are head-truncated (the leading ``max_query`` /
``max_doc`` tokens are kept); queries are never truncated below one token.
Inside a batch, shorter examples are padded: pad rows attend only to
themselves, no real row attends to a pad column, and the score is read from
the CLS row, which is never padding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .masking import MaskSpec, SegmentLayout, build_mask
from .tensor import (
    ShapeError,
    Tensor,
    check_finite,
    gather_rows,
    gelu,
    layernorm,
    masked_softmax,
    matmul,
    select,
)

__all__ = [
    "CLS_ID",
    "SEP_ID",
    "PAD_ID",
    "UNK_ID",
    "FIRST_WORD_ID",
    "ModelConfig",
    "LayerWeights",
    "Weights",
    "init_layer_weights",
    "init_ce_weights",
    "encoder_layer",
    "score_pairs",
    "cross_encoder_forward",
    "joint_states",
    "pair_positions",
]

# Reserved token ids; word ids start at FIRST_WORD_ID. A single SEP id serves
# both separator slots — the two are distinguished by position and mask role.
CLS_ID = 0
SEP_ID = 1
PAD_ID = 2
UNK_ID = 3
FIRST_WORD_ID = 4


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters shared by the joint and mid-fusion models.

    ``split_depth`` is the number of lower layers through which query and
    document are contextualized independently; ``interaction_layers`` is the
    number of joint upper layers kept by the mid-fusion variant (0 for a
    plain cross-encoder config).
    """

    layers: int
    hidden: int
    heads: int
    ff: int
    vocab_size: int
    max_query: int
    max_doc: int
    split_depth: int = 1
    interaction_layers: int = 0

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("need at least one layer")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not 1 <= self.split_depth <= self.layers:
            raise ValueError(
                f"split_depth {self.split_depth} outside 1..{self.layers}"
            )
        if self.interaction_layers and not (
            1 <= self.interaction_layers <= self.layers - self.split_depth
        ):
            raise ValueError(
                f"interaction_layers {self.interaction_layers} outside "
                f"1..{self.layers - self.split_depth}"
            )
        if self.vocab_size <= FIRST_WORD_ID:
            raise ValueError(f"vocab_size must exceed {FIRST_WORD_ID}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def position_count(self) -> int:
        return self.max_query + self.max_doc + 3


@dataclass
class LayerWeights:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ln_attn_gain: Tensor
    ln_attn_bias: Tensor
    w1: Tensor
    w2: Tensor
    ln_ffn_gain: Tensor
    ln_ffn_bias: Tensor

    FIELDS = (
        "wq", "wk", "wv", "wo",
        "ln_attn_gain", "ln_attn_bias",
        "w1", "w2",
        "ln_ffn_gain", "ln_ffn_bias",
    )

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for name in self.FIELDS:
            yield f"{prefix}.{name}", getattr(self, name)


@dataclass
class _ParameterSet:
    """What the cross-encoder and mid-fusion parameter sets share. Both hold
    ``token_emb``, ``pos_emb``, ``score_w`` and ``score_b``; ``STACKS`` names
    their lists of layers, in serialization order."""

    STACKS = ()
    _fingerprint: bytes | None = field(default=None, repr=False, compare=False, kw_only=True)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "token_emb", self.token_emb
        yield "pos_emb", self.pos_emb
        for stack in self.STACKS:
            for i, lw in enumerate(getattr(self, stack)):
                yield from lw.named(f"{stack}.{i}")
        yield "score_w", self.score_w
        yield "score_b", self.score_b

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def fingerprint(self) -> bytes:
        """Digest of the serialized checkpoint; identifies compatible caches."""
        if self._fingerprint is None:
            from .checkpoint import weights_fingerprint

            self._fingerprint = weights_fingerprint(self)
        return self._fingerprint

    def invalidate_fingerprint(self) -> None:
        self._fingerprint = None


@dataclass
class Weights(_ParameterSet):
    """Cross-encoder parameters; read-only after load / shareable."""

    STACKS = ("layers",)
    config: ModelConfig
    token_emb: Tensor
    pos_emb: Tensor
    layers: list[LayerWeights]
    score_w: Tensor
    score_b: Tensor


def _normal(rng: np.random.Generator, shape, dtype) -> Tensor:
    return Tensor((rng.standard_normal(shape) * 0.02).astype(dtype), requires_grad=True)


def init_layer_weights(config: ModelConfig, rng: np.random.Generator, dtype) -> LayerWeights:
    d, f = config.hidden, config.ff
    return LayerWeights(
        wq=_normal(rng, (d, d), dtype),
        wk=_normal(rng, (d, d), dtype),
        wv=_normal(rng, (d, d), dtype),
        wo=_normal(rng, (d, d), dtype),
        ln_attn_gain=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        ln_attn_bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
        w1=_normal(rng, (d, f), dtype),
        w2=_normal(rng, (f, d), dtype),
        ln_ffn_gain=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        ln_ffn_bias=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
    )


def _init_parameters(config: ModelConfig, layer_count: int, seed: int, dtype) -> dict:
    """Seeded parameters of either model: embeddings, ``layer_count`` encoder
    layers and the score head, drawn in that order. Returns constructor
    keywords; the layers sit under ``layers``."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    d = config.hidden
    return dict(
        token_emb=_normal(rng, (config.vocab_size, d), dtype),
        pos_emb=_normal(rng, (config.position_count, d), dtype),
        layers=[init_layer_weights(config, rng, dtype) for _ in range(layer_count)],
        score_w=_normal(rng, (d, 1), dtype),
        score_b=Tensor(np.zeros(1, dtype=dtype), requires_grad=True),
    )


def init_ce_weights(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Weights:
    """Fresh randomly-initialized cross-encoder parameters."""
    return Weights(config, **_init_parameters(config, config.layers, seed, dtype))


# --------------------------------------------------------------------------
# forward pieces
# --------------------------------------------------------------------------


def embed(weights, token_ids: np.ndarray, pos_ids: np.ndarray) -> Tensor:
    """Token-plus-position embedding; ids are integer arrays of shape [B, s]."""
    token_ids = np.asarray(token_ids)
    pos_ids = np.asarray(pos_ids)
    if token_ids.shape != pos_ids.shape:
        raise ShapeError(
            f"token ids {token_ids.shape} vs position ids {pos_ids.shape}"
        )
    return gather_rows(weights.token_emb, token_ids) + gather_rows(weights.pos_emb, pos_ids)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, s, d = x.shape
    return x.reshape((b, s, heads, d // heads)).transpose((0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, s, dh = x.shape
    return x.transpose((0, 2, 1, 3)).reshape((b, s, h * dh))


def attention(
    states: Tensor,
    allow: np.ndarray,
    lw: LayerWeights,
    heads: int,
    kv_states: Tensor | None = None,
) -> Tensor:
    """Masked multi-head attention.

    ``states`` [B, t, d] provides the attending rows. Keys and values are
    computed from ``states`` itself, optionally extended by ``kv_states``
    [B, extra, d] appended after the target rows (the joint-softmax pattern
    the interaction layers use). ``allow`` is boolean [B, t, src] or [t, src].
    """
    from .tensor import concat as tconcat

    if kv_states is None:
        kv = states
    else:
        kv = tconcat([states, kv_states], axis=1)
    q = _split_heads(matmul(states, lw.wq), heads)
    k = _split_heads(matmul(kv, lw.wk), heads)
    v = _split_heads(matmul(kv, lw.wv), heads)
    scale = 1.0 / np.sqrt(q.shape[-1])
    logits = matmul(q, k.transpose((0, 1, 3, 2))) * scale
    if allow.ndim == 2:
        allow = allow[None, None, :, :]
    else:
        allow = allow[:, None, :, :]
    probs = masked_softmax(logits, allow)
    ctx = _merge_heads(matmul(probs, v))
    return matmul(ctx, lw.wo)


def encoder_layer(
    states: Tensor,
    allow: np.ndarray,
    lw: LayerWeights,
    heads: int,
    kv_states: Tensor | None = None,
) -> Tensor:
    """One residual attention + residual FFN block (post-layernorm)."""
    attn = attention(states, allow, lw, heads, kv_states=kv_states)
    h1 = layernorm(states + attn, lw.ln_attn_gain, lw.ln_attn_bias)
    ffn = matmul(gelu(matmul(h1, lw.w1)), lw.w2)
    return layernorm(h1 + ffn, lw.ln_ffn_gain, lw.ln_ffn_bias)


# --------------------------------------------------------------------------
# pair batching
# --------------------------------------------------------------------------


def truncate_pair(q_ids: Sequence[int], d_ids: Sequence[int], config: ModelConfig):
    """Apply the head-truncation policy; empty inputs are rejected."""
    q = list(q_ids)[: config.max_query]
    d = list(d_ids)[: config.max_doc]
    if not q:
        raise ValueError("query must hold at least one token")
    if not d:
        raise ValueError("document must hold at least one token")
    return q, d


def pair_positions(n: int, m: int, config: ModelConfig) -> list[int]:
    """Position ids for [CLS, q*n, SEP1, d*m, SEP2]; document positions are
    anchored at max_query + 2 so they do not depend on the query length."""
    doc0 = config.max_query + 2
    return (
        [0]
        + list(range(1, n + 1))
        + [n + 1]
        + list(range(doc0, doc0 + m))
        + [doc0 + m]
    )


@dataclass
class _PairBatch:
    token_ids: np.ndarray  # [B, s] int
    pos_ids: np.ndarray  # [B, s] int
    allow_low: np.ndarray  # [B, s, s] bool, layers <= split_depth
    allow_high: np.ndarray  # [B, s, s] bool, layers above
    lengths: list[int]


def _build_pair_batch(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    spec: MaskSpec,
    config: ModelConfig,
) -> _PairBatch:
    prepared = [truncate_pair(q, d, config) for q, d in pairs]
    lengths = [len(q) + len(d) + 3 for q, d in prepared]
    s_max = max(lengths)
    batch = len(prepared)
    token_ids = np.full((batch, s_max), PAD_ID, dtype=np.int64)
    pos_ids = np.zeros((batch, s_max), dtype=np.int64)
    allow_low = np.zeros((batch, s_max, s_max), dtype=bool)
    allow_high = np.zeros((batch, s_max, s_max), dtype=bool)
    for e, (q, d) in enumerate(prepared):
        n, m = len(q), len(d)
        s = n + m + 3
        token_ids[e, :s] = [CLS_ID, *q, SEP_ID, *d, SEP_ID]
        pos_ids[e, :s] = pair_positions(n, m, config)
        layout = SegmentLayout(n, m)
        # Two layer regimes at most: stream-severed (step 3, layers up to the
        # split) and the shared rules everywhere else.
        low = build_mask(layout, spec, 1)
        if spec.severed(1) and (
            not spec.total_layers or spec.split_depth < spec.total_layers
        ):
            high = build_mask(layout, spec, spec.split_depth + 1)
        else:
            high = low
        allow_low[e, :s, :s] = low.allow
        allow_high[e, :s, :s] = high.allow
        if s < s_max:
            idx = np.arange(s, s_max)
            allow_low[e, idx, idx] = True
            allow_high[e, idx, idx] = True
    return _PairBatch(token_ids, pos_ids, allow_low, allow_high, lengths)


def _run_stack(
    states: Tensor,
    batch: _PairBatch,
    spec: MaskSpec,
    weights: Weights,
    depth: int,
) -> Tensor:
    for layer_index in range(1, depth + 1):
        allow = batch.allow_low if spec.severed(layer_index) else batch.allow_high
        states = encoder_layer(states, allow, weights.layers[layer_index - 1], weights.config.heads)
    return states


def score_from_cls(states: Tensor, weights) -> Tensor:
    """Read the relevance score off the CLS row: ``w_cls . state + b_cls``."""
    cls = select(states, 0, axis=1)  # [B, d]
    scores = matmul(cls, weights.score_w) + weights.score_b
    return scores.reshape((cls.shape[0],))


def score_pairs(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    spec: MaskSpec,
    weights: Weights,
    depth: int | None = None,
) -> Tensor:
    """Scores [B] for a batch of (query ids, document ids) pairs.

    ``depth`` limits the stack to the first layers (default: all of them);
    the classification head is applied to whatever layer the run stops at.
    """
    if depth is None:
        depth = weights.config.layers
    if not 1 <= depth <= weights.config.layers:
        raise ValueError(f"depth {depth} outside 1..{weights.config.layers}")
    batch = _build_pair_batch(pairs, spec, weights.config)
    states = embed(weights, batch.token_ids, batch.pos_ids)
    states = _run_stack(states, batch, spec, weights, depth)
    return check_finite(score_from_cls(states, weights), "relevance score")


def cross_encoder_forward(
    query_ids: Sequence[int],
    doc_ids: Sequence[int],
    spec: MaskSpec,
    weights: Weights,
    depth: int | None = None,
) -> float:
    """Single-pair relevance score under the given masking step."""
    return float(score_pairs([(query_ids, doc_ids)], spec, weights, depth=depth).data[0])


def joint_states(
    query_ids: Sequence[int],
    doc_ids: Sequence[int],
    spec: MaskSpec,
    weights: Weights,
    depth: int,
) -> np.ndarray:
    """Hidden states [s, d] of a single pair after ``depth`` masked layers."""
    batch = _build_pair_batch([(query_ids, doc_ids)], spec, weights.config)
    states = embed(weights, batch.token_ids, batch.pos_ids)
    states = _run_stack(states, batch, spec, weights, depth)
    return states.data[0]


def spec_for(step, config: ModelConfig) -> MaskSpec:
    """MaskSpec bound to this model's depth and stream-split point."""
    from .masking import MaskStep

    step = step if isinstance(step, MaskStep) else MaskStep.parse(step)
    return MaskSpec(step, split_depth=config.split_depth, total_layers=config.layers)
