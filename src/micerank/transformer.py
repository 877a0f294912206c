"""Token embedding, masked encoder layers, and the joint-scoring forward.

The encoder is a classic post-layernorm stack: residual multi-head
self-attention followed by a residual feed-forward block, both closed by a
layernorm. Every head of a layer shares one boolean allow-matrix, injected
into the attention softmax.

Input convention for a scored pair: ``[CLS] q_1..q_n [SEP] d_1..d_m [SEP]``
with learned absolute position embeddings. A pair is the query stream
``[CLS] q [SEP]`` followed by the document stream ``d [SEP]``, each framed by
:func:`frame_stream` with the same token and position ids the mid-fusion
model gives it. Document positions start at the fixed offset
``max_query + 2`` regardless of the actual query length, so a document's rows
are identical whether it is encoded jointly with a query or on its own — the
property that makes precomputed document states reusable.

Over-length inputs are head-truncated (the leading ``max_query`` /
``max_doc`` tokens are kept); queries are never truncated below one token.
Inside a batch of either model, shorter examples are padded by
:func:`stack_padded` and :func:`pad_allow`: pad rows attend only to
themselves, no real row attends to a pad column, and the score is read from
the CLS row, which is never padding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .masking import AttentionMask, MaskSpec, Segment, SegmentLayout, build_mask
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
        if self.heads < 1:
            raise ValueError(f"heads must be at least 1, got {self.heads}")
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
# input layout
# --------------------------------------------------------------------------


def frame_stream(
    ids: Sequence[int], kind: Segment, config: ModelConfig
) -> tuple[list[int], list[int]]:
    """Token and position ids of one stream.

    ``kind`` ``Segment.Q`` frames the query stream ``[CLS, q_1..q_n, SEP1]``
    from position 0; ``Segment.D`` frames the document stream
    ``[d_1..d_m, SEP2]`` from position ``max_query + 2``. Positions count up
    by one from there. The body is head-truncated to ``max_query`` or
    ``max_doc`` tokens and must not be empty.
    """
    if kind is Segment.Q:
        name, cap, head, first = "query", config.max_query, [CLS_ID], 0
    else:
        name, cap, head, first = "document", config.max_doc, [], config.max_query + 2
    body = list(ids)[:cap]
    if not body:
        raise ValueError(f"{name} must hold at least one token")
    tokens = [*head, *body, SEP_ID]
    return tokens, list(range(first, first + len(tokens)))


def truncate_pair(q_ids: Sequence[int], d_ids: Sequence[int], config: ModelConfig):
    """The query and document tokens a pair keeps after head truncation;
    empty inputs are rejected."""
    q, _ = frame_stream(q_ids, Segment.Q, config)
    d, _ = frame_stream(d_ids, Segment.D, config)
    return q[1:-1], d[:-1]


def pair_positions(n: int, m: int, config: ModelConfig) -> list[int]:
    """Position ids for [CLS, q*n, SEP1, d*m, SEP2]: the query stream's
    followed by the document stream's, so document positions are anchored at
    max_query + 2 and do not depend on the query length."""
    _, q_pos = frame_stream([PAD_ID] * n, Segment.Q, config)
    _, d_pos = frame_stream([PAD_ID] * m, Segment.D, config)
    return q_pos + d_pos


def stack_padded(rows: Sequence, fill, dtype) -> np.ndarray:
    """Stack ragged rows into one [B, s_max, ...] array, ``fill`` after each."""
    out = np.full((len(rows), max(map(len, rows)), *np.shape(rows[0])[1:]), fill, dtype=dtype)
    for e, row in enumerate(rows):
        out[e, : len(row)] = row
    return out


def pad_allow(masks: Sequence[AttentionMask]) -> np.ndarray:
    """Pad one mask per example into a [B, t, t + x] allow matrix.

    A mask of ``s`` rows keeps its first ``s`` columns at ``[:s, :s]`` and
    puts any further ones, the ``kv_states`` rows :func:`attention` appends
    after the ``t`` padded rows, at ``[:s, t:]``. Pad rows attend only to
    themselves and no real row reads a pad column.
    """
    rows, cols = np.array([mask.allow.shape for mask in masks]).T
    t = rows.max()
    allow = np.zeros((len(masks), t, t + (cols - rows).max()), dtype=bool)
    for e, mask in enumerate(masks):
        s, c = mask.allow.shape
        allow[e, :s, :s] = mask.allow[:, :s]
        if c > s:
            allow[e, :s, t : t + c - s] = mask.allow[:, s:]
    diag = np.arange(t)
    allow[:, diag, diag] |= diag >= rows[:, None]
    return allow


def pad_frames(
    frames: Sequence[tuple[list[int], list[int]]],
    regimes: Sequence[Sequence[AttentionMask]],
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Stack ``(tokens, positions)`` frames into a padded batch.

    Returns [B, s] token ids (pad slots hold ``PAD_ID``), [B, s] position ids
    (pad slots hold 0) and, for each layer regime in ``regimes`` (one square
    mask per frame), the [B, s, s] allow matrix :func:`pad_allow` builds.
    """
    token_ids = stack_padded([tokens for tokens, _ in frames], PAD_ID, np.int64)
    pos_ids = stack_padded([positions for _, positions in frames], 0, np.int64)
    return token_ids, pos_ids, [pad_allow(masks) for masks in regimes]


def _pair_states(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    spec: MaskSpec,
    weights: Weights,
    depth: int | None,
) -> Tensor:
    """States [B, s, d] of a batch of pairs after the first ``depth`` layers
    (default: all). Each pair is its query stream followed by its document
    stream."""
    config = weights.config
    if depth is None:
        depth = config.layers
    if not 1 <= depth <= config.layers:
        raise ValueError(f"depth {depth} outside 1..{config.layers}")
    frames, layouts = [], []
    for q_ids, d_ids in pairs:
        q_tokens, q_pos = frame_stream(q_ids, Segment.Q, config)
        d_tokens, d_pos = frame_stream(d_ids, Segment.D, config)
        frames.append((q_tokens + d_tokens, q_pos + d_pos))
        layouts.append(SegmentLayout(len(q_tokens) - 2, len(d_tokens) - 1))
    # Layers differ in their mask only where spec.severed tells them apart
    # (step 3 up to the split), so one allow matrix serves each regime the
    # run reaches; it is built at the regime's first layer.
    first_layer = {}
    for i in range(1, depth + 1):
        first_layer.setdefault(spec.severed(i), i)
    token_ids, pos_ids, allows = pad_frames(
        frames, [[build_mask(layout, spec, i) for layout in layouts] for i in first_layer.values()]
    )
    allow_for = dict(zip(first_layer, allows))
    states = embed(weights, token_ids, pos_ids)
    for i, lw in enumerate(weights.layers[:depth], start=1):
        states = encoder_layer(states, allow_for[spec.severed(i)], lw, config.heads)
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
    states = _pair_states(pairs, spec, weights, depth)
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
    return _pair_states([(query_ids, doc_ids)], spec, weights, depth).data[0]


def spec_for(step, config: ModelConfig) -> MaskSpec:
    """MaskSpec bound to this model's depth and stream-split point."""
    from .masking import MaskStep

    step = step if isinstance(step, MaskStep) else MaskStep.parse(step)
    return MaskSpec(step, split_depth=config.split_depth, total_layers=config.layers)
