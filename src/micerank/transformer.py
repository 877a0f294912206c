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

The score reads only the top layer's CLS row, so :func:`score_pairs` runs
each layer on the rows that reach it and the columns those rows attend to,
as :func:`live_allows` reads them off the allow matrices; :func:`joint_states`
computes every row.

Over-length inputs are head-truncated (the leading ``max_query`` /
``max_doc`` tokens are kept); queries are never truncated below one token.
Inside a batch of either model, shorter examples are padded by
:func:`stack_padded` and :func:`pad_allow`: pad rows attend only to
themselves, no real row attends to a pad column, and the score is read from
the CLS row, which is never padding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .masking import AttentionMask, MaskSpec, MaskStep, Segment, SegmentLayout, build_mask
from .tensor import (
    ShapeError,
    Tensor,
    check_finite,
    concat,
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
    "init_ce_weights",
    "encoder_layer",
    "live_allows",
    "score_pairs",
    "cross_encoder_forward",
    "joint_states",
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
    plain cross-encoder config). ``layers`` counts the layers a model holds;
    a mid-fusion config is the :meth:`cut` of a cross-encoder config.
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
        for name in ("layers", "heads", "hidden", "ff", "max_query", "max_doc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if not 1 <= self.split_depth <= self.layers:
            raise ValueError(f"split_depth {self.split_depth} outside 1..{self.layers}")
        if not 0 <= self.interaction_layers <= self.layers - self.split_depth:
            raise ValueError(f"interaction_layers {self.interaction_layers} outside "
                             f"1..{self.layers - self.split_depth}")
        if self.vocab_size <= FIRST_WORD_ID:
            raise ValueError(f"vocab_size must exceed {FIRST_WORD_ID}")
        for f in fields(self):  # a checkpoint stores each field as a u32
            if getattr(self, f.name) >= 2**32:
                raise ValueError(f"{f.name} must be below 2**32, got {getattr(self, f.name)}")

    def cut(self, split_depth: int, interaction_layers: int) -> ModelConfig:
        """The config of the mid-fusion model that keeps this model's first
        ``split_depth`` layers as its lower stack and the next
        ``interaction_layers`` as its interaction stack, checked against this
        depth, so it holds their sum. The parameter set refuses a count of 0."""
        fitted = replace(self, split_depth=split_depth, interaction_layers=interaction_layers)
        return replace(fitted, layers=split_depth + interaction_layers)

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


LayerWeights.FIELDS = tuple(f.name for f in fields(LayerWeights))


@dataclass
class _ParameterSet:
    """What the cross-encoder and mid-fusion parameter sets share. Both hold
    ``token_emb``, ``pos_emb``, ``score_w`` and ``score_b``. ``STACKS`` maps
    each list of encoder layers, in serialization order, to the
    :class:`ModelConfig` field that counts them. Construction checks every
    stack's length against it, that no stack is empty, that ``config.layers``
    is the layers all stacks hold, and every tensor's shape against
    :func:`param_shape`, so a config cannot disagree with the tensors it
    describes. Every parameter set is built by :meth:`assemble`, one tensor
    per name that :meth:`named_parameters` yields."""

    STACKS = {}

    def __post_init__(self):
        self._fingerprint = None  # fingerprint() fills it; a copy hashes its own tensors
        for stack, count in self.STACKS.items():
            expected, got = getattr(self.config, count), len(getattr(self, stack))
            if got != expected:
                raise ValueError(f"{stack} holds {got} layers; config.{count} is {expected}")
            if not expected:
                raise ValueError(f"{stack} needs at least one layer; config.{count} is 0")
        held = sum(len(getattr(self, stack)) for stack in self.STACKS)
        if held != self.config.layers:
            raise ValueError(f"stacks hold {held} layers; config.layers is {self.config.layers}")
        for name, t in self.named_parameters():
            shape = param_shape(name, self.config)
            if t.shape != shape:
                raise ValueError(f"{name} has shape {t.shape}; the config gives {shape}")

    @classmethod
    def assemble(cls, config: ModelConfig, take: Callable[[str], Tensor]):
        """The ``cls`` of ``config`` whose tensor under each name is
        ``take(name)``, called once per name in :meth:`named_parameters`
        order: ``token_emb``, ``pos_emb``, ``{stack}.{i}.{field}`` for each
        layer of each stack, ``score_w``, ``score_b``."""
        # Keyword arguments are evaluated left to right, which fixes the order.
        return cls(
            config=config,
            token_emb=take("token_emb"),
            pos_emb=take("pos_emb"),
            **{
                stack: [
                    LayerWeights(**{f: take(f"{stack}.{i}.{f}") for f in LayerWeights.FIELDS})
                    for i in range(getattr(config, count))
                ]
                for stack, count in cls.STACKS.items()
            },
            score_w=take("score_w"),
            score_b=take("score_b"),
        )

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield "token_emb", self.token_emb
        yield "pos_emb", self.pos_emb
        for stack in self.STACKS:
            for i, lw in enumerate(getattr(self, stack)):
                for name in LayerWeights.FIELDS:
                    yield f"{stack}.{i}.{name}", getattr(lw, name)
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
    """Cross-encoder parameters; read-only after load / shareable.
    ``tensor.matmul`` may re-lay a wide weight column-major; its values stay."""

    STACKS = {"layers": "layers"}
    config: ModelConfig
    token_emb: Tensor
    pos_emb: Tensor
    layers: list[LayerWeights]
    score_w: Tensor
    score_b: Tensor


def param_shape(name: str, config: ModelConfig) -> tuple[int, ...]:
    """The shape of the tensor a model of ``config`` holds under ``name``, as
    :meth:`_ParameterSet.named_parameters` gives it."""
    d, f = config.hidden, config.ff
    shapes = {"token_emb": (config.vocab_size, d), "pos_emb": (config.position_count, d),
              "wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d), "w1": (d, f), "w2": (f, d),
              "score_w": (d, 1), "score_b": (1,)}
    return shapes.get(name.rpartition(".")[2], (d,))  # else a layernorm gain or bias


def _initializer(config: ModelConfig, rng: np.random.Generator, dtype) -> Callable[[str], Tensor]:
    """Seeded initial tensors by parameter name: layernorm gains are ones,
    biases zeros, and every other tensor is drawn from ``rng``, a normal of
    standard deviation 0.02. So the draws follow the order of the calls."""

    def init(name: str) -> Tensor:
        key, shape = name.rpartition(".")[2], param_shape(name, config)
        if key.startswith("ln_"):
            data = (np.ones if key.endswith("_gain") else np.zeros)(shape, dtype)
        elif key == "score_b":
            data = np.zeros(shape, dtype)
        else:
            data = (rng.standard_normal(shape) * 0.02).astype(dtype)
        return Tensor(data, requires_grad=True)

    return init


def init_ce_weights(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Weights:
    """Fresh randomly-initialized cross-encoder parameters."""
    return Weights.assemble(config, _initializer(config, np.random.default_rng(seed), dtype))


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


def _prefix(x: Tensor, rows: int) -> Tensor:
    """The first ``rows`` rows of [B, s, d] ``x``; ``x`` itself if that is all."""
    return x if rows == x.shape[1] else select(x, slice(0, rows), axis=1)


def attention(
    states: Tensor,
    allow: np.ndarray,
    lw: LayerWeights,
    heads: int,
    kv_states: Tensor | None = None,
) -> Tensor:
    """Masked multi-head attention.

    ``allow`` is boolean [B, t, src] or [t, src], and its shape picks the
    rows: the first ``t`` rows of ``states`` [B, s, d] attend, and keys and
    values come from the first ``src`` rows of ``states`` followed by
    ``kv_states`` [B, extra, d] (the joint-softmax pattern the interaction
    layers use). ``kv_states`` is not read when ``src`` ends inside
    ``states``. The result has ``t`` rows.
    """
    src, own = allow.shape[-1], states.shape[1]
    if src > own:
        kv = concat([states, _prefix(kv_states, src - own)], axis=1)
    else:
        kv = _prefix(states, src)
    q = _split_heads(matmul(_prefix(states, allow.shape[-2]), lw.wq), heads)
    k = _split_heads(matmul(kv, lw.wk), heads)
    v = _split_heads(matmul(kv, lw.wv), heads)
    scale = 1.0 / np.sqrt(q.shape[-1])
    logits = matmul(q, k.transpose((0, 1, 3, 2))) * scale
    probs = masked_softmax(logits, np.expand_dims(allow, -3))
    ctx = _merge_heads(matmul(probs, v))
    return matmul(ctx, lw.wo)


def encoder_layer(
    states: Tensor,
    allow: np.ndarray,
    lw: LayerWeights,
    heads: int,
    kv_states: Tensor | None = None,
) -> Tensor:
    """One residual attention + residual FFN block (post-layernorm) over the
    rows and columns the shape of ``allow`` picks (see :func:`attention`);
    the output has ``allow.shape[-2]`` rows."""
    attn = attention(states, allow, lw, heads, kv_states=kv_states)
    h1 = layernorm(_prefix(states, allow.shape[-2]) + attn, lw.ln_attn_gain, lw.ln_attn_bias)
    ffn = matmul(gelu(matmul(h1, lw.w1)), lw.w2)
    return layernorm(h1 + ffn, lw.ln_ffn_gain, lw.ln_ffn_bias)


def live_allows(allows: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The per-layer allow matrices of one forward (bottom to top, each
    [B, t, src]) cut to the work that reaches the top layer's CLS row.

    Walking down from the top with ``rows = 1``, each layer keeps its first
    ``rows`` rows and the columns up to the last one any kept row reads; the
    layer below must then output the first ``max(rows, columns)`` rows,
    capped at ``t``. CLS is row 0 and a pair is its query stream followed by
    its document stream, so the rows CLS reaches fit in a prefix, which is
    exact in a batch whose pairs share one query (a ``rerank`` chunk).
    :func:`encoder_layer` computes just the rows and columns each cut matrix
    spans.
    """
    live, rows = [], 1
    for allow in reversed(allows):
        t = allow.shape[-2]
        kept = allow[:, :rows]
        cols = int(np.flatnonzero(kept.any(axis=(0, 1)))[-1]) + 1
        live.append(kept[:, :, :cols])
        rows = min(max(rows, cols), t)
    return live[::-1]


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
    live: bool = False,
) -> Tensor:
    """States [B, s, d] of a batch of pairs after the first ``depth`` layers
    (default: all). Each pair is its query stream followed by its document
    stream. With ``live``, each layer computes only what reaches the CLS row
    of layer ``depth`` (:func:`live_allows`), and only that row is returned."""
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
    layer_allows = [allow_for[spec.severed(i)] for i in range(1, depth + 1)]
    if live:
        layer_allows = live_allows(layer_allows)
    states = embed(weights, token_ids, pos_ids)
    for allow, lw in zip(layer_allows, weights.layers):
        states = encoder_layer(states, allow, lw, config.heads)
    return states


def score_from_cls(states: Tensor, weights) -> Tensor:
    """Read the relevance score off the CLS row: ``w_cls . state + b_cls``.
    Raises :class:`.tensor.NumericError` if a score is NaN or Inf."""
    cls = select(states, 0, axis=1)  # [B, d]
    scores = matmul(cls, weights.score_w) + weights.score_b
    return check_finite(scores.reshape((cls.shape[0],)), "relevance score")


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
    return score_from_cls(_pair_states(pairs, spec, weights, depth, live=True), weights)


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
    step = step if isinstance(step, MaskStep) else MaskStep.parse(step)
    return MaskSpec(step, split_depth=config.split_depth, total_layers=config.layers)
