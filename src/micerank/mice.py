"""Mid-fusion reranker: independent lower streams, joint upper layers.

The model encodes the query stream ``[CLS, q_1..q_n, SEP1]`` and the document
stream ``[d_1..d_m, SEP2]`` separately through the shared lower layers
(``split_depth`` of them), then runs ``interaction_layers`` joint layers in
which the query stream attends over itself plus the *frozen* document rows.
Document rows are never updated above the split: their keys and values are
re-projected per interaction layer from the layer-``split_depth`` states, so
they can be precomputed once per document and cached (:mod:`.doccache`).

The interaction layers use a single joint softmax per head, seeded from (or
identical to) ordinary self-attention weights. With one interaction layer
and no layer dropping, the model reproduces the fully-severed masked
cross-encoder truncated to ``split_depth + 1`` layers exactly, which is the
correctness anchor the test-suite leans on. Query self-attention inside
interaction layers is retained; the document sink row (SEP2) travels with
the cached states for mask fidelity but is never read by the query stream.
Batches are padded as the cross-encoder's are, by
:func:`.transformer.pad_allow` and :func:`.transformer.stack_padded`.

Both streams share one set of lower-layer parameters. During training,
documents are re-encoded online so the lower layers receive document
gradients; the cache is an inference-only optimization.

A query's lower-layer states do not depend on the document it is paired
with, so both batched forwards encode each distinct query stream of a batch
once and share its rows among every item that carries it: a chunk of one
query and many candidates runs the query through the lower layers once. In
training, the gradients of a shared query's items are summed before the
lower-layer backward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .masking import Segment, doc_stream_mask, interaction_mask, query_stream_mask
from .tensor import Tensor, check_finite, gather_rows
from .transformer import (
    LayerWeights,
    ModelConfig,
    Weights,
    _init_parameters,
    _ParameterSet,
    embed,
    encoder_layer,
    frame_stream,
    pad_allow,
    pad_frames,
    score_from_cls,
    stack_padded,
)

__all__ = [
    "ConsistencyError",
    "DocState",
    "MiceWeights",
    "init_mice_weights",
    "from_cross_encoder",
    "encode_query",
    "encode_document",
    "interaction_layer",
    "mice_forward",
    "mice_score_batch",
    "mice_train_scores",
]


class ConsistencyError(RuntimeError):
    """Frozen document states and model weights come from different checkpoints."""


@dataclass
class DocState:
    """A document's frozen hidden states at the stream-split layer.

    ``states`` holds ``m`` document-token rows plus the trailing sink row,
    i.e. shape ``(m + 1, d)``. ``checkpoint_hash`` records which checkpoint
    produced it; consumers refuse to mix states across checkpoints.
    """

    doc_id: str
    states: np.ndarray
    m: int
    checkpoint_hash: bytes | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("document must hold at least one token")
        if self.states.ndim != 2 or self.states.shape[0] != self.m + 1:
            raise ValueError(
                f"states must have {self.m + 1} rows, got shape {self.states.shape}"
            )


@dataclass
class MiceWeights(_ParameterSet):
    """Parameters of the mid-fusion model.

    ``lower`` serves both streams (one parameter set, two uses); each entry
    of ``interaction`` carries the same parameter shapes as an ordinary
    encoder layer.
    """

    STACKS = ("lower", "interaction")
    config: ModelConfig
    token_emb: Tensor
    pos_emb: Tensor
    lower: list[LayerWeights]
    interaction: list[LayerWeights]
    score_w: Tensor
    score_b: Tensor

    def __post_init__(self):
        if len(self.lower) != self.config.split_depth:
            raise ValueError(
                f"expected {self.config.split_depth} lower layers, got {len(self.lower)}"
            )
        if len(self.interaction) != self.config.interaction_layers:
            raise ValueError(
                f"expected {self.config.interaction_layers} interaction layers, "
                f"got {len(self.interaction)}"
            )


def init_mice_weights(config: ModelConfig, seed: int = 0, dtype=np.float32) -> MiceWeights:
    """Fresh randomly-initialized mid-fusion parameters."""
    if not config.interaction_layers:
        raise ValueError("config.interaction_layers must be set for a mid-fusion model")
    split = config.split_depth
    params = _init_parameters(config, split + config.interaction_layers, seed, dtype)
    layers = params.pop("layers")
    return MiceWeights(config, lower=layers[:split], interaction=layers[split:], **params)


def _copy_param(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=True)


def _copy_layer(lw: LayerWeights) -> LayerWeights:
    return LayerWeights(**{name: _copy_param(getattr(lw, name)) for name in LayerWeights.FIELDS})


def from_cross_encoder(ce: Weights, split_depth: int, interaction_count: int) -> MiceWeights:
    """Surgically build a mid-fusion model from cross-encoder weights.

    Layers ``1..split_depth`` become the shared lower stack and layers
    ``split_depth+1..split_depth+interaction_count`` the interaction layers,
    all copied verbatim (the joint softmax is seeded by the original
    self-attention); any layers above are dropped. Embeddings and the scoring
    head carry over unchanged.
    """
    total = ce.config.layers
    if split_depth < 1 or interaction_count < 1 or split_depth + interaction_count > total:
        raise ValueError(
            f"invalid split: split_depth={split_depth}, "
            f"interaction_count={interaction_count}, layers={total}"
        )
    config = replace(
        ce.config,
        layers=split_depth + interaction_count,
        split_depth=split_depth,
        interaction_layers=interaction_count,
    )
    return MiceWeights(
        config=config,
        token_emb=_copy_param(ce.token_emb),
        pos_emb=_copy_param(ce.pos_emb),
        lower=[_copy_layer(ce.layers[i]) for i in range(split_depth)],
        interaction=[
            _copy_layer(ce.layers[split_depth + i]) for i in range(interaction_count)
        ],
        score_w=_copy_param(ce.score_w),
        score_b=_copy_param(ce.score_b),
    )


# --------------------------------------------------------------------------
# stream encoding
# --------------------------------------------------------------------------


def _stream_batch(streams: Sequence[Sequence[int]], kind: Segment, weights: MiceWeights):
    """Lower-layer forward over a batch of one kind of stream (``Segment.Q``
    or ``Segment.D``), framed as in a scored pair; returns (states, lengths)."""
    frames = [frame_stream(t, kind, weights.config) for t in streams]
    if kind is Segment.Q:
        masks = [query_stream_mask(len(tokens) - 2) for tokens, _ in frames]
    else:
        masks = [doc_stream_mask(len(tokens) - 1) for tokens, _ in frames]
    token_ids, pos_ids, (allow,) = pad_frames(frames, [masks])
    states = embed(weights, token_ids, pos_ids)
    for lw in weights.lower:
        states = encoder_layer(states, allow, lw, weights.config.heads)
    return states, [len(tokens) for tokens, _ in frames]


def _query_batch(queries: Sequence[Sequence[int]], weights: MiceWeights):
    """Query-stream states [B, s, d] and lengths for one query per item; each
    distinct query runs the lower layers once and its rows are gathered for
    every item that carries it."""
    rows: dict[tuple[int, ...], int] = {}
    index = [rows.setdefault(tuple(q), len(rows)) for q in queries]
    states, lengths = _stream_batch(list(rows), Segment.Q, weights)
    return gather_rows(states, index), [lengths[r] for r in index]


def encode_query(query_ids: Sequence[int], weights: MiceWeights) -> Tensor:
    """Query-stream states [(n+2), d] after the shared lower layers."""
    states, _ = _stream_batch([query_ids], Segment.Q, weights)
    return states.reshape(states.shape[1:])


def encode_document(doc_ids: Sequence[int], weights: MiceWeights, doc_id: str = "") -> DocState:
    """Document-stream states, frozen for reuse.

    Always encodes a single document (no cross-document padding), so the
    result is byte-reproducible and identical to what a cache round-trip in
    the same precision returns.
    """
    states, lengths = _stream_batch([doc_ids], Segment.D, weights)
    frozen = np.array(states.data[0], copy=True)
    frozen.setflags(write=False)
    return DocState(
        doc_id=doc_id,
        states=frozen,
        m=lengths[0] - 1,
        checkpoint_hash=weights.fingerprint(),
    )


# --------------------------------------------------------------------------
# interaction layers
# --------------------------------------------------------------------------


def _run_interactions(
    q_states: Tensor,
    doc_states: Tensor,
    q_lengths: Sequence[int],
    d_lengths: Sequence[int],
    weights: MiceWeights,
) -> Tensor:
    allow = pad_allow([interaction_mask(sq - 2, sd - 1) for sq, sd in zip(q_lengths, d_lengths)])
    for lw in weights.interaction:
        q_states = encoder_layer(
            q_states, allow, lw, weights.config.heads, kv_states=doc_states
        )
    return q_states


def interaction_layer(q_states: Tensor, doc: DocState, lw: LayerWeights, heads: int) -> Tensor:
    """One joint layer over a single example: the query rows attend over
    themselves plus the frozen document rows; only query rows are updated."""
    allow = pad_allow([interaction_mask(q_states.shape[0] - 2, doc.m)])
    q = q_states.reshape((1, *q_states.shape))
    d = Tensor(doc.states).reshape((1, *doc.states.shape))
    out = encoder_layer(q, allow, lw, heads, kv_states=d)
    return out.reshape(out.shape[1:])


def _check_hash(doc: DocState, weights: MiceWeights) -> None:
    if doc.checkpoint_hash is not None and doc.checkpoint_hash != weights.fingerprint():
        raise ConsistencyError(
            f"document state {doc.doc_id!r} was produced by a different checkpoint"
        )


def mice_forward(query_ids: Sequence[int], doc: DocState, weights: MiceWeights) -> float:
    """Relevance score of one (query, frozen document) pair."""
    return float(mice_score_batch([(query_ids, doc)], weights)[0])


def mice_score_batch(
    items: Sequence[tuple[Sequence[int], DocState]], weights: MiceWeights
) -> np.ndarray:
    """Scores [B] for (query ids, DocState) pairs, batched over items."""
    d = weights.config.hidden
    for _, doc in items:
        _check_hash(doc, weights)
        if doc.states.shape[1] != d:
            raise ConsistencyError(
                f"document state width {doc.states.shape[1]} does not match model hidden {d}"
            )
    q_states, q_lengths = _query_batch([q for q, _ in items], weights)
    docs = [doc.states for _, doc in items]
    doc_states = Tensor(stack_padded(docs, 0, q_states.dtype))
    q_states = _run_interactions(q_states, doc_states, q_lengths, [len(s) for s in docs], weights)
    scores = check_finite(score_from_cls(q_states, weights), "relevance score")
    return scores.data.copy()


def mice_train_scores(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]], weights: MiceWeights
) -> Tensor:
    """Differentiable scores [B] with documents re-encoded online, so the
    shared lower layers receive document gradients too."""
    q_states, q_lengths = _query_batch([q for q, _ in pairs], weights)
    d_states, d_lengths = _stream_batch([d for _, d in pairs], Segment.D, weights)
    q_states = _run_interactions(q_states, d_states, q_lengths, d_lengths, weights)
    return check_finite(score_from_cls(q_states, weights), "relevance score")
