"""Mid-fusion reranker: independent lower streams, joint upper layers.

The model encodes the query stream ``[CLS, q_1..q_n, SEP1]`` and the document
stream ``[d_1..d_m, SEP2]`` separately through the shared lower layers
(``split_depth`` of them), then runs ``interaction_layers`` joint layers in
which the query stream attends over itself plus the *frozen* document rows.
Document rows are never updated above the split: their keys and values are
re-projected per interaction layer from the layer-``split_depth`` states, so
they can be precomputed once per document and cached (:mod:`.doccache`).
Only CLS reaches the score, and CLS reads the query stream alone, so the top
interaction layer computes the CLS row only and reads no document rows:
frozen-document keys and values are needed in layers 1..k-1 only
(:func:`.transformer.live_allows`).

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
gradients; precomputed states (:func:`encode_documents`, the cache) serve
inference and validation.

A query's lower-layer states do not depend on the document it is paired
with, so both batched forwards encode each distinct query stream of a batch
once and share its rows among every item that carries it: a chunk of one
query and many candidates runs the query through the lower layers once. In
training, the gradients of a shared query's items are summed before the
lower-layer backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .masking import Segment, doc_stream_mask, interaction_mask, query_stream_mask
from .tensor import Tensor, gather_rows
from .transformer import (
    LayerWeights,
    ModelConfig,
    Weights,
    _initializer,
    _ParameterSet,
    embed,
    encoder_layer,
    frame_stream,
    live_allows,
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
    "encode_documents",
    "interaction_layer",
    "mice_forward",
    "mice_score_batch",
    "mice_train_scores",
]


class ConsistencyError(ValueError):
    """Frozen document states and model weights come from different checkpoints."""


@dataclass
class DocState:
    """A document's frozen hidden states at the stream-split layer.

    ``states`` holds :attr:`m` document-token rows plus the trailing sink
    row, i.e. shape ``(m + 1, d)``. ``checkpoint_hash`` records which
    checkpoint produced it. :meth:`check_fits` is the one rule for whether the
    state may meet a model or a cache; the scorer and the cache writer apply
    it.
    """

    doc_id: str
    states: np.ndarray
    checkpoint_hash: bytes | None = None

    def __post_init__(self):
        if self.states.ndim != 2 or self.states.shape[0] < 2:
            raise ValueError(f"states must be 2-d with at least 2 rows, got {self.states.shape}")

    @property
    def m(self) -> int:
        return self.states.shape[0] - 1

    def check_fits(self, digest: bytes, hidden: int) -> None:
        """Refuse a state stamped by a checkpoint other than ``digest``, or of
        a width other than ``hidden``, with :class:`ConsistencyError`. An
        unstamped state (``checkpoint_hash=None``) fits every digest."""
        if self.checkpoint_hash is not None and self.checkpoint_hash != digest:
            raise ConsistencyError(
                f"document {self.doc_id!r} was encoded by checkpoint "
                f"{self.checkpoint_hash.hex()[:12]}..., not {digest.hex()[:12]}..."
            )
        if self.states.shape[1] != hidden:
            raise ConsistencyError(
                f"document {self.doc_id!r} has width {self.states.shape[1]}, expected {hidden}"
            )


@dataclass
class MiceWeights(_ParameterSet):
    """Parameters of the mid-fusion model.

    ``lower`` serves both streams (one parameter set, two uses); each entry
    of ``interaction`` carries the same parameter shapes as an ordinary
    encoder layer.
    """

    STACKS = {"lower": "split_depth", "interaction": "interaction_layers"}
    config: ModelConfig
    token_emb: Tensor
    pos_emb: Tensor
    lower: list[LayerWeights]
    interaction: list[LayerWeights]
    score_w: Tensor
    score_b: Tensor


def init_mice_weights(config: ModelConfig, seed: int = 0, dtype=np.float32) -> MiceWeights:
    """Fresh randomly-initialized parameters of the mid-fusion model cut from
    a model of ``config`` (:meth:`.ModelConfig.cut`)."""
    config = config.cut(config.split_depth, config.interaction_layers)
    return MiceWeights.assemble(config, _initializer(config, np.random.default_rng(seed), dtype))


def from_cross_encoder(ce: Weights, split_depth: int, interaction_count: int) -> MiceWeights:
    """Surgically build a mid-fusion model from cross-encoder weights.

    Every tensor is a copy of the cross-encoder tensor this mapping of names
    gives: ``lower.i`` <- ``layers.i`` for ``i < split_depth``,
    ``interaction.j`` <- ``layers.{split_depth + j}`` for
    ``j < interaction_count``, and embeddings and scoring head under their
    own names. The joint softmax is thus seeded by the original
    self-attention, and any layers above are dropped. The config is
    ``ce.config.cut(split_depth, interaction_count)``, which refuses a cut
    that does not fit.
    """
    config = ce.config.cut(split_depth, interaction_count)
    source = dict(ce.named_parameters())
    first = {"lower": 0, "interaction": split_depth}

    def take(name: str) -> Tensor:
        stack, *layer = name.split(".")
        if layer:  # {stack}.{i}.{field}
            name = f"layers.{first[stack] + int(layer[0])}.{layer[1]}"
        return Tensor(source[name].data.copy(), requires_grad=True)

    return MiceWeights.assemble(config, take)


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


# Documents per lower-layer batch of :func:`encode_documents`; bounds the
# attention buffers of a corpus whose documents share one length.
_ENCODE_BATCH = 64


def encode_documents(
    docs: Sequence[tuple[str, Sequence[int]]], weights: MiceWeights
) -> list[DocState]:
    """Frozen document-stream states of ``(doc_id, token ids)`` pairs, in
    input order.

    Documents of one framed length (``min(len, max_doc)``) run the lower
    layers together, up to ``_ENCODE_BATCH`` at a time, as one batch without
    padding, so each state is byte-identical to the document encoded alone
    and to what a cache round-trip in the same precision returns.
    """
    groups: dict[int, list[int]] = {}
    for i, (_, ids) in enumerate(docs):
        groups.setdefault(min(len(ids), weights.config.max_doc), []).append(i)
    digest = weights.fingerprint()
    out: list[DocState] = [None] * len(docs)
    for group in groups.values():
        for start in range(0, len(group), _ENCODE_BATCH):
            batch = group[start : start + _ENCODE_BATCH]
            states, _ = _stream_batch([docs[i][1] for i in batch], Segment.D, weights)
            for row, i in enumerate(batch):
                frozen = np.array(states.data[row], copy=True)
                frozen.setflags(write=False)
                out[i] = DocState(docs[i][0], frozen, checkpoint_hash=digest)
    return out


def encode_document(doc_ids: Sequence[int], weights: MiceWeights, doc_id: str = "") -> DocState:
    """Document-stream states, frozen for reuse (:func:`encode_documents`)."""
    return encode_documents([(doc_id, doc_ids)], weights)[0]


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
    for live, lw in zip(live_allows([allow] * len(weights.interaction)), weights.interaction):
        q_states = encoder_layer(q_states, live, lw, weights.config.heads, kv_states=doc_states)
    return q_states


def interaction_layer(q_states: Tensor, doc: DocState, lw: LayerWeights, heads: int) -> Tensor:
    """One joint layer over a single example: the query rows attend over
    themselves plus the frozen document rows; only query rows are updated."""
    allow = pad_allow([interaction_mask(q_states.shape[0] - 2, doc.m)])
    q = q_states.reshape((1, *q_states.shape))
    d = Tensor(doc.states).reshape((1, *doc.states.shape))
    out = encoder_layer(q, allow, lw, heads, kv_states=d)
    return out.reshape(out.shape[1:])


def mice_forward(query_ids: Sequence[int], doc: DocState, weights: MiceWeights) -> float:
    """Relevance score of one (query, frozen document) pair."""
    return float(mice_score_batch([(query_ids, doc)], weights)[0])


def mice_score_batch(
    items: Sequence[tuple[Sequence[int], DocState]], weights: MiceWeights
) -> np.ndarray:
    """Scores [B] for (query ids, DocState) pairs, batched over items; every
    state must fit the weights (:meth:`DocState.check_fits`)."""
    digest = weights.fingerprint()
    for _, doc in items:
        doc.check_fits(digest, weights.config.hidden)
    q_states, q_lengths = _query_batch([q for q, _ in items], weights)
    docs = [doc.states for _, doc in items]
    doc_states = Tensor(stack_padded(docs, 0, q_states.dtype))
    q_states = _run_interactions(q_states, doc_states, q_lengths, [len(s) for s in docs], weights)
    return score_from_cls(q_states, weights).data.copy()


def mice_train_scores(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]], weights: MiceWeights
) -> Tensor:
    """Differentiable scores [B] with documents re-encoded online, so the
    shared lower layers receive document gradients too."""
    q_states, q_lengths = _query_batch([q for q, _ in pairs], weights)
    d_states, d_lengths = _stream_batch([d for _, d in pairs], Segment.D, weights)
    q_states = _run_interactions(q_states, d_states, q_lengths, d_lengths, weights)
    return score_from_cls(q_states, weights)
