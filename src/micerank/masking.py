"""Segment layouts and per-layer attention allow-matrices.

A scored pair is laid out as ``[CLS, q_1..q_n, SEP1, d_1..d_m, SEP2]``. The
ablation scheme restricts which segments may attend to which, in five
settings of increasing strictness:

==========  ==================================================================
baseline    every segment attends to every segment
step 0      separators become dedicated sinks (SEP1 for the query, SEP2 for
            the document) and stop receiving from anyone; CLS stops sending
step 1      step 0, plus CLS no longer reads the document side
step 2      step 1, plus the document no longer reads the query
step 3      step 2, plus the query no longer reads the document in layers
            ``1..split_depth`` — below that depth the two streams are fully
            independent (block-diagonal masks)
==========  ==================================================================

The full allow-sets per target segment:

=========  =====================  ===========================================
step       target                 allowed sources
=========  =====================  ===========================================
step 0     CLS                    CLS, Q, SEP1, D, SEP2
           Q                      Q, SEP1, D
           D                      D, SEP2, Q
           SEP1 / SEP2            itself only
step 1     CLS                    CLS, Q, SEP1
step 2     D                      D, SEP2
step 3     Q (layer <= split)     Q, SEP1
=========  =====================  ===========================================

Separators attend strictly to themselves from step 0 on (including across
SEP1<->SEP2), which makes the step-3 masks literally block-diagonal over
{CLS, Q, SEP1} x {D, SEP2} and the sinks static value reservoirs.

Every mask (joint, stream or interaction) is built by ``_mask`` and kept in
its one bounded cache, which has room for every mask at the MiniLM point.
Masks are returned read-only, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

__all__ = [
    "Segment",
    "MaskStep",
    "SegmentLayout",
    "MaskSpec",
    "AttentionMask",
    "build_mask",
    "query_stream_mask",
    "doc_stream_mask",
    "interaction_mask",
]


class Segment(IntEnum):
    CLS = 0
    Q = 1
    SEP1 = 2
    D = 3
    SEP2 = 4


class MaskStep(Enum):
    BASELINE = "baseline"
    STEP0 = "step0"
    STEP1 = "step1"
    STEP2 = "step2"
    STEP3 = "step3"

    @classmethod
    def parse(cls, text: str) -> "MaskStep":
        text = str(text).strip().lower()
        for step in cls:
            if text in (step.value, step.value.removeprefix("step")):
                return step
        raise ValueError(f"unknown masking step {text!r}")


_STEP0 = {
    Segment.CLS: frozenset({Segment.CLS, Segment.Q, Segment.SEP1, Segment.D, Segment.SEP2}),
    Segment.Q: frozenset({Segment.Q, Segment.SEP1, Segment.D}),
    Segment.D: frozenset({Segment.D, Segment.SEP2, Segment.Q}),
    Segment.SEP1: frozenset({Segment.SEP1}),
    Segment.SEP2: frozenset({Segment.SEP2}),
}
_STEP1 = {**_STEP0, Segment.CLS: frozenset({Segment.CLS, Segment.Q, Segment.SEP1})}
_STEP2 = {**_STEP1, Segment.D: frozenset({Segment.D, Segment.SEP2})}

# The allow rules of each regime the masks reach, keyed by (step, severed):
# severed is true only for step 3 at or below the split.
_RULES = {
    (MaskStep.BASELINE, False): dict.fromkeys(Segment, frozenset(Segment)),
    (MaskStep.STEP0, False): _STEP0,
    (MaskStep.STEP1, False): _STEP1,
    (MaskStep.STEP2, False): _STEP2,
    (MaskStep.STEP3, False): _STEP2,
    (MaskStep.STEP3, True): {**_STEP2, Segment.Q: frozenset({Segment.Q, Segment.SEP1})},
}
# The same rules as boolean [target, source] tables over segment codes, keyed
# by plain values, as ``_mask``'s cache key is: those hash in C.
_TABLES = {
    (step.value, severed): np.array([[src in rule[tgt] for src in Segment] for tgt in Segment])
    for (step, severed), rule in _RULES.items()
}
_Q, _D = int(Segment.Q), int(Segment.D)
# Reading a member off MaskStep, or a member's value, takes about 200 ns, a
# quarter of a cached mask lookup; the per-layer paths read these copies.
_STEP3, _STEP3_VALUE = MaskStep.STEP3, MaskStep.STEP3.value


@dataclass(frozen=True)
class SegmentLayout:
    """Positions of a joint query-document sequence.

    ``query_len`` (n) and ``doc_len`` (m) are token counts; the sequence is
    ``[CLS] + n query tokens + [SEP1] + m document tokens + [SEP2]``, total
    length ``n + m + 3``.
    """

    query_len: int
    doc_len: int

    def __post_init__(self):
        if self.query_len < 1:
            raise ValueError(f"query must hold at least one token, got {self.query_len}")
        if self.doc_len < 1:
            raise ValueError(f"document must hold at least one token, got {self.doc_len}")

    @property
    def length(self) -> int:
        return self.query_len + self.doc_len + 3

    def segments(self) -> np.ndarray:
        """Segment code per position, as an int8 vector: the query stream's
        codes followed by the document stream's."""
        return np.concatenate(
            [_stream_codes(self.query_len, Segment.Q), _stream_codes(self.doc_len, Segment.D)]
        )


@dataclass(frozen=True)
class MaskSpec:
    """Which masking step to apply, and for step 3 down to which depth.

    ``split_depth`` is the number of lower layers (1-based, inclusive) in
    which the query additionally stops reading the document; it only matters
    for step 3. ``total_layers`` is the model depth L.
    """

    step: MaskStep
    split_depth: int = 0
    total_layers: int = 0
    _value: str = field(init=False, repr=False, compare=False)  # step.value, for build_mask

    def __post_init__(self):
        object.__setattr__(self, "_value", self.step.value)
        if self.step is _STEP3:
            if self.split_depth < 1:
                raise ValueError("step 3 needs split_depth >= 1")
            if self.total_layers and self.split_depth > self.total_layers:
                raise ValueError(
                    f"split_depth {self.split_depth} exceeds total layers {self.total_layers}"
                )

    def severed(self, layer_index: int) -> bool:
        """True when this layer fully separates the query and document streams."""
        return self.step is _STEP3 and layer_index <= self.split_depth

    def reads_document(self, layers: int) -> bool:
        """Whether a ``layers``-deep CLS score under this spec reads the
        document: from step 1 on, only through query rows that read it in
        layer ``layers - 1``. A mid-fusion model of split S and k interaction
        layers is the step-3 spec at depth S + k."""
        direct = self.step in (MaskStep.BASELINE, MaskStep.STEP0)
        return direct or (layers >= 2 and not self.severed(layers - 1))


@dataclass(frozen=True)
class AttentionMask:
    """Boolean allow-matrix; rows are attending targets, columns sources."""

    allow: np.ndarray

    def __post_init__(self):
        if not self.allow.any(axis=1).all():
            raise ValueError("attention mask has a row with no allowed source")


# Room for every mask of the MiniLM operating point (max_query 16, max_doc
# 64): joint masks in two layer regimes, interaction masks, stream masks.
_MASK_CACHE_SIZE = 16 * 64 * 3 + 16 + 64


@functools.lru_cache(maxsize=_MASK_CACHE_SIZE)
def _mask(step: str, severed: bool, row_streams: tuple, col_streams: tuple) -> AttentionMask:
    """Read-only position-level mask under the ``(step value, severed)``
    rules. Rows and columns each cover a sequence of streams, given as
    ``(segment code, length)`` int pairs in order (see :func:`_stream_codes`)."""
    rows = np.concatenate([_stream_codes(length, body) for body, length in row_streams])
    cols = np.concatenate([_stream_codes(length, body) for body, length in col_streams])
    allow = _TABLES[step, severed][rows[:, None], cols[None, :]]
    allow.setflags(write=False)
    return AttentionMask(allow)


def build_mask(layout: SegmentLayout, spec: MaskSpec, layer_index: int) -> AttentionMask:
    """Expand the segment-level rules of ``spec`` to position granularity."""
    if spec.total_layers and not 1 <= layer_index <= spec.total_layers:
        raise ValueError(f"layer index {layer_index} outside 1..{spec.total_layers}")
    pair = ((_Q, layout.query_len), (_D, layout.doc_len))
    return _mask(spec._value, spec.severed(layer_index), pair, pair)


# --------------------------------------------------------------------------
# stream-level masks used by the mid-fusion model; these are the restriction
# of the fully-severed step-3 rules to the two independent streams, and of
# the post-split rules to the joint interaction pattern.
# --------------------------------------------------------------------------


def _stream_codes(length: int, body: int) -> np.ndarray:
    """Segment codes of the query stream ``[CLS, Q x n, SEP1]`` (``body`` Q)
    or of the document stream ``[D x m, SEP2]`` (``body`` D)."""
    if body == Segment.Q:
        return np.array([Segment.CLS, *[Segment.Q] * length, Segment.SEP1], dtype=np.int8)
    return np.array([*[Segment.D] * length, Segment.SEP2], dtype=np.int8)


def query_stream_mask(query_len: int) -> AttentionMask:
    """Intra-stream mask over ``[CLS, Q x n, SEP1]``: CLS reads the stream,
    query tokens read each other and their sink, SEP1 only itself."""
    stream = ((_Q, query_len),)
    return _mask(_STEP3_VALUE, True, stream, stream)


def doc_stream_mask(doc_len: int) -> AttentionMask:
    """Intra-stream mask over ``[D x m, SEP2]``: document tokens read each
    other and their sink, SEP2 only itself."""
    stream = ((_D, doc_len),)
    return _mask(_STEP3_VALUE, True, stream, stream)


def interaction_mask(query_len: int, doc_len: int) -> AttentionMask:
    """Joint mask for an interaction layer.

    Rows cover the query stream ``[CLS, Q x n, SEP1]``; columns cover the
    query stream followed by the document rows ``[D x m, SEP2]``. Query
    tokens read themselves, their sink and the document tokens; CLS and SEP1
    never read the document side, and nobody reads SEP2.
    """
    query = (_Q, query_len)
    return _mask(_STEP3_VALUE, False, (query,), (query, (_D, doc_len)))  # post-split
