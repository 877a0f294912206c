"""Ranking metrics, analytic FLOP counts, and the latency/memory harness.

FLOP accounting (documented so the numbers are reproducible term by term):
multiply-adds count as 2 FLOPs. For an encoder layer attending from ``t``
rows over ``src`` columns with hidden size ``d``, ``h`` heads and
feed-forward width ``f``:

* projections: query and output maps over ``t`` rows, key and value maps
  over ``src`` rows -> ``(2t + 2src) * d^2`` multiply-adds
* attention scores and mixing: ``2 * t * src * d`` multiply-adds
* feed-forward (applied to target rows only): ``2 * t * d * f`` multiply-adds
* small terms: softmax ``4*h*t*src``, two layernorms ``8*t*d`` each, gelu
  ``10*t*f``, two residual adds ``t*d`` each

Self-attention is the ``t == src`` case, giving the familiar
``4*s*d^2 + 2*s^2*d`` projections/scores split. Embedding costs one add per
element (``s*d``) and the scoring head ``2d + 1``. The precomputed mode
excludes every document-side encoding term (embedding and lower layers);
document rows are never updated above the split in any mode, but their
per-layer key/value projections still happen at query time and are charged
in both mid-fusion modes.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from . import mice, tensor, transformer
from .masking import MaskSpec, MaskStep

__all__ = [
    "RankedList",
    "ranked",
    "BenchReport",
    "ndcg_at_k",
    "rr_at_k",
    "evaluate_run",
    "count_flops",
    "bench_latency",
    "scoring_fn",
    "MODES",
]

MODES = ("ce", "mice", "mice-precomp")


@dataclass(frozen=True)
class RankedList:
    """An ordered result list for one query.

    ``items`` are (doc_id, score) pairs with scores non-increasing and ids
    unique; ``skipped`` lists candidates that could not be scored (e.g. no
    cached document state) when the caller asked for partial results.
    """

    query_id: str
    items: tuple
    skipped: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "skipped", tuple(self.skipped))
        ids = [d for d, _ in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate doc ids in ranking for query {self.query_id!r}")
        scores = [s for _, s in self.items]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError(f"scores not non-increasing for query {self.query_id!r}")

    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.items]


def ranked(scores, k: int | None = None) -> list:
    """``(doc_id, score)`` pairs in ranking order, score descending and ties
    by doc id, cut to the first ``k``: the order of every ranked list."""
    return sorted(scores, key=lambda item: (-item[1], item[0]))[:k]


def _ranking_ids(ranking) -> list[str]:
    if isinstance(ranking, RankedList):
        return ranking.doc_ids()
    ids = [d if isinstance(d, str) else d[0] for d in ranking]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate doc ids in ranking")
    return ids


def ndcg_at_k(ranking, rels: Mapping[str, int], k: int) -> float:
    """Normalized discounted cumulative gain at depth ``k``.

    Gain is ``2^rel - 1`` discounted by ``log2(rank + 1)``; the ideal
    ordering of all relevant documents normalizes. A query with no relevant
    documents scores 0.
    """
    if k < 1:
        raise ValueError(f"ndcg@{k}: the depth must be at least 1")
    ids = _ranking_ids(ranking)
    gains = sorted((r for r in rels.values() if r > 0), reverse=True)
    if not gains:
        return 0.0
    ideal = sum((2.0**g - 1.0) / np.log2(i + 2.0) for i, g in enumerate(gains[:k]))
    dcg = sum(
        (2.0 ** rels.get(doc, 0) - 1.0) / np.log2(i + 2.0)
        for i, doc in enumerate(ids[:k])
    )
    return float(dcg / ideal)


def rr_at_k(ranking, rels: Mapping[str, int], k: int) -> float:
    """Reciprocal rank of the first relevant document within the top ``k``."""
    if k < 1:
        raise ValueError(f"rr@{k}: the depth must be at least 1")
    ids = _ranking_ids(ranking)
    for i, doc in enumerate(ids[:k]):
        if rels.get(doc, 0) > 0:
            return 1.0 / (i + 1)
    return 0.0


_METRICS = {"ndcg": ndcg_at_k, "rr": rr_at_k}


def evaluate_run(run: Mapping[str, object], qrels: Mapping[str, Mapping[str, int]], metric: str) -> float:
    """Mean metric over the queries present in ``run``.

    ``metric`` looks like ``ndcg@10`` or ``rr@10``. Queries absent from the
    qrels count as having no relevant documents (score 0).
    """
    name, _, depth = metric.partition("@")
    if name not in _METRICS or not depth.isdigit():
        raise ValueError(f"unknown metric {metric!r} (use ndcg@K or rr@K)")
    fn, k = _METRICS[name], int(depth)
    if not run:
        raise ValueError("empty run")
    values = [fn(ranking, qrels.get(qid, {}), k) for qid, ranking in run.items()]
    return float(np.mean(values))


# --------------------------------------------------------------------------
# analytic FLOPs
# --------------------------------------------------------------------------


def _layer_flops(t: int, src: int, d: int, f: int, h: int) -> int:
    macs = (2 * t + 2 * src) * d * d + 2 * t * src * d + 2 * t * d * f
    small = 4 * h * t * src + 2 * 8 * t * d + 10 * t * f + 2 * t * d
    return 2 * macs + small


def count_flops(config: transformer.ModelConfig, n: int, m: int, mode: str) -> int:
    """Analytic FLOPs to score one (query, document) pair.

    ``mode`` is one of ``ce`` (joint forward over the full sequence),
    ``mice`` (independent lower streams encoded online, then interaction
    layers) or ``mice-precomp`` (document-side encoding excluded).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    d, f, h = config.hidden, config.ff, config.heads
    scorer = 2 * d + 1
    if mode == "ce":
        s = n + m + 3
        return s * d + config.layers * _layer_flops(s, s, d, f, h) + scorer
    split = config.split_depth
    k = config.interaction_layers
    if not k:
        raise ValueError("mid-fusion modes need config.interaction_layers set")
    t, sd = n + 2, m + 1
    total = t * d + split * _layer_flops(t, t, d, f, h)
    total += k * _layer_flops(t, t + sd, d, f, h) + scorer
    if mode == "mice":
        total += sd * d + split * _layer_flops(sd, sd, d, f, h)
    return total


# --------------------------------------------------------------------------
# wall-clock / memory harness
# --------------------------------------------------------------------------


@dataclass
class BenchReport:
    """One benchmark run; latencies are per batched forward, in ms."""

    mode: str
    batch: int
    n: int
    m: int
    latency_mean_ms: float
    latency_std_ms: float
    docs_per_second: float
    peak_bytes: int
    flops_per_pair: int
    trials: int
    warmup: int

    def __post_init__(self):
        if self.trials < 10:
            raise ValueError("a benchmark report needs at least 10 timed trials")
        if self.warmup < 3:
            raise ValueError("a benchmark report needs at least 3 warmup iterations")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def summary(self) -> str:
        return (
            f"{self.mode:<12} batch={self.batch} n={self.n} m={self.m} "
            f"latency={self.latency_mean_ms:.2f}±{self.latency_std_ms:.2f} ms "
            f"docs/s={self.docs_per_second:.1f} "
            f"peak={self.peak_bytes / 1e6:.1f} MB flops/pair={self.flops_per_pair:,}"
        )


def _random_ids(rng, count: int, length: int, vocab_size: int) -> list[list[int]]:
    return [
        rng.integers(transformer.FIRST_WORD_ID, vocab_size, size=length).tolist()
        for _ in range(count)
    ]


def scoring_fn(
    config: transformer.ModelConfig, mode: str, batch: int, n: int, m: int, seed: int = 0
):
    """A no-argument callable that scores one fixed random batch of ``batch``
    pairs (queries of ``n`` ids, documents of ``m``) under ``mode``: the work
    :func:`bench_latency` times. Weights, ids and, for ``mice-precomp``, the
    document states are built here. Call this and the callable under
    :class:`.tensor.no_grad`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    rng = np.random.default_rng(seed)
    queries = _random_ids(rng, batch, n, config.vocab_size)
    docs = _random_ids(rng, batch, m, config.vocab_size)
    if mode == "ce":
        weights = transformer.init_ce_weights(config, seed=seed, dtype=np.float32)
        spec = MaskSpec(MaskStep.BASELINE)
        pairs = list(zip(queries, docs))
        return lambda: transformer.score_pairs(pairs, spec, weights)
    weights = mice.init_mice_weights(config, seed=seed, dtype=np.float32)
    if mode == "mice":
        pairs = list(zip(queries, docs))
        return lambda: mice.mice_train_scores(pairs, weights)
    states = mice.encode_documents([(str(i), doc) for i, doc in enumerate(docs)], weights)
    items = list(zip(queries, states))
    return lambda: mice.mice_score_batch(items, weights)


def bench_latency(
    config: transformer.ModelConfig,
    mode: str,
    batch: int,
    n: int,
    m: int,
    trials: int = 10,
    warmup: int = 3,
    seed: int = 0,
) -> BenchReport:
    """Time batched scoring under ``mode`` and report latency, throughput,
    analytic FLOPs and the tensor-buffer memory high-water mark.

    Latency trials run with allocation tracking off; one extra pass measures
    peak memory.
    """
    if trials < 10:
        raise ValueError("need at least 10 timed trials")
    if warmup < 3:
        raise ValueError("need at least 3 warmup iterations")
    with tensor.no_grad():
        fn = scoring_fn(config, mode, batch, n, m, seed)
        for _ in range(warmup):
            fn()
        times = []
        for _ in range(trials):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        tensor.track_allocations(True)
        try:
            fn()
            peak = tensor.peak_allocated_bytes()
        finally:
            tensor.track_allocations(False)

    mean_s = float(np.mean(times))
    return BenchReport(
        mode=mode,
        batch=batch,
        n=n,
        m=m,
        latency_mean_ms=mean_s * 1e3,
        latency_std_ms=float(np.std(times)) * 1e3,
        docs_per_second=batch / mean_s,
        peak_bytes=peak,
        flops_per_pair=count_flops(config, n, m, mode),
        trials=trials,
        warmup=warmup,
    )
