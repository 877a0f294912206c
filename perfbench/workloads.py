"""The four benchmark workloads: fixtures, one round of work, output checks.

Every workload is a closed loop with one client. A round runs the commands
a user types, through ``micerank.cli.dispatch``, on one slice of the
generated inputs; the next round starts when the previous one has ended.
Items are what a round processes one at a time: queries (``desk-ce``,
``minilm-precomp``), documents (``minilm-index``) or training steps
(``desk-train``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

# Desk operating point: the training defaults (3 layers, hidden 32).
DESK = dict(layers=3, hidden=32, heads=4, ff=64, max_query=8, max_doc=24, split_depth=1)
# MiniLM widths; the 12-layer cross-encoder is cut at split 4 keeping 3
# interaction layers. Documents are capped at 64 tokens so that a run fits.
MINILM = dict(layers=12, hidden=384, heads=12, ff=1536, max_query=16, max_doc=64,
              split_depth=4)
MINILM_INTERACTION = 3

# Tolerance for a score written to a TREC run (6 decimals) against a score
# recomputed in f32 from the same weights along another batching path.
SCORE_ATOL = 2e-5
SCORE_RTOL = 1e-4
SAMPLE_QUERIES = 3
SAMPLE_DOCS = 4
# The cache header: magic 8 bytes, version, hidden, split u32, hash 32 bytes,
# document count u32 (see the micerank.doccache module docstring).
CACHE_HEADER_BYTES = 8 + 4 * 3 + 32 + 4


@dataclass
class Round:
    items: int
    wall: float
    setup: float
    latencies: list  # seconds per item
    output_bytes: int
    ok: bool = True
    outputs: dict = field(default_factory=dict)


def read_run(path: Path) -> dict:
    """TREC run -> {qid: [(rank, doc_id, score)]} in file order."""
    out = {}
    with open(path) as f:
        for line in f:
            qid, _, doc_id, rank, score, _ = line.split()
            out.setdefault(qid, []).append((int(rank), doc_id, float(score)))
    return out


def read_jsonl(path: Path) -> list:
    with open(path) as f:
        return [(str(r["id"]), str(r["text"])) for r in map(json.loads, f) if r]


class Workload:
    name = ""
    spec: gen.CorpusSpec
    min_items = 1  # per timed run
    trace_items = 1  # items the traced pass covers at least
    # Span-name prefixes the traced run must not record: the layers this
    # workload is chosen to bypass.
    absent_spans: tuple = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.corpus = work / "corpus.jsonl"
        self.queries = work / "queries.jsonl"

    # -- fixtures (built in a separate process, before any timing) ------

    def write_inputs(self) -> gen.Inputs:
        inputs = gen.generate(self.spec, self.seed)
        gen.write_jsonl(self.corpus, inputs.corpus)
        gen.write_jsonl(self.queries, inputs.queries)
        gen.write_qrels(self.work / "qrels.tsv", inputs.qrels)
        return inputs

    def build_fixtures(self) -> None:
        self.write_inputs()

    def vocab_size(self) -> int:
        from micerank import retrieval

        return retrieval.build_vocab(t for _, t in read_jsonl(self.corpus)).size

    # -- timed rounds ---------------------------------------------------

    def round(self, k: int, boundary, run_command) -> Round:
        raise NotImplementedError

    def check(self, rounds: list) -> int:
        """Checks outputs after timing; returns the number of failed items."""
        raise NotImplementedError

    def manifest(self) -> dict:
        docs = [len(t.split()) for _, t in read_jsonl(self.corpus)]
        queries = [len(t.split()) for _, t in read_jsonl(self.queries)]
        return {"corpus_docs": len(docs), "doc_words": quantiles(docs),
                "query_pool": len(queries), "query_words": quantiles(queries)}


def quantiles(values: list) -> dict:
    s = sorted(values)
    pick = lambda q: s[min(len(s) - 1, int(q * len(s)))]  # noqa: E731
    return {"min": s[0], "p50": pick(0.5), "p90": pick(0.9), "max": s[-1]}


class _Rerank(Workload):
    """``micerank bm25`` then ``micerank rerank`` over a slice of queries."""

    depth = 0
    chunk = 0  # queries per round
    mode_args: list = []
    min_items = 100  # so that p90 has at least ten samples beyond it

    def model_path(self) -> Path:
        raise NotImplementedError

    def round(self, k: int, boundary, run_command) -> Round:
        pool = read_jsonl(self.queries)
        start = (k * self.chunk) % len(pool)
        chunk = (pool + pool)[start : start + self.chunk]
        queries = self.work / f"queries-{k}.jsonl"
        gen.write_jsonl(queries, chunk)
        bm25_out, rerank_out = self.work / f"bm25-{k}.run", self.work / f"rerank-{k}.run"
        first = len(boundary.items["bm25"]), len(boundary.items["rerank"])
        code1, setup1, wall1 = run_command([
            "bm25", "--corpus", str(self.corpus), "--queries", str(queries),
            "--k", str(self.depth), "--out", str(bm25_out), "--threads", "1"])
        code2, setup2, wall2 = run_command([
            "rerank", "--model", str(self.model_path()), *self.mode_args,
            "--queries", str(queries), "--corpus", str(self.corpus),
            "--candidates", str(bm25_out), "--out", str(rerank_out), "--threads", "1",
            "--seed", str(self.seed)])
        bm25 = boundary.items["bm25"][first[0]:]
        rerank = boundary.items["rerank"][first[1]:]
        ok = code1 == 0 and code2 == 0 and len(bm25) == len(rerank) == len(chunk)
        size = sum(p.stat().st_size for p in (bm25_out, rerank_out) if p.exists())
        return Round(len(chunk), wall1 + wall2, setup1 + setup2,
                     [a + b for a, b in zip(bm25, rerank)] if ok else [], size, ok,
                     {"queries": chunk, "bm25": bm25_out, "rerank": rerank_out})

    def check(self, rounds: list) -> int:
        failed, sampled = 0, 0
        for r in rounds:
            if not r.ok:
                failed += r.items
                continue
            candidates = read_run(r.outputs["bm25"])
            ranked = read_run(r.outputs["rerank"])
            for qid, text in r.outputs["queries"]:
                rows = ranked.get(qid, [])
                good = self._complete(rows, candidates.get(qid, []))
                if good and sampled < SAMPLE_QUERIES:
                    sampled += 1
                    good = self._scores_match(text, rows)
                failed += not good
        return failed

    def _complete(self, rows, candidates) -> bool:
        scores = [s for _, _, s in rows]
        return (len(candidates) == self.depth
                and [rank for rank, _, _ in rows] == list(range(1, self.depth + 1))
                and sorted(d for _, d, _ in rows) == sorted(d for _, d, _ in candidates)
                and all(a >= b for a, b in zip(scores, scores[1:])))

    def _scores_match(self, text, rows) -> bool:
        expected = self.reference_scores(text, [d for _, d, _ in rows])
        return all(math.isfinite(s) and abs(s - e) <= SCORE_ATOL + SCORE_RTOL * abs(e)
                   for (_, _, s), e in zip(rows, expected))

    @functools.cached_property
    def reference(self):
        """(weights, {doc_id: text}, text -> token ids) as the CLI builds them."""
        from micerank import checkpoint, retrieval

        weights, _ = checkpoint.load_weights(self.model_path())
        corpus = dict(read_jsonl(self.corpus))
        vocab = retrieval.build_vocab(corpus.values())
        encode = lambda text: retrieval.ensure_nonempty(vocab.encode(text))  # noqa: E731
        return weights, corpus, encode

    def reference_scores(self, text, doc_ids) -> list:
        raise NotImplementedError

    def manifest(self) -> dict:
        return {**super().manifest(), "candidates_per_query": self.depth,
                "queries_per_round": self.chunk}


class DeskCE(_Rerank):
    name = "desk-ce"
    spec = gen.CorpusSpec(docs=2000, queries=1200, topics=40, pool_terms=40,
                          background_terms=600, doc_len=(6, 24), query_len=(2, 8),
                          min_matches=100)
    depth = 100
    chunk = 105  # 15 cycles of the 7 query lengths
    mode_args = ["--mode", "ce", "--step", "3"]
    trace_items = 100
    absent_spans = ("mice.", "doccache.", "tensor.backward", "training.")

    def model_path(self) -> Path:
        return self.work / "ce.bin"

    def build_fixtures(self) -> None:
        from micerank import checkpoint, transformer

        self.write_inputs()
        config = transformer.ModelConfig(vocab_size=self.vocab_size(), **DESK)
        checkpoint.save_weights(self.model_path(),
                                transformer.init_ce_weights(config, seed=self.seed))

    def reference_scores(self, text, doc_ids) -> list:
        from micerank import transformer

        weights, corpus, encode = self.reference
        spec = transformer.spec_for("3", weights.config)
        q = encode(text)
        return [transformer.cross_encoder_forward(q, encode(corpus[d]), spec, weights)
                for d in doc_ids]

    def manifest(self) -> dict:
        return {**super().manifest(), "model": {**DESK, "kind": "ce", "step": 3}}


def build_minilm_mice(path: Path, vocab_size: int, seed: int) -> None:
    from micerank import checkpoint, mice, transformer

    config = transformer.ModelConfig(vocab_size=vocab_size, **MINILM)
    ce = transformer.init_ce_weights(config, seed=seed)
    mw = mice.from_cross_encoder(ce, MINILM["split_depth"], MINILM_INTERACTION)
    checkpoint.save_weights(path, mw)


MINILM_MODEL = {**MINILM, "kind": "mice", "cut_from_layers": MINILM["layers"],
                "layers": MINILM["split_depth"] + MINILM_INTERACTION,
                "interaction_layers": MINILM_INTERACTION}


class MiniLMPrecomp(_Rerank):
    name = "minilm-precomp"
    spec = gen.CorpusSpec(docs=120, queries=400, topics=12, pool_terms=40,
                          background_terms=300, doc_len=(16, 64), query_len=(2, 16),
                          min_matches=16)
    depth = 16
    chunk = 15  # one cycle of the 15 query lengths
    trace_items = 30
    absent_spans = ("transformer.score_pairs", "masking.build_mask", "tensor.backward",
                    "training.")

    @property
    def mode_args(self):
        return ["--mode", "mice-precomp", "--cache", str(self.work / "docs.cache")]

    def model_path(self) -> Path:
        return self.work / "mice.bin"

    def build_fixtures(self) -> None:
        from micerank import cli

        self.write_inputs()
        build_minilm_mice(self.model_path(), self.vocab_size(), self.seed)
        code = cli.dispatch(["encode-docs", "--model", str(self.model_path()),
                             "--corpus", str(self.corpus),
                             "--out", str(self.work / "docs.cache")])
        if code:
            raise RuntimeError(f"encode-docs fixture failed with exit code {code}")

    def reference_scores(self, text, doc_ids) -> list:
        from micerank import mice

        weights, corpus, encode = self.reference
        q = encode(text)
        return [mice.mice_forward(q, mice.encode_document(encode(corpus[d]), weights, d),
                                  weights)
                for d in doc_ids]

    def manifest(self) -> dict:
        return {**super().manifest(), "model": MINILM_MODEL}


class MiniLMIndex(Workload):
    """``micerank encode-docs`` over the corpus, then open the cache and get
    every entry."""

    name = "minilm-index"
    spec = gen.CorpusSpec(docs=120, queries=8, topics=12, pool_terms=40,
                          background_terms=300, doc_len=(16, 64), query_len=(2, 16))
    trace_items = 120
    absent_spans = ("transformer.score_pairs", "masking.build_mask", "tensor.backward",
                    "training.", "retrieval.rerank")

    def model_path(self) -> Path:
        return self.work / "mice.bin"

    def build_fixtures(self) -> None:
        self.write_inputs()
        build_minilm_mice(self.model_path(), self.vocab_size(), self.seed)

    def round(self, k: int, boundary, run_command) -> Round:
        from micerank import doccache

        out = self.work / f"docs-{k}.cache"
        first = len(boundary.items["encode"])
        code, setup, wall = run_command([
            "encode-docs", "--model", str(self.model_path()), "--corpus", str(self.corpus),
            "--out", str(out), "--threads", "1"])
        latencies = boundary.items["encode"][first:]
        ok = code == 0
        if ok:
            t0 = time.perf_counter()
            with doccache.read_cache(out) as cache:
                for doc_id in cache.doc_ids():
                    cache.get(doc_id)
            wall += time.perf_counter() - t0
        return Round(len(latencies) if ok else self.spec.docs, wall, setup, latencies,
                     out.stat().st_size if ok else 0, ok, {"cache": out})

    def check(self, rounds: list) -> int:
        import numpy as np
        from micerank import checkpoint, doccache, mice, retrieval

        weights, _ = checkpoint.load_weights(self.model_path())
        corpus = read_jsonl(self.corpus)
        vocab = retrieval.build_vocab(t for _, t in corpus)
        hidden = weights.config.hidden
        failed = 0
        for i, r in enumerate(rounds):
            if not r.ok:
                failed += r.items
                continue
            path = r.outputs["cache"]
            with doccache.read_cache(path) as cache:
                ids = cache.doc_ids()
                states = {d: cache.get(d) for d in ids}
                size = (CACHE_HEADER_BYTES
                        + sum(4 + len(d.encode()) + 4 + 8 for d in ids)
                        + sum((s.m + 1) * hidden * 4 for s in states.values()))
                good = (cache.header.checkpoint_hash == weights.fingerprint()
                        and ids == [d for d, _ in corpus]
                        and path.stat().st_size == size)
            if not good:
                failed += r.items
                continue
            if i == len(rounds) - 1:
                for doc_id, text in corpus[:SAMPLE_DOCS]:
                    fresh = mice.encode_document(
                        retrieval.ensure_nonempty(vocab.encode(text)), weights, doc_id)
                    failed += not np.array_equal(fresh.states, states[doc_id].states)
        return failed

    def manifest(self) -> dict:
        return {**super().manifest(), "docs_per_round": self.spec.docs,
                "model": MINILM_MODEL}


class DeskTrain(Workload):
    """``micerank train --variant mice`` for a fixed number of steps."""

    name = "desk-train"
    spec = gen.CorpusSpec(docs=200, queries=64, topics=8, pool_terms=30,
                          background_terms=200, doc_len=(6, 24), query_len=(2, 8))
    steps = 60
    validate_every = 20
    trace_items = 60
    absent_spans = ("transformer.score_pairs", "doccache.", "retrieval.rerank")

    def round(self, k: int, boundary, run_command) -> Round:
        out = self.work / f"train-{k}"
        first = len(boundary.items["step"])
        code, setup, wall = run_command([
            "train", "--variant", "mice", "--corpus", str(self.corpus),
            "--queries", str(self.queries), "--qrels", str(self.work / "qrels.tsv"),
            "--out-dir", str(out), "--steps", str(self.steps),
            "--validate-every", str(self.validate_every), "--warmup", "10",
            "--seed", str(self.seed), "--threads", "1"])
        latencies = boundary.items["step"][first:]
        ok = code == 0 and len(latencies) == self.steps
        size = sum(p.stat().st_size for p in out.glob("*")) if out.exists() else 0
        return Round(self.steps, wall, setup, latencies if ok else [], size, ok,
                     {"out": out})

    def check(self, rounds: list) -> int:
        from micerank import checkpoint, mice

        failed = 0
        for r in rounds:
            good = r.ok
            if good:
                out = r.outputs["out"]
                try:
                    with open(out / "metrics.jsonl") as f:
                        losses = [json.loads(line)["loss"] for line in f]
                    weights, _ = checkpoint.load_weights(out / "model.bin")
                    digest = hashlib.sha256((out / "model.bin").read_bytes()).digest()
                    good = (len(losses) == self.steps // self.validate_every
                            and all(math.isfinite(loss) for loss in losses)
                            and isinstance(weights, mice.MiceWeights)
                            and weights.fingerprint() == digest)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    print(f"check: training output unreadable: {exc!r}")
                    good = False
            failed += 0 if good else r.items
        return failed

    def manifest(self) -> dict:
        return {**super().manifest(), "steps_per_round": self.steps,
                "validate_every": self.validate_every,
                "model": {**DESK, "kind": "mice", "interaction_layers": 2,
                          "batch_size": 32}}


WORKLOADS = {w.name: w for w in (DeskCE, MiniLMPrecomp, MiniLMIndex, DeskTrain)}
