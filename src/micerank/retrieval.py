"""Deterministic tokenizer, Okapi BM25 first stage, and the rerank pipeline.

The rerank scorers: :class:`CrossEncoderScorer` runs the joint forward of
each (query, candidate) pair under a mask step. The mid-fusion scorers score
frozen document states: :class:`MiceCacheScorer` reads precomputed ones, and
:class:`MiceScorer` encodes each candidate document once, when it is first
listed, and keeps its state until its last listing. :class:`CutScorer` is a
:class:`MiceScorer` over the cut of a step-3 cross-encoder of depth split + 2.

File formats handled here:

* corpus / queries: JSON-lines, one ``{"id": ..., "text": ...}`` per line
* runs: TREC 6-column ``qid Q0 docid rank score tag``
* qrels: TREC 4-column ``qid 0 docid rel``
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import mice as mice_mod
from . import transformer
from .evalbench import RankedList, ranked
from .masking import MaskSpec
from .tensor import no_grad
from .transformer import FIRST_WORD_ID, UNK_ID

__all__ = [
    "Vocab",
    "CorpusStats",
    "split_terms",
    "build_vocab",
    "check_vocab_size",
    "token_map",
    "build_corpus_stats",
    "bm25_score",
    "bm25_retrieve",
    "rerank",
    "CrossEncoderScorer",
    "CutScorer",
    "MiceScorer",
    "MiceCacheScorer",
    "read_jsonl",
    "write_jsonl",
    "read_trec_run",
    "write_trec_run",
    "read_qrels",
    "write_qrels",
]

log = logging.getLogger(__name__)

_TERM_RE = re.compile(r"[a-z0-9]+")


def split_terms(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TERM_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocab:
    """Token-to-id map; special ids sit below all word ids."""

    token_to_id: dict

    @property
    def size(self) -> int:
        return FIRST_WORD_ID + len(self.token_to_id)

    def id_of(self, term: str) -> int:
        return self.token_to_id.get(term, UNK_ID)

    def encode(self, text: str) -> list[int]:
        """Token ids for ``text``; out-of-vocabulary terms map to UNK. A text
        without terms yields []: ``frame_stream`` refuses an empty body, so
        callers substitute a single UNK (:func:`token_map`,
        :func:`ensure_nonempty`)."""
        return [self.id_of(t) for t in split_terms(text)]


def build_vocab(texts: Iterable[str]) -> Vocab:
    """Dense word ids over the sorted unique terms of ``texts``."""
    terms = sorted({t for text in texts for t in split_terms(text)})
    return Vocab({t: FIRST_WORD_ID + i for i, t in enumerate(terms)})


def check_vocab_size(vocab: Vocab, config: transformer.ModelConfig) -> None:
    """Refuse a model whose token embeddings do not fit ``vocab``."""
    if vocab.size != config.vocab_size:
        raise ValueError(
            f"corpus builds {vocab.size} token ids, which does not match checkpoint "
            f"({config.vocab_size})"
        )


def ensure_nonempty(ids: Sequence[int]) -> list[int]:
    """Layouts need at least one token; empty inputs become a single UNK."""
    return list(ids) if len(ids) else [UNK_ID]


def token_map(records: Iterable[tuple[str, str]], vocab: Vocab) -> dict:
    """``{id: token ids}`` of ``(id, text)`` records, UNK standing in for a
    text without terms."""
    return {rec_id: ensure_nonempty(vocab.encode(text)) for rec_id, text in records}


# --------------------------------------------------------------------------
# BM25
# --------------------------------------------------------------------------


@dataclass
class CorpusStats:
    """Okapi BM25 corpus statistics plus an in-memory inverted index."""

    postings: dict  # term -> {doc_id: tf}
    doc_len: dict  # doc_id -> token count
    total_docs: int
    avg_doc_len: float


def build_corpus_stats(corpus: Iterable[tuple[str, str]]) -> CorpusStats:
    postings: dict = {}
    doc_len: dict = {}
    for doc_id, text in corpus:
        if doc_id in doc_len:
            raise ValueError(f"duplicate doc id {doc_id!r} in corpus")
        terms = split_terms(text)
        doc_len[doc_id] = len(terms)
        for term in terms:
            postings.setdefault(term, {})
            postings[term][doc_id] = postings[term].get(doc_id, 0) + 1
    if not doc_len:
        raise ValueError("empty corpus")
    total = len(doc_len)
    avg = sum(doc_len.values()) / total
    return CorpusStats(postings, doc_len, total, avg)


def _idf(df: int, stats: CorpusStats) -> float:
    return np.log(1.0 + (stats.total_docs - df + 0.5) / (df + 0.5))


def _term_weight(
    idf: float, tf: int, doc_len: int, stats: CorpusStats, k1: float, b: float
) -> float:
    """One query term's contribution to one document's BM25 score."""
    norm = k1 * (1.0 - b + b * doc_len / stats.avg_doc_len)
    return idf * tf * (k1 + 1.0) / (tf + norm)


def _check_bm25_params(k1: float, b: float) -> None:
    """Outside these ranges a term weight can divide by zero or go negative."""
    if not k1 >= 0:
        raise ValueError(f"BM25 k1 must be at least 0, got {k1}")
    if not 0 <= b <= 1:
        raise ValueError(f"BM25 b must lie in [0, 1], got {b}")


def bm25_score(
    query_terms: Sequence[str],
    doc_id: str,
    stats: CorpusStats,
    k1: float = 0.9,
    b: float = 0.4,
) -> float:
    """Okapi BM25 with idf ``ln(1 + (N - df + 0.5) / (df + 0.5))``."""
    _check_bm25_params(k1, b)
    if doc_id not in stats.doc_len:
        raise KeyError(f"unknown doc id {doc_id!r}")
    dl = stats.doc_len[doc_id]
    score = 0.0
    for term in query_terms:
        entry = stats.postings.get(term)
        if not entry or doc_id not in entry:
            continue
        score += _term_weight(_idf(len(entry), stats), entry[doc_id], dl, stats, k1, b)
    return float(score)


def bm25_retrieve(
    query_text: str,
    stats: CorpusStats,
    k: int = 1000,
    k1: float = 0.9,
    b: float = 0.4,
) -> list[tuple[str, float]]:
    """Top-``k`` matching documents, in :func:`.evalbench.ranked` order."""
    _check_bm25_params(k1, b)
    terms = split_terms(query_text)
    accum: dict = {}
    for term in terms:
        entry = stats.postings.get(term)
        if not entry:
            continue
        idf = _idf(len(entry), stats)
        for doc_id, tf in entry.items():
            accum[doc_id] = accum.get(doc_id, 0.0) + float(
                _term_weight(idf, tf, stats.doc_len[doc_id], stats, k1, b)
            )
    return ranked(accum.items(), k)


# --------------------------------------------------------------------------
# scorers: map (query, candidates) to relevance scores
# --------------------------------------------------------------------------


class _NeuralScorer:
    """Shared chunking/threading machinery for model-backed scorers.

    ``docs`` answers ``c in docs`` for the candidates this scorer can score:
    a map from doc id to non-empty token ids (:func:`token_map`) or to text
    (:class:`CutScorer`), or the document states of :class:`MiceCacheScorer`.
    """

    def __init__(self, weights, vocab: Vocab, docs, batch_size: int = 64, threads: int = 1):
        self.weights = weights
        self.vocab = vocab
        self.docs = docs
        self.batch_size = batch_size
        self.threads = threads

    def score(self, query_text: str, candidates: Sequence[str]) -> dict:
        q_ids = ensure_nonempty(self.vocab.encode(query_text))
        return self.score_ids(q_ids, candidates)

    def score_ids(self, q_ids: Sequence[int], candidates: Sequence[str]) -> dict:
        chunks = [
            list(candidates[i : i + self.batch_size])
            for i in range(0, len(candidates), self.batch_size)
        ]

        def score(chunk):
            # Grad mode is thread-local: each pool worker must enter it itself.
            with no_grad():
                return self._score_chunk(q_ids, chunk)

        if self.threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                results = list(pool.map(score, chunks))
        else:
            results = map(score, chunks)
        out: dict = {}
        for chunk, scores in zip(chunks, results):
            out.update(zip(chunk, scores))
        return out

    def _score_chunk(self, q_ids, chunk) -> np.ndarray:
        raise NotImplementedError


class CrossEncoderScorer(_NeuralScorer):
    """Joint forward under a masking step (the ablation path)."""

    def __init__(self, weights, spec: MaskSpec, vocab, doc_tokens, **kw):
        super().__init__(weights, vocab, doc_tokens, **kw)
        self.spec = spec

    def _score_chunk(self, q_ids, chunk) -> np.ndarray:
        pairs = [(q_ids, self.docs[c]) for c in chunk]
        return transformer.score_pairs(pairs, self.spec, self.weights).data


class MiceCacheScorer(_NeuralScorer):
    """Mid-fusion scoring against precomputed document states; ``docs`` is
    the document-state cache or a ``{doc_id: DocState}`` map."""

    def _score_chunk(self, q_ids, chunk) -> np.ndarray:
        items = [(q_ids, self.docs.get(c)) for c in chunk]
        return mice_mod.mice_score_batch(items, self.weights)


class MiceScorer(_NeuralScorer):
    """Mid-fusion scoring of documents given as token ids (``docs``), each
    encoded once into ``states``: one :func:`.mice.encode_documents` call per
    query encodes its candidates without a state, before chunking, so only
    this thread writes ``states``. ``uses`` holds one doc id per listing the
    scorer will be given; a state is dropped after the last listing ``uses``
    counts for it (a document listed again is encoded again), and kept when
    it counts none, as with the default."""

    def __init__(self, weights, vocab, docs, uses: Iterable[str] = (), **kw):
        super().__init__(weights, vocab, docs, **kw)
        self.states: dict = {}
        self.uses = Counter(uses)

    def score_ids(self, q_ids: Sequence[int], candidates: Sequence[str]) -> dict:
        new = [(c, self._tokens(c)) for c in dict.fromkeys(candidates) if c not in self.states]
        if new:
            with no_grad():
                encoded = mice_mod.encode_documents(new, self.weights)
            self.states.update((state.doc_id, state) for state in encoded)
        scores = super().score_ids(q_ids, candidates)
        for c in candidates:
            self.uses[c] -= 1
            if self.uses[c] == 0:
                del self.states[c]
        return scores

    def _score_chunk(self, q_ids, chunk) -> np.ndarray:
        items = [(q_ids, self.states[c]) for c in chunk]
        return mice_mod.mice_score_batch(items, self.weights)

    def _tokens(self, doc_id: str) -> list[int]:
        return self.docs[doc_id]


class CutScorer(MiceScorer):
    """A step-3 cross-encoder of depth ``split_depth + 2``, scored through
    its cut ``mice.from_cross_encoder(weights, split_depth, 2)``: from step 2
    on, document rows read only the document, and from step 1 on the top
    layer's CLS row reads none, so only the split-layer states, which the
    cut freezes, reach the score. ``corpus`` gives ``(doc id, text)``; a
    text is tokenized when first encoded, so set-up tokenizes no document."""

    def __init__(self, weights, split_depth: int, vocab, corpus, uses: Iterable[str], **kw):
        cut = mice_mod.from_cross_encoder(weights, split_depth, 2)
        super().__init__(cut, vocab, dict(corpus), uses, **kw)

    def _tokens(self, doc_id: str) -> list[int]:
        return ensure_nonempty(self.vocab.encode(self.docs[doc_id]))


def rerank(
    query_id: str,
    query_text: str,
    candidates: Sequence[str],
    scorer,
    k_out: int | None = None,
    strict: bool = True,
) -> RankedList:
    """Re-score ``candidates`` and put them in :func:`.evalbench.ranked` order.

    ``scorer`` offers ``score(query_text, candidates)`` and ``docs``, which
    answers ``c in docs`` for the candidates it can score. The others
    (unknown document, no cached state) raise ``KeyError`` when ``strict``,
    as ``rerank --strict`` does; otherwise they are dropped with a warning
    and recorded on ``RankedList.skipped``.
    """
    scoreable = [c for c in candidates if c in scorer.docs]
    missing = [c for c in candidates if c not in scorer.docs]
    if missing and strict:
        raise KeyError(f"{len(missing)} candidate(s) cannot be scored, e.g. {missing[:3]}")
    for doc_id in missing:
        log.warning("query %s: skipping unscoreable candidate %s", query_id, doc_id)
    items = ranked(scorer.score(query_text, scoreable).items(), k_out)
    return RankedList(query_id=query_id, items=tuple(items), skipped=tuple(missing))


# --------------------------------------------------------------------------
# file formats
# --------------------------------------------------------------------------


@contextlib.contextmanager
def open_text(path):
    """``path`` opened to read as UTF-8 text with universal newlines; a file
    that is not UTF-8 is refused naming ``path:line``."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            # bytes.splitlines ends lines where universal newlines do, and a
            # line of valid UTF-8 survives decoding that drops bad bytes.
            lines = enumerate(Path(path).read_bytes().splitlines(), start=1)
            lineno = next((n for n, line in lines
                           if line.decode("utf-8", "ignore").encode() != line), "?")
            raise ValueError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None


def read_jsonl(path) -> list[tuple[str, str]]:
    """``(id, text)`` records of a corpus or query file; a malformed line, an
    id or text that is not a string, or a repeated id is refused, naming
    ``path:line``."""
    records = []
    first_line: dict[str, int] = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected an object, got {type(obj).__name__}")
                for key in ("id", "text"):
                    if not isinstance(obj[key], str):
                        raise TypeError(f"{key} must be a string, got {json.dumps(obj[key])}")
                rec_id, text = obj["id"], obj["text"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad JSONL record ({exc})") from None
            if rec_id in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate id {rec_id!r} (first on line {first_line[rec_id]})"
                )
            first_line[rec_id] = lineno
            records.append((rec_id, text))
    return records


def write_jsonl(path, records: Iterable[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec_id, text in records:
            f.write(json.dumps({"id": rec_id, "text": text}) + "\n")


def write_trec_run(path, rankings: Iterable[RankedList], tag: str = "micerank") -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ranking in rankings:
            for rank, (doc_id, score) in enumerate(ranking.items, start=1):
                f.write(f"{ranking.query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n")


def read_trec_run(path) -> dict:
    """Run file -> {qid: [(doc_id, score), ...]} ordered by stored rank; a
    query that lists a document twice is refused."""
    by_query: dict = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
            qid, _, doc_id, rank, score, _ = parts
            try:
                row = (int(rank), doc_id, float(score))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: rank {rank!r} must be an integer and "
                    f"score {score!r} a number"
                ) from None
            by_query.setdefault(qid, []).append(row)
    for qid, rows in by_query.items():
        if len({doc_id for _, doc_id, _ in rows}) < len(rows):
            counts = Counter(doc_id for _, doc_id, _ in rows)
            doc_id = next(d for d, n in counts.items() if n > 1)
            raise ValueError(f"{path}: query {qid!r} lists document {doc_id!r} more than once")
    return {
        qid: [(doc_id, score) for _, doc_id, score in sorted(rows)]
        for qid, rows in by_query.items()
    }


def read_qrels(path) -> dict:
    """Qrels file -> {qid: {doc_id: rel}}; a malformed line or a second
    judgment of one (query, document) pair is refused, naming ``path:line``."""
    qrels: dict = {}
    first_line: dict[tuple[str, str], int] = {}
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            qid, _, doc_id, rel = parts
            try:
                rel = int(rel)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: relevance {rel!r} must be an integer"
                ) from None
            if (qid, doc_id) in first_line:
                raise ValueError(
                    f"{path}:{lineno}: repeated judgment of ({qid!r}, {doc_id!r}) "
                    f"(first on line {first_line[qid, doc_id]})"
                )
            first_line[qid, doc_id] = lineno
            qrels.setdefault(qid, {})[doc_id] = rel
    return qrels


def write_qrels(path, qrels: Mapping[str, Mapping[str, int]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(qrels):
            for doc_id in sorted(qrels[qid]):
                f.write(f"{qid} 0 {doc_id} {qrels[qid][doc_id]}\n")
