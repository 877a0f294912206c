"""Seeded benchmark inputs: a clustered corpus, queries and qrels.

Documents belong to topics. Each word is drawn from the document's topic
pool with probability ``TOPIC_SHARE`` (``QUERY_TOPIC_SHARE`` for queries)
and from a shared background vocabulary otherwise; both draws are Zipf-skewed, so a few background terms
occur in most documents and BM25 always has candidates to fill its depth.
Query topics are Zipf-skewed as well, so popular topics (and with them the
same candidate documents) recur across queries.

Lengths vary uniformly inside the stated ranges, but are stratified rather
than drawn: document lengths are an even grid over the range in seeded
order, and query lengths cycle through the range from a seeded offset, so
every run of consecutive queries covers it evenly. The seed then changes
which words and documents a run sees, not how much work its inputs hold.

This module depends on numpy only: the program under test receives nothing
but the files written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOPIC_SHARE = 0.6  # chance a document word comes from its topic pool
QUERY_TOPIC_SHARE = 0.7


@dataclass(frozen=True)
class CorpusSpec:
    docs: int
    queries: int
    topics: int
    pool_terms: int  # distinct terms in each topic pool
    background_terms: int
    doc_len: tuple  # inclusive (low, high) range, in words
    query_len: tuple
    min_matches: int = 1  # every query shares a term with at least this many documents


@dataclass
class Inputs:
    corpus: list  # [(doc_id, text)]
    queries: list  # [(query_id, text)]
    qrels: dict  # {query_id: {doc_id: 1}} -- the query topic's documents


def _zipf(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def generate(spec: CorpusSpec, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    background = [f"b{j}" for j in range(spec.background_terms)]
    pools = [[f"t{t}x{j}" for j in range(spec.pool_terms)] for t in range(spec.topics)]
    p_background = _zipf(spec.background_terms, 1.1)
    p_pool = _zipf(spec.pool_terms, 1.0)

    def words(topic: int, length: int, share: float) -> list:
        from_pool = rng.random(length) < share
        pool_ids = rng.choice(spec.pool_terms, size=length, p=p_pool)
        bg_ids = rng.choice(spec.background_terms, size=length, p=p_background)
        return [
            pools[topic][p] if own else background[b]
            for own, p, b in zip(from_pool, pool_ids, bg_ids)
        ]

    low, high = spec.doc_len
    doc_lengths = rng.permutation(low + np.arange(spec.docs) * (high - low + 1) // spec.docs)
    corpus, doc_topic, postings = [], [], {}
    for i in range(spec.docs):
        topic = int(rng.integers(spec.topics))
        terms = words(topic, int(doc_lengths[i]), TOPIC_SHARE)
        doc_id = f"d{i:05d}"
        corpus.append((doc_id, " ".join(terms)))
        doc_topic.append(topic)
        for term in set(terms):
            postings.setdefault(term, set()).add(i)

    topic_docs = {t: [] for t in range(spec.topics)}
    for (doc_id, _), topic in zip(corpus, doc_topic):
        topic_docs[topic].append(doc_id)
    p_topic = _zipf(spec.topics, 1.0)
    low, high = spec.query_len
    offset = int(rng.integers(high - low + 1))
    queries, qrels = [], {}
    for i in range(spec.queries):
        length = low + (i + offset) % (high - low + 1)
        for _ in range(1000):
            topic = int(rng.choice(spec.topics, p=p_topic))
            terms = words(topic, length, QUERY_TOPIC_SHARE)
            matches = set().union(*(postings.get(t, set()) for t in terms))
            if len(matches) >= spec.min_matches:
                break
        else:
            raise ValueError(f"cannot draw a query matching {spec.min_matches} documents")
        qid = f"q{i:05d}"
        queries.append((qid, " ".join(terms)))
        qrels[qid] = {doc_id: 1 for doc_id in topic_docs[topic]}
    return Inputs(corpus, queries, qrels)


def write_jsonl(path: Path, records) -> None:
    with open(path, "w") as f:
        for rec_id, text in records:
            f.write(json.dumps({"id": rec_id, "text": text}) + "\n")


def write_qrels(path: Path, qrels: dict) -> None:
    with open(path, "w") as f:
        for qid in sorted(qrels):
            for doc_id in sorted(qrels[qid]):
                f.write(f"{qid} 0 {doc_id} {qrels[qid][doc_id]}\n")
