"""Distillation training on a synthetic corpus with an oracle teacher.

The trainer distills margins: for a (query, positive, negative) triple the
loss is the squared difference between the student's score margin and the
teacher's. The synthetic task clusters documents into topics over disjoint
term pools; queries draw terms from one topic, every same-topic document is
relevant, and the teacher scores weighted term overlap plus a relevance
bonus — so teacher margins are fully predictable from the tokens and a
capable student can fit them.

A :class:`SynthData` derives its task once, on construction; validation,
triple sampling and the training loop read that one object. A triple's
positive is a document its query judges relevant (rel > 0) and its negative
any other document of the corpus. Scheduling is linear warmup to
``lr_peak`` followed by linear decay to zero (the decay shape is a recorded
choice; linear decay is the conventional companion to linear warmup).
Validation computes RR@10 on held-out queries against the whole corpus,
ranking through the rerank scorers, and the best checkpoint is kept. A
cross-encoder is scored by ``retrieval.CrossEncoderScorer`` under the
training mask. A mid-fusion model's document states do not depend on the
query, so ``retrieval.MiceScorer`` encodes the corpus once per validation
and scores every query against those states, equal to ``rerank --mode
mice-precomp``'s within rounding. Training is deterministic under a fixed
seed: data order, initialization and update order are all driven by seeded
generators, and batch gradients are reduced in a fixed order.

The layer-drop sweep cuts one cross-encoder into mid-fusion models, one per
interaction-layer count, and scores each after a brief ``finetune_mice``.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import save_weights
from .evalbench import evaluate_run, ranked
from .masking import MaskStep
from .mice import MiceWeights, from_cross_encoder, init_mice_weights, mice_train_scores
from .retrieval import (CrossEncoderScorer, MiceScorer, build_vocab, check_vocab_size,
                        split_terms, token_map)
from .tensor import PRECISIONS, NumericError, Tensor, select
from .transformer import ModelConfig, Weights, init_ce_weights, score_pairs, spec_for

__all__ = [
    "TrainConfig",
    "SynthData",
    "TrainResult",
    "Adam",
    "adam_step",
    "margin_mse",
    "lr_schedule",
    "synth_corpus",
    "teacher_margin_score",
    "train",
    "train_in_memory",
    "warn_if_document_unread",
    "finetune_mice",
    "layer_drop_sweep",
    "write_sweep_csv",
    "read_config_text",
]

log = logging.getLogger(__name__)

VARIANTS = (*(step.value for step in MaskStep), "mice")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Desk-scale defaults. The full-scale recipe is 125k steps at lr 7e-6
    with 5k warmup steps, batch 32, validating every 10k steps."""

    steps: int = 2000
    batch_size: int = 32
    lr_peak: float = 1e-3
    warmup_steps: int = 100
    validate_every: int = 500
    seed: int = 0
    variant: str = "baseline"
    layers: int = 3
    hidden: int = 32
    heads: int = 4
    ff: int = 64
    max_query: int = 8
    max_doc: int = 24
    split_depth: int = 1
    interaction_layers: int = 2
    precision: str = "f32"

    def __post_init__(self):
        # Each refusal starts with its field's name: ``train`` reads it to name
        # the file or the flag that gave the value, as ModelConfig's refusals do.
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be f32 or f64, got {self.precision!r}")
        for name in ("steps", "warmup_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        for name in ("batch_size", "validate_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.steps > 0 and not self.warmup_steps < self.steps:
            raise ValueError("warmup_steps must be smaller than steps")
        if not (self.lr_peak > 0 and np.isfinite(self.lr_peak)):
            raise ValueError(f"lr_peak must be positive and finite, got {self.lr_peak}")

    @property
    def dtype(self):
        return PRECISIONS[self.precision]

    def mask_step(self) -> MaskStep | None:
        return None if self.variant == "mice" else MaskStep.parse(self.variant)

    def model_config(self, vocab_size: int) -> ModelConfig:
        """The config of a fresh model, from this config's architecture
        fields; a model passed in to train keeps its own. A mid-fusion
        model is the :meth:`.ModelConfig.cut` of the cross-encoder's."""
        arch = {f.name: getattr(self, f.name) for f in fields(ModelConfig)
                if f.name not in ("vocab_size", "interaction_layers")}
        config = ModelConfig(vocab_size=vocab_size, **arch)
        if self.variant == "mice":
            return config.cut(self.split_depth, self.interaction_layers)
        return config


def read_config_text(text: str, source: str = "<config>") -> dict:
    """The ``{TrainConfig field: value}`` a flat ``key = value`` config file
    gives (# starts a comment; each key appears once). A line error names
    ``source:line`` and the key; ``train`` merges the values and checks them."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    casts = {"int": int, "float": float, "str": str}
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"{source}:{lineno}"
        if not sep or not key or not value:
            raise ValueError(f"{where}: expected 'key = value', got {raw!r}")
        if key not in types:
            raise ValueError(f"{where}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{where}: repeated key {key!r} (first on line {first_line[key]})")
        try:
            values[key] = casts[types[key]](value)
        except ValueError:
            raise ValueError(f"{where}: {key} expects {types[key]}, got {value!r}") from None
        first_line[key] = lineno
    return values


# --------------------------------------------------------------------------
# loss, schedule, optimizer
# --------------------------------------------------------------------------


def margin_mse(s_pos, s_neg, t_pos, t_neg) -> Tensor:
    """Mean squared difference between student and teacher score margins."""
    if not isinstance(s_pos, Tensor):
        s_pos = Tensor(np.atleast_1d(np.asarray(s_pos, dtype=np.float64)))
    if not isinstance(s_neg, Tensor):
        s_neg = Tensor(np.atleast_1d(np.asarray(s_neg, dtype=np.float64)))
    target = np.atleast_1d(np.asarray(t_pos, dtype=s_pos.dtype)) - np.atleast_1d(
        np.asarray(t_neg, dtype=s_pos.dtype)
    )
    diff = s_pos - s_neg - Tensor(target.astype(s_pos.dtype))
    return (diff * diff).mean()


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to ``lr_peak`` then linear decay to zero at ``steps``."""
    if step < 1:
        raise ValueError("steps are 1-based")
    if step <= cfg.warmup_steps:
        return cfg.lr_peak * step / cfg.warmup_steps
    return cfg.lr_peak * (cfg.steps - step) / (cfg.steps - cfg.warmup_steps)


def adam_step(data, grad, m, v, t, lr) -> None:
    """One in-place Adam update with bias correction."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    mhat = m / (1.0 - ADAM_BETA1**t)
    vhat = v / (1.0 - ADAM_BETA2**t)
    data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


class Adam:
    """Adam over named parameters; moments start at zero."""

    def __init__(self, params: Sequence[tuple[str, Tensor]]):
        self.params = list(params)
        self.t = 0
        self.moments = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in self.params
        }

    def step(self, lr: float) -> None:
        self.t += 1
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in parameter {name!r}")
            m, v = self.moments[name]
            adam_step(p.data, g, m, v, self.t, lr)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


# --------------------------------------------------------------------------
# synthetic task
# --------------------------------------------------------------------------


@dataclass
class SynthData:
    """Corpus, queries and graded relevance, the task construction derives
    from them, and the oracle teacher. ``vocab`` is the corpus's; every
    forward cuts ``doc_tokens`` and ``query_tokens`` to its model's length
    caps. Of :func:`split_queries`' training queries, ``train_q`` keeps those
    with a relevant document (rel > 0) and another one, whose sorted ids
    ``positives`` gives; ``val_q`` validates. The teacher's term sets are
    built on first use. A ``replace`` copy derives its own."""

    corpus: list
    queries: list
    qrels: dict

    def __post_init__(self):
        self._doc_terms = self._query_text = None
        self.vocab = build_vocab(text for _, text in self.corpus)
        self.doc_tokens = token_map(self.corpus, self.vocab)
        self.query_tokens = token_map(self.queries, self.vocab)
        train_q, self.val_q = split_queries(self)
        self.positives = {q: sorted(d for d, rel in self.qrels.get(q, {}).items()
                                    if rel > 0 and d in self.doc_tokens) for q in train_q}
        self.train_q = [q for q in train_q if 0 < len(self.positives[q]) < len(self.doc_tokens)]

    def doc_terms(self, doc_id: str) -> frozenset:
        if self._doc_terms is None:
            self._doc_terms = {d: frozenset(split_terms(t)) for d, t in self.corpus}
        return self._doc_terms[doc_id]

    def query_text(self, qid: str) -> str:
        if self._query_text is None:
            self._query_text = dict(self.queries)
        return self._query_text[qid]

    def teacher(self, qid: str, doc_id: str) -> float:
        relevant = self.qrels.get(qid, {}).get(doc_id, 0) > 0
        return teacher_margin_score(
            split_terms(self.query_text(qid)), self.doc_terms(doc_id), relevant
        )

    def doc_ids(self) -> list:
        return [d for d, _ in self.corpus]

    def query_ids(self) -> list:
        return [q for q, _ in self.queries]


TEACHER_OVERLAP_WEIGHT = 2.0
TEACHER_RELEVANCE_BONUS = 3.0


def teacher_margin_score(query_terms: Sequence[str], doc_terms, relevant: bool) -> float:
    """Oracle relevance: weighted term overlap plus a cluster-membership bonus."""
    if query_terms:
        overlap = sum(t in doc_terms for t in query_terms) / len(query_terms)
    else:
        overlap = 0.0
    return TEACHER_OVERLAP_WEIGHT * overlap + TEACHER_RELEVANCE_BONUS * bool(relevant)


def synth_corpus(
    seed: int = 0,
    n_docs: int = 120,
    n_queries: int = 64,
    vocab_size: int = 256,
) -> SynthData:
    """Generate a clustered random corpus.

    Documents are random term bags drawn mostly from their topic's term
    pool; each query samples terms that actually occur in its topic's
    documents, and every same-topic document is relevant, so each query has
    at least one relevant document by construction.
    """
    if min(n_docs, n_queries, vocab_size) < 1:
        raise ValueError("sizes must be >= 1")
    rng = np.random.default_rng(seed)
    terms = [f"w{i:03d}" for i in range(vocab_size)]
    n_topics = max(2, min(n_docs, n_docs // 6 + 1))
    pool_size = max(4, (vocab_size // 2) // n_topics)
    # Topic t draws from the terms after t * pool_size, so the last topic a
    # document or query is given must still find one there.
    last_topic = min(n_topics, max(n_docs, n_queries)) - 1
    if last_topic * pool_size >= vocab_size:
        raise ValueError(
            f"vocab_size {vocab_size} is too small for {n_topics} topics of "
            f"{pool_size} terms: need at least {last_topic * pool_size + 1}"
        )
    shuffled = list(terms)
    rng.shuffle(shuffled)
    pools = [
        shuffled[i * pool_size : (i + 1) * pool_size] for i in range(n_topics)
    ]
    background = shuffled[n_topics * pool_size :] or shuffled[:pool_size]

    corpus = []
    doc_topic = {}
    doc_words: dict = {}
    for i in range(n_docs):
        topic = i % n_topics
        length = int(rng.integers(8, 17))
        words = []
        for _ in range(length):
            source = pools[topic] if rng.random() < 0.7 else background
            words.append(source[int(rng.integers(len(source)))])
        doc_id = f"d{i:04d}"
        corpus.append((doc_id, " ".join(words)))
        doc_topic[doc_id] = topic
        doc_words[doc_id] = words

    pool_sets = [set(p) for p in pools]
    topic_docs = {t: [d for d, tt in doc_topic.items() if tt == t] for t in range(n_topics)}
    topic_terms = {
        t: sorted({w for d in topic_docs[t] for w in doc_words[d] if w in pool_sets[t]})
        for t in range(n_topics)
    }

    queries = []
    qrels: dict = {}
    for i in range(n_queries):
        topic = i % n_topics
        candidates = topic_terms[topic] or pools[topic]
        length = int(rng.integers(2, 5))
        words = [candidates[int(rng.integers(len(candidates)))] for _ in range(length)]
        qid = f"q{i:04d}"
        queries.append((qid, " ".join(words)))
        qrels[qid] = {d: 1 for d in topic_docs[topic]}
    return SynthData(corpus=corpus, queries=queries, qrels=qrels)


def split_queries(data: SynthData) -> tuple[list, list]:
    """Deterministic held-out split: every fourth query validates."""
    qids = sorted(data.query_ids())
    val = qids[3::4]
    train = [q for q in qids if q not in set(val)]
    if not val:
        val = qids[-1:]
        train = qids[:-1] or qids
    return train, val


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


def evaluate_rr10(weights, data: SynthData, spec=None) -> float:
    """Mean RR@10 over ``data``'s held-out queries, ranking its whole corpus
    with the rerank scorers.

    A cross-encoder is evaluated under the mask it trains with (``spec``).
    A mid-fusion model takes no ``spec``: a ``MiceScorer`` encodes the
    corpus once, as frozen states under the current weights' digest, and
    scores every query against them. Training updates the weights in place,
    so the digest is recomputed first.
    """
    if isinstance(weights, MiceWeights):
        weights.invalidate_fingerprint()
        scorer = MiceScorer(weights, data.vocab, data.doc_tokens)
    else:
        scorer = CrossEncoderScorer(weights, spec, data.vocab, data.doc_tokens)
    doc_ids = sorted(data.doc_ids())
    run = {q: ranked(scorer.score_ids(data.query_tokens[q], doc_ids).items(), 10)
           for q in data.val_q}
    return evaluate_run(run, data.qrels, "rr@10")


def _sample_triples(rng, cfg, data: SynthData):
    """One batch of (query, relevant document, other document) triples."""
    if not data.train_q:
        raise ValueError("no training query has a relevant document and a non-relevant one")
    doc_ids = data.doc_ids()
    triples = []
    for _ in range(cfg.batch_size):
        qid = data.train_q[int(rng.integers(len(data.train_q)))]
        positives = data.positives[qid]
        pos = positives[int(rng.integers(len(positives)))]
        while True:
            neg = doc_ids[int(rng.integers(len(doc_ids)))]
            if data.qrels[qid].get(neg, 0) <= 0:
                break
        triples.append((qid, pos, neg))
    return triples


@dataclass
class TrainResult:
    checkpoint_path: Path | None
    metrics_path: Path | None
    metrics: list
    best_rr10: float


def train_in_memory(cfg: TrainConfig, data: SynthData, weights=None):
    """Run the training loop on ``data``'s task without touching disk.

    Returns ``(best_weights, metrics)`` where metrics is a list of
    ``{"step", "loss", "lr", "rr10"}`` dicts, one per validation; the
    parameters are copied whenever RR@10 improves. The mask of a masked
    variant is applied at every training forward; mid-fusion models
    re-encode documents online so every retained parameter receives
    gradients. A given model must fit ``data``'s vocabulary.
    """
    if weights is None:
        init = init_mice_weights if cfg.variant == "mice" else init_ce_weights
        weights = init(cfg.model_config(data.vocab.size), seed=cfg.seed, dtype=cfg.dtype)
    check_vocab_size(data.vocab, weights.config)
    is_mice = isinstance(weights, MiceWeights)
    if is_mice != (cfg.variant == "mice"):
        raise ValueError(f"variant {cfg.variant!r} does not match the given weights")
    spec = None if is_mice else spec_for(cfg.mask_step(), weights.config)

    params = list(weights.named_parameters())
    adam = Adam(params)
    rng = np.random.default_rng(cfg.seed + 1)
    metrics: list = []
    best_rr, best_params = -1.0, None
    for step in range(1, cfg.steps + 1):
        triples = _sample_triples(rng, cfg, data)
        pairs = [(data.query_tokens[q], data.doc_tokens[p]) for q, p, _ in triples]
        pairs += [(data.query_tokens[q], data.doc_tokens[n]) for q, _, n in triples]
        if is_mice:
            scores = mice_train_scores(pairs, weights)
        else:
            scores = score_pairs(pairs, spec, weights)
        both = scores.reshape((2, cfg.batch_size))
        s_pos = select(both, 0, axis=0)
        s_neg = select(both, 1, axis=0)
        t_pos = np.array([data.teacher(q, p) for q, p, _ in triples])
        t_neg = np.array([data.teacher(q, n) for q, _, n in triples])
        loss = margin_mse(s_pos, s_neg, t_pos, t_neg)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise NumericError(f"training diverged at step {step}: loss is not finite")
        loss.backward()
        lr = lr_schedule(step, cfg)
        adam.step(lr)
        adam.zero_grad()
        if step % cfg.validate_every == 0 or step == cfg.steps:
            rr = evaluate_rr10(weights, data, spec=spec)
            metrics.append({"step": step, "loss": loss_value, "lr": lr, "rr10": rr})
            log.info("step %d loss %.5f lr %.2e rr10 %.4f", step, loss_value, lr, rr)
            if rr > best_rr:
                best_rr, best_params = rr, {name: p.data.copy() for name, p in params}

    if best_params is not None:
        for name, p in params:
            p.data[...] = best_params[name]
    weights.invalidate_fingerprint()
    return weights, metrics


def warn_if_document_unread(step: MaskStep | None, config: ModelConfig) -> None:
    """Warn of a model whose score never reads the document
    (:meth:`.MaskSpec.reads_document`): a cross-encoder under ``step``, or a
    mid-fusion model (``step`` None), which is the step-3 spec at its depth."""
    if spec_for(step or MaskStep.STEP3, config).reads_document(config.layers):
        return
    if step is None:
        log.warning("k_inter=%d: with one interaction layer the CLS row never reads the "
                    "document, so every score ignores it", config.interaction_layers)
    else:
        log.warning("%s at split_depth %d of a %d-layer cross-encoder: the CLS row never "
                    "reads the document, so every score ignores it", step.value,
                    config.split_depth, config.layers)


def train(cfg: TrainConfig, data: SynthData, out_dir, init_weights=None) -> TrainResult:
    """Train and persist: best checkpoint to ``model.bin``, one JSON line per
    validation to ``metrics.jsonl``. ``out_dir`` is created only once
    training has succeeded, so a refused config leaves no directory."""
    model = cfg.model_config(data.vocab.size) if init_weights is None else init_weights.config
    warn_if_document_unread(cfg.mask_step(), model)
    weights, metrics = train_in_memory(cfg, data, weights=init_weights)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "model.bin"
    step = cfg.mask_step() or MaskStep.BASELINE
    save_weights(ckpt, weights, step=step)
    metrics_path = out / "metrics.jsonl"
    with open(metrics_path, "w") as f:
        for record in metrics:
            f.write(json.dumps(record) + "\n")
    best = max((m["rr10"] for m in metrics), default=0.0)
    return TrainResult(ckpt, metrics_path, metrics, best)


def finetune_mice(mw: MiceWeights, data: SynthData, steps: int = 0, seed: int = 0) -> float:
    """Briefly fine-tune a mid-fusion model and return held-out RR@10.

    The model's own config decides its vocabulary size, architecture and
    length caps; ``steps`` and ``seed`` set only the training run."""
    if steps == 0:
        check_vocab_size(data.vocab, mw.config)
        return evaluate_rr10(mw, data)
    cfg = TrainConfig(
        steps=steps,
        batch_size=16,
        lr_peak=3e-4,
        warmup_steps=min(20, max(0, steps - 1)),
        validate_every=max(1, steps),
        seed=seed,
        variant="mice",
    )
    weights, metrics = train_in_memory(cfg, data, weights=mw)
    return metrics[-1]["rr10"]


# --------------------------------------------------------------------------
# layer-dropping sweep
# --------------------------------------------------------------------------


def layer_drop_sweep(
    ce_weights: Weights,
    split_depth: int,
    k_values: Sequence[int],
    data,
    finetune_steps: int = 0,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Evaluate mid-fusion models built from ``ce_weights`` for each kept
    interaction-layer count ``k``; returns (k, held-out RR@10) rows in
    descending ``k``. A ``k`` the cut refuses is skipped with a warning.
    """
    rows: list[tuple[int, float]] = []
    for k in sorted(set(int(k) for k in k_values), reverse=True):
        try:
            mw = from_cross_encoder(ce_weights, split_depth, k)
        except ValueError as exc:
            log.warning("skipping k_inter=%d: %s", k, exc)
            continue
        warn_if_document_unread(None, mw.config)
        metric = finetune_mice(mw, data, steps=finetune_steps, seed=seed)
        rows.append((k, metric))
    return rows


def write_sweep_csv(path, rows: Sequence[tuple[int, float]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k_inter", "rr10"])
        for k, metric in rows:
            writer.writerow([k, f"{metric:.6f}"])
