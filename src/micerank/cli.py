"""Command-line entry point; every command is a thin composition of module
operations.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure.
Machine-readable output goes to ``--out`` paths; a short human summary is
printed to stdout. A command declares those of the common flags ``--seed``,
``--precision`` and ``--threads`` it reads; one that runs on one thread
accepts ``--threads 1``. ``rerank`` defaults ``--threads`` from the
MICE_THREADS environment variable, ``train`` ``--seed`` and ``--precision``
from its ``--config`` file.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, doccache, evalbench, mice, retrieval, training, transformer
from .masking import MaskSpec, MaskStep
from .tensor import PRECISIONS, NumericError, no_grad

__all__ = ["main", "dispatch"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _MiceThreads(str):
    """The text of MICE_THREADS as rerank's --threads default: argparse
    converts it with the flag's type only when the flag is not given."""


def positive_int(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    try:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        if isinstance(text, _MiceThreads):
            raise argparse.ArgumentTypeError(f"MICE_THREADS={str(text)!r}: {exc}") from None
        raise
    return value


# The flag that sets each ModelConfig field; the corpus gives ``vocab_size``.
# ``train`` declares all eight. ``bench`` declares all but the length caps,
# which its --n and --m set.
_MODEL_FLAGS = {"layers": "--layers", "hidden": "--hidden", "heads": "--heads", "ff": "--ff",
                "max_query": "--max-query", "max_doc": "--max-doc",
                "split_depth": "--ell-star", "interaction_layers": "--k-inter"}

# The flag that sets each TrainConfig field. An omitted flag keeps the
# --config file's value, and a refusal of a given value names its flag.
_TRAIN_FLAGS = {"variant": "--variant", "steps": "--steps", "batch_size": "--batch-size",
                "lr_peak": "--lr", "warmup_steps": "--warmup",
                "validate_every": "--validate-every", "seed": "--seed",
                "precision": "--precision", **_MODEL_FLAGS}


def _build_parser() -> _Parser:
    # Each command declares, with its default, each common flag it reads, so
    # argparse refuses the others as usage errors.
    parser = _Parser(prog="micerank", description=__doc__)
    one_thread = argparse.ArgumentParser(add_help=False)
    one_thread.add_argument("--threads", type=int, choices=(1,), help="runs on one thread")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[one_thread], help="generate the synthetic corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--docs", type=positive_int, default=120)
    p.add_argument("--queries", type=positive_int, default=64)
    p.add_argument("--vocab-size", type=positive_int, default=256)

    p = sub.add_parser("train", parents=[one_thread], help="distillation training")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key = value config file (flags override it)")
    p.add_argument("--init-from", help="checkpoint to start from (e.g. CE for mid-fusion)")
    kinds = {"variant": dict(choices=training.VARIANTS), "lr_peak": dict(type=float),
             "precision": dict(choices=tuple(PRECISIONS)),
             "batch_size": dict(type=positive_int), "validate_every": dict(type=positive_int)}
    for name, flag in _TRAIN_FLAGS.items():  # no defaults: see _TRAIN_FLAGS
        p.add_argument(flag, dest=name, **kinds.get(name, dict(type=int)))

    p = sub.add_parser("encode-docs", parents=[one_thread], help="precompute document states")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bm25", parents=[one_thread], help="first-stage retrieval")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=positive_int, default=1000)
    p.add_argument("--k1", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.4)
    p.add_argument("--out", required=True)

    # ``ablate`` is the same command; the TREC tag records the name typed.
    p = sub.add_parser("rerank", aliases=["ablate"],
                       help="neural re-ranking of candidates (ablate: under a masking step)")
    p.add_argument("--precision", choices=tuple(PRECISIONS), default="f32")
    p.add_argument("--threads", type=positive_int, help="default: MICE_THREADS, else 1",
                   default=_MiceThreads(os.environ.get("MICE_THREADS", "1")))
    # Read by nothing: perfbench/workloads.py passes it.
    p.add_argument("--seed", type=int)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=evalbench.MODES, default="ce")
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--candidates", required=True, help="TREC run with first-stage candidates")
    p.add_argument("--cache", help="document-state cache (mice-precomp mode)")
    p.add_argument("--step", help="mask for ce mode: baseline or 0..3 (default: as trained)")
    p.add_argument("--ell-star", type=int, dest="split_depth",
                   help="override the step-3 stream-split depth (ce mode)")
    p.add_argument("--out", required=True)
    p.add_argument("--k-out", type=positive_int)
    p.add_argument("--batch-size", type=positive_int, default=64)
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                   help="fail on candidates that cannot be scored (--no-strict skips "
                   "them); a cache from another checkpoint always fails")

    p = sub.add_parser("eval", parents=[one_thread], help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", default="ndcg@10", help="ndcg@K or rr@K")

    p = sub.add_parser("bench", parents=[one_thread], help="latency/memory benchmark")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=evalbench.MODES, required=True)
    p.add_argument("--batch", type=positive_int, default=8)
    p.add_argument("--n", type=positive_int, default=16, dest="max_query")
    p.add_argument("--m", type=positive_int, default=128, dest="max_doc")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--warmup", type=int, default=3)
    for name, default in (("layers", 8), ("hidden", 64), ("heads", 8), ("ff", 256),
                          ("split_depth", 4), ("interaction_layers", 3)):
        p.add_argument(_MODEL_FLAGS[name], type=int, default=default, dest=name)
    p.add_argument("--vocab-size", type=int, default=1024)
    p.add_argument("--out")

    p = sub.add_parser("sweep", parents=[one_thread], help="interaction-layer-count sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=tuple(PRECISIONS), default="f32")
    p.add_argument("--model", required=True, help="trained cross-encoder checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--ell-star", type=int, dest="split_depth")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int)
    p.add_argument("--finetune-steps", type=int, default=0)
    p.add_argument("--out", required=True)
    return parser


def _load_model(args, dtype):
    """``(weights, step, corpus, vocab)`` for the commands that score the
    corpus with ``--model``; the vocabulary is rebuilt from the corpus and
    must match the checkpoint's size."""
    weights, step = checkpoint.load_weights(args.model, dtype=dtype)
    corpus = retrieval.read_jsonl(args.corpus)
    vocab = retrieval.build_vocab(text for _, text in corpus)
    retrieval.check_vocab_size(vocab, weights.config)
    return weights, step, corpus, vocab


def _load_data(corpus_path, queries_path, qrels_path) -> training.SynthData:
    corpus = retrieval.read_jsonl(corpus_path)
    queries = retrieval.read_jsonl(queries_path)
    qrels = retrieval.read_qrels(qrels_path)
    return training.SynthData(corpus=corpus, queries=queries, qrels=qrels)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    data = training.synth_corpus(
        seed=args.seed, n_docs=args.docs, n_queries=args.queries, vocab_size=args.vocab_size
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    retrieval.write_jsonl(out / "corpus.jsonl", data.corpus)
    retrieval.write_jsonl(out / "queries.jsonl", data.queries)
    retrieval.write_qrels(out / "qrels.tsv", data.qrels)
    print(
        f"wrote {len(data.corpus)} docs, {len(data.queries)} queries, "
        f"qrels for {len(data.qrels)} queries to {out}"
    )
    return 0


def _cmd_train(args) -> int:
    given = {name: getattr(args, name) for name in _TRAIN_FLAGS if getattr(args, name) is not None}
    try:
        with retrieval.open_text(args.config or os.devnull) as f:
            text = f.read()
        cfg = training.parse_config_text(text, args.config, given)
        init = None
        if args.init_from:
            init, _ = checkpoint.load_weights(args.init_from, dtype=cfg.dtype)
            # The checkpoint fixes the architecture; the split flags are read only
            # to cut a cross-encoder into a mid-fusion model. Values from a
            # --config file are defaults, not given flags.
            cut = cfg.variant == "mice" and not isinstance(init, mice.MiceWeights)
            for name, flag in _MODEL_FLAGS.items():
                if name in given and not (cut and name in ("split_depth", "interaction_layers")):
                    raise ValueError(f"train --init-from does not read {flag}: the checkpoint "
                                     "fixes it")
            if cut:
                init = mice.from_cross_encoder(init, cfg.split_depth, cfg.interaction_layers)
        elif cfg.variant != "mice" and "interaction_layers" in given:
            raise ValueError(f"train --variant {cfg.variant} does not read --k-inter: "
                             "a cross-encoder has no interaction layers")
        data = _load_data(args.corpus, args.queries, args.qrels)
        result = training.train(cfg, data, args.out_dir, init_weights=init)
    except ValueError as exc:  # each refusal of a value starts with its field's name
        name = str(exc).partition(" ")[0]
        if name not in given:
            raise
        raise ValueError(f"{_TRAIN_FLAGS[name]}: {exc}") from None
    rr10 = (f"best RR@10 {result.best_rr10:.4f} (last {result.metrics[-1]['rr10']:.4f})"
            if result.metrics else "no validation ran")
    print(f"trained {cfg.variant} for {cfg.steps} steps: {rr10}; "
          f"checkpoint {result.checkpoint_path}")
    return 0


def _cmd_encode_docs(args) -> int:
    weights, _, corpus, vocab = _load_model(args, np.float32)
    if not isinstance(weights, mice.MiceWeights):
        raise ValueError("encode-docs needs a mid-fusion checkpoint (kind mice)")
    states = []
    # One encode_document call per document, not one encode_documents call:
    # the states are the same bytes either way, and per-document calls let a
    # caller time each document as one item (perfbench's minilm-index does).
    with no_grad():
        for doc_id, text in corpus:
            ids = retrieval.ensure_nonempty(vocab.encode(text))
            states.append(mice.encode_document(ids, weights, doc_id=doc_id))
    doccache.write_cache(
        args.out,
        states,
        hidden=weights.config.hidden,
        split_depth=weights.config.split_depth,
        checkpoint_hash=weights.fingerprint(),
    )
    print(f"encoded {len(states)} documents -> {args.out}")
    return 0


def _cmd_bm25(args) -> int:
    corpus = retrieval.read_jsonl(args.corpus)
    stats = retrieval.build_corpus_stats(corpus)
    queries = retrieval.read_jsonl(args.queries)
    rankings = []
    for qid, text in queries:
        ranked = retrieval.bm25_retrieve(text, stats, k=args.k, k1=args.k1, b=args.b)
        rankings.append(evalbench.RankedList(query_id=qid, items=tuple(ranked)))
    retrieval.write_trec_run(args.out, rankings, tag="bm25")
    print(f"retrieved top-{args.k} for {len(rankings)} queries -> {args.out}")
    return 0


def _cmd_rerank(args) -> int:
    if args.mode != "ce" and (args.step or args.split_depth is not None):
        raise ValueError(f"--step and --ell-star apply to ce mode, not {args.mode}")
    if args.mode != "mice-precomp" and args.cache:
        raise ValueError(f"--cache applies to mice-precomp mode, not {args.mode}")
    weights, trained_step, corpus, vocab = _load_model(args, PRECISIONS[args.precision])
    chunking = dict(batch_size=args.batch_size, threads=args.threads)
    if args.mode == "ce":
        if not isinstance(weights, transformer.Weights):
            raise ValueError("ce mode needs a cross-encoder checkpoint")
        step = MaskStep.parse(args.step) if args.step else trained_step
        if args.split_depth is not None and step is not MaskStep.STEP3:
            raise ValueError(f"--ell-star applies to mask step 3, not {step.value}")
        config = weights.config
        if args.split_depth is None:
            training.warn_if_document_unread(step, config)
        elif not MaskSpec(step, args.split_depth).reads_document(config.layers):
            raise ValueError(f"--ell-star {args.split_depth} severs every layer below the top "
                             f"of {config.layers} layers, so the query rows never read the "
                             "document before CLS reads them")
        split = args.split_depth if args.split_depth is not None else config.split_depth
        spec = MaskSpec(step, split_depth=split, total_layers=config.layers)
        scorer = retrieval.CrossEncoderScorer(
            weights, spec, vocab, retrieval.token_map(corpus, vocab), **chunking
        )
    elif not isinstance(weights, mice.MiceWeights):
        raise ValueError(f"{args.mode} mode needs a mid-fusion checkpoint")
    elif args.mode == "mice":
        scorer = retrieval.MiceScorer(weights, vocab, retrieval.token_map(corpus, vocab),
                                      **chunking)
    elif not args.cache:
        raise ValueError("mice-precomp mode needs --cache")
    else:
        # The cache holds every document's states, so the corpus only
        # supplies the vocabulary. A cache of another checkpoint is refused
        # on open whatever --strict says: the scorer would refuse its every
        # state, and --no-strict skips only candidates the cache lacks.
        cache = doccache.read_cache(args.cache, expected_hash=weights.fingerprint())
        scorer = retrieval.MiceCacheScorer(weights, vocab, cache, **chunking)
    candidates_by_query = retrieval.read_trec_run(args.candidates)
    rankings = []
    skipped_total = 0
    for qid, text in retrieval.read_jsonl(args.queries):
        candidates = [d for d, _ in candidates_by_query.get(qid, [])]
        if not candidates:
            continue
        ranking = retrieval.rerank(
            qid, text, candidates, scorer, k_out=args.k_out,
            strict=args.strict,
        )
        skipped_total += len(ranking.skipped)
        rankings.append(ranking)
    retrieval.write_trec_run(args.out, rankings, tag=args.command)
    print(
        f"reranked {len(rankings)} queries -> {args.out}"
        + (f" ({skipped_total} candidates skipped)" if skipped_total else "")
    )
    return 0


def _cmd_eval(args) -> int:
    run = retrieval.read_trec_run(args.run)
    if not run:
        raise ValueError(f"{args.run}: empty run")
    qrels = retrieval.read_qrels(args.qrels)
    value = evalbench.evaluate_run(run, qrels, args.metric)
    print(f"{value:.4f}")
    return 0


def _cmd_bench(args) -> int:
    config = transformer.ModelConfig(
        vocab_size=args.vocab_size, **{name: getattr(args, name) for name in _MODEL_FLAGS}
    )
    report = evalbench.bench_latency(
        config,
        args.mode,
        batch=args.batch,
        n=config.max_query,
        m=config.max_doc,
        trials=args.trials,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(report.summary())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    return 0


def _cmd_sweep(args) -> int:
    weights, _ = checkpoint.load_weights(args.model, dtype=PRECISIONS[args.precision])
    if not isinstance(weights, transformer.Weights):
        raise ValueError("sweep starts from a cross-encoder checkpoint")
    data = _load_data(args.corpus, args.queries, args.qrels)
    split = args.split_depth if args.split_depth is not None else weights.config.split_depth
    k_max = args.k_max if args.k_max is not None else weights.config.layers - split
    rows = training.layer_drop_sweep(
        weights,
        split,
        range(args.k_min, k_max + 1),
        data,
        finetune_steps=args.finetune_steps,
        seed=args.seed,
    )
    if not rows:
        try:
            mice.from_cross_encoder(weights, split, args.k_min)
            refusal = "the range is empty"
        except ValueError as exc:
            refusal = f"--k-min {args.k_min}: {exc}"
        raise ValueError(f"sweep: no interaction-layer count in k_inter {args.k_min}..{k_max} "
                         f"can be cut: {refusal}")
    training.write_sweep_csv(args.out, rows)
    for k, metric in rows:
        print(f"k_inter={k:<3d} rr10={metric:.4f}")
    print(f"sweep table -> {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "encode-docs": _cmd_encode_docs,
    "bm25": _cmd_bm25,
    "rerank": _cmd_rerank,
    "ablate": _cmd_rerank,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
}


# glibc serves every allocation above its mmap threshold (128 KiB at start,
# raised only as large blocks are freed) with a fresh mmap, and gives the top
# of its heap back to the kernel once twice that much is free: either way a
# numpy temporary page-faults on first touch. The largest activations are
# about 2 MB at MiniLM width, batch 16, and 0.6 MB at desk width, so below
# 4 MiB they come from the heap; trimming is off (-1), so freed heap pages
# stay in the process. A 15-query mice-precomp rerank at MiniLM widths (one
# BLAS thread) took 134k minor faults and 0.26-0.36 s of system time with
# glibc's defaults, and 16.8k faults and 0.05 s with these; 12.4k of those
# are the first touch of the 48 MiB of weights. With trimming from 64 MiB
# free, whether a command run again in the same process touched its weights
# afresh depended on what had been allocated after them: 20 s of repeated
# minilm-precomp reranks took 80k to 290k minor faults across seeds and
# unrelated code changes.
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = -1
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_pages() -> None:
    """Set the allocator thresholds above, once per process, where the C
    library has ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def dispatch(argv) -> int:
    """Run one command; returns the process exit code instead of raising."""
    _keep_freed_pages()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help and on a usage error
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
