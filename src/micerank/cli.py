"""Command-line entry point; every command is a thin composition of module
operations.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure.
Machine-readable output goes to ``--out`` paths; a short human summary is
printed to stdout. Commands take the common flags ``--seed``,
``--precision`` and ``--threads`` (at least 1; default from the MICE_THREADS
environment variable); a command refuses those it does not read, bar
``--threads 1``. ``train`` defaults ``--seed`` and ``--precision`` from its
``--config`` file.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, doccache, evalbench, mice, retrieval, training, transformer
from .masking import MaskSpec, MaskStep
from .tensor import NumericError, no_grad

__all__ = ["main", "dispatch"]


class _UsageExit(Exception):
    def __init__(self, code: int):
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, without killing the host."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit(1)

    def exit(self, status=0, message=None):
        if message:
            print(message, file=sys.stderr, end="")
        raise _UsageExit(status)


def positive_int(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="micerank", description=__doc__)
    # None defaults tell a given flag from a defaulted one; dispatch fills in
    # the defaults of the flags a command reads and refuses the others.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--precision", choices=("f32", "f64"))
    common.add_argument("--threads", type=positive_int)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate the synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--docs", type=int, default=120)
    p.add_argument("--queries", type=int, default=64)
    p.add_argument("--vocab-size", type=int, default=256)

    p = sub.add_parser("train", parents=[common], help="distillation training")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key = value config file (flags override it)")
    p.add_argument("--init-from", help="checkpoint to start from (e.g. CE for mid-fusion)")
    p.add_argument("--variant", choices=training.VARIANTS)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=positive_int)
    p.add_argument("--lr", type=float, dest="lr_peak")
    p.add_argument("--warmup", type=int, dest="warmup_steps")
    p.add_argument("--validate-every", type=positive_int)
    p.add_argument("--layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--ff", type=int)
    p.add_argument("--max-query", type=int)
    p.add_argument("--max-doc", type=int)
    p.add_argument("--ell-star", type=int, dest="split_depth")
    p.add_argument("--k-inter", type=int, dest="interaction_layers")

    p = sub.add_parser("encode-docs", parents=[common], help="precompute document states")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bm25", parents=[common], help="first-stage retrieval")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=positive_int, default=1000)
    p.add_argument("--k1", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.4)
    p.add_argument("--out", required=True)

    # ``ablate`` is the same command; the TREC tag records the name typed.
    p = sub.add_parser("rerank", aliases=["ablate"], parents=[common],
                       help="neural re-ranking of candidates (ablate: under a masking step)")
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

    p = sub.add_parser("eval", parents=[common], help="score a run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", default="ndcg@10", help="ndcg@K or rr@K")

    p = sub.add_parser("bench", parents=[common], help="latency/memory benchmark")
    p.add_argument("--mode", choices=evalbench.MODES, required=True)
    p.add_argument("--batch", type=positive_int, default=8)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--layers", type=int, default=8)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--ff", type=int, default=256)
    p.add_argument("--vocab-size", type=int, default=1024)
    p.add_argument("--ell-star", type=int, default=4, dest="split_depth")
    p.add_argument("--k-inter", type=int, default=3, dest="interaction_layers")
    p.add_argument("--out")

    p = sub.add_parser("sweep", parents=[common], help="interaction-layer-count sweep")
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


def _dtype(args):
    return np.float64 if args.precision == "f64" else np.float32


def _load_model(args, dtype):
    """``(weights, step, corpus, vocab)`` for the commands that score the
    corpus with ``--model``; the vocabulary is rebuilt from the corpus and
    must match the checkpoint's size."""
    weights, step = checkpoint.load_weights(args.model, dtype=dtype)
    corpus = retrieval.read_jsonl(args.corpus)
    vocab = retrieval.build_vocab(text for _, text in corpus)
    if vocab.size != weights.config.vocab_size:
        raise ValueError(
            f"corpus vocabulary ({vocab.size}) does not match checkpoint "
            f"({weights.config.vocab_size})"
        )
    return weights, step, corpus, vocab


def _doc_tokens(corpus, vocab) -> dict:
    return {d: retrieval.ensure_nonempty(vocab.encode(t)) for d, t in corpus}


def _load_data(corpus_path, queries_path, qrels_path=None) -> training.SynthData:
    corpus = retrieval.read_jsonl(corpus_path)
    queries = retrieval.read_jsonl(queries_path)
    qrels = retrieval.read_qrels(qrels_path) if qrels_path else {}
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
    if args.config:
        cfg = training.parse_config_text(Path(args.config).read_text())
    else:
        cfg = training.TrainConfig()
    cfg = dataclasses.replace(cfg, **{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(training.TrainConfig)
        if getattr(args, f.name, None) is not None
    })
    data = _load_data(args.corpus, args.queries, args.qrels)
    init = None
    if args.init_from:
        loaded, _ = checkpoint.load_weights(args.init_from, dtype=cfg.dtype)
        if cfg.variant == "mice" and not isinstance(loaded, mice.MiceWeights):
            loaded = mice.from_cross_encoder(loaded, cfg.split_depth, cfg.interaction_layers)
        init = loaded
    result = training.train(cfg, data, args.out_dir, init_weights=init)
    last = result.metrics[-1]["rr10"] if result.metrics else float("nan")
    print(
        f"trained {cfg.variant} for {cfg.steps} steps: best RR@10 {result.best_rr10:.4f} "
        f"(last {last:.4f}); checkpoint {result.checkpoint_path}"
    )
    return 0


def _cmd_encode_docs(args) -> int:
    if args.precision != "f32":
        raise ValueError(f"encode-docs writes float32 states; --precision {args.precision} "
                         "is not supported")
    weights, _, corpus, vocab = _load_model(args, np.float32)
    if not isinstance(weights, mice.MiceWeights):
        raise ValueError("encode-docs needs a mid-fusion checkpoint (kind mice)")
    states = []
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
    weights, trained_step, corpus, vocab = _load_model(args, _dtype(args))
    chunking = dict(batch_size=args.batch_size, threads=args.threads)
    if args.mode == "ce":
        if not isinstance(weights, transformer.Weights):
            raise ValueError("ce mode needs a cross-encoder checkpoint")
        step = MaskStep.parse(args.step) if args.step else trained_step
        if args.split_depth is not None and step is not MaskStep.STEP3:
            raise ValueError(f"--ell-star applies to mask step 3, not {step.value}")
        config = weights.config
        split = args.split_depth if args.split_depth is not None else config.split_depth
        spec = MaskSpec(step, split_depth=split, total_layers=config.layers)
        scorer = retrieval.CrossEncoderScorer(
            weights, spec, vocab, _doc_tokens(corpus, vocab), **chunking
        )
    elif not isinstance(weights, mice.MiceWeights):
        raise ValueError(f"{args.mode} mode needs a mid-fusion checkpoint")
    elif args.mode == "mice":
        scorer = retrieval.MiceScorer(weights, vocab, _doc_tokens(corpus, vocab), **chunking)
    elif not args.cache:
        raise ValueError("mice-precomp mode needs --cache")
    else:
        # The cache holds every document's states, so the corpus only
        # supplies the vocabulary. It is opened strictly whatever --strict
        # says: the scorer refuses every state of another checkpoint.
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
            on_missing="raise" if args.strict else "skip",
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
    qrels = retrieval.read_qrels(args.qrels)
    value = evalbench.evaluate_run(run, qrels, args.metric)
    print(f"{value:.4f}")
    return 0


def _cmd_bench(args) -> int:
    config = transformer.ModelConfig(
        layers=args.layers,
        hidden=args.hidden,
        heads=args.heads,
        ff=args.ff,
        vocab_size=args.vocab_size,
        max_query=max(args.n, 1),
        max_doc=max(args.m, 1),
        split_depth=args.split_depth,
        interaction_layers=args.interaction_layers,
    )
    report = evalbench.bench_latency(
        config,
        args.mode,
        batch=args.batch,
        n=args.n,
        m=args.m,
        trials=args.trials,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(report.summary())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    return 0


def _cmd_sweep(args) -> int:
    weights, _ = checkpoint.load_weights(args.model, dtype=_dtype(args))
    if not isinstance(weights, transformer.Weights):
        raise ValueError("sweep starts from a cross-encoder checkpoint")
    data = _load_data(args.corpus, args.queries, args.qrels)
    split = args.split_depth if args.split_depth is not None else weights.config.split_depth
    k_max = args.k_max if args.k_max is not None else weights.config.layers - split
    rows = evalbench.layer_drop_sweep(
        weights,
        split,
        range(args.k_min, k_max + 1),
        data,
        finetune_steps=args.finetune_steps,
        seed=args.seed,
    )
    evalbench.write_sweep_csv(args.out, rows)
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


# The common flags a command does not read. Giving one is a data error, as
# a mode flag is to a rerank mode that does not read it. These commands run
# on one thread, so ``--threads 1`` describes them and is accepted. ``rerank``
# reads no seed but accepts ``--seed``: perfbench/workloads.py passes it.
_UNREAD_COMMON = {
    "synth": ("precision", "threads"),
    "train": ("threads",),
    "encode-docs": ("seed", "threads"),
    "bm25": ("seed", "precision", "threads"),
    "eval": ("seed", "precision", "threads"),
    "bench": ("precision", "threads"),
    "sweep": ("threads",),
}


def _refuse_unread(args) -> None:
    for name in _UNREAD_COMMON.get(args.command, ()):
        value = getattr(args, name)
        if value is not None and not (name == "threads" and value == 1):
            raise ValueError(f"{args.command} does not read --{name}")


def _default_common(parser: _Parser, args) -> None:
    """Fill in the defaults of the common flags ``args.command`` reads and
    does not default itself; a bad MICE_THREADS is a usage error, as a bad
    ``--threads`` is."""
    skip = _UNREAD_COMMON.get(args.command, ())
    if args.command == "train":  # so an omitted flag keeps the --config file's value
        skip += ("seed", "precision")
    for name, value in (("seed", 0), ("precision", "f32")):
        if getattr(args, name) is None and name not in skip:
            setattr(args, name, value)
    if args.threads is None and "threads" not in skip:
        env = os.environ.get("MICE_THREADS", "1")
        try:
            args.threads = positive_int(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"argument --threads: MICE_THREADS={env!r}: {exc}")


# glibc serves every allocation above its mmap threshold (128 KiB at start,
# raised only as large blocks are freed) with a fresh mmap, and gives the top
# of its heap back to the kernel once twice that much is free: either way a
# numpy temporary page-faults on first touch. The largest activations are
# about 2 MB at MiniLM width, batch 16, and 0.6 MB at desk width, so below
# 4 MiB they come from the heap; freed pages stay in the process until 64 MiB
# sit unused at its top. A 15-query mice-precomp rerank at MiniLM widths
# (one BLAS thread) took 134k minor faults and 0.26-0.36 s of system time with
# glibc's defaults, and 16.8k faults and 0.05 s with these; 12.4k of those
# are the first touch of the 48 MiB of weights.
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 64 << 20
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _default_common(parser, args)
    except _UsageExit as exc:
        return exc.code
    try:
        _refuse_unread(args)
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (
        ValueError,
        KeyError,
        IndexError,
        OSError,
        json.JSONDecodeError,
        doccache.CacheMismatchError,
        mice.ConsistencyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
