"""Print the sha256 of every artifact of a fixed, tiny micerank pipeline.

Usage::

    python tools/artifact_hashes.py [--src PATH] [--work DIR]

Every command runs in-process through ``cli.dispatch`` on a synthetic corpus
fixed by its seed: ``bm25``; short ``train`` runs of a step-3 cross-encoder,
of a mid-fusion model initialised from it (``--init-from``) and of a fresh
mid-fusion model; ``encode-docs``; ``rerank`` in ``ce``, ``mice`` and
``mice-precomp`` modes in f32, in f64 and with ``--batch-size 7 --threads
2``; ``ablate --step 2``; and a ``sweep --finetune-steps 5`` from the
cross-encoder, which cuts it into mid-fusion models. The cross-encoder has
3 layers and split 1, so its ``ce`` lines score through its cut
(``retrieval.CutScorer``); ``ablate --step 2`` is the line of the joint
forward. The ``mice`` lines encode each candidate document once, in padded
batches (``retrieval.MiceScorer``), and the ``mice-precomp`` lines read the
states ``encode-docs`` wrote one document at a time, so the two agree
within rounding. A second, wide segment (hidden 256, ff 1024, under ``wide/``)
trains a mid-fusion model for a few steps, encodes the corpus and reranks
in ``mice`` and ``mice-precomp`` modes with the same three flag sets: its
weights are wide enough for ``tensor.matmul`` to store them column-major.
Each line of output is ``sha256 name``.

A refactor that must leave outputs byte-identical runs this once against
each tree (``--src`` names the ``src`` directory to import micerank from;
the default is this checkout's) and diffs the two listings. TREC runs keep
six decimals, so every run file is accompanied by ``NAME.scores`` holding
each score exactly, as a float hex string. The sweep table keeps six
decimals too, so each model the sweep fine-tunes is saved as
``sweep-kK.bin`` with its exact RR@10 in ``sweep-kK.rr10``. BLAS runs on
one thread, so its reductions happen in a fixed order.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# Before numpy is imported: a multi-threaded BLAS may sum in any order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# A run that starts from a checkpoint (--init-from) takes its architecture
# from there, so only fresh models are given ARCH.
ARCH = ["--layers", "3", "--hidden", "16", "--heads", "2", "--ff", "24",
        "--max-query", "6", "--max-doc", "16"]
TRAIN = ["--ell-star", "1", "--steps", "30", "--batch-size", "4", "--warmup", "3",
         "--validate-every", "10"]
# The wide segment: both dimensions of every layer weight reach
# ``tensor._WIDE``.
ARCH_WIDE = ["--layers", "3", "--hidden", "256", "--heads", "4", "--ff", "1024",
             "--max-query", "6", "--max-doc", "16"]
TRAIN_WIDE = ["--ell-star", "1", "--steps", "6", "--batch-size", "4", "--warmup", "2",
              "--validate-every", "3"]
RERANK_RUNS = {"f32": [], "f64": ["--precision", "f64"],
               "b7t2": ["--batch-size", "7", "--threads", "2"]}


def _record_exact_scores(retrieval) -> None:
    """Make every TREC run written also write ``NAME.scores``."""
    write = retrieval.write_trec_run

    def write_with_scores(path, rankings, tag="micerank"):
        rankings = list(rankings)
        write(path, rankings, tag=tag)
        with open(f"{path}.scores", "w") as f:
            for ranking in rankings:
                for doc_id, score in ranking.items:
                    f.write(f"{ranking.query_id} {doc_id} {float(score).hex()}\n")

    retrieval.write_trec_run = write_with_scores


def _record_sweep_models(training, checkpoint, work: Path) -> None:
    """Make ``sweep`` save each model it fine-tunes, with its exact RR@10."""
    finetune = training.finetune_mice

    def finetune_and_save(mw, *args, **kwargs):
        rr10 = finetune(mw, *args, **kwargs)
        name = work / f"sweep-k{mw.config.interaction_layers}"
        checkpoint.save_weights(f"{name}.bin", mw)
        Path(f"{name}.rr10").write_text(float(rr10).hex() + "\n")
        return rr10

    training.finetune_mice = finetune_and_save


def build(work: Path) -> None:
    """Run the pipeline, leaving every artifact under ``work``."""
    from micerank import cli

    def run(*argv) -> None:
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the hashes
            code = cli.dispatch([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"exit {code}: micerank {' '.join(map(str, argv))}")

    data = work / "data"
    corpus, queries, qrels = data / "corpus.jsonl", data / "queries.jsonl", data / "qrels.tsv"
    run("synth", "--out-dir", data, "--docs", 60, "--queries", 24, "--vocab-size", 96,
        "--seed", 3)
    run("bm25", "--corpus", corpus, "--queries", queries, "--k", 20, "--out", work / "bm25.trec")
    ce, mid = work / "ce", work / "mice"
    common = ["--corpus", corpus, "--queries", queries, "--qrels", qrels, *TRAIN]
    run("train", *common, *ARCH, "--out-dir", ce, "--variant", "step3")
    run("train", *common, "--out-dir", mid, "--variant", "mice", "--k-inter", 2,
        "--init-from", ce / "model.bin")
    run("train", *common, *ARCH, "--out-dir", work / "mice-fresh", "--variant", "mice",
        "--k-inter", 2)
    cache = work / "cache.bin"
    run("encode-docs", "--model", mid / "model.bin", "--corpus", corpus, "--out", cache)
    inputs = ["--queries", queries, "--corpus", corpus, "--candidates", work / "bm25.trec"]
    for mode, model, extra in (("ce", ce, []), ("mice", mid, []),
                               ("mice-precomp", mid, ["--cache", cache])):
        for name, flags in RERANK_RUNS.items():
            run("rerank", "--model", model / "model.bin", "--mode", mode, *inputs, *extra,
                *flags, "--out", work / f"rerank-{mode}-{name}.trec")
    run("ablate", "--model", ce / "model.bin", "--step", 2, *inputs,
        "--out", work / "ablate-step2.trec")
    run("sweep", "--model", ce / "model.bin", "--corpus", corpus, "--queries", queries,
        "--qrels", qrels, "--finetune-steps", 5, "--out", work / "sweep.csv")

    wide = work / "wide"
    run("train", "--corpus", corpus, "--queries", queries, "--qrels", qrels, *TRAIN_WIDE,
        *ARCH_WIDE, "--out-dir", wide, "--variant", "mice", "--k-inter", 2)
    run("encode-docs", "--model", wide / "model.bin", "--corpus", corpus,
        "--out", wide / "cache.bin")
    for mode, extra in (("mice", []), ("mice-precomp", ["--cache", wide / "cache.bin"])):
        for name, flags in RERANK_RUNS.items():
            run("rerank", "--model", wide / "model.bin", "--mode", mode, *inputs, *extra,
                *flags, "--out", wide / f"rerank-{mode}-{name}.trec")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory micerank is imported from")
    parser.add_argument("--work", help="where the artifacts are kept (default: a temporary "
                        "directory, removed afterwards)")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if not (src / "micerank" / "__init__.py").is_file():
        parser.error(f"--src {src} holds no micerank/__init__.py")
    sys.path.insert(0, str(src))
    import micerank
    from micerank import checkpoint, retrieval, training

    if not Path(micerank.__file__).resolve().is_relative_to(src):
        parser.error(f"micerank was imported from {micerank.__file__}, not from --src {src}")

    _record_exact_scores(retrieval)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        _record_sweep_models(training, checkpoint, work)
        build(work)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(digest, path.relative_to(work).as_posix())


if __name__ == "__main__":
    main()
