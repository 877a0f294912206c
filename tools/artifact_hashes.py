"""Print the sha256 of every artifact of a fixed, tiny micerank pipeline.

Usage::

    python tools/artifact_hashes.py [--src PATH] [--work DIR]

Every command runs in-process through ``cli.dispatch`` on a synthetic corpus
fixed by its seed: ``bm25``; short ``train`` runs of a step-3 cross-encoder
and of a mid-fusion model initialised from it (``--init-from``);
``encode-docs``; ``rerank`` in ``ce``, ``mice`` and ``mice-precomp`` modes in
f32, in f64 and with ``--batch-size 7 --threads 2``; and ``ablate --step 2``.
Each line of output is ``sha256 name``.

A refactor that must leave outputs byte-identical runs this once against
each tree (``--src`` names the ``src`` directory to import micerank from;
the default is this checkout's) and diffs the two listings. TREC runs keep
six decimals, so every run file is accompanied by ``NAME.scores`` holding
each score exactly, as a float hex string. BLAS runs on one thread, so its
reductions happen in a fixed order.
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

MODEL = [
    "--layers", "3", "--hidden", "16", "--heads", "2", "--ff", "24",
    "--max-query", "6", "--max-doc", "16", "--ell-star", "1",
    "--steps", "30", "--batch-size", "4", "--warmup", "3", "--validate-every", "10",
]
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
    common = ["--corpus", corpus, "--queries", queries, "--qrels", qrels, *MODEL]
    run("train", *common, "--out-dir", ce, "--variant", "step3")
    run("train", *common, "--out-dir", mid, "--variant", "mice", "--k-inter", 2,
        "--init-from", ce / "model.bin")
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory micerank is imported from")
    parser.add_argument("--work", help="where the artifacts are kept (default: a temporary "
                        "directory, removed afterwards)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from micerank import retrieval

    _record_exact_scores(retrieval)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work) if args.work else Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        build(work)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(digest, path.relative_to(work).as_posix())


if __name__ == "__main__":
    main()
