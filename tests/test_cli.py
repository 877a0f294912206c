"""End-to-end command-line workflow on a tiny synthetic setup.

Commands run in-process through ``dispatch`` so exit codes and outputs are
asserted directly.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import micerank
from micerank import checkpoint, cli, mice, retrieval, training
from micerank.cli import dispatch
from micerank.evalbench import BenchReport
from micerank.masking import MaskStep

TINY_TRAIN = [
    "--steps", "12", "--batch-size", "4", "--warmup", "3", "--validate-every", "6",
    "--layers", "2", "--hidden", "16", "--heads", "2", "--ff", "24",
    "--max-query", "6", "--max-doc", "16", "--ell-star", "1",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> bm25 -> tiny CE train -> tiny mid-fusion train + doc cache."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    assert dispatch([
        "synth", "--out-dir", str(data), "--docs", "24", "--queries", "12",
        "--vocab-size", "64", "--seed", "0",
    ]) == 0
    assert dispatch([
        "bm25", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
        "--k", "10", "--out", str(root / "bm25.trec"),
    ]) == 0
    assert dispatch([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
        "--qrels", str(data / "qrels.tsv"), "--out-dir", str(root / "ce"),
        "--variant", "step1", *TINY_TRAIN,
    ]) == 0
    assert dispatch([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
        "--qrels", str(data / "qrels.tsv"), "--out-dir", str(root / "mice"),
        "--variant", "mice", "--k-inter", "1", *TINY_TRAIN,
    ]) == 0
    assert dispatch([
        "encode-docs", "--model", str(root / "mice" / "model.bin"),
        "--corpus", str(data / "corpus.jsonl"), "--out", str(root / "cache.bin"),
    ]) == 0
    return root



@pytest.fixture(scope="module")
def wide_mice(workspace):
    """A mid-fusion model whose layer weights ``tensor.matmul`` stores
    column-major (hidden 256, ff 1024), trained two steps, and its cache."""
    data, out = workspace / "data", workspace / "wide"
    assert dispatch([
        "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
        "--qrels", str(data / "qrels.tsv"), "--out-dir", str(out), "--variant", "mice",
        "--k-inter", "2", "--steps", "2", "--batch-size", "4", "--warmup", "1",
        "--validate-every", "2", "--layers", "3", "--hidden", "256", "--heads", "4",
        "--ff", "1024", "--max-query", "6", "--max-doc", "16", "--ell-star", "1",
    ]) == 0
    assert dispatch([
        "encode-docs", "--model", str(out / "model.bin"),
        "--corpus", str(data / "corpus.jsonl"), "--out", str(out / "cache.bin"),
    ]) == 0
    return out


class TestPipeline:
    def test_artifacts_exist(self, workspace):
        for rel in ["data/corpus.jsonl", "data/queries.jsonl", "data/qrels.tsv",
                    "bm25.trec", "ce/model.bin", "ce/metrics.jsonl",
                    "mice/model.bin", "cache.bin"]:
            assert (workspace / rel).exists(), rel

    def test_rerank_ce_then_eval(self, workspace, capsys):
        data = workspace / "data"
        assert dispatch([
            "rerank", "--model", str(workspace / "ce" / "model.bin"), "--mode", "ce",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(workspace / "ce.trec"),
        ]) == 0
        capsys.readouterr()
        assert dispatch([
            "eval", "--run", str(workspace / "ce.trec"), "--qrels", str(data / "qrels.tsv"),
            "--metric", "rr@10",
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert 0.0 <= float(out) <= 1.0

    def test_rerank_precomp_matches_online_ordering(self, workspace):
        data = workspace / "data"
        assert dispatch([
            "rerank", "--model", str(workspace / "mice" / "model.bin"), "--mode", "mice",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(workspace / "online.trec"),
        ]) == 0
        assert dispatch([
            "rerank", "--model", str(workspace / "mice" / "model.bin"), "--mode", "mice-precomp",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--cache", str(workspace / "cache.bin"),
            "--out", str(workspace / "precomp.trec"),
        ]) == 0
        online = retrieval.read_trec_run(workspace / "online.trec")
        precomp = retrieval.read_trec_run(workspace / "precomp.trec")
        assert set(online) == set(precomp)
        for qid in online:
            assert [d for d, _ in online[qid]] == [d for d, _ in precomp[qid]]

    def test_ablate_equals_module_composition(self, workspace):
        data = workspace / "data"
        assert dispatch([
            "ablate", "--model", str(workspace / "ce" / "model.bin"), "--step", "2",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(workspace / "ablate.trec"),
        ]) == 0

        weights, _ = checkpoint.load_weights(workspace / "ce" / "model.bin", dtype=np.float32)
        from micerank.transformer import spec_for

        spec = spec_for(MaskStep.STEP2, weights.config)
        corpus = retrieval.read_jsonl(data / "corpus.jsonl")
        vocab = retrieval.build_vocab(t for _, t in corpus)
        doc_tokens = {d: retrieval.ensure_nonempty(vocab.encode(t)) for d, t in corpus}
        scorer = retrieval.CrossEncoderScorer(weights, spec, vocab, doc_tokens)
        run = retrieval.read_trec_run(workspace / "bm25.trec")
        expected = {}
        for qid, text in retrieval.read_jsonl(data / "queries.jsonl"):
            cands = [d for d, _ in run.get(qid, [])]
            if cands:
                expected[qid] = retrieval.rerank(qid, text, cands, scorer).doc_ids()
        got = retrieval.read_trec_run(workspace / "ablate.trec")
        assert {q: [d for d, _ in rows] for q, rows in got.items()} == expected

    def test_eval_perfect_run_prints_one(self, tmp_path, capsys):
        run = tmp_path / "perfect.trec"
        qrels = tmp_path / "qrels.tsv"
        run.write_text("q1 Q0 d1 1 3.0 t\nq1 Q0 d2 2 2.0 t\n")
        qrels.write_text("q1 0 d1 1\nq1 0 d2 1\n")
        assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels),
                         "--metric", "ndcg@10"]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert dispatch([
            "bench", "--mode", "mice-precomp", "--batch", "2", "--n", "3", "--m", "6",
            "--trials", "10", "--warmup", "3", "--layers", "2", "--hidden", "16",
            "--heads", "2", "--ff", "24", "--vocab-size", "64",
            "--ell-star", "1", "--k-inter", "1", "--out", str(out),
        ]) == 0
        report = BenchReport(**json.loads(out.read_text()))
        assert report.mode == "mice-precomp"
        assert "docs/s" in capsys.readouterr().out

    def test_bench_ce_reads_no_cut_flags(self, capsys):
        """A cross-encoder has no cut, so ce mode ignores the --ell-star 4
        and --k-inter 3 defaults that a 3-layer model could not be cut at."""
        assert dispatch(["bench", "--mode", "ce", "--layers", "3", "--hidden", "16",
                         "--heads", "2", "--ff", "16", "--n", "4", "--m", "8",
                         "--batch", "2"]) == 0
        assert "docs/s" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["mice", "mice-precomp"])
    @pytest.mark.parametrize("flags,cause", [
        ([], "--ell-star: split_depth 4 outside 1..3"),
        (["--ell-star", "1"], "--k-inter: interaction_layers 3 outside 1..2"),
    ])
    def test_bench_refusal_of_the_cut_names_its_flag(self, capsys, mode, flags, cause):
        assert dispatch(["bench", "--mode", mode, "--layers", "3", "--hidden", "16",
                         "--heads", "2", "--ff", "16", "--n", "4", "--m", "8",
                         "--batch", "2", *flags]) == 2
        assert f"error: {cause}" in capsys.readouterr().err

    def test_sweep_writes_csv(self, workspace, tmp_path):
        data = workspace / "data"
        out = tmp_path / "sweep.csv"
        assert dispatch([
            "sweep", "--model", str(workspace / "ce" / "model.bin"),
            "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"), "--k-min", "1", "--out", str(out),
        ]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "k_inter,rr10"
        assert len(rows) >= 2

    def test_rerank_in_float64(self, workspace, tmp_path):
        data = workspace / "data"
        assert dispatch([
            "rerank", "--model", str(workspace / "ce" / "model.bin"), "--mode", "ce",
            "--precision", "f64", "--threads", "2",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(tmp_path / "f64.trec"),
        ]) == 0
        assert (tmp_path / "f64.trec").exists()

    def test_ablate_is_rerank_under_a_mask_step(self, workspace, tmp_path):
        """``ablate`` runs the rerank command; only the TREC tag differs."""
        data = workspace / "data"
        scoring = [
            "--model", str(workspace / "ce" / "model.bin"), "--step", "3",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"),
        ]
        assert dispatch(["ablate", *scoring, "--out", str(tmp_path / "a.trec")]) == 0
        assert dispatch(["rerank", "--mode", "ce", *scoring,
                         "--out", str(tmp_path / "r.trec")]) == 0
        ablate = (tmp_path / "a.trec").read_text().splitlines()
        rerank = (tmp_path / "r.trec").read_text().splitlines()
        assert ablate and [line.rsplit(" ", 1)[1] for line in ablate] == ["ablate"] * len(ablate)
        assert [line.rsplit(" ", 1)[0] for line in ablate] == [
            line.rsplit(" ", 1)[0] for line in rerank
        ]


    @pytest.mark.parametrize("mode", ["mice", "mice-precomp"])
    def test_threads_score_a_wide_model_as_one_thread_does(
        self, workspace, wide_mice, tmp_path, monkeypatch, mode
    ):
        """Two threads share freshly loaded weights and race to the first
        products that re-lay them; the scores keep every bit."""
        data = workspace / "data"
        written = {}
        write = retrieval.write_trec_run

        def record(path, rankings, tag="micerank"):
            rankings = list(rankings)
            written[Path(path).stem] = [(r.query_id, r.items) for r in rankings]
            write(path, rankings, tag=tag)

        monkeypatch.setattr(retrieval, "write_trec_run", record)
        extra = ["--cache", str(wide_mice / "cache.bin")] if mode == "mice-precomp" else []
        for name, threads in (("one", "1"), ("two", "2")):
            assert dispatch([
                "rerank", "--model", str(wide_mice / "model.bin"), "--mode", mode, *extra,
                "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
                "--candidates", str(workspace / "bm25.trec"), "--batch-size", "7",
                "--threads", threads, "--out", str(tmp_path / f"{name}.trec"),
            ]) == 0
        assert written["one"] and written["two"] == written["one"]


class TestModelLoader:
    def test_ablate_on_mid_fusion_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        code = dispatch([
            "ablate", "--model", str(workspace / "mice" / "model.bin"), "--step", "2",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "ce mode needs a cross-encoder checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command,model,extra", [
        ("ablate", "ce", ["--step", "2"]),
        ("encode-docs", "mice", []),
        ("rerank", "ce", ["--mode", "ce"]),
    ])
    def test_vocabulary_size_mismatch_is_data_error(
        self, workspace, tmp_path, capsys, command, model, extra
    ):
        corpus = tmp_path / "corpus.jsonl"
        retrieval.write_jsonl(corpus, [("d0", "alpha beta"), ("d1", "gamma")])
        data = workspace / "data"
        scoring = [] if command == "encode-docs" else [
            "--queries", str(data / "queries.jsonl"),
            "--candidates", str(workspace / "bm25.trec"),
        ]
        code = dispatch([
            command, "--model", str(workspace / model / "model.bin"), *extra,
            "--corpus", str(corpus), *scoring, "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "does not match checkpoint" in capsys.readouterr().err

    def test_precomp_rerank_tokenizes_only_queries(self, workspace, tmp_path, monkeypatch):
        data = workspace / "data"
        encoded = []
        encode = retrieval.Vocab.encode

        def counting_encode(vocab, text):
            encoded.append(text)
            return encode(vocab, text)

        monkeypatch.setattr(retrieval.Vocab, "encode", counting_encode)
        assert dispatch([
            "rerank", "--model", str(workspace / "mice" / "model.bin"), "--mode", "mice-precomp",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--cache", str(workspace / "cache.bin"),
            "--out", str(tmp_path / "precomp.trec"),
        ]) == 0
        queries = {text for _, text in retrieval.read_jsonl(data / "queries.jsonl")}
        assert encoded and set(encoded) <= queries
        assert len(encoded) == len(retrieval.read_trec_run(tmp_path / "precomp.trec"))


class TestInitFrom:
    """``train --init-from`` takes the vocabulary, architecture and length
    caps from the checkpoint it starts from."""

    SHORT = ["--steps", "2", "--batch-size", "2", "--warmup", "1", "--validate-every", "2"]

    @staticmethod
    def data_flags(data):
        return ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
                "--qrels", str(data / "qrels.tsv")]

    def test_mid_fusion_from_a_cross_encoder_keeps_its_vocabulary_and_caps(
        self, workspace, tmp_path
    ):
        ce_path = workspace / "ce" / "model.bin"
        code = dispatch([
            "train", *self.data_flags(workspace / "data"), "--out-dir", str(tmp_path / "mice"),
            "--variant", "mice", "--init-from", str(ce_path), "--k-inter", "1", *self.SHORT,
        ])
        assert code == 0
        ce, _ = checkpoint.load_weights(ce_path)
        mw, _ = checkpoint.load_weights(tmp_path / "mice" / "model.bin")
        assert isinstance(mw, mice.MiceWeights)
        for name in ("vocab_size", "max_query", "max_doc", "hidden", "heads", "ff"):
            assert getattr(mw.config, name) == getattr(ce.config, name)
        assert (mw.config.split_depth, mw.config.interaction_layers) == (1, 1)

    def test_fine_tuning_reads_inputs_up_to_the_checkpoints_caps(
        self, tmp_path, monkeypatch
    ):
        """A CE with caps 16/40 fine-tunes on its 12-term queries and 30-term
        documents whole, not cut to the TrainConfig defaults (8/24)."""
        rng = np.random.default_rng(0)
        terms = [f"t{i}" for i in range(40)]
        data = tmp_path / "data"
        data.mkdir()
        corpus = [(f"d{i}", " ".join(rng.choice(terms, 30))) for i in range(8)]
        queries = [(f"q{i}", " ".join(rng.choice(terms, 12))) for i in range(4)]
        retrieval.write_jsonl(data / "corpus.jsonl", corpus)
        retrieval.write_jsonl(data / "queries.jsonl", queries)
        retrieval.write_qrels(data / "qrels.tsv", {q: {f"d{2 * i}": 1}
                                                   for i, (q, _) in enumerate(queries)})
        assert dispatch([
            "train", *self.data_flags(data), "--out-dir", str(tmp_path / "ce"),
            "--variant", "step3", "--max-query", "16", "--max-doc", "40", *self.SHORT,
        ]) == 0
        seen = []
        forward = training.mice_train_scores

        def recording_forward(pairs, weights):
            seen.extend((len(q), len(d)) for q, d in pairs)
            return forward(pairs, weights)

        monkeypatch.setattr(training, "mice_train_scores", recording_forward)
        assert dispatch([
            "train", *self.data_flags(data), "--out-dir", str(tmp_path / "mice"),
            "--variant", "mice", "--init-from", str(tmp_path / "ce" / "model.bin"), *self.SHORT,
        ]) == 0
        assert seen and set(seen) == {(12, 30)}

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_checkpoint_of_another_vocabulary_is_data_error(
        self, workspace, tmp_path, capsys, command
    ):
        data = workspace / "data"
        small = tmp_path / "data"
        small.mkdir()
        retrieval.write_jsonl(small / "corpus.jsonl", [("d0", "alpha beta"), ("d1", "gamma")])
        for name in ("queries.jsonl", "qrels.tsv"):
            (small / name).write_bytes((data / name).read_bytes())
        ce_path = workspace / "ce" / "model.bin"
        argv = {
            "train": ["--out-dir", str(tmp_path / "mice"), "--variant", "mice",
                      "--init-from", str(ce_path), "--k-inter", "1", *self.SHORT],
            "sweep": ["--model", str(ce_path), "--out", str(tmp_path / "sweep.csv")],
        }[command]
        assert dispatch([command, *self.data_flags(small), *argv]) == 2
        size = retrieval.build_vocab(["alpha beta", "gamma"]).size
        expected = checkpoint.load_weights(ce_path)[0].config.vocab_size
        assert (f"corpus builds {size} token ids, which does not match checkpoint "
                f"({expected})") in capsys.readouterr().err


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert dispatch(["synth"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        assert dispatch(["synth", "--out-dir", "/tmp/x", "--bogus", "1"]) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["rerank", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        assert dispatch(argv) == 0
        assert "usage: micerank" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        assert dispatch(["frobnicate"]) == 1

    def test_no_command_rejected(self):
        assert dispatch([]) == 1

    def test_synth_vocabulary_too_small_is_data_error(self, tmp_path, capsys):
        code = dispatch([
            "synth", "--out-dir", str(tmp_path), "--docs", "2000", "--vocab-size", "1024",
        ])
        assert code == 2
        assert "vocab_size 1024" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("rerank", "--batch-size", "-1"),
        ("rerank", "--batch-size", "0"),
        ("rerank", "--k-out", "-2"),
        ("rerank", "--threads", "-1"),
        ("rerank", "--threads", "0"),
        ("ablate", "--batch-size", "0"),
        ("ablate", "--k-out", "0"),
        ("bm25", "--k", "-1"),
        ("bench", "--batch", "0"),
        ("bench", "--n", "0"),
        ("bench", "--m", "0"),
        ("train", "--batch-size", "0"),
        ("train", "--validate-every", "0"),
        ("synth", "--docs", "0"),
        ("synth", "--queries", "0"),
        ("synth", "--vocab-size", "0"),
    ])
    def test_count_below_one_is_usage_error(
        self, workspace, tmp_path, capsys, command, flag, value
    ):
        data = workspace / "data"
        inputs = [
            "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
        ]
        scoring = [*inputs, "--candidates", str(workspace / "bm25.trec")]
        argv = {
            "rerank": ["--model", str(workspace / "ce" / "model.bin"), "--mode", "ce", *scoring],
            "ablate": ["--model", str(workspace / "ce" / "model.bin"), "--step", "2", *scoring],
            "bm25": inputs,
            "bench": ["--mode", "ce", "--trials", "1", "--warmup", "0", "--layers", "2",
                      "--hidden", "8", "--heads", "2", "--ff", "8", "--vocab-size", "16",
                      "--n", "2", "--m", "3", "--ell-star", "1", "--k-inter", "1"],
            "train": [*inputs, "--qrels", str(data / "qrels.tsv"),
                      "--out-dir", str(tmp_path / "model"), *TINY_TRAIN],
            "synth": ["--out-dir", str(tmp_path / "synth")],
        }[command]
        out = ([] if command in ("bench", "train", "synth")
               else ["--out", str(tmp_path / "run.trec")])
        assert dispatch([command, *argv, *out, flag, value]) == 1
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,mode,extra", [
        ("rerank", "mice", ["--step", "3"]),
        ("rerank", "mice-precomp", ["--step", "3"]),
        ("rerank", "mice", ["--ell-star", "1"]),
        ("ablate", "mice-precomp", ["--ell-star", "1"]),
        ("ablate", "ce", ["--ell-star", "1", "--step", "2"]),
        ("rerank", "ce", ["--cache", "cache.bin"]),
        ("ablate", "mice", ["--cache", "cache.bin"]),
    ])
    def test_flag_the_mode_does_not_read_is_data_error(
        self, workspace, tmp_path, capsys, command, mode, extra
    ):
        data = workspace / "data"
        model = "ce" if mode == "ce" else "mice"
        code = dispatch([
            command, "--model", str(workspace / model / "model.bin"), "--mode", mode,
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(tmp_path / "r.trec"),
            *extra,
        ])
        assert code == 2
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "r.trec").exists()

    @staticmethod
    def one_thread_command(workspace, command, out):
        """argv of a command that runs on one thread, on the workspace,
        writing to ``out``."""
        data = workspace / "data"
        corpus, queries, qrels = (str(data / name)
                                  for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv"))
        return [command, *{
            "bm25": ["--corpus", corpus, "--queries", queries, "--out", str(out)],
            "eval": ["--run", str(workspace / "bm25.trec"), "--qrels", qrels],
            "synth": ["--out-dir", str(out), "--docs", "10", "--queries", "4",
                      "--vocab-size", "64"],
            "train": ["--corpus", corpus, "--queries", queries, "--qrels", qrels,
                      "--out-dir", str(out), *TINY_TRAIN],
            "encode-docs": ["--model", str(workspace / "mice" / "model.bin"),
                            "--corpus", corpus, "--out", str(out)],
            "bench": ["--mode", "ce", "--trials", "10", "--warmup", "3", "--layers", "2",
                      "--hidden", "8", "--heads", "2", "--ff", "8", "--vocab-size", "16",
                      "--n", "2", "--m", "3", "--ell-star", "1", "--k-inter", "1",
                      "--out", str(out)],
            "sweep": ["--model", str(workspace / "ce" / "model.bin"), "--corpus", corpus,
                      "--queries", queries, "--qrels", qrels, "--out", str(out)],
        }[command]]

    @pytest.mark.parametrize("command,flag,value", [
        ("bm25", "--seed", "3"),
        ("bm25", "--precision", "f32"),
        ("bm25", "--threads", "2"),
        ("eval", "--seed", "3"),
        ("eval", "--precision", "f64"),
        ("eval", "--threads", "2"),
        ("synth", "--precision", "f64"),
        ("synth", "--threads", "2"),
        ("train", "--threads", "2"),
        ("encode-docs", "--seed", "3"),
        ("encode-docs", "--threads", "2"),
        ("bench", "--precision", "f64"),
        ("bench", "--threads", "2"),
        ("sweep", "--threads", "2"),
    ])
    def test_common_flag_the_command_does_not_read_is_usage_error(
        self, workspace, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "out"
        argv = self.one_thread_command(workspace, command, out)
        assert dispatch([*argv, flag, value]) == 1
        assert flag in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["bm25", "eval", "synth", "train", "encode-docs", "bench", "sweep"]
    )
    def test_one_thread_commands_accept_threads_one(
        self, workspace, tmp_path, monkeypatch, command
    ):
        """They run on one thread, so ``--threads 1`` describes them, and an
        unreadable MICE_THREADS is none of their business."""
        argv = self.one_thread_command(workspace, command, tmp_path / "out")
        assert dispatch([*argv, "--threads", "1"]) == 0
        monkeypatch.setenv("MICE_THREADS", "abc")
        assert dispatch(argv) == 0

    def test_train_takes_seed_and_precision_from_its_config_file(self, workspace, tmp_path):
        """A flag left out keeps the file's value; a flag given overrides it."""
        config = tmp_path / "train.cfg"
        config.write_text("seed = 5\nprecision = f64\n")
        runs = []

        def model(*flags):
            out = tmp_path / f"run{len(runs)}"
            runs.append(out)
            assert dispatch([*self.one_thread_command(workspace, "train", out), *flags]) == 0
            return (out / "model.bin").read_bytes()

        from_file = model("--config", str(config))
        assert from_file == model("--seed", "5", "--precision", "f64")
        assert from_file == model("--config", str(config), "--seed", "5", "--precision", "f64")
        assert from_file != model("--config", str(config), "--seed", "0")
        assert from_file != model("--config", str(config), "--precision", "f32")

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_zero_heads_is_data_error(self, workspace, tmp_path, capsys, command):
        data = workspace / "data"
        argv = {
            "train": ["--corpus", str(data / "corpus.jsonl"),
                      "--queries", str(data / "queries.jsonl"), "--qrels", str(data / "qrels.tsv"),
                      "--out-dir", str(tmp_path / "model"), *TINY_TRAIN],
            "bench": ["--mode", "ce", "--trials", "1", "--warmup", "0", "--layers", "2",
                      "--hidden", "8", "--ff", "8", "--vocab-size", "16",
                      "--n", "2", "--m", "3", "--ell-star", "1", "--k-inter", "1"],
        }[command]
        assert dispatch([command, *argv, "--heads", "0"]) == 2
        assert "heads must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_mice_threads_is_usage_error(
        self, workspace, tmp_path, capsys, monkeypatch, value
    ):
        """The environment default goes through the same check as the flag."""
        monkeypatch.setenv("MICE_THREADS", value)
        data = workspace / "data"
        code = dispatch([
            "rerank", "--model", str(workspace / "ce" / "model.bin"), "--mode", "ce",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(tmp_path / "r.trec"),
        ])
        assert code == 1
        assert f"argument --threads: MICE_THREADS={value!r}" in capsys.readouterr().err
        assert not (tmp_path / "r.trec").exists()

    @pytest.mark.parametrize("command", ["rerank", "ablate"])
    def test_threads_default_from_mice_threads(self, monkeypatch, command):
        """MICE_THREADS gives --threads when the flag is not given, else
        it is not read, even when it is not a count."""
        argv = [command, "--model", "m", "--queries", "q", "--corpus", "c",
                "--candidates", "r", "--out", "o"]

        def threads(*flags):
            return cli._build_parser().parse_args([*argv, *flags]).threads

        monkeypatch.delenv("MICE_THREADS", raising=False)
        assert threads() == 1
        monkeypatch.setenv("MICE_THREADS", "3")
        assert threads() == 3
        monkeypatch.setenv("MICE_THREADS", "abc")
        assert threads("--threads", "2") == 2

    @pytest.mark.parametrize("flag,value", [("--steps", "-5"), ("--warmup", "-3")])
    def test_negative_schedule_is_data_error(self, workspace, tmp_path, capsys, flag, value):
        data = workspace / "data"
        code = dispatch([
            "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"), "--out-dir", str(tmp_path / "model"),
            *TINY_TRAIN, flag, value,
        ])
        assert code == 2
        assert "must not be negative" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("key", ["batch_size", "validate_every"])
    def test_config_file_count_below_one_is_data_error(self, workspace, tmp_path, capsys, key):
        """A config file cannot set what the flag's ``positive_int`` refuses."""
        config = tmp_path / "train.cfg"
        config.write_text(f"{key} = 0\n")
        data = workspace / "data"
        code = dispatch([
            "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"), "--out-dir", str(tmp_path / "model"),
            "--config", str(config), "--steps", "2", "--warmup", "1",
        ])
        assert code == 2
        assert f"{key} must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    def test_encode_docs_in_float64_is_usage_error(self, workspace, tmp_path, capsys):
        """encode-docs writes float32 states and declares no --precision."""
        code = dispatch([
            "encode-docs", "--model", str(workspace / "mice" / "model.bin"),
            "--corpus", str(workspace / "data" / "corpus.jsonl"),
            "--out", str(tmp_path / "cache.bin"), "--precision", "f64",
        ])
        assert code == 1
        assert "unrecognized arguments: --precision f64" in capsys.readouterr().err
        assert not (tmp_path / "cache.bin").exists()

    @pytest.mark.parametrize("command,bad_line", [
        ("bm25", "[1, 2]"),
        ("bm25", '"text"'),
        ("eval-run", "q1 Q0 d1 first 1.0 t"),
        ("eval-qrels", "q1 0 d1 yes"),
    ])
    def test_malformed_input_names_path_and_line(self, tmp_path, capsys, command, bad_line):
        good = {
            "bm25": '{"id": "d0", "text": "a b"}',
            "eval-run": "q1 Q0 d0 1 2.0 t",
            "eval-qrels": "q1 0 d0 1",
        }[command]
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{good}\n{bad_line}\n")
        run = tmp_path / "run.trec"
        run.write_text("q1 Q0 d0 1 2.0 t\n")
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("q1 0 d0 1\n")
        argv = {
            "bm25": ["bm25", "--corpus", str(bad), "--queries", str(bad),
                     "--out", str(tmp_path / "out.trec")],
            "eval-run": ["eval", "--run", str(bad), "--qrels", str(qrels)],
            "eval-qrels": ["eval", "--run", str(run), "--qrels", str(bad)],
        }[command]
        assert dispatch(argv) == 2
        assert f"{bad}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("command,name", [
        ("bm25", "corpus"), ("bm25", "queries"), ("rerank", "corpus"), ("train", "corpus"),
    ])
    def test_repeated_id_names_path_line_and_id(
        self, workspace, tmp_path, capsys, command, name
    ):
        """Before, bm25 and train refused a repeated corpus id without naming
        the file, and rerank --mode ce scored the id with its last text."""
        data = workspace / "data"
        records = retrieval.read_jsonl(data / f"{name}.jsonl")
        repeated = tmp_path / f"{name}.jsonl"
        retrieval.write_jsonl(repeated, [*records, (records[0][0], "another text")])
        files = {"corpus": data / "corpus.jsonl", "queries": data / "queries.jsonl", name: repeated}
        inputs = ["--corpus", str(files["corpus"]), "--queries", str(files["queries"])]
        argv = {
            "bm25": ["bm25", *inputs, "--out", str(tmp_path / "run.trec")],
            "rerank": ["rerank", "--model", str(workspace / "ce" / "model.bin"), "--mode", "ce",
                       *inputs, "--candidates", str(workspace / "bm25.trec"),
                       "--out", str(tmp_path / "run.trec")],
            "train": ["train", *inputs, "--qrels", str(data / "qrels.tsv"),
                      "--out-dir", str(tmp_path / "model"), *TINY_TRAIN],
        }[command]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert f"{repeated}:{len(records) + 1}: duplicate id {records[0][0]!r}" in err

    def test_bm25_parameters_out_of_range_are_data_errors(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        inputs = ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl")]
        out = tmp_path / "run.trec"
        assert dispatch(["bm25", *inputs, "--k1", "-1", "--b", "0", "--out", str(out)]) == 2
        assert "BM25 k1 must be at least 0, got -1.0" in capsys.readouterr().err
        assert dispatch(["bm25", *inputs, "--b", "1.5", "--out", str(out)]) == 2
        assert "BM25 b must lie in [0, 1], got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert dispatch([
            "eval", "--run", str(tmp_path / "absent.trec"),
            "--qrels", str(tmp_path / "absent.tsv"),
        ]) == 2

    def test_bad_checkpoint_is_data_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"NOTMAGIC" + bytes(64))
        code = dispatch([
            "encode-docs", "--model", str(junk), "--corpus", str(tmp_path / "c.jsonl"),
            "--out", str(tmp_path / "o.bin"),
        ])
        assert code == 2

    def test_wrong_cache_hash_is_data_error(self, workspace, tmp_path):
        data = workspace / "data"
        other = tmp_path / "othermodel"
        assert dispatch([
            "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"), "--out-dir", str(other),
            "--variant", "mice", "--k-inter", "1", "--seed", "5", *TINY_TRAIN,
        ]) == 0
        code = dispatch([
            "rerank", "--model", str(other / "model.bin"), "--mode", "mice-precomp",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--cache", str(workspace / "cache.bin"),
            "--out", str(tmp_path / "r.trec"),
        ])
        assert code == 2

    def test_lenient_rerank_still_refuses_cache_of_another_checkpoint(
        self, workspace, tmp_path, capsys
    ):
        """``--no-strict`` skips unscoreable candidates; it does not open a
        cache whose every state the scorer would refuse."""
        data = workspace / "data"
        other = tmp_path / "othermodel"
        assert dispatch([
            "train", "--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"), "--out-dir", str(other),
            "--variant", "mice", "--k-inter", "1", "--seed", "5", *TINY_TRAIN,
        ]) == 0
        capsys.readouterr()
        code = dispatch([
            "rerank", "--model", str(other / "model.bin"), "--mode", "mice-precomp",
            "--no-strict",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--cache", str(workspace / "cache.bin"),
            "--out", str(tmp_path / "r.trec"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "was produced by a different checkpoint" in err
        assert "document state" not in err

    def test_nan_checkpoint_is_numeric_error(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        weights, step = checkpoint.load_weights(workspace / "ce" / "model.bin")
        weights.score_w.data[:] = np.nan
        poisoned = tmp_path / "nan.bin"
        checkpoint.save_weights(poisoned, weights, step=step)
        code = dispatch([
            "rerank", "--model", str(poisoned), "--mode", "ce",
            "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
            "--candidates", str(workspace / "bm25.trec"), "--out", str(tmp_path / "r.trec"),
        ])
        assert code == 3
        assert "numeric" in capsys.readouterr().err


class TestModuleEntryPoint:
    """``python -m micerank`` runs the same command line as the script."""

    @staticmethod
    def pythonpath() -> str:
        src = str(Path(micerank.__file__).resolve().parent.parent)
        return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    @classmethod
    def run(cls, *argv):
        return subprocess.run(
            [sys.executable, "-m", *argv], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": cls.pythonpath()},
        )

    def test_synth_writes_the_corpus(self, tmp_path):
        result = self.run("micerank", "synth", "--out-dir", str(tmp_path), "--docs", "10",
                          "--queries", "4", "--vocab-size", "64")
        assert result.returncode == 0, result.stderr
        assert len(retrieval.read_jsonl(tmp_path / "corpus.jsonl")) == 10

    @pytest.mark.parametrize("module", ["micerank", "micerank.cli"])
    def test_no_command_is_usage_error(self, module):
        result = self.run(module)
        assert result.returncode == 1
        assert "error" in result.stderr


# Four live 1 MiB arrays, 200 times over, after one command; a warm-up
# round first touches the pages they will reuse.
MINOR_FAULTS = """
import resource
import numpy as np
from micerank.cli import dispatch

dispatch(["eval", "--run", "absent.trec", "--qrels", "absent.tsv"])
batch = [np.ones(2**18, dtype=np.float32) for _ in range(4)]
del batch
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    batch = [np.ones(2**18, dtype=np.float32) for _ in range(4)]
    del batch
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_freed_activation_pages_stay_in_the_process(tmp_path):
    """With glibc's default thresholds each freed batch goes back to the
    kernel and the loop takes about 200k minor faults."""
    result = subprocess.run(
        [sys.executable, "-c", MINOR_FAULTS], capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": TestModuleEntryPoint.pythonpath()},
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 1000


# 80 MiB of 2 MiB arrays, the size of a MiniLM-width model, freed and
# allocated again ten times after one command, as repeated commands do.
MODEL_FAULTS = """
import resource
import numpy as np
from micerank.cli import dispatch

dispatch(["eval", "--run", "absent.trec", "--qrels", "absent.tsv"])
model = [np.ones(2**19, dtype=np.float32) for _ in range(40)]
del model
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    model = [np.ones(2**19, dtype=np.float32) for _ in range(40)]
    del model
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_freed_model_pages_stay_in_the_process(tmp_path):
    """When the freed arrays sit at the top of the heap, trimming it once
    64 MiB are free hands them back and each round takes about 20k minor
    faults."""
    result = subprocess.run(
        [sys.executable, "-c", MODEL_FAULTS], capture_output=True, text=True, timeout=120,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": TestModuleEntryPoint.pythonpath()},
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 1000
