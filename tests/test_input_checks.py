"""Input checks of the commands and readers, each reached by one test.

Commands run in-process through ``dispatch`` where there is a command, on a
tiny synthetic setup, so exit codes and messages are asserted directly.
"""

import dataclasses
import hashlib
import json
import logging
import struct

import numpy as np
import pytest

from micerank import checkpoint, doccache, retrieval, training
from micerank.cli import dispatch
from micerank.mice import encode_document, from_cross_encoder
from micerank.training import SynthData, split_queries
from micerank.transformer import ModelConfig, init_ce_weights

ARCH = ["--layers", "3", "--hidden", "16", "--heads", "2", "--ff", "24",
        "--max-query", "6", "--max-doc", "16", "--ell-star", "1"]
SHORT = ["--steps", "2", "--batch-size", "2", "--warmup", "1", "--validate-every", "2"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """synth -> bm25 -> a tiny step-1 cross-encoder and mid-fusion model."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    assert dispatch(["synth", "--out-dir", str(data), "--docs", "24", "--queries", "12",
                     "--vocab-size", "64", "--seed", "0"]) == 0
    assert dispatch(["bm25", *inputs(root, "corpus", "queries"), "--k", "10",
                     "--out", str(root / "bm25.trec")]) == 0
    for variant, out in (("step1", "ce"), ("mice", "mice")):
        assert dispatch(["train", *inputs(root, "corpus", "queries", "qrels"),
                         "--out-dir", str(root / out), "--variant", variant,
                         *ARCH, *SHORT]) == 0
    return root


def inputs(root, *names):
    """``--corpus``, ``--queries`` and ``--qrels`` flags on the workspace's data."""
    files = {"corpus": "corpus.jsonl", "queries": "queries.jsonl", "qrels": "qrels.tsv"}
    return [arg for name in names for arg in (f"--{name}", str(root / "data" / files[name]))]


def rerank_argv(ws, model, *extra, candidates=None, out):
    """``rerank`` of the workspace's BM25 candidates (or ``candidates``) with
    the checkpoint at ``model``."""
    return ["rerank", "--model", str(model), *inputs(ws, "corpus", "queries"),
            "--candidates", str(candidates or ws / "bm25.trec"), *extra, "--out", str(out)]


class TestInitFromRefusesUnreadFlags:
    """With ``--init-from`` the checkpoint fixes the architecture; the split
    flags are read only to cut a cross-encoder into a mid-fusion model."""

    def train(self, ws, tmp_path, variant, model, *flags):
        return dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"),
                         "--out-dir", str(tmp_path / "out"), "--variant", variant,
                         "--init-from", str(ws / model / "model.bin"), *SHORT, *flags])

    @pytest.mark.parametrize("flag,value", [
        ("--layers", "7"), ("--hidden", "5"), ("--heads", "3"), ("--ff", "8"),
        ("--max-query", "4"), ("--max-doc", "99"),
    ])
    @pytest.mark.parametrize("variant,model", [("mice", "ce"), ("mice", "mice"), ("step1", "ce")])
    def test_architecture_flag_is_data_error(
        self, ws, tmp_path, capsys, variant, model, flag, value
    ):
        assert self.train(ws, tmp_path, variant, model, flag, value) == 2
        assert f"train --init-from does not read {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--ell-star", "--k-inter"])
    @pytest.mark.parametrize("variant,model", [("mice", "mice"), ("step1", "ce")])
    def test_split_flag_without_a_cut_is_data_error(
        self, ws, tmp_path, capsys, variant, model, flag
    ):
        assert self.train(ws, tmp_path, variant, model, flag, "1") == 2
        assert f"train --init-from does not read {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_split_flags_cut_a_cross_encoder(self, ws, tmp_path):
        assert self.train(ws, tmp_path, "mice", "ce", "--ell-star", "1", "--k-inter", "1") == 0
        mw, _ = checkpoint.load_weights(tmp_path / "out" / "model.bin")
        assert (mw.config.split_depth, mw.config.interaction_layers) == (1, 1)

    def test_config_file_values_are_defaults_not_flags(self, ws, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text("layers = 7\nhidden = 5\nheads = 3\nmax_doc = 99\n"
                          "split_depth = 1\ninteraction_layers = 1\n")
        assert self.train(ws, tmp_path, "mice", "mice", "--config", str(config)) == 0


def test_sweep_tokenizes_its_corpus_once(ws, tmp_path, monkeypatch):
    """Each fine-tuned model reuses one tokenization of the corpus."""
    calls = []
    build_vocab = training.build_vocab

    def counting_build_vocab(texts):
        calls.append(1)
        return build_vocab(texts)

    monkeypatch.setattr(training, "build_vocab", counting_build_vocab)
    out = tmp_path / "sweep.csv"
    assert dispatch(["sweep", "--model", str(ws / "ce" / "model.bin"),
                     *inputs(ws, "corpus", "queries", "qrels"), "--k-min", "1", "--k-max", "2",
                     "--finetune-steps", "2", "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()] == ["k_inter", "2", "1"]
    assert len(calls) == 1


class TestInteractionLayerCounts:
    """A cross-encoder has no interaction layers; a mid-fusion model and
    every cut of a sweep have at least one."""

    def test_fresh_cross_encoder_does_not_read_k_inter(self, ws, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir",
                         str(out), "--variant", "step3", *ARCH, *SHORT, "--k-inter", "5"]) == 2
        assert "train --variant step3 does not read --k-inter" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_k_inter_is_a_default_not_a_flag(self, ws, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text("interaction_layers = 5\n")
        assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir",
                         str(tmp_path / "out"), "--variant", "step3", "--config", str(config),
                         *ARCH, *SHORT]) == 0
        ce, _ = checkpoint.load_weights(tmp_path / "out" / "model.bin")
        assert ce.config.interaction_layers == 0

    @pytest.mark.parametrize("flags,requested,refusal", [
        (["--ell-star", "3"], "1..0", "interaction_layers 1 outside 1..0"),
        (["--ell-star", "5"], "1..-2", "split_depth 5 outside 1..3"),
        (["--k-min", "3", "--k-max", "2"], "3..2", "interaction_layers 3 outside 1..2"),
        (["--k-min", "0", "--k-max", "0"], "0..0",
         "interaction needs at least one layer; config.interaction_layers is 0"),
        (["--k-min", "2", "--k-max", "1"], "2..1", "the range is empty"),
    ])
    def test_sweep_with_no_count_to_cut_is_data_error(
        self, ws, tmp_path, capsys, flags, requested, refusal
    ):
        """The workspace's cross-encoder has 3 layers, split after the first.
        The error gives the cut's refusal of --k-min, or says that --k-min
        can be cut and the range holds no count."""
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--model", str(ws / "ce" / "model.bin"),
                         *inputs(ws, "corpus", "queries", "qrels"), *flags,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"k_inter {requested}" in err
        assert refusal in err
        assert not out.exists()

    @pytest.fixture
    def no_interaction(self, ws, tmp_path):
        """The workspace's mid-fusion checkpoint cut to its lower stack
        (``interaction_layers = 0``), and a cache of its document states."""
        config, entries = checkpoint_entries(ws / "mice" / "model.bin")
        kept = {name: t for name, t in entries.items() if not name.startswith("interaction.")}
        model = tmp_path / "model.bin"
        write_checkpoint(model, KIND_MICE, dataclasses.replace(
            config, layers=config.split_depth, interaction_layers=0), kept)
        full, _ = checkpoint.load_weights(ws / "mice" / "model.bin")
        corpus = retrieval.read_jsonl(ws / "data" / "corpus.jsonl")
        vocab = retrieval.build_vocab(text for _, text in corpus)
        states = [dataclasses.replace(encode_document(vocab.encode(text), full, doc_id=d),
                                      checkpoint_hash=None) for d, text in corpus]
        cache = tmp_path / "cache.bin"
        doccache.write_cache(cache, states, hidden=full.config.hidden,
                             split_depth=full.config.split_depth,
                             checkpoint_hash=hashlib.sha256(model.read_bytes()).digest())
        return model, cache

    @pytest.mark.parametrize("command", ["encode-docs", "rerank"])
    def test_mid_fusion_checkpoint_without_interaction_layers_is_refused(
        self, ws, tmp_path, capsys, no_interaction, command
    ):
        model, cache = no_interaction
        out = tmp_path / "out"
        if command == "rerank":
            argv = rerank_argv(ws, model, "--mode", "mice-precomp", "--cache", str(cache), out=out)
        else:
            argv = ["encode-docs", "--model", str(model), *inputs(ws, "corpus"), "--out", str(out)]
        assert dispatch(argv) == 2
        assert "config.interaction_layers is 0" in capsys.readouterr().err
        assert not out.exists()


class TestModelDepth:
    """A model's ``layers`` is the number of layers it holds. For a fresh
    mid-fusion model, ``--layers`` is the depth of the cross-encoder it is
    cut from."""

    def test_fresh_mid_fusion_model_saves_the_depth_it_holds(self, ws, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir",
                         str(out), "--variant", "mice", *ARCH, *SHORT, "--layers", "5",
                         "--k-inter", "2"]) == 0
        _, _, _, *values, _ = HEADER.unpack((out / "model.bin").read_bytes()[:HEADER.size])
        config = ModelConfig(*values)
        assert (config.layers, config.split_depth, config.interaction_layers) == (3, 1, 2)
        mw, _ = checkpoint.load_weights(out / "model.bin")
        assert mw.config.layers == len(mw.lower) + len(mw.interaction) == 3

    def test_header_depth_other_than_the_layers_held_is_data_error(self, ws, tmp_path, capsys):
        """A mid-fusion header that says 5 layers over stacks of 1 and 2."""
        config, entries = checkpoint_entries(ws / "mice" / "model.bin")
        model = tmp_path / "model.bin"
        write_checkpoint(model, KIND_MICE, dataclasses.replace(config, layers=5), entries)
        out = tmp_path / "run.trec"
        assert dispatch(rerank_argv(ws, model, "--mode", "mice", out=out)) == 2
        assert f"{model}: stacks hold 3 layers; config.layers is 5" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestScoringWithoutTheDocument:
    """Configurations whose CLS row never reads the document: one interaction
    layer, and a step-3 split at the top layer or the one below it. The
    library keeps the first, which equals the severed cross-encoder."""

    BLIND = "with one interaction layer the CLS row never reads the document"

    def blind_warnings(self, caplog) -> int:
        return sum(self.BLIND in record.getMessage() for record in caplog.records)

    @pytest.mark.parametrize("k,warnings", [("1", 1), ("2", 0)])
    def test_train_with_one_interaction_layer_warns(self, ws, tmp_path, caplog, k, warnings):
        with caplog.at_level(logging.WARNING):
            assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir",
                             str(tmp_path / "out"), "--variant", "mice", *ARCH, *SHORT,
                             "--k-inter", k]) == 0
        assert self.blind_warnings(caplog) == warnings

    def test_sweep_warns_on_its_one_interaction_layer_row(self, ws, tmp_path, caplog):
        out = tmp_path / "sweep.csv"
        with caplog.at_level(logging.WARNING):
            assert dispatch(["sweep", "--model", str(ws / "ce" / "model.bin"),
                             *inputs(ws, "corpus", "queries", "qrels"), "--k-min", "1",
                             "--k-max", "2", "--out", str(out)]) == 0
        assert self.blind_warnings(caplog) == 1
        assert "k_inter=1: " + self.BLIND in caplog.text

    @pytest.mark.parametrize("command", ["rerank", "ablate"])
    @pytest.mark.parametrize("split,code", [("1", 0), ("2", 2), ("3", 2), ("7", 2)])
    def test_step3_split_at_the_top_layers_is_data_error(self, ws, tmp_path, capsys, command,
                                                        split, code):
        """The workspace's cross-encoder has 3 layers. From a split at 2 on,
        every layer below the top is severed, so the query rows never read
        the document before CLS reads them."""
        out = tmp_path / "run.trec"
        argv = rerank_argv(ws, ws / "ce" / "model.bin", "--step", "3", "--ell-star", split,
                           out=out)
        assert dispatch([command, *argv[1:]]) == code
        refused = f"--ell-star {split} severs every layer below the top"
        assert (refused in capsys.readouterr().err) == (code == 2)
        assert out.exists() == (code == 0)

    UNREAD = "the CLS row never reads the document"

    def train_step3(self, ws, out, split):
        assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir",
                         str(out), "--variant", "step3", *ARCH, *SHORT, "--ell-star", split]) == 0

    @pytest.mark.parametrize("split,warnings", [("1", 0), ("2", 1)])
    def test_train_of_a_cross_encoder_split_at_the_top_layers_warns(self, ws, tmp_path, caplog,
                                                                   split, warnings):
        with caplog.at_level(logging.WARNING):
            self.train_step3(ws, tmp_path / "out", split)
        assert sum(self.UNREAD in record.getMessage() for record in caplog.records) == warnings

    def test_checkpoint_split_at_the_top_layers_warns_and_scores(self, ws, tmp_path, caplog):
        """Only a given --ell-star is refused; a 3-layer checkpoint's own
        split at 2 scores under step 3 with one warning."""
        self.train_step3(ws, tmp_path / "ce", "2")
        out = tmp_path / "run.trec"
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            argv = rerank_argv(ws, tmp_path / "ce" / "model.bin", "--step", "3", out=out)
            assert dispatch(["ablate", *argv[1:]]) == 0
        warned = [r.getMessage() for r in caplog.records if self.UNREAD in r.getMessage()]
        assert len(warned) == 1
        assert "step3 at split_depth 2 of a 3-layer cross-encoder" in warned[0]
        assert out.exists()


def test_train_of_zero_steps_says_no_validation_ran(ws, tmp_path, capsys):
    out = tmp_path / "out"
    assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir", str(out),
                     *ARCH, *SHORT, "--steps", "0"]) == 0
    printed = capsys.readouterr().out
    assert "no validation ran" in printed
    assert "RR@10" not in printed and "nan" not in printed
    assert (out / "model.bin").exists()


class TestCommandInputs:
    @pytest.mark.parametrize("argv,message", [
        (["encode-docs"], "encode-docs needs a mid-fusion checkpoint"),
        (["rerank", "--mode", "mice"], "mice mode needs a mid-fusion checkpoint"),
        (["rerank", "--step", "9"], "unknown masking step '9'"),
    ])
    def test_cross_encoder_checkpoint_where_it_does_not_fit(
        self, ws, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "out"
        command, *extra = argv
        if command == "rerank":
            argv = rerank_argv(ws, ws / "ce" / "model.bin", *extra, out=out)
        else:
            argv = [command, "--model", str(ws / "ce" / "model.bin"),
                    *inputs(ws, "corpus"), "--out", str(out)]
        assert dispatch(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_precomp_mode_without_a_cache_is_data_error(self, ws, tmp_path, capsys):
        out = tmp_path / "run.trec"
        assert dispatch(rerank_argv(ws, ws / "mice" / "model.bin", "--mode", "mice-precomp", out=out)) == 2
        assert "mice-precomp mode needs --cache" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_from_a_mid_fusion_checkpoint_is_data_error(self, ws, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--model", str(ws / "mice" / "model.bin"),
                         *inputs(ws, "corpus", "queries", "qrels"), "--out", str(out)]) == 2
        assert "sweep starts from a cross-encoder checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_query_without_candidates_is_left_out_of_the_run(self, ws, tmp_path, capsys):
        lines = (ws / "bm25.trec").read_text().splitlines(keepends=True)
        first = lines[0].split()[0]
        candidates = tmp_path / "candidates.trec"
        candidates.write_text("".join(line for line in lines if line.split()[0] != first))
        out = tmp_path / "run.trec"
        assert dispatch(rerank_argv(ws, ws / "ce" / "model.bin", candidates=candidates, out=out)) == 0
        queries = {q for q, _ in retrieval.read_jsonl(ws / "data" / "queries.jsonl")}
        assert set(retrieval.read_trec_run(out)) == queries - {first}
        assert f"reranked {len(queries) - 1} queries" in capsys.readouterr().out

    def test_precision_the_config_file_does_not_know_is_data_error(self, ws, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("precision = f16\n")
        assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--config",
                         str(config), "--out-dir", str(tmp_path / "model"), *SHORT]) == 2
        assert "precision must be f32 or f64, got 'f16'" in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    def test_qrels_without_a_relevant_training_query_is_data_error(self, ws, tmp_path, capsys):
        """Every fourth query validates; here only those have relevant documents."""
        qrels = tmp_path / "qrels.tsv"
        retrieval.write_qrels(qrels, {"q0003": {"d0000": 1}, "q0007": {"d0001": 1}})
        assert dispatch(["train", *inputs(ws, "corpus", "queries"), "--qrels", str(qrels),
                         "--out-dir", str(tmp_path / "model"), *SHORT]) == 2
        assert "no training query has a relevant document" in capsys.readouterr().err

    def test_qrels_judging_documents_only_non_relevant_is_data_error(self, ws, tmp_path, capsys):
        """A rel-0 judgment marks a document non-relevant, not a positive."""
        qrels = tmp_path / "qrels.tsv"
        queries = retrieval.read_jsonl(ws / "data" / "queries.jsonl")
        retrieval.write_qrels(qrels, {q: {"d0000": 0} for q, _ in queries})
        assert dispatch(["train", *inputs(ws, "corpus", "queries"), "--qrels", str(qrels),
                         "--out-dir", str(tmp_path / "model"), *SHORT]) == 2
        assert "no training query has a relevant document" in capsys.readouterr().err
        assert not (tmp_path / "model" / "model.bin").exists()

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_run_repeating_a_document_is_data_error(self, ws, tmp_path, capsys, command):
        lines = (ws / "bm25.trec").read_text().splitlines(keepends=True)
        qid, _, doc_id, *_ = lines[0].split()
        run = tmp_path / "repeated.trec"
        run.write_text("".join(lines) + lines[0])
        out = tmp_path / "run.trec"
        if command == "eval":
            argv = ["eval", "--run", str(run), *inputs(ws, "qrels")]
        else:
            argv = rerank_argv(ws, ws / "ce" / "model.bin", candidates=run, out=out)
        assert dispatch(argv) == 2
        assert f"{run}: query {qid!r} lists document {doc_id!r} more than once" in (
            capsys.readouterr().err)
        assert not out.exists()


# The checkpoint header: magic, kind, step code, the nine ModelConfig fields
# in declaration order, entry count. Kind 0 is a cross-encoder, 1 mid-fusion.
HEADER = struct.Struct("<8sII9II")
KIND_CE, KIND_MICE = 0, 1


def checkpoint_entries(path):
    """The config and the ``{name: array}`` entries of the checkpoint at ``path``."""
    weights, _ = checkpoint.load_weights(path)
    return weights.config, {name: t.data for name, t in weights.named_parameters()}


def write_checkpoint(path, kind, config, entries):
    """A checkpoint file of ``kind`` and ``config`` at the baseline step,
    holding ``entries`` (name -> array) in order."""
    blob = [HEADER.pack(checkpoint.MAGIC, kind, 0, *dataclasses.astuple(config), len(entries))]
    for name, payload in entries.items():
        raw = name.encode()
        blob.append(struct.pack(f"<I{len(raw)}sI{payload.ndim}I",
                                len(raw), raw, payload.ndim, *payload.shape))
        blob.append(np.ascontiguousarray(payload, dtype="<f4").tobytes())
    path.write_bytes(b"".join(blob))


@pytest.mark.parametrize("damage,message", [
    ("missing tensor", "checkpoint is missing tensor 'score_b'"),
    ("trailing bytes", "has 3 trailing bytes"),
    ("truncated", "truncated file"),
])
def test_damaged_checkpoint_is_data_error(ws, tmp_path, capsys, damage, message):
    model = tmp_path / "model.bin"
    blob = (ws / "ce" / "model.bin").read_bytes()
    if damage == "missing tensor":
        config, entries = checkpoint_entries(ws / "ce" / "model.bin")
        del entries["score_b"]
        write_checkpoint(model, KIND_CE, config, entries)
    else:
        model.write_bytes(blob + b"\0\0\0" if damage == "trailing bytes" else blob[:-3])
    out = tmp_path / "run.trec"
    assert dispatch(rerank_argv(ws, model, out=out)) == 2
    err = capsys.readouterr().err
    assert str(model) in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("field,value,tensor", [
    ("ff", 99, "layers.0.w1"),
    ("vocab_size", 1000, "token_emb"),
    ("hidden", 32, "token_emb"),
    ("max_doc", 17, "pos_emb"),
])
def test_header_disagreeing_with_a_tensor_is_data_error(ws, tmp_path, capsys, field, value,
                                                         tensor):
    """The header states the config once; a tensor of another shape is
    refused at load, naming the file and the tensor."""
    config, entries = checkpoint_entries(ws / "ce" / "model.bin")
    model = tmp_path / "model.bin"
    write_checkpoint(model, KIND_CE, dataclasses.replace(config, **{field: value}), entries)
    out = tmp_path / "run.trec"
    assert dispatch(rerank_argv(ws, model, out=out)) == 2
    err = capsys.readouterr().err
    assert f"{model}: {tensor} has shape {entries[tensor].shape}; the config gives" in err
    assert not out.exists()


class TestReaders:
    def test_bm25_of_an_empty_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n")
        retrieval.write_jsonl(tmp_path / "queries.jsonl", [("q1", "a")])
        out = tmp_path / "run.trec"
        assert dispatch(["bm25", "--corpus", str(corpus), "--queries",
                         str(tmp_path / "queries.jsonl"), "--out", str(out)]) == 2
        assert "empty corpus" in capsys.readouterr().err
        assert not out.exists()

    def test_bm25_of_a_corpus_with_a_number_for_an_id_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d0", "text": "a"}\n{"id": 7, "text": "b"}\n')
        retrieval.write_jsonl(tmp_path / "queries.jsonl", [("q1", "a")])
        out = tmp_path / "run.trec"
        assert dispatch(["bm25", "--corpus", str(corpus), "--queries",
                         str(tmp_path / "queries.jsonl"), "--out", str(out)]) == 2
        assert f"{corpus}:2: bad JSONL record (id must be a string, got 7)" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_bm25_ignores_a_query_term_no_document_holds(self, tmp_path):
        retrieval.write_jsonl(tmp_path / "corpus.jsonl",
                              [("d0", "alpha beta"), ("d1", "beta gamma"), ("d2", "delta")])
        retrieval.write_jsonl(tmp_path / "queries.jsonl",
                              [("known", "beta alpha"), ("unseen", "beta zeta alpha")])
        out = tmp_path / "run.trec"
        assert dispatch(["bm25", "--corpus", str(tmp_path / "corpus.jsonl"), "--queries",
                         str(tmp_path / "queries.jsonl"), "--out", str(out)]) == 0
        run = retrieval.read_trec_run(out)
        assert run["unseen"] == run["known"]
        assert [d for d, _ in run["known"]] == ["d0", "d1"]

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        """In JSONL corpora and queries, TREC runs and qrels alike."""
        corpus, queries = tmp_path / "corpus.jsonl", tmp_path / "queries.jsonl"
        corpus.write_text('\n{"id": "d0", "text": "a b"}\n\n  \n{"id": "d1", "text": "b c"}\n\n')
        queries.write_text('\n\n{"id": "q1", "text": "a"}\n\n')
        run = tmp_path / "run.trec"
        assert dispatch(["bm25", "--corpus", str(corpus), "--queries", str(queries),
                         "--out", str(run)]) == 0
        assert retrieval.read_jsonl(corpus) == [("d0", "a b"), ("d1", "b c")]
        run.write_text("\n" + run.read_text().replace("\n", "\n\n"))
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("\nq1 0 d0 1\n\n")
        assert retrieval.read_qrels(qrels) == {"q1": {"d0": 1}}
        capsys.readouterr()
        assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels)]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"


class TestInputThatIsNotUtf8:
    """Every input is read as UTF-8; a file that is not is refused naming the
    file and, for text, the line, counted as universal newlines count it."""

    TEXT = {  # reader: (good line, bad line)
        "corpus": (b'{"id": "d0", "text": "a b"}', b'{"id": "d1", "text": "caf\xe9"}'),
        "queries": (b'{"id": "q1", "text": "a"}', b'{"id": "q\xff", "text": "b"}'),
        "run": (b"q1 Q0 d0 1 2.0 t", b"q1 Q0 d\xff 2 1.0 t"),
        "qrels": (b"q1 0 d0 1", b"q\xff 0 d0 1"),
        "config": (b"steps = 2", b"# r\xe9glage"),
    }

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("reader", sorted(TEXT))
    def test_text_file_names_path_and_line(self, ws, tmp_path, capsys, reader, newline):
        good, bad = self.TEXT[reader]
        path = tmp_path / "input"
        path.write_bytes(good + newline + bad + newline)
        files = {"corpus": tmp_path / "corpus.jsonl", "queries": tmp_path / "queries.jsonl",
                 "run": tmp_path / "run.trec", "qrels": tmp_path / "qrels.tsv"}
        retrieval.write_jsonl(files["corpus"], [("d0", "a b")])
        retrieval.write_jsonl(files["queries"], [("q1", "a")])
        files["run"].write_text("q1 Q0 d0 1 2.0 t\n")
        files["qrels"].write_text("q1 0 d0 1\n")
        files[reader] = path
        out = tmp_path / "out"
        argv = {
            "corpus": ["bm25", "--corpus", path, "--queries", files["queries"], "--out", out],
            "queries": ["bm25", "--corpus", files["corpus"], "--queries", path, "--out", out],
            "run": ["eval", "--run", path, "--qrels", files["qrels"]],
            "qrels": ["eval", "--run", files["run"], "--qrels", path],
            "config": ["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir", out,
                       "--config", path, *ARCH, *SHORT],
        }[reader]
        assert dispatch([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:2: not UTF-8" in err
        assert not out.exists()

    def test_checkpoint_tensor_name_names_the_file(self, ws, tmp_path, capsys):
        blob = bytearray((ws / "ce" / "model.bin").read_bytes())
        blob[HEADER.size + 4] = 0xFF  # the first byte of the first tensor's name
        model = tmp_path / "model.bin"
        model.write_bytes(bytes(blob))
        out = tmp_path / "run.trec"
        assert dispatch(rerank_argv(ws, model, out=out)) == 2
        assert f"error: {model}: tensor name at byte {HEADER.size + 4} is not UTF-8" in (
            capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("count,train,val", [
    (1, ["q0"], ["q0"]),
    (3, ["q0", "q1"], ["q2"]),
])
def test_fewer_than_four_queries_validate_on_the_last(count, train, val):
    queries = [(f"q{i}", "a") for i in range(count)]
    assert split_queries(SynthData(corpus=[("d0", "a")], queries=queries, qrels={})) == (
        train, val)


def test_finetune_mice_trains_the_model_in_process():
    """Fine-tuning updates the cut model in place and returns its RR@10."""
    data = training.synth_corpus(seed=1, n_docs=16, n_queries=8, vocab_size=48)
    vocab = retrieval.build_vocab(text for _, text in data.corpus)
    config = ModelConfig(layers=3, hidden=16, heads=2, ff=24, vocab_size=vocab.size,
                         max_query=6, max_doc=16)
    ce = init_ce_weights(config, seed=0)
    mw = from_cross_encoder(ce, 1, 2)
    rr10 = training.finetune_mice(mw, data, steps=3, seed=0)
    assert 0.0 <= rr10 <= 1.0
    assert rr10 == training.evaluate_rr10(mw, data)
    untrained = dict(from_cross_encoder(ce, 1, 2).named_parameters())
    assert any(not np.array_equal(p.data, untrained[name].data)
               for name, p in mw.named_parameters())


@pytest.mark.parametrize("command", ["eval", "train"])
def test_qrels_judging_one_pair_twice_is_data_error(ws, tmp_path, capsys, command):
    """A second judgment of one (query, document) pair would silently
    replace the first; the reader refuses it, naming both lines."""
    qrels = tmp_path / "qrels.tsv"
    lines = (ws / "data" / "qrels.tsv").read_text().splitlines()
    qid, _, doc_id, _ = lines[0].split()
    qrels.write_text("\n".join([*lines, f"{qid} 0 {doc_id} 0"]) + "\n")
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--run", str(ws / "bm25.trec"), "--qrels", str(qrels)]
    else:
        argv = ["train", *inputs(ws, "corpus", "queries"), "--qrels", str(qrels),
                "--out-dir", str(out), *ARCH, *SHORT]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"{qrels}:{len(lines) + 1}: repeated judgment of ({qid!r}, {doc_id!r})" in err
    assert "first on line 1" in err
    assert not out.exists()


def test_sweep_without_fine_tuning_scores_qrels_of_held_out_queries_only(ws, tmp_path):
    """``--finetune-steps 0`` draws no training triple, so qrels that judge
    only the held-out queries are enough to score each cut."""
    data = SynthData(corpus=retrieval.read_jsonl(ws / "data" / "corpus.jsonl"),
                     queries=retrieval.read_jsonl(ws / "data" / "queries.jsonl"),
                     qrels=retrieval.read_qrels(ws / "data" / "qrels.tsv"))
    _, val = split_queries(data)
    qrels = tmp_path / "qrels.tsv"
    retrieval.write_qrels(qrels, {q: data.qrels[q] for q in val if q in data.qrels})
    out = tmp_path / "sweep.csv"
    assert dispatch(["sweep", "--model", str(ws / "ce" / "model.bin"),
                     *inputs(ws, "corpus", "queries"), "--qrels", str(qrels),
                     "--k-min", "1", "--k-max", "2", "--finetune-steps", "0",
                     "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()] == ["k_inter", "2", "1"]


class TestTrainLearningRate:
    """A learning rate that is not positive and finite is refused before
    anything is trained or written, naming ``lr_peak``: a negative one trains
    uphill and exits 0, and NaN fails only later, as a non-finite score."""

    def train(self, ws, tmp_path, *flags):
        return dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"),
                         "--out-dir", str(tmp_path / "out"), *ARCH, *SHORT, *flags])

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_flag_is_data_error(self, ws, tmp_path, capsys, value):
        assert self.train(ws, tmp_path, "--lr", value) == 2
        assert f"lr_peak must be positive and finite, got {float(value)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_value_is_data_error(self, ws, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("lr_peak = nan\n")
        assert self.train(ws, tmp_path, "--config", str(config)) == 2
        assert f"{config}: lr_peak must be positive and finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flag_over_a_valid_file_does_not_blame_the_file(self, ws, tmp_path, capsys):
        """The file sets ``lr_peak`` too, and is valid once ``--steps`` and
        ``--warmup`` replace its schedule; the refused value is the flag's."""
        config = tmp_path / "train.cfg"
        config.write_text("steps = 10\nwarmup_steps = 50\nlr_peak = 1e-3\n")
        assert self.train(ws, tmp_path, "--config", str(config), "--lr", "nan") == 2
        err = capsys.readouterr().err
        assert "lr_peak must be positive and finite, got nan" in err
        assert str(config) not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,field", [
    (["--layers", "0"], "layers"),
    (["--hidden", "0"], "hidden"),
    (["--ff", "0"], "ff"),
    (["--hidden", "-4"], "hidden"),
    (["--ff", "-3"], "ff"),
    (["--max-query", "0"], "max_query"),
    (["--max-doc", "-1"], "max_doc"),
])
def test_train_with_a_size_below_one_is_data_error(ws, tmp_path, capsys, flags, field):
    """A zero width used to train and then fail writing the checkpoint; a
    negative one failed inside numpy, and a negative cap in the framing.
    The refusal comes before ``--out-dir`` is created."""
    out = tmp_path / "out"
    assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"),
                     "--out-dir", str(out), *ARCH, *SHORT, *flags]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be at least 1, got {flags[1]}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,cause", [
    (["train", "--variant", "mice", "--ell-star", "0"], "--ell-star: split_depth 0 outside 1..3"),
    (["train", "--variant", "mice", "--k-inter", "9"],
     "--k-inter: interaction_layers 9 outside 1..2"),
    (["train", "--hidden", "30", "--heads", "4"], "--hidden: hidden 30 not divisible by heads 4"),
    (["train", "--steps", "-5"], "--steps: steps must not be negative, got -5"),
    (["train", "--lr", "nan"], "--lr: lr_peak must be positive and finite, got nan"),
    (["train", "--init-from", "{ws}/ce/model.bin", "--variant", "mice", "--ell-star", "5"],
     "--ell-star: split_depth 5 outside 1..3"),
    (["eval", "--metric", "rr@0"], "rr@0: the depth must be at least 1"),
    (["eval", "--metric", "ndcg@0"], "ndcg@0: the depth must be at least 1"),
    (["eval", "--run", "{tmp_path}/empty.trec"], "{tmp_path}/empty.trec: empty run"),
])
def test_refusal_names_what_was_typed(ws, tmp_path, capsys, argv, cause):
    """A value refused as a data error is named as it was typed: by the
    flag that gave it, or by the metric or path given."""
    command, *flags = (arg.format(ws=ws, tmp_path=tmp_path) for arg in argv)
    (tmp_path / "empty.trec").write_text("")
    out = tmp_path / "out"
    fixed = {
        "train": [*inputs(ws, "corpus", "queries", "qrels"), "--out-dir", str(out),
                  *([] if "--init-from" in flags else ARCH), *SHORT],
        "eval": ["--run", str(ws / "bm25.trec"), *inputs(ws, "qrels")],
    }[command]
    assert dispatch([command, *fixed, *flags]) == 2
    assert f"error: {cause.format(tmp_path=tmp_path)}" in capsys.readouterr().err
    assert not out.exists()


class TestTrainConfigFile:
    """An error in a ``--config`` file names the file, the line and the key."""

    def train(self, ws, tmp_path, text):
        config = tmp_path / "train.cfg"
        config.write_text(text)
        code = dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir",
                         str(tmp_path / "out"), "--config", str(config), *ARCH, *SHORT])
        return code, config

    def test_value_of_the_wrong_type_is_data_error(self, ws, tmp_path, capsys):
        code, config = self.train(ws, tmp_path, "# desk run\nsteps = abc\n")
        assert code == 2
        assert f"{config}:2: steps expects int, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_key_is_data_error(self, ws, tmp_path, capsys):
        """The last line would silently win over the first."""
        code, config = self.train(ws, tmp_path, "seed = 1\nsteps = 5\n\nseed = 2\n")
        assert code == 2
        assert f"{config}:4: repeated key 'seed' (first on line 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_replace_file_values_before_the_check(self, ws, tmp_path):
        """The file alone is refused (warmup 50 of 10 steps); with ``--warmup
        1`` the merged settings are valid and train 10 steps with warmup 1."""
        config = tmp_path / "train.cfg"
        config.write_text("steps = 10\nwarmup_steps = 50\nbatch_size = 2\nvalidate_every = 5\n")
        assert dispatch(["train", *inputs(ws, "corpus", "queries", "qrels"), "--out-dir",
                         str(tmp_path / "out"), "--config", str(config), *ARCH,
                         "--warmup", "1"]) == 0
        lines = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()
        expected = training.TrainConfig(steps=10, warmup_steps=1)
        assert [(m["step"], m["lr"]) for m in map(json.loads, lines)] == [
            (step, training.lr_schedule(step, expected)) for step in (5, 10)]

    def test_unknown_key_names_file_and_line(self, ws, tmp_path, capsys):
        code, config = self.train(ws, tmp_path, "steps = 5\nlearning_rate = 0.1\n")
        assert code == 2
        assert f"{config}:2: unknown config key 'learning_rate'" in capsys.readouterr().err
