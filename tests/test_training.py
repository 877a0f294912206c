"""Loss, schedule, optimizer, the synthetic task, the training loop, and the
layer-count sweep.

Long-horizon learning (RR thresholds) lives in the acceptance suite; the
runs here are kept to a few dozen steps.
"""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micerank import mice, retrieval, training
from micerank.checkpoint import load_weights, weights_fingerprint
from micerank.evalbench import evaluate_run, ranked
from micerank.masking import Segment
from micerank.tensor import NumericError, Tensor, matmul
from micerank.training import (
    Adam,
    SynthData,
    TrainConfig,
    adam_step,
    finetune_mice,
    layer_drop_sweep,
    lr_schedule,
    margin_mse,
    parse_config_text,
    split_queries,
    synth_corpus,
    teacher_margin_score,
    train,
    train_in_memory,
    write_sweep_csv,
)
from micerank.transformer import ModelConfig


class TestMarginMSE:
    def test_matching_margins_zero_loss(self):
        assert margin_mse([3.0], [1.0], [5.0], [3.0]).item() == 0.0

    def test_unit_margin_gap(self):
        # student margin 2, teacher margin 1 -> (2 - 1)^2 = 1
        assert margin_mse([2.0], [0.0], [1.5], [0.5]).item() == pytest.approx(1.0)

    def test_batch_mean_by_hand(self):
        # margin differences {0, 1, 2} -> mean of {0, 1, 4} = 5/3
        s_pos = [1.0, 2.0, 3.0]
        s_neg = [1.0, 1.0, 1.0]
        t_pos = [0.0, 0.0, 0.0]
        t_neg = [0.0, 1.0, 2.0]
        # student margins: 0, 1, 2; teacher margins: 0, -1, -2 -> diffs 0, 2, 4?
        # keep it simple: teacher margins all zero, student margins 0,1,2
        loss = margin_mse(s_pos, s_neg, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]).item()
        assert loss == pytest.approx(5 / 3)

    def test_accepts_tensors_and_backprops(self):
        s_pos = Tensor([2.0, 1.0], requires_grad=True)
        s_neg = Tensor([0.0, 0.0], requires_grad=True)
        loss = margin_mse(s_pos, s_neg, np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        loss.backward()
        # d/ds_pos of mean((m - t)^2) = 2 (m - t) / B
        np.testing.assert_allclose(s_pos.grad, [1.0, 0.0])
        np.testing.assert_allclose(s_neg.grad, [-1.0, 0.0])


class TestSchedule:
    def test_peak_at_warmup_end(self):
        cfg = TrainConfig(steps=1000, warmup_steps=100, lr_peak=2e-3)
        assert lr_schedule(100, cfg) == pytest.approx(2e-3)

    def test_zero_at_final_step(self):
        cfg = TrainConfig(steps=1000, warmup_steps=100, lr_peak=2e-3)
        assert lr_schedule(1000, cfg) == 0.0

    def test_linear_halfway_through_warmup(self):
        cfg = TrainConfig(steps=1000, warmup_steps=100, lr_peak=2e-3)
        assert lr_schedule(50, cfg) == pytest.approx(1e-3)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            lr_schedule(0, TrainConfig())

    def test_warmup_must_precede_end(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=50, warmup_steps=50)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        data = np.array([1.0, -2.0, 3.0])
        m = np.zeros(3)
        v = np.zeros(3)
        adam_step(data, np.zeros(3), m, v, t=1, lr=0.1)
        np.testing.assert_array_equal(data, [1.0, -2.0, 3.0])

    def test_constant_gradient_matches_scalar_reference(self):
        """Ten steps with g = 0.3 against a from-scratch scalar loop."""
        beta1, beta2, eps, lr, g = 0.9, 0.999, 1e-8, 0.01, 0.3
        x_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for t in range(1, 11):
            m_ref = beta1 * m_ref + (1 - beta1) * g
            v_ref = beta2 * v_ref + (1 - beta2) * g * g
            x_ref -= lr * (m_ref / (1 - beta1**t)) / ((v_ref / (1 - beta2**t)) ** 0.5 + eps)

        data = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for t in range(1, 11):
            adam_step(data, np.array([g]), m, v, t=t, lr=lr)
        assert data[0] == pytest.approx(x_ref, rel=1e-12)

    def test_moments_start_at_zero(self):
        p = Tensor(np.ones(4), requires_grad=True)
        opt = Adam([("p", p)])
        m, v = opt.moments["p"]
        assert not m.any() and not v.any() and opt.t == 0

    def test_nan_gradient_aborts_with_parameter_name(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.array([1.0, np.nan])
        opt = Adam([("layer.weight", p)])
        with pytest.raises(NumericError, match="layer.weight"):
            opt.step(0.1)

    def test_first_step_size_is_lr(self):
        # bias correction makes the very first update lr * sign(g)
        data = np.array([0.0])
        adam_step(data, np.array([0.5]), np.zeros(1), np.zeros(1), t=1, lr=0.1)
        assert data[0] == pytest.approx(-0.1, rel=1e-6)


    def test_step_updates_a_column_major_weight_in_place(self):
        """A wide weight that ``matmul`` stored column-major keeps its array
        through a step, and gets the update a row-major copy gets."""
        rng = np.random.default_rng(4)
        row_major = rng.standard_normal((256, 384))
        w = Tensor(row_major.copy(), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3, 256)))
        (matmul(x, w) * matmul(x, w)).sum().backward()
        stored = w.data
        assert stored.flags.f_contiguous and not stored.flags.c_contiguous
        reference = Tensor(row_major.copy(), requires_grad=True)
        reference.grad = w.grad.copy()
        for opt in (Adam([("w", w)]), Adam([("w", reference)])):
            opt.step(0.01)
        assert w.data is stored
        assert np.array_equal(stored, reference.data)
        assert not np.array_equal(stored, row_major)


def _dataset_bytes(data: SynthData) -> bytes:
    buf = io.StringIO()
    for rec in data.corpus + data.queries:
        buf.write(json.dumps(rec) + "\n")
    buf.write(json.dumps(data.qrels, sort_keys=True))
    return buf.getvalue().encode()


class TestSynthCorpus:
    def test_same_seed_byte_identical(self):
        a = synth_corpus(seed=7, n_docs=40, n_queries=16, vocab_size=64)
        b = synth_corpus(seed=7, n_docs=40, n_queries=16, vocab_size=64)
        assert _dataset_bytes(a) == _dataset_bytes(b)

    def test_different_seed_differs(self):
        a = synth_corpus(seed=7, n_docs=40, n_queries=16, vocab_size=64)
        b = synth_corpus(seed=8, n_docs=40, n_queries=16, vocab_size=64)
        assert _dataset_bytes(a) != _dataset_bytes(b)

    def test_too_small_vocabulary_names_the_sizes(self):
        # 2000 docs make 334 topic pools of 4 terms; the last one starts at
        # term 333 * 4, so the smallest vocabulary that fills it is 1333.
        with pytest.raises(ValueError, match=r"vocab_size 1024 .* 334 topics.* 1333"):
            synth_corpus(n_docs=2000, vocab_size=1024)

    @pytest.mark.parametrize("n_docs,n_queries,smallest", [
        (2000, 64, 1333), (60, 16, 41), (7, 64, 5), (1, 2, 5), (1, 1, 1),
    ])
    def test_smallest_vocabulary_is_accepted(self, n_docs, n_queries, smallest):
        data = synth_corpus(n_docs=n_docs, n_queries=n_queries, vocab_size=smallest)
        assert len(data.corpus) == n_docs
        if smallest > 1:
            with pytest.raises(ValueError, match="vocab_size"):
                synth_corpus(n_docs=n_docs, n_queries=n_queries, vocab_size=smallest - 1)

    def test_every_query_has_a_relevant_doc(self):
        data = synth_corpus(seed=3, n_docs=30, n_queries=25, vocab_size=80)
        for qid, _ in data.queries:
            assert data.qrels.get(qid), qid

    def test_teacher_prefers_relevant_over_disjoint_exhaustively(self):
        """The oracle teacher ranks a relevant doc above every irrelevant doc
        with disjoint vocabulary, across all generated pairs."""
        data = synth_corpus(seed=5, n_docs=36, n_queries=12, vocab_size=96)
        checked = 0
        for qid, qtext in data.queries:
            q_terms = set(qtext.split())
            rel_scores = [data.teacher(qid, d) for d in data.qrels[qid]]
            for doc_id, _ in data.corpus:
                if doc_id in data.qrels[qid]:
                    continue
                if q_terms & set(data.doc_terms(doc_id)):
                    continue  # not vocabulary-disjoint
                irrelevant = data.teacher(qid, doc_id)
                assert all(r > irrelevant for r in rel_scores)
                checked += 1
        assert checked > 0

    def test_teacher_components(self):
        assert teacher_margin_score(["a", "b"], {"a", "b"}, True) == pytest.approx(5.0)
        assert teacher_margin_score(["a", "b"], {"a"}, False) == pytest.approx(1.0)
        assert teacher_margin_score(["a"], set(), False) == 0.0

    def test_a_copy_builds_the_task_of_its_own_corpus(self):
        """The tokenized task is derived on construction: ``dataclasses.replace``
        with another corpus does not keep the first corpus's task."""
        data = synth_corpus(seed=1, n_docs=20, n_queries=10, vocab_size=48)
        assert list(data.doc_tokens) == data.doc_ids()
        smaller = dataclasses.replace(data, corpus=data.corpus[:12])
        assert list(smaller.doc_tokens) == smaller.doc_ids() != data.doc_ids()
        assert smaller.vocab == retrieval.build_vocab(text for _, text in smaller.corpus)

    @settings(max_examples=60, deadline=None)
    @given(draw=st.data())
    def test_task_of_drawn_corpus_and_qrels(self, draw):
        """Construction refuses nothing. ``train_q`` holds exactly the
        training queries of the split with a relevant corpus document and
        another document, ``positives`` their sorted relevant corpus ids and
        ``val_q`` the split's held-out queries."""
        words = st.lists(st.sampled_from(["alpha", "beta", "gamma", "7"]), max_size=3)
        doc_ids = [f"d{i}" for i in range(draw.draw(st.integers(0, 5)))]
        qids = [f"q{i}" for i in range(draw.draw(st.integers(0, 9)))]
        corpus = [(d, " ".join(draw.draw(words))) for d in doc_ids]
        queries = [(q, " ".join(draw.draw(words))) for q in qids]
        qrels = draw.draw(st.dictionaries(
            st.sampled_from([*qids, "q-unknown"]),
            st.dictionaries(st.sampled_from([*doc_ids, "d-unknown"]), st.integers(0, 2))))
        data = SynthData(corpus=corpus, queries=queries, qrels=qrels)
        train_q, val_q = split_queries(data)
        relevant = {q: sorted(d for d in doc_ids if qrels.get(q, {}).get(d, 0) > 0)
                    for q in train_q}
        assert data.val_q == val_q
        assert data.train_q == [q for q in train_q if 0 < len(relevant[q]) < len(doc_ids)]
        assert all(data.positives[q] == relevant[q] for q in data.train_q)
        vocab = retrieval.build_vocab(text for _, text in corpus)
        assert data.vocab == vocab
        assert data.doc_tokens == retrieval.token_map(corpus, vocab)
        assert data.query_tokens == retrieval.token_map(queries, vocab)

    def test_split_is_deterministic_and_disjoint(self):
        data = synth_corpus(seed=1, n_docs=20, n_queries=10, vocab_size=48)
        train_q, val_q = split_queries(data)
        assert train_q == split_queries(data)[0]
        assert not set(train_q) & set(val_q)
        assert train_q and val_q


class TestConfigFile:
    def test_round_trip(self):
        cfg = TrainConfig(steps=77, warmup_steps=11, lr_peak=5e-4, variant="step2", hidden=48)
        text = "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in dataclasses.fields(cfg))
        assert parse_config_text(text) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nsteps = 7\nwarmup_steps = 2 # inline\n")
        assert cfg.steps == 7
        assert cfg.warmup_steps == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("nonsense = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("steps\n")

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="stepX")

    @pytest.mark.parametrize("text", ["steps = -5\n", "warmup_steps = -3\n"])
    def test_negative_schedule_rejected(self, text):
        with pytest.raises(ValueError, match="must not be negative"):
            parse_config_text(text)

    @pytest.mark.parametrize("key,value", [("batch_size", 0), ("validate_every", 0),
                                           ("batch_size", -4), ("validate_every", -1)])
    def test_count_below_one_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be at least 1, got {value}"):
            parse_config_text(f"{key} = {value}\n")


@pytest.fixture(scope="module")
def tiny_data():
    return synth_corpus(seed=0, n_docs=24, n_queries=12, vocab_size=64)


def tiny_cfg(**overrides):
    base = dict(
        steps=20, batch_size=4, lr_peak=1e-3, warmup_steps=5, validate_every=10,
        seed=0, variant="baseline", layers=2, hidden=16, heads=2, ff=24,
        max_query=6, max_doc=16, split_depth=1, interaction_layers=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_steps_persists_initial_checkpoint(self, tiny_data, tmp_path):
        result = train(tiny_cfg(steps=0, warmup_steps=0), tiny_data, tmp_path)
        assert result.checkpoint_path.exists()
        assert result.metrics == []
        loaded, _ = load_weights(result.checkpoint_path)
        assert loaded.config.hidden == 16

    def test_fixed_seed_reproduces_checkpoint_bytes(self, tiny_data, tmp_path):
        r1 = train(tiny_cfg(), tiny_data, tmp_path / "a")
        r2 = train(tiny_cfg(), tiny_data, tmp_path / "b")
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        assert r1.metrics == r2.metrics

    def test_loss_decreases_over_short_run(self, tiny_data):
        _, metrics = train_in_memory(
            tiny_cfg(steps=60, validate_every=20, warmup_steps=10), tiny_data
        )
        assert metrics[-1]["loss"] < metrics[0]["loss"]

    def test_masked_variant_trains(self, tiny_data):
        _, metrics = train_in_memory(tiny_cfg(variant="step3"), tiny_data)
        assert len(metrics) == 2
        assert all(np.isfinite(m["loss"]) for m in metrics)

    def test_mice_variant_trains(self, tiny_data):
        _, metrics = train_in_memory(tiny_cfg(variant="mice"), tiny_data)
        assert len(metrics) == 2

    def test_metrics_file_is_jsonl(self, tiny_data, tmp_path):
        result = train(tiny_cfg(), tiny_data, tmp_path)
        lines = result.metrics_path.read_text().splitlines()
        assert len(lines) == len(result.metrics)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"step", "loss", "lr", "rr10"}

    def test_weights_variant_mismatch_rejected(self, tiny_data):
        from micerank.mice import init_mice_weights
        from micerank.retrieval import build_vocab

        vocab = build_vocab(t for _, t in tiny_data.corpus)
        mw = init_mice_weights(tiny_cfg().model_config(vocab.size).__class__(
            layers=2, hidden=16, heads=2, ff=24, vocab_size=vocab.size,
            max_query=6, max_doc=16, split_depth=1, interaction_layers=1,
        ), seed=0)
        with pytest.raises(ValueError):
            train_in_memory(tiny_cfg(variant="baseline"), tiny_data, weights=mw)

    def test_model_config_carries_the_architecture(self):
        cfg = tiny_cfg(variant="mice", layers=3, interaction_layers=2)
        assert cfg.model_config(40) == ModelConfig(
            layers=3, hidden=16, heads=2, ff=24, vocab_size=40,
            max_query=6, max_doc=16, split_depth=1, interaction_layers=2,
        )
        assert tiny_cfg(variant="step1").model_config(40).interaction_layers == 0

    @pytest.mark.parametrize("steps", [0, 2])
    def test_finetune_vocabulary_mismatch_rejected(self, tiny_data, steps):
        from micerank.mice import init_mice_weights

        config = tiny_cfg(variant="mice").model_config(vocab_size=9)
        with pytest.raises(ValueError, match="corpus builds"):
            finetune_mice(init_mice_weights(config), tiny_data, steps=steps)

    def test_finetune_zero_steps_just_evaluates(self, tiny_data):
        from micerank.mice import from_cross_encoder

        ce, _ = train_in_memory(tiny_cfg(steps=10, validate_every=10), tiny_data)
        mw = from_cross_encoder(ce, 1, 1)
        rr = finetune_mice(mw, tiny_data, steps=0)
        assert 0.0 <= rr <= 1.0


class TestValidation:
    """A mid-fusion validation encodes the corpus once and ranks it through
    the precomputed-state scorer."""

    @staticmethod
    def mice_model(data, seed, dtype=np.float64):
        config = tiny_cfg(variant="mice", layers=3, interaction_layers=2,
                          max_doc=12).model_config(data.vocab.size)
        return mice.init_mice_weights(config, seed=seed, dtype=dtype)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_ranking_scored_online(self, tiny_data, seed, monkeypatch):
        """Two interaction layers, so the score reads the document."""
        mw = self.mice_model(tiny_data, seed)
        cached = {}

        class RecordingScorer(retrieval.MiceCacheScorer):
            def score_ids(self, q_ids, candidates):
                cached[tuple(q_ids)] = scores = super().score_ids(q_ids, candidates)
                return scores

        monkeypatch.setattr(training, "MiceCacheScorer", RecordingScorer)
        rr = training.evaluate_rr10(mw, tiny_data)

        online = retrieval.MiceScorer(mw, tiny_data.vocab, tiny_data.doc_tokens)
        doc_ids = sorted(tiny_data.doc_ids())
        run = {}
        for q in tiny_data.val_q:
            scores = online.score_ids(tiny_data.query_tokens[q], doc_ids)
            validated = cached[tuple(tiny_data.query_tokens[q])]
            assert validated.keys() == scores.keys()
            np.testing.assert_allclose([validated[d] for d in doc_ids],
                                       [scores[d] for d in doc_ids], rtol=0, atol=1e-12)
            run[q] = ranked(scores.items(), 10)
        assert rr == evaluate_run(run, tiny_data.qrels, "rr@10")

    def test_encodes_each_length_once_and_runs_no_training_forward(self, tiny_data,
                                                                   monkeypatch):
        """Guards the saving: documents never go through the online forward,
        and the lower layers see one batch of documents per framed length."""
        mw = self.mice_model(tiny_data, 0)
        calls = {"train": 0, "doc_batches": []}

        def train_scores(*args, **kwargs):
            calls["train"] += 1
            raise AssertionError("validation ran the online training forward")

        stream_batch = mice._stream_batch

        def recording_stream_batch(streams, kind, weights):
            if kind is Segment.D:
                calls["doc_batches"].append(len(streams))
            return stream_batch(streams, kind, weights)

        monkeypatch.setattr(mice, "mice_train_scores", train_scores)
        monkeypatch.setattr(training, "mice_train_scores", train_scores)
        monkeypatch.setattr(mice, "_stream_batch", recording_stream_batch)
        training.evaluate_rr10(mw, tiny_data)
        lengths = {min(len(t), mw.config.max_doc) for t in tiny_data.doc_tokens.values()}
        assert calls["train"] == 0
        assert len(lengths) > 1
        assert len(calls["doc_batches"]) == len(lengths)
        assert sum(calls["doc_batches"]) == len(tiny_data.doc_tokens)

    def test_states_carry_the_digest_of_the_weights_they_were_encoded_with(
        self, tiny_data, monkeypatch
    ):
        """Adam updates the weights in place between validations, so each
        validation's states must carry the digest recomputed at that moment,
        not one cached at an earlier validation."""
        seen = []
        encode = training.encode_documents

        def recording_encode(docs, weights):
            states = encode(docs, weights)
            seen.append((weights_fingerprint(weights), {s.checkpoint_hash for s in states}))
            return states

        monkeypatch.setattr(training, "encode_documents", recording_encode)
        train_in_memory(tiny_cfg(variant="mice"), tiny_data)
        assert len(seen) == 2
        assert seen[0][0] != seen[1][0]
        for digest, hashes in seen:
            assert hashes == {digest}


FOUR_DOCS = [("d0", "alpha beta"), ("d1", "beta gamma"), ("d2", "gamma delta"),
             ("d3", "delta alpha")]


class TestSampler:
    """A triple's positive is a document its query judges relevant (rel > 0)
    and its negative any other document of the corpus."""

    def test_judged_non_relevant_documents_are_negatives_only(self):
        data = SynthData(
            corpus=FOUR_DOCS,
            queries=[(f"q{i}", "alpha gamma") for i in range(5)],
            qrels={
                "q0": {"d0": 1, "d1": 0, "d2": 0, "d3": 0},
                "q1": {"d1": 0},  # no relevant document
                "q2": {"d0": 1, "d1": 1, "d2": 1, "d3": 1},  # no other document
                "q4": {"d2": 2, "d9": 1},  # d9 is not in the corpus
            },
        )
        assert data.train_q == ["q0", "q4"]
        triples = training._sample_triples(np.random.default_rng(0), tiny_cfg(batch_size=64),
                                           data)
        assert {q for q, _, _ in triples} == {"q0", "q4"}
        for qid, pos, neg in triples:
            assert data.qrels[qid][pos] > 0
            assert data.qrels[qid].get(neg, 0) <= 0

    def test_query_judging_every_other_document_trains(self, tmp_path):
        """The query judges every document, so a sampler that takes negatives
        only from unjudged documents never ends; the timeout turns that hang
        into a failure."""
        retrieval.write_jsonl(tmp_path / "corpus.jsonl", FOUR_DOCS)
        retrieval.write_jsonl(tmp_path / "queries.jsonl", [("q0", "alpha")])
        retrieval.write_qrels(tmp_path / "qrels.tsv",
                              {"q0": {"d0": 1, "d1": 0, "d2": 0, "d3": 0}})
        src = str(Path(training.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "micerank", "train",
             *(f"--{name}={tmp_path / file}" for name, file in (
                 ("corpus", "corpus.jsonl"), ("queries", "queries.jsonl"),
                 ("qrels", "qrels.tsv"), ("out-dir", "model"))),
             "--steps", "3", "--warmup", "1", "--batch-size", "2", "--layers", "2",
             "--hidden", "8", "--heads", "2", "--ff", "8", "--max-query", "4",
             "--max-doc", "6"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "model" / "model.bin").exists()


# --------------------------------------------------------------------------
# layer-count sweep
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_ce():
    data = synth_corpus(seed=0, n_docs=24, n_queries=12, vocab_size=64)
    cfg = TrainConfig(
        steps=10, batch_size=4, lr_peak=1e-3, warmup_steps=2, validate_every=10,
        seed=0, variant="baseline", layers=4, hidden=16, heads=2, ff=24,
        max_query=6, max_doc=16, split_depth=2,
    )
    weights, _ = train_in_memory(cfg, data)
    return weights, data


class TestSweep:

    def test_rows_cover_requested_range_descending(self, trained_ce, caplog):
        weights, data = trained_ce
        with caplog.at_level("WARNING"):
            rows = layer_drop_sweep(weights, 2, [1, 2, 5], data, finetune_steps=0)
        ks = [k for k, _ in rows]
        assert ks == [2, 1]  # k = layers - split present; invalid 5 skipped
        assert "skipping k_inter=5" in caplog.text
        for _, metric in rows:
            assert 0.0 <= metric <= 1.0

    def test_csv_round_trip(self, trained_ce, tmp_path):
        weights, data = trained_ce
        rows = layer_drop_sweep(weights, 2, [1, 2], data, finetune_steps=0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        with open(path, newline="") as f:
            header, *back = csv.reader(f)
        assert header == ["k_inter", "rr10"]
        assert [int(k) for k, _ in back] == [k for k, _ in rows]
        for (_, a), (_, b) in zip(rows, back):
            assert float(b) == pytest.approx(a, abs=1e-6)
