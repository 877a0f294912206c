"""``rerank --mode ce`` of a step-3 cross-encoder whose depth is its split
plus 2 scores through the cut (``retrieval.CutScorer``): the split-layer
document states are the only document rows that reach the score, so each
candidate document is encoded once per command. Every other spec keeps the
joint forward (``retrieval.CrossEncoderScorer``) and never calls ``mice``.
``rerank --mode mice`` (``retrieval.MiceScorer``, which ``CutScorer``
extends) encodes each candidate once per command in the same way.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micerank import checkpoint, mice, retrieval, transformer
from micerank.cli import dispatch
from micerank.masking import MaskSpec, MaskStep
from micerank.transformer import ModelConfig, init_ce_weights

MODES = ["ce", "mice"]

POOL = 10  # documents the queries draw their candidates from


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A synthetic corpus and a candidates run in which the queries share a
    pool of documents, each query listing 6 to 10 of them."""
    root = tmp_path_factory.mktemp("cut")
    assert dispatch(["synth", "--out-dir", str(root), "--docs", "30", "--queries", "8",
                     "--vocab-size", "64", "--seed", "4"]) == 0
    docs = [d for d, _ in retrieval.read_jsonl(root / "corpus.jsonl")][:POOL]
    with open(root / "candidates.trec", "w") as f:
        for i, (qid, _) in enumerate(retrieval.read_jsonl(root / "queries.jsonl")):
            picked = (docs[i:] + docs[:i])[: 6 + i % 5]
            for rank, doc_id in enumerate(picked, start=1):
                f.write(f"{qid} Q0 {doc_id} {rank} {1.0 / rank:.6f} bm25\n")
    return root


def model_config(ws, layers, split, interaction_layers=0):
    vocab = retrieval.build_vocab(t for _, t in retrieval.read_jsonl(ws / "corpus.jsonl"))
    return ModelConfig(vocab_size=vocab.size, layers=layers, hidden=16, heads=2, ff=24,
                       max_query=6, max_doc=12, split_depth=split,
                       interaction_layers=interaction_layers)


def write_ce(ws, path, layers, split, seed=0, dtype=np.float32):
    """A random-init step-3 cross-encoder checkpoint over ``ws``'s corpus."""
    checkpoint.save_weights(path, init_ce_weights(model_config(ws, layers, split), seed=seed,
                                                  dtype=dtype), step=MaskStep.STEP3)


def write_model(ws, path, mode, dtype=np.float32):
    """A random-init checkpoint that ``rerank --mode {mode}`` scores by
    encoding documents: a 3-layer step-3 cross-encoder of split 1, or a
    mid-fusion model of split 1 and two interaction layers."""
    if mode == "ce":
        write_ce(ws, path, layers=3, split=1, dtype=dtype)
    else:
        config = model_config(ws, layers=3, split=1, interaction_layers=2)
        checkpoint.save_weights(path, mice.init_mice_weights(config, seed=0, dtype=dtype))


def rerank(ws, model, out, *flags, mode="ce"):
    """``rerank --mode {mode}`` of ``ws``'s candidates; returns the rankings
    written, with their exact scores."""
    written = {}
    write = retrieval.write_trec_run

    def record(path, rankings, tag="micerank"):
        rankings = list(rankings)
        written.update((r.query_id, r.items) for r in rankings)
        write(path, rankings, tag=tag)

    with mock.patch.object(retrieval, "write_trec_run", record):
        assert dispatch(["rerank", "--model", str(model), "--mode", mode,
                         "--queries", str(ws / "queries.jsonl"),
                         "--corpus", str(ws / "corpus.jsonl"),
                         "--candidates", str(ws / "candidates.trec"),
                         *flags, "--out", str(out)]) == 0
    return written


def joint_rankings(ws, model, split, dtype):
    """The same rankings through ``CrossEncoderScorer`` at step 3."""
    weights, _ = checkpoint.load_weights(model, dtype=dtype)
    corpus = retrieval.read_jsonl(ws / "corpus.jsonl")
    vocab = retrieval.build_vocab(t for _, t in corpus)
    spec = MaskSpec(MaskStep.STEP3, split_depth=split, total_layers=weights.config.layers)
    scorer = retrieval.CrossEncoderScorer(weights, spec, vocab, retrieval.token_map(corpus, vocab))
    run = retrieval.read_trec_run(ws / "candidates.trec")
    return {qid: retrieval.rerank(qid, text, [d for d, _ in run[qid]], scorer).items
            for qid, text in retrieval.read_jsonl(ws / "queries.jsonl")}


@settings(max_examples=12, deadline=None)
@given(split=st.integers(1, 3), seed=st.integers(0, 2**16), given_split=st.booleans())
def test_cut_ranks_as_the_joint_forward_in_f64(ws, split, seed, given_split):
    """A random-init f64 cross-encoder of depth split + 2: the cut, whether
    the split is the checkpoint's or ``--ell-star``'s, orders every query as
    the joint forward does, with scores within a few ulp. The score is a
    product of unit-scale states, so the ulp is that of 1, not of the score."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "ce.bin"
        # A given --ell-star overrides the checkpoint's own split of 1.
        write_ce(ws, model, split + 2, 1 if given_split else split, seed, np.float64)
        flags = ["--ell-star", str(split)] if given_split else []
        got = rerank(ws, model, Path(tmp) / "run.trec", "--precision", "f64", *flags)
        expected = joint_rankings(ws, model, split, np.float64)
    assert got.keys() == expected.keys()
    for qid, items in expected.items():
        assert [d for d, _ in got[qid]] == [d for d, _ in items]
        np.testing.assert_allclose([s for _, s in got[qid]], [s for _, s in items],
                                   rtol=0, atol=8 * np.finfo(np.float64).eps)


@pytest.mark.parametrize("mode", MODES)
def test_each_candidate_is_encoded_once_per_command(ws, tmp_path, monkeypatch, mode):
    """Queries share their candidates, yet each distinct one runs the lower
    layers once, in as many ``encode_documents`` calls as there are queries
    with a document not seen before; neither the joint forward nor the
    training forward runs."""
    model = tmp_path / "model.bin"
    write_model(ws, model, mode)
    encoded, calls = [], []
    encode = mice.encode_documents

    def counting(docs, weights):
        calls.append(len(docs))
        encoded.extend(doc_id for doc_id, _ in docs)
        return encode(docs, weights)

    monkeypatch.setattr(mice, "encode_documents", counting)
    monkeypatch.setattr(transformer, "score_pairs", None)  # called: TypeError
    monkeypatch.setattr(mice, "mice_train_scores", None)
    rerank(ws, model, tmp_path / "run.trec", mode=mode)
    run = retrieval.read_trec_run(ws / "candidates.trec")
    assert sorted(encoded) == sorted({d for rows in run.values() for d, _ in rows})
    assert len(encoded) == POOL
    assert 1 < len(calls) < len(run)


@pytest.mark.parametrize("mode,scorer_class", zip(MODES, ["CutScorer", "MiceScorer"]))
def test_each_state_is_dropped_after_its_last_use(ws, tmp_path, monkeypatch, mode,
                                                   scorer_class):
    """The command counts each document's listings in the candidates run, so
    after each query the memo holds exactly the documents that a query
    before it and a query after it both list, and it is empty at the end."""
    model = tmp_path / "model.bin"
    write_model(ws, model, mode)
    live, classes = [], set()
    score_ids = retrieval.MiceScorer.score_ids

    def recording(scorer, q_ids, candidates):
        scores = score_ids(scorer, q_ids, candidates)
        live.append(set(scorer.states))
        classes.add(type(scorer).__name__)
        return scores

    monkeypatch.setattr(retrieval.MiceScorer, "score_ids", recording)
    rerank(ws, model, tmp_path / "run.trec", mode=mode)
    assert classes == {scorer_class}
    run = retrieval.read_trec_run(ws / "candidates.trec")
    lists = [{d for d, _ in run[qid]} for qid, _ in retrieval.read_jsonl(ws / "queries.jsonl")]
    expected = [set().union(*lists[: i + 1]) & set().union(*lists[i + 1 :])
                for i in range(len(lists))]
    assert live == expected
    assert live[-1] == set()
    assert any(before - after for before, after in zip(live, live[1:-1]))  # mid-command


def test_documents_are_tokenized_when_first_encoded(ws, tmp_path, monkeypatch):
    """Set-up tokenizes no document: a document's text is tokenized when it
    is first a candidate, once per command."""
    model = tmp_path / "ce.bin"
    write_ce(ws, model, layers=3, split=1)
    texts = []
    encode = retrieval.Vocab.encode

    def counting(vocab, text):
        texts.append(text)
        return encode(vocab, text)

    monkeypatch.setattr(retrieval.Vocab, "encode", counting)
    rerank(ws, model, tmp_path / "run.trec")
    corpus = dict(retrieval.read_jsonl(ws / "corpus.jsonl"))
    queries = retrieval.read_jsonl(ws / "queries.jsonl")
    run = retrieval.read_trec_run(ws / "candidates.trec")
    pool = {d for rows in run.values() for d, _ in rows}
    assert sorted(texts) == sorted([corpus[d] for d in pool] + [t for _, t in queries])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_threads_and_batch_size_write_the_same_bytes(ws, tmp_path, precision, mode):
    """Chunks of 7 scored on two threads read the states that the command's
    one thread encoded, so threads change no byte. In f64 the run of chunks
    of 7 is byte-identical to the default batch's too. In f32 a pair's score
    depends on the chunk it is padded in (ROADMAP item 2), so there the
    scores agree within 1e-6."""
    model = tmp_path / "model.bin"
    write_model(ws, model, mode)
    flags = ["--precision", precision]
    runs = {name: (rerank(ws, model, tmp_path / f"{name}.trec", *flags, *extra, mode=mode),
                   (tmp_path / f"{name}.trec").read_bytes())
            for name, extra in (("default", []), ("b7", ["--batch-size", "7"]),
                                ("b7t2", ["--batch-size", "7", "--threads", "2"]))}
    assert runs["b7t2"] == runs["b7"]
    if precision == "f64":
        assert runs["b7"][1] == runs["default"][1]
    for qid, items in runs["default"][0].items():
        scores = dict(runs["b7"][0][qid])
        np.testing.assert_allclose([scores[d] for d, _ in items], [s for _, s in items],
                                   rtol=0, atol=1e-6)


@pytest.mark.parametrize("layers,split,flags", [
    (3, 1, ["--step", "2"]),  # step 2: the document rows read each other above the split
    (4, 1, []),  # step 3, layers - split = 3: the cut would freeze rows layer 3 reads
    (4, 2, ["--ell-star", "1"]),
])
def test_other_specs_run_the_joint_forward(ws, tmp_path, monkeypatch, layers, split, flags):
    model = tmp_path / "ce.bin"
    write_ce(ws, model, layers, split)
    for name in ("from_cross_encoder", "encode_documents", "mice_score_batch"):
        monkeypatch.setattr(mice, name, None)  # called: TypeError
    pairs = []
    score_pairs = transformer.score_pairs

    def counting(batch, *args, **kwargs):
        pairs.extend(batch)
        return score_pairs(batch, *args, **kwargs)

    monkeypatch.setattr(transformer, "score_pairs", counting)
    rerank(ws, model, tmp_path / "run.trec", *flags)
    run = retrieval.read_trec_run(ws / "candidates.trec")
    assert len(pairs) == sum(map(len, run.values()))
