"""Tokenizer, BM25, the rerank pipeline, and the exchange file formats."""

import json
import math
import re

import pytest

from micerank.evalbench import RankedList
from micerank.retrieval import (
    bm25_retrieve,
    bm25_score,
    build_corpus_stats,
    build_vocab,
    read_jsonl,
    read_qrels,
    read_trec_run,
    rerank,
    split_terms,
    write_jsonl,
    write_qrels,
    write_trec_run,
)
from micerank.transformer import FIRST_WORD_ID, UNK_ID


class TestTokenizer:
    def test_lowercase_split(self):
        vocab = build_vocab(["a b"])
        assert vocab.encode("A b") == [vocab.id_of("a"), vocab.id_of("b")]

    def test_non_alnum_separation(self):
        assert split_terms("Hello, world!x2") == ["hello", "world", "x2"]

    def test_empty_text(self):
        vocab = build_vocab(["a"])
        assert vocab.encode("") == []

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(["apple"])
        assert vocab.encode("banana") == [UNK_ID]

    def test_stable(self):
        vocab = build_vocab(["x y z"])
        assert vocab.encode("z x,y") == vocab.encode("z x,y")

    def test_ids_dense_from_first_word_id(self):
        vocab = build_vocab(["c a b"])
        ids = sorted(vocab.token_to_id.values())
        assert ids == [FIRST_WORD_ID, FIRST_WORD_ID + 1, FIRST_WORD_ID + 2]
        assert vocab.id_of("a") == FIRST_WORD_ID  # sorted term order


class TestBM25:
    def test_absent_term_contributes_zero(self):
        stats = build_corpus_stats([("d1", "apple banana"), ("d2", "cherry")])
        assert bm25_score(["durian"], "d1", stats) == 0.0

    def test_single_doc_hand_formula(self):
        """One doc 'a b a', query [a], k1=0.9, b=0.4, evaluated by hand."""
        stats = build_corpus_stats([("d1", "a b a")])
        tf, dl, avgdl, n_docs, df = 2, 3, 3.0, 1, 1
        idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))  # ln(4/3)
        expected = idf * tf * (0.9 + 1) / (tf + 0.9 * (1 - 0.4 + 0.4 * dl / avgdl))
        assert bm25_score(["a"], "d1", stats, k1=0.9, b=0.4) == pytest.approx(expected, rel=1e-12)

    def test_score_nondecreasing_in_tf(self):
        corpus = [("d1", "x y y y"), ("d2", "x x y y"), ("d3", "x x x y")]
        stats = build_corpus_stats(corpus)
        scores = [bm25_score(["x"], d, stats) for d in ("d1", "d2", "d3")]
        assert scores[0] < scores[1] < scores[2]

    def test_unknown_doc_rejected(self):
        stats = build_corpus_stats([("d1", "a")])
        with pytest.raises(KeyError):
            bm25_score(["a"], "zzz", stats)

    def test_retrieve_orders_and_truncates(self):
        corpus = [
            ("d1", "apple apple apple"),
            ("d2", "apple banana"),
            ("d3", "banana cherry"),
            ("d4", "cherry plum"),
        ]
        stats = build_corpus_stats(corpus)
        ranked = bm25_retrieve("apple", stats, k=2)
        assert [d for d, _ in ranked] == ["d1", "d2"]
        everything = bm25_retrieve("apple banana cherry", stats, k=100)
        assert len(everything) == 4
        scores = [s for _, s in everything]
        assert scores == sorted(scores, reverse=True)

    def test_retrieve_matches_pointwise_scores(self):
        corpus = [("d1", "a b c"), ("d2", "a a"), ("d3", "c c b")]
        stats = build_corpus_stats(corpus)
        for doc_id, score in bm25_retrieve("a c", stats, k=10):
            assert score == pytest.approx(bm25_score(["a", "c"], doc_id, stats), rel=1e-12)

    def test_duplicate_corpus_ids_rejected(self):
        with pytest.raises(ValueError):
            build_corpus_stats([("d1", "a"), ("d1", "b")])

    @pytest.mark.parametrize("k1,b,name", [
        (-1.0, 0.0, "k1"), (float("nan"), 0.4, "k1"), (0.9, -0.1, "b"), (0.9, 1.5, "b"),
    ])
    def test_parameters_out_of_range_rejected(self, k1, b, name):
        """With k1 = -1 and b = 0 a one-occurrence term divides by zero."""
        stats = build_corpus_stats([("d1", "a b"), ("d2", "a a c")])
        with pytest.raises(ValueError, match=f"BM25 {name} must"):
            bm25_retrieve("a", stats, k1=k1, b=b)
        with pytest.raises(ValueError, match=f"BM25 {name} must"):
            bm25_score(["a"], "d1", stats, k1=k1, b=b)

    def test_parameter_bounds_accepted(self):
        stats = build_corpus_stats([("d1", "a b"), ("d2", "a a c")])
        for k1, b in ((0.0, 0.0), (0.0, 1.0), (2.0, 1.0)):
            assert all(math.isfinite(s) for _, s in bm25_retrieve("a c", stats, k1=k1, b=b))


class _OverlapScorer:
    """Oracle scorer: plain token-overlap count."""

    def __init__(self, docs):
        self.docs = {d: set(t.split()) for d, t in docs}

    def score(self, query_text, candidates):
        q = set(query_text.split())
        return {c: float(len(q & self.docs[c])) for c in candidates}


class _BM25Scorer:
    """Oracle scorer: pointwise BM25."""

    def __init__(self, stats):
        self.stats = stats
        self.docs = stats.doc_len

    def score(self, query_text, candidates):
        terms = split_terms(query_text)
        return {c: bm25_score(terms, c, self.stats) for c in candidates}


class TestRerank:
    def test_bm25_scorer_is_identity_on_bm25_order(self):
        corpus = [("d1", "apple apple"), ("d2", "apple banana"), ("d3", "banana x")]
        stats = build_corpus_stats(corpus)
        first = bm25_retrieve("apple banana", stats, k=10)
        ranking = rerank("q1", "apple banana", [d for d, _ in first], _BM25Scorer(stats))
        assert ranking.doc_ids() == [d for d, _ in first]

    def test_overlap_oracle_order(self):
        docs = [("d1", "a b c"), ("d2", "a b x"), ("d3", "z z z")]
        ranking = rerank("q", "a b c", ["d3", "d2", "d1"], _OverlapScorer(docs))
        assert ranking.doc_ids() == ["d1", "d2", "d3"]

    def test_score_tie_breaks_by_doc_id(self):
        docs = [("db", "a"), ("da", "a"), ("dc", "a")]
        ranking = rerank("q", "a", ["db", "dc", "da"], _OverlapScorer(docs))
        assert ranking.doc_ids() == ["da", "db", "dc"]

    def test_k_out_truncates(self):
        docs = [(f"d{i}", "a " * (i + 1)) for i in range(5)]
        ranking = rerank("q", "a", [d for d, _ in docs], _OverlapScorer(docs), k_out=2)
        assert len(ranking.items) == 2

    def test_missing_candidate_raises_by_default(self):
        docs = [("d1", "a")]
        with pytest.raises(KeyError):
            rerank("q", "a", ["d1", "ghost"], _OverlapScorer(docs))

    def test_missing_candidate_skippable(self, caplog):
        docs = [("d1", "a")]
        with caplog.at_level("WARNING"):
            ranking = rerank("q", "a", ["d1", "ghost"], _OverlapScorer(docs), strict=False)
        assert ranking.skipped == ("ghost",)
        assert ranking.doc_ids() == ["d1"]
        assert "ghost" in caplog.text


class TestThreadedScoring:
    def test_thread_pool_matches_serial(self):
        """Chunked scoring with a worker pool returns the same scores."""
        import numpy as np

        from micerank.mice import init_mice_weights
        from micerank.retrieval import MiceScorer, build_vocab, ensure_nonempty
        from micerank.transformer import ModelConfig

        corpus = [(f"d{i}", f"w{i} w{(i * 7) % 5} common") for i in range(12)]
        vocab = build_vocab(t for _, t in corpus)
        config = ModelConfig(
            layers=2, hidden=16, heads=2, ff=24, vocab_size=vocab.size,
            max_query=4, max_doc=8, split_depth=1, interaction_layers=1,
        )
        mw = init_mice_weights(config, seed=1, dtype=np.float32)
        doc_tokens = {d: ensure_nonempty(vocab.encode(t)) for d, t in corpus}
        serial = MiceScorer(mw, vocab, doc_tokens, batch_size=3, threads=1)
        pooled = MiceScorer(mw, vocab, doc_tokens, batch_size=3, threads=3)
        candidates = sorted(doc_tokens)
        a = serial.score("common w1", candidates)
        b = pooled.score("common w1", candidates)
        assert a == b

    def test_pooled_workers_score_without_grad(self, monkeypatch):
        """Grad mode is thread-local, so a pooled chunk must not build a
        backward graph just because its worker thread never left grad mode."""
        import numpy as np

        from micerank import tensor
        from micerank.mice import init_mice_weights
        from micerank.retrieval import MiceScorer, build_vocab, ensure_nonempty
        from micerank.transformer import ModelConfig

        corpus = [(f"d{i}", f"w{i} common") for i in range(8)]
        vocab = build_vocab(t for _, t in corpus)
        config = ModelConfig(
            layers=2, hidden=8, heads=2, ff=12, vocab_size=vocab.size,
            max_query=4, max_doc=8, split_depth=1, interaction_layers=1,
        )
        mw = init_mice_weights(config, seed=1, dtype=np.float32)
        doc_tokens = {d: ensure_nonempty(vocab.encode(t)) for d, t in corpus}
        grad_modes = []
        score_chunk = MiceScorer._score_chunk

        def recording(scorer, q_ids, chunk):
            grad_modes.append(tensor.grad_enabled())
            return score_chunk(scorer, q_ids, chunk)

        monkeypatch.setattr(MiceScorer, "_score_chunk", recording)
        MiceScorer(mw, vocab, doc_tokens, batch_size=3, threads=2).score(
            "common w1", sorted(doc_tokens)
        )
        assert grad_modes == [False, False, False]

    def test_online_mice_encodes_each_document_once_and_scores_its_state(self, monkeypatch):
        """Online mid-fusion encodes a query's candidates without a state in
        one ``encode_documents`` call, so queries that share candidates
        encode each once, and never runs the training forward. With no
        ``uses`` every state is kept, and the scores are those of the
        precomputed-state scorer over the same states, bit for bit."""
        import numpy as np

        from micerank import mice
        from micerank.retrieval import MiceCacheScorer, MiceScorer, build_vocab, ensure_nonempty
        from micerank.transformer import ModelConfig

        corpus = [(f"d{i}", " ".join(f"w{j}" for j in range(i % 6 + 1))) for i in range(10)]
        vocab = build_vocab(t for _, t in corpus)
        config = ModelConfig(
            layers=3, hidden=16, heads=2, ff=24, vocab_size=vocab.size,
            max_query=4, max_doc=8, split_depth=1, interaction_layers=2,
        )
        mw = mice.init_mice_weights(config, seed=2, dtype=np.float32)
        doc_tokens = {d: ensure_nonempty(vocab.encode(t)) for d, t in corpus}
        ids = sorted(doc_tokens)
        queries = [("w0 w3", ids[:6]), ("w1", ids[3:]), ("w2 w5", ids[::2])]
        encoded = []
        encode = mice.encode_documents

        def recording(docs, weights):
            encoded.append([d for d, _ in docs])
            return encode(docs, weights)

        monkeypatch.setattr(mice, "encode_documents", recording)
        monkeypatch.setattr(mice, "mice_train_scores", None)  # called: TypeError
        scorer = MiceScorer(mw, vocab, doc_tokens, batch_size=4)
        got = [scorer.score(text, candidates) for text, candidates in queries]
        assert encoded == [ids[:6], ids[6:]]
        assert scorer.states.keys() == set(ids)
        precomp = MiceCacheScorer(mw, vocab, dict(scorer.states), batch_size=4)
        assert got == [precomp.score(text, candidates) for text, candidates in queries]


class TestFileFormats:
    def test_jsonl_round_trip(self, tmp_path):
        records = [("d1", "hello there"), ("d2", "general kenobi")]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, records)
        assert read_jsonl(path) == records

    def test_jsonl_repeated_id_names_path_line_and_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [("d0", "x"), ("d1", "y"), ("d0", "z")])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: duplicate id 'd0'")):
            read_jsonl(path)

    def test_jsonl_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "5", "null"])
    def test_jsonl_record_not_an_object_names_the_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            read_jsonl(path)

    @pytest.mark.parametrize("record,key,value", [
        ({"id": "b", "text": None}, "text", "null"),
        ({"id": 7, "text": "x"}, "id", "7"),
        ({"id": "b", "text": ["x"]}, "text", '["x"]'),
        ({"id": None, "text": "x"}, "id", "null"),
    ])
    def test_jsonl_id_or_text_not_a_string_names_the_line(self, tmp_path, record, key, value):
        """Neither is converted: a null text is not the text "None", and the
        number 7 is not the id "7"."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + json.dumps(record) + "\n")
        message = f"{path}:2: bad JSONL record ({key} must be a string, got {value})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_jsonl(path)

    def test_trec_run_round_trip(self, tmp_path):
        rankings = [
            RankedList("q1", (("d2", 2.5), ("d1", 1.25))),
            RankedList("q2", (("d3", -0.75),)),
        ]
        path = tmp_path / "run.trec"
        write_trec_run(path, rankings, tag="test")
        back = read_trec_run(path)
        assert back == {"q1": [("d2", 2.5), ("d1", 1.25)], "q2": [("d3", -0.75)]}
        line = path.read_text().splitlines()[0].split()
        assert line == ["q1", "Q0", "d2", "1", "2.500000", "test"]

    def test_trec_run_bad_columns(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 d1 1 2.0\n")
        with pytest.raises(ValueError):
            read_trec_run(path)

    @pytest.mark.parametrize("row", ["q1 Q0 d2 x 1.0 t", "q1 Q0 d2 2 high t"])
    def test_trec_run_bad_number_names_the_line(self, tmp_path, row):
        path = tmp_path / "bad.trec"
        path.write_text(f"q1 Q0 d1 1 2.0 t\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            read_trec_run(path)

    def test_trec_run_repeated_pair_names_path_query_and_doc(self, tmp_path):
        """A document may recur across queries but not within one."""
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\nq2 Q0 d1 1 3.0 t\n"
                        "q1 Q0 d1 3 0.5 t\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: query 'q1' lists document 'd1' more than once")):
            read_trec_run(path)

    def test_qrels_round_trip(self, tmp_path):
        qrels = {"q1": {"d1": 2, "d2": 0}, "q2": {"d3": 1}}
        path = tmp_path / "qrels.tsv"
        write_qrels(path, qrels)
        assert read_qrels(path) == qrels
        assert path.read_text().splitlines()[0] == "q1 0 d1 2"

    def test_qrels_bad_columns(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1 d1 2\n")
        with pytest.raises(ValueError):
            read_qrels(path)

    def test_qrels_bad_relevance_names_the_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1 0 d1 1\nq1 0 d2 yes\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            read_qrels(path)
