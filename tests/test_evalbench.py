"""Metrics against hand-computed values, the FLOP model against a term-by-term
summation oracle, and the bench harness."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micerank.evalbench import (
    BenchReport,
    RankedList,
    bench_latency,
    count_flops,
    evaluate_run,
    ndcg_at_k,
    rr_at_k,
)
from micerank.transformer import ModelConfig


class TestRankedList:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", (("d1", 2.0), ("d1", 1.0)))

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", (("d1", 1.0), ("d2", 2.0)))

    def test_ties_allowed(self):
        RankedList("q", (("d1", 1.0), ("d2", 1.0)))


class TestMetrics:
    def test_perfect_ranking_is_one(self):
        rels = {"a": 2, "b": 1, "c": 1}
        assert ndcg_at_k(["a", "b", "c"], rels, 10) == pytest.approx(1.0)

    def test_no_relevant_retrieved_is_zero(self):
        assert ndcg_at_k(["x", "y"], {"a": 1}, 10) == 0.0

    def test_empty_relevance_is_zero(self):
        assert ndcg_at_k(["x", "y"], {}, 10) == 0.0
        assert rr_at_k(["x", "y"], {}, 10) == 0.0

    def test_two_doc_hand_case(self):
        """rels {A:1, B:2}: [B, A] is ideal (1.0); [A, B] computed by hand."""
        rels = {"A": 1, "B": 2}
        assert ndcg_at_k(["B", "A"], rels, 2) == pytest.approx(1.0, abs=1e-12)
        ideal = 3.0 / math.log2(2) + 1.0 / math.log2(3)
        dcg = 1.0 / math.log2(2) + 3.0 / math.log2(3)
        assert ndcg_at_k(["A", "B"], rels, 2) == pytest.approx(dcg / ideal, abs=1e-12)

    def test_depth_cuts_off_gains(self):
        rels = {"a": 1}
        assert ndcg_at_k(["x", "a"], rels, 1) == 0.0
        assert ndcg_at_k(["x", "a"], rels, 2) > 0.0

    def test_graded_gains_use_exponential_form(self):
        # single doc with rel 3 at rank 1: DCG = (2^3 - 1) / log2(2) = 7 = IDCG
        assert ndcg_at_k(["a"], {"a": 3}, 1) == pytest.approx(1.0)

    def test_rr_hand_cases(self):
        rels = {"hit": 1}
        assert rr_at_k(["hit", "x"], rels, 10) == 1.0
        assert rr_at_k(["x", "y", "z", "hit"], rels, 10) == 0.25
        assert rr_at_k(["x", "y"], rels, 10) == 0.0
        assert rr_at_k(["x", "x2", "x3", "x4", "x5", "hit"], rels, 5) == 0.0

    def test_duplicate_in_raw_ranking_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a", "a"], {"a": 1}, 5)

    def test_accepts_ranked_list_and_pairs(self):
        rl = RankedList("q", (("a", 3.0), ("b", 1.0)))
        assert rr_at_k(rl, {"b": 1}, 10) == 0.5
        assert rr_at_k([("a", 3.0), ("b", 1.0)], {"b": 1}, 10) == 0.5

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1}, 0)

    @given(
        n_docs=st.integers(1, 12),
        n_rel=st.integers(0, 6),
        k=st.integers(1, 15),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=80, deadline=None)
    def test_metrics_bounded(self, n_docs, n_rel, k, seed):
        rng = np.random.default_rng(seed)
        docs = [f"d{i}" for i in range(n_docs)]
        ranking = list(rng.permutation(docs))
        rels = {d: int(rng.integers(1, 4)) for d in rng.choice(docs, size=min(n_rel, n_docs), replace=False)}
        nd = ndcg_at_k(ranking, rels, k)
        rr = rr_at_k(ranking, rels, k)
        assert 0.0 <= nd <= 1.0 + 1e-12
        assert 0.0 <= rr <= 1.0

    def test_evaluate_run_means_over_queries(self):
        run = {"q1": ["a", "b"], "q2": ["b", "a"]}
        qrels = {"q1": {"a": 1}, "q2": {"a": 1}}
        assert evaluate_run(run, qrels, "rr@10") == pytest.approx(0.75)

    def test_evaluate_run_unknown_metric(self):
        with pytest.raises(ValueError):
            evaluate_run({"q": ["a"]}, {}, "map@10")
        with pytest.raises(ValueError):
            evaluate_run({"q": ["a"]}, {}, "ndcg")


# --------------------------------------------------------------------------
# FLOP accounting
# --------------------------------------------------------------------------


def oracle_layer_flops(t, src, d, f, h):
    """Spreadsheet-style independent summation, one line per term."""
    total = 0
    total += 2 * t * d * d        # query projection
    total += 2 * src * d * d      # key projection
    total += 2 * src * d * d      # value projection
    total += 2 * t * d * d        # output projection
    total += 2 * t * src * d      # attention scores
    total += 2 * t * src * d      # probability-weighted mix
    total += 4 * h * t * src      # softmax
    total += t * d                # attention residual add
    total += 8 * t * d            # layernorm after attention
    total += 2 * t * d * f        # ffn expand
    total += 10 * t * f           # gelu
    total += 2 * t * f * d        # ffn contract
    total += t * d                # ffn residual add
    total += 8 * t * d            # layernorm after ffn
    return total


def oracle_flops(cfg, n, m, mode):
    d, f, h = cfg.hidden, cfg.ff, cfg.heads
    scorer = 2 * d + 1
    if mode == "ce":
        s = n + m + 3
        return s * d + cfg.layers * oracle_layer_flops(s, s, d, f, h) + scorer
    t, sd = n + 2, m + 1
    total = t * d + cfg.split_depth * oracle_layer_flops(t, t, d, f, h)
    total += cfg.interaction_layers * oracle_layer_flops(t, t + sd, d, f, h) + scorer
    if mode == "mice":
        total += sd * d + cfg.split_depth * oracle_layer_flops(sd, sd, d, f, h)
    return total


MINILM_LIKE = ModelConfig(
    layers=12, hidden=384, heads=12, ff=1536, vocab_size=30522,
    max_query=16, max_doc=512, split_depth=4, interaction_layers=3,
)


class TestFlops:
    def test_ce_closed_form_matches_oracle(self):
        got = count_flops(MINILM_LIKE, 16, 512, "ce")
        assert got == oracle_flops(MINILM_LIKE, 16, 512, "ce")
        assert got == 28_051_787_713  # frozen after oracle confirmation

    def test_mice_modes_match_oracle(self):
        assert count_flops(MINILM_LIKE, 16, 512, "mice") == oracle_flops(
            MINILM_LIKE, 16, 512, "mice"
        ) == 10_379_183_521
        assert count_flops(MINILM_LIKE, 16, 512, "mice-precomp") == oracle_flops(
            MINILM_LIKE, 16, 512, "mice-precomp"
        ) == 1_403_932_513

    def test_oracle_agreement_on_a_grid(self):
        cfg = ModelConfig(
            layers=6, hidden=32, heads=4, ff=64, vocab_size=100,
            max_query=8, max_doc=64, split_depth=2, interaction_layers=2,
        )
        for n in (1, 3, 8):
            for m in (1, 16, 64):
                for mode in ("ce", "mice", "mice-precomp"):
                    assert count_flops(cfg, n, m, mode) == oracle_flops(cfg, n, m, mode)

    def test_strict_ordering_across_configuration_grid(self):
        """precomp < online mid-fusion < joint forward, whenever layers drop."""
        for layers, split, k in [(3, 1, 1), (6, 2, 3), (12, 4, 3), (8, 5, 2)]:
            if split + k >= layers:
                continue
            for d, h, f in [(16, 2, 32), (384, 12, 1536)]:
                cfg = ModelConfig(
                    layers=layers, hidden=d, heads=h, ff=f, vocab_size=64,
                    max_query=16, max_doc=512, split_depth=split, interaction_layers=k,
                )
                for n in (1, 4, 16):
                    for m in (max(n, 1), 64, 512):
                        if m < n:
                            continue
                        ce = count_flops(cfg, n, m, "ce")
                        mi = count_flops(cfg, n, m, "mice")
                        pc = count_flops(cfg, n, m, "mice-precomp")
                        assert pc < mi < ce, (layers, split, k, d, n, m)

    def test_minilm_like_ratio_thresholds(self):
        ce = count_flops(MINILM_LIKE, 16, 512, "ce")
        mi = count_flops(MINILM_LIKE, 16, 512, "mice")
        pc = count_flops(MINILM_LIKE, 16, 512, "mice-precomp")
        assert ce / pc >= 4.0
        assert ce / mi >= 2.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            count_flops(MINILM_LIKE, 4, 4, "colbert")

    def test_mice_mode_needs_interaction_layers(self):
        cfg = ModelConfig(
            layers=4, hidden=16, heads=2, ff=32, vocab_size=50,
            max_query=4, max_doc=8, split_depth=2,
        )
        with pytest.raises(ValueError):
            count_flops(cfg, 2, 4, "mice")


# --------------------------------------------------------------------------
# bench harness
# --------------------------------------------------------------------------

BENCH_CFG = ModelConfig(
    layers=2, hidden=16, heads=2, ff=24, vocab_size=64,
    max_query=4, max_doc=12, split_depth=1, interaction_layers=1,
)


class TestBenchReport:
    def test_json_round_trip(self):
        report = BenchReport(
            mode="ce", batch=8, n=4, m=12, latency_mean_ms=1.5, latency_std_ms=0.2,
            docs_per_second=5333.0, peak_bytes=12345, flops_per_pair=999,
            trials=10, warmup=3,
        )
        assert BenchReport(**json.loads(report.to_json())) == report

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            BenchReport(
                mode="ce", batch=1, n=1, m=1, latency_mean_ms=1, latency_std_ms=0,
                docs_per_second=1, peak_bytes=0, flops_per_pair=1,
                trials=9, warmup=3,
            )
        with pytest.raises(ValueError):
            bench_latency(BENCH_CFG, "ce", batch=2, n=2, m=4, trials=5, warmup=3)

    def test_minimum_warmup_enforced(self):
        with pytest.raises(ValueError):
            bench_latency(BENCH_CFG, "ce", batch=2, n=2, m=4, trials=10, warmup=2)


class TestBenchLatency:
    @pytest.mark.parametrize("mode", ["ce", "mice", "mice-precomp"])
    def test_smoke_all_modes(self, mode):
        report = bench_latency(BENCH_CFG, mode, batch=2, n=3, m=6, trials=10, warmup=3, seed=1)
        assert report.mode == mode
        assert report.batch == 2
        assert report.latency_mean_ms > 0
        assert report.docs_per_second > 0
        assert report.peak_bytes > 0
        assert report.flops_per_pair == count_flops(BENCH_CFG, 3, 6, mode)

    def test_repeat_run_is_stable(self):
        a = bench_latency(BENCH_CFG, "ce", batch=2, n=3, m=6, trials=15, warmup=3, seed=1)
        b = bench_latency(BENCH_CFG, "ce", batch=2, n=3, m=6, trials=15, warmup=3, seed=1)
        spread = 3.0 * (a.latency_std_ms + b.latency_std_ms) + 0.5
        assert abs(a.latency_mean_ms - b.latency_mean_ms) <= spread
