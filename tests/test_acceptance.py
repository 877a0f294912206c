"""Acceptance criteria: structural oracles, exact equivalences, desk-scale
learning, and directional efficiency.

Each criterion prints one ``[acceptance] ... PASS/FAIL`` line (run pytest
with ``-s`` to see them live). Headline collection-scale effectiveness
numbers are out of reach at desk scale by design; what is asserted here is
exactly the checkable core: mask structure, stream independence, the
single-interaction equivalence, gradient correctness, weight surgery, cache
fidelity, learnability of the synthetic task, analytic and measured
efficiency direction, and metric arithmetic.
"""

import math
import statistics
import time

import numpy as np
import pytest

from micerank import doccache, retrieval, tensor
from micerank.evalbench import count_flops, ndcg_at_k, rr_at_k, scoring_fn
from micerank.masking import MaskSpec, MaskStep, SegmentLayout, build_mask
from micerank.mice import encode_document, from_cross_encoder, init_mice_weights, mice_train_scores
from micerank.tensor import no_grad, select
from micerank.training import (
    TrainConfig,
    margin_mse,
    synth_corpus,
    train_in_memory,
)
from micerank.transformer import ModelConfig, init_ce_weights, joint_states, score_pairs

from conftest import fd_gradient
from test_masking import STEPS_IN_ORDER, oracle_matrix


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# -- 1 ----------------------------------------------------------------------


def test_c1_mask_golden():
    """Masks equal the rule-interpreter oracle on every (size, step, regime);
    fully-severed layers are block-diagonal."""
    t0 = time.perf_counter()
    checked = 0
    for n, m in [(1, 1), (2, 3), (5, 7)]:
        layout = SegmentLayout(n, m)
        for step in STEPS_IN_ORDER:
            for severed in (False, True):
                if severed and step is not MaskStep.STEP3:
                    continue
                split, total = 3, 6
                layer = 2 if severed else 5
                spec = (
                    MaskSpec(step, split_depth=split, total_layers=total)
                    if step is MaskStep.STEP3
                    else MaskSpec(step, total_layers=total)
                )
                allow = build_mask(layout, spec, layer).allow
                assert np.array_equal(allow, oracle_matrix(layout, step, severed)), (
                    n, m, step, severed,
                )
                checked += 1
                if step is MaskStep.STEP3 and severed:
                    q_rows = slice(0, n + 2)
                    d_rows = slice(n + 2, n + m + 3)
                    assert allow[q_rows, d_rows].sum() == 0
                    assert allow[d_rows, q_rows].sum() == 0
    elapsed = time.perf_counter() - t0
    _report(
        "C1 mask golden tests",
        checked == 18 and elapsed < 1.0,
        f"({checked} mask matrices vs oracle, {elapsed * 1e3:.0f} ms)",
    )


# -- 2 ----------------------------------------------------------------------


def test_c2_stream_independence():
    """Below the split, joint step-3 rows equal isolated stream forwards
    (50 random pairs, float64, max-abs diff < 1e-9)."""
    t0 = time.perf_counter()
    config = ModelConfig(
        layers=6, hidden=16, heads=4, ff=48, vocab_size=64,
        max_query=8, max_doc=12, split_depth=3,
    )
    weights = init_ce_weights(config, seed=42, dtype=np.float64)
    mw = from_cross_encoder(weights, config.split_depth, 1)
    spec = MaskSpec(MaskStep.STEP3, split_depth=3, total_layers=6)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, config.max_query + 1))
        m = int(rng.integers(1, config.max_doc + 1))
        q = rng.integers(4, config.vocab_size, size=n).tolist()
        d = rng.integers(4, config.vocab_size, size=m).tolist()
        joint = joint_states(q, d, spec, weights, depth=3)
        from micerank.mice import encode_query

        q_iso = encode_query(q, mw).data
        d_iso = encode_document(d, mw).states
        worst = max(
            worst,
            float(np.abs(joint[: n + 2] - q_iso).max()),
            float(np.abs(joint[n + 2 :] - d_iso).max()),
        )
    elapsed = time.perf_counter() - t0
    _report(
        "C2 stream independence",
        worst < 1e-9 and elapsed < 10.0,
        f"(max |joint - isolated| = {worst:.2e} over 50 pairs, {elapsed:.1f} s)",
    )


# -- 3 ----------------------------------------------------------------------


def test_c3_single_interaction_equivalence():
    """Mid-fusion with one interaction layer equals the severed cross-encoder
    truncated to split+1 layers (100 random pairs, diff < 1e-9)."""
    t0 = time.perf_counter()
    config = ModelConfig(
        layers=6, hidden=16, heads=4, ff=48, vocab_size=64,
        max_query=8, max_doc=12, split_depth=3,
    )
    weights = init_ce_weights(config, seed=5, dtype=np.float64)
    mw = from_cross_encoder(weights, 3, 1)
    spec = MaskSpec(MaskStep.STEP3, split_depth=3, total_layers=6)
    rng = np.random.default_rng(11)
    worst = 0.0
    from micerank.mice import mice_forward
    from micerank.transformer import cross_encoder_forward

    for i in range(100):
        n = int(rng.integers(1, config.max_query + 1))
        m = int(rng.integers(1, config.max_doc + 1))
        q = rng.integers(4, config.vocab_size, size=n).tolist()
        d = rng.integers(4, config.vocab_size, size=m).tolist()
        doc = encode_document(d, mw, doc_id=str(i))
        worst = max(
            worst,
            abs(mice_forward(q, doc, mw) - cross_encoder_forward(q, d, spec, weights, depth=4)),
        )
    elapsed = time.perf_counter() - t0
    _report(
        "C3 single-interaction equivalence",
        worst < 1e-9 and elapsed < 10.0,
        f"(max score diff = {worst:.2e} over 100 pairs, {elapsed:.1f} s)",
    )


# -- 4 ----------------------------------------------------------------------


def _margin_loss_ce(weights, spec, triple):
    q, dp, dn = triple
    scores = score_pairs([(q, dp), (q, dn)], spec, weights)
    both = scores.reshape((2, 1))
    return margin_mse(select(both, 0, 0), select(both, 1, 0), np.array([1.7]), np.array([0.4]))


def _margin_loss_mice(weights, triple):
    q, dp, dn = triple
    scores = mice_train_scores([(q, dp), (q, dn)], weights)
    both = scores.reshape((2, 1))
    return margin_mse(select(both, 0, 0), select(both, 1, 0), np.array([1.7]), np.array([0.4]))


def test_c4_gradient_correctness():
    """Every parameter of a 2-layer d=8 cross-encoder and mid-fusion model
    passes central finite differences on the margin loss (step 1e-5,
    rel-err < 1e-5 with a 1e-8 absolute floor for near-zero entries)."""
    t0 = time.perf_counter()
    config = ModelConfig(
        layers=2, hidden=8, heads=2, ff=12, vocab_size=16,
        max_query=3, max_doc=4, split_depth=1, interaction_layers=1,
    )
    triple = ([5, 6], [7, 8, 9], [10, 11])
    worst = 0.0
    params_checked = 0

    ce = init_ce_weights(config, seed=21, dtype=np.float64)
    spec = MaskSpec(MaskStep.STEP3, split_depth=1, total_layers=2)
    loss = _margin_loss_ce(ce, spec, triple)
    loss.backward()
    for name, p in ce.named_parameters():
        fd = fd_gradient(lambda: _margin_loss_ce(ce, spec, triple).item(), p.data)
        np.testing.assert_allclose(p.grad, fd, rtol=1e-5, atol=1e-8, err_msg=f"ce:{name}")
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(p.grad)), 1e-3)
        worst = max(worst, float((np.abs(p.grad - fd) / scale).max()))
        params_checked += p.size

    mw = init_mice_weights(config, seed=22, dtype=np.float64)
    loss = _margin_loss_mice(mw, triple)
    loss.backward()
    for name, p in mw.named_parameters():
        fd = fd_gradient(lambda: _margin_loss_mice(mw, triple).item(), p.data)
        np.testing.assert_allclose(p.grad, fd, rtol=1e-5, atol=1e-8, err_msg=f"mice:{name}")
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(p.grad)), 1e-3)
        worst = max(worst, float((np.abs(p.grad - fd) / scale).max()))
        params_checked += p.size

    elapsed = time.perf_counter() - t0
    _report(
        "C4 gradient correctness",
        elapsed < 60.0,
        f"({params_checked} parameters, worst scaled err {worst:.2e}, {elapsed:.1f} s)",
    )


# -- 5 ----------------------------------------------------------------------


def test_c5_weight_surgery():
    """Splitting a 12-layer model at 4 with 3 interaction layers keeps
    exactly 7 layers, all byte-identical to the source."""
    config = ModelConfig(
        layers=12, hidden=16, heads=4, ff=32, vocab_size=64,
        max_query=8, max_doc=16, split_depth=4,
    )
    ce = init_ce_weights(config, seed=9, dtype=np.float32)
    mw = from_cross_encoder(ce, 4, 3)
    layer_count_ok = len(mw.lower) + len(mw.interaction) == 7 and mw.config.layers == 7

    ce_params = dict(ce.named_parameters())
    byte_ok = True
    mapping = [("token_emb", "token_emb"), ("pos_emb", "pos_emb"),
               ("score_w", "score_w"), ("score_b", "score_b")]
    for i in range(4):
        mapping += [(f"lower.{i}.{f}", f"layers.{i}.{f}") for f in
                    ("wq", "wk", "wv", "wo", "ln_attn_gain", "ln_attn_bias",
                     "w1", "w2", "ln_ffn_gain", "ln_ffn_bias")]
    for i in range(3):
        mapping += [(f"interaction.{i}.{f}", f"layers.{4 + i}.{f}") for f in
                    ("wq", "wk", "wv", "wo", "ln_attn_gain", "ln_attn_bias",
                     "w1", "w2", "ln_ffn_gain", "ln_ffn_bias")]
    mice_params = dict(mw.named_parameters())
    for mice_name, ce_name in mapping:
        if mice_params[mice_name].data.tobytes() != ce_params[ce_name].data.tobytes():
            byte_ok = False
            break
    _report(
        "C5 weight surgery",
        layer_count_ok and byte_ok,
        f"(7 of 12 layers retained, {len(mapping)} tensors byte-identical)",
    )


# -- 6 ----------------------------------------------------------------------


def test_c6_cache_fidelity(tmp_path):
    """Reranking 100 synthetic docs with cached vs online-encoded document
    states yields identical orderings; the cache round-trip is byte-exact."""
    data = synth_corpus(seed=13, n_docs=100, n_queries=8, vocab_size=128)
    vocab = retrieval.build_vocab(t for _, t in data.corpus)
    config = ModelConfig(
        layers=3, hidden=32, heads=4, ff=64, vocab_size=vocab.size,
        max_query=8, max_doc=24, split_depth=1, interaction_layers=2,
    )
    mw = init_mice_weights(config, seed=3, dtype=np.float32)
    doc_tokens = {d: retrieval.ensure_nonempty(vocab.encode(t)) for d, t in data.corpus}

    with tensor.no_grad():
        states = [encode_document(ids, mw, doc_id=d) for d, ids in sorted(doc_tokens.items())]
    path = tmp_path / "cache.bin"
    doccache.write_cache(
        path, states, hidden=config.hidden, split_depth=config.split_depth,
        checkpoint_hash=mw.fingerprint(),
    )
    cache = doccache.read_cache(path, expected_hash=mw.fingerprint())
    round_trip_ok = all(
        cache.get(doc.doc_id).states.tobytes() == doc.states.tobytes() for doc in states
    )

    online = retrieval.MiceScorer(mw, vocab, doc_tokens, batch_size=32)
    cached = retrieval.MiceCacheScorer(mw, vocab, cache, batch_size=32)
    candidates = sorted(doc_tokens)
    order_ok = True
    for qid, text in data.queries:
        a = retrieval.rerank(qid, text, candidates, online).doc_ids()
        b = retrieval.rerank(qid, text, candidates, cached).doc_ids()
        if a != b:
            order_ok = False
            break
    cache.close()
    _report(
        "C6 cache fidelity",
        round_trip_ok and order_ok,
        f"(100 docs byte-exact, {len(data.queries)} query orderings identical)",
    )


# -- 7 ----------------------------------------------------------------------


@pytest.mark.slow
def test_c7_desk_scale_learning():
    """A d=32, 3-layer cross-encoder trained 2,000 steps on the synthetic
    corpus reaches held-out RR@10 >= 0.8; the mid-fusion model built from it
    and fine-tuned 1,000 steps lands within 0.1."""
    t0 = time.perf_counter()
    data = synth_corpus(seed=0, n_docs=120, n_queries=64, vocab_size=256)
    ce_cfg = TrainConfig(
        steps=2000, batch_size=32, lr_peak=3e-3, warmup_steps=100,
        validate_every=500, seed=0, variant="step3",
        layers=3, hidden=32, heads=4, ff=64,
        max_query=8, max_doc=24, split_depth=1,
    )
    ce, ce_metrics = train_in_memory(ce_cfg, data)
    ce_rr = max(m["rr10"] for m in ce_metrics)

    mw = from_cross_encoder(ce, 1, 2)
    ft_cfg = TrainConfig(
        steps=1000, batch_size=32, lr_peak=1e-3, warmup_steps=50,
        validate_every=250, seed=0, variant="mice",
        layers=3, hidden=32, heads=4, ff=64,
        max_query=8, max_doc=24, split_depth=1, interaction_layers=2,
    )
    _, mice_metrics = train_in_memory(ft_cfg, data, weights=mw)
    mice_rr = max(m["rr10"] for m in mice_metrics)
    elapsed = time.perf_counter() - t0
    _report(
        "C7 desk-scale learning",
        ce_rr >= 0.8 and (ce_rr - mice_rr) <= 0.1 and elapsed < 600.0,
        f"(CE RR@10 {ce_rr:.3f} >= 0.8; mid-fusion {mice_rr:.3f}, gap "
        f"{ce_rr - mice_rr:+.3f} <= 0.1; {elapsed:.0f} s)",
    )


# -- 8 ----------------------------------------------------------------------


@pytest.mark.slow
def test_c8_efficiency_direction():
    """Analytic FLOPs at the MiniLM-like operating point satisfy the claimed
    ratios; measured wall-clock preserves the precomp < online < joint
    ordering at batch 8.

    The three modes' timed trials alternate, in a rotating order, and their
    medians are compared: a burst of load from another process then slows
    one trial of each mode instead of every trial of one."""
    minilm = ModelConfig(
        layers=12, hidden=384, heads=12, ff=1536, vocab_size=30522,
        max_query=16, max_doc=512, split_depth=4, interaction_layers=3,
    )
    ce_f = count_flops(minilm, 16, 512, "ce")
    mi_f = count_flops(minilm, 16, 512, "mice")
    pc_f = count_flops(minilm, 16, 512, "mice-precomp")
    analytic_ok = (ce_f / pc_f >= 4.0) and (ce_f / mi_f >= 2.0) and (pc_f < mi_f < ce_f)

    bench_cfg = ModelConfig(
        layers=8, hidden=64, heads=8, ff=256, vocab_size=1024,
        max_query=16, max_doc=256, split_depth=4, interaction_layers=3,
    )
    modes = ("ce", "mice", "mice-precomp")
    times = {mode: [] for mode in modes}
    with no_grad():
        fns = {mode: scoring_fn(bench_cfg, mode, batch=8, n=16, m=256, seed=0)
               for mode in modes}
        for _ in range(3):
            for fn in fns.values():
                fn()
        for trial in range(10):
            for mode in modes[trial % 3:] + modes[:trial % 3]:
                t0 = time.perf_counter()
                fns[mode]()
                times[mode].append((time.perf_counter() - t0) * 1e3)
    ms = {mode: statistics.median(t) for mode, t in times.items()}
    wall_ok = ms["mice-precomp"] < ms["mice"] < ms["ce"]
    detail = (
        f"(analytic CE/precomp {ce_f / pc_f:.1f}x >= 4, CE/online {ce_f / mi_f:.1f}x >= 2; "
        f"median wall-clock ms: precomp {ms['mice-precomp']:.1f} < "
        f"online {ms['mice']:.1f} < joint {ms['ce']:.1f})"
    )
    _report("C8 efficiency direction", analytic_ok and wall_ok, detail)


# -- 9 ----------------------------------------------------------------------


def test_c9_metric_oracles():
    """nDCG@10 and RR@10 match hand-computed values on five constructed
    rankings to 1e-12, including the perfect and empty-relevance edges."""
    checks = []

    # 1. perfect ranking of all relevant docs
    checks.append((ndcg_at_k(["a", "b"], {"a": 2, "b": 1}, 10), 1.0))
    checks.append((rr_at_k(["a", "b"], {"a": 2, "b": 1}, 10), 1.0))

    # 2. no relevant documents at all
    checks.append((ndcg_at_k(["a", "b"], {}, 10), 0.0))
    checks.append((rr_at_k(["a", "b"], {}, 10), 0.0))

    # 3. reversed two-doc graded case, by hand
    ideal = 3.0 / math.log2(2) + 1.0 / math.log2(3)
    dcg = 1.0 / math.log2(2) + 3.0 / math.log2(3)
    checks.append((ndcg_at_k(["A", "B"], {"A": 1, "B": 2}, 2), dcg / ideal))

    # 4. first hit at rank 4
    checks.append((rr_at_k(["x", "y", "z", "hit"], {"hit": 1}, 10), 0.25))

    # 5. relevant doc below the cutoff counts as a miss; above, discounted
    checks.append((rr_at_k(["x1", "x2", "x3", "hit"], {"hit": 1}, 3), 0.0))
    deep = ndcg_at_k(["x", "hit"], {"hit": 1}, 10)
    checks.append((deep, (1.0 / math.log2(3)) / 1.0))

    worst = max(abs(got - want) for got, want in checks)
    _report(
        "C9 metric oracles",
        worst <= 1e-12,
        f"({len(checks)} hand-computed values, worst |diff| = {worst:.1e})",
    )
