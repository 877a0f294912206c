"""Each layer computes only the rows that reach the score and reads only the
columns those rows attend to (``transformer.live_allows``). The pruned
forwards of both models must score as the dense forwards do: within 1e-12 in
f64, and with identical orderings and |diff| <= 1e-6 in f32."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micerank import mice, transformer
from micerank.evalbench import ranked
from micerank.masking import MaskStep
from micerank.tensor import Tensor, select
from micerank.transformer import FIRST_WORD_ID, ModelConfig, live_allows, score_from_cls, spec_for

VOCAB = 40
MAX_QUERY, MAX_DOC = 5, 7

words = st.integers(FIRST_WORD_ID, VOCAB - 1)
queries = st.lists(words, min_size=1, max_size=MAX_QUERY + 2)
docs = st.lists(words, min_size=1, max_size=MAX_DOC + 2)


@st.composite
def batches(draw):
    """Pairs over one to three queries, so a batch mixes query lengths or,
    as a rerank chunk does, shares one query."""
    qs = draw(st.lists(queries, min_size=1, max_size=3))
    return draw(st.lists(st.tuples(st.sampled_from(qs), docs), min_size=1, max_size=5))


def config(layers, split, k=0):
    return ModelConfig(layers=layers, hidden=8, heads=2, ff=12, vocab_size=VOCAB,
                       max_query=MAX_QUERY, max_doc=MAX_DOC, split_depth=split,
                       interaction_layers=k)


def scaled(weights, factor=10.0):
    """``weights`` with every tensor scaled, so attention is far from uniform
    and a row read wrongly moves the score well beyond the tolerance."""
    for _, p in weights.named_parameters():
        p.data *= factor
    return weights


def head(states: np.ndarray, weights) -> float:
    """The score head on one example's [s, d] states."""
    return float(states[0] @ weights.score_w.data[:, 0] + weights.score_b.data[0])


def dense_ce(pairs, spec, ce, depth):
    """Scores of the padded batch with every row computed, and of each pair
    on its own through ``joint_states``."""
    batch = score_from_cls(transformer._pair_states(pairs, spec, ce, depth), ce).data
    single = [head(transformer.joint_states(q, d, spec, ce, depth), ce) for q, d in pairs]
    return batch, np.array(single)


def dense_mice(pairs, mw):
    """Each pair through ``encode_query`` and every ``interaction_layer``
    over the document's frozen states, then the score head."""
    scores = []
    for q, d in pairs:
        states = mice.encode_query(q, mw)
        doc = mice.encode_document(d, mw)
        for lw in mw.interaction:
            states = mice.interaction_layer(states, doc, lw, mw.config.heads)
        scores.append(head(states.data, mw))
    return np.array(scores)


@given(
    pairs=batches(),
    step=st.sampled_from(list(MaskStep)),
    layers=st.integers(1, 4),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_cross_encoder_scores_equal_the_dense_forward(pairs, step, layers, data, seed):
    split = data.draw(st.integers(1, layers), label="split")
    depth = data.draw(st.integers(1, layers), label="depth")
    ce = scaled(transformer.init_ce_weights(config(layers, split), seed=seed, dtype=np.float64))
    spec = spec_for(step, ce.config)
    pruned = transformer.score_pairs(pairs, spec, ce, depth=depth).data
    for dense in dense_ce(pairs, spec, ce, depth):
        np.testing.assert_allclose(pruned, dense, rtol=0, atol=1e-12)


@given(
    pairs=batches(),
    split=st.integers(1, 3),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_mid_fusion_scores_equal_the_dense_chain(pairs, split, k, seed):
    mw = scaled(mice.init_mice_weights(config(split + k, split, k), seed=seed, dtype=np.float64))
    dense = dense_mice(pairs, mw)
    items = [(q, mice.encode_document(d, mw, doc_id=str(e))) for e, (q, d) in enumerate(pairs)]
    np.testing.assert_allclose(mice.mice_score_batch(items, mw), dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mice.mice_train_scores(pairs, mw).data, dense, rtol=0, atol=1e-12)


def ranking(scores):
    return [doc for doc, _ in ranked({str(e): s for e, s in enumerate(scores)}.items(), 30)]


def rerank_chunk(rng):
    """One query and 30 candidates, as ``rerank`` scores them."""
    q = rng.integers(FIRST_WORD_ID, VOCAB, size=4).tolist()
    return [(q, rng.integers(FIRST_WORD_ID, VOCAB, size=int(m)).tolist())
            for m in rng.integers(1, MAX_DOC + 1, size=30)]


def assert_f32_close(module, score):
    """``score()`` against the same batch with every row computed: in f32
    batch composition moves last bits, so the dense reference is the same
    forward with ``live_allows`` replaced by the identity."""
    pruned = score()
    with mock.patch.object(module, "live_allows", list):
        dense = score()
    assert np.abs(pruned - dense).max() <= 1e-6
    assert ranking(pruned) == ranking(dense)


# Weights scaled by 5 give scores of order 1 in f32, as a trained model's are.
@pytest.mark.parametrize("step", list(MaskStep))
def test_f32_rerank_chunk_keeps_its_ordering(step, rng):
    ce = scaled(transformer.init_ce_weights(config(3, 1), seed=3, dtype=np.float32), 5.0)
    spec, pairs = spec_for(step, ce.config), rerank_chunk(rng)
    assert_f32_close(transformer, lambda: transformer.score_pairs(pairs, spec, ce).data)


def test_f32_mid_fusion_chunk_keeps_its_ordering(rng):
    mw = scaled(mice.init_mice_weights(config(4, 1, 3), seed=3, dtype=np.float32), 5.0)
    pairs = rerank_chunk(rng)
    items = [(q, mice.encode_document(d, mw, doc_id=str(e))) for e, (q, d) in enumerate(pairs)]
    assert_f32_close(mice, lambda: mice.mice_score_batch(items, mw))
    assert_f32_close(mice, lambda: mice.mice_train_scores(pairs, mw).data)


def test_live_rows_follow_the_allow_matrices():
    """CLS reads columns 0..2 of the top layer; row 2 reads up to column 4 in
    the layer below, so that layer keeps rows 0..2 and columns 0..4, and the
    bottom layer keeps rows 0..4 and every column row 4 reads."""
    allow = np.eye(6, dtype=bool)[None].repeat(2, axis=0)
    allow[:, 0, :3] = True
    allow[1, 2, 4] = True
    allow[0, 4, 5] = True
    bottom, middle, top = live_allows([allow, allow, allow])
    np.testing.assert_array_equal(top, allow[:, :1, :3])
    np.testing.assert_array_equal(middle, allow[:, :3, :5])
    np.testing.assert_array_equal(bottom, allow[:, :5, :6])


def test_a_sliced_select_keeps_the_axis_and_routes_its_gradient(rng):
    x = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    part = select(x, slice(1, 3), axis=1)
    assert part.shape == (2, 2, 3) and part.data.flags["C_CONTIGUOUS"]
    (part * part).sum().backward()
    expected = np.zeros_like(x.data)
    expected[:, 1:3] = 2 * x.data[:, 1:3]
    np.testing.assert_array_equal(x.grad, expected)
