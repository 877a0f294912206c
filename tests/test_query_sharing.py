"""Both mid-fusion forwards run each distinct query stream of a batch through
the lower layers once and share its rows among the items that carry it."""

import numpy as np
import pytest

from micerank import mice
from micerank.masking import Segment
from micerank.mice import (
    encode_document,
    init_mice_weights,
    mice_forward,
    mice_score_batch,
    mice_train_scores,
)
from micerank.tensor import no_grad, select
from micerank.training import margin_mse
from micerank.transformer import ModelConfig

from conftest import fd_gradient

CONFIG = ModelConfig(
    layers=4, hidden=16, heads=4, ff=32, vocab_size=48,
    max_query=6, max_doc=9, split_depth=2, interaction_layers=2,
)


def random_ids(rng, low, high):
    return rng.integers(4, CONFIG.vocab_size, size=int(rng.integers(low, high + 1))).tolist()


def three_queries(rng):
    """Queries of three different lengths, the last beyond ``max_query``."""
    return [random_ids(rng, 1, 1), random_ids(rng, 3, 4), random_ids(rng, 7, 8)]


def mixed_items(rng, weights, count=12):
    queries = three_queries(rng)
    docs = [random_ids(rng, 1, CONFIG.max_doc + 2) for _ in range(count)]
    with no_grad():
        states = [encode_document(d, weights, doc_id=str(i)) for i, d in enumerate(docs)]
    order = rng.permutation([i % 3 for i in range(count)])
    return [(queries[k], doc) for k, doc in zip(order, states)]


def online_pairs(items):
    """The items' queries, each paired with a document of token ids."""
    return [(q, [5 + i] * (1 + i % CONFIG.max_doc)) for i, (q, _) in enumerate(items)]


@pytest.fixture
def query_rows(monkeypatch):
    """Batch sizes of the query streams that reach ``mice.embed``; query
    streams are the ones whose positions start at 0."""
    seen = []
    real = mice.embed

    def spy(weights, token_ids, pos_ids):
        if np.asarray(pos_ids)[0, 0] == 0:
            seen.append(np.asarray(token_ids).shape[0])
        return real(weights, token_ids, pos_ids)

    monkeypatch.setattr(mice, "embed", spy)
    return seen


def per_item_query_encode(queries, weights):
    """The forward without sharing: one lower-stack query stream per item."""
    return mice._stream_batch(queries, Segment.Q, weights)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mixed_query_batch_equals_per_item_query_encode_bitwise(rng, dtype, monkeypatch):
    weights = init_mice_weights(CONFIG, seed=4, dtype=dtype)
    items = mixed_items(rng, weights)
    pairs = online_pairs(items)
    with no_grad():
        shared = mice_score_batch(items, weights), mice_train_scores(pairs, weights).data
        monkeypatch.setattr(mice, "_query_batch", per_item_query_encode)
        separate = mice_score_batch(items, weights), mice_train_scores(pairs, weights).data
    assert shared[0].tobytes() == separate[0].tobytes()
    assert shared[1].tobytes() == separate[1].tobytes()


def test_mixed_query_batch_matches_single_pairs(rng):
    """Batching itself moves scores by rounding only, as it did before the
    query rows were shared; the orderings agree."""
    weights = init_mice_weights(CONFIG, seed=4, dtype=np.float64)
    items = mixed_items(rng, weights)
    with no_grad():
        batch = mice_score_batch(items, weights)
        singles = np.array([mice_forward(q, doc, weights) for q, doc in items])
    np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


def test_single_query_chunk_encodes_query_once(rng, query_rows):
    weights = init_mice_weights(CONFIG, seed=4)
    q = random_ids(rng, 2, 5)
    docs = [random_ids(rng, 1, CONFIG.max_doc) for _ in range(16)]
    with no_grad():
        states = [encode_document(d, weights, doc_id=str(i)) for i, d in enumerate(docs)]
        # equal queries in separate lists are one query
        mice_score_batch([(list(q), s) for s in states], weights)
        mice_train_scores([(list(q), d) for d in docs], weights)
    assert query_rows == [1, 1]


def test_mixed_batch_encodes_each_distinct_query_once(rng, query_rows):
    weights = init_mice_weights(CONFIG, seed=4)
    items = mixed_items(rng, weights)
    query_rows.clear()
    with no_grad():
        mice_score_batch(items, weights)
        mice_train_scores(online_pairs(items), weights)
    assert query_rows == [3, 3]


def _triple_loss(weights, triples):
    """The training step's margin loss: positives first, then negatives."""
    pairs = [(q, dp) for q, dp, _ in triples] + [(q, dn) for q, _, dn in triples]
    both = mice_train_scores(pairs, weights).reshape((2, len(triples)))
    teacher_pos = np.array([1.7, 0.2, 0.9])
    teacher_neg = np.array([0.4, 0.5, -0.3])
    return margin_mse(select(both, 0, 0), select(both, 1, 0), teacher_pos, teacher_neg)


def test_gradient_through_shared_query_matches_finite_differences():
    """Central finite differences on every parameter, as in C4, for a batch
    in which one query carries four of the six pairs.

    Two interaction layers, because with one the CLS row never reads the
    document, so a triple's two scores are equal and the margin loss is flat.
    The weight matrices are scaled up from the small initialisation so that
    the lower-stack gradients stand well above the finite-difference noise.
    """
    config = ModelConfig(
        layers=3, hidden=8, heads=2, ff=12, vocab_size=16,
        max_query=3, max_doc=4, split_depth=1, interaction_layers=2,
    )
    weights = init_mice_weights(config, seed=23, dtype=np.float64)
    for _, p in weights.named_parameters():
        if p.data.ndim == 2:
            p.data *= 8.0
    triples = [([5, 6], [7, 8, 9], [10, 11]), ([12], [13, 7], [9]),
               ([5, 6], [14, 8, 7, 6], [11, 4, 5])]
    _triple_loss(weights, triples).backward()
    assert np.abs(weights.lower[0].wv.grad).max() > 1e-5
    for name, p in weights.named_parameters():
        fd = fd_gradient(lambda: _triple_loss(weights, triples).item(), p.data)
        np.testing.assert_allclose(p.grad, fd, rtol=1e-5, atol=1e-9, err_msg=name)
