"""Central finite differences against ``.grad`` for mid-fusion training: the
strong form of acceptance criterion C4.

C4's mid-fusion half has one interaction layer and one triple. There the CLS
row never reads the document, so the triple's two scores are equal, the
margin loss is constant and every gradient is zero to rounding: a backward
that dropped the query or the document path would still pass. Here the model
has two interaction layers and the batch holds three triples with distinct
queries, so the scores depend on the documents and every checked gradient
stands far above the finite-difference noise (about 1e-10).
"""

import numpy as np
import pytest

from micerank.mice import init_mice_weights, mice_train_scores
from micerank.tensor import select
from micerank.training import margin_mse
from micerank.transformer import ModelConfig

from conftest import fd_gradient

CONFIG = ModelConfig(
    layers=3, hidden=8, heads=2, ff=12, vocab_size=16,
    max_query=3, max_doc=4, split_depth=1, interaction_layers=2,
)
TRIPLES = [
    ([5, 6], [7, 8, 9], [10, 11]),
    ([12], [13, 7], [9]),
    ([14, 4, 15], [6, 5], [8, 12, 13, 7]),
]
TEACHER_POS = np.array([1.7, 0.2, 0.9])
TEACHER_NEG = np.array([0.4, 0.5, -0.3])


def scores(weights):
    """``[2, B]``: the positive pairs' scores, then the negative pairs'."""
    pairs = [(q, dp) for q, dp, _ in TRIPLES] + [(q, dn) for q, _, dn in TRIPLES]
    return mice_train_scores(pairs, weights).reshape((2, len(TRIPLES)))


def loss(weights):
    both = scores(weights)
    return margin_mse(select(both, 0, 0), select(both, 1, 0), TEACHER_POS, TEACHER_NEG)


@pytest.fixture(scope="module")
def trained_grads():
    """f64 weights with ``.grad`` from one backward. The weight matrices are
    scaled ×8 from the small initialisation; at ×1 the lower-layer gradients
    are about 5e-9, too close to the finite-difference noise to check."""
    weights = init_mice_weights(CONFIG, seed=31, dtype=np.float64)
    for _, p in weights.named_parameters():
        if p.data.ndim == 2:
            p.data *= 8.0
    loss(weights).backward()
    return weights


def test_scores_depend_on_the_document(trained_grads):
    pos, neg = scores(trained_grads).data
    assert np.abs(pos - neg).min() > 1e-5


@pytest.mark.parametrize(
    "name", ["token_emb", "lower.0.wv", "interaction.0.wk", "interaction.1.w1"]
)
def test_gradient_matches_finite_differences(trained_grads, name):
    param = dict(trained_grads.named_parameters())[name]
    assert param.grad is not None
    assert np.abs(param.grad).max() > 1e-4, "gradient too small to check anything"
    fd = fd_gradient(lambda: loss(trained_grads).item(), param.data)
    np.testing.assert_allclose(param.grad, fd, rtol=1e-5, atol=1e-9)
