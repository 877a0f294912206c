"""Mid-fusion model: stream equivalences, interaction-layer semantics,
weight surgery, freezing, and gradient flow."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from micerank import mice
from micerank.checkpoint import weights_fingerprint
from micerank.masking import MaskSpec, MaskStep, Segment
from micerank.mice import (
    ConsistencyError,
    DocState,
    from_cross_encoder,
    encode_document,
    encode_documents,
    encode_query,
    init_mice_weights,
    interaction_layer,
    mice_forward,
    mice_score_batch,
    mice_train_scores,
)
from micerank.tensor import NumericError
from micerank.transformer import (
    ModelConfig,
    cross_encoder_forward,
    init_ce_weights,
    score_pairs,
)

from conftest import assert_grads_close, fd_gradient


def make_ce(layers=5, split=3, hidden=16, heads=4, seed=2, dtype=np.float64):
    cfg = ModelConfig(
        layers=layers, hidden=hidden, heads=heads, ff=2 * hidden, vocab_size=48,
        max_query=6, max_doc=9, split_depth=split,
    )
    return init_ce_weights(cfg, seed=seed, dtype=dtype)


def random_pair(rng, cfg, n=None, m=None):
    n = n or int(rng.integers(1, cfg.max_query + 1))
    m = m or int(rng.integers(1, cfg.max_doc + 1))
    return (
        rng.integers(4, cfg.vocab_size, size=n).tolist(),
        rng.integers(4, cfg.vocab_size, size=m).tolist(),
    )


def step3_spec(cfg):
    return MaskSpec(MaskStep.STEP3, split_depth=cfg.split_depth, total_layers=cfg.layers)


class TestStreamEncoding:
    def test_query_stream_equals_joint_severed_rows(self, rng):
        from micerank.transformer import joint_states

        ce = make_ce()
        mw = from_cross_encoder(ce, 3, 1)
        for _ in range(10):
            q, d = random_pair(rng, ce.config)
            joint = joint_states(q, d, step3_spec(ce.config), ce, depth=3)
            np.testing.assert_allclose(
                encode_query(q, mw).data, joint[: len(q) + 2], atol=1e-9
            )

    def test_doc_stream_equals_joint_severed_rows(self, rng):
        from micerank.transformer import joint_states

        ce = make_ce()
        mw = from_cross_encoder(ce, 3, 1)
        for _ in range(10):
            q, d = random_pair(rng, ce.config)
            joint = joint_states(q, d, step3_spec(ce.config), ce, depth=3)
            np.testing.assert_allclose(
                encode_document(d, mw).states, joint[len(q) + 2 :], atol=1e-9
            )

    def test_single_token_query_gives_three_rows(self):
        mw = from_cross_encoder(make_ce(), 3, 1)
        out = encode_query([7], mw)
        assert out.shape == (3, 16)

    def test_encode_is_deterministic(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 1)
        q, d = random_pair(rng, mw.config)
        assert np.array_equal(encode_query(q, mw).data, encode_query(q, mw).data)
        assert np.array_equal(encode_document(d, mw).states, encode_document(d, mw).states)

    def test_identical_tokens_identical_docstate(self):
        mw = from_cross_encoder(make_ce(), 3, 1)
        a = encode_document([5, 6, 7], mw, doc_id="a")
        b = encode_document([5, 6, 7], mw, doc_id="b")
        assert a.states.tobytes() == b.states.tobytes()

    def test_empty_document_rejected(self):
        mw = from_cross_encoder(make_ce(), 3, 1)
        with pytest.raises(ValueError):
            encode_document([], mw)

    def test_docstate_shape_validated(self):
        """A state is 2-d and holds a token row and the sink row."""
        for shape in [(8,), (0, 8), (1, 8), (2, 3, 8)]:
            with pytest.raises(ValueError, match="states must be 2-d"):
                DocState(doc_id="x", states=np.zeros(shape))

    @pytest.mark.parametrize("rows", [2, 3, 9])
    def test_docstate_m_counts_token_rows(self, rows):
        assert DocState(doc_id="x", states=np.zeros((rows, 8))).m == rows - 1


class TestEncodeDocuments:
    @given(
        hidden=st.sampled_from([8, 16]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
        pool=st.lists(st.lists(st.integers(4, 47), min_size=1, max_size=14),
                      min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        batch=st.sampled_from([1, 2, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_state_is_the_document_encoded_alone(
        self, hidden, dtype, seed, pool, picks, batch
    ):
        """Documents of mixed lengths, some over ``max_doc`` (9) and some
        repeated, encoded together: each state is byte-identical to a
        one-document lower-layer forward, sits at its input position under
        its own id, is read-only and carries the weights' current digest,
        however many documents of one length a batch takes."""
        mw = from_cross_encoder(make_ce(layers=4, split=2, hidden=hidden, seed=seed,
                                        dtype=dtype), 2, 2)
        docs = [(f"d{i}", pool[p % len(pool)]) for i, p in enumerate(picks)]
        with mock.patch.object(mice, "_ENCODE_BATCH", batch):
            states = encode_documents(docs, mw)
        assert [s.doc_id for s in states] == [doc_id for doc_id, _ in docs]
        digest = weights_fingerprint(mw)
        for (_, ids), state in zip(docs, states):
            alone, lengths = mice._stream_batch([ids], Segment.D, mw)
            assert state.states.dtype == dtype
            assert state.states.tobytes() == alone.data[0].tobytes()
            assert state.m == lengths[0] - 1 == min(len(ids), mw.config.max_doc)
            assert not state.states.flags.writeable
            assert state.checkpoint_hash == digest


class TestInteractionLayer:
    def test_single_interaction_equals_truncated_masked_ce(self, rng):
        """With one interaction layer and no dropping, the model reproduces
        the severed cross-encoder truncated to split+1 layers."""
        ce = make_ce(layers=4, split=3)
        mw = from_cross_encoder(ce, 3, 1)
        spec = step3_spec(ce.config)
        for _ in range(20):
            q, d = random_pair(rng, ce.config)
            doc = encode_document(d, mw, doc_id="t")
            got = mice_forward(q, doc, mw)
            ref = cross_encoder_forward(q, d, spec, ce, depth=4)
            assert abs(got - ref) < 1e-9

    def test_zeroed_doc_rows_change_q_but_not_sep1(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        q, d = random_pair(rng, mw.config, n=4, m=5)
        doc = encode_document(d, mw, doc_id="t")
        q_states = encode_query(q, mw)
        lw = mw.interaction[0]
        out = interaction_layer(q_states, doc, lw, mw.config.heads).data
        zeroed = DocState(doc_id="t", states=np.zeros_like(doc.states),
                          checkpoint_hash=doc.checkpoint_hash)
        out_zero = interaction_layer(q_states, zeroed, lw, mw.config.heads).data
        sep1 = len(q) + 1
        np.testing.assert_array_equal(out[sep1], out_zero[sep1])
        assert np.abs(out[1 : sep1] - out_zero[1 : sep1]).max() > 1e-8

    def test_doc_perturbation_never_reaches_cls_in_layer(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        q, d = random_pair(rng, mw.config, n=4, m=5)
        doc = encode_document(d, mw, doc_id="t")
        q_states = encode_query(q, mw)
        lw = mw.interaction[0]
        base = interaction_layer(q_states, doc, lw, mw.config.heads).data
        for _ in range(3):
            noisy = DocState(
                doc_id="t",
                states=doc.states + rng.standard_normal(doc.states.shape) * 50,
                checkpoint_hash=doc.checkpoint_hash,
            )
            out = interaction_layer(q_states, noisy, lw, mw.config.heads).data
            np.testing.assert_array_equal(out[0], base[0])


class TestMiceForward:
    def test_two_interaction_layers_still_coincide_with_masked_ce(self, rng):
        """The score reads CLS, CLS reads the query rows, and the query rows
        read the document: a frozen-vs-updated document difference therefore
        needs three post-split layers to reach the score. With two, the
        severed cross-encoder and the mid-fusion model coincide exactly."""
        ce = make_ce(layers=5, split=3)
        mw = from_cross_encoder(ce, 3, 2)  # k = L - split = 2, no dropping
        spec = step3_spec(ce.config)
        for _ in range(5):
            q, d = random_pair(rng, ce.config)
            doc = encode_document(d, mw, doc_id="x")
            assert mice_forward(q, doc, mw) == cross_encoder_forward(q, d, spec, ce, depth=5)

    def test_two_interaction_layers_read_the_document_and_one_does_not(self, rng):
        """The k = 2 anchor above compares scores that depend on the
        document. At k = 1 CLS reads only query rows, so another document
        can move the score by rounding at most: the width of the keys and
        values follows the document's length."""
        ce = make_ce(layers=5, split=3)
        change = {}
        for k in (1, 2):
            mw = from_cross_encoder(ce, 3, k)
            change[k] = 0.0
            for _ in range(50):
                q, d1 = random_pair(rng, ce.config)
                _, d2 = random_pair(rng, ce.config)
                s1, s2 = (mice_forward(q, encode_document(d, mw), mw) for d in (d1, d2))
                change[k] = max(change[k], abs(s1 - s2))
        assert change[2] > 1e-9
        assert change[1] < 1e-12

    @given(
        split=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        q=st.lists(st.integers(4, 47), min_size=1, max_size=8),
        d1=st.lists(st.integers(4, 47), min_size=1, max_size=12),
        d2=st.lists(st.integers(4, 47), min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_interaction_layers_equal_the_severed_ce_and_read_the_document(
        self, split, seed, q, d1, d2
    ):
        """The two properties of the fixed-seed tests above, over the split,
        the init seed and the lengths: at k = 2 mid-fusion is the severed
        cross-encoder of depth split + 2 and its score moves with the
        document; at k = 1 the score does not."""
        ce = make_ce(layers=split + 2, split=split, seed=seed)
        max_doc = ce.config.max_doc
        assume(d1[:max_doc] != d2[:max_doc])
        spec = step3_spec(ce.config)
        scores = {}
        for k in (1, 2):
            mw = from_cross_encoder(ce, split, k)
            scores[k] = [mice_forward(q, encode_document(d, mw), mw) for d in (d1, d2)]
        for d, score in zip((d1, d2), scores[2]):
            assert abs(score - cross_encoder_forward(q, d, spec, ce, depth=split + 2)) < 1e-12
        assert abs(scores[2][0] - scores[2][1]) > 1e-12
        assert abs(scores[1][0] - scores[1][1]) < 1e-12

    def test_diverges_from_masked_ce_with_three_interaction_layers(self, rng):
        """Frozen vs updated document rows genuinely differ once the update
        has a path to the score (three stacked interaction layers)."""
        ce = make_ce(layers=6, split=3)
        mw = from_cross_encoder(ce, 3, 3)  # k = L - split = 3, no dropping
        spec = step3_spec(ce.config)
        diffs = []
        for _ in range(10):
            q, d = random_pair(rng, ce.config)
            doc = encode_document(d, mw, doc_id="x")
            diffs.append(
                mice_forward(q, doc, mw) != cross_encoder_forward(q, d, spec, ce, depth=6)
            )
        assert any(diffs)

    def test_deterministic(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        q, d = random_pair(rng, mw.config)
        doc = encode_document(d, mw, doc_id="x")
        assert mice_forward(q, doc, mw) == mice_forward(q, doc, mw)

    def test_batched_equals_per_example(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        items = []
        for i in range(6):
            q, d = random_pair(rng, mw.config)
            items.append((q, encode_document(d, mw, doc_id=str(i))))
        batch = mice_score_batch(items, mw)
        singles = [mice_forward(q, doc, mw) for q, doc in items]
        np.testing.assert_allclose(batch, singles, atol=1e-9)

    def test_online_training_path_matches_cached_path(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        pairs = [random_pair(rng, mw.config) for _ in range(4)]
        online = mice_train_scores(pairs, mw).data
        cached = mice_score_batch(
            [(q, encode_document(d, mw, doc_id=str(i))) for i, (q, d) in enumerate(pairs)],
            mw,
        )
        np.testing.assert_allclose(online, cached, atol=1e-9)

    def test_frozen_states_unchanged_by_scoring(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        q, d = random_pair(rng, mw.config)
        doc = encode_document(d, mw, doc_id="x")
        before = doc.states.tobytes()
        for _ in range(3):
            mice_forward(q, doc, mw)
        assert doc.states.tobytes() == before

    def test_precompute_consistency_bitwise(self, rng):
        """Scoring with a kept DocState equals scoring with a fresh encode."""
        mw = from_cross_encoder(make_ce(), 3, 2)
        q, d = random_pair(rng, mw.config)
        kept = encode_document(d, mw, doc_id="x")
        s1 = mice_forward(q, kept, mw)
        s2 = mice_forward(q, encode_document(d, mw, doc_id="x"), mw)
        assert s1 == s2

    def test_checkpoint_hash_mismatch_rejected(self, rng):
        mw = from_cross_encoder(make_ce(seed=2), 3, 2)
        other = from_cross_encoder(make_ce(seed=99), 3, 2)
        q, d = random_pair(rng, mw.config)
        doc = encode_document(d, other, doc_id="x")
        with pytest.raises(ConsistencyError):
            mice_forward(q, doc, mw)

    def test_unstamped_state_fits_any_checkpoint(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        q, d = random_pair(rng, mw.config)
        stamped = encode_document(d, mw, doc_id="x")
        unstamped = DocState(doc_id="x", states=stamped.states)
        assert mice_forward(q, unstamped, mw) == mice_forward(q, stamped, mw)

    def test_hidden_width_mismatch_rejected(self, rng):
        mw = from_cross_encoder(make_ce(), 3, 2)
        doc = DocState(doc_id="x", states=np.zeros((4, 8)))
        with pytest.raises(ConsistencyError):
            mice_forward([5], doc, mw)


@pytest.mark.parametrize("scorer", ["score_pairs", "mice_score_batch", "mice_train_scores"])
def test_nan_score_is_numeric_error(scorer, rng):
    """Every batched scorer reads its scores through ``score_from_cls``,
    which refuses a score that is not finite."""
    ce = make_ce(layers=3, split=1)
    mw = from_cross_encoder(ce, 1, 2)
    pairs = [random_pair(rng, ce.config) for _ in range(3)]
    run = {
        "score_pairs": lambda: score_pairs(pairs, step3_spec(ce.config), ce),
        "mice_score_batch": lambda: mice_score_batch(
            [(q, encode_document(d, mw)) for q, d in pairs], mw),
        "mice_train_scores": lambda: mice_train_scores(pairs, mw),
    }[scorer]
    ce.score_b.data[:] = np.nan
    mw.score_b.data[:] = np.nan
    with pytest.raises(NumericError, match="non-finite relevance score"):
        run()


class TestWeightSurgery:
    def test_minilm_like_split_keeps_seven_of_twelve(self):
        ce = make_ce(layers=12, split=4, hidden=8, heads=2, seed=1, dtype=np.float32)
        mw = from_cross_encoder(ce, 4, 3)
        assert len(mw.lower) == 4
        assert len(mw.interaction) == 3
        assert mw.config.layers == 7

    def test_no_drop_preserves_parameter_count(self):
        ce = make_ce(layers=5, split=3)
        mw = from_cross_encoder(ce, 3, 2)
        assert mw.parameter_count() == ce.parameter_count()

    def test_retained_tensors_byte_identical(self):
        ce = make_ce(layers=6, split=2, dtype=np.float32)
        mw = from_cross_encoder(ce, 2, 3)
        ce_names = dict(ce.named_parameters())
        pairs = [("token_emb", "token_emb"), ("pos_emb", "pos_emb"),
                 ("score_w", "score_w"), ("score_b", "score_b")]
        pairs += [(f"lower.{i}.wq", f"layers.{i}.wq") for i in range(2)]
        pairs += [(f"interaction.{i}.w2", f"layers.{2 + i}.w2") for i in range(3)]
        mice_names = dict(mw.named_parameters())
        for mice_name, ce_name in pairs:
            assert mice_names[mice_name].data.tobytes() == ce_names[ce_name].data.tobytes()

    def test_surgery_copies_rather_than_aliases(self):
        ce = make_ce(layers=4, split=2)
        mw = from_cross_encoder(ce, 2, 1)
        mw.lower[0].wq.data[0, 0] += 1.0
        assert ce.layers[0].wq.data[0, 0] != mw.lower[0].wq.data[0, 0]

    @settings(max_examples=60, deadline=None)
    @given(layers=st.integers(1, 5), split=st.integers(-1, 6), k=st.integers(-1, 6))
    def test_one_cut_rule_and_a_depth_that_counts_the_layers_held(self, layers, split, k):
        """Cutting a cross-encoder and initializing a mid-fusion model of the
        same config both succeed exactly when 1 <= split, 1 <= k and
        split + k <= layers, and the model then holds split + k layers."""
        ce = make_ce(layers=layers, split=1, hidden=4, heads=2, dtype=np.float32)
        cuts = (lambda: from_cross_encoder(ce, split, k), lambda: init_mice_weights(
            dataclasses.replace(ce.config, split_depth=split, interaction_layers=k)))
        if not (1 <= split and 1 <= k and split + k <= layers):
            for cut in cuts:
                with pytest.raises(ValueError):
                    cut()
            return
        for cut in cuts:
            mw = cut()
            assert (mw.config.split_depth, mw.config.interaction_layers) == (split, k)
            assert mw.config.layers == split + k == len(mw.lower) + len(mw.interaction)

    def test_invalid_split_rejected(self):
        ce = make_ce(layers=4, split=2)
        with pytest.raises(ValueError):
            from_cross_encoder(ce, 4, 1)
        with pytest.raises(ValueError):
            from_cross_encoder(ce, 0, 1)
        with pytest.raises(ValueError):
            from_cross_encoder(ce, 2, 0)


class TestReadsDocument:
    """``MaskSpec.reads_document`` against the forwards: one query scored
    against two documents of one length gets one score exactly when the
    predicate says the score does not read the document."""

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_equal_scores_exactly_where_the_document_is_unread(self, seed):
        """Every step, split and depth up to 4 layers. A cross-encoder run to
        ``depth`` layers is the spec at that depth; a mid-fusion model with
        ``depth - split`` interaction layers is the step-3 spec at ``depth``
        (C3)."""
        rng = np.random.default_rng(seed)
        ce = make_ce(layers=4, split=1, hidden=8, heads=2, seed=seed)
        query, doc = random_pair(rng, ce.config)
        other = [5 if doc[0] == 4 else 4, *doc[1:]]  # another first word
        for split, depth, step in itertools.product(range(1, 5), range(1, 5), MaskStep):
            spec = MaskSpec(step, split_depth=split, total_layers=4)
            unread = not spec.reads_document(depth)
            scores = [cross_encoder_forward(query, d, spec, ce, depth=depth)
                      for d in (doc, other)]
            assert (scores[0] == scores[1]) == unread, (split, depth, step)
            if step is MaskStep.STEP3 and depth > split:
                mw = from_cross_encoder(ce, split, depth - split)
                scores = [mice_forward(query, encode_document(d, mw), mw) for d in (doc, other)]
                assert (scores[0] == scores[1]) == unread, (split, depth)


class TestGradients:
    def test_every_parameter_receives_gradient(self, rng):
        cfg = ModelConfig(
            layers=3, hidden=8, heads=2, ff=12, vocab_size=24,
            max_query=4, max_doc=5, split_depth=1, interaction_layers=2,
        )
        mw = init_mice_weights(cfg, seed=7, dtype=np.float64)
        pairs = [random_pair(rng, cfg) for _ in range(3)]
        loss = (mice_train_scores(pairs, mw) * 1.0).sum()
        loss.backward()
        for name, p in mw.named_parameters():
            assert p.grad is not None, name
            assert np.abs(p.grad).max() > 0, name

    def test_score_gradient_matches_finite_differences(self, rng):
        cfg = ModelConfig(
            layers=2, hidden=8, heads=2, ff=12, vocab_size=20,
            max_query=3, max_doc=4, split_depth=1, interaction_layers=1,
        )
        mw = init_mice_weights(cfg, seed=9, dtype=np.float64)
        pairs = [([5, 6], [7, 8, 9])]

        def loss():
            return mice_train_scores(pairs, mw).sum()

        out = loss()
        out.backward()
        checks = [
            ("lower.wv", mw.lower[0].wv),
            ("inter.wk", mw.interaction[0].wk),
            ("token_emb", mw.token_emb),
            ("score_w", mw.score_w),
        ]
        for name, p in checks:
            fd = fd_gradient(lambda: loss().item(), p.data)
            assert_grads_close(p.grad, fd)
