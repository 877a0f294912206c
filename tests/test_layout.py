"""Input layout: a scored pair is the query stream followed by the document
stream, with the same token ids, positions and segment codes, framed and
padded by one function each. One allow-matrix padder serves the square masks
of both models and the interaction layers' rectangular ones."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micerank import mice, transformer
from micerank.masking import (
    MaskStep,
    Segment,
    SegmentLayout,
    build_mask,
    interaction_mask,
)
from micerank.transformer import (
    CLS_ID,
    FIRST_WORD_ID,
    PAD_ID,
    SEP_ID,
    ModelConfig,
    frame_stream,
    joint_states,
    pad_allow,
    pad_frames,
    pair_positions,
    score_pairs,
    spec_for,
    truncate_pair,
)

CFG = ModelConfig(
    layers=3, hidden=8, heads=2, ff=12, vocab_size=40,
    max_query=4, max_doc=6, split_depth=1, interaction_layers=2,
)
CE = transformer.init_ce_weights(CFG, seed=0)
MW = mice.init_mice_weights(CFG, seed=0)

words = st.integers(FIRST_WORD_ID, CFG.vocab_size - 1)
# Lengths run past both caps, so head truncation is exercised.
pairs_strategy = st.lists(
    st.tuples(
        st.lists(words, min_size=1, max_size=CFG.max_query + 3),
        st.lists(words, min_size=1, max_size=CFG.max_doc + 3),
    ),
    min_size=1,
    max_size=4,
)


def embedded(module, run):
    """The (token ids, position ids) of each call ``run`` makes to ``module.embed``."""
    with mock.patch.object(module, "embed", wraps=module.embed) as spy:
        run()
    return [(np.asarray(c.args[1]), np.asarray(c.args[2])) for c in spy.call_args_list]


@given(pairs=pairs_strategy, step=st.sampled_from(list(MaskStep)))
@settings(max_examples=60, deadline=None)
def test_pair_is_query_stream_then_document_stream(pairs, step):
    spec = spec_for(step, CFG)
    frames, layouts = [], []
    for q, d in pairs:
        q_tokens, q_pos = frame_stream(q, Segment.Q, CFG)
        d_tokens, d_pos = frame_stream(d, Segment.D, CFG)
        qc, dc = q[: CFG.max_query], d[: CFG.max_doc]
        n, m = len(qc), len(dc)
        assert q_tokens + d_tokens == [CLS_ID, *qc, SEP_ID, *dc, SEP_ID]
        assert q_pos + d_pos == pair_positions(n, m, CFG)
        assert q_pos + d_pos == [*range(n + 2), *range(CFG.max_query + 2, CFG.max_query + 3 + m)]
        assert truncate_pair(q, d, CFG) == (qc, dc)
        frames.append((q_tokens + d_tokens, q_pos + d_pos))
        layouts.append(SegmentLayout(n, m))

    # The cross-encoder embeds exactly these frames, padded with PAD_ID, and
    # the mid-fusion streams embed the two halves of each.
    [(token_ids, pos_ids)] = embedded(transformer, lambda: score_pairs(pairs, spec, CE))
    for e, (tokens, positions) in enumerate(frames):
        s = len(tokens)
        assert token_ids[e, :s].tolist() == tokens
        assert pos_ids[e, :s].tolist() == positions
        assert (token_ids[e, s:] == PAD_ID).all()
    for (q, d), (tokens, positions) in zip(pairs, frames):
        [(q_ids, q_pos)] = embedded(mice, lambda: mice.encode_query(q, MW))
        [(d_ids, d_pos)] = embedded(mice, lambda: mice.encode_document(d, MW))
        assert [*q_ids[0], *d_ids[0]] == tokens
        assert [*q_pos[0], *d_pos[0]] == positions

    regimes = [[build_mask(layout, spec, i) for layout in layouts] for i in (1, CFG.layers)]
    token_ids, pos_ids, allows = pad_frames(frames, regimes)
    s_max = token_ids.shape[1]
    pad_rows = np.eye(s_max, dtype=bool)
    for e, (tokens, _) in enumerate(frames):
        s = len(tokens)
        assert (token_ids[e, s:] == PAD_ID).all()
        for allow, masks in zip(allows, regimes):
            np.testing.assert_array_equal(allow[e, :s, :s], masks[e].allow)
            assert not allow[e, :s, s:].any()
            np.testing.assert_array_equal(allow[e, s:], pad_rows[s:])


@pytest.mark.parametrize("depth", [0, CFG.layers + 1])
def test_joint_states_rejects_depth_outside_the_stack(depth):
    spec = spec_for(MaskStep.STEP3, CFG)
    with pytest.raises(ValueError, match=f"depth {depth} outside"):
        joint_states([5, 6], [7, 8, 9], spec, CE, depth)


def interaction_literal(sizes):
    """The joint allow matrix of a batch of (n, m) items, spelled out: CLS
    reads the query stream, query tokens read each other, SEP1 and the
    document tokens, SEP1 reads itself, nobody reads SEP2, and each pad row
    reads only itself."""
    t = max(n for n, _ in sizes) + 2
    x = max(m for _, m in sizes) + 1
    allow = np.zeros((len(sizes), t, t + x), dtype=bool)
    for e, (n, m) in enumerate(sizes):
        allow[e, 0, : n + 2] = True
        allow[e, 1 : n + 1, 1 : n + 2] = True
        allow[e, 1 : n + 1, t : t + m] = True
        allow[e, n + 1, n + 1] = True
        for row in range(n + 2, t):
            allow[e, row, row] = True
    return allow


@given(pairs=pairs_strategy)
@settings(max_examples=60, deadline=None)
def test_padded_interaction_allow(pairs):
    sizes = [(min(len(q), CFG.max_query), min(len(d), CFG.max_doc)) for q, d in pairs]
    masks = [interaction_mask(n, m) for n, m in sizes]
    allow = pad_allow(masks)
    t = max(n for n, _ in sizes) + 2
    assert allow.shape == (len(pairs), t, t + max(m for _, m in sizes) + 1)
    for e, (n, m) in enumerate(sizes):
        sq, sd = n + 2, m + 1
        np.testing.assert_array_equal(allow[e, :sq, :sq], masks[e].allow[:, :sq])
        np.testing.assert_array_equal(allow[e, :sq, t : t + sd], masks[e].allow[:, sq:])
        np.testing.assert_array_equal(allow[e, sq:], np.eye(t, allow.shape[2], dtype=bool)[sq:])
        assert not allow[e, :sq, sq:t].any()
        assert not allow[e, :sq, t + sd :].any()
    np.testing.assert_array_equal(allow, interaction_literal(sizes))

    # Every interaction layer of a cached-state batch runs under that matrix.
    items = [(q, mice.encode_document(d, MW, doc_id=str(e))) for e, (q, d) in enumerate(pairs)]
    with mock.patch.object(mice, "encoder_layer", wraps=mice.encoder_layer) as spy:
        mice.mice_score_batch(items, MW)
    joint = [c.args[1] for c in spy.call_args_list if c.kwargs.get("kv_states") is not None]
    assert len(joint) == CFG.interaction_layers
    for seen in joint:
        np.testing.assert_array_equal(seen, interaction_literal(sizes))
