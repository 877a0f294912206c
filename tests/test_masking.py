"""Masking rules vs an independent rule interpreter.

The oracle starts from the all-allowed matrix and applies the cumulative
*block* rules one step at a time, so it shares no code (and no allow-set
literals) with the implementation under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micerank import masking
from micerank.masking import (
    AttentionMask,
    MaskSpec,
    MaskStep,
    Segment,
    SegmentLayout,
    build_mask,
    doc_stream_mask,
    interaction_mask,
    query_stream_mask,
)

CLS, Q, SEP1, D, SEP2 = Segment.CLS, Segment.Q, Segment.SEP1, Segment.D, Segment.SEP2
ALL_SEGMENTS = [CLS, Q, SEP1, D, SEP2]
STEPS_IN_ORDER = [MaskStep.BASELINE, MaskStep.STEP0, MaskStep.STEP1, MaskStep.STEP2, MaskStep.STEP3]

# (target, source) pairs blocked at each cumulative stage; the separators
# become strict self-only sinks at step 0 (including across SEP1<->SEP2).
_BLOCK_STAGES = {
    MaskStep.STEP0: [
        (Q, CLS), (SEP1, CLS), (SEP2, CLS), (D, CLS),
        (SEP1, Q), (SEP1, D), (SEP1, SEP2),
        (SEP2, Q), (SEP2, D), (SEP2, SEP1),
        (Q, SEP2), (D, SEP1),
    ],
    MaskStep.STEP1: [(CLS, D), (CLS, SEP2)],
    MaskStep.STEP2: [(D, Q)],
    MaskStep.STEP3: [(Q, D)],
}


def oracle_allowed(step: MaskStep, severed: bool) -> dict:
    """Interpret the cumulative block rules; returns target -> allowed set."""
    allowed = {t: set(ALL_SEGMENTS) for t in ALL_SEGMENTS}
    for stage in (MaskStep.STEP0, MaskStep.STEP1, MaskStep.STEP2, MaskStep.STEP3):
        if STEPS_IN_ORDER.index(stage) > STEPS_IN_ORDER.index(step):
            break
        if stage is MaskStep.STEP3 and not severed:
            continue
        for target, source in _BLOCK_STAGES[stage]:
            allowed[target].discard(source)
    return allowed


def oracle_matrix(layout: SegmentLayout, step: MaskStep, severed: bool) -> np.ndarray:
    allowed = oracle_allowed(step, severed)
    seg = [Segment(code) for code in layout.segments()]
    out = np.zeros((layout.length, layout.length), dtype=bool)
    for i, t in enumerate(seg):
        for j, s in enumerate(seg):
            out[i, j] = s in allowed[t]
    return out


def rows_read(target: Segment, step: MaskStep, layer: int, split: int) -> np.ndarray:
    """The rows of ``target`` positions in a (2, 3) pair's mask at ``layer``."""
    layout = SegmentLayout(2, 3)
    mask = build_mask(layout, MaskSpec(step, split_depth=split, total_layers=6), layer)
    return mask.allow[layout.segments() == target]


def reads_exactly(rows: np.ndarray, sources) -> bool:
    """True when every row reads the positions of ``sources`` and no others."""
    seg = SegmentLayout(2, 3).segments()
    return bool((rows == np.isin(seg, [int(s) for s in sources])).all())


class TestSegmentRows:
    """Each segment's rows of a built mask, one (step, segment, layer) at a time."""

    @pytest.mark.parametrize("step", STEPS_IN_ORDER)
    @pytest.mark.parametrize("target", ALL_SEGMENTS)
    @pytest.mark.parametrize("severed", [False, True])
    def test_matches_rule_interpreter(self, step, target, severed):
        # Layer 1 lies inside a split depth of 2, layer 5 past it; only step 3
        # may tell the two apart.
        layer = 1 if severed else 5
        rows = rows_read(target, step, layer, split=2)
        regime = severed and step is MaskStep.STEP3
        assert reads_exactly(rows, oracle_allowed(step, regime)[target])

    def test_step2_document_reads_itself_and_sink(self):
        assert reads_exactly(rows_read(D, MaskStep.STEP2, 1, split=0), {D, SEP2})

    def test_baseline_is_unrestricted(self):
        assert reads_exactly(rows_read(Q, MaskStep.BASELINE, 1, split=0), ALL_SEGMENTS)

    def test_step3_depends_on_layer(self):
        assert reads_exactly(rows_read(Q, MaskStep.STEP3, 2, split=4), {Q, SEP1})
        assert reads_exactly(rows_read(Q, MaskStep.STEP3, 5, split=4), {Q, SEP1, D})


class TestBuildMask:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (5, 7)])
    @pytest.mark.parametrize("step", STEPS_IN_ORDER)
    @pytest.mark.parametrize("severed", [False, True])
    def test_golden_against_oracle(self, n, m, step, severed):
        layout = SegmentLayout(n, m)
        split = 3
        layer = 2 if severed else 4
        if step is MaskStep.STEP3:
            spec = MaskSpec(step, split_depth=split, total_layers=6)
        else:
            spec = MaskSpec(step, total_layers=6)
            if severed:
                pytest.skip("severed regime only exists for step 3")
        mask = build_mask(layout, spec, layer)
        np.testing.assert_array_equal(mask.allow, oracle_matrix(layout, step, severed))

    def test_baseline_all_true(self):
        mask = build_mask(SegmentLayout(4, 6), MaskSpec(MaskStep.BASELINE), 1)
        assert mask.allow.all()

    def test_step3_minimal_pair_is_block_diagonal(self):
        spec = MaskSpec(MaskStep.STEP3, split_depth=2, total_layers=4)
        allow = build_mask(SegmentLayout(1, 1), spec, 1).allow
        assert allow.shape == (5, 5)
        # streams: {CLS, q, SEP1} = rows 0..2, {d, SEP2} = rows 3..4
        assert not allow[:3, 3:].any()
        assert not allow[3:, :3].any()

    def test_step1_cls_row_reads_query_side_only(self):
        allow = build_mask(SegmentLayout(2, 3), MaskSpec(MaskStep.STEP1), 1).allow
        assert allow.shape == (8, 8)
        np.testing.assert_array_equal(
            allow[0], [True, True, True, True, False, False, False, False]
        )

    def test_layer_out_of_range(self):
        spec = MaskSpec(MaskStep.STEP0, total_layers=4)
        with pytest.raises(ValueError):
            build_mask(SegmentLayout(2, 2), spec, 5)

    def test_invalid_layout(self):
        with pytest.raises(ValueError):
            SegmentLayout(0, 3)
        with pytest.raises(ValueError):
            SegmentLayout(3, 0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            MaskSpec(MaskStep.STEP3, split_depth=0)
        with pytest.raises(ValueError):
            MaskSpec(MaskStep.STEP3, split_depth=5, total_layers=4)


class TestInvariants:
    @given(
        n=st.integers(1, 9),
        m=st.integers(1, 9),
        layer=st.integers(1, 6),
        split=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_shrinkage_across_steps(self, n, m, layer, split):
        layout = SegmentLayout(n, m)
        previous = None
        for step in STEPS_IN_ORDER:
            spec = (
                MaskSpec(step, split_depth=split, total_layers=6)
                if step is MaskStep.STEP3
                else MaskSpec(step, total_layers=6)
            )
            allow = build_mask(layout, spec, layer).allow
            if previous is not None:
                assert (previous | allow == previous).all(), "allowed set grew"
            previous = allow

    @given(n=st.integers(1, 9), m=st.integers(1, 9), layer=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_no_empty_rows_any_step(self, n, m, layer):
        layout = SegmentLayout(n, m)
        for step in STEPS_IN_ORDER:
            spec = (
                MaskSpec(step, split_depth=3, total_layers=6)
                if step is MaskStep.STEP3
                else MaskSpec(step, total_layers=6)
            )
            assert build_mask(layout, spec, layer).allow.any(axis=1).all()

    def test_step3_severed_layers_have_zero_cross_entries(self):
        for n, m in [(1, 1), (2, 3), (5, 7)]:
            layout = SegmentLayout(n, m)
            spec = MaskSpec(MaskStep.STEP3, split_depth=4, total_layers=8)
            for layer in (1, 4):
                allow = build_mask(layout, spec, layer).allow
                q_rows = slice(0, n + 2)
                d_rows = slice(n + 2, n + m + 3)
                assert allow[q_rows, d_rows].sum() == 0
                assert allow[d_rows, q_rows].sum() == 0

    def test_empty_row_mask_rejected(self):
        with pytest.raises(ValueError):
            AttentionMask(np.array([[True, False], [False, False]]))


class TestCachingAndStreams:
    def test_cache_returns_same_object_and_is_readonly(self):
        layout = SegmentLayout(3, 4)
        spec = MaskSpec(MaskStep.STEP2, total_layers=4)
        a = build_mask(layout, spec, 1)
        b = build_mask(layout, spec, 3)  # same regime, different layer
        assert a is b
        with pytest.raises(ValueError):
            a.allow[0, 0] = False

    def test_query_stream_mask_matches_severed_block(self):
        n, m = 3, 5
        spec = MaskSpec(MaskStep.STEP3, split_depth=2, total_layers=4)
        joint = build_mask(SegmentLayout(n, m), spec, 1).allow
        np.testing.assert_array_equal(
            query_stream_mask(n).allow, joint[: n + 2, : n + 2]
        )

    def test_doc_stream_mask_matches_severed_block(self):
        n, m = 3, 5
        spec = MaskSpec(MaskStep.STEP3, split_depth=2, total_layers=4)
        joint = build_mask(SegmentLayout(n, m), spec, 1).allow
        np.testing.assert_array_equal(
            doc_stream_mask(m).allow, joint[n + 2 :, n + 2 :]
        )

    def test_interaction_mask_matches_post_split_rows(self):
        n, m = 3, 5
        spec = MaskSpec(MaskStep.STEP3, split_depth=2, total_layers=4)
        joint = build_mask(SegmentLayout(n, m), spec, 3).allow
        np.testing.assert_array_equal(interaction_mask(n, m).allow, joint[: n + 2, :])

    @pytest.mark.parametrize("mask_fn,args", [
        (query_stream_mask, (3,)),
        (doc_stream_mask, (5,)),
        (interaction_mask, (3, 5)),
    ])
    def test_stream_masks_cached_and_readonly(self, mask_fn, args):
        a = mask_fn(*args)
        assert mask_fn(*args) is a
        with pytest.raises(ValueError):
            a.allow[0, 0] = False

    def test_every_mask_cache_is_bounded(self):
        """One bounded cache holds every kind of mask, with room for all of
        them at the MiniLM point (max_query 16, max_doc 64): joint masks in
        two layer regimes, interaction masks and stream masks."""
        caches = {name: f for name, f in vars(masking).items() if hasattr(f, "cache_info")}
        assert list(caches) == ["_mask"]
        assert caches["_mask"].cache_info().maxsize >= 2 * 16 * 64 + 16 * 64 + 16 + 64


@given(n=st.integers(1, 16), m=st.integers(1, 64), step=st.sampled_from(STEPS_IN_ORDER),
       order=st.permutations(range(7)))
@settings(max_examples=40, deadline=None)
def test_one_mask_cache_never_confuses_kinds(n, m, step, order):
    """Joint, stream and interaction masks share one cache. Built in any
    order, and with a query and a document stream of the same length among
    them, each equals its part of the oracle's joint mask: the stream masks
    the diagonal blocks of the severed one, the interaction mask the query
    rows of the post-split one."""
    layout = SegmentLayout(n, m)
    severed = oracle_matrix(layout, MaskStep.STEP3, True)
    post_split = oracle_matrix(layout, MaskStep.STEP3, False)
    square = oracle_matrix(SegmentLayout(n, n), MaskStep.STEP3, True)
    spec = MaskSpec(MaskStep.STEP3, split_depth=1, total_layers=2)
    cases = [
        (lambda: build_mask(layout, spec, 1), severed),
        (lambda: build_mask(layout, spec, 2), post_split),
        (lambda: build_mask(layout, MaskSpec(step, split_depth=1), 2),
         oracle_matrix(layout, step, False)),
        (lambda: query_stream_mask(n), severed[: n + 2, : n + 2]),
        (lambda: doc_stream_mask(m), severed[n + 2 :, n + 2 :]),
        (lambda: doc_stream_mask(n), square[n + 2 :, n + 2 :]),
        (lambda: interaction_mask(n, m), post_split[: n + 2]),
    ]
    for i in order:
        build, expected = cases[i]
        np.testing.assert_array_equal(build().allow, expected, err_msg=str(i))
