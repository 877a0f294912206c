"""Encoder stack: reference-forward equivalence, mask structure effects,
batching, truncation, and the checkpoint format."""

import dataclasses

import numpy as np
import pytest

from micerank.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    load_weights,
    save_weights,
    serialize_weights,
    weights_fingerprint,
)
from micerank.masking import MaskSpec, MaskStep, Segment
from micerank.tensor import Tensor
from micerank.transformer import (
    CLS_ID,
    SEP_ID,
    ModelConfig,
    attention,
    cross_encoder_forward,
    embed,
    encoder_layer,
    frame_stream,
    init_ce_weights,
    joint_states,
    score_pairs,
)

from conftest import assert_grads_close, fd_gradient

BASELINE = MaskSpec(MaskStep.BASELINE)


@pytest.fixture
def config():
    return ModelConfig(
        layers=3, hidden=16, heads=4, ff=32, vocab_size=40,
        max_query=6, max_doc=10, split_depth=2,
    )


@pytest.fixture
def weights(config):
    return init_ce_weights(config, seed=11, dtype=np.float64)


def random_pair(rng, config, n=None, m=None):
    n = n or int(rng.integers(1, config.max_query + 1))
    m = m or int(rng.integers(1, config.max_doc + 1))
    q = rng.integers(4, config.vocab_size, size=n).tolist()
    d = rng.integers(4, config.vocab_size, size=m).tolist()
    return q, d


# --------------------------------------------------------------------------
# independent reference implementation (plain numpy, no masking, no batching)
# --------------------------------------------------------------------------


def ref_layernorm(x, gain, bias, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def ref_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def ref_softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def reference_unmasked_forward(q_ids, d_ids, weights):
    """Plain-numpy unmasked cross-encoder, written independently. Query
    positions count from 0; document positions from ``max_query + 2``."""
    cfg = weights.config
    n, m = len(q_ids), len(d_ids)
    ids = [CLS_ID, *q_ids, SEP_ID, *d_ids, SEP_ID]
    pos = [*range(n + 2), *range(cfg.max_query + 2, cfg.max_query + m + 3)]
    x = weights.token_emb.data[ids] + weights.pos_emb.data[pos]
    h = cfg.heads
    dh = cfg.hidden // h
    for lw in weights.layers:
        q = (x @ lw.wq.data).reshape(-1, h, dh).transpose(1, 0, 2)
        k = (x @ lw.wk.data).reshape(-1, h, dh).transpose(1, 0, 2)
        v = (x @ lw.wv.data).reshape(-1, h, dh).transpose(1, 0, 2)
        probs = ref_softmax(q @ k.transpose(0, 2, 1) / np.sqrt(dh))
        ctx = (probs @ v).transpose(1, 0, 2).reshape(-1, cfg.hidden)
        x = ref_layernorm(x + ctx @ lw.wo.data, lw.ln_attn_gain.data, lw.ln_attn_bias.data)
        ffn = ref_gelu(x @ lw.w1.data) @ lw.w2.data
        x = ref_layernorm(x + ffn, lw.ln_ffn_gain.data, lw.ln_ffn_bias.data)
    return float(x[0] @ weights.score_w.data[:, 0] + weights.score_b.data[0])


class TestModelConfig:
    @pytest.mark.parametrize("field", ["layers", "hidden", "ff", "max_query", "max_doc"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_size_below_one_is_refused(self, config, field, value):
        """A zero width builds empty tensors and a negative one fails in
        numpy; a negative length cap frames streams wrongly."""
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
            dataclasses.replace(config, **{field: value})

    @pytest.mark.parametrize("field", ["layers", "vocab_size"])
    def test_value_past_the_checkpoint_header_is_refused(self, field):
        """Every field is stored as a u32. A config holds no tensors, so a
        huge value costs nothing to build."""
        config = ModelConfig(layers=3, hidden=8, heads=2, ff=8, vocab_size=20, max_query=3,
                             max_doc=4, split_depth=1, interaction_layers=1)
        dataclasses.replace(config, **{field: 2**32 - 1})
        with pytest.raises(ValueError, match=f"^{field} must be below 2\\*\\*32, got {2**32}$"):
            dataclasses.replace(config, **{field: 2**32})


class TestEmbedding:
    def test_lookup_matches_scalar_indexing(self, weights, rng):
        ids = rng.integers(0, 40, size=(2, 5))
        pos = rng.integers(0, weights.config.position_count, size=(2, 5))
        out = embed(weights, ids, pos).data
        for b in range(2):
            for i in range(5):
                expected = weights.token_emb.data[ids[b, i]] + weights.pos_emb.data[pos[b, i]]
                np.testing.assert_array_equal(out[b, i], expected)

    def test_deterministic(self, weights, rng):
        ids = rng.integers(0, 40, size=(1, 4))
        pos = rng.integers(0, 10, size=(1, 4))
        assert np.array_equal(embed(weights, ids, pos).data, embed(weights, ids, pos).data)

    def test_out_of_range_id(self, weights):
        with pytest.raises(IndexError):
            embed(weights, np.array([[0, 40]]), np.array([[0, 1]]))


class TestEncoderLayer:
    def test_all_true_mask_matches_reference_layer(self, weights, rng):
        """The masked layer with an all-true matrix is a standard layer."""
        cfg = weights.config
        x = rng.standard_normal((1, 7, cfg.hidden))
        lw = weights.layers[0]
        out = encoder_layer(Tensor(x), np.ones((7, 7), bool), lw, cfg.heads).data[0]

        h, dh = cfg.heads, cfg.hidden // cfg.heads
        q = (x[0] @ lw.wq.data).reshape(-1, h, dh).transpose(1, 0, 2)
        k = (x[0] @ lw.wk.data).reshape(-1, h, dh).transpose(1, 0, 2)
        v = (x[0] @ lw.wv.data).reshape(-1, h, dh).transpose(1, 0, 2)
        probs = ref_softmax(q @ k.transpose(0, 2, 1) / np.sqrt(dh))
        ctx = (probs @ v).transpose(1, 0, 2).reshape(-1, cfg.hidden)
        ref = ref_layernorm(x[0] + ctx @ lw.wo.data, lw.ln_attn_gain.data, lw.ln_attn_bias.data)
        ref = ref_layernorm(
            ref + ref_gelu(ref @ lw.w1.data) @ lw.w2.data,
            lw.ln_ffn_gain.data, lw.ln_ffn_bias.data,
        )
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_block_diagonal_isolates_blocks(self, weights, rng):
        """Rows of block A are bit-identical however block B's inputs change."""
        cfg = weights.config
        allow = np.zeros((6, 6), bool)
        allow[:3, :3] = True
        allow[3:, 3:] = True
        x = rng.standard_normal((1, 6, cfg.hidden))
        base = encoder_layer(Tensor(x), allow, weights.layers[1], cfg.heads).data
        for _ in range(3):
            perturbed = x.copy()
            perturbed[0, 3:] = rng.standard_normal((3, cfg.hidden)) * 100
            out = encoder_layer(Tensor(perturbed), allow, weights.layers[1], cfg.heads).data
            np.testing.assert_array_equal(out[0, :3], base[0, :3])

    def test_self_only_row_attends_to_its_own_value(self, weights, rng):
        cfg = weights.config
        allow = np.ones((5, 5), bool)
        allow[2] = False
        allow[2, 2] = True
        x = rng.standard_normal((1, 5, cfg.hidden))
        lw = weights.layers[0]
        out = attention(Tensor(x), allow, lw, cfg.heads).data[0]
        np.testing.assert_allclose(out[2], x[0, 2] @ lw.wv.data @ lw.wo.data, atol=1e-12)


class TestCrossEncoderForward:
    def test_baseline_matches_reference(self, weights, rng):
        for _ in range(10):
            q, d = random_pair(rng, weights.config)
            got = cross_encoder_forward(q, d, BASELINE, weights)
            ref = reference_unmasked_forward(q, d, weights)
            assert abs(got - ref) < 1e-10

    def test_severed_layers_isolate_streams(self, weights, rng):
        """Up to the split, joint rows equal isolated per-stream forwards."""
        from micerank.mice import encode_document, encode_query, from_cross_encoder

        cfg = weights.config
        spec = MaskSpec(MaskStep.STEP3, split_depth=cfg.split_depth, total_layers=cfg.layers)
        mw = from_cross_encoder(weights, cfg.split_depth, 1)
        for _ in range(8):
            q, d = random_pair(rng, cfg)
            joint = joint_states(q, d, spec, weights, depth=cfg.split_depth)
            q_iso = encode_query(q, mw).data
            d_iso = encode_document(d, mw).states
            assert np.abs(joint[: len(q) + 2] - q_iso).max() < 1e-9
            assert np.abs(joint[len(q) + 2 :] - d_iso).max() < 1e-9

    def test_deterministic_bitwise(self, weights, rng):
        q, d = random_pair(rng, weights.config)
        spec = MaskSpec(MaskStep.STEP2)
        assert cross_encoder_forward(q, d, spec, weights) == cross_encoder_forward(
            q, d, spec, weights
        )

    def test_batch_matches_single(self, weights, rng):
        pairs = [random_pair(rng, weights.config) for _ in range(5)]
        batch = score_pairs(pairs, BASELINE, weights).data
        for pair, score in zip(pairs, batch):
            assert abs(score - cross_encoder_forward(*pair, BASELINE, weights)) < 1e-9

    def test_masked_batch_matches_single(self, weights, rng):
        spec = MaskSpec(MaskStep.STEP3, split_depth=2, total_layers=3)
        pairs = [random_pair(rng, weights.config) for _ in range(5)]
        batch = score_pairs(pairs, spec, weights).data
        for pair, score in zip(pairs, batch):
            assert abs(score - cross_encoder_forward(*pair, spec, weights)) < 1e-9

    def test_overlength_inputs_are_head_truncated(self, weights, rng):
        cfg = weights.config
        q = rng.integers(4, cfg.vocab_size, size=cfg.max_query + 5).tolist()
        d = rng.integers(4, cfg.vocab_size, size=cfg.max_doc + 9).tolist()
        full = cross_encoder_forward(q, d, BASELINE, weights)
        clipped = cross_encoder_forward(
            q[: cfg.max_query], d[: cfg.max_doc], BASELINE, weights
        )
        assert full == clipped

    def test_truncation_never_empties_query(self, config):
        q, _ = frame_stream([5, 6, 7], Segment.Q, config)
        d, _ = frame_stream([8] * 99, Segment.D, config)
        assert q == [CLS_ID, 5, 6, 7, SEP_ID]
        assert d == [8] * config.max_doc + [SEP_ID]
        with pytest.raises(ValueError, match="query must hold at least one token"):
            frame_stream([], Segment.Q, config)
        with pytest.raises(ValueError, match="document must hold at least one token"):
            frame_stream([], Segment.D, config)

    def test_depth_validation(self, weights):
        with pytest.raises(ValueError):
            score_pairs([([5], [6])], BASELINE, weights, depth=0)
        with pytest.raises(ValueError):
            score_pairs([([5], [6])], BASELINE, weights, depth=7)

    def test_score_gradient_matches_finite_differences(self, rng):
        cfg = ModelConfig(
            layers=2, hidden=8, heads=2, ff=12, vocab_size=16,
            max_query=3, max_doc=4, split_depth=1,
        )
        w = init_ce_weights(cfg, seed=5, dtype=np.float64)
        spec = MaskSpec(MaskStep.STEP1)
        q, d = [5, 6], [7, 8, 9]

        def loss():
            return score_pairs([(q, d)], spec, w).sum()

        out = loss()
        out.backward()
        for name, p in [("wq", w.layers[0].wq), ("w2", w.layers[1].w2), ("score_w", w.score_w)]:
            fd = fd_gradient(lambda: loss().item(), p.data)
            assert_grads_close(p.grad, fd)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, config):
        w = init_ce_weights(config, seed=3, dtype=np.float32)
        path = tmp_path / "model.bin"
        save_weights(path, w, step=MaskStep.STEP2)
        loaded, step = load_weights(path, dtype=np.float32)
        assert step is MaskStep.STEP2
        assert loaded.config == config
        for (name_a, a), (name_b, b) in zip(w.named_parameters(), loaded.named_parameters()):
            assert name_a == name_b
            assert a.data.tobytes() == b.data.tobytes()

    def test_serialization_is_deterministic(self, config):
        w = init_ce_weights(config, seed=3, dtype=np.float32)
        assert serialize_weights(w) == serialize_weights(w)
        assert weights_fingerprint(w) == weights_fingerprint(w)

    def test_fingerprint_survives_save_load_and_dtype(self, tmp_path, config):
        w = init_ce_weights(config, seed=3, dtype=np.float32)
        path = tmp_path / "model.bin"
        save_weights(path, w, step=MaskStep.STEP3)
        as32, _ = load_weights(path, dtype=np.float32)
        as64, _ = load_weights(path, dtype=np.float64)
        assert weights_fingerprint(as32) == weights_fingerprint(w)
        assert weights_fingerprint(as64) == weights_fingerprint(w)

    def test_file_starts_with_magic(self, tmp_path, config):
        w = init_ce_weights(config, seed=0, dtype=np.float32)
        path = tmp_path / "model.bin"
        save_weights(path, w)
        assert path.read_bytes()[:8] == MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(CheckpointFormatError):
            load_weights(path)

    def test_truncated_rejected(self, tmp_path, config):
        w = init_ce_weights(config, seed=0, dtype=np.float32)
        path = tmp_path / "model.bin"
        save_weights(path, w)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointFormatError):
            load_weights(path)

    def test_mice_round_trip(self, tmp_path, config):
        from micerank.mice import MiceWeights, from_cross_encoder

        w = init_ce_weights(config, seed=3, dtype=np.float32)
        mw = from_cross_encoder(w, 2, 1)
        path = tmp_path / "mice.bin"
        save_weights(path, mw)
        loaded, _ = load_weights(path)
        assert isinstance(loaded, MiceWeights)
        assert loaded.config == mw.config
        for (_, a), (_, b) in zip(mw.named_parameters(), loaded.named_parameters()):
            assert a.data.tobytes() == b.data.tobytes()
