"""Tensor core: forward semantics, masked softmax, and gradient correctness.

Gradient tests compare reverse-mode results against central finite
differences in float64, the independent oracle for every differentiable op.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from micerank import tensor
from micerank.tensor import (
    GradUsageError,
    MaskedRowError,
    ShapeError,
    Tensor,
    concat,
    gather_rows,
    gelu,
    layernorm,
    masked_softmax,
    matmul,
    select,
)

from conftest import assert_grads_close, fd_gradient


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(matmul(eye, a).data, a.data)

    def test_zero_annihilates(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        z = Tensor(np.zeros((2, 2)))
        assert np.array_equal(matmul(a, z).data, np.zeros((2, 2)))

    def test_matches_scalar_triple_loop(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_rejects_vectors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.ones((2, 2), dtype=np.float64))
        with pytest.raises(ShapeError):
            matmul(a, b)


class TestStackedMatmul:
    """A stacked activation times a 2-d weight runs as one flattened GEMM;
    every other shape pair keeps numpy's batched product."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(16,), (2, 3)])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_forward_bitwise_equals_numpy(self, dtype, lead, transposed, rng):
        if transposed:  # a non-contiguous view
            a = rng.standard_normal(lead + (48, 11)).astype(dtype).swapaxes(-1, -2)
        else:
            a = rng.standard_normal(lead + (11, 48)).astype(dtype)
        b = rng.standard_normal((48, 96)).astype(dtype)
        got = matmul(Tensor(a), Tensor(b)).data
        assert got.shape == lead + (11, 96) and got.dtype == dtype
        assert got.tobytes() == np.matmul(a, b).tobytes()

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_gradients_match_finite_differences(self, lead, rng):
        a = Tensor(rng.standard_normal(lead + (4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        weight = Tensor(rng.standard_normal(lead + (4, 6)))

        def forward():
            out = matmul(a, b)
            return (out * out * 0.5 + out * weight).sum()

        forward().backward()
        for param in (a, b):
            assert_grads_close(param.grad, fd_gradient(lambda: forward().item(), param.data))

    def test_weight_gradient_is_one_gemm_over_all_rows(self, rng):
        a = Tensor(rng.standard_normal((4, 3, 7, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        g = rng.standard_normal((4, 3, 7, 6))
        (matmul(a, b) * Tensor(g)).sum().backward()
        assert b.grad.tobytes() == (a.data.reshape(-1, 5).T @ g.reshape(-1, 6)).tobytes()
        assert a.grad.tobytes() == np.matmul(g, b.data.T).tobytes()

    @pytest.mark.parametrize("b_shape", [(4, 5, 6), (1, 5, 6)])
    def test_batched_and_broadcast_products_unchanged(self, b_shape, rng):
        a = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
        g = rng.standard_normal((4, 3, 6))
        out = matmul(a, b)
        assert out.data.tobytes() == np.matmul(a.data, b.data).tobytes()
        (out * Tensor(g)).sum().backward()
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if b_shape[0] == 1:
            gb = gb.sum(axis=0, keepdims=True)
        assert b.grad.tobytes() == gb.tobytes()
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        assert a.grad.tobytes() == ga.tobytes()

        def forward():
            return (matmul(a, b) * Tensor(g)).sum()

        for param in (a, b):
            assert_grads_close(param.grad, fd_gradient(lambda: forward().item(), param.data))

    def test_shared_weight_accumulates_every_product(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 2, 3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 6)), requires_grad=True)

        def forward():
            return (matmul(x, w) * matmul(x, w)).sum() + matmul(y, w).sum() * 0.5

        forward().backward()
        for param in (x, y, w):
            assert_grads_close(param.grad, fd_gradient(lambda: forward().item(), param.data))
        gx = matmul(x, w).data.reshape(-1, 6) * 2.0
        expected = x.data.reshape(-1, 5).T @ gx + y.data.reshape(-1, 5).T @ np.full((12, 6), 0.5)
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12)


class TestColumnMajorWeights:
    """A weight at least ``_WIDE`` wide in both dimensions is stored
    column-major from its first product on, and 2 to ``_FEW_ROWS`` rows run
    as the transposed GEMM; narrower weights are used as stored."""

    SHAPES = [(128, 512), (384, 384), (384, 1536), (1536, 384)]
    MAX_ROWS = tensor._FEW_ROWS + 3

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        shape=st.sampled_from(SHAPES),
        lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
        t=st.integers(1, MAX_ROWS),
        seed=st.integers(0, 2**16),
    )
    @example(dtype=np.float32, shape=(384, 1536), lead=(), t=1, seed=0)
    @example(dtype=np.float32, shape=(384, 1536), lead=(1,), t=2, seed=0)
    @example(dtype=np.float64, shape=(384, 384), lead=(2,), t=2, seed=1)
    @example(dtype=np.float32, shape=(1536, 384), lead=(), t=tensor._FEW_ROWS, seed=2)
    @example(dtype=np.float64, shape=(384, 1536), lead=(), t=tensor._FEW_ROWS + 1, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_product_equals_the_row_major_one(self, dtype, shape, lead, t, seed):
        rng = np.random.default_rng(seed)
        d, f = shape
        rows = math.prod(lead) * min(t, self.MAX_ROWS // math.prod(lead))
        a = rng.standard_normal((rows, d)).astype(dtype)
        row_major = rng.standard_normal(shape).astype(dtype)
        w = Tensor(row_major.copy())
        x = Tensor(a.reshape(lead + (-1, d)))
        expected = np.matmul(a, row_major).reshape(x.shape[:-1] + (f,))
        wide = min(shape) >= tensor._WIDE

        tensor.track_allocations(True)
        try:
            out = matmul(x, w)
            counted = tensor.allocated_bytes()
        finally:
            tensor.track_allocations(False)
        assert counted == out.data.nbytes
        assert out.data.base is None and out.data.flags.c_contiguous
        assert out.shape == expected.shape and out.dtype == dtype

        stored = w.data
        assert stored.flags.f_contiguous == wide
        assert stored.shape == shape and stored.dtype == dtype
        assert np.array_equal(stored, row_major)
        again = matmul(x, w)
        assert w.data is stored  # re-laid at most once
        assert again.data.tobytes() == out.data.tobytes()

        if not wide or (min(shape) >= 384 and rows >= 4):
            assert out.data.tobytes() == expected.tobytes()
        else:  # one to three rows: the last bits may differ
            tol = 64 * np.finfo(dtype).eps * np.abs(expected).max()
            assert np.abs(out.data - expected).max() <= tol

    @pytest.mark.parametrize("shape", [(384, 1536), (1536, 384), (256, 256)])
    @pytest.mark.parametrize("lead", [(1, 1), (1, 3), (2, 5), (3, 50)])
    def test_gradients_equal_the_row_major_ones(self, shape, lead, rng):
        d, f = shape
        a = Tensor(rng.standard_normal(lead + (d,)), requires_grad=True)
        row_major = rng.standard_normal(shape)
        w = Tensor(row_major.copy(), requires_grad=True)
        g = rng.standard_normal(lead + (f,))
        with tensor.no_grad():
            matmul(a, w)
        assert w.data.flags.f_contiguous
        (matmul(a, w) * Tensor(g)).sum().backward()
        flat_a, flat_g = a.data.reshape(-1, d), g.reshape(-1, f)
        np.testing.assert_allclose(a.grad.reshape(-1, d), flat_g @ row_major.T,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(w.grad, flat_a.T @ flat_g, rtol=0, atol=1e-12)

    def test_two_threads_relay_a_shared_weight_once(self, rng):
        row_major = rng.standard_normal((384, 384)).astype(np.float32)
        w = Tensor(row_major.copy())
        x = Tensor(rng.standard_normal((2, 7, 384)).astype(np.float32))
        start = threading.Barrier(2)
        results = []

        def product():
            start.wait()
            results.append((matmul(x, w).data, w.data))

        threads = [threading.Thread(target=product) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        (out1, w1), (out2, w2) = results
        assert w1 is w2 is w.data and w.data.flags.f_contiguous
        assert out1.tobytes() == out2.tobytes()
        assert np.array_equal(w.data, row_major)


class TestMaskedSoftmax:
    def test_single_allowed_entry(self):
        out = masked_softmax(Tensor([5.0, 9.0, 2.0]), np.array([True, False, False]))
        assert np.array_equal(out.data, [1.0, 0.0, 0.0])

    def test_uniform_over_allowed(self):
        for c in (-3.0, 0.0, 17.5):
            out = masked_softmax(
                Tensor([c, c, c, c]), np.array([True, True, False, True])
            )
            np.testing.assert_array_equal(out.data, [1 / 3, 1 / 3, 0.0, 1 / 3])

    def test_hand_exponentiation(self):
        # exp(0), exp(ln 2), exp(ln 4) = 1, 2, 4 -> normalized 1/7, 2/7, 4/7
        out = masked_softmax(
            Tensor([0.0, math.log(2.0), math.log(4.0)]), np.array([True, True, True])
        )
        np.testing.assert_allclose(out.data, [1 / 7, 2 / 7, 4 / 7], rtol=1e-14)

    def test_fully_masked_row_rejected(self):
        with pytest.raises(MaskedRowError):
            masked_softmax(
                Tensor([[1.0, 2.0], [3.0, 4.0]]),
                np.array([[True, True], [False, False]]),
            )

    def test_rows_sum_to_one_and_exact_zeros(self, rng):
        for _ in range(25):
            logits = Tensor(rng.standard_normal((3, 5, 7)) * 10)
            allow = rng.random((3, 5, 7)) < 0.5
            allow[..., 0] = True  # keep every row non-empty
            out = masked_softmax(logits, allow).data
            assert np.all(out[~allow] == 0.0)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_broadcast_mask(self, rng):
        logits = Tensor(rng.standard_normal((2, 4, 3, 3)))
        allow = np.tril(np.ones((3, 3), dtype=bool))
        out = masked_softmax(logits, allow).data
        assert np.all(out[..., ~allow] == 0.0)

    def test_float32_masking_is_exact(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        allow = rng.random((4, 6)) < 0.4
        allow[:, 2] = True
        out = masked_softmax(logits, allow).data
        assert out.dtype == np.float32
        assert np.all(out[~allow] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    @given(
        dims=st.tuples(*(st.integers(1, n) for n in (3, 4, 5, 6))),
        dtype=st.sampled_from([np.float32, np.float64]),
        blocked=st.sampled_from([np.inf, -np.inf, np.nan, 1e38, -1e38]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mask_over_heads_is_exact(self, dims, dtype, blocked, seed):
        """With a [B, 1, t, src] mask over [B, h, t, src] logits, blocked
        entries are exactly 0, allowed ones are the softmax of the allowed
        logits alone, and no blocked logit, however extreme, changes a bit."""
        batch, heads, t, src = dims
        rng = np.random.default_rng(seed)
        logits = (rng.standard_normal(dims) * 10).astype(dtype)
        allow = rng.random((batch, 1, t, src)) < 0.5
        allow[np.arange(batch)[:, None], 0, np.arange(t), rng.integers(src, size=(batch, t))] = True
        allow_b = np.broadcast_to(allow, dims)
        out = masked_softmax(Tensor(logits), allow).data
        assert out.dtype == dtype
        assert np.all(out[~allow_b] == 0.0)
        for index in np.ndindex(*dims[:-1]):
            kept = logits[index][allow_b[index]].astype(np.float64)
            e = np.exp(kept - kept.max())
            np.testing.assert_allclose(out[index][allow_b[index]], e / e.sum(),
                                       rtol=1e-5, atol=1e-12)
        swapped = np.where(allow_b, logits, dtype(blocked))
        assert masked_softmax(Tensor(swapped), allow).data.tobytes() == out.tobytes()


class TestSublayerPrimitives:
    def test_layernorm_constant_row_returns_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        gain = Tensor(np.ones(4) * 2.0)
        bias = Tensor([0.5, -1.0, 2.0, 0.0])
        out = layernorm(x, gain, bias, eps=1e-5).data
        np.testing.assert_allclose(out, np.tile(bias.data, (2, 1)), atol=1e-6)

    def test_gelu_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_limits(self):
        out = gelu(Tensor([-20.0, 20.0])).data
        np.testing.assert_allclose(out, [0.0, 20.0], atol=1e-6)

    def test_layernorm_param_shape_errors(self):
        with pytest.raises(ShapeError):
            layernorm(Tensor(np.ones((2, 3))), Tensor(np.ones(2)), Tensor(np.zeros(3)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient_is_2x(self, rng):
        data = rng.standard_normal((3, 4))
        x = Tensor(data, requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * data, rtol=1e-12)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradUsageError):
            (x * x).backward()

    def test_grad_accumulates_across_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 5.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_composite_graph_matches_finite_differences(self, rng):
        """Mixed graph covering every differentiable op at once."""
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)) * 0.7, requires_grad=True)
        gain = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        table = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        ids = np.array([[0, 2, 4], [1, 1, 3]])
        allow = np.array([True, True, False, True])

        def forward():
            h = matmul(x, w)
            h = gelu(h)
            h = h + gather_rows(table, ids)
            h = layernorm(h, gain, bias)
            probs = masked_softmax(h, allow)
            j = concat([probs, h], axis=2)
            j = j.transpose((0, 2, 1)).reshape((2, 8, 3))
            row = select(j, 1, axis=1)
            return ((row * row).mean() + j.sum() * 0.1).reshape(())

        loss = forward()
        loss.backward()
        for name, param in [("x", x), ("w", w), ("gain", gain), ("bias", bias), ("table", table)]:
            fd = fd_gradient(lambda: forward().item(), param.data)
            assert_grads_close(param.grad, fd)

    @pytest.mark.parametrize(
        "op_name",
        ["matmul", "bmm", "add_bcast", "mul", "gelu", "layernorm", "masked_softmax",
         "gather", "select", "concat", "transpose", "mean_axis"],
    )
    def test_each_op_matches_finite_differences(self, op_name, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

        def forward():
            if op_name == "matmul":
                out = matmul(x, y)
            elif op_name == "bmm":
                a = x.reshape((1, 3, 4))
                b = y.reshape((1, 4, 3))
                out = matmul(concat([a, a], axis=0), concat([b, b], axis=0))
            elif op_name == "add_bcast":
                out = x + select(y, 0, axis=1)
            elif op_name == "mul":
                out = x * x * 0.5
            elif op_name == "gelu":
                out = gelu(x)
            elif op_name == "layernorm":
                out = layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
            elif op_name == "masked_softmax":
                out = masked_softmax(x, np.array([True, False, True, True]))
            elif op_name == "gather":
                out = gather_rows(x, np.array([0, 2, 2, 1]))
            elif op_name == "select":
                out = select(x, 2, axis=0)
            elif op_name == "concat":
                out = concat([x, x * 2.0], axis=1)
            elif op_name == "transpose":
                out = x.transpose((1, 0))
            elif op_name == "mean_axis":
                out = x.mean(axis=1)
            # squared sum makes every output entry matter with distinct weight
            return (out * out).sum()

        loss = forward()
        loss.backward()
        fd = fd_gradient(lambda: forward().item(), x.data)
        assert_grads_close(x.grad, fd)


class TestDeterminismAndState:
    def test_bit_identical_reruns(self, rng):
        data = rng.standard_normal((6, 6))

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            h = gelu(matmul(x, x))
            out = masked_softmax(h, np.eye(6, dtype=bool) | (h.data > 0))
            loss = (out * out).sum()
            loss.backward()
            return out.data.copy(), x.grad.copy()

        a_out, a_grad = run()
        b_out, b_grad = run()
        assert np.array_equal(a_out, b_out)
        assert np.array_equal(a_grad, b_grad)

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with tensor.no_grad():
            y = x * 2.0
        assert not y.requires_grad
        z = x * 2.0
        assert z.requires_grad

    def test_finite_check(self):
        bad = Tensor([1.0, np.inf])
        with pytest.raises(tensor.NumericError):
            tensor.check_finite(bad)

    def test_allocation_counter_tracks_peak(self):
        tensor.track_allocations(True)
        try:
            base = tensor.allocated_bytes()
            big = Tensor(np.zeros(1024, dtype=np.float64))
            assert tensor.allocated_bytes() >= base + 8 * 1024
            assert tensor.peak_allocated_bytes() >= base + 8 * 1024
            del big
            assert tensor.allocated_bytes() < base + 8 * 1024
        finally:
            tensor.track_allocations(False)

    def test_dtype_follows_inputs(self):
        x32 = Tensor(np.ones((2, 2), dtype=np.float32))
        assert (x32 * 2.0).dtype == np.float32
        x64 = Tensor(np.ones((2, 2)))
        assert (x64 * 2.0).dtype == np.float64
