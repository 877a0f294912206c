"""Dense tensors on numpy buffers with reverse-mode automatic differentiation.

Two precisions are supported: float64 for equivalence and gradient-check
tests, float32 for training and benchmarks. An op's output dtype follows its
inputs; mixing the two float dtypes in one op is an error so precision bugs
surface immediately.

Each op links its result tensor to its parents together with a closure that
routes the upstream gradient, forming one graph per forward pass. The link
is made only when a parent requires a gradient, so the closure of a
one-parent op never tests its parent.
``Tensor.backward()`` walks that graph in reverse topological order and
accumulates ``grad`` buffers on every ancestor that requires a gradient.
Tensors are immutable after forward construction except for gradient
accumulation; leaf tensors (parameters) may additionally have their ``data``
rewritten in place by an optimizer *between* forward passes. A 2-d weight
wide enough for :func:`matmul`'s transposed GEMM has its ``data`` replaced,
once, by a column-major array of the same values.

The module also keeps an allocation counter over forward value buffers
(``allocated_bytes`` / ``peak_allocated_bytes``) used by the benchmark
harness to report peak memory without relying on OS RSS.
"""

from __future__ import annotations

import math
import threading
import weakref

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GradUsageError",
    "MaskedRowError",
    "NumericError",
    "matmul",
    "masked_softmax",
    "layernorm",
    "gelu",
    "concat",
    "gather_rows",
    "select",
    "tsum",
    "tmean",
    "no_grad",
    "grad_enabled",
    "check_finite",
    "PRECISIONS",
    "track_allocations",
    "allocated_bytes",
    "peak_allocated_bytes",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GradUsageError(RuntimeError):
    """Autodiff API misuse, e.g. ``backward()`` on a non-scalar."""


class MaskedRowError(ValueError):
    """A masked softmax row has no allowed source at all."""


class NumericError(ArithmeticError):
    """A value left the finite range (NaN or Inf)."""


# The two precisions, by the names the command line and the training
# config use.
PRECISIONS = {"f32": np.float32, "f64": np.float64}


# --------------------------------------------------------------------------
# allocation tracking (value buffers only; gradients are excluded, which is
# exact for inference/bench paths where no gradient buffer exists)
# --------------------------------------------------------------------------


class _AllocStats:
    __slots__ = ("live", "peak", "enabled", "lock")

    def __init__(self):
        self.live = 0
        self.peak = 0
        self.enabled = False
        self.lock = threading.Lock()


_ALLOC = _AllocStats()


def track_allocations(enabled: bool) -> None:
    """Turn the tensor-buffer allocation counter on or off."""
    with _ALLOC.lock:
        _ALLOC.enabled = bool(enabled)
        if enabled:
            _ALLOC.live = 0
            _ALLOC.peak = 0


def allocated_bytes() -> int:
    return _ALLOC.live


def peak_allocated_bytes() -> int:
    return _ALLOC.peak


def _on_free(nbytes: int) -> None:
    with _ALLOC.lock:
        _ALLOC.live -= nbytes


def _register_alloc(owner: "Tensor", data: np.ndarray) -> None:
    # Views share their base's bytes; count only owning arrays.
    if not _ALLOC.enabled or data.base is not None:
        return
    nbytes = data.nbytes
    with _ALLOC.lock:
        _ALLOC.live += nbytes
        if _ALLOC.live > _ALLOC.peak:
            _ALLOC.peak = _ALLOC.live
    weakref.finalize(owner, _on_free, nbytes)


# --------------------------------------------------------------------------
# grad-mode switch (thread-local so concurrent forwards stay independent)
# --------------------------------------------------------------------------


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


def grad_enabled() -> bool:
    return _GRAD_MODE.enabled


class no_grad:
    """Context manager that suppresses graph construction inside its scope."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc):
        _GRAD_MODE.enabled = self._prev
        return False


# --------------------------------------------------------------------------
# the tensor itself
# --------------------------------------------------------------------------


class Tensor:
    """A dense n-d float array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        _register_alloc(self, arr)

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GradUsageError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad})"

    # -- autodiff ---------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every graph ancestor of this scalar."""
        if self.data.size != 1:
            raise GradUsageError("backward() expects a scalar loss")
        if not self.requires_grad:
            raise GradUsageError("backward() on a tensor with no graph attached")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return _add(self, _coerce(other, self))

    def __sub__(self, other):
        return _add(self, _neg(_coerce(other, self)))

    def __mul__(self, other):
        return _mul(self, _coerce(other, self))

    def reshape(self, shape) -> "Tensor":
        return _reshape(self, tuple(shape))

    def transpose(self, axes) -> "Tensor":
        return _transpose(self, tuple(axes))

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)


def _make(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    needs = grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = needs
    out._parents = parents if needs else ()
    out._backward_fn = backward_fn if needs else None
    _register_alloc(out, data)
    return out


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        if value.data.dtype != like.data.dtype:
            raise ShapeError(
                f"mixed dtypes in one op: {value.data.dtype} vs {like.data.dtype}"
            )
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        if g.base is not None or not g.flags.writeable:
            g = g.copy()
        t.grad = g
    else:
        t.grad += g


# --------------------------------------------------------------------------
# elementwise / structural ops
# --------------------------------------------------------------------------


def _add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward_fn(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad, b.data.shape))

    return _make(data, (a, b), backward_fn)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward_fn(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _make(data, (a, b), backward_fn)


def _neg(x: Tensor) -> Tensor:
    def backward_fn(out):
        _accumulate(x, -out.grad)

    return _make(-x.data, (x,), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching semantics; operands must be >= 2-d.

    An activation times a 2-d weight (``a`` of shape ``[..., t, d]``, ``b``
    of shape ``[d, f]``) runs as one GEMM over the ``N = prod(...) * t``
    flattened rows instead of one small GEMM per leading index. With ``t``
    and ``f`` of at least 2, numpy would run one GEMM per stacked matrix and
    the result has the same bits (measured with OpenBLAS); with a single row
    or column numpy uses a matrix-vector kernel instead and the two differ
    at rounding level. That product takes one of three paths:

    - A weight narrower than ``_WIDE`` = 256 in either dimension is used as
      stored, in ``a @ b``. There the few-row path below ran slower (f32,
      one BLAS thread, 2 to 128 rows): 1.0 to 1.4 times at 128 x 512, 1.4
      to 2.2 times at 64 x 64, and between 0.8 and 1.24 at 192 x 768.
    - A weight at least ``_WIDE`` wide in both dimensions is stored
      column-major from its first product on: ``b.data`` is replaced, once,
      by a Fortran-ordered array of the same shape, dtype and values.
      Re-laying every wide weight at checkpoint load instead took
      ``load_weights`` of a 7-layer MiniLM-width checkpoint from 33-38 to
      63-67 ms (medians of 15), time a command spends before its first
      unit of work; re-laid lazily, it is spread over the first products.
      With 2 to ``_FEW_ROWS`` = 128 rows the product runs as the
      transposed GEMM ``(bᵀ @ aᵀ)ᵀ``, whose left operand is then
      row-major, and is copied into an owning C-contiguous buffer. Over
      the 42 weights of 7 MiniLM-width layers (hidden 384, ff 1536; f32,
      one BLAS thread, weights in L3) it took 0.50 to 0.62 of the
      row-major time from 2 to 33 rows and 0.72 to 0.86 from 41 to 129
      rows, but 0.93 to 0.95 near 200 rows and 1.02 to 1.48 from 256 to
      1024 rows; at hidden 256, ff 1024 it took 0.55 to 0.96 from 2 to
      128 rows.
    - One row, or more than ``_FEW_ROWS`` rows, run ``a @ b`` over the
      stored weight; numpy hands the column-major layout to BLAS as a
      transpose flag.

    From 4 rows on the result had the bits of ``a @ b`` over a row-major
    weight at every wide shape measured (256 x 1024, 1024 x 256, 384 x 384,
    384 x 1536, 1536 x 384, in f32 and f64), and from 5 rows on at
    256 x 256; with fewer rows it may differ in the last bits. Every path
    re-lays a wide weight, so a weight's layout never depends on which
    product came first, and threads that share it compute the same bits.

    The backward flattens the same way: ``a``'s gradient is ``g @ bᵀ`` on
    the flattened rows, and ``b``'s is one ``[d, N] @ [N, f]`` GEMM, so the
    sum over the stacked rows happens inside the GEMM rather than in
    ``_unbroadcast``. Every other shape pair (a batched ``b``,
    broadcasting) goes through ``np.matmul``.
    """
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ShapeError("matmul expects tensors")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"mixed dtypes in matmul: {a.data.dtype} vs {b.data.dtype}")
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}"
        )
    if b.data.ndim == 2:
        return _stacked_matmul(a, b)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul: {exc}") from None

    def backward_fn(out):
        g = out.grad
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _make(data, (a, b), backward_fn)


# The cut-offs of the transposed GEMM path; ``matmul``'s docstring gives the
# measurements behind them.
_WIDE = 256
_FEW_ROWS = 128
_RELAY_LOCK = threading.Lock()


def _column_major(w: Tensor) -> np.ndarray:
    """``w.data``, re-laid column-major in place of the row-major array the
    first time it is asked for. The lock keeps two threads from both making
    a copy."""
    if not w.data.flags.f_contiguous:
        with _RELAY_LOCK:
            if not w.data.flags.f_contiguous:
                w.data = np.asfortranarray(w.data)
    return w.data


def _stacked_matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a [..., d] @ b [d, f]`` as one GEMM over the flattened rows of ``a``."""
    d, f = b.data.shape
    rows = math.prod(a.data.shape[:-1])
    flat = a.data.reshape(rows, d)
    wide = min(d, f) >= _WIDE
    weight = _column_major(b) if wide else b.data
    # Results are written through a 2-d view of an owning buffer, so they are
    # neither copied by ``_accumulate`` nor skipped by the allocation counter.
    data = np.empty(a.data.shape[:-1] + (f,), dtype=b.data.dtype)
    if wide and 2 <= rows <= _FEW_ROWS:
        np.copyto(data.reshape(rows, f), np.matmul(weight.T, flat.T).T)
    else:
        np.matmul(flat, weight, out=data.reshape(rows, f))

    def backward_fn(out):
        g = out.grad.reshape(rows, f)
        if a.requires_grad:
            ga = np.empty(a.data.shape, dtype=b.data.dtype)
            np.matmul(g, b.data.T, out=ga.reshape(rows, d))
            _accumulate(a, ga)
        if b.requires_grad:
            _accumulate(b, np.matmul(a.data.reshape(rows, d).T, g))

    return _make(data, (a, b), backward_fn)


def _reshape(x: Tensor, shape: tuple) -> Tensor:
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {exc}") from None

    def backward_fn(out):
        _accumulate(x, out.grad.reshape(x.data.shape))

    return _make(data, (x,), backward_fn)


def _transpose(x: Tensor, axes: tuple) -> Tensor:
    data = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(out):
        _accumulate(x, np.transpose(out.grad, inverse))

    return _make(data, (x,), backward_fn)


def concat(parts: list, axis: int) -> Tensor:
    """Concatenate tensors along ``axis``."""
    if not parts:
        raise ShapeError("concat of zero tensors")
    dtype = parts[0].data.dtype
    if any(p.data.dtype != dtype for p in parts):
        raise ShapeError("concat operands must share a dtype")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(out):
        for part, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                index = [slice(None)] * out.grad.ndim
                index[axis] = slice(start, stop)
                _accumulate(part, out.grad[tuple(index)])

    return _make(data, tuple(parts), backward_fn)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Fancy row lookup ``table[ids]``; ``ids`` is an integer array of any shape."""
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ShapeError("gather_rows with empty index")
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise IndexError(
            f"row id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    data = table.data[ids]

    def backward_fn(out):
        g = np.zeros_like(table.data)
        np.add.at(g, ids, out.grad)
        _accumulate(table, g)

    return _make(data, (table,), backward_fn)


def select(x: Tensor, index: int | slice, axis: int) -> Tensor:
    """Pick ``index`` along ``axis``: an int drops that axis, a slice keeps
    it. The result is a contiguous copy."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = index
    sl = tuple(sl)
    data = x.data[sl].copy()

    def backward_fn(out):
        g = np.zeros_like(x.data)
        g[sl] = out.grad
        _accumulate(x, g)

    return _make(data, (x,), backward_fn)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _make(data, (x,), backward_fn)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.data.size if axis is None else np.prod(
        [x.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / float(count))


# --------------------------------------------------------------------------
# neural-net primitives
# --------------------------------------------------------------------------


def masked_softmax(logits: Tensor, allow) -> Tensor:
    """Softmax over the last axis restricted to allowed entries.

    ``allow`` is a boolean array broadcastable to ``logits.shape``. Blocked
    logits are replaced by ``-inf``, whatever their value (inf and NaN
    included), so they come out exactly 0 and never reach an allowed entry;
    allowed entries are the softmax of the allowed logits, so each row sums
    to 1. The backward reads only the probabilities. A row with no allowed
    entry raises :class:`MaskedRowError` (the mask builders guarantee every
    position keeps at least a self/sink source); the check runs on ``allow``
    as given, before it is broadcast.
    """
    allow = np.atleast_1d(np.asarray(allow, dtype=bool))
    try:
        np.broadcast_to(allow, logits.data.shape)
    except ValueError:
        raise ShapeError(
            f"mask shape {allow.shape} does not broadcast to logits {logits.data.shape}"
        ) from None
    if not allow.any(axis=-1).all():
        raise MaskedRowError("masked softmax row with no allowed entry")
    probs = np.where(allow, logits.data, -np.inf)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward_fn(out):
        g = out.grad
        inner = (g * probs).sum(axis=-1, keepdims=True)
        _accumulate(logits, probs * (g - inner))

    return _make(probs, (logits,), backward_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form."""
    sq = x.data * x.data
    u = _GELU_C * (x.data + _GELU_A * (sq * x.data))
    t = np.tanh(u)
    data = 0.5 * x.data * (1.0 + t)

    def backward_fn(out):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * sq)
        local = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t * t) * du
        _accumulate(x, out.grad * local)

    return _make(data, (x,), backward_fn)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layernorm params must have shape ({d},), got {gain.data.shape} and {bias.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward_fn(out):
        g = out.grad
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=lead))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=lead))
        if x.requires_grad:
            gg = g * gain.data
            m1 = gg.mean(axis=-1, keepdims=True)
            m2 = (gg * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, (gg - m1 - xhat * m2) * inv)

    return _make(data, (x, gain, bias), backward_fn)


def check_finite(x: Tensor, what: str = "value") -> Tensor:
    """Raise :class:`NumericError` if ``x`` holds a NaN or Inf."""
    if not np.isfinite(x.data).all():
        raise NumericError(f"non-finite {what} encountered")
    return x
