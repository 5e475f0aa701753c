"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default, float64 selectable for
verification work). Every primitive records a vector-Jacobian closure; a
backward pass linearizes the graph in topological order and visits each
recorded op exactly once, accumulating gradients into the ``.grad`` buffers
of the leaves (tensors no op produced); op outputs never keep one.

``affine`` (``x @ W + b``) and ``attention`` (multi-head scaled dot-product
attention from projected q/k/v to the merged context) are single tape
nodes with hand-written vjps; they compute the same numpy operations, in
the same order and on the same operand layouts, as the chain of small
primitives they replace, so their outputs are bit-identical to it. So is
``grouped_affine``, one ``affine`` per consecutive row segment, each with
its own weight and bias from a stack (the top-k MoE's expert dispatch).

A primitive pays for its numpy arithmetic plus the checks numpy does not
make itself: it reads each operand's ``.data`` once and compares shapes and
dtypes on the arrays, and ``add``/``sub``/``mul`` check broadcasting only
when the shapes differ.

In-place rule: a primitive (forward or vjp) may write in place only into
arrays it allocated in the same call and that no other node holds yet. The
data of a parent is never mutated, nor is anything a vjp closure keeps, so
a graph can be differentiated more than once.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "affine",
    "grouped_affine",
    "attention",
    "gelu",
    "softmax",
    "layernorm",
    "cross_entropy",
    "reshape",
    "transpose",
    "tsum",
    "tmean",
    "embedding",
    "gather_rows",
    "scatter_rows",
    "dispatch_rows",
    "collect_rows",
    "index_first",
    "index_last",
    "combine",
    "as_np_dtype",
]

DTYPES = {"f32": np.float32, "f64": np.float64}
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class NonFiniteError(ArithmeticError):
    """Raised when NaN/Inf values are detected at a tape boundary."""


def as_np_dtype(dtype) -> np.dtype:
    """Resolve 'f32'/'f64' (or a numpy dtype) to the numpy dtype object."""
    if isinstance(dtype, str):
        try:
            return np.dtype(DTYPES[dtype])
        except KeyError:
            raise ValueError(f"unsupported dtype {dtype!r}; expected 'f32' or 'f64'") from None
    d = np.dtype(dtype)
    if d not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {d}; expected float32 or float64")
    return d


def _all_finite(arr: np.ndarray) -> bool:
    """``np.isfinite(arr).all()`` without ``ndarray.all``'s Python wrapper."""
    return bool(np.logical_and.reduce(np.isfinite(arr), axis=None))


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation-only forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense real array participating in a reverse-mode gradient tape.

    A leaf wraps a float32 or float64 ndarray as it is (anything else is a
    ``TypeError``) and is validated to be finite on creation. Op outputs carry
    references to their inputs plus a vjp closure; ``backward()`` on a
    scalar populates ``.grad`` on every reachable leaf that requires
    gradients. Data is treated as immutable once on the tape; only ``grad``
    buffers mutate.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        if not (isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES):
            raise TypeError(f"Tensor takes a float32 or float64 ndarray; got "
                            f"{type(data).__name__} of dtype {getattr(data, 'dtype', None)}")
        if not _all_finite(data):
            raise NonFiniteError("tensor created with non-finite values")
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate dL/dt into ``.grad`` for every leaf reachable from this scalar.

        Op outputs pass their gradient on to their inputs and keep none, so
        no intermediate gradient outlives the pass. Repeated calls without
        clearing grads keep accumulating.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss; got shape {self.shape}")
        if not np.isfinite(self.data).all():
            raise NonFiniteError("backward called on a non-finite loss")
        order = _linearize(self)
        flow: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = flow.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                buf = flow.get(id(parent))
                flow[id(parent)] = pg if buf is None else buf + pg


def _linearize(root: Tensor) -> list[Tensor]:
    """Topological order of the recorded ops reachable from ``root``.

    Inputs always precede the ops that consume them; the reverse walk in
    ``backward`` therefore visits each recorded op exactly once.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


# -- helpers -------------------------------------------------------------------


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back down to ``shape`` by summation."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


_ROW_MAX_BLOCK = 1 << 16  # elements per transposed block: it stays in L2
_ROW_MAX_MIN_ROWS = 64  # below this many rows numpy's own row reduce is faster


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, fast on many short rows.

    numpy reduces a short contiguous row at a time; down the outer axis of a
    transposed copy the same max runs as one vectorised elementwise maximum
    across rows. A max is exact, so only the sign of a zero can differ, where
    a row holds both +0 and -0 as its max; every caller subtracts the max and
    takes exp, which maps either zero to 1. The copy costs a fixed few
    microseconds, which pays off from about 64 rows of width 4 to 32 (more
    for wider rows); fewer rows take numpy's reduce.
    """
    c = x.shape[-1]
    if not c:
        raise ShapeError(f"row max of zero-width rows: shape {x.shape}")
    if x.size < _ROW_MAX_MIN_ROWS * c:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    rows = x.reshape(-1, c)
    out = np.empty(rows.shape[0], x.dtype)
    step = max(1, _ROW_MAX_BLOCK // c)
    for s in range(0, rows.shape[0], step):
        np.maximum.reduce(rows[s:s + step].T.copy(), axis=0, out=out[s:s + step])
    return out.reshape(x.shape[:-1] + (1,))


# The hot primitives reduce with ``np.add.reduce`` and ``np.maximum.reduce``:
# the reductions the ``.sum`` and ``.max`` methods run, minus numpy's
# Python-level wrapper around them.


def _mean_last(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``: the same sum and divide, without
    ``np.mean``'s Python-side bookkeeping."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    np.divide(m, x.shape[-1], out=m)
    return m


def _dtype_error(op: str, first: np.ndarray, *others: np.ndarray) -> TypeError:
    """The error for the first of ``others`` whose dtype is not ``first``'s."""
    other = next(o for o in others if o.dtype != first.dtype)
    return TypeError(f"{op}: dtype mismatch {first.dtype} vs {other.dtype}")


def _binary_operands(a: Tensor, b: Tensor, op: str):
    """(a.data, b.data), refused unless their dtypes agree and shapes broadcast.

    Equal shapes need no broadcast check, which is most calls.
    """
    ad, bd = a.data, b.data
    if ad.dtype != bd.dtype:
        raise _dtype_error(op, ad, bd)
    if ad.shape != bd.shape:
        try:
            np.broadcast_shapes(ad.shape, bd.shape)
        except ValueError:
            raise ShapeError(f"{op}: shapes {ad.shape} and {bd.shape} are not broadcastable") from None
    return ad, bd


# -- elementwise and linear primitives ------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = _binary_operands(a, b, "add")
    a_shape, b_shape = ad.shape, bd.shape

    def vjp(g):
        return _sum_to(g, a_shape), _sum_to(g, b_shape)

    return Tensor._from_op(ad + bd, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = _binary_operands(a, b, "sub")
    a_shape, b_shape = ad.shape, bd.shape

    def vjp(g):
        return _sum_to(g, a_shape), _sum_to(-g, b_shape)

    return Tensor._from_op(ad - bd, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = _binary_operands(a, b, "mul")
    a_shape, b_shape = ad.shape, bd.shape

    def vjp(g):
        return _sum_to(g * bd, a_shape), _sum_to(g * ad, b_shape)

    return Tensor._from_op(ad * bd, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    if not math.isfinite(s):
        raise NonFiniteError(f"scale by non-finite factor {s}")

    def vjp(g):
        return (g * s,)

    return Tensor._from_op(a.data * s, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; batch dims broadcast, inner dims must agree."""
    if a.data.dtype != b.data.dtype:
        raise _dtype_error("matmul", a.data, b.data)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands; got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for shapes {a.shape} and {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch dims of {a.shape} and {b.shape} are not broadcastable") from None
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _sum_to(np.matmul(g, np.swapaxes(bd, -1, -2)), a.shape)
        gb = _sum_to(np.matmul(np.swapaxes(ad, -1, -2), g), b.shape)
        return ga, gb

    return Tensor._from_op(np.matmul(ad, bd), (a, b), vjp)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` for ``x`` [..., d_in], weight [d_in, d_out], bias [d_out].

    Leading dims are flattened around one gemm, so the weight gradient is a
    single [d_in, tokens] @ [tokens, d_out] product rather than a batched
    matmul that stacks a [d_in, d_out] per batch row. The bias is added in
    place into the fresh product.
    """
    xd, wd, bd = x.data, weight.data, bias.data
    if wd.dtype != xd.dtype or bd.dtype != xd.dtype:
        raise _dtype_error("affine", xd, wd, bd)
    x_shape, w_shape = xd.shape, wd.shape
    if not x_shape or len(w_shape) != 2 or x_shape[-1] != w_shape[0]:
        raise ShapeError(f"affine: input {x_shape} does not fit weight {w_shape}")
    if bd.shape != w_shape[1:]:
        raise ShapeError(f"affine: bias {bd.shape} does not fit weight {w_shape}")
    flat = len(x_shape) != 2
    if flat:
        xd = xd.reshape(-1, x_shape[-1])
    y = np.matmul(xd, wd)
    np.add(y, bd, out=y)

    def vjp(g):
        g2 = g.reshape(y.shape) if flat else g
        gx = np.matmul(g2, wd.T)
        gw = np.matmul(xd.T, g2)
        gx = gx.reshape(x_shape) if flat else gx
        return gx, gw, np.add.reduce(g2, axis=0)

    out = y.reshape(x_shape[:-1] + w_shape[1:]) if flat else y
    return Tensor._from_op(out, (x, weight, bias), vjp)


def grouped_affine(x: Tensor, weight: Tensor, bias: Tensor, counts) -> Tensor:
    """Consecutive row segments of ``x`` [rows, d_in], each through its own affine map.

    ``weight`` is [n, d_in, d_out], ``bias`` [n, d_out] and ``counts`` the n
    segment lengths in order, summing to ``rows``: segment i of the output
    is ``x[segment i] @ weight[i] + bias[i]``, the gemm and in-place bias
    add ``affine`` runs on that segment alone, written into one output
    buffer. The vjp writes each group's weight and bias gradient into its
    own slice of one stack-shaped buffer; only groups with no rows are
    zeroed.
    """
    if weight.data.dtype != x.data.dtype or bias.data.dtype != x.data.dtype:
        raise _dtype_error("grouped_affine", x.data, weight.data, bias.data)
    if x.ndim != 2 or weight.ndim != 3 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"grouped_affine: input {x.shape} does not fit weight stack {weight.shape}")
    n, _, d_out = weight.shape
    if bias.shape != (n, d_out):
        raise ShapeError(f"grouped_affine: bias {bias.shape} does not fit weight stack {weight.shape}")
    counts = np.asarray(counts)
    if (counts.shape != (n,) or counts.dtype.kind not in "iu" or counts.min() < 0
            or counts.sum() != x.shape[0]):
        raise ShapeError(f"grouped_affine: segment sizes {counts.tolist()} do not split "
                         f"{x.shape[0]} rows into {n} groups")
    stops = np.cumsum(counts).tolist()
    segments = [(i, slice(stop - int(c), stop))
                for i, (c, stop) in enumerate(zip(counts, stops)) if c]
    xd, wd, bd = x.data, weight.data, bias.data
    y = np.empty((xd.shape[0], d_out), dtype=xd.dtype)
    for i, s in segments:
        np.matmul(xd[s], wd[i], out=y[s])
        np.add(y[s], bd[i], out=y[s])

    def vjp(g):
        gx = np.empty(xd.shape, dtype=xd.dtype)
        gw = np.empty_like(wd)
        gb = np.empty_like(bd)
        for i, s in segments:
            gs = g[s]
            np.matmul(gs, wd[i].T, out=gx[s])
            np.matmul(xd[s].T, gs, out=gw[i])
            np.sum(gs, axis=0, out=gb[i])
        idle = counts == 0
        gw[idle] = 0.0
        gb[idle] = 0.0
        return gx, gw, gb

    return Tensor._from_op(y, (x, weight, bias), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, projected q/k/v [b, l, d] to context [b, l, d].

    ``mask`` is an additive [l, l] array (a plain array, never on the tape).
    The scores are scaled, masked and softmaxed in the one buffer the score
    matmul allocates.
    """
    qd, kd, vd = q.data, k.data, v.data
    if kd.dtype != qd.dtype or vd.dtype != qd.dtype:
        raise _dtype_error("attention", qd, kd, vd)
    shape = qd.shape
    if len(shape) != 3 or kd.shape != shape or vd.shape != shape:
        raise ShapeError(f"attention: q/k/v must share one [b, l, d] shape; got "
                         f"{shape}, {kd.shape} and {vd.shape}")
    b, l, d = shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: dim {d} is not a multiple of {heads} heads")
    if mask is not None and mask.shape != (l, l):
        raise ShapeError(f"attention: mask {mask.shape} does not fit length {l}")
    hd = d // heads
    s = 1.0 / math.sqrt(hd)

    def split(t: np.ndarray) -> np.ndarray:
        return t.reshape(b, l, heads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = split(qd), split(kd), split(vd)
    kt = kh.transpose(0, 1, 3, 2)
    p = np.matmul(qh, kt)
    np.multiply(p, s, out=p)
    if mask is not None:
        np.add(p, mask.astype(p.dtype, copy=False), out=p)
    np.subtract(p, _row_max(p), out=p)
    np.exp(p, out=p)
    np.divide(p, np.add.reduce(p, axis=-1, keepdims=True), out=p)
    out = np.matmul(p, vh).transpose(0, 2, 1, 3).reshape(b, l, d)

    def merge(t: np.ndarray) -> np.ndarray:
        return t.transpose(0, 2, 1, 3).reshape(b, l, d)

    def vjp(g):
        g4 = g.reshape(b, l, heads, hd).transpose(0, 2, 1, 3)
        gs = np.matmul(g4, np.swapaxes(vh, -1, -2))
        gv = np.matmul(np.swapaxes(p, -1, -2), g4)
        # softmax vjp p * (g - <g, p>), then the scale, in the buffer gs
        dot = np.add.reduce(gs * p, axis=-1, keepdims=True)
        np.subtract(gs, dot, out=gs)
        np.multiply(p, gs, out=gs)
        np.multiply(gs, s, out=gs)
        gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
        gk = np.matmul(np.swapaxes(qh, -1, -2), gs).transpose(0, 1, 3, 2)
        return merge(gq), merge(gk), merge(gv)

    return Tensor._from_op(out, (q, k, v), vjp)


def gelu(a: Tensor) -> Tensor:
    """Gaussian-CDF GELU x*Phi(x) (erf form, not the tanh approximation).

    float64 uses scipy's erf, loaded on the first float64 call, and is the
    reference. float32 takes Phi from one tanh of a polynomial fitted to the
    erf form, within 5e-7*max(1, |x|) of the float64 result. A recorded op
    keeps its derivative Phi + x*phi(x) from the forward pass, so the vjp of
    either dtype is one product.
    """
    x = a.data
    record = _grad_enabled and a.requires_grad
    if x.dtype == np.float32:
        out, deriv = _gelu_f32(x, record)
    else:
        # scipy.special loads slower than the rest of the program and no float32
        # run needs it. A local import, not a global set on first use, so this
        # module's attributes never change after import.
        from scipy.special import erf

        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        out = x * cdf
        deriv = cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI) if record else None

    def vjp(g):
        return (g * deriv,)

    return Tensor._from_op(out, (a,), vjp)


# Phi(x) = (1 + tanh(x*P(x^2)))/2, P the weighted least-squares fit of
# atanh(erf(x/sqrt(2)))/x on [0, 6], degree 6 in x^2, highest power first.
# x^2 is clamped to 36, past which tanh is +-1 in float32, and x to +-14.5,
# past which exp(-x^2/2) is 0 in float32, so no finite input overflows.
_GELU_P = np.array([1.8466993e-09, -1.3573175e-07, 4.0126170e-06, -5.5604040e-05,
                    -3.1741263e-05, 0.036332063, 0.79788530], dtype=np.float32)
_GELU_BLOCK = 1 << 16  # elements per pass: two float32 scratch blocks stay in L2


def _gelu_f32(x: np.ndarray, record: bool):
    """float32 (x*Phi(x), Phi + x*phi(x) or None) in flat blocks with in-place
    ufuncs; the derivative is built only for a recorded op."""
    xf = x.reshape(-1)
    n = xf.size
    out = np.empty_like(xf)
    deriv = np.empty_like(xf) if record else None
    m = min(n, _GELU_BLOCK)
    xc_buf, s_buf = np.empty(m, np.float32), np.empty(m, np.float32)
    for i in range(0, n, _GELU_BLOCK):
        blk = slice(i, min(i + _GELU_BLOCK, n))
        k = blk.stop - i
        xb, xc, s, o = xf[blk], xc_buf[:k], s_buf[:k], out[blk]
        np.clip(xb, -14.5, 14.5, out=xc)
        np.multiply(xc, xc, out=s)
        np.minimum(s, 36.0, out=s)
        np.multiply(s, _GELU_P[0], out=o)
        for c in _GELU_P[1:-1]:
            np.add(o, c, out=o)
            np.multiply(o, s, out=o)
        np.add(o, _GELU_P[-1], out=o)
        cdf = deriv[blk] if record else o
        np.multiply(o, xc, out=cdf)
        np.tanh(cdf, out=cdf)
        np.add(cdf, 1.0, out=cdf)
        np.multiply(cdf, 0.5, out=cdf)
        np.multiply(xb, cdf, out=o)
        if record:
            # Phi + x * exp(-x^2/2) / sqrt(2*pi)
            np.multiply(xc, xc, out=s)
            np.multiply(s, -0.5, out=s)
            np.exp(s, out=s)
            np.multiply(s, xc, out=s)
            np.multiply(s, _INV_SQRT2PI, out=s)
            np.add(cdf, s, out=cdf)
    return out.reshape(x.shape), deriv.reshape(x.shape) if record else None


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction for stability."""
    x = a.data
    if not x.shape[-1]:
        raise ShapeError(f"softmax over an empty axis of shape {x.shape}")
    e = np.exp(x - _row_max(x))
    s = e / np.add.reduce(e, axis=-1, keepdims=True)

    def vjp(g):
        dot = np.add.reduce(g * s, axis=-1, keepdims=True)
        return (s * (g - dot),)

    return Tensor._from_op(s, (a,), vjp)


def layernorm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then affine."""
    x, gd, bd = a.data, gain.data, bias.data
    width = x.shape[-1:]
    if gd.shape != width or bd.shape != width:
        raise ShapeError(
            f"layernorm gain/bias must have shape {width}; got {gd.shape} and {bd.shape}"
        )
    # xc = x - mu becomes xhat in place; the xc * xc buffer becomes the output
    xhat = x - _mean_last(x)
    out = np.multiply(xhat, xhat)
    inv = _mean_last(out)
    np.add(inv, 1e-5, out=inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(xhat, inv, out=xhat)
    np.multiply(xhat, gd, out=out)
    np.add(out, bd, out=out)

    def vjp(g):
        # dx = inv * (dxhat - m1 - xhat * m2), built in the dxhat buffer
        dx = g * gd
        m1 = _mean_last(dx)
        t = dx * xhat
        m2 = _mean_last(t)
        np.subtract(dx, m1, out=dx)
        np.multiply(xhat, m2, out=t)
        np.subtract(dx, t, out=dx)
        np.multiply(inv, dx, out=dx)
        reduce_axes = tuple(range(x.ndim - 1))
        dgain = np.add.reduce(np.multiply(g, xhat, out=t), axis=reduce_axes)
        dbias = np.add.reduce(g, axis=reduce_axes)
        return dx, dgain, dbias

    return Tensor._from_op(out, (a, gain, bias), vjp)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the target class. ``logits``: [B, C], B and C >= 1."""
    x = logits.data
    if x.ndim != 2:
        raise ShapeError(f"cross_entropy expects [batch, classes] logits; got {x.shape}")
    n, c = x.shape
    if not n or not c:
        raise ShapeError(f"cross_entropy needs at least one row and one class; got logits {x.shape}")
    t = np.asarray(targets)
    if t.shape != (n,):
        raise ShapeError(f"cross_entropy targets shape {t.shape} does not match batch {n}")
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"cross_entropy target index out of range [0, {c})")
    shifted = x - _row_max(x)
    e = np.exp(shifted)
    z = np.add.reduce(e, axis=1, keepdims=True)
    rows = np.arange(n)
    # the target entries of log-softmax only: shifted - log z on n entries, not n * c
    logp = shifted[rows, t] - np.log(z).reshape(n)
    loss = np.asarray(-logp.mean(), dtype=x.dtype)

    def vjp(g):
        p = e / z
        p[rows, t] -= 1.0
        return (p * (g / n),)

    return Tensor._from_op(loss, (logits,), vjp)


# -- shape primitives ------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    src = a.shape

    def vjp(g):
        return (g.reshape(src),)

    return Tensor._from_op(a.data.reshape(shape), (a,), vjp)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

    return Tensor._from_op(a.data.transpose(axes), (a,), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    src = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, src).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, src).copy(),)

    return Tensor._from_op(np.asarray(out), (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` as one tape node: the sum ``tsum`` takes, times
    ``1/count`` as ``scale`` multiplies it, so the bytes are those of that chain."""
    x = a.data
    src = x.shape
    if axis is None:
        count = x.size
    else:
        count = math.prod(src[ax] for ax in (axis if isinstance(axis, tuple) else (axis,)))
    s = 1.0 / count
    expand = axis is not None and not keepdims

    def vjp(g):
        g = g * s
        out = np.empty(src, dtype=g.dtype)
        out[...] = np.expand_dims(g, axis) if expand else g
        return (out,)

    return Tensor._from_op(np.asarray(np.add.reduce(x, axis=axis, keepdims=keepdims)) * s, (a,), vjp)


# -- gather / scatter primitives ----------------------------------------------


def _gather(table: Tensor, idx: np.ndarray, unique: bool) -> Tensor:
    td = table.data

    def vjp(g):
        gt = np.zeros_like(td)
        if unique:
            gt[idx] = g
        else:
            np.add.at(gt, idx, g)
        return (gt,)

    return Tensor._from_op(td[idx], (table,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]``; gradient scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"token id out of range [0, {table.shape[0]})")
    return _gather(table, ids, unique=False)


def gather_rows(a: Tensor, idx: np.ndarray, unique: bool = False) -> Tensor:
    """Select rows ``a[idx]``. Set ``unique=True`` only when indices never repeat."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(f"row index out of range [0, {a.shape[0]})")
    return _gather(a, idx, unique=unique)


def scatter_rows(values: Tensor, idx: np.ndarray, num_rows: int, unique: bool = True) -> Tensor:
    """Place ``values`` at rows ``idx`` of a zero tensor with ``num_rows`` rows."""
    idx = np.asarray(idx)
    if idx.shape != (values.shape[0],):
        raise ShapeError(f"scatter_rows: index shape {idx.shape} does not match values {values.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise ValueError(f"row index out of range [0, {num_rows})")
    vd = values.data
    out = np.zeros((num_rows,) + vd.shape[1:], dtype=vd.dtype)
    if unique:
        out[idx] = vd
    else:
        np.add.at(out, idx, vd)

    def vjp(g):
        return (g[idx],)

    return Tensor._from_op(out, (values,), vjp)


def _check_slots(slots: np.ndarray, op: str) -> np.ndarray:
    slots = np.asarray(slots)
    if slots.ndim != 2 or slots.dtype.kind not in "iu":
        raise ShapeError(f"{op}: slots must be an integer [rows, k] array; got {slots.dtype} "
                         f"of shape {slots.shape}")
    m = slots.size
    if m and (slots.min() < 0 or slots.max() >= m
              or np.bincount(slots.ravel(), minlength=m).min() != 1):
        raise ValueError(f"{op}: slots must hold each of the {m} dispatched rows exactly once")
    return slots


def _dispatch(a: np.ndarray, slots: np.ndarray) -> np.ndarray:
    out = np.empty((slots.size,) + a.shape[1:], dtype=a.dtype)
    for r in range(slots.shape[1]):
        out[slots[:, r]] = a
    return out


def _collect(v: np.ndarray, slots: np.ndarray) -> np.ndarray:
    out = v[slots[:, 0]]
    for r in range(1, slots.shape[1]):
        np.add(out, v[slots[:, r]], out=out)
    return out


def dispatch_rows(a: Tensor, slots: np.ndarray) -> Tensor:
    """Copy row j of ``a`` to rows ``slots[j, :]`` of a result with ``slots.size`` rows.

    ``slots`` is an integer [rows of a, k] array naming every result row
    exactly once. The gradient of row j is ``collect_rows`` of the result's
    gradient: its k rows added in the order ``slots[j]`` lists them.
    """
    slots = _check_slots(slots, "dispatch_rows")
    if slots.shape[0] != a.shape[0]:
        raise ShapeError(f"dispatch_rows: slots {slots.shape} do not fit input {a.shape}")
    return Tensor._from_op(_dispatch(a.data, slots), (a,), lambda g: (_collect(g, slots),))


def collect_rows(values: Tensor, slots: np.ndarray) -> Tensor:
    """Row j is ``values[slots[j, 0]] + values[slots[j, 1]] + ...``, added left to right.

    The adjoint of ``dispatch_rows``: ``slots`` is an integer [rows, k] array
    naming every row of ``values`` exactly once, so no row is summed twice
    and no ``np.add.at`` is needed.
    """
    slots = _check_slots(slots, "collect_rows")
    if slots.size != values.shape[0]:
        raise ShapeError(f"collect_rows: slots {slots.shape} do not fit values {values.shape}")
    return Tensor._from_op(_collect(values.data, slots), (values,), lambda g: (_dispatch(g, slots),))


def index_first(a: Tensor, i: int) -> Tensor:
    """Slice ``a[i]`` along the first axis."""
    i = int(i)
    if not 0 <= i < a.shape[0]:
        raise ValueError(f"index {i} out of range [0, {a.shape[0]})")
    src = a.data

    def vjp(g):
        out = np.zeros_like(src)
        out[i] = g
        return (out,)

    return Tensor._from_op(src[i], (a,), vjp)


def index_last(a: Tensor, i: int) -> Tensor:
    """Slice ``a[..., i]`` along the last axis."""
    i = int(i)
    if not 0 <= i < a.shape[-1]:
        raise ValueError(f"index {i} out of range [0, {a.shape[-1]})")
    src = a.data

    def vjp(g):
        out = np.zeros_like(src)
        out[..., i] = g
        return (out,)

    return Tensor._from_op(src[..., i], (a,), vjp)


def combine(weights: Tensor, stacked: Tensor) -> Tensor:
    """Weighted sum over the first axis: ``sum_i weights[i] * stacked[i]``.

    Gradients flow to both operands: the stacked slice ``i`` receives
    ``weights[i] * g`` and ``weights[i]`` receives ``<g, stacked[i]>``.
    """
    wd, sd = weights.data, stacked.data
    if wd.ndim != 1:
        raise ShapeError(f"combine weights must be a vector; got shape {wd.shape}")
    n = wd.shape[0]
    if sd.shape[0] != n:
        raise ShapeError(f"combine: {n} weights for {sd.shape[0]} stacked entries")
    if wd.dtype != sd.dtype:
        raise _dtype_error("combine", wd, sd)
    rows = sd.reshape(n, -1)

    def vjp(g):
        # the weights' gradient is a gemv over the whole stack: skip it when unused
        gw = rows @ g.ravel() if weights.requires_grad else None
        return gw, np.multiply.outer(wd, g)

    # the exact product np.tensordot(wd, sd, axes=(0, 0)) computes, minus its axis bookkeeping
    out = np.dot(wd.reshape(1, n), rows).reshape(sd.shape[1:])
    return Tensor._from_op(out, (weights, stacked), vjp)
