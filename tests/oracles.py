"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's backward pass and
vectorized shortcuts: gradients come from central finite differences on the
forward alone, fusion references from per-expert loops, EMA references from
the closed-form geometric sum, and the task probe from counting statistics.

The exception is the composite chains that the fused ``affine`` and
``attention`` primitives replace. They are kept here, built from the
library's smaller primitives, so the fused ops can be held byte-equal to
them, forward and backward. ``layernorm_reference`` is the layernorm
forward and vjp as separate numpy temporaries, in the primitive's order.
``topk_moe_loop`` is the per-expert slice loop that the sorted dispatch of
``moe.topk_moe_forward`` replaced, and ``adamw_reference`` the
per-parameter AdamW loop that the blocked pass of ``optim.AdamW`` replaced.
``tmean_chain`` is the ``tsum`` -> ``scale`` pair the one-node ``tmean``
replaced, and ``sum_to_shape`` the reduction of a broadcast gradient back to
its operand's shape. ``read_checkpoint_reference`` is the checkpoint reader
that the offset-tracking ``checkpoint.read_checkpoint`` replaced: one read
and one ``tell()``-based bounds check per header field and per dim, with the
metadata header decoded by ``json.loads`` and checked by a separate walk.
"""

import json
import math
import os
import struct

import numpy as np

from exfusion.checkpoint import MAGIC, VERSION, CheckpointError
from exfusion.moe import route, topk_select
from exfusion.tensor import (
    Tensor,
    add,
    affine,
    gather_rows,
    gelu,
    index_first,
    index_last,
    matmul,
    mul,
    reshape,
    scale,
    scatter_rows,
    softmax,
    transpose,
    tsum,
)


def numeric_gradient(fn, arrays, wrt, h):
    """Central finite differences of scalar ``fn(*arrays)`` wrt ``arrays[wrt]``.

    ``fn`` must be a pure function of the numpy inputs. The perturbed entry
    is restored after each probe so callers can reuse the arrays.
    """
    x = arrays[wrt]
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        hi = fn(*arrays)
        flat[j] = orig - h
        lo = fn(*arrays)
        flat[j] = orig
        gflat[j] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric, floor=1.0):
    """Largest elementwise |a - n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def fused_output_loop(weights, expert_weights, expert_biases, x):
    """Output-space reference: sum_i w_i * (x @ W_i + b_i), one expert at a time."""
    out = None
    for i in range(len(weights)):
        y = x @ expert_weights[i] + expert_biases[i]
        y = weights[i] * y
        out = y if out is None else out + y
    return out


def ema_closed_form(history, delta):
    """Memory value after feeding ``history`` (t x n) into m <- d*m + (1-d)*w from zeros."""
    history = np.asarray(history, dtype=np.float64)
    t = history.shape[0]
    coeff = (1.0 - delta) * delta ** np.arange(t - 1, -1, -1, dtype=np.float64)
    return coeff @ history


def softmax_rows(x):
    s = x - x.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def token_histogram_probe(train_tokens, train_labels, val_tokens, vocab, num_classes):
    """Per-position token-frequency classifier (a linear probe over one-hots).

    Laplace-smoothed per-class, per-position categorical likelihoods, argmax
    of total log-likelihood. Used as the separability floor for the
    synthetic clustering task.
    """
    L = train_tokens.shape[1]
    counts = np.ones((num_classes, L, vocab), dtype=np.float64)
    for seq, lab in zip(train_tokens, train_labels):
        counts[lab, np.arange(L), seq] += 1.0
    logp = np.log(counts / counts.sum(axis=2, keepdims=True))
    scores = np.zeros((val_tokens.shape[0], num_classes))
    pos = np.arange(L)
    for c in range(num_classes):
        scores[:, c] = logp[c, pos, val_tokens].sum(axis=1)
    return scores.argmax(axis=1)


def affine_composite(x, weight, bias):
    """``x @ W + b`` as reshape -> matmul -> add -> reshape around one 2-D gemm."""
    if x.ndim == 2:
        return add(matmul(x, weight), bias)
    lead = x.shape[:-1]
    flat = reshape(x, (math.prod(lead), x.shape[-1]))
    return reshape(add(matmul(flat, weight), bias), lead + (weight.shape[1],))


def attention_composite(q, k, v, heads, mask=None):
    """Multi-head attention from projected q/k/v [b, l, d] to the context [b, l, d].

    Head split, k transpose, scale, an additive mask tensor, softmax, the
    two matmuls and the head merge, each its own tape node.
    """
    b, l, d = q.shape
    hd = d // heads

    def split(t):
        return transpose(reshape(t, (b, l, heads, hd)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = scale(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    if mask is not None:
        scores = add(scores, Tensor(mask.astype(scores.data.dtype)))
    probs = softmax(scores)
    return reshape(transpose(matmul(probs, vh), (0, 2, 1, 3)), (b, l, d))


def layernorm_reference(x, gain, bias, g, eps=1e-5):
    """Layernorm output and the (x, gain, bias) gradients for upstream ``g``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain + bias
    reduce_axes = tuple(range(x.ndim - 1))
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return out, dx, (g * xhat).sum(axis=reduce_axes), g.sum(axis=reduce_axes)


def tmean_chain(a, axis=None, keepdims=False):
    """Mean as two tape nodes: the sum, then a scale by 1/count."""
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def sum_to_shape(g, shape):
    """Sum ``g`` over the leading axes it has beyond ``shape``, then over the
    axes where ``shape`` is 1, keeping them."""
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def topk_moe_loop(x, up, down, router, k):
    """Top-k MoE forward as one slice, gather and scatter chain per expert."""
    b, l, d = x.shape
    t = b * l
    flat = reshape(x, (t, d))
    gates = route(flat, router)
    selected = topk_select(gates.data, k)

    out = None
    for i in range(up.n):
        token_idx = np.nonzero((selected == i).any(axis=-1))[0]
        if token_idx.size == 0:
            continue
        xi = gather_rows(flat, token_idx, unique=True)
        h = gelu(affine(xi, index_first(up.weight, i), index_first(up.bias, i)))
        yi = affine(h, index_first(down.weight, i), index_first(down.bias, i))
        gi = index_last(gather_rows(gates, token_idx, unique=True), i)
        yi = mul(yi, reshape(gi, (token_idx.size, 1)))
        contrib = scatter_rows(yi, token_idx, t, unique=True)
        out = contrib if out is None else add(out, contrib)
    return reshape(out, (b, l, d))


def adamw_reference(params, m, v, step_count, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                    weight_decay=0.0, no_decay=frozenset()):
    """One AdamW step as a loop over the parameters, each with its own temporaries.

    ``m`` and ``v`` map names to arrays and are updated in place; each
    parameter's ``data`` is rebound. A non-finite gradient skips the whole
    step. Returns the new step count.
    """
    lr = float(lr)
    if not all(t.grad is None or np.isfinite(t.grad).all() for _, t in params):
        return step_count
    step_count += 1
    t = step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        m_ = m[name]
        v_ = v[name]
        m_ *= beta1
        m_ += (1.0 - beta1) * g
        v_ *= beta2
        v_ += (1.0 - beta2) * (g * g)
        update = (m_ / bc1) / (np.sqrt(v_ / bc2) + eps)
        if weight_decay and name not in no_decay:
            update = update + weight_decay * p.data
        p.data = p.data - lr * update
    return step_count


_CHECKPOINT_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64),
                      2: np.dtype(np.int64), 3: np.dtype(np.uint8)}


def read_checkpoint_reference(path):
    """(tensors, meta) of a checkpoint file, read one header field at a time.
    The metadata is decoded as ``checkpoint._decoded_meta`` documents it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def check_left(n):
            left = size - fh.tell()
            if n > left:
                raise CheckpointError(
                    f"{path}: truncated checkpoint ({n} bytes declared, {left} left)")

        def read_exact(n):
            check_left(n)
            return fh.read(n)

        if read_exact(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", read_exact(4))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: version mismatch (file v{version}, reader v{VERSION}); refusing to load"
            )
        count, meta_len = struct.unpack("<II", read_exact(8))
        meta = _metadata_reference(path, read_exact(meta_len))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read_exact(4))
            try:
                name = read_exact(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: record name at byte {fh.tell() - name_len} is not UTF-8") from None
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate record {name!r}")
            code, rank = struct.unpack("<BB", read_exact(2))
            if code not in _CHECKPOINT_DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
            dims = tuple(struct.unpack("<Q", read_exact(8))[0] for _ in range(rank))
            dtype = _CHECKPOINT_DTYPES[code]
            nbytes = math.prod(dims) * dtype.itemsize
            check_left(nbytes)
            try:
                arr = np.empty(dims, dtype=dtype.newbyteorder("<"))
            except ValueError as exc:
                raise CheckpointError(f"{path}: record {name!r} has impossible dims: {exc}") from None
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise CheckpointError(f"{path}: short read of {name!r}")
            tensors[name] = arr.astype(dtype, copy=False)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after declared records")
    return tensors, meta


def _metadata_reference(path, raw):
    """The metadata bytes as one JSON object: UTF-8, strict JSON (no NaN or
    infinity, no float that overflows to one), no key twice in any object."""
    def fail(why):
        return CheckpointError(f"{path}: {why}")

    def unique(pairs):
        keys = [key for key, _ in pairs]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise fail(f"metadata key {key!r} is written twice")
        return dict(pairs)

    def finite(value):
        if isinstance(value, dict):
            return all(map(finite, value.values()))
        if isinstance(value, list):
            return all(map(finite, value))
        return not isinstance(value, float) or math.isfinite(value)

    try:
        meta = json.loads(raw.decode("utf-8"), object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:
        raise fail(f"metadata is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise fail(f"metadata is a JSON {type(meta).__name__}, not an object")
    for key, value in meta.items():
        if not finite(value):
            raise fail(f"metadata {key!r} is not finite JSON: "
                       "Out of range float values are not JSON compliant")
    return meta
