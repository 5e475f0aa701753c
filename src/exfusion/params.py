"""Parameter containers with deterministic, name-keyed initialization.

Every parameter draws from its own PCG64 stream seeded by (run seed, name),
so two models that share a parameter name initialize it bit-identically
regardless of which other parameters exist. This is what makes variant
degeneracy checks (e.g. single-expert fusion vs a plain dense layer)
byte-for-byte comparable.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .tensor import Tensor, add, as_np_dtype, layernorm, matmul, reshape

INIT_STD = 0.02


def affine_forward(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` with leading dims flattened around one gemm.

    Collapsing [..., d_in] to 2D keeps the weight gradient a single
    [d_in, tokens] @ [tokens, d_out] product instead of a batched matmul
    that allocates a per-batch [d_in, d_out] stack before reduction.
    """
    if x.ndim == 2:
        return add(matmul(x, weight), bias)
    lead = x.shape[:-1]
    tokens = 1
    for d in lead:
        tokens *= d
    flat = reshape(x, (tokens, x.shape[-1]))
    out = add(matmul(flat, weight), bias)
    return reshape(out, lead + (weight.shape[1],))


def name_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence((int(seed), int.from_bytes(digest[:8], "little"))))


def normal_init(seed: int, name: str, shape, dtype, std: float = INIT_STD) -> np.ndarray:
    arr = name_rng(seed, name).normal(0.0, std, size=shape)
    return arr.astype(as_np_dtype(dtype))


class Affine:
    """One linear map ``x @ weight + bias`` with weight [d_in, d_out]."""

    def __init__(self, name: str, d_in: int, d_out: int, dtype, seed: int):
        self.name = name
        self.weight = Tensor(normal_init(seed, name + ".weight", (d_in, d_out), dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=as_np_dtype(dtype)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return affine_forward(x, self.weight, self.bias)

    def named_parameters(self):
        return [(self.name + ".weight", self.weight), (self.name + ".bias", self.bias)]


class ExpertAffine:
    """N same-shaped affine experts stored stacked: weight [N, d_in, d_out], bias [N, d_out].

    Expert ``i`` initializes from the stream for ``<name>.<i>`` exactly as a
    standalone Affine would, so expert 0 of any set matches the dense layer
    of the same name. ``replicate=True`` copies expert 0 into every slot.
    """

    def __init__(self, name: str, n: int, d_in: int, d_out: int, dtype, seed: int,
                 replicate: bool = False):
        if n < 1:
            raise ValueError(f"expert set {name!r} needs n >= 1; got {n}")
        self.name = name
        self.n = n
        np_dtype = as_np_dtype(dtype)
        if replicate:
            first = normal_init(seed, f"{name}.0.weight", (d_in, d_out), dtype)
            w = np.broadcast_to(first, (n, d_in, d_out)).copy()
        else:
            w = np.stack([normal_init(seed, f"{name}.{i}.weight", (d_in, d_out), dtype) for i in range(n)])
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros((n, d_out), dtype=np_dtype), requires_grad=True)

    def named_parameters(self):
        return [(self.name + ".weight", self.weight), (self.name + ".bias", self.bias)]


class LayerNorm:
    def __init__(self, name: str, dim: int, dtype, eps: float = 1e-5):
        np_dtype = as_np_dtype(dtype)
        self.name = name
        self.eps = eps
        self.gain = Tensor(np.ones(dim, dtype=np_dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=np_dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layernorm(x, self.gain, self.bias, self.eps)

    def named_parameters(self):
        return [(self.name + ".gain", self.gain), (self.name + ".bias", self.bias)]


class Embedding:
    def __init__(self, name: str, rows: int, dim: int, dtype, seed: int):
        self.name = name
        self.weight = Tensor(normal_init(seed, name + ".weight", (rows, dim), dtype), requires_grad=True)

    def named_parameters(self):
        return [(self.name + ".weight", self.weight)]
