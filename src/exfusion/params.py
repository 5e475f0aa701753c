"""Parameter containers with seeded, name-keyed initialization.

Every parameter draws from its own PCG64 stream seeded by (run seed, name),
so two models that share a parameter name initialize it bit-identically
regardless of which other parameters exist. This is what makes variant
degeneracy checks (e.g. single-expert fusion vs a plain dense layer)
byte-for-byte comparable.

A model builds all its containers from one ``ArraySource``. A fresh one
draws the arrays; one rebuilt from named arrays (a loaded checkpoint, a
cast, a dense export) adopts them instead, so nothing is drawn only to be
overwritten. The source records every parameter and buffer it hands out,
in creation order, and that record is the model's only list of them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor, affine, as_np_dtype, layernorm

INIT_STD = 0.02


def name_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence((int(seed), int.from_bytes(digest[:8], "little"))))


def normal_init(seed: int, name: str, shape, dtype) -> np.ndarray:
    arr = name_rng(seed, name).normal(0.0, INIT_STD, size=shape)
    return arr.astype(as_np_dtype(dtype))


class MissingArrayError(KeyError):
    """A named array that a rebuilt model needs is absent."""

    def __str__(self) -> str:
        return str(self.args[0])


def checked_array(arrays, name: str, shape) -> np.ndarray:
    """``arrays[name]``, refused unless it is present with ``shape``."""
    if name not in arrays:
        raise MissingArrayError(f"missing array {name!r}")
    arr = np.asarray(arrays[name])
    if arr.shape != tuple(shape):
        raise ShapeError(f"array {name!r}: shape {arr.shape} != {tuple(shape)}")
    return arr


class ArraySource:
    """Where a model's arrays come from, and the record of what it handed out.

    With ``arrays=None`` every array is drawn fresh: ``normal_init`` per
    name, or a constant fill. Otherwise ``arrays[name]`` is adopted: it must
    be present with the right shape, and it is cast to the model dtype
    without a copy when it already has it. Parameters are wrapped in
    ``Tensor``, whose finite check then names the array. Each parameter and
    buffer is appended to ``params`` or ``buffers`` as ``(name, value)``.
    """

    def __init__(self, dtype, seed: int = 0, arrays=None):
        self.dtype = as_np_dtype(dtype)
        self.seed = seed
        self.arrays = arrays
        self.params: list[tuple[str, Tensor]] = []
        self.buffers: list[tuple[str, np.ndarray]] = []

    def array(self, name: str, shape, draw) -> np.ndarray:
        if self.arrays is None:
            return draw()
        return checked_array(self.arrays, name, shape).astype(self.dtype, copy=False)

    def param(self, name: str, shape, draw, requires_grad: bool = True) -> Tensor:
        arr = self.array(name, shape, draw)
        try:
            t = Tensor(arr, requires_grad=requires_grad)
        except NonFiniteError:
            raise NonFiniteError(f"array {name!r} has non-finite values") from None
        self.params.append((name, t))
        return t

    def normal(self, name: str, shape) -> Tensor:
        return self.param(name, shape, lambda: normal_init(self.seed, name, shape, self.dtype))

    def full(self, name: str, shape, value: float, requires_grad: bool = True) -> Tensor:
        return self.param(name, shape, lambda: np.full(shape, value, dtype=self.dtype),
                          requires_grad)

    def buffer(self, name: str, shape) -> np.ndarray:
        """A zero-initialized statistics array (not a parameter)."""
        arr = self.array(name, shape, lambda: np.zeros(shape, dtype=self.dtype))
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"array {name!r} has non-finite values")
        self.buffers.append((name, arr))
        return arr


class Affine:
    """One linear map ``x @ weight + bias`` with weight [d_in, d_out]."""

    def __init__(self, name: str, d_in: int, d_out: int, src: ArraySource):
        self.weight = src.normal(name + ".weight", (d_in, d_out))
        self.bias = src.full(name + ".bias", (d_out,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)


class ExpertAffine:
    """N same-shaped affine experts stored stacked: weight [N, d_in, d_out], bias [N, d_out].

    Expert ``i`` initializes from the stream for ``<name>.<i>`` exactly as a
    standalone Affine would, so expert 0 of any set matches the dense layer
    of the same name. ``replicate=True`` copies expert 0 into every slot.
    """

    def __init__(self, name: str, n: int, d_in: int, d_out: int, src: ArraySource,
                 replicate: bool = False):
        if n < 1:
            raise ValueError(f"expert set {name!r} needs n >= 1; got {n}")
        self.n = n

        def draw() -> np.ndarray:
            if replicate:
                first = normal_init(src.seed, f"{name}.0.weight", (d_in, d_out), src.dtype)
                return np.broadcast_to(first, (n, d_in, d_out)).copy()
            return np.stack([normal_init(src.seed, f"{name}.{i}.weight", (d_in, d_out), src.dtype)
                             for i in range(n)])

        self.weight = src.param(name + ".weight", (n, d_in, d_out), draw)
        self.bias = src.full(name + ".bias", (n, d_out), 0.0)


class LayerNorm:
    def __init__(self, name: str, dim: int, src: ArraySource):
        self.gain = src.full(name + ".gain", (dim,), 1.0)
        self.bias = src.full(name + ".bias", (dim,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return layernorm(x, self.gain, self.bias)


class Embedding:
    def __init__(self, name: str, rows: int, dim: int, src: ArraySource):
        self.weight = src.normal(name + ".weight", (rows, dim))
