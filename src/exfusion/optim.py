"""AdamW with decoupled weight decay, warmup+cosine schedule, gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import checked_array
from .tensor import NonFiniteError, ShapeError, Tensor


# Elements per block of AdamW's pass over its flat moments: a block's
# gathered gradients, scratch, new parameters and moments stay in L2.
BLOCK = 1 << 14


class AdamW:
    """Decoupled-decay Adam over named parameters of one dtype.

    Only tensors with ``requires_grad`` participate, and each must have a
    gradient at every step: a missing one is a ``ShapeError`` naming the
    parameter. Memory banks never appear here: they are buffers, not parameters.
    Names listed in ``no_decay`` update without the decay term; by default
    those are ``no_decay_names(named_params)``, the learnable fusion weights.
    The settings are fixed at construction. A parameter list that mixes
    dtypes is a ``TypeError`` naming the first parameter that differs.

    m and v live in one flat array each, in parameter order; ``self.m``
    and ``self.v`` hold each name's reshaped view. ``step`` walks the
    parameters in blocks of at most ``BLOCK`` elements, laid out once at
    construction (a block never mixes decay and no-decay parameters): it gathers a
    block's gradients and parameters with one ``np.concatenate`` each and
    runs the per-element update with ``out=`` ufuncs, in the order and dtype
    of the per-parameter formula. New parameters go into one fresh flat
    array per step, and each ``data`` is rebound to its view: nothing is
    updated in place, so a graph recorded before a step still holds the old
    weights.
    """

    def __init__(self, named_params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 no_decay: frozenset[str] | set[str] | None = None):
        self.params: list[tuple[str, Tensor]] = [
            (name, t) for name, t in named_params if t.requires_grad
        ]
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.no_decay = frozenset(no_decay_names(self.params) if no_decay is None else no_decay)
        self.step_count = 0
        dtype = self.params[0][1].data.dtype if self.params else np.float64
        self._slots = []  # per parameter: (offset, end, shape, decays)
        size = 0
        for name, t in self.params:
            if t.data.dtype != dtype:
                raise TypeError(f"parameter {name!r} is {t.data.dtype}, but "
                                f"{self.params[0][0]!r} is {dtype}: AdamW takes one dtype")
            self._slots.append((size, size + t.data.size, t.data.shape,
                                bool(self.weight_decay) and name not in self.no_decay))
            size += t.data.size
        self._m = np.zeros(size, dtype=dtype)
        self._v = np.zeros(size, dtype=dtype)
        # block scratch: gathered gradients (later the update), one temporary
        self._grad = np.empty(min(BLOCK, size), dtype=dtype)
        self._tmp = np.empty(min(BLOCK, size), dtype=dtype)
        self.m = {name: self._m[off:end].reshape(shape)
                  for (name, _), (off, end, shape, _) in zip(self.params, self._slots)}
        self.v = {name: self._v[off:end].reshape(shape)
                  for (name, _), (off, end, shape, _) in zip(self.params, self._slots)}
        self._blocks = self._layout()

    def _grads(self) -> list[np.ndarray]:
        """Each parameter's gradient, refused unless it exists and has the
        shape and dtype of the parameter (and of the slot built for it)."""
        grads = []
        for (name, t), (_, _, shape, _) in zip(self.params, self._slots):
            g = t.grad
            if g is None:
                raise ShapeError(f"parameter {name!r} has no gradient")
            if not (g.shape == t.data.shape == shape and g.dtype == t.data.dtype == self._m.dtype):
                raise ShapeError(
                    f"parameter {name!r}: gradient {g.dtype}{g.shape} does not match "
                    f"data {t.data.dtype}{t.data.shape} (optimizer built for "
                    f"{self._m.dtype}{shape})"
                )
            grads.append(g)
        return grads

    def _layout(self) -> list[tuple]:
        """The blocks of the flat moments, in one sweep over ``_slots``.

        A block is a flat range ``[lo, hi)`` of at most ``BLOCK`` elements
        with one decay setting; its ``pieces`` name the parameter each run of
        the range comes from and the part of it (``None`` for all of it).
        """
        blocks = []
        for i, (off, end, _, decays) in enumerate(self._slots):
            if not blocks or blocks[-1][2] != decays:
                blocks.append([off, off, decays, []])
            a = 0
            while a < end - off:
                block = blocks[-1]
                if block[1] - block[0] == BLOCK:
                    block = [block[1], block[1], decays, []]
                    blocks.append(block)
                b = min(end - off, a + BLOCK - (block[1] - block[0]))
                block[3].append((i, None if b - a == end - off else slice(a, b)))
                block[1] += b - a
                a = b
        return [(lo, hi, decays, pieces, self._m[lo:hi], self._v[lo:hi],
                 self._grad[:hi - lo], self._tmp[:hi - lo])
                for lo, hi, decays, pieces in blocks if pieces]

    @staticmethod
    def _gather(arrays, pieces, out: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [arrays[i] if part is None else arrays[i].reshape(-1)[part] for i, part in pieces],
            axis=None, out=out)

    def step(self, lr: float) -> bool:
        """Apply one update at learning rate ``lr``.

        Returns False (and mutates nothing, moments included) when any
        gradient is non-finite, so the caller can report and skip. A missing
        gradient, or one whose shape or dtype is not its parameter's, is a
        ``ShapeError`` naming the parameter, raised before anything changes.
        """
        lr = float(lr)
        grads = self._grads()
        if not all(np.isfinite(self._gather(grads, block[3], block[6])).all()
                   for block in self._blocks):
            return False
        datas = [t.data for _, t in self.params]
        self.step_count += 1
        t = self.step_count
        b1, b2, eps, wd = self.beta1, self.beta2, self.eps, self.weight_decay
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        new = np.empty_like(self._m)
        for lo, hi, decays, pieces, m, v, g, tmp in self._blocks:
            self._gather(grads, pieces, g)
            p = self._gather(datas, pieces, new[lo:hi])
            np.multiply(m, b1, out=m)            # m = b1*m + (1-b1)*g
            np.multiply(g, 1.0 - b1, out=tmp)
            np.add(m, tmp, out=m)
            np.multiply(v, b2, out=v)            # v = b2*v + (1-b2)*(g*g)
            np.multiply(g, g, out=tmp)
            np.multiply(tmp, 1.0 - b2, out=tmp)
            np.add(v, tmp, out=v)
            np.divide(v, bc2, out=tmp)           # update = (m/bc1) / (sqrt(v/bc2) + eps)
            np.sqrt(tmp, out=tmp)
            np.add(tmp, eps, out=tmp)
            np.divide(m, bc1, out=g)
            np.divide(g, tmp, out=g)
            if decays:                           # update += wd*p
                np.multiply(p, wd, out=tmp)
                np.add(g, tmp, out=g)
            np.multiply(g, lr, out=g)            # p = p - lr*update
            np.subtract(p, g, out=p)
        for (_, param), (off, end, shape, _) in zip(self.params, self._slots):
            param.data = new[off:end].reshape(shape)
        return True

    # -- checkpoint support ----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"opt/m/{name}": arr for name, arr in self.m.items()}
        out.update({f"opt/v/{name}": arr for name, arr in self.v.items()})
        out["opt/step"] = np.array([self.step_count], dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy saved moments into the flat moments and adopt the step count. A
        missing, wrong-shaped or non-finite record is refused before any
        state changes."""
        checked = []
        for prefix, store in (("opt/m/", self.m), ("opt/v/", self.v)):
            for name, current in store.items():
                key = prefix + name
                arr = checked_array(arrays, key, current.shape)
                if not np.isfinite(arr).all():
                    raise NonFiniteError(f"array {key!r} has non-finite values")
                checked.append((current, arr))
        step = checked_array(arrays, "opt/step", (1,))
        if step.dtype.kind not in "iu" or step[0] < 0:
            raise ValueError(f"array 'opt/step' must hold a non-negative integer; got {step[0]!r}")
        for current, arr in checked:
            current[...] = arr
        self.step_count = int(step[0])


def no_decay_names(named_params) -> frozenset[str]:
    """Names AdamW updates without weight decay: the learnable fusion weights."""
    return frozenset(name for name, _ in named_params if name.endswith(".fusion.weights"))


def clip_grad_norm(named_params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    sq = 0.0
    grads = []
    for _, t in named_params:
        if t.grad is not None:
            flat = t.grad.ravel()
            sq += float(np.dot(flat, flat))
            grads.append(t)
    norm = float(np.sqrt(sq))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for t in grads:
            t.grad = t.grad * t.grad.dtype.type(factor)
    return norm


@dataclass(frozen=True)
class CosineSchedule:
    """Linear ramp 0 -> base_lr over warmup, then cosine down to min_lr."""

    warmup_steps: int
    total_steps: int
    base_lr: float
    min_lr: float = 0.0

    def __post_init__(self):
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError(
                f"need 0 <= warmup_steps <= total_steps; got {self.warmup_steps}, {self.total_steps}"
            )
        if self.base_lr < self.min_lr or self.min_lr < 0:
            raise ValueError(f"need base_lr >= min_lr >= 0; got {self.base_lr}, {self.min_lr}")

    def lr_at(self, step: int) -> float:
        if not 0 <= step <= self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps}]")
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        span = self.total_steps - self.warmup_steps
        progress = (step - self.warmup_steps) / span if span > 0 else 1.0
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1.0 + math.cos(math.pi * progress))
