"""AdamW with decoupled weight decay, warmup+cosine schedule, gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import checked_array
from .tensor import NonFiniteError, Tensor


class AdamW:
    """Decoupled-decay Adam over named parameters.

    Only tensors with ``requires_grad`` participate; parameters whose grad
    is ``None`` at step time are skipped entirely (no decay either).
    Memory banks never appear here: they are buffers, not parameters.
    Names listed in ``no_decay`` update without the decay term; by default
    those are ``no_decay_names(named_params)``, the learnable fusion weights.
    """

    def __init__(self, named_params, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 no_decay: frozenset[str] | set[str] | None = None):
        self.params: list[tuple[str, Tensor]] = [
            (name, t) for name, t in named_params if t.requires_grad
        ]
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.no_decay = frozenset(no_decay_names(self.params) if no_decay is None else no_decay)
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params}

    def grads_finite(self) -> bool:
        return all(
            t.grad is None or np.isfinite(t.grad).all() for _, t in self.params
        )

    def step(self, lr: float) -> bool:
        """Apply one update at learning rate ``lr``.

        Returns False (and mutates nothing, moments included) when any
        gradient is non-finite, so the caller can report and skip.
        """
        lr = float(lr)
        if not self.grads_finite():
            return False
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and name not in self.no_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - lr * update
        return True

    # -- checkpoint support ----------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"opt/m/{name}": arr for name, arr in self.m.items()}
        out.update({f"opt/v/{name}": arr for name, arr in self.v.items()})
        out["opt/step"] = np.array([self.step_count], dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt saved moments and step count. A missing, wrong-shaped or
        non-finite record is refused before any state changes."""
        moments = []
        for prefix, store in (("opt/m/", self.m), ("opt/v/", self.v)):
            moment = {}
            for name, current in store.items():
                key = prefix + name
                arr = checked_array(arrays, key, current.shape)
                if not np.isfinite(arr).all():
                    raise NonFiniteError(f"array {key!r} has non-finite values")
                moment[name] = arr.astype(current.dtype, copy=True)
            moments.append(moment)
        step = checked_array(arrays, "opt/step", (1,))
        if step.dtype.kind not in "iu" or step[0] < 0:
            raise ValueError(f"array 'opt/step' must hold a non-negative integer; got {step[0]!r}")
        self.m, self.v = moments
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
