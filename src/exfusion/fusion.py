"""Parameter-level expert fusion for FFN layers.

An FFN position holds N stacked affine experts. A weight vector w collapses
them into one affine map (sum_i w_i W_i, sum_i w_i b_i), which then
processes the input; the affine identity makes this equal to the weighted
sum of per-expert outputs. Three weight sources are provided:

* static: constant 1/N per expert, no extra state;
* learned: one trainable weight vector shared by a layer's up and down sets;
* memory: a routing layer scores experts per token, the batch-mean softmax
  is folded into a per-layer exponential moving average (the "bank"), and
  the bank fuses the experts. The bank is statistics, not a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .moe import Router, route
from .params import ArraySource, ExpertAffine
from .tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    affine,
    as_np_dtype,
    combine,
    gelu,
    reshape,
    scale,
    tmean,
)


class FusedAffine(NamedTuple):
    weight: Tensor
    bias: Tensor


def uniform_weights(n: int, dtype) -> np.ndarray:
    return np.full(n, 1.0 / n, dtype=as_np_dtype(dtype))


def _checked_weights(experts: ExpertAffine, weights) -> Tensor:
    """``weights`` as a finite vector tensor with one entry per expert."""
    if not isinstance(weights, Tensor):
        weights = Tensor(np.asarray(weights, dtype=experts.weight.data.dtype))
    wd = weights.data
    if wd.ndim != 1 or wd.shape[0] != experts.n:
        raise ShapeError(f"fuse: expected {experts.n} weights, got shape {wd.shape}")
    if not np.isfinite(wd).all():
        raise NonFiniteError("fuse: non-finite fusion weights")
    return weights


def _fuse(experts: ExpertAffine, weights: Tensor) -> FusedAffine:
    return FusedAffine(combine(weights, experts.weight), combine(weights, experts.bias))


def fuse(experts: ExpertAffine, weights) -> FusedAffine:
    """Collapse an expert set into one affine layer with the given weights.

    Differentiable with respect to both the experts and (when ``weights``
    is a tensor requiring grad) the weights themselves.
    """
    return _fuse(experts, _checked_weights(experts, weights))


def fused_ffn_forward(x: Tensor, up: ExpertAffine, down: ExpertAffine, weights) -> Tensor:
    """Run the FFN through the up and down expert sets, both fused with the one
    weight vector ``weights`` as ``fuse`` does; it is checked once."""
    w = _checked_weights(up, weights)
    fu, fd = _fuse(up, w), _fuse(down, w)
    h = gelu(affine(x, fu.weight, fu.bias))
    return affine(h, fd.weight, fd.bias)


def router_fusion_weights(x: Tensor, router: Router) -> Tensor:
    """Mean over all tokens of the per-token softmax gate: one scalar per expert.

    Sums to 1 and stays differentiable into the router and the input.
    """
    if x.data.size == 0:
        raise ValueError("router_fusion_weights: empty batch")
    gates = route(x, router)
    flat = reshape(gates, (-1, router.n_experts))
    return tmean(flat, axis=0)


def ema_update(bank: np.ndarray, w: Tensor, delta: float) -> Tensor:
    """One momentum step ``delta * bank + (1 - delta) * w`` (pure, stateless).

    The stored ``bank`` enters as a constant; the gradient flows through
    the fresh ``(1 - delta) * w`` term only.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"momentum delta must be in [0, 1); got {delta}")
    if np.shape(bank) != w.shape:
        raise ShapeError(f"ema_update: bank shape {np.shape(bank)} vs weights shape {w.shape}")
    return add(Tensor(delta * bank), scale(w, 1.0 - delta))


class StaticFusion:
    """Constant uniform fusion weights; the N=1 case is a plain dense layer.

    The weight tensor never takes a gradient, so one instance serves every step.
    """

    def __init__(self, n: int, dtype):
        self._weights = Tensor(uniform_weights(n, dtype))

    def step_weights(self, x: Tensor, training: bool) -> Tensor:
        return self._weights


class LearnedFusion:
    """One trainable weight vector shared by the up and down sets of a layer."""

    def __init__(self, name: str, n: int, src: ArraySource, frozen: bool = False):
        self.weights = src.full(name + ".weights", (n,), 1.0 / n, requires_grad=not frozen)

    def step_weights(self, x: Tensor, training: bool) -> Tensor:
        return self.weights


class MemoryFusion:
    """Router-scored fusion weights smoothed by a momentum bank.

    The bank starts at zeros and is updated in place, only during training
    forwards, so the array the model lists among its buffers stays current.
    The stored history is a constant for gradient purposes; the fresh
    ``(1 - delta) * w`` term keeps the router trainable. The eval path puts
    a copy of the bank on the tape, since tape data must not change.
    """

    def __init__(self, name: str, router: Router, delta: float, src: ArraySource):
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"momentum delta must be in [0, 1); got {delta}")
        self.router = router
        self.delta = delta
        self.bank = src.buffer(name + ".bank", (router.n_experts,))

    def step_weights(self, x: Tensor, training: bool) -> Tensor:
        if not training:
            return Tensor(self.bank.copy())
        m = ema_update(self.bank, router_fusion_weights(x, self.router), self.delta)
        self.bank[...] = m.data
        return m


@dataclass
class VarianceReport:
    """Monte-Carlo check that averaging k noisy predictors divides variance by k."""

    k: int
    sigma: float
    bias: float
    trials: int
    empirical_var: float
    predicted_var: float
    empirical_mean: float


def variance_reduction_demo(k: int, sigma: float, trials: int, seed: int = 0,
                            bias: float = 0.0) -> VarianceReport:
    """Average k i.i.d. draws (bias + Gaussian noise) per trial.

    The mean of the average stays at ``bias`` while its variance shrinks to
    ``sigma**2 / k``.
    """
    if k < 1 or trials < 1:
        raise ValueError(f"k and trials must be >= 1; got k={k}, trials={trials}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    draws = bias + rng.normal(0.0, sigma, size=(trials, k))
    means = draws.mean(axis=1)
    return VarianceReport(
        k=k,
        sigma=sigma,
        bias=bias,
        trials=trials,
        empirical_var=float(means.var(ddof=1)) if trials > 1 else 0.0,
        predicted_var=sigma * sigma / k,
        empirical_mean=float(means.mean()),
    )
