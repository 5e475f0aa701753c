"""Token-routed top-k mixture layer, the training-cost comparison baseline.

Each token picks the k highest-scoring full FFN experts from its softmax
gate row and sums their gated outputs. Dispatch is sorted and dropless: the
(token, slot) pairs are stably sorted by expert, so each expert sees the
tokens that selected it as one contiguous segment in ascending token order,
and one grouped affine per projection runs every segment. No capacity
limits, no token dropping, no auxiliary balancing loss. Ties break toward
the lower expert index.
"""

from __future__ import annotations

import numpy as np

from .params import Affine, ArraySource, ExpertAffine
from .tensor import (
    Tensor,
    collect_rows,
    dispatch_rows,
    gather_rows,
    gelu,
    grouped_affine,
    mul,
    reshape,
    softmax,
)


class Router(Affine):
    """Linear map dim -> n_experts whose softmax is the expert gate."""

    def __init__(self, name: str, dim: int, n_experts: int, src: ArraySource):
        super().__init__(name, dim, n_experts, src)
        self.n_experts = n_experts


def route(x: Tensor, router: Router) -> Tensor:
    """Per-token softmax gate over experts; rows sum to 1."""
    return softmax(router(x))


def topk_select(gates: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest gate entries per row, ties to the lowest index."""
    n = gates.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"top_k must be in [1, {n}]; got {k}")
    order = np.argsort(-gates, axis=-1, kind="stable")
    return order[..., :k]


def topk_moe_forward(x: Tensor, up: ExpertAffine, down: ExpertAffine,
                     router: Router, k: int) -> Tensor:
    """Gate, select, and sum k expert FFN outputs per token.

    Gradients reach the router only through the gate values of selected
    experts and reach only the selected experts' parameters.
    """
    b, l, d = x.shape
    t = b * l
    n = up.n
    flat = reshape(x, (t, d))
    gates = route(flat, router)
    selected = topk_select(gates.data, k)

    # stable sort of the (token, slot) pairs by expert: segment i holds, in
    # ascending token order, the tokens that selected expert i
    experts = selected.ravel()
    order = np.argsort(experts, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    # a token's k sorted rows in ascending expert order, the order its outputs add up in
    slots = np.sort(position.reshape(t, k), axis=1)
    counts = np.bincount(experts, minlength=n)
    xs = dispatch_rows(flat, slots)
    h = gelu(grouped_affine(xs, up.weight, up.bias, counts))
    ys = grouped_affine(h, down.weight, down.bias, counts)
    tokens = order // k  # the token of each sorted row
    gs = gather_rows(reshape(gates, (t * n, 1)), tokens * n + experts[order], unique=True)
    out = collect_rows(mul(ys, gs), slots)
    return reshape(out, (b, l, d))
