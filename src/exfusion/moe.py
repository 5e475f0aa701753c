"""Token-routed top-k mixture layer, the training-cost comparison baseline.

Each token picks the k highest-scoring full FFN experts from its softmax
gate row and sums their gated outputs. Dispatch is per-expert on the subset
of tokens that selected it; no capacity limits, no token dropping, no
auxiliary balancing loss. Ties break toward the lower expert index.
"""

from __future__ import annotations

import numpy as np

from .params import Affine, ArraySource, ExpertAffine
from .tensor import (
    Tensor,
    add,
    affine,
    gather_rows,
    gelu,
    index_first,
    index_last,
    mul,
    reshape,
    scatter_rows,
    softmax,
)


class Router(Affine):
    """Linear map dim -> n_experts whose softmax is the expert gate."""

    def __init__(self, name: str, dim: int, n_experts: int, src: ArraySource):
        super().__init__(name, dim, n_experts, src)
        self.n_experts = n_experts


def route(x: Tensor, router: Router) -> Tensor:
    """Per-token softmax gate over experts; rows sum to 1."""
    return softmax(router(x), axis=-1)


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
