"""Minimal pre-norm Transformer encoder with pluggable FFN slots.

Each block is ``x + attn(ln(x))`` then ``x + ffn(ln(x))``. The FFN slot is
either a token-routed top-k mixture or a set of experts fused by static /
learned / memory-bank weights; a dense slot is the one-expert static
fusion. Non-replaced layers always hold a dense slot. Classification pools
the sequence mean; language modeling applies a causal mask and
per-position logits.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import fusion as F
from .moe import Router, topk_moe_forward
from .params import Affine, ArraySource, Embedding, ExpertAffine, LayerNorm, checked_array
from .tensor import (
    ShapeError,
    Tensor,
    add,
    as_np_dtype,
    attention,
    embedding,
    gather_rows,
    no_grad,
    tmean,
)

VARIANTS = ("dense", "moe", "sw", "dw", "mb")
OBJECTIVES = ("classification", "lm")
EXPERT_INITS = ("independent", "replicate")

MASK_FILL = -1e9


@functools.lru_cache(maxsize=64)
def causal_mask(l: int, dtype: np.dtype) -> np.ndarray:
    """Additive [l, l] mask, MASK_FILL above the diagonal; one read-only array per (l, dtype)."""
    mask = np.triu(np.full((l, l), MASK_FILL), k=1).astype(dtype)
    mask.flags.writeable = False
    return mask


@dataclass
class ModelSpec:
    """Architecture plus FFN-variant configuration.

    ``replaced_layers`` is the set of block indices whose FFN follows
    ``variant``; ``None`` means every layer. ``num_experts``/``top_k``/
    ``momentum``/``shared_router`` only matter for the multi-expert
    variants.
    """

    depth: int
    dim: int
    heads: int
    expansion: int
    vocab_size: int
    num_classes: int
    max_seq_len: int
    objective: str = "classification"
    variant: str = "dense"
    num_experts: int = 4
    top_k: int = 1
    momentum: float = 0.95
    replaced_layers: tuple[int, ...] | None = None
    shared_router: bool = True
    expert_init: str = "independent"
    freeze_fusion_weights: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1; got {self.depth}")
        if self.dim < 1 or self.heads < 1 or self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} must be a positive multiple of heads {self.heads}")
        if self.expansion < 1:
            raise ValueError(f"expansion must be >= 1; got {self.expansion}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1; got {self.vocab_size}")
        if self.max_seq_len < 1:
            raise ValueError(f"max_seq_len must be >= 1; got {self.max_seq_len}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}; got {self.objective!r}")
        if self.objective == "classification" and self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2; got {self.num_classes}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}; got {self.variant!r}")
        if self.num_experts < 1:
            raise ValueError(f"num_experts must be >= 1; got {self.num_experts}")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError(
                f"top_k must be in [1, num_experts={self.num_experts}]; got {self.top_k}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1); got {self.momentum}")
        if self.expert_init not in EXPERT_INITS:
            raise ValueError(f"expert_init must be one of {EXPERT_INITS}; got {self.expert_init!r}")
        if self.replaced_layers is None:
            self.replaced_layers = tuple(range(self.depth))
        else:
            layers = tuple(sorted(set(int(i) for i in self.replaced_layers)))
            if layers and (layers[0] < 0 or layers[-1] >= self.depth):
                raise ValueError(
                    f"replaced_layers {layers} outside valid range [0, {self.depth})"
                )
            self.replaced_layers = layers

    @property
    def hidden(self) -> int:
        return self.dim * self.expansion

    @property
    def head_out(self) -> int:
        return self.num_classes if self.objective == "classification" else self.vocab_size

    def to_dict(self) -> dict:
        return dict(vars(self))


class AttentionLayer:
    """Multi-head scaled dot-product self-attention with output projection."""

    def __init__(self, name: str, dim: int, heads: int, src: ArraySource):
        self.heads = heads
        self.q = Affine(name + ".q", dim, dim, src)
        self.k = Affine(name + ".k", dim, dim, src)
        self.v = Affine(name + ".v", dim, dim, src)
        self.o = Affine(name + ".o", dim, dim, src)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        q, k, v = self.q(x), self.k(x), self.v(x)
        return self.o(attention(q, k, v, self.heads, mask))


class FFNSlot:
    """Stacked up/down expert sets plus the variant's weight source.

    Every kind but ``moe`` runs the same fused forward: the first controller
    weights the up set and the last the down set. A dense slot is the
    one-expert static fusion.
    """

    def __init__(self, name: str, kind: str, spec: ModelSpec, src: ArraySource):
        self.kind = kind
        n = spec.num_experts if kind != "dense" else 1
        replicate = spec.expert_init == "replicate"
        self.up = ExpertAffine(name + ".up", n, spec.dim, spec.hidden, src, replicate)
        self.down = ExpertAffine(name + ".down", n, spec.hidden, spec.dim, src, replicate)
        self.top_k = spec.top_k
        self.router: Router | None = None
        self.controllers: list = []
        if kind in ("dense", "sw"):
            self.controllers = [F.StaticFusion(n, src.dtype)]
        elif kind == "dw":
            self.controllers = [
                F.LearnedFusion(name + ".fusion", n, src, frozen=spec.freeze_fusion_weights)
            ]
        elif kind == "mb":
            tags = ("",) if spec.shared_router else (".up", ".down")
            self.controllers = [
                F.MemoryFusion(f"{name}.fusion{tag}",
                               Router(f"{name}.router{tag}", spec.dim, n, src),
                               spec.momentum, src)
                for tag in tags
            ]
        elif kind == "moe":
            self.router = Router(name + ".router", spec.dim, n, src)
        else:
            raise ValueError(f"unknown FFN slot kind {kind!r}")

    def fusion_weights(self, x: Tensor | None, training: bool) -> tuple[Tensor, Tensor]:
        """(up, down) fusion weights for this step; the eval weights ignore ``x``."""
        ws = [c.step_weights(x, training) for c in self.controllers]
        return ws[0], ws[-1]

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if self.kind == "moe":
            return topk_moe_forward(x, self.up, self.down, self.router, self.top_k)
        return F.fused_ffn_forward(x, self.up, self.down, *self.fusion_weights(x, training))


class TransformerBlock:
    def __init__(self, name: str, ffn_kind: str, spec: ModelSpec, src: ArraySource):
        self.ln1 = LayerNorm(name + ".ln1", spec.dim, src)
        self.attn = AttentionLayer(name + ".attn", spec.dim, spec.heads, src)
        self.ln2 = LayerNorm(name + ".ln2", spec.dim, src)
        self.ffn = FFNSlot(name + ".ffn", ffn_kind, spec, src)

    def forward(self, x: Tensor, mask: np.ndarray | None, training: bool) -> Tensor:
        x = add(x, self.attn(self.ln1(x), mask))
        return add(x, self.ffn.forward(self.ln2(x), training))


class Model:
    """Token embedding + positional table + blocks + final norm + head.

    ``Model(spec, dtype)`` draws fresh parameters; ``Model.from_arrays``
    adopts named arrays instead. Either way one ``params.ArraySource`` builds
    every container, and its record of what it created, in creation order,
    is the model's list of parameters and buffers.
    """

    def __init__(self, spec: ModelSpec, dtype: str = "f32"):
        self._build(spec, dtype, None)

    @classmethod
    def from_arrays(cls, spec: ModelSpec, arrays, dtype: str = "f32") -> "Model":
        """A model holding ``arrays`` (parameters and buffers by name), cast to
        ``dtype`` without a copy where they already have it. Names the model
        does not use are ignored."""
        model = cls.__new__(cls)
        model._build(spec, dtype, arrays)
        return model

    def _build(self, spec: ModelSpec, dtype: str, arrays) -> None:
        self.spec = spec
        self.dtype = dtype
        src = ArraySource(dtype, spec.seed, arrays)
        replaced = set(spec.replaced_layers)
        self.embed = Embedding("embed", spec.vocab_size, spec.dim, src)
        self.pos = Embedding("pos", spec.max_seq_len, spec.dim, src)
        self.blocks = []
        for i in range(spec.depth):
            kind = spec.variant if i in replaced else "dense"
            self.blocks.append(TransformerBlock(f"blocks.{i}", kind, spec, src))
        self.final_ln = LayerNorm("final_ln", spec.dim, src)
        self.head = Affine("head", spec.dim, spec.head_out, src)
        self._params = src.params
        self._buffers = src.buffers

    # -- forward ----------------------------------------------------------------

    def forward(self, tokens: np.ndarray, training: bool = False) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be [batch, seq]; got shape {tokens.shape}")
        b, l = tokens.shape
        if not b or not l:
            raise ShapeError(f"tokens must hold at least one sequence of at least one token; "
                             f"got shape {tokens.shape}")
        if l > self.spec.max_seq_len:
            raise ShapeError(f"sequence length {l} exceeds max_seq_len {self.spec.max_seq_len}")
        x = embedding(self.embed.weight, tokens)
        x = add(x, gather_rows(self.pos.weight, np.arange(l), unique=True))
        mask = causal_mask(l, x.dtype) if self.spec.objective == "lm" else None
        for block in self.blocks:
            x = block.forward(x, mask, training)
        x = self.final_ln(x)
        if self.spec.objective == "classification":
            return self.head(tmean(x, axis=1))
        return self.head(x)

    __call__ = forward

    # -- state ------------------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return list(self._buffers)

    def param_count(self) -> int:
        return sum(t.data.size for _, t in self.named_parameters())

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus buffers as plain arrays (live references)."""
        out = {name: t.data for name, t in self.named_parameters()}
        out.update({name: buf for name, buf in self.named_buffers()})
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays`` into this model's existing parameters and buffers.

        Every record is checked before any is taken, so a missing or
        wrong-shaped one leaves the model as it was. Parameters are rebound
        to copies, never written in place: a recorded graph keeps its
        weights, and no caller array is adopted.
        """
        params = [(t, checked_array(arrays, name, t.shape)) for name, t in self.named_parameters()]
        buffers = [(buf, checked_array(arrays, name, buf.shape)) for name, buf in self.named_buffers()]
        for t, arr in params:
            t.data = arr.astype(t.data.dtype)
        for buf, arr in buffers:
            buf[...] = arr

    def bank_state(self) -> dict[str, np.ndarray]:
        return {name: buf.copy() for name, buf in self.named_buffers()}

    def set_bank_state(self, state: dict[str, np.ndarray]) -> None:
        buffers = dict(self.named_buffers())
        for name in state:
            buf = buffers[name]
            buf[...] = checked_array(state, name, buf.shape)

    def zero_grad(self) -> None:
        for _, t in self.named_parameters():
            t.grad = None

    def cast(self, dtype: str) -> "Model":
        """Copy of this model with every parameter/buffer cast to ``dtype``."""
        target = as_np_dtype(dtype)
        arrays = {name: arr.astype(target, order="C")
                  for name, arr in self.state_arrays().items()}
        return Model.from_arrays(self.spec, arrays, dtype)


def expected_param_count(spec: ModelSpec) -> int:
    """Closed-form parameter count for a ModelSpec; must match the model exactly."""
    d, h = spec.dim, spec.hidden
    total = spec.vocab_size * d + spec.max_seq_len * d  # embeddings
    replaced = set(spec.replaced_layers)
    router_params = d * spec.num_experts + spec.num_experts
    for i in range(spec.depth):
        total += 2 * d + 2 * d              # two layernorms
        total += 4 * (d * d + d)            # attention projections
        n = spec.num_experts if (spec.variant != "dense" and i in replaced) else 1
        total += n * (d * h + h) + n * (h * d + d)
        if spec.variant != "dense" and i in replaced:
            if spec.variant == "dw":
                total += spec.num_experts
            elif spec.variant == "mb":
                total += router_params if spec.shared_router else 2 * router_params
            elif spec.variant == "moe":
                total += router_params
    total += 2 * d                           # final layernorm
    total += d * spec.head_out + spec.head_out
    return total


def collapse_to_dense(model: Model) -> Model:
    """Export a plain dense model whose eval outputs match the source.

    Every multi-expert slot is replaced by the single affine pair that its
    eval-mode fusion weights give through ``fusion.fuse``, the combine the
    source model runs in its own eval forward, so eval logits agree
    bitwise; routers and banks are dropped. The dense model owns its
    arrays: the ones it keeps are copied, so it never aliases the source.
    """
    if model.spec.variant == "moe":
        raise ValueError("top-k mixture models cannot be collapsed; experts are not fused")
    dense_spec = dataclasses.replace(model.spec, variant="dense", replaced_layers=())
    names = {id(t): name for name, t in model.named_parameters()}
    fused = {}
    with no_grad():
        for block in model.blocks:
            slot = block.ffn
            for experts, w in zip((slot.up, slot.down), slot.fusion_weights(None, training=False)):
                f = F.fuse(experts, w)
                fused[names[id(experts.weight)]] = f.weight.data[None]
                fused[names[id(experts.bias)]] = f.bias.data[None]
    arrays = {name: arr.copy() for name, arr in model.state_arrays().items() if name not in fused}
    arrays.update(fused)
    return Model.from_arrays(dense_spec, arrays, model.dtype)
