"""Span tracer that instruments exfusion from the outside.

The traced run wraps public exfusion functions at the spot where their
callers look them up (a module global or a class attribute), records one
span per call, and restores every original afterwards. Tensor ops are
grouped; each op's backward closure is wrapped on the tensors it returns so
that vjp time is charged to the same group.

Spans live in flat in-memory arrays (name, start, end, parent, activity) and
are aggregated only when the run ends.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

import numpy as np

from exfusion import checkpoint, fusion, model, moe, params, tensor, train
from exfusion.tensor import Tensor

OP_GROUPS = {
    "matmul": ("matmul",),
    "gelu": ("gelu",),
    "layernorm": ("layernorm",),
    "softmax": ("softmax",),
    "cross_entropy": ("cross_entropy",),
    "combine": ("combine",),
    "embedding": ("embedding",),
    "elementwise": ("add", "sub", "mul", "scale", "tsum", "tmean"),
    "shape": ("reshape", "transpose"),
    "index": ("gather_rows", "scatter_rows", "index_first", "index_last"),
}

# Modules whose code calls tensor ops through its own globals.
OP_CALLERS = (params, fusion, moe, model, train)

# (owner, attribute, span name): layer boundaries wrapped where callers look them up.
LAYER_SPANS = (
    (model.Model, "forward", "model.forward"),
    (model.AttentionLayer, "__call__", "model.attn"),
    (model.FFNSlot, "forward", "model.ffn"),
    (model, "topk_moe_forward", "moe.forward"),
    (fusion, "fuse", "fusion.fuse"),
    (fusion, "router_fusion_weights", "fusion.router"),
    (params, "normal_init", "params.init"),
)

# Every module or class the tracer may patch; the untraced-run check snapshots all of them.
PATCHABLE = (tensor, params, fusion, moe, model, train, checkpoint,
             Tensor, model.Model, model.AttentionLayer, model.FFNSlot)

_MARK = "_perfbench_wrapped"


def snapshot():
    """Identity snapshot of every attribute the tracer could patch."""
    return {(id(owner), name): value
            for owner in PATCHABLE for name, value in vars(owner).items()}


def changed_attributes(before) -> list[str]:
    after = snapshot()
    keys = set(before) | set(after)
    return sorted(f"{k[1]}" for k in keys if before.get(k, None) is not after.get(k, None))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.activity = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._activity = -1
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.expert_shares: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.activity.append(self._activity)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        while self._stack.pop() != idx:  # spans an exception left open end here too
            pass

    def begin_activity(self, name: str) -> int:
        self._activity = self._id(name)
        return self.begin(name)

    def finish_activity(self, idx: int) -> None:
        self.finish(idx)
        self._activity = -1

    def current_activity(self) -> str:
        return self.names[self._activity] if self._activity >= 0 else "bench"

    def count(self, name: str, value: float = 1.0, activity: str | None = None) -> None:
        self.counters[(activity or self.current_activity(), name)] += value

    # -- instrumentation ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(idx)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _op_wrapper(self, group: str, fn):
        tracer = self
        fwd, vjp = f"tensor.{group}.fwd", f"tensor.{group}.vjp"

        def wrapper(*args, **kwargs):
            idx = tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            tracer._wrap_vjps(out, args, vjp)
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def _wrap_vjps(self, out, args, name: str) -> None:
        """Time the backward closure of every node this op put on the tape."""
        inputs = {id(a) for a in args if isinstance(a, Tensor)}
        stack = [out]
        while stack:
            node = stack.pop()
            fn = node._vjp
            if id(node) in inputs or fn is None or getattr(fn, _MARK, False):
                continue
            node._vjp = self._timed_vjp(name, fn)
            stack.extend(node._parents)

    def _timed_vjp(self, name: str, fn):
        tracer = self

        def timed(g):
            idx = tracer.begin(name)
            try:
                return fn(g)
            finally:
                tracer.finish(idx)

        setattr(timed, _MARK, True)
        return timed

    def install(self) -> None:
        ops = {fn: group for group, fns in OP_GROUPS.items() for fn in fns}
        for mod in OP_CALLERS:
            for attr, group in ops.items():
                if vars(mod).get(attr) is getattr(tensor, attr):
                    self._patch(mod, attr, self._op_wrapper(group, vars(mod)[attr]))
        for owner, attr, name in LAYER_SPANS:
            self._patch(owner, attr, self._span_wrapper(name, vars(owner)[attr]))
        self._patch(moe, "topk_select", self._expert_load(moe.topk_select))
        self._patch(checkpoint, "write_checkpoint", self._ckpt_write(checkpoint.write_checkpoint))
        self._patch(checkpoint, "read_checkpoint", self._ckpt_read(checkpoint.read_checkpoint))
        self._patch(Tensor, "__init__", self._counted_init(Tensor.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _expert_load(self, fn):
        tracer = self

        def wrapper(gates, k):
            selected = fn(gates, k)
            load = np.bincount(selected.ravel(), minlength=gates.shape[-1])
            tracer.count("moe.dispatched_rows", float(selected.size))
            tracer.expert_shares[tracer.current_activity()].append(
                float(load.max()) / gates.shape[0])
            return selected

        return wrapper

    def _ckpt_write(self, fn):
        tracer = self

        def wrapper(path, tensors, meta=None):
            idx = tracer.begin("checkpoint.write")
            try:
                fn(path, tensors, meta)
            finally:
                tracer.finish(idx)
            tracer.count("checkpoint.write_bytes", float(os.path.getsize(path)))
            tracer.count("checkpoint.records", float(len(tensors) + len(meta or {})))

        return wrapper

    def _ckpt_read(self, fn):
        tracer = self

        def wrapper(path):
            idx = tracer.begin("checkpoint.read")
            try:
                tensors, meta = fn(path)
            finally:
                tracer.finish(idx)
            tracer.count("checkpoint.read_bytes", float(os.path.getsize(path)))
            return tensors, meta

        return wrapper

    def _counted_init(self, init):
        tracer = self

        def __init__(self_, *args, **kwargs):
            tracer.count("tensor.tensor_inits")
            init(self_, *args, **kwargs)

        return __init__

    # -- aggregation -------------------------------------------------------

    def durations(self):
        """(inclusive, self) seconds per span, children subtracted from parents."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        inclusive = end - start
        self_time = inclusive.copy()
        has_parent = parent >= 0
        np.subtract.at(self_time, parent[has_parent], inclusive[has_parent])
        return inclusive, self_time

    def by_name(self):
        """{(activity, span name): [calls, inclusive s, self s]}."""
        inclusive, self_time = self.durations()
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (n, a) in enumerate(zip(self.name, self.activity)):
            act = self.names[a] if a >= 0 else "bench"
            row = out[(act, self.names[n])]
            row[0] += 1
            row[1] += inclusive[i]
            row[2] += self_time[i]
        return out

    def span_tree(self):
        """Spans merged by call path: {path: [calls, inclusive s, self s]}."""
        inclusive, self_time = self.durations()
        paths: list[str] = []
        tree: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            path = self.names[n] if p < 0 else paths[p] + "/" + self.names[n]
            paths.append(path)
            row = tree[path]
            row[0] += 1
            row[1] += inclusive[i]
            row[2] += self_time[i]
        return dict(tree)

    def raw_spans(self, limit: int):
        return [[self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]]
                for i in range(min(limit, len(self.start)))]
