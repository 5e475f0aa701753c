"""Every exfusion name the benchmark's tracer patches must exist, and every
keyword the benchmark's workloads pass must still be accepted.

``perfbench/tracer.py`` looks its op primitives up on ``exfusion.tensor`` and
its layer spans on the module or class that owns them, and
``perfbench/workloads.py`` calls a few constructors with keywords. Deleting
one of them from exfusion would otherwise fail only as a ``perfbench/tests``
smoke run; these tests name the missing attribute or parameter directly.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from exfusion import tensor
from exfusion.checkpoint import save_model_checkpoint
from exfusion.model import Model, ModelSpec
from exfusion.optim import AdamW
from exfusion.train import TASK_DERIVED, model_spec_for_task

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_op_group_name_is_a_tensor_primitive(tracer):
    names = [name for group in tracer.OP_GROUPS.values() for name in group]
    assert names
    assert [name for name in names if not callable(getattr(tensor, name, None))] == []


def test_every_layer_span_target_is_defined_on_its_owner(tracer):
    assert tracer.LAYER_SPANS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracer.LAYER_SPANS
               if not callable(vars(owner).get(attr))]
    assert missing == []


def test_install_patches_and_restores_every_hook(tracer):
    before = tracer.snapshot()
    t = tracer.Tracer()
    try:
        t.install()
        assert t._patches
    finally:
        t.uninstall()
    assert tracer.changed_attributes(before) == []


def test_moe_forward_is_traced_and_counts_its_rows(tracer):
    # a moe forward that stops calling ``model.topk_moe_forward`` or
    # ``moe.topk_select`` through their module globals would report 0 here
    spec = ModelSpec(depth=2, dim=8, heads=2, expansion=2, vocab_size=7, num_classes=3,
                     max_seq_len=5, variant="moe", num_experts=3, top_k=2, seed=1)
    model = Model(spec)
    tokens = np.random.default_rng(0).integers(0, spec.vocab_size, size=(3, 5))
    t = tracer.Tracer()
    try:
        t.install()
        model.forward(tokens, training=True)
    finally:
        t.uninstall()
    spans = t.by_name()
    assert spans[("bench", "moe.forward")][0] == spec.depth
    assert t.counters[("bench", "moe.dispatched_rows")] == spec.depth * tokens.size * spec.top_k
    assert len(t.expert_shares["bench"]) == spec.depth


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up as they are built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_workload_keywords_bind(workloads):
    # each call as perfbench/workloads.py makes it: (callable, positional, keywords)
    calls = [
        (AdamW, ("named",), ("weight_decay", "no_decay")),
        (save_model_checkpoint, ("path", "model"), ("step", "optimizer", "extra_meta")),
        (Model, ("spec",), ("dtype",)),
    ]
    for w in workloads.WORKLOADS.values():
        calls.append((model_spec_for_task, ("task",), ("variant", "seed", *w.model)))
        # where model_spec_for_task sends them, with the fields it fills from the task
        calls.append((ModelSpec, (), ("variant", "seed", *w.model, *TASK_DERIVED)))
    problems = []
    for fn, args, keywords in calls:
        try:
            inspect.signature(fn).bind(*args, **dict.fromkeys(keywords))
        except TypeError as exc:
            problems.append(f"{fn.__name__}: {exc}")
    assert problems == []
