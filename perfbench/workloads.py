"""Workload definitions and the closed measurement loop.

A workload is one set of inputs: a task, a model shape and a dtype. Every
run on a workload repeats the same round, one caller, no concurrency:

* one training step for each of the five variant lanes, in a fixed order
  (the span ``train_loop`` times: batch, zero_grad, loss, backward, clip,
  AdamW);
* one pass of save -> load -> collapse_to_dense -> evaluate
  (fused, then exported) on the live ``mb`` lane and its optimizer;
* ``fd_calls`` rounds of the finite-difference inner loop of
  ``verify gradients``: reset the bank, then a no-grad float64 forward plus
  loss, on float64 twins of the sw/dw/mb lanes, interleaved.

Training changes what a step costs (activation ranges, gradient sizes), so
the lanes replay the same window: after ``cycle`` rounds every lane is
restored to its initial parameters and optimizer state and the step counter
restarts, which makes every cycle the same work on the same data. A replayed
step must reproduce its first loss bit for bit.

Every operation is checked as it runs; a failed check counts against the
operations attempted. All inputs come from the workload seed.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from exfusion import (
    AdamW,
    Model,
    build_task,
    collapse_to_dense,
    expected_param_count,
    no_grad,
)
from exfusion.checkpoint import load_model_checkpoint, save_model_checkpoint
from exfusion.model import VARIANTS
from exfusion.optim import clip_grad_norm
from exfusion.tasks import TaskSpec
from exfusion.train import batch_loss, evaluate, model_spec_for_task

LR = 1e-3
WEIGHT_DECAY = 0.05
GRAD_CLIP = 1.0
FD_LANES = ("sw", "dw", "mb")
FD_BATCH = 2              # sequences per finite-difference forward, as in the grad check
EXPORT_TOL = 1e-5         # criterion 2's fused-vs-exported logit tolerance
PROBE_ROWS = 8            # validation rows whose logits are compared after export
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: dict
    model: dict
    batch: int
    dtype: str = "f32"
    cycle: int = 10
    warmup_rounds: int = 2
    fd_calls: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        name="charlm-small",
        why="char_lm 2/32/16, N=4: per-op overhead bound (144-258 tape nodes a step), "
            "so tape and small-op changes show and BLAS or AdamW changes barely do",
        task=dict(task="char_lm", seq_len=32),
        model=dict(depth=2, dim=32, heads=4, expansion=4, num_experts=4, top_k=1,
                   momentum=0.95),
        batch=16,
    ),
    Workload(
        name="cluster-wide",
        why="synthetic_cluster 4/128/64, N=4: compute bound by matmul and GELU, fused "
            "AdamW 3x dense; optimizer, GELU and fusion changes show, tape overhead barely",
        task=dict(task="synthetic_cluster", seq_len=32, vocab_size=32, num_classes=8),
        model=dict(depth=4, dim=128, heads=4, expansion=4, num_experts=4, top_k=1,
                   momentum=0.95),
        batch=64,
        cycle=4,
        warmup_rounds=1,
    ),
    Workload(
        name="verify-fd",
        why="the f64 grad-check model (depth 2, dim 8, N=3, tokens 2x4): the no-grad "
            "forward loop of verify gradients, f64 only, so f32-only changes must not move it",
        # noise 3.0 spreads the 2x4-token inputs over the vocabulary like the grad
        # check's uniform tokens. Validation rows that duplicate a training row are
        # dropped; with 64 training rows 54-64 of the 64 remain on seeds 0-199, so
        # evaluate does nearly the same work on every seed.
        task=dict(task="synthetic_cluster", seq_len=4, vocab_size=7, num_classes=3,
                  train_size=64, val_size=64, noise=3.0),
        model=dict(depth=2, dim=8, heads=2, expansion=2, num_experts=3, top_k=1,
                   momentum=0.95),
        batch=2,
        dtype="f64",
        fd_calls=10,
    ),
)}


@dataclass
class Lane:
    variant: str
    model: Model
    named: list
    opt: AdamW
    losses: list = field(default_factory=list)  # first loss of each step in the cycle

    def snapshot(self) -> tuple[dict, dict]:
        return ({k: v.copy() for k, v in self.model.state_arrays().items()},
                {k: v.copy() for k, v in self.opt.state_arrays().items()})

    def restore(self, snap) -> None:
        self.model.load_state_arrays(snap[0])
        self.opt.load_state_arrays(snap[1])


@dataclass
class FdLane:
    variant: str
    twin: Model
    banks: dict
    reference: bytes | None = None


@dataclass
class State:
    task: object
    lanes: list
    fd_lanes: list
    fd_batch: tuple
    probe: np.ndarray
    ckpt_path: Path

    @property
    def mb(self) -> Lane:
        return next(lane for lane in self.lanes if lane.variant == "mb")


def build(w: Workload, seed: int, scratch: Path) -> State:
    """Everything a run needs before its first step: task, lanes, f64 twins."""
    task = build_task(TaskSpec(seed=seed, **w.task))
    lanes = []
    for variant in VARIANTS:
        spec = model_spec_for_task(task, variant=variant, seed=seed, **w.model)
        model = Model(spec, dtype=w.dtype)
        named = model.named_parameters()
        no_decay = frozenset(n for n, _ in named if n.endswith(".fusion.weights"))
        lanes.append(Lane(variant, model, named,
                          AdamW(named, weight_decay=WEIGHT_DECAY, no_decay=no_decay)))
    fd_lanes = []
    for lane in lanes:
        if lane.variant in FD_LANES:
            banks = {k: v.astype(np.float64) for k, v in lane.model.bank_state().items()}
            fd_lanes.append(FdLane(lane.variant, lane.model.cast("f64"), banks))
    val_x, _ = task.val_data()
    return State(task, lanes, fd_lanes, task.batch(0, FD_BATCH), val_x[:PROBE_ROWS],
                 scratch / "lane_mb.ckpt")


class NoSpans:
    """Stands in for the tracer in untraced rounds: every call is a no-op."""

    def begin(self, name):
        return 0

    finish = begin_activity = finish_activity = begin


def tape_nodes(root) -> int:
    """Tensors reachable from ``root`` through the tape, leaves included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class Runner:
    """Runs rounds on one workload and keeps per-metric samples in ms."""

    def __init__(self, w: Workload, state: State, tracer=None):
        self.w = w
        self.state = state
        self.tracer = tracer
        self.spans = NoSpans()
        self.samples: dict[str, list[float]] = {}
        self.traced_samples: dict[str, list[float]] = {}
        self._sink = self.samples
        self.step_no = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0
        self.traced_rounds = 0

    # -- bookkeeping -------------------------------------------------------

    def _record(self, metric: str, seconds: float) -> None:
        if self._sink is not None:
            self._sink.setdefault(metric, []).append(seconds * 1e3)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    # -- operations --------------------------------------------------------

    def step(self, lane: Lane) -> None:
        sp, task, w = self.spans, self.state.task, self.w
        self.attempted += 1
        try:
            a = sp.begin_activity("step." + lane.variant)
            t0 = time.perf_counter()
            i = sp.begin("tasks.batch")
            xb, yb = task.batch(self.step_no, w.batch)
            sp.finish(i)
            i = sp.begin("model.zero_grad")
            lane.model.zero_grad()
            sp.finish(i)
            i = sp.begin("train.batch_loss")
            loss = batch_loss(lane.model, xb, yb, training=True)
            value = float(loss.data)
            sp.finish(i)
            i = sp.begin("tensor.backward")
            loss.backward()
            sp.finish(i)
            i = sp.begin("optim.clip")
            clip_grad_norm(lane.named, GRAD_CLIP)
            sp.finish(i)
            i = sp.begin("optim.adamw")
            applied = lane.opt.step(LR)
            sp.finish(i)
            elapsed = time.perf_counter() - t0
            sp.finish_activity(a)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self._fail(f"step {self.step_no} {lane.variant}: {exc!r}")
            return
        self._record("step_ms." + lane.variant, elapsed)
        if self.spans is self.tracer:
            self._count_step(lane, loss, applied)
        if len(lane.losses) < self.step_no:
            lane.losses.append(value)
        if not math.isfinite(value):
            self._fail(f"step {self.step_no} {lane.variant}: non-finite loss {value}")
        elif not applied:
            self._fail(f"step {self.step_no} {lane.variant}: AdamW.step skipped the update")
        elif np.float64(value).tobytes() != np.float64(lane.losses[self.step_no - 1]).tobytes():
            self._fail(f"step {self.step_no} {lane.variant}: replayed loss {value!r} != "
                       f"{lane.losses[self.step_no - 1]!r}")

    def _count_step(self, lane: Lane, loss, applied: bool) -> None:
        tr, act = self.tracer, "step." + lane.variant
        tr.count("tensor.tape_nodes", tape_nodes(loss), act)
        tr.count("optim.param_tensors", sum(t.grad is not None for _, t in lane.opt.params), act)
        tr.count("optim.skipped_updates", 0.0 if applied else 1.0, act)

    def lifecycle(self) -> None:
        sp, st = self.spans, self.state
        lane = st.mb
        self.attempted += 1
        try:
            a = sp.begin_activity("lifecycle")
            t0 = time.perf_counter()
            i = sp.begin("checkpoint.save")
            save_model_checkpoint(st.ckpt_path, lane.model, step=self.step_no, optimizer=lane.opt,
                                  extra_meta={"task_spec": st.task.spec.to_dict()})
            sp.finish(i)
            t1 = time.perf_counter()
            i = sp.begin("checkpoint.load")
            loaded = load_model_checkpoint(st.ckpt_path)
            sp.finish(i)
            t2 = time.perf_counter()
            i = sp.begin("model.collapse")
            dense = collapse_to_dense(loaded.model)
            sp.finish(i)
            t3 = time.perf_counter()
            i = sp.begin("train.evaluate")
            fused_eval = evaluate(loaded.model, st.task)
            sp.finish(i)
            t4 = time.perf_counter()
            i = sp.begin("train.evaluate")
            exported_eval = evaluate(dense, st.task)
            sp.finish(i)
            t5 = time.perf_counter()
            sp.finish_activity(a)
            a = sp.begin_activity("check")
            problems = self._check_export(lane, loaded, dense, fused_eval, exported_eval)
            sp.finish_activity(a)
        except Exception as exc:
            self._fail(f"lifecycle at step {self.step_no}: {exc!r}")
            return
        for metric, span in (("ckpt_save_ms", t1 - t0), ("ckpt_load_ms", t2 - t1),
                             ("export_ms", t3 - t2), ("eval_ms.fused", t4 - t3),
                             ("eval_ms.exported", t5 - t4)):
            self._record(metric, span)
        if problems:
            self._fail(f"lifecycle at step {self.step_no}: " + "; ".join(problems))

    def _check_export(self, lane, loaded, dense, fused_eval, exported_eval) -> list[str]:
        problems = []
        saved = {**lane.model.state_arrays(), **lane.opt.state_arrays()}
        back = {**loaded.model.state_arrays(), **loaded.opt_arrays}
        if saved.keys() != back.keys():
            problems.append(f"loaded names differ: {sorted(saved.keys() ^ back.keys())[:3]}")
        else:
            for name, arr in saved.items():
                got = back[name]
                if (arr.dtype != got.dtype or arr.shape != got.shape
                        or arr.tobytes() != got.tobytes()):
                    problems.append(f"loaded {name} is not byte-equal to saved")
                    break
        with no_grad():
            a = loaded.model.forward(self.state.probe, training=False).data
            b = dense.forward(self.state.probe, training=False).data
        diff = float(np.abs(a.astype(np.float64) - b).max())
        if not diff <= EXPORT_TOL:
            problems.append(f"fused vs exported logits differ by {diff:.3e} > {EXPORT_TOL:g}")
        want = expected_param_count(dataclasses.replace(lane.model.spec, variant="dense"))
        if dense.param_count() != want:
            problems.append(f"exported param_count {dense.param_count()} != {want}")
        if not (math.isfinite(fused_eval.loss) and math.isfinite(exported_eval.loss)):
            problems.append("non-finite evaluation loss")
        return problems

    def fd(self, lane: FdLane) -> None:
        sp = self.spans
        xb, yb = self.state.fd_batch
        self.attempted += 1
        try:
            a = sp.begin_activity("fd." + lane.variant)
            t0 = time.perf_counter()
            lane.twin.set_bank_state(lane.banks)
            with no_grad():
                value = float(batch_loss(lane.twin, xb, yb, training=True).data)
            elapsed = time.perf_counter() - t0
            sp.finish_activity(a)
        except Exception as exc:
            self._fail(f"fd {lane.variant}: {exc!r}")
            return
        self._record("fd_forward_ms", elapsed)
        bits = np.float64(value).tobytes()
        if lane.reference is None:
            lane.reference = bits
        if not math.isfinite(value):
            self._fail(f"fd {lane.variant}: non-finite loss {value}")
        elif bits != lane.reference:
            self._fail(f"fd {lane.variant}: loss {value!r} differs from the first call")

    # -- rounds ------------------------------------------------------------

    def round(self) -> None:
        self.step_no += 1
        for lane in self.state.lanes:
            self.step(lane)
        self.lifecycle()
        for _ in range(self.w.fd_calls):
            for lane in self.state.fd_lanes:
                self.fd(lane)

    def restart_cycle(self, snaps) -> None:
        for lane, snap in zip(self.state.lanes, snaps):
            lane.restore(snap)
        self.step_no = 0

    def run(self, seconds: float, calibrate) -> None:
        """Warm up, then repeat rounds until ``seconds`` pass (at least MIN_ROUNDS).

        With a tracer, every second round is traced and the rest feed the
        tracing-overhead comparison; untraced runs never touch the tracer.
        """
        snaps = [lane.snapshot() for lane in self.state.lanes]
        self._sink = None
        for _ in range(self.w.warmup_rounds):
            self.round()
        self.restart_cycle(snaps)
        deadline = time.perf_counter() + seconds
        while self.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            if self.step_no == self.w.cycle:
                self.restart_cycle(snaps)
            traced = self.tracer is not None and self.rounds % 2 == 1
            if traced:
                self._sink, self.spans = self.traced_samples, self.tracer
                self.tracer.install()
                r = self.tracer.begin("bench.round")
                try:
                    self.round()
                finally:
                    self.tracer.finish(r)
                    self.tracer.uninstall()
                self.traced_rounds += 1
                self.spans = NoSpans()
            else:
                self._sink = self.samples
                self.round()
            self.rounds += 1
            self.samples.setdefault("machine.calib_ms", []).append(calibrate() * 1e3)
