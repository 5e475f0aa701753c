"""Training loop: seeded batches, AdamW, warmup+cosine, metrics, resume.

Metrics go to ``metrics.csv`` (``step,epoch,lr,train_loss,val_metric``, one
row per log interval, LF endings). Every column is a function of the config
and the seeds, so identical runs, and a resumed run, write it byte-for-byte
alike; the live step time goes only to the echo callback. Checkpoints land in
the output directory as ``ckpt_NNNNNN.bin``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .checkpoint import CheckpointError, load_model_checkpoint, save_model_checkpoint
from .model import Model, ModelSpec
from .optim import AdamW, CosineSchedule, clip_grad_norm
from .tasks import TaskSpec, build_task
from .tensor import NonFiniteError, Tensor, cross_entropy, no_grad, reshape

EVAL_BATCH = 64


class TrainingDivergence(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 16
    base_lr: float = 1e-3
    min_lr: float = 1e-5
    warmup_steps: int = 50
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 1.0
    log_interval: int = 50
    checkpoint_interval: int = 0
    dtype: str = "f32"

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0; got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1; got {self.batch_size}")
        if not 0 <= self.warmup_steps <= max(self.steps, 0):
            raise ValueError(
                f"warmup_steps must be in [0, steps={self.steps}]; got {self.warmup_steps}"
            )
        for name in ("base_lr", "min_lr", "eps", "weight_decay", "grad_clip"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite; got {getattr(self, name)}")
        if self.base_lr <= 0 or self.min_lr < 0 or self.min_lr > self.base_lr:
            raise ValueError("need base_lr > 0 and 0 <= min_lr <= base_lr")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1); got {getattr(self, name)}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0; got {self.eps}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0; got {self.weight_decay}")
        if self.log_interval < 1:
            raise ValueError(f"log_interval must be >= 1; got {self.log_interval}")
        if self.checkpoint_interval < 0 or self.grad_clip < 0:
            raise ValueError("checkpoint_interval and grad_clip must be >= 0")
        if self.dtype not in ("f32", "f64"):
            raise ValueError(f"dtype must be f32 or f64; got {self.dtype!r}")

    def to_dict(self) -> dict:
        return dict(vars(self))


# The name of EvalResult.metric for each objective.
METRIC_NAME = {"classification": "accuracy", "lm": "perplexity"}


class EvalResult(NamedTuple):
    metric: float  # METRIC_NAME[objective]
    loss: float    # mean cross-entropy in nats


class TrainResult(NamedTuple):
    final_step: int
    final_eval: EvalResult
    metrics_path: Path
    checkpoint_paths: list[Path]


def _mean_nll(objective: str, logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy over ``targets``: one per example, or one per token (lm)."""
    if objective == "classification":
        return cross_entropy(logits, targets)
    b, l, v = logits.shape
    return cross_entropy(reshape(logits, (b * l, v)), targets.reshape(-1))


def batch_loss(model: Model, tokens: np.ndarray, targets: np.ndarray, training: bool) -> Tensor:
    return _mean_nll(model.spec.objective, model.forward(tokens, training=training), targets)


def train_step(model: Model, opt: AdamW, tokens: np.ndarray, targets: np.ndarray, lr: float,
               grad_clip: float, step: int) -> tuple[float, bool]:
    """One optimizer step: zero_grad, loss, finite check, backward, clip, AdamW.

    ``grad_clip`` 0 skips the clip. Returns the loss as a float and whether
    AdamW applied the update (it skips one with a non-finite gradient). The
    graph is local to the call, so it is gone before the next forward.
    """
    model.zero_grad()
    loss = batch_loss(model, tokens, targets, training=True)
    value = float(loss.data)
    if not np.isfinite(value):
        raise TrainingDivergence(f"non-finite training loss {value} at step {step}; aborting")
    loss.backward()
    if grad_clip > 0:
        clip_grad_norm(opt.params, grad_clip)
    return value, opt.step(lr)


def evaluate(model: Model, task) -> EvalResult:
    """Full-validation metric and mean loss in eval mode (banks frozen)."""
    objective = model.spec.objective
    xs, ys = task.val_data()
    total_nll = 0.0
    correct = 0
    count = 0
    with no_grad():
        for i in range(0, xs.shape[0], EVAL_BATCH):
            xb, yb = xs[i:i + EVAL_BATCH], ys[i:i + EVAL_BATCH]
            logits = model.forward(xb, training=False)
            n = yb.size  # examples, or tokens (lm)
            total_nll += float(_mean_nll(objective, logits, yb).data) * n
            if objective == "classification":
                correct += int((logits.data.argmax(axis=1) == yb).sum())
            count += n
    loss = total_nll / count
    if objective == "classification":
        return EvalResult(metric=correct / count, loss=loss)
    return EvalResult(metric=float(np.exp(loss)), loss=loss)


def _check_compatible(spec: ModelSpec, task) -> None:
    problems = []
    if spec.vocab_size != task.vocab_size:
        problems.append(f"vocab_size {spec.vocab_size} != task vocab {task.vocab_size}")
    if spec.objective != task.objective:
        problems.append(f"objective {spec.objective!r} != task objective {task.objective!r}")
    if spec.objective == "classification" and spec.num_classes != task.num_classes:
        problems.append(f"num_classes {spec.num_classes} != task classes {task.num_classes}")
    if task.spec.seq_len > spec.max_seq_len:
        problems.append(f"task seq_len {task.spec.seq_len} > max_seq_len {spec.max_seq_len}")
    if problems:
        raise ValueError("model/task mismatch: " + "; ".join(problems))


# The ModelSpec fields that model_spec_for_task fills from the task; a run
# config's [model] section does not set them.
TASK_DERIVED = ("vocab_size", "num_classes", "max_seq_len", "objective")


def model_spec_for_task(task, **kw) -> ModelSpec:
    """Fill the data-dependent ModelSpec fields (``TASK_DERIVED``) from a built task."""
    kw.setdefault("max_seq_len", task.spec.seq_len)
    return ModelSpec(
        vocab_size=task.vocab_size,
        num_classes=task.num_classes,
        objective=task.objective,
        **kw,
    )


def _check_resume_settings(meta: dict, settings: dict, path) -> None:
    """Refuse a resume whose task or train settings differ from those in the
    checkpoint's decoded metadata ``meta``; a setting it lacks is not compared."""
    changes = []
    for key, current in settings.items():
        saved = meta.get(key, current)
        changes += [f"{key}.{field} {saved.get(field)!r} -> {current.get(field)!r}"
                    for field in sorted(saved.keys() | current.keys())
                    if saved.get(field) != current.get(field)]
    if changes:
        raise ValueError(f"resume settings differ from checkpoint {path}: " + "; ".join(changes))


def _drop_rows_after(metrics_path: Path, step: int) -> None:
    """Cut metrics rows past ``step``, so a resume does not log them twice."""
    with open(metrics_path, newline="") as fh:
        header, *rows = fh.readlines()
    with open(metrics_path, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(row for row in rows if int(row.split(",", 1)[0]) <= step)


def train_loop(model_spec: ModelSpec, task_spec: TaskSpec, cfg: TrainConfig,
               out_dir, resume_from=None, halt_at_step: int | None = None,
               echo: Callable[[str], None] | None = None,
               on_start: Callable[[], None] | None = None) -> TrainResult:
    """Run (or resume) a training job, writing metrics and checkpoints.

    ``halt_at_step`` simulates an interruption after that step completes;
    checkpoints already written stay valid for a later ``resume_from``.
    ``out_dir`` is created, and ``on_start`` called, only once the task, the
    model and any resume checkpoint have passed their checks, so a refused
    run leaves ``out_dir`` as it found it.
    """
    out_dir = Path(out_dir)
    say = echo or (lambda s: None)

    task = build_task(task_spec)
    _check_compatible(model_spec, task)

    loaded = None
    settings = {"task_spec": task_spec.to_dict(), "train_config": cfg.to_dict()}
    if resume_from is not None:
        loaded = load_model_checkpoint(resume_from)
        if loaded.model.spec != model_spec:
            raise ValueError(f"checkpoint spec does not match run spec ({resume_from})")
        _check_resume_settings(loaded.meta, settings, resume_from)
        model = loaded.model
        start_step = loaded.step
        if start_step > cfg.steps:
            raise ValueError(f"checkpoint step {start_step} beyond configured steps {cfg.steps}")
    else:
        model = Model(model_spec, dtype=cfg.dtype)
        start_step = 0

    opt = AdamW(model.named_parameters(), cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
    if loaded is not None:
        try:
            opt.load_state_arrays(loaded.opt_arrays)
        except (KeyError, ValueError, NonFiniteError) as exc:
            raise CheckpointError(f"{resume_from}: cannot restore the optimizer: {exc}") from None
    sched = CosineSchedule(cfg.warmup_steps, cfg.steps, cfg.base_lr, cfg.min_lr)

    out_dir.mkdir(parents=True, exist_ok=True)
    if on_start is not None:
        on_start()
    metrics_path = out_dir / "metrics.csv"
    if resume_from is not None and metrics_path.exists():
        _drop_rows_after(metrics_path, start_step)
    else:
        with open(metrics_path, "w", newline="\n") as fh:
            fh.write("step,epoch,lr,train_loss,val_metric\n")

    ckpt_paths: list[Path] = []

    def save(step: int) -> Path:
        path = out_dir / f"ckpt_{step:06d}.bin"
        save_model_checkpoint(path, model, step=step, optimizer=opt, extra_meta=settings)
        ckpt_paths.append(path)
        return path

    if start_step == 0:
        save(0)

    last_saved = start_step
    window: list[float] = []
    end_step = cfg.steps if halt_at_step is None else min(cfg.steps, halt_at_step)

    with open(metrics_path, "a", newline="\n") as fh:
        for step in range(start_step + 1, end_step + 1):
            t0 = time.perf_counter()
            xb, yb = task.batch(step, cfg.batch_size)
            loss_val, applied = train_step(model, opt, xb, yb, sched.lr_at(step), cfg.grad_clip,
                                           step)
            if not applied:
                say(f"step {step}: non-finite gradient detected; update skipped")
            window.append((time.perf_counter() - t0) * 1000.0)

            if step % cfg.log_interval == 0:
                ev = evaluate(model, task)
                epoch = step * cfg.batch_size // task.train_examples
                mean_ms = sum(window) / len(window)
                window.clear()
                fh.write(f"{step},{epoch},{sched.lr_at(step):.10g},{loss_val:.8f},{ev.metric:.8f}\n")
                fh.flush()
                say(f"step {step}: loss {loss_val:.4f} val {ev.metric:.4f} ({mean_ms:.1f} ms/step)")
            if cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
                save(step)
                last_saved = step

    if last_saved != end_step:
        save(end_step)
    final_eval = evaluate(model, task)
    return TrainResult(end_step, final_eval, metrics_path, ckpt_paths)
