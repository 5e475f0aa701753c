"""Wall-clock step-time comparison of the FFN variants at one model spec.

Every variant keeps its own model/optimizer; timed rounds interleave the
variants (one full optimization step each per round) so that machine-load
drift lands on all of them equally. Warmup rounds are discarded and the
per-variant median over rounds is reported relative to the dense baseline
(x1.00).
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass

from .model import VARIANTS, Model
from .optim import AdamW, CosineSchedule
from .tasks import build_task
from .train import train_step


@dataclass
class BenchRow:
    variant: str
    median_ms: float  # over timed rounds
    ratio: float      # vs dense


def run_bench(run) -> list[BenchRow]:
    task = build_task(run.task)
    cfg = run.train
    warmup = run.bench.warmup_steps
    total = warmup + run.bench.timed_steps
    sched = CosineSchedule(0, total, cfg.base_lr, cfg.min_lr)

    lanes = []
    for variant in VARIANTS:
        spec = dataclasses.replace(run.model, variant=variant)
        model = Model(spec, dtype=cfg.dtype)
        opt = AdamW(model.named_parameters(), cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
        lanes.append((variant, model, opt, []))

    for step in range(1, total + 1):
        xb, yb = task.batch(step, cfg.batch_size)
        for variant, model, opt, times in lanes:
            t0 = time.perf_counter()
            train_step(model, opt, xb, yb, sched.lr_at(step), cfg.grad_clip, step)
            elapsed = (time.perf_counter() - t0) * 1000.0
            if step > warmup:
                times.append(elapsed)

    medians = {variant: statistics.median(times) for variant, _, _, times in lanes}
    return [BenchRow(v, ms, ms / medians["dense"]) for v, ms in medians.items()]


def format_table(rows: list[BenchRow]) -> str:
    lines = [f"{'variant':<8} {'median_ms':>10} {'vs_dense':>9}"]
    for r in rows:
        lines.append(f"{r.variant:<8} {r.median_ms:>10.2f} {f'x{r.ratio:.2f}':>9}")
    lines.append("note: the moe baseline routes per token with no auxiliary "
                 "balancing loss and no capacity limit")
    return "\n".join(lines)
