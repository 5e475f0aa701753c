"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints one ``ACCEPTANCE n [PASS|FAIL]`` line (run with ``-s`` to
see them live). Heavier criteria note their runtime budgets inline.
Criteria 3 and 8 run their independent parts in a pool of ``os.cpu_count()``
worker processes; each part computes exactly what it computes serially, and
the results are gathered in the serial order.
"""

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from exfusion.bench import run_bench
from exfusion.checkpoint import load_model_checkpoint, read_checkpoint
from exfusion.config import BenchConfig, RunConfig
from exfusion.model import collapse_to_dense, expected_param_count
from exfusion.tasks import TaskSpec, build_task
from exfusion.tensor import no_grad
from exfusion.train import TrainConfig, model_spec_for_task, train_loop
from exfusion.verify import (
    EMA_STEPS,
    FUSION_TRIALS,
    MODEL_SEEDS,
    suite_ema,
    suite_fusion,
    suite_gradients,
    suite_variance,
)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_fusion_identity():
    t0 = time.perf_counter()
    results = suite_fusion(seed=0)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 60
    detail = "; ".join(r.detail for r in results if "param_vs_output" in r.name)
    report(1, f"fusion identity ({FUSION_TRIALS} triples, f64<1e-10, f32<1e-5)", ok,
           f"{detail}; runtime={elapsed:.1f}s")


def test_criterion_2_collapse_faithfulness(tmp_path):
    t0 = time.perf_counter()
    task_spec = TaskSpec(task="synthetic_cluster", seq_len=32, vocab_size=32,
                         num_classes=8, train_size=2048, val_size=256, seed=42)
    task = build_task(task_spec)
    spec = model_spec_for_task(task, depth=4, dim=128, heads=4, expansion=4,
                               variant="mb", num_experts=4, momentum=0.95, seed=42)
    cfg = TrainConfig(steps=500, batch_size=16, warmup_steps=50, base_lr=1e-3,
                      log_interval=100, checkpoint_interval=0)
    result = train_loop(spec, task_spec, cfg, tmp_path)

    loaded = load_model_checkpoint(result.checkpoint_paths[-1])
    dense = collapse_to_dense(loaded.model)
    rng = np.random.default_rng(737)
    worst = 0.0
    for _ in range(16):
        tokens = rng.integers(0, spec.vocab_size, size=(8, 32))
        with no_grad():
            a = loaded.model.forward(tokens, training=False).data
            b = dense.forward(tokens, training=False).data
        worst = max(worst, float(np.abs(a - b).max()))

    dense_baseline = expected_param_count(dataclasses.replace(spec, variant="dense"))
    parity = dense.param_count() == dense_baseline
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and parity and elapsed < 600
    report(2, "collapse faithfulness after 500-step mb run (d4, D128, N4, delta .95)", ok,
           f"max_logit_diff={worst:.3e} (<1e-5) param_parity={parity} "
           f"({dense.param_count()}=={dense_baseline}) runtime={elapsed:.0f}s")


def _pool_map(fn, *iterables):
    """``list(map(fn, *iterables))``, run in freshly spawned worker processes.

    Workers inherit the environment, so the test session's BLAS pin holds in them.
    """
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count(), mp_context=context) as pool:
        return list(pool.map(fn, *iterables))


def _gradient_suite(dtype):
    return suite_gradients(seed=0, dtypes=(dtype,))


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    # the suite checks each dtype on its own, so it splits into one run per dtype
    results = [r for part in _pool_map(_gradient_suite, ("f32", "f64")) for r in part]
    elapsed = time.perf_counter() - t0
    model_checks = [r for r in results if "full_model" in r.name]
    ok = all(r.passed for r in results) and len(model_checks) == 6 and elapsed < 300
    worst = "; ".join(f"{r.name.split('variant=')[1]}:{r.detail.split()[0]}"
                      for r in model_checks)
    report(3, f"full-model gradients vs finite differences (3 variants, {MODEL_SEEDS} seeds)", ok,
           f"{worst}; runtime={elapsed:.0f}s")


def test_criterion_4_ema_exactness():
    results = suite_ema(seed=0)
    ok = all(r.passed for r in results)
    report(4, f"EMA exactness ({EMA_STEPS // 1000}k steps, closed form <1e-10, "
              "mass 1-delta^t <1e-8)", ok,
           "; ".join(r.detail for r in results))


def test_criterion_5_variance_reduction():
    t0 = time.perf_counter()
    results = suite_variance(seed=0)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 60
    report(5, "variance of k-averaged predictors within 5% of sigma^2/k, bias kept", ok,
           "; ".join(r.detail.split(" mean_dev")[0] for r in results)
           + f"; runtime={elapsed:.1f}s")


def _degeneracy_run(tmp_path, tag, variant, **model_kw):
    task_spec = TaskSpec(seq_len=8, vocab_size=16, num_classes=4, train_size=256,
                         val_size=64, seed=11)
    task = build_task(task_spec)
    spec = model_spec_for_task(task, depth=2, dim=16, heads=2, expansion=2,
                               variant=variant, seed=11, **model_kw)
    cfg = TrainConfig(steps=200, batch_size=8, warmup_steps=20, base_lr=2e-3,
                      log_interval=20, checkpoint_interval=0)
    out = tmp_path / tag
    result = train_loop(spec, task_spec, cfg, out)
    return out / "metrics.csv", result.checkpoint_paths[-1]


def test_criterion_6_variant_degeneracy(tmp_path):
    sw_metrics, sw_ckpt = _degeneracy_run(tmp_path, "sw", "sw", num_experts=4)
    dw_metrics, dw_ckpt = _degeneracy_run(tmp_path, "dw", "dw", num_experts=4,
                                          freeze_fusion_weights=True)
    metrics_match = sw_metrics.read_bytes() == dw_metrics.read_bytes()
    sw_tensors, _ = read_checkpoint(sw_ckpt)
    dw_tensors, _ = read_checkpoint(dw_ckpt)
    shared = set(sw_tensors) & set(dw_tensors) - {"opt/step"}
    params_match = all(sw_tensors[k].tobytes() == dw_tensors[k].tobytes()
                       for k in shared if not k.startswith("opt/"))

    dense_metrics, dense_ckpt = _degeneracy_run(tmp_path, "dense", "dense")
    sw1_metrics, sw1_ckpt = _degeneracy_run(tmp_path, "sw1", "sw", num_experts=1)
    n1_metrics_match = dense_metrics.read_bytes() == sw1_metrics.read_bytes()
    d_tensors, _ = read_checkpoint(dense_ckpt)
    s1_tensors, _ = read_checkpoint(sw1_ckpt)
    n1_params_match = (set(d_tensors) == set(s1_tensors) and
                       all(d_tensors[k].tobytes() == s1_tensors[k].tobytes()
                           for k in d_tensors))

    ok = metrics_match and params_match and n1_metrics_match and n1_params_match
    report(6, "degeneracy: frozen-uniform dw == sw and sw(N=1) == dense, bit-exact", ok,
           f"dw_vs_sw metrics={metrics_match} params={params_match}; "
           f"sw1_vs_dense metrics={n1_metrics_match} params={n1_params_match} (200 steps)")


def test_criterion_7_training_overhead():
    task_spec = TaskSpec(task="synthetic_cluster", seq_len=32, vocab_size=32,
                         num_classes=8, train_size=1024, val_size=128, seed=5)
    task = build_task(task_spec)
    model = model_spec_for_task(task, depth=2, dim=64, heads=4, expansion=4,
                                variant="dense", num_experts=4, top_k=1, seed=5)
    run = RunConfig(
        model=model,
        task=task_spec,
        train=TrainConfig(steps=20, batch_size=64, warmup_steps=0, log_interval=20),
        bench=BenchConfig(timed_steps=25, warmup_steps=4),
    )
    rows = {r.variant: r for r in run_bench(run)}
    fusion_ratios = {v: rows[v].ratio for v in ("sw", "dw", "mb")}
    moe_ratio = rows["moe"].ratio
    ok = (all(r <= 1.30 for r in fusion_ratios.values())
          and all(r < moe_ratio for r in fusion_ratios.values()))
    detail = ", ".join(f"{v}=x{r:.2f}" for v, r in fusion_ratios.items())
    report(7, "step-time overhead: fusion <= x1.30 dense and < top-k mixture", ok,
           f"{detail}, moe=x{moe_ratio:.2f} (dense={rows['dense'].median_ms:.1f} ms)")


def _quality_run(variant, seed, out):
    """Final validation loss of one criterion-8 CharLM run."""
    task_spec = TaskSpec(task="char_lm", seq_len=32, seed=seed)
    task = build_task(task_spec)
    spec = model_spec_for_task(task, depth=2, dim=32, heads=4, expansion=4,
                               variant=variant, num_experts=4, momentum=0.95,
                               seed=seed)
    cfg = TrainConfig(steps=5000, batch_size=16, warmup_steps=500, base_lr=1e-3,
                      min_lr=1e-5, weight_decay=0.05, log_interval=1000,
                      checkpoint_interval=0)
    return train_loop(spec, task_spec, cfg, out).final_eval.loss


def test_criterion_8_quality_trend(tmp_path):
    t0 = time.perf_counter()
    variants, seeds = ("dense", "mb"), (0, 1, 2)
    runs = [(v, s) for v in variants for s in seeds]
    losses = dict(zip(runs, _pool_map(_quality_run, *zip(*runs),
                                      [tmp_path / f"{v}{s}" for v, s in runs])))
    means = {v: float(np.mean([losses[v, s] for s in seeds])) for v in variants}
    gap = means["mb"] - means["dense"]
    ok = gap <= 0.01
    strict = "and strictly wins" if gap < 0 else "but does not strictly win (soft point)"
    report(8, "CharLM 5k steps x3 seeds: mb mean val loss within +0.01 nats of dense", ok,
           f"mb={means['mb']:.5f} dense={means['dense']:.5f} gap={gap:+.5f} {strict}; "
           f"runtime={time.perf_counter() - t0:.0f}s")


@pytest.mark.parametrize("variant", ["dense", "sw", "dw", "mb", "moe"])
def test_criterion_9_determinism_resume(tmp_path, variant):
    task_spec = TaskSpec(seq_len=8, vocab_size=16, num_classes=4, train_size=256,
                         val_size=64, seed=13)
    task = build_task(task_spec)
    spec = model_spec_for_task(task, depth=2, dim=16, heads=2, expansion=2,
                               variant=variant, num_experts=3, seed=13)
    cfg = TrainConfig(steps=24, batch_size=8, warmup_steps=4, log_interval=6,
                      checkpoint_interval=12)
    full = train_loop(spec, task_spec, cfg, tmp_path / "full")
    train_loop(spec, task_spec, cfg, tmp_path / "part", halt_at_step=12)
    resumed = train_loop(spec, task_spec, cfg, tmp_path / "part",
                         resume_from=tmp_path / "part" / "ckpt_000012.bin")

    metrics_match = ((tmp_path / "full/metrics.csv").read_bytes()
                     == (tmp_path / "part/metrics.csv").read_bytes())
    a, _ = read_checkpoint(full.checkpoint_paths[-1])
    b, _ = read_checkpoint(resumed.checkpoint_paths[-1])
    state_match = set(a) == set(b) and all(a[k].tobytes() == b[k].tobytes() for k in a)
    report(9, f"resume at step 12 == uninterrupted 24 steps ({variant})",
           metrics_match and state_match,
           f"metrics_bytes_equal={metrics_match} state_bytes_equal={state_match}")
