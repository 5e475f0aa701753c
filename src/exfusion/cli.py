"""Command-line surface: train, export, eval, verify, bench.

Exit codes: 0 success, 1 validation/config error, 2 runtime or numeric
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bench import format_table, run_bench
from .checkpoint import load_model_checkpoint, save_model_checkpoint
from .config import ConfigError, load_run_config, write_resolved_config
from .model import collapse_to_dense, expected_param_count
from .tasks import build_task
from .tensor import no_grad
from .train import METRIC_NAME, _check_compatible, evaluate, train_loop
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _overrides(args) -> dict:
    return {"seed": args.seed, "dtype": args.dtype}


def cmd_train(args) -> int:
    run = load_run_config(args.config, overrides=_overrides(args))
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force and args.resume is None:
        raise ConfigError(f"output directory {out} is not empty (pass --force to reuse it)")
    resolved = out / "resolved_config.ini"

    def record_config():
        if args.resume is None or not resolved.exists():  # a resume must keep the stored settings
            write_resolved_config(resolved, run)

    result = train_loop(run.model, run.task, run.train, out,
                        resume_from=args.resume, echo=print, on_start=record_config)
    print(f"done: step {result.final_step}, "
          f"val {METRIC_NAME[run.model.objective]} {result.final_eval.metric:.6f}, "
          f"val loss {result.final_eval.loss:.6f}")
    print(f"metrics: {result.metrics_path}")
    print(f"final checkpoint: {result.checkpoint_paths[-1]}")
    return EXIT_OK


def cmd_export(args) -> int:
    loaded = load_model_checkpoint(args.ckpt)
    model = loaded.model
    dense = collapse_to_dense(model)

    rng = np.random.default_rng(0)
    tokens = rng.integers(0, model.spec.vocab_size, size=(8, model.spec.max_seq_len))
    with no_grad():
        deviation = float(np.abs(model.forward(tokens).data - dense.forward(tokens).data).max())

    extra = {key: loaded.meta[key] for key in ("task_spec", "train_config") if key in loaded.meta}
    save_model_checkpoint(args.out, dense, step=loaded.step, extra_meta=extra)
    print(f"params before: {model.param_count()}")
    print(f"params after:  {dense.param_count()} "
          f"(dense baseline: {expected_param_count(dense.spec)})")
    print(f"max logit deviation on probe batch: {deviation:.3e}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    loaded = load_model_checkpoint(args.ckpt)
    run = load_run_config(args.config, overrides=_overrides(args))
    task = build_task(run.task)
    _check_compatible(loaded.model.spec, task)
    ev = evaluate(loaded.model, task)
    print(f"val {METRIC_NAME[loaded.model.spec.objective]}: {ev.metric:.6f}")
    print(f"val loss: {ev.loss:.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed if args.seed is not None else 0)
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"verify: {len(results) - failed} passed, {failed} failed")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_bench(args) -> int:
    run = load_run_config(args.config, overrides=_overrides(args))
    rows = run_bench(run)
    print(format_table(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exfusion",
        description="Train Transformers with parameter-fused FFN expert sets "
                    "and export plain dense models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override model/task seed")
        p.add_argument("--dtype", choices=("f32", "f64"), default=None)
        p.add_argument("--config", required=True, help="INI run configuration")

    p = sub.add_parser("train", help="run a training job")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true", help="reuse a non-empty output directory")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="collapse a multi-expert checkpoint to dense")
    p.add_argument("ckpt", help="source checkpoint")
    p.add_argument("--out", required=True, help="destination checkpoint path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    p.add_argument("ckpt", help="checkpoint to evaluate")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run property verification suites")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="compare per-step training time across variants")
    common(p)
    p.set_defaults(func=cmd_bench)

    for p in sub.choices.values():  # read by the console script before numpy loads
        p.add_argument("--deterministic", action="store_true",
                       help="pin BLAS/OpenMP thread pools to one thread")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

