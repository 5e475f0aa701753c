"""exfusion benchmark: one workload, one closed loop, one JSON line at the end.

Run from the repository root:

    python3 perfbench/run.py --workload charlm-small --seed 1 --seconds 10 --trace 0

It imports exfusion from ``src/`` beside this directory (and refuses to run
without it), pins BLAS to one thread before numpy loads, builds the
workload's inputs from ``--seed``, measures for ``--seconds`` and checks
every operation. Human-readable lines come first; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a separate traced run
(``--trace 1``). Exit code 0 only when every check passed.
"""

import time

PROCESS_T0 = time.perf_counter()  # setup_s counts from here, before numpy or exfusion load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("charlm-small", "cluster-wide", "verify-fd")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_exfusion():
    """Import exfusion from this checkout's sources, never from an installed copy."""
    if not (SRC / "exfusion" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no exfusion sources at {SRC / 'exfusion'}")
    for var in THREAD_VARS:  # the pinning `exfusion --deterministic` applies
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import exfusion

    if Path(exfusion.__file__).resolve().parent != SRC / "exfusion":
        raise SystemExit(f"perfbench: imported exfusion from {exfusion.__file__}, not {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    import_exfusion()
    import resource

    import report
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_T0
    untouched = tracing.snapshot()
    w = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            state = None  # drop the previous build before timing the next one
            t0 = time.perf_counter()
            state = workloads.build(w, args.seed, scratch)
            builds.append(time.perf_counter() - t0)
        tracer = tracing.Tracer() if args.trace else None
        runner = workloads.Runner(w, state, tracer)
        runner.run(args.seconds, report.Calibration())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    leaked = tracing.changed_attributes(untouched)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    header = report.machine_header(THREAD_VARS)
    print("machine " + json.dumps(header, sort_keys=True))
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{runner.rounds} rounds ({runner.traced_rounds} traced), replay cycle {w.cycle} steps")
    stats = {name: report.summarize(vals) for name, vals in sorted(runner.samples.items())}
    stats["setup_s"] = {"value": import_s + statistics.median(builds), "n": len(builds),
                        "import_s": import_s, "builds_s": builds}
    stats["peak_rss_mb"] = {"value": peak_rss_mb, "n": 1}
    units = dict(report.END_TO_END, **{"machine.calib_ms": "ms"})
    for name, s in stats.items():
        extra = " ".join(f"{k} {v:.4f}" for k, v in s.items()
                         if k not in ("value", "n") and isinstance(v, float))
        print(f"  {name:<18} {s['value']:12.4f} {units[name]:<3} n={s['n']:<5} {extra}")
    values = {name: s["value"] for name, s in stats.items()}
    full = {"machine": header, "workload": w.name, "seed": args.seed, "trace": args.trace,
            "stats": stats, "samples_ms": runner.samples}
    if all(f"step_ms.{v}" in values for v in report.VARIANT_ORDER):
        for line in report.claim_report(values):
            print("  " + line)
    full["lanes"] = {lane.variant: report.loss_digest(lane.losses) for lane in runner.state.lanes}
    for variant, digest in full["lanes"].items():
        print(f"  loss {variant:<5} " + " ".join(f"{k}={v}" for k, v in digest.items()))

    errors = list(runner.errors)
    if leaked:
        errors.append(f"exfusion attributes differ after the run: {leaked[:5]}")
    correct = runner.failed == 0 and not leaked
    print(f"checks: {runner.attempted} operations attempted, {runner.failed} failed")
    for err in errors:
        print("  FAILED " + err)

    if args.trace:
        metrics = trace_metrics(runner, w, args.seed, full)
    else:
        missing = [n for n, _ in report.END_TO_END if n not in values]
        if missing:
            correct = False
            print(f"  FAILED no samples for {missing}")
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in report.END_TO_END}
    (OUT / "reports").mkdir(exist_ok=True)
    with open(OUT / "reports" / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(runner, w, seed, full) -> dict:
    """Per-layer metrics of the traced rounds; writes the span tree and self-time table."""
    import report

    summary = report.trace_summary(runner.tracer, max(runner.traced_rounds, 1))
    overhead = {}
    for name, traced in sorted(runner.traced_samples.items()):
        base = runner.samples.get(name)
        if base:
            overhead[name] = report.trimmed_mean(traced) / report.trimmed_mean(base) - 1.0
    summary["trace_overhead"] = overhead
    summary["first_spans"] = runner.tracer.raw_spans(limit=5000)
    out_dir = OUT / "trace" / f"{w.name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    table = report.self_time_table(summary["self_time_ms"])
    with open(out_dir / "trace.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    with open(out_dir / "self_time.txt", "w") as fh:
        fh.write("\n".join(table) + "\n")
    full["trace_overhead"] = overhead
    print(f"trace: span tree and self-time table in {out_dir}")
    for line in table:
        print("  " + line)
    print("  tracing overhead (traced / untraced trimmed mean - 1): "
          + " ".join(f"{k}={v:+.1%}" for k, v in overhead.items()))
    units = {name: unit for name, unit, _, _ in report.PER_LAYER}
    return {name: {"value": value, "unit": units[name]}
            for name, value in summary["totals"].items()}


if __name__ == "__main__":
    sys.exit(main())
