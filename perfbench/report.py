"""Metric definitions, summary statistics, the machine header and the reports.

``END_TO_END`` and ``PER_LAYER`` are the metric names the benchmark prints;
``BENCHMARK.json`` lists the same names (a test keeps them in step).
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time

import numpy as np

VARIANT_ORDER = ("dense", "sw", "dw", "mb", "moe")
FUSED = ("sw", "dw", "mb")
CLAIM_RATIO = 1.30

# The JSON value of a timing is the mean of its samples with this share cut from
# each end, not the median. The shared host this was tuned on runs a process
# either at full speed or about 1.5x slower, in spells of milliseconds to
# minutes. A run's median lands in whichever state held most of the run, so the
# medians of ten runs split into two groups. The mean moves smoothly with the
# share of the run spent in each state, and cutting the ends drops single stalls.
TRIM = 0.1

END_TO_END = (
    [("setup_s", "s"), ("peak_rss_mb", "MB")]
    + [(f"step_ms.{v}", "ms") for v in VARIANT_ORDER]
    + [("ckpt_save_ms", "ms"), ("ckpt_load_ms", "ms"), ("export_ms", "ms"),
       ("eval_ms.fused", "ms"), ("eval_ms.exported", "ms"), ("fd_forward_ms", "ms")]
)

OP_GROUPS = ("matmul", "gelu", "layernorm", "softmax", "cross_entropy", "combine",
             "embedding", "elementwise", "shape", "index")

# (metric, unit, kind, source). Kinds: "ms" sums the spans named ``source``,
# "calls" counts them, "count" sums a counter, "share" averages the per-call
# largest expert share. Every value is per traced round.
PER_LAYER = (
    [row for g in OP_GROUPS for row in (
        (f"tensor.{g}.calls", "count", "calls", f"tensor.{g}.fwd"),
        (f"tensor.{g}.fwd_ms", "ms", "ms", f"tensor.{g}.fwd"),
        (f"tensor.{g}.vjp_ms", "ms", "ms", f"tensor.{g}.vjp"))]
    + [
        ("tensor.backward_ms", "ms", "ms", "tensor.backward"),
        ("tensor.tape_nodes", "count", "count", "tensor.tape_nodes"),
        ("tensor.tensor_inits", "count", "count", "tensor.tensor_inits"),
        ("optim.adamw_ms", "ms", "ms", "optim.adamw"),
        ("optim.clip_ms", "ms", "ms", "optim.clip"),
        ("optim.param_tensors", "count", "count", "optim.param_tensors"),
        ("optim.skipped_updates", "count", "count", "optim.skipped_updates"),
        ("fusion.fuse_ms", "ms", "ms", "fusion.fuse"),
        ("fusion.fuse_calls", "count", "calls", "fusion.fuse"),
        ("fusion.router_ms", "ms", "ms", "fusion.router"),
        ("moe.forward_ms", "ms", "ms", "moe.forward"),
        ("moe.dispatched_rows", "count", "count", "moe.dispatched_rows"),
        ("moe.max_expert_share", "share", "share", None),
        ("model.forward_ms", "ms", "ms", "model.forward"),
        ("model.attn_ms", "ms", "ms", "model.attn"),
        ("model.ffn_ms", "ms", "ms", "model.ffn"),
        ("model.collapse_ms", "ms", "ms", "model.collapse"),
        ("checkpoint.write_ms", "ms", "ms", "checkpoint.write"),
        ("checkpoint.write_bytes", "bytes", "count", "checkpoint.write_bytes"),
        ("checkpoint.read_ms", "ms", "ms", "checkpoint.read"),
        ("checkpoint.read_bytes", "bytes", "count", "checkpoint.read_bytes"),
        ("checkpoint.records", "count", "count", "checkpoint.records"),
        ("params.init_ms", "ms", "ms", "params.init"),
        ("train.evaluate_ms", "ms", "ms", "train.evaluate"),
        ("tasks.batch_ms", "ms", "ms", "tasks.batch"),
    ]
)


# -- statistics ----------------------------------------------------------------


def tail_percentile(n: int):
    """Highest of the usual percentiles that leaves at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean of the samples left after dropping ``cut`` of them from each end."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    k = int(cut * ordered.size)
    return float(ordered[k:ordered.size - k].mean())


def summarize(values) -> dict:
    """The gated value (trimmed mean), the median, the tail percentile and the count."""
    n = len(values)
    out = {"value": trimmed_mean(values), "n": n, "median": statistics.median(values)}
    p = tail_percentile(n)
    if p is not None:
        out[f"p{p:g}"] = float(np.percentile(values, p))
    return out


# -- machine header ------------------------------------------------------------


def machine_header(thread_vars) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


class Calibration:
    """A fixed numpy kernel, independent of exfusion, timed between rounds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((160, 160)).astype(np.float32) / 16
        self.b = np.empty_like(self.a)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            np.matmul(self.a, self.a, out=self.b)
            np.tanh(self.b, out=self.b)
            np.exp(self.b, out=self.b)
        return time.perf_counter() - t0


# -- derived reports -------------------------------------------------------------


def claim_report(values: dict) -> list[str]:
    """Fused-over-dense step ratios against the paper's x1.30 and the moe baseline."""
    dense = values["step_ms.dense"]
    moe = values["step_ms.moe"]
    lines = [f"ratio base: step_ms.dense = {dense:.3f} ms (reported, not gated)"]
    for v in FUSED + ("moe",):
        r = values[f"step_ms.{v}"] / dense
        flags = ""
        if v != "moe":
            flags = (f"  {'<=' if r <= CLAIM_RATIO else '>'} x{CLAIM_RATIO:.2f}"
                     f"  {'below' if values[f'step_ms.{v}'] < moe else 'NOT below'} moe")
        lines.append(f"ratio step_ms.{v}/step_ms.dense = x{r:.3f}{flags}")
    return lines


def loss_digest(losses) -> dict:
    """Final loss and sha256 of a lane's loss sequence over one replay cycle."""
    seq = np.asarray(losses, dtype=np.float64)
    return {
        "steps": len(losses),
        "final_loss": float(seq[-1]) if seq.size else None,
        "sha256": hashlib.sha256(seq.tobytes()).hexdigest(),
    }


# -- traced-run aggregation ------------------------------------------------------


def layer_values(rows: dict, counters: dict, shares: list, rounds: int) -> dict:
    """Per-layer metric values per traced round from aggregated spans and counters."""
    out = {}
    for name, _unit, kind, source in PER_LAYER:
        if kind == "ms":
            value = rows.get(source, (0, 0.0))[1] * 1e3
        elif kind == "calls":
            value = rows.get(source, (0, 0.0))[0]
        elif kind == "count":
            value = counters.get(source, 0.0)
        else:
            out[name] = float(np.mean(shares)) if shares else 0.0
            continue
        out[name] = value / rounds
    return out


def trace_summary(tracer, rounds: int) -> dict:
    """Totals, per-activity breakdown, self-time table and span tree of a traced run.

    Totals leave out the correctness checks and the time between activities.
    """
    by_act = tracer.by_name()
    activities = sorted({act for act, _ in by_act})

    def rows_for(keep):
        rows: dict[str, list[float]] = {}
        for (act, name), (calls, incl, _self) in by_act.items():
            if keep(act):
                row = rows.setdefault(name, [0, 0.0])
                row[0] += calls
                row[1] += incl
        return rows

    def counters_for(keep):
        out: dict[str, float] = {}
        for (act, name), value in tracer.counters.items():
            if keep(act):
                out[name] = out.get(name, 0.0) + value
        return out

    def shares_for(keep):
        return [s for act, vals in tracer.expert_shares.items() if keep(act) for s in vals]

    measured = lambda act: act not in ("bench", "check")  # noqa: E731
    totals = layer_values(rows_for(measured), counters_for(measured), shares_for(measured),
                          rounds)
    per_lane = {}
    for act in activities:
        keep = lambda a, act=act: a == act  # noqa: E731
        per_lane[act] = layer_values(rows_for(keep), counters_for(keep), shares_for(keep), rounds)

    self_time: dict[str, dict[str, float]] = {}
    for (act, name), (_calls, _incl, self_s) in by_act.items():
        layer = "bench" if name == act or name.startswith("bench.") else name.split(".", 1)[0]
        table = self_time.setdefault(act, {})
        table[layer] = table.get(layer, 0.0) + self_s * 1e3 / rounds
    tree = {path: {"calls": c / rounds, "ms": i * 1e3 / rounds, "self_ms": s * 1e3 / rounds}
            for path, (c, i, s) in sorted(tracer.span_tree().items())}
    return {"totals": totals, "per_lane": per_lane, "self_time_ms": self_time,
            "span_tree": tree}


def self_time_table(self_time: dict) -> list[str]:
    layers = sorted({layer for table in self_time.values() for layer in table})
    lines = ["self ms per traced round; 'bench' is time outside every exfusion layer span",
             f"{'activity':<14}" + "".join(f"{layer:>12}" for layer in layers)
             + f"{'total':>12}{'in layers':>11}"]
    for act, table in sorted(self_time.items()):
        total = sum(table.values())
        inside = 1.0 - table.get("bench", 0.0) / total if total > 0 else 0.0
        lines.append(f"{act:<14}" + "".join(f"{table.get(layer, 0.0):>12.3f}" for layer in layers)
                     + f"{total:>12.3f}{inside:>10.1%}")
    return lines
