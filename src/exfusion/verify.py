"""Randomized property suites: fusion identity, gradients, EMA, variance, export.

Each suite runs on small fixed-seed instances and returns one CheckResult
per property, with tolerances keyed on dtype (f32/f64). Numeric gradients
are always taken on a float64 twin of the forward so the difference
quotient itself stays far below the tolerance being enforced.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fusion as F
from .checkpoint import load_model_checkpoint, save_model_checkpoint
from .model import Model, ModelSpec, causal_mask, collapse_to_dense, expected_param_count
from .optim import AdamW
from .params import ArraySource, ExpertAffine
from .tensor import (
    Tensor,
    add,
    affine,
    attention,
    cross_entropy,
    gelu,
    layernorm,
    matmul,
    mul,
    no_grad,
    softmax,
    tsum,
)
from .train import batch_loss, train_step

FUSION_TOL = {"f32": 1e-5, "f64": 1e-10}
GRAD_TOL = {"f32": 1e-4, "f64": 1e-8}
PRIMITIVE_FD_STEP = {"f32": 1e-3, "f64": 1e-5}
MODEL_FD_STEP = {"f32": 1e-4, "f64": 1e-6}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}\t{self.name}\t{self.detail}"


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float((np.abs(a - n) / denom).max()) if a.size else 0.0


def _numeric_grad(fn, arr: np.ndarray, h: float) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        hi = fn()
        flat[j] = orig - h
        lo = fn()
        flat[j] = orig
        gflat[j] = (hi - lo) / (2.0 * h)
    return grad


# -- fusion suite -----------------------------------------------------------------


def suite_fusion(seed: int = 0, trials: int = 200, dtypes=("f32", "f64")) -> list[CheckResult]:
    results = []
    for dtype in dtypes:
        tol = FUSION_TOL[dtype]
        rng = np.random.default_rng(seed)
        worst = 0.0
        for trial in range(trials):
            n = int(rng.integers(1, 7))
            d_in = int(rng.integers(2, 12))
            d_out = int(rng.integers(2, 12))
            experts = ExpertAffine("e", n, d_in, d_out, ArraySource(dtype, trial))
            experts.bias.data = (0.1 * rng.normal(size=(n, d_out))).astype(experts.bias.data.dtype)
            w = rng.normal(size=n)
            x = rng.normal(size=(5, d_in)) / np.sqrt(d_in)
            fused = F.fuse(experts, w.astype(experts.weight.data.dtype))
            got = (matmul(Tensor(x.astype(experts.weight.data.dtype)), fused.weight).data
                   + fused.bias.data)
            want = np.zeros((5, d_out))
            for i in range(n):  # output-space reference, one expert at a time
                want += w[i] * (x @ experts.weight.data[i].astype(np.float64)
                                + experts.bias.data[i].astype(np.float64))
            worst = max(worst, float(np.abs(got - want).max()))
        results.append(CheckResult(
            f"fusion/param_vs_output_space dtype={dtype}", worst < tol,
            f"max_abs_diff={worst:.3e} tol={tol:g} trials={trials}"))

        experts = ExpertAffine("e", 4, 6, 6, ArraySource(dtype, seed))
        x = Tensor(rng.normal(size=(3, 6)).astype(experts.weight.data.dtype))
        w = rng.normal(size=4).astype(experts.weight.data.dtype)
        base = matmul(x, F.fuse(experts, w).weight).data
        doubled = matmul(x, F.fuse(experts, 2.0 * w).weight).data
        exact = doubled.tobytes() == (2.0 * base).tobytes()
        results.append(CheckResult(
            f"fusion/scaling_covariance dtype={dtype}", exact,
            "weights*2 scales outputs exactly" if exact else "power-of-two scaling drifted"))
    return results


# -- gradients suite ---------------------------------------------------------------


def _primitive_cases(rng):
    x = rng.normal(size=(4, 5))
    y = rng.normal(size=(5, 3))
    g = rng.normal(size=(5,)) * 0.3 + 1.0
    b = rng.normal(size=(5,)) * 0.1
    u = rng.normal(size=(4, 5))
    t = rng.integers(0, 3, size=4)
    logits = rng.normal(size=(4, 3))
    qkv = [rng.normal(size=(2, 3, 4)) for _ in range(3)]
    u3 = rng.normal(size=(2, 3, 4))

    def attend(ts):
        mask = causal_mask(3, ts[0].dtype)
        return tsum(mul(attention(ts[0], ts[1], ts[2], 2, mask), Tensor(u3.astype(ts[0].dtype))))

    return [
        ("matmul", [x, y], lambda ts: tsum(matmul(ts[0], ts[1]))),
        ("affine", [x, y, b[:3]], lambda ts: tsum(mul(affine(ts[0], ts[1], ts[2]),
                                                      Tensor(u[:, :3].astype(ts[0].dtype))))),
        ("attention", qkv, attend),
        ("add_mul", [x, u], lambda ts: tsum(mul(add(ts[0], ts[1]), ts[0]))),
        ("gelu", [x], lambda ts: tsum(gelu(ts[0]))),
        ("softmax", [x], lambda ts: tsum(mul(softmax(ts[0], -1),
                                             Tensor(u.astype(ts[0].data.dtype))))),
        ("layernorm", [x, g, b], lambda ts: tsum(layernorm(ts[0], ts[1], ts[2]))),
        ("cross_entropy", [logits], lambda ts: cross_entropy(ts[0], t)),
    ]


def check_primitive_grads(dtype: str, seeds: int = 25) -> float:
    """Worst relative error across primitives, seeds, and inputs."""
    from .tensor import as_np_dtype

    h = PRIMITIVE_FD_STEP[dtype]
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        for name, arrays, build in _primitive_cases(rng):
            ts = [Tensor(a.astype(as_np_dtype(dtype)), requires_grad=True) for a in arrays]
            build(ts).backward()
            arrays64 = [a.astype(np.float64) for a in arrays]

            def f64():
                ts64 = [Tensor(a) for a in arrays64]
                return float(build(ts64).data)

            for i, tensor in enumerate(ts):
                num = _numeric_grad(f64, arrays64[i], h)
                worst = max(worst, _rel_err(tensor.grad, num))
    return worst


def _grad_check_spec(variant: str, seed: int) -> ModelSpec:
    return ModelSpec(depth=2, dim=8, heads=2, expansion=2, vocab_size=7, num_classes=3,
                     max_seq_len=4, variant=variant, num_experts=3, seed=seed)


def check_model_grads(variant: str, dtype: str, seed: int) -> float:
    """Full-model analytic grads vs float64 finite differences; returns max rel err."""
    spec = _grad_check_spec(variant, seed)
    model = Model(spec, dtype=dtype)
    rng = np.random.default_rng(seed + 1000)
    tokens = rng.integers(0, spec.vocab_size, size=(2, 4))
    labels = rng.integers(0, spec.num_classes, size=2)

    banks = model.bank_state()
    loss = batch_loss(model, tokens, labels, training=True)
    loss.backward()
    model.set_bank_state(banks)

    twin = model.cast("f64")
    banks64 = {k: v.astype(np.float64) for k, v in banks.items()}

    def loss64():
        twin.set_bank_state(banks64)
        with no_grad():
            return float(batch_loss(twin, tokens, labels, training=True).data)

    h = MODEL_FD_STEP[dtype]
    twin_params = dict(twin.named_parameters())
    worst = 0.0
    for name, t in model.named_parameters():
        num = _numeric_grad(loss64, twin_params[name].data, h)
        worst = max(worst, _rel_err(t.grad, num))
    return worst


def suite_gradients(seed: int = 0, dtypes=("f32", "f64"), model_seeds: int = 5,
                    primitive_seeds: int = 25) -> list[CheckResult]:
    results = []
    for dtype in dtypes:
        tol = GRAD_TOL[dtype]
        worst = check_primitive_grads(dtype, seeds=primitive_seeds)
        results.append(CheckResult(
            f"gradients/primitives dtype={dtype}", worst < tol,
            f"max_rel_err={worst:.3e} tol={tol:g} seeds={primitive_seeds}"))
        for variant in ("sw", "dw", "mb"):
            worst = max(check_model_grads(variant, dtype, seed + s) for s in range(model_seeds))
            results.append(CheckResult(
                f"gradients/full_model variant={variant} dtype={dtype}", worst < tol,
                f"max_rel_err={worst:.3e} tol={tol:g} seeds={model_seeds}"))
    return results


# -- ema suite ---------------------------------------------------------------------


def suite_ema(seed: int = 0, steps: int = 10_000, n: int = 4) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    delta = 0.95
    logits = rng.normal(size=(steps, n))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    history = e / e.sum(axis=1, keepdims=True)

    bank = np.zeros(n)
    for w in history:
        bank = F.ema_update(bank, Tensor(w), delta).data
    coeff = (1.0 - delta) * delta ** np.arange(steps - 1, -1, -1, dtype=np.float64)
    closed = coeff @ history
    dev = float(np.abs(bank - closed).max())
    results = [CheckResult("ema/incremental_vs_closed_form", dev < 1e-10,
                           f"max_abs_diff={dev:.3e} tol=1e-10 steps={steps}")]

    worst = 0.0
    bank = np.zeros(n)
    for t, w in enumerate(history[:2000], start=1):
        bank = F.ema_update(bank, Tensor(w), delta).data
        worst = max(worst, abs(bank.sum() - (1.0 - delta ** t)))
    results.append(CheckResult("ema/total_mass_telescopes", worst < 1e-8,
                               f"max_abs_dev={worst:.3e} tol=1e-8"))
    return results


# -- variance suite ----------------------------------------------------------------


def suite_variance(seed: int = 0, trials: int = 100_000, sigma: float = 1.0,
                   bias: float = 0.5, ks=(1, 2, 4, 8)) -> list[CheckResult]:
    results = []
    for k in ks:
        rep = F.variance_reduction_demo(k=k, sigma=sigma, trials=trials, seed=seed, bias=bias)
        rel = abs(rep.empirical_var - rep.predicted_var) / rep.predicted_var
        mean_tol = 3.0 * sigma / np.sqrt(k * trials)
        ok = rel < 0.05 and abs(rep.empirical_mean - bias) < mean_tol
        results.append(CheckResult(
            f"variance/averaged_k={k}", ok,
            f"empirical={rep.empirical_var:.5f} predicted={rep.predicted_var:.5f} "
            f"rel_dev={rel:.4f} mean_dev={abs(rep.empirical_mean - bias):.2e}"))
    return results


# -- export suite ------------------------------------------------------------------


def _briefly_train(model: Model, steps: int, seed: int) -> None:
    spec = model.spec
    rng = np.random.default_rng(seed)
    opt = AdamW(model.named_parameters(), weight_decay=0.01)
    for step in range(1, steps + 1):
        tokens = rng.integers(0, spec.vocab_size, size=(4, spec.max_seq_len))
        labels = rng.integers(0, spec.num_classes, size=4)
        train_step(model, opt, tokens, labels, 1e-3, 0.0, step)


def _collapse_via_checkpoint(model: Model) -> Model:
    """save -> load_model_checkpoint -> collapse_to_dense, as ``exfusion export`` runs it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        save_model_checkpoint(path, model)
        return collapse_to_dense(load_model_checkpoint(path).model)


def suite_export(seed: int = 0, dtypes=("f32", "f64"), batches: int = 16) -> list[CheckResult]:
    """Collapse faithfulness, in memory and through a checkpoint; the second
    must give the in-memory collapse's logits bit for bit."""
    tol = {"f32": 1e-5, "f64": 1e-10}
    results = []
    for dtype in dtypes:
        for variant in ("sw", "dw", "mb"):
            spec = ModelSpec(depth=2, dim=16, heads=2, expansion=2, vocab_size=13,
                             num_classes=4, max_seq_len=6, variant=variant,
                             num_experts=4, seed=seed)
            model = Model(spec, dtype=dtype)
            _briefly_train(model, steps=10, seed=seed)
            dense = collapse_to_dense(model)
            reloaded = _collapse_via_checkpoint(model)
            rng = np.random.default_rng(seed + 7)
            worst = 0.0
            bit_equal = True
            for _ in range(batches):
                tokens = rng.integers(0, spec.vocab_size, size=(4, 6))
                with no_grad():
                    a = model.forward(tokens, training=False).data
                    b = dense.forward(tokens, training=False).data
                    c = reloaded.forward(tokens, training=False).data
                worst = max(worst, float(np.abs(a - b).max()))
                bit_equal = bit_equal and b.tobytes() == c.tobytes()
            parity = dense.param_count() == expected_param_count(
                dataclasses.replace(spec, variant="dense"))
            results.append(CheckResult(
                f"export/collapse variant={variant} dtype={dtype}",
                worst < tol[dtype] and parity,
                f"max_logit_diff={worst:.3e} tol={tol[dtype]:g} param_parity={parity}"))
            results.append(CheckResult(
                f"export/checkpoint_path variant={variant} dtype={dtype}", bit_equal,
                f"logits_bit_equal_to_in_memory_collapse={bit_equal}"))
    return results


SUITES = {
    "fusion": suite_fusion,
    "gradients": suite_gradients,
    "ema": suite_ema,
    "variance": suite_variance,
    "export": suite_export,
}


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        results.extend(SUITES[name](seed=seed))
    return results
