import functools
import re
import weakref

import numpy as np
import pytest

from exfusion.checkpoint import load_model_checkpoint, read_checkpoint, write_checkpoint
from exfusion.model import Model, collapse_to_dense
from exfusion.optim import AdamW, CosineSchedule
from exfusion.tasks import TaskSpec, build_task
from exfusion.train import (
    TrainConfig,
    TrainingDivergence,
    evaluate,
    model_spec_for_task,
    train_loop,
    train_step,
)


def tiny_run(variant="sw", steps=30, **kw):
    task_spec = TaskSpec(seq_len=8, vocab_size=16, num_classes=4, train_size=256,
                         val_size=64, seed=3)
    task = build_task(task_spec)
    model_kw = dict(depth=2, dim=16, heads=2, expansion=2, variant=variant,
                    num_experts=3, seed=3)
    model_kw.update(kw.pop("model_kw", {}))
    spec = model_spec_for_task(task, **model_kw)
    cfg_kw = dict(steps=steps, batch_size=8, warmup_steps=5, log_interval=10,
                  checkpoint_interval=0, base_lr=3e-3)
    cfg_kw.update(kw)
    return spec, task_spec, TrainConfig(**cfg_kw)


class TestTrainLoop:
    def test_zero_steps_writes_initial_checkpoint_and_header(self, tmp_path):
        spec, task_spec, cfg = tiny_run(steps=0, warmup_steps=0)
        res = train_loop(spec, task_spec, cfg, tmp_path)
        assert (tmp_path / "ckpt_000000.bin").exists()
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines == ["step,epoch,lr,train_loss,val_metric"]
        assert res.final_step == 0

    def test_metrics_line_count(self, tmp_path):
        spec, task_spec, cfg = tiny_run(steps=30)
        train_loop(spec, task_spec, cfg, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 30 // cfg.log_interval + 1  # header + one per interval

    def test_same_seed_identical_metrics(self, tmp_path):
        spec, task_spec, cfg = tiny_run(variant="mb", steps=20, log_interval=5)
        train_loop(spec, task_spec, cfg, tmp_path / "a")
        train_loop(spec, task_spec, cfg, tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()

    def test_step_time_goes_to_the_echo_only(self, tmp_path):
        spec, task_spec, cfg = tiny_run(steps=10, log_interval=5)
        said = []
        train_loop(spec, task_spec, cfg, tmp_path, echo=said.append)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert [len(row.split(",")) for row in rows] == [5, 5, 5]
        timed = [s for s in said if re.fullmatch(r"step \d+: .* \(\d+\.\d ms/step\)", s)]
        assert len(timed) == len(said) == 2

    @pytest.mark.parametrize("variant", ["dense", "sw", "dw", "mb", "moe"])
    def test_resume_is_bit_exact(self, tmp_path, variant):
        spec, task_spec, cfg = tiny_run(variant=variant, steps=24, log_interval=6,
                                        checkpoint_interval=12)
        full = train_loop(spec, task_spec, cfg, tmp_path / "full")
        part = train_loop(spec, task_spec, cfg, tmp_path / "part", halt_at_step=12)
        resumed = train_loop(spec, task_spec, cfg, tmp_path / "part",
                             resume_from=tmp_path / "part" / "ckpt_000012.bin")
        assert (tmp_path / "full/metrics.csv").read_bytes() == \
               (tmp_path / "part/metrics.csv").read_bytes()
        a = load_model_checkpoint(full.checkpoint_paths[-1])
        b = load_model_checkpoint(resumed.checkpoint_paths[-1])
        for (n1, t1), (n2, t2) in zip(a.model.named_parameters(), b.model.named_parameters()):
            assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes(), n1
        for (n1, b1), (n2, b2) in zip(a.model.named_buffers(), b.model.named_buffers()):
            assert n1 == n2 and b1.tobytes() == b2.tobytes()
        for key, arr in a.opt_arrays.items():
            assert arr.tobytes() == b.opt_arrays[key].tobytes(), key

    def test_nonfinite_loss_aborts_with_diagnostic(self, tmp_path):
        spec, task_spec, cfg = tiny_run(steps=5, warmup_steps=0, log_interval=1)
        train_loop(spec, task_spec, cfg, tmp_path, halt_at_step=0)
        ckpt = tmp_path / "ckpt_000000.bin"
        tensors, meta = read_checkpoint(ckpt)
        bias = tensors["head.bias"]
        bias[:] = -3e38
        bias[0] = 3e38  # any target != 0 now yields an infinite loss
        write_checkpoint(ckpt, tensors, meta)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergence, match="step 1"):
            train_loop(spec, task_spec, cfg, tmp_path, resume_from=ckpt)

    def test_step_graph_is_dropped_before_the_next_forward(self, tmp_path, monkeypatch):
        from exfusion import train

        spec, task_spec, cfg = tiny_run(variant="mb", steps=4, warmup_steps=1, log_interval=2)
        real = train.batch_loss
        losses = []  # weak references to each training step's loss array
        alive_at_next_forward = []

        def recording(model, tokens, targets, training):
            if training and losses:
                alive_at_next_forward.append(losses[-1]() is not None)
            loss = real(model, tokens, targets, training)
            if training:
                losses.append(weakref.ref(loss.data))
            return loss

        monkeypatch.setattr(train, "batch_loss", recording)
        train_loop(spec, task_spec, cfg, tmp_path)
        assert alive_at_next_forward == [False] * 3

    def test_spec_task_mismatch_rejected(self, tmp_path):
        spec, task_spec, cfg = tiny_run()
        import dataclasses

        bad = dataclasses.replace(spec, vocab_size=99)
        with pytest.raises(ValueError, match="vocab"):
            train_loop(bad, task_spec, cfg, tmp_path)

    def test_resume_spec_mismatch_rejected(self, tmp_path):
        spec, task_spec, cfg = tiny_run(steps=10, checkpoint_interval=5)
        train_loop(spec, task_spec, cfg, tmp_path, halt_at_step=5)
        other_spec, _, _ = tiny_run(model_kw=dict(seed=4))
        with pytest.raises(ValueError, match="resume settings differ") as info:
            train_loop(other_spec, task_spec, cfg, tmp_path,
                       resume_from=tmp_path / "ckpt_000005.bin")
        assert "model_spec.seed 3 -> 4" in str(info.value)

    def test_resume_from_earlier_step_drops_later_rows(self, tmp_path):
        spec, task_spec, cfg = tiny_run(variant="mb", steps=24, log_interval=6,
                                        checkpoint_interval=12)
        train_loop(spec, task_spec, cfg, tmp_path / "full")
        train_loop(spec, task_spec, cfg, tmp_path / "part")  # already reached step 24
        train_loop(spec, task_spec, cfg, tmp_path / "part",
                   resume_from=tmp_path / "part" / "ckpt_000012.bin")
        full = (tmp_path / "full/metrics.csv").read_bytes()
        assert (tmp_path / "part/metrics.csv").read_bytes() == full
        assert [row.split(b",")[0] for row in full.splitlines()[1:]] == [b"6", b"12", b"18", b"24"]

    @pytest.mark.parametrize("metrics, line", [
        (b"", "empty metrics file"),
        (b"step,epoch,lr,train_loss,val_metric\n5,0,0.003,1.5,0.5\n\n", "line 3"),
        (b"step,epoch,lr,train_loss,val_metric\nfive,0,0.003,1.5,0.5\n6,0,0.003,1.4,0.5\n",
         "line 2"),
    ], ids=["empty", "blank_row", "non_numeric_step"])
    def test_unreadable_metrics_refused_before_any_write(self, tmp_path, metrics, line):
        spec, task_spec, cfg = tiny_run(steps=10, checkpoint_interval=5)
        train_loop(spec, task_spec, cfg, tmp_path, halt_at_step=5)
        (tmp_path / "metrics.csv").write_bytes(metrics)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        started = []
        with pytest.raises(ValueError, match=f"metrics.csv: {line}"):
            train_loop(spec, task_spec, cfg, tmp_path, resume_from=tmp_path / "ckpt_000005.bin",
                       on_start=lambda: started.append(True))
        assert started == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("train_change, task_change, fields", [
        (dict(batch_size=32), {}, ["train_config.batch_size 8 -> 32"]),
        (dict(batch_size=32, base_lr=5e-2), {}, ["train_config.base_lr", "train_config.batch_size"]),
        ({}, dict(noise=0.5), ["task_spec.noise 0.25 -> 0.5"]),
    ])
    def test_resume_with_changed_settings_refused(self, tmp_path, train_change, task_change,
                                                  fields):
        import dataclasses

        spec, task_spec, cfg = tiny_run(steps=10, checkpoint_interval=5)
        train_loop(spec, task_spec, cfg, tmp_path, halt_at_step=5)
        task_spec = dataclasses.replace(task_spec, **task_change)
        cfg = dataclasses.replace(cfg, **train_change)
        with pytest.raises(ValueError, match="resume settings differ") as info:
            train_loop(spec, task_spec, cfg, tmp_path, resume_from=tmp_path / "ckpt_000005.bin")
        for field in fields:
            assert field in str(info.value)
        assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 1  # untouched


class TestStaticFusionUnderAdamW:
    """Static fusion with weights 1/N gives every expert the gradient G/N of
    the fused matrix, so Adam's moments are m_G/N and v_G/N^2 and each expert
    moves by the dense update taken with eps*N. With eps near zero and no
    clip, sw trains exactly as the dense model started at the experts' mean.

    The lr is one at which training does not amplify rounding: at 3e-3 on
    this task a one-ulp nudge of one weight of the dense model alone grows
    to a 5e-9 loss difference by step 150."""

    def test_sw_trains_as_its_collapsed_dense_model(self):
        spec, task_spec, _ = tiny_run("sw", model_kw=dict(num_experts=4))
        task = build_task(task_spec)
        sw = Model(spec, dtype="f64")
        dense = collapse_to_dense(sw)
        runs = [(m, AdamW(m.named_parameters(), eps=1e-300, weight_decay=0.05))
                for m in (sw, dense)]
        for step in range(1, 151):
            xb, yb = task.batch(step, 8)
            (sw_loss, _), (dense_loss, _) = (train_step(m, opt, xb, yb, 1e-3, 0.0, step)
                                             for m, opt in runs)
            assert abs(sw_loss - dense_loss) <= 1e-12 * abs(dense_loss), step

    def test_sw_expert_moments_stay_bitwise_equal(self):
        spec, task_spec, _ = tiny_run("sw", model_kw=dict(num_experts=4))
        task = build_task(task_spec)
        model = Model(spec, dtype="f32")
        opt = AdamW(model.named_parameters(), weight_decay=0.05)
        for step in range(1, 101):
            xb, yb = task.batch(step, 8)
            train_step(model, opt, xb, yb, 3e-3, 1.0, step)
        names = [name for name, _ in opt.params
                 if name.split(".")[-2] in ("up", "down") and ".ffn." in name]
        assert len(names) == 2 * 2 * spec.depth
        for name in names:
            for moment in (opt.m[name], opt.v[name]):
                assert moment[0].any()
                assert all(expert.tobytes() == moment[0].tobytes() for expert in moment[1:]), name


@functools.lru_cache(maxsize=None)
def _tiny_task(task: str):
    return build_task(TaskSpec(task=task, seq_len=8, vocab_size=16, num_classes=4,
                               train_size=64, val_size=32, seed=1))


class TestEveryParameterHasAGradient:
    """AdamW refuses a trainable parameter without a gradient, so every model
    the configuration can build must give each one a gradient on every
    training step, with nothing cleared or filled in by hand."""

    @pytest.mark.parametrize("option", [
        {}, dict(expert_init="replicate"), dict(freeze_fusion_weights=True),
        dict(replaced_layers=(1,)), dict(top_k=2),
        dict(expert_init="replicate", freeze_fusion_weights=True, replaced_layers=(1,), top_k=2),
    ], ids=["defaults", "replicate", "frozen-weights", "layer-1", "top-2", "all-options"])
    @pytest.mark.parametrize("task", ["synthetic_cluster", "char_lm"])
    @pytest.mark.parametrize("variant", ["dense", "moe", "sw", "dw", "mb"])
    def test_one_step_updates_every_parameter(self, variant, task, option):
        spec = model_spec_for_task(_tiny_task(task), depth=2, dim=8, heads=2, expansion=2,
                                   variant=variant, num_experts=3, seed=1, **option)
        model = Model(spec, dtype="f64")
        opt = AdamW(model.named_parameters(), weight_decay=0.05)
        before = {name: t.data for name, t in opt.params}
        xb, yb = _tiny_task(task).batch(1, 4)
        assert train_step(model, opt, xb, yb, 1e-3, 1.0, 1)[1]
        assert opt.step_count == 1
        for name, t in opt.params:
            assert t.grad is not None and t.data is not before[name], name


EXPERT_SETS = ("up.weight", "up.bias", "down.weight", "down.bias")


def _symmetry_steps(variant, dtype, expert_init, steps):
    """Criterion 6's model and task, trained at wd 0.05, clip 1.0 and a
    cosine lr from 2e-3 with 10% warmup. Yields ``(lr, params)`` before
    training (lr 0) and after each of ``steps`` steps (that step's lr);
    ``params`` maps each trainable name to its array."""
    task_spec = TaskSpec(seq_len=8, vocab_size=16, num_classes=4, train_size=256,
                         val_size=64, seed=11)
    task = build_task(task_spec)
    spec = model_spec_for_task(task, depth=2, dim=16, heads=2, expansion=2, variant=variant,
                               num_experts=4, expert_init=expert_init, seed=11)
    model = Model(spec, dtype=dtype)
    opt = AdamW(model.named_parameters(), weight_decay=0.05)
    sched = CosineSchedule(steps // 10, steps, 2e-3, 1e-5)
    for step in range(steps + 1):
        lr = sched.lr_at(step) if step else 0.0
        if step:
            xb, yb = task.batch(step, 8)
            assert train_step(model, opt, xb, yb, lr, 1.0, step)[1]
        yield lr, {name: t.data for name, t in opt.params}


def _expert_sets(params: dict) -> dict:
    """The stacked expert parameters of every fused FFN, by name."""
    experts = {name: arr for name, arr in params.items()
               if ".ffn." in name and name.endswith(EXPERT_SETS)}
    assert len(experts) == 2 * len(EXPERT_SETS)
    return experts


def _spread(stack: np.ndarray) -> float:
    """||W_i - W_mean|| over the experts of one stacked parameter."""
    return float(np.linalg.norm(stack - stack.mean(axis=0)))


def _experts_equal(stack: np.ndarray) -> bool:
    return all(e.tobytes() == stack[0].tobytes() for e in stack[1:])


class TestUpcyclingSymmetry:
    """With the paper's upcycling init (``expert_init = replicate``) the
    experts start equal. Static fusion gives each the same gradient, so AdamW
    keeps them equal: sw and dw train as a dense model, dw with one learned
    scale per layer. Only mb's per-batch router weights split them."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("variant", ["sw", "dw"])
    def test_static_fusion_keeps_replicated_experts_bitwise_equal(self, variant, dtype):
        for _, params in _symmetry_steps(variant, dtype, "replicate", 150):
            for name, stack in _expert_sets(params).items():
                assert _experts_equal(stack), name
        for name, w in params.items():
            if name.endswith(".fusion.weights"):  # equal to one another, but learned
                assert np.all(w == w[0]) and abs(w[0] - 0.25) > 0.01, name

    def test_mb_router_splits_replicated_experts_within_ten_steps(self):
        *_, (_, params) = _symmetry_steps("mb", "f64", "replicate", 10)
        assert max(_spread(stack) for stack in _expert_sets(params).values()) > 0.0

    def test_sw_expert_spread_shrinks_only_by_weight_decay(self):
        # every sw expert gets the gradient G/N, so its moments and Adam step
        # match the others'; only the decay term lr*wd*W_i tells them apart
        initial, factor, worst = None, 1.0, 0.0
        for lr, params in _symmetry_steps("sw", "f64", "independent", 150):
            factor *= 1.0 - lr * 0.05
            experts = _expert_sets(params)
            initial = initial or {name: _spread(stack) for name, stack in experts.items()}
            for name, stack in experts.items():
                if initial[name]:
                    worst = max(worst, abs(_spread(stack) / (initial[name] * factor) - 1.0))
                else:  # the biases start equal (zero), and stay equal
                    assert _experts_equal(stack), name
        assert worst <= 5 * np.finfo(np.float64).eps


class TestEvaluate:
    def test_eval_deterministic_and_stateless(self):
        spec, task_spec, _ = tiny_run(variant="mb")
        task = build_task(task_spec)
        from exfusion.model import Model

        model = Model(spec)
        banks_before = model.bank_state()
        a = evaluate(model, task)
        b = evaluate(model, task)
        assert a == b
        for name, arr in model.bank_state().items():
            np.testing.assert_array_equal(arr, banks_before[name])

    def test_untrained_accuracy_near_chance(self):
        spec, task_spec, _ = tiny_run()
        task = build_task(task_spec)
        from exfusion.model import Model

        acc = evaluate(Model(spec), task).metric
        assert abs(acc - 0.25) < 0.15  # 4 classes

    def test_separable_task_reaches_95_percent(self, tmp_path):
        task_spec = TaskSpec(seq_len=16, vocab_size=16, num_classes=4, train_size=1024,
                             val_size=256, noise=0.3, seed=7)
        task = build_task(task_spec)
        spec = model_spec_for_task(task, depth=2, dim=32, heads=4, expansion=2,
                                   variant="dense", seed=7)
        cfg = TrainConfig(steps=250, batch_size=32, warmup_steps=25, log_interval=250,
                          base_lr=3e-3, checkpoint_interval=0)
        res = train_loop(spec, task_spec, cfg, tmp_path)
        assert res.final_eval.metric > 0.95, f"val accuracy {res.final_eval.metric:.3f}"
