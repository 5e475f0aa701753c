import numpy as np
import pytest

from exfusion import optim
from exfusion.model import Model, ModelSpec
from exfusion.optim import AdamW, CosineSchedule, clip_grad_norm
from exfusion.tensor import ShapeError, Tensor, cross_entropy

from oracles import adamw_reference


def param(val, grad=None, dtype=np.float64):
    t = Tensor(np.asarray(val, dtype=dtype), requires_grad=True)
    if grad is not None:
        t.grad = np.asarray(grad, dtype=dtype)
    return t


class TestAdamW:
    def test_zero_grad_no_decay_is_noop(self):
        p = param([1.0, -2.0], grad=[0.0, 0.0])
        opt = AdamW([("p", p)], weight_decay=0.0)
        assert opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_moves_by_lr(self):
        p = param([0.5], grad=[1.0])
        opt = AdamW([("p", p)], eps=1e-12, weight_decay=0.0)
        opt.step(0.1)
        # bias-corrected first step: m_hat = v_hat = 1 => update == lr
        assert abs(p.data[0] - 0.4) < 1e-9

    def test_decay_only_shrinks_multiplicatively(self):
        p = param([1.0], grad=[0.0])
        opt = AdamW([("p", p)], weight_decay=0.05)
        opt.step(0.1)
        assert p.data[0] == 1.0 - 0.1 * 0.05

    def test_no_decay_names_skip_decay(self):
        p = param([1.0], grad=[0.0])
        w = param([1.0], grad=[0.0])
        opt = AdamW([("p", p), ("fusion.weights", w)], weight_decay=0.05,
                    no_decay={"fusion.weights"})
        opt.step(0.1)
        assert p.data[0] != 1.0 and w.data[0] == 1.0

    def test_nonfinite_grad_skips_whole_step(self):
        p = param([1.0], grad=[float("nan")])
        q = param([2.0], grad=[1.0])
        opt = AdamW([("p", p), ("q", q)], weight_decay=0.05)
        assert not opt.step(0.1)
        np.testing.assert_array_equal(p.data, [1.0])
        np.testing.assert_array_equal(q.data, [2.0])
        assert opt.step_count == 0 and np.all(opt.m["q"] == 0)

    def test_missing_gradient_refused_before_any_change(self):
        p = param([1.0, -1.0], grad=[0.5, 0.5])
        q = param([3.0])  # trainable, but no gradient
        opt = AdamW([("p", p), ("q", q)], weight_decay=0.5)
        before = p.data
        with pytest.raises(ShapeError, match="'q' has no gradient"):
            opt.step(0.1)
        assert p.data is before and q.data[0] == 3.0 and opt.step_count == 0
        assert not opt.m["p"].any() and not opt.v["p"].any()

    def test_non_grad_params_excluded(self):
        frozen = Tensor(np.ones(2), requires_grad=False)
        opt = AdamW([("frozen", frozen)])
        assert opt.params == []

    def test_trajectory_matches_reference_formula(self):
        # independent scalar re-implementation of decoupled AdamW
        rng = np.random.default_rng(0)
        grads = rng.normal(size=10)
        lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.04
        p = param([0.7])
        opt = AdamW([("p", p)], beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        x, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            opt.step(lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            x = x - lr * (mh / (np.sqrt(vh) + eps) + wd * x)
            assert abs(p.data[0] - x) < 1e-12, f"step {t}"

    def test_learned_fusion_weights_carry_the_no_decay_name(self):
        # the training loop exempts names ending in ".fusion.weights" from
        # decay; the dw model must actually expose that name
        from exfusion.model import Model, ModelSpec

        spec = ModelSpec(depth=1, dim=8, heads=2, expansion=2, vocab_size=5,
                         num_classes=2, max_seq_len=4, variant="dw", num_experts=2)
        names = [n for n, _ in Model(spec).named_parameters()]
        assert any(n.endswith(".fusion.weights") for n in names)

    def test_default_no_decay_exempts_exactly_the_fusion_weights(self):
        from exfusion.model import Model, ModelSpec

        spec = ModelSpec(depth=2, dim=8, heads=2, expansion=2, vocab_size=5,
                         num_classes=2, max_seq_len=4, variant="dw", num_experts=2)
        named = Model(spec).named_parameters()
        for _, t in named:  # zero gradients: only the decay term can move a parameter
            t.data = np.ones_like(t.data)
            t.grad = np.zeros_like(t.data)
        opt = AdamW(named, weight_decay=0.05)
        assert opt.step(0.1)
        kept = {name for name, t in named if np.all(t.data == 1.0)}
        assert kept == opt.no_decay == {"blocks.0.ffn.fusion.weights",
                                        "blocks.1.ffn.fusion.weights"}

    def test_state_roundtrip(self):
        p = param([1.0, 2.0], grad=[0.3, -0.2])
        opt = AdamW([("p", p)])
        opt.step(0.01)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        opt2 = AdamW([("p", p)])
        opt2.load_state_arrays(arrays)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])

    def test_loaded_moments_are_copied(self):
        p = param([1.0, 2.0], grad=[0.3, -0.2])
        opt = AdamW([("p", p)])
        opt.step(0.01)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        opt2 = AdamW([("p", p)])
        opt2.load_state_arrays(arrays)
        arrays["opt/m/p"][...] = 9.0
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])

    @pytest.mark.parametrize("grad", [np.zeros(2), np.float64(0.5), np.zeros(3, np.float32)],
                             ids=["shape", "0-d", "dtype"])
    def test_mismatched_gradient_refused_before_any_change(self, grad):
        p = param([1.0, -1.0], grad=[0.5, 0.5])
        q = param([2.0, 3.0, 4.0])
        q.grad = np.asarray(grad)
        opt = AdamW([("p", p), ("q", q)], weight_decay=0.1)
        before = p.data
        with pytest.raises(ShapeError, match="'q'"):
            opt.step(0.1)
        assert p.data is before and opt.step_count == 0
        assert not opt.m["p"].any() and not opt.v["p"].any()

    def test_mixed_dtypes_refused_before_any_moment_is_allocated(self, monkeypatch):
        named = [("p", param([1.0])), ("q", param([2.0], dtype=np.float32)),
                 ("r", param([3.0], dtype=np.float32))]

        def no_alloc(*args, **kwargs):
            raise AssertionError("a moment array was allocated")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(TypeError, match="'q' is float32.*'p' is float64"):
            AdamW(named)


def _named(rng, dtypes):
    """Parameters of sizes 12, 3, 5, 12, 1, 20 and 4, so that blocks of 7
    split several of them, with decay and no-decay names interleaved and
    the dtypes taken in turn."""
    shapes = {"a.weight": (3, 4), "b.fusion.weights": (3,), "c.bias": (5,),
              "d.weight": (2, 3, 2), "e.fusion.weights": (1,), "f.weight": (20,),
              "g.weight": (4, 1)}
    return [(name, shape, dtypes[i % len(dtypes)], rng.normal(size=shape))
            for i, (name, shape) in enumerate(shapes.items())]


class TestBlockedStep:
    @pytest.mark.parametrize("dtypes", [(np.float32,), (np.float64,)], ids=["f32", "f64"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_bytes_equal_the_per_parameter_loop(self, monkeypatch, dtypes, weight_decay):
        monkeypatch.setattr(optim, "BLOCK", 7)
        rng = np.random.default_rng(3)
        spec = _named(rng, dtypes)
        blocked = [(name, param(init, dtype=dt)) for name, _, dt, init in spec]
        ref = [(name, param(init, dtype=dt)) for name, _, dt, init in spec]
        opt = AdamW(blocked, weight_decay=weight_decay)
        m = {name: np.zeros_like(t.data) for name, t in ref}
        v = {name: np.zeros_like(t.data) for name, t in ref}
        count = 0
        for step in range(1, 21):
            lr = 0.01 * step
            for (name, shape, dt, _), (_, a), (_, b) in zip(spec, blocked, ref):
                g = rng.normal(size=shape).astype(dt)
                if step == 10 and name == "d.weight":
                    g.flat[1] = np.inf
                a.grad = b.grad = g
            applied = opt.step(lr)
            new_count = adamw_reference(ref, m, v, count, lr, weight_decay=weight_decay,
                                        no_decay=opt.no_decay)
            assert applied == (new_count != count) == (step != 10), step
            count = new_count
            assert opt.step_count == count
            for (name, a), (_, b) in zip(blocked, ref):
                assert a.data.dtype == b.data.dtype and a.data.shape == b.data.shape
                assert a.data.tobytes() == b.data.tobytes(), (step, name)
                assert opt.m[name].tobytes() == m[name].tobytes(), (step, name)
                assert opt.v[name].tobytes() == v[name].tobytes(), (step, name)
        assert list(opt.state_arrays()) == (
            [f"opt/m/{name}" for name, _ in blocked] + [f"opt/v/{name}" for name, _ in blocked]
            + ["opt/step"])

    def test_recorded_graph_keeps_its_weights_across_steps(self):
        # AdamW built before the eval forward: a step that wrote parameters in
        # place would change the weights the eval graph differentiates against
        spec = ModelSpec(depth=2, dim=16, heads=4, expansion=2, vocab_size=11, num_classes=4,
                         max_seq_len=8, variant="mb", seed=5)
        tokens = np.random.default_rng(0).integers(0, 11, size=(3, 6))
        labels = np.arange(3) % 4

        def eval_grads(steps: int) -> dict:
            model = Model(spec, dtype="f64")
            opt = AdamW(model.named_parameters(), weight_decay=0.05)
            eval_loss = cross_entropy(model.forward(tokens, training=False), labels)
            for seed in range(1, steps + 1):
                model.zero_grad()
                batch = np.random.default_rng(seed).integers(0, 11, size=(3, 6))
                cross_entropy(model.forward(batch, training=True), labels).backward()
                assert opt.step(1e-2)
            model.zero_grad()
            eval_loss.backward()
            return {name: t.grad.copy() for name, t in model.named_parameters()
                    if t.grad is not None}

        plain, stepped = eval_grads(0), eval_grads(2)
        assert plain.keys() == stepped.keys() and plain
        for name, g in plain.items():
            assert g.tobytes() == stepped[name].tobytes(), name


class TestClip:
    def test_large_norm_scaled_down(self):
        p = param(np.ones(4), grad=3 * np.ones(4))  # norm 6
        norm = clip_grad_norm([("p", p)], 1.0)
        assert abs(norm - 6.0) < 1e-12
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-6

    def test_small_norm_untouched(self):
        g = np.array([0.3, 0.4])
        p = param([1.0, 1.0], grad=g.copy())
        norm = clip_grad_norm([("p", p)], 1.0)
        assert abs(norm - 0.5) < 1e-12
        np.testing.assert_array_equal(p.grad, g)


class TestSchedule:
    def test_endpoints(self):
        s = CosineSchedule(warmup_steps=10, total_steps=100, base_lr=1e-3, min_lr=1e-5)
        assert s.lr_at(0) == 0.0
        assert abs(s.lr_at(10) - 1e-3) < 1e-15
        assert abs(s.lr_at(100) - 1e-5) < 1e-15

    def test_linear_warmup_and_cosine_midpoint(self):
        s = CosineSchedule(warmup_steps=10, total_steps=110, base_lr=1.0, min_lr=0.0)
        assert abs(s.lr_at(5) - 0.5) < 1e-15
        assert abs(s.lr_at(60) - 0.5) < 1e-12  # halfway through the cosine arc

    def test_out_of_range_step(self):
        s = CosineSchedule(5, 10, 1.0)
        with pytest.raises(ValueError):
            s.lr_at(-1)
        with pytest.raises(ValueError):
            s.lr_at(11)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CosineSchedule(warmup_steps=20, total_steps=10, base_lr=1.0)
        with pytest.raises(ValueError):
            CosineSchedule(0, 10, base_lr=1e-4, min_lr=1e-3)
