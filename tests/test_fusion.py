import numpy as np
import pytest

from exfusion.fusion import (
    LearnedFusion,
    MemoryFusion,
    StaticFusion,
    ema_update,
    fuse,
    fused_ffn_forward,
    router_fusion_weights,
    uniform_weights,
    variance_reduction_demo,
)
from exfusion.moe import Router
from exfusion.params import ArraySource, ExpertAffine
from exfusion.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    gelu,
    matmul,
    tsum,
)

from oracles import ema_closed_form, fused_output_loop, max_rel_err, numeric_gradient, softmax_rows


def make_set(n=4, d_in=5, d_out=7, seed=0, dtype="f32", name="e"):
    return ExpertAffine(name, n, d_in, d_out, ArraySource(dtype, seed))


class TestFuse:
    def test_half_half_identity_experts(self):
        e = make_set(n=2, d_in=3, d_out=3)
        e.weight.data = np.stack([np.eye(3), 3 * np.eye(3)]).astype(np.float32)
        e.bias.data = np.zeros((2, 3), dtype=np.float32)
        fused = fuse(e, [0.5, 0.5])
        np.testing.assert_allclose(fused.weight.data, 2 * np.eye(3), atol=1e-7)

    def test_one_hot_selects_expert_exactly(self):
        e = make_set(seed=2)
        for j in range(e.n):
            w = np.zeros(e.n, dtype=np.float32)
            w[j] = 1.0
            fused = fuse(e, w)
            assert fused.weight.data.tobytes() == e.weight.data[j].tobytes()
            assert fused.bias.data.tobytes() == e.bias.data[j].tobytes()

    def test_length_mismatch_and_nonfinite_rejected(self):
        e = make_set()
        with pytest.raises(ShapeError):
            fuse(e, [0.5, 0.5])
        with pytest.raises(NonFiniteError):
            fuse(e, [0.25, 0.25, 0.25, float("inf")])

    @pytest.mark.parametrize("dtype,tol", [("f32", 1e-5), ("f64", 1e-12)])
    def test_param_fusion_equals_output_space_sum(self, dtype, tol):
        # the affine fusion identity, checked against a per-expert loop
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(1, 6))
            d_in = int(rng.integers(2, 10))
            d_out = int(rng.integers(2, 10))
            e = make_set(n, d_in, d_out, seed=trial, dtype=dtype)
            e.bias.data = rng.normal(size=(n, d_out)).astype(e.bias.data.dtype) * 0.1
            w = rng.normal(size=n)
            x = rng.normal(size=(4, d_in)) / np.sqrt(d_in)
            fused = fuse(e, w.astype(e.weight.data.dtype))
            got = (matmul(Tensor(x.astype(e.weight.data.dtype)), fused.weight).data
                   + fused.bias.data)
            want = fused_output_loop(w, e.weight.data.astype(np.float64),
                                     e.bias.data.astype(np.float64), x)
            assert np.abs(got - want).max() < tol

    def test_scaling_weights_scales_output(self):
        e = make_set(seed=3)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 5)).astype(np.float32))
        w = np.random.default_rng(2).normal(size=4).astype(np.float32)
        base = matmul(x, fuse(e, w).weight).data
        # powers of two scale exactly; arbitrary factors to dtype tolerance
        doubled = matmul(x, fuse(e, 2.0 * w).weight).data
        assert doubled.tobytes() == (2.0 * base).tobytes()
        scaled = matmul(x, fuse(e, np.float32(1.7) * w).weight).data
        np.testing.assert_allclose(scaled, 1.7 * base, rtol=1e-5, atol=1e-6)


class TestStaticFusion:
    def test_single_expert_matches_plain_ffn(self):
        up = make_set(n=1, d_in=4, d_out=8, seed=4, name="up")
        down = make_set(n=1, d_in=8, d_out=4, seed=4, name="down")
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)).astype(np.float32))
        out = fused_ffn_forward(x, up, down, uniform_weights(1, "f32"))
        h = gelu(add(matmul(x, Tensor(up.weight.data[0])), Tensor(up.bias.data[0])))
        want = add(matmul(h, Tensor(down.weight.data[0])), Tensor(down.bias.data[0]))
        np.testing.assert_array_equal(out.data, want.data)

    def test_identical_experts_match_single_expert_ffn(self):
        up = ExpertAffine("up", 4, 4, 8, ArraySource("f32", 5), replicate=True)
        down = ExpertAffine("down", 4, 8, 4, ArraySource("f32", 5), replicate=True)
        x = Tensor(np.random.default_rng(4).normal(size=(3, 4)).astype(np.float32))
        out = fused_ffn_forward(x, up, down, uniform_weights(4, "f32"))
        h = gelu(add(matmul(x, Tensor(up.weight.data[0])), Tensor(up.bias.data[0])))
        want = add(matmul(h, Tensor(down.weight.data[0])), Tensor(down.bias.data[0]))
        np.testing.assert_allclose(out.data, want.data, atol=1e-6)

    def test_expert_grad_is_uniform_share_of_dense_grad(self):
        n = 4
        up = make_set(n, 4, 8, seed=6, name="up")
        down = make_set(n, 8, 4, seed=6, name="down")
        x_np = np.random.default_rng(5).normal(size=(6, 4)).astype(np.float32)
        tsum(fused_ffn_forward(Tensor(x_np), up, down, uniform_weights(n, "f32"))).backward()

        # dense twin built from the fused parameters
        dw_up = Tensor(up.weight.data.mean(axis=0), requires_grad=True)
        db_up = Tensor(up.bias.data.mean(axis=0), requires_grad=True)
        dw_down = Tensor(down.weight.data.mean(axis=0), requires_grad=True)
        db_down = Tensor(down.bias.data.mean(axis=0), requires_grad=True)
        h = gelu(add(matmul(Tensor(x_np), dw_up), db_up))
        tsum(add(matmul(h, dw_down), db_down)).backward()

        for i in range(n):
            assert np.abs(up.weight.grad[i] - dw_up.grad / n).max() < 1e-5
            assert np.abs(down.weight.grad[i] - dw_down.grad / n).max() < 1e-5


class TestLearnedFusion:
    def test_init_matches_static(self):
        up = make_set(4, 4, 8, seed=7, name="up")
        down = make_set(4, 8, 4, seed=7, name="down")
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4)).astype(np.float32))
        lf = LearnedFusion("fusion", 4, ArraySource("f32"))
        got = fused_ffn_forward(x, up, down, lf.step_weights(x, True))
        want = fused_ffn_forward(x, up, down, StaticFusion(4, "f32").step_weights(x, True))
        assert got.data.tobytes() == want.data.tobytes()

    def test_one_hot_weights_select_pair(self):
        up = make_set(4, 4, 8, seed=8, name="up")
        down = make_set(4, 8, 4, seed=8, name="down")
        x = Tensor(np.random.default_rng(7).normal(size=(2, 4)).astype(np.float32))
        lf = LearnedFusion("fusion", 4, ArraySource("f32"))
        lf.weights.data = np.array([0.0, 0.0, 1.0, 0.0], dtype=np.float32)
        out = fused_ffn_forward(x, up, down, lf.weights)
        h = gelu(add(matmul(x, Tensor(up.weight.data[2])), Tensor(up.bias.data[2])))
        want = add(matmul(h, Tensor(down.weight.data[2])), Tensor(down.bias.data[2]))
        np.testing.assert_array_equal(out.data, want.data)

    def test_weight_gradient_matches_finite_differences(self):
        up = make_set(3, 4, 6, seed=9, name="up")
        down = make_set(3, 6, 4, seed=9, name="down")
        x_np = np.random.default_rng(8).normal(size=(5, 4))
        lf = LearnedFusion("fusion", 3, ArraySource("f32"))
        loss = tsum(fused_ffn_forward(Tensor(x_np.astype(np.float32)), up, down, lf.weights))
        loss.backward()

        up64 = ExpertAffine("u", 3, 4, 6, ArraySource("f64", 9))
        down64 = ExpertAffine("d", 3, 6, 4, ArraySource("f64", 9))
        up64.weight.data = up.weight.data.astype(np.float64)
        down64.weight.data = down.weight.data.astype(np.float64)

        def f(w):
            return float(tsum(fused_ffn_forward(Tensor(x_np), up64, down64, Tensor(w.copy()))).data)

        num = numeric_gradient(lambda w: f(w), [lf.weights.data.astype(np.float64)], 0, 1e-3)
        assert max_rel_err(lf.weights.grad, num) < 1e-4

    def test_frozen_weights_record_no_grad(self):
        up = make_set(3, 4, 6, seed=10, name="up")
        down = make_set(3, 6, 4, seed=10, name="down")
        lf = LearnedFusion("fusion", 3, ArraySource("f32"), frozen=True)
        x = Tensor(np.random.default_rng(9).normal(size=(2, 4)).astype(np.float32))
        tsum(fused_ffn_forward(x, up, down, lf.step_weights(x, True))).backward()
        assert lf.weights.grad is None and not lf.weights.requires_grad


class TestRouterFusionWeights:
    def test_zero_router_gives_uniform(self):
        router = Router("r", 6, 4, ArraySource("f32", 0))
        router.weight.data = np.zeros_like(router.weight.data)
        x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 6)).astype(np.float32))
        np.testing.assert_allclose(router_fusion_weights(x, router).data, 0.25, atol=1e-7)

    def test_single_token_equals_its_softmax_row(self):
        router = Router("r", 6, 4, ArraySource("f32", 11))
        x_np = np.random.default_rng(11).normal(size=(1, 1, 6)).astype(np.float32)
        got = router_fusion_weights(Tensor(x_np), router).data
        logits = x_np.reshape(1, 6) @ router.weight.data + router.bias.data
        np.testing.assert_allclose(got, softmax_rows(logits)[0], atol=1e-6)

    def test_matches_per_token_loop(self):
        router = Router("r", 6, 5, ArraySource("f32", 12))
        x_np = np.random.default_rng(12).normal(size=(3, 4, 6)).astype(np.float32)
        got = router_fusion_weights(Tensor(x_np), router).data
        rows = []
        for b in range(3):
            for t in range(4):
                rows.append(softmax_rows(x_np[b, t] @ router.weight.data + router.bias.data))
        np.testing.assert_allclose(got, np.mean(rows, axis=0), atol=1e-6)

    def test_sums_to_one_and_rejects_empty(self):
        router = Router("r", 6, 4, ArraySource("f32", 13))
        x = Tensor(np.random.default_rng(13).normal(size=(2, 5, 6)).astype(np.float32))
        assert abs(router_fusion_weights(x, router).data.sum() - 1.0) < 1e-6
        with pytest.raises(ValueError, match="empty"):
            router_fusion_weights(Tensor(np.zeros((0, 1, 6), dtype=np.float32)), router)


class TestEmaUpdate:
    def test_first_step_from_zero(self):
        m = ema_update(np.zeros(4), Tensor(np.full(4, 0.25)), 0.95).data
        np.testing.assert_allclose(m, 0.0125, atol=1e-12)

    def test_constant_input_geometric_series(self):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        m = np.zeros(4)
        delta = 0.9
        for t in range(1, 50):
            m = ema_update(m, Tensor(w), delta).data
            np.testing.assert_allclose(m, w * (1 - delta ** t), atol=1e-12)

    def test_random_sequence_matches_closed_form(self):
        rng = np.random.default_rng(14)
        delta = 0.95
        history = softmax_rows(rng.normal(size=(10_000, 4)))
        m = np.zeros(4)
        for w in history:
            m = ema_update(m, Tensor(w), delta).data
        np.testing.assert_allclose(m, ema_closed_form(history, delta), atol=1e-10)

    def test_delta_out_of_range(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ema_update(np.zeros(2), Tensor(np.zeros(2)), bad)


class TestMemoryFusion:
    def _mb(self, seed=0, n=4, dim=6, delta=0.95, zero_router=False):
        router = Router("r", dim, n, ArraySource("f32", seed))
        if zero_router:
            router.weight.data = np.zeros_like(router.weight.data)
        return MemoryFusion("fusion", router, delta, ArraySource("f32"))

    def test_first_training_step_composition(self):
        # zero router => w = 1/N each; bank becomes (1-delta)/N; output must equal
        # the manual fuse-with-those-weights composition
        mb = self._mb(zero_router=True)
        up = make_set(4, 6, 8, seed=15, name="up")
        down = make_set(4, 8, 6, seed=15, name="down")
        x = Tensor(np.random.default_rng(15).normal(size=(2, 3, 6)).astype(np.float32))
        w = mb.step_weights(x, training=True)
        np.testing.assert_allclose(mb.bank, 0.05 * 0.25, atol=1e-7)
        out = fused_ffn_forward(x, up, down, w)
        manual = fused_ffn_forward(x, up, down, np.full(4, 0.05 * 0.25, dtype=np.float32))
        np.testing.assert_allclose(out.data, manual.data, atol=1e-6)

    def test_eval_mode_is_stateless_and_stable(self):
        mb = self._mb(seed=16)
        up = make_set(4, 6, 8, seed=16, name="up")
        down = make_set(4, 8, 6, seed=16, name="down")
        x = Tensor(np.random.default_rng(16).normal(size=(2, 3, 6)).astype(np.float32))
        mb.step_weights(x, training=True)
        bank_before = mb.bank.copy()
        a = fused_ffn_forward(x, up, down, mb.step_weights(x, training=False))
        b = fused_ffn_forward(x, up, down, mb.step_weights(x, training=False))
        assert a.data.tobytes() == b.data.tobytes()
        np.testing.assert_array_equal(mb.bank, bank_before)

    def test_bank_total_telescopes(self):
        mb = self._mb(seed=17, delta=0.9)
        rng = np.random.default_rng(17)
        for t in range(1, 40):
            x = Tensor(rng.normal(size=(2, 3, 6)).astype(np.float32))
            mb.step_weights(x, training=True)
            assert abs(mb.bank.sum() - (1 - 0.9 ** t)) < 1e-6
            assert mb.bank.min() >= 0.0

    def test_history_is_detached_but_current_step_flows(self):
        # analytic router grad must match finite differences of the one-step
        # objective with the stored bank held fixed: history is a constant,
        # only the fresh (1 - delta) * w term carries signal
        up = make_set(4, 6, 8, seed=18, name="up")
        down = make_set(4, 8, 6, seed=18, name="down")
        x_np = np.random.default_rng(18).normal(size=(2, 3, 6)).astype(np.float32)
        delta = 0.95
        bank0 = np.full(4, 0.2, dtype=np.float32)

        mb = self._mb(seed=18, delta=delta)
        mb.bank = bank0.copy()
        tsum(fused_ffn_forward(Tensor(x_np), up, down,
                               mb.step_weights(Tensor(x_np), True))).backward()
        assert mb.router.weight.grad is not None and np.any(mb.router.weight.grad != 0)

        up64 = ExpertAffine("u", 4, 6, 8, ArraySource("f64", 18))
        down64 = ExpertAffine("d", 4, 8, 6, ArraySource("f64", 18))
        up64.weight.data = up.weight.data.astype(np.float64)
        down64.weight.data = down.weight.data.astype(np.float64)
        bias0 = mb.router.bias.data.astype(np.float64)

        def f(wr):
            router64 = Router("r", 6, 4, ArraySource("f64", 0))
            router64.weight.data = wr
            router64.bias.data = bias0
            fixed = MemoryFusion("m", router64, delta, ArraySource("f64"))
            fixed.bank = bank0.astype(np.float64)
            w = fixed.step_weights(Tensor(x_np.astype(np.float64)), training=True)
            return float(tsum(fused_ffn_forward(Tensor(x_np.astype(np.float64)),
                                                up64, down64, w)).data)

        num = numeric_gradient(f, [mb.router.weight.data.astype(np.float64)], 0, 1e-3)
        assert max_rel_err(mb.router.weight.grad, num) < 1e-4

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError, match="momentum"):
            self._mb(delta=1.0)


class TestVarianceDemo:
    def test_single_model_variance_is_sigma_squared(self):
        rep = variance_reduction_demo(k=1, sigma=1.0, trials=100_000, seed=1)
        assert abs(rep.empirical_var - 1.0) < 0.05

    def test_predicted_quarter_for_four_experts(self):
        rep = variance_reduction_demo(k=4, sigma=1.0, trials=10, seed=0)
        assert rep.predicted_var == 0.25

    def test_monte_carlo_within_band_and_bias_preserved(self):
        b = 0.7
        rep = variance_reduction_demo(k=4, sigma=1.0, trials=100_000, seed=2, bias=b)
        assert abs(rep.empirical_var - 0.25) / 0.25 < 0.05
        assert abs(rep.empirical_mean - b) < 3.0 / np.sqrt(4 * 100_000)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            variance_reduction_demo(k=0, sigma=1.0, trials=10)
