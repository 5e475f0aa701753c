import numpy as np
import pytest

from exfusion.moe import Router, route, topk_moe_forward, topk_select
from exfusion.params import ArraySource, ExpertAffine
from exfusion.tensor import Tensor, add, gelu, matmul, tsum

from oracles import max_rel_err, numeric_gradient


def make_layer(n=4, dim=6, hidden=12, seed=0, dtype="f32", replicate=False, gate_bias=None):
    up = ExpertAffine("up", n, dim, hidden, ArraySource(dtype, seed), replicate=replicate)
    down = ExpertAffine("down", n, hidden, dim, ArraySource(dtype, seed), replicate=replicate)
    router = Router("router", dim, n, ArraySource(dtype, seed))
    if gate_bias is not None:
        router.weight.data = np.zeros_like(router.weight.data)
        router.bias.data = np.asarray(gate_bias, dtype=router.bias.data.dtype)
    return up, down, router


def expert_ffn(x, up, down, i):
    h = gelu(add(matmul(x, Tensor(up.weight.data[i])), Tensor(up.bias.data[i])))
    return add(matmul(h, Tensor(down.weight.data[i])), Tensor(down.bias.data[i]))


class TestRoute:
    def test_zero_router_uniform(self):
        _, _, router = make_layer(gate_bias=np.zeros(4))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 6)).astype(np.float32))
        np.testing.assert_allclose(route(x, router).data, 0.25, atol=1e-7)

    def test_single_expert_gate_is_one(self):
        up, down, router = make_layer(n=1)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 6)).astype(np.float32))
        np.testing.assert_array_equal(route(x, router).data, 1.0)

    def test_rows_sum_to_one(self):
        _, _, router = make_layer(seed=3)
        x = Tensor(np.random.default_rng(2).normal(size=(4, 5, 6)).astype(np.float32) * 3)
        g = route(x, router).data
        np.testing.assert_allclose(g.sum(axis=-1), 1.0, atol=1e-6)


class TestTopKSelect:
    def test_exactly_k_distinct(self):
        rng = np.random.default_rng(0)
        gates = rng.random((50, 8)).astype(np.float32)
        for k in (1, 3, 8):
            sel = topk_select(gates, k)
            assert sel.shape == (50, k)
            assert all(len(set(row)) == k for row in sel)

    def test_tie_breaks_to_lowest_index(self):
        gates = np.array([[0.3, 0.3, 0.4, 0.0], [0.25, 0.25, 0.25, 0.25]])
        np.testing.assert_array_equal(topk_select(gates, 2), [[2, 0], [0, 1]])

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            topk_select(np.ones((2, 4)), 0)
        with pytest.raises(ValueError):
            topk_select(np.ones((2, 4)), 5)


class TestTopKForward:
    def test_single_expert_pick_scales_output(self):
        # gate fixed at [0.1, 0.6, 0.2, 0.1] for every token => 0.6 * expert 1
        g = np.log(np.array([0.1, 0.6, 0.2, 0.1]))
        up, down, router = make_layer(gate_bias=g)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 6)).astype(np.float32))
        out = topk_moe_forward(x, up, down, router, k=1)
        want = 0.6 * expert_ffn(x, up, down, 1).data
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-6)

    def test_k_equals_n_is_full_weighted_sum(self):
        up, down, router = make_layer(seed=5)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 4, 6)).astype(np.float32))
        out = topk_moe_forward(x, up, down, router, k=4)
        gates = route(x, router).data
        want = np.zeros_like(out.data)
        for i in range(4):
            want += gates[..., i:i + 1] * expert_ffn(x, up, down, i).data
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_identical_experts_k1_takes_max_gate(self):
        up, down, router = make_layer(seed=6, replicate=True)
        x = Tensor(np.random.default_rng(5).normal(size=(3, 2, 6)).astype(np.float32))
        out = topk_moe_forward(x, up, down, router, k=1)
        gates = route(x, router).data
        want = gates.max(axis=-1, keepdims=True) * expert_ffn(x, up, down, 0).data
        np.testing.assert_allclose(out.data, want, atol=1e-6)

    def test_identical_experts_full_k_matches_plain_ffn(self):
        up, down, router = make_layer(seed=7, replicate=True)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 3, 6)).astype(np.float32))
        out = topk_moe_forward(x, up, down, router, k=4)
        np.testing.assert_allclose(out.data, expert_ffn(x, up, down, 0).data, atol=1e-5)


class TestTopKGradients:
    def _setup(self, dtype):
        # bias margins keep the selection stable under finite-difference nudges
        up, down, router = make_layer(n=3, dim=4, hidden=6, seed=8, dtype=dtype,
                                      gate_bias=[2.0, 0.0, -2.0])
        router.weight.data = (0.01 * np.random.default_rng(7).normal(
            size=router.weight.data.shape)).astype(router.weight.data.dtype)
        x = np.random.default_rng(8).normal(size=(2, 3, 4)) * 0.5
        return up, down, router, x

    def test_grads_match_finite_differences(self):
        up, down, router, x = self._setup("f32")
        xt = Tensor(x.astype(np.float32))
        loss = tsum(topk_moe_forward(xt, up, down, router, k=2))
        loss.backward()

        params = [up.weight, up.bias, down.weight, down.bias, router.weight, router.bias]
        arrays64 = [p.data.astype(np.float64) for p in params]

        def f(*arrs):
            u = ExpertAffine("u", 3, 4, 6, ArraySource("f64", 0))
            d = ExpertAffine("d", 3, 6, 4, ArraySource("f64", 0))
            r = Router("r", 4, 3, ArraySource("f64", 0))
            for tgt, src in zip([u.weight, u.bias, d.weight, d.bias, r.weight, r.bias], arrs):
                tgt.data = src
            return float(topk_moe_forward(Tensor(x), u, d, r, k=2).sum().data)

        for i, p in enumerate(params):
            num = numeric_gradient(f, arrays64, i, 1e-3)
            err = max_rel_err(p.grad, num)
            assert err < 1e-4, f"param {i}: rel err {err:.2e}"

    def test_unselected_expert_gets_zero_grad(self):
        # expert 2 has a -2 margin and is never in the top-2
        up, down, router, x = self._setup("f32")
        xt = Tensor(x.astype(np.float32))
        tsum(topk_moe_forward(xt, up, down, router, k=2)).backward()
        assert np.all(up.weight.grad[2] == 0)
        assert np.all(down.weight.grad[2] == 0)
        assert np.any(up.weight.grad[0] != 0)
