import math
import re

import numpy as np
import pytest
import scipy.special
from scipy.special import erf

from exfusion import tensor as T
from exfusion.tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    combine,
    cross_entropy,
    embedding,
    gather_rows,
    gelu,
    index_first,
    index_last,
    layernorm,
    matmul,
    mul,
    no_grad,
    reshape,
    scale,
    scatter_rows,
    softmax,
    tmean,
    transpose,
    tsum,
)

from oracles import (
    affine_composite,
    attention_composite,
    layernorm_reference,
    max_rel_err,
    numeric_gradient,
    sum_to_shape,
    tmean_chain,
)

F32_TOL = 1e-4
F64_TOL = 1e-8


def f32(values):
    return np.array(values, dtype=np.float32)


def _fd_step(dtype):
    return 1e-3 if dtype == "f32" else 1e-5


def check_grads(build_loss, arrays, dtype, tol=None, floor=1.0):
    """Compare analytic grads against central differences for every input.

    ``build_loss`` maps a list of Tensors to a scalar Tensor. The numeric
    side re-evaluates the same forward at float64 so the difference
    quotient itself does not drown in f32 rounding noise; the analytic side
    runs at the dtype under test.
    """
    tol = tol or (F32_TOL if dtype == "f32" else F64_TOL)
    ts = [Tensor(a.astype(T.as_np_dtype(dtype)), requires_grad=True) for a in arrays]
    build_loss(ts).backward()

    def f64_loss(*arrs):
        ts64 = [Tensor(a.astype(np.float64), requires_grad=False) for a in arrs]
        return float(build_loss(ts64).data)

    arrays64 = [a.astype(np.float64) for a in arrays]
    h = _fd_step(dtype)
    for i, t in enumerate(ts):
        assert t.grad is not None, f"input {i} missing grad"
        num = numeric_gradient(f64_loss, arrays64, i, h)
        err = max_rel_err(t.grad, num, floor=floor)
        assert err < tol, f"input {i}: rel err {err:.3e} >= {tol}"


# ---------------------------------------------------------------------------
# forward behavior
# ---------------------------------------------------------------------------


class TestForward:
    def test_matmul_identity(self):
        a = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        np.testing.assert_array_equal(matmul(a, b).data, b.data)

    def test_matmul_projector(self):
        p = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))
        m = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32))
        np.testing.assert_array_equal(matmul(p, m).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matmul_shape_error_mentions_both_shapes(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(a, b)

    def test_add_and_scale(self):
        np.testing.assert_array_equal(
            add(Tensor(f32([1.0, 2.0])), Tensor(f32([3.0, 4.0]))).data, [4.0, 6.0]
        )
        np.testing.assert_array_equal(scale(Tensor(f32([1.0, 2.0])), 0.5).data, [0.5, 1.0])

    def test_broadcast_bias_add(self):
        z = Tensor(np.zeros((2, 3), dtype=np.float32))
        row = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        out = add(z, row)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_add_rejects_non_broadcastable(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(TypeError):
            add(Tensor(np.array([1.0], dtype=np.float32)), Tensor(np.array([1.0])))

    def test_gelu_zero_and_asymptote(self):
        assert gelu(Tensor(f32([0.0]))).data[0] == 0.0
        x = 10.0
        assert abs(gelu(Tensor(np.array([x]))).data[0] - x) < 1e-6

    def test_gelu_matches_erf_form(self):
        x = np.linspace(-4, 4, 41)
        got = gelu(Tensor(x)).data
        want = np.array([v * 0.5 * (1 + math.erf(v / math.sqrt(2))) for v in x])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_softmax_uniform(self):
        np.testing.assert_allclose(
            softmax(Tensor(f32([0.0, 0.0, 0.0, 0.0]))).data, [0.25] * 4, atol=1e-7
        )

    def test_softmax_shift_invariance(self):
        for c in (-37.0, 0.0, 11.5):
            out = softmax(Tensor(np.array([c, c + math.log(2.0)]))).data
            np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 16)).astype(np.float32) * 5)
        s = softmax(x).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    def test_layernorm_constant_row_zeros(self):
        x = Tensor(np.full((3, 5), 2.5, dtype=np.float32))
        g = Tensor(np.ones(5, dtype=np.float32))
        b = Tensor(np.zeros(5, dtype=np.float32))
        np.testing.assert_allclose(layernorm(x, g, b).data, 0.0, atol=1e-6)

    def test_layernorm_row_mean_is_bias(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
        g = Tensor(np.ones(8, dtype=np.float32))
        b = Tensor(np.full(8, 0.7, dtype=np.float32))
        out = layernorm(x, g, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.7, atol=1e-6)

    def test_layernorm_prenorm_rows_centered(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(6, 16)).astype(np.float32) * 3)
        g = Tensor(np.ones(16, dtype=np.float32))
        b = Tensor(np.zeros(16, dtype=np.float32))
        out = layernorm(x, g, b).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4), dtype=np.float32))
        loss = cross_entropy(logits, np.array([0, 1, 3]))
        assert abs(float(loss.data) - math.log(4)) < 1e-6

    def test_cross_entropy_confident(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0, 0.0]], dtype=np.float32))
        assert float(cross_entropy(logits, np.array([0])).data) < 1e-3

    def test_cross_entropy_rejects_bad_target(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(logits, np.array([0, 3]))

    def test_embedding_out_of_vocab(self):
        table = Tensor(np.zeros((5, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="token id"):
            embedding(table, np.array([[0, 5]]))

    def test_combine_weighted_sum(self):
        stacked = Tensor(np.stack([np.eye(2), 3 * np.eye(2)]).astype(np.float32))
        w = Tensor(np.array([0.5, 0.5], dtype=np.float32))
        np.testing.assert_allclose(combine(w, stacked).data, 2 * np.eye(2), atol=1e-7)

    def test_combine_length_mismatch(self):
        with pytest.raises(ShapeError):
            combine(Tensor(np.ones(3, dtype=np.float32)), Tensor(np.ones((2, 4), dtype=np.float32)))

    def test_nonfinite_leaf_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(f32([1.0, float("nan")]))

    @pytest.mark.parametrize("data, named", [
        ([1.0, 2.0], "list of dtype None"),
        (np.arange(3), "ndarray of dtype int64"),
        (np.float64(1.5), "float64 of dtype float64"),
        (np.ones(2, dtype=np.float16), "ndarray of dtype float16"),
    ], ids=["list", "int_array", "f64_scalar", "f16_array"])
    def test_leaf_takes_only_a_float_ndarray(self, data, named):
        with pytest.raises(TypeError, match=f"float32 or float64 ndarray; got {named}$"):
            Tensor(data)


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


class TestBackward:
    def test_sum_grad_is_ones(self):
        w = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        tsum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3), dtype=np.float32))

    def test_half_square_grad_is_w(self):
        w = Tensor(np.array([1.5, -2.0, 0.25], dtype=np.float32), requires_grad=True)
        scale(tsum(mul(w, w)), 0.5).backward()
        np.testing.assert_allclose(w.grad, w.data, atol=1e-7)

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            mul(w, w).backward()

    def test_nonfinite_loss_rejected(self):
        w = Tensor(np.array([1e38], dtype=np.float32), requires_grad=True)
        with np.errstate(over="ignore"):
            loss = tsum(mul(mul(w, w), mul(w, w)))  # overflows to inf in f32
        with pytest.raises(NonFiniteError):
            loss.backward()

    def test_accumulation_without_reset(self):
        w = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        tsum(w).backward()
        tsum(w).backward()
        np.testing.assert_array_equal(w.grad, 2 * np.ones(4, dtype=np.float32))
        w.grad = None
        tsum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones(4, dtype=np.float32))

    def test_gradients_land_only_on_leaves(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        h = matmul(x, w)
        y = gelu(h)
        sq = mul(y, y)
        loss = tsum(sq)
        loss.backward()
        assert all(t.grad is None for t in (h, y, sq, loss))
        first = x.grad.copy(), w.grad.copy()
        loss.backward()  # the graph is intact: a second pass adds the same leaf gradients
        assert all(t.grad is None for t in (h, y, sq, loss))
        for leaf, g in zip((x, w), first):
            assert leaf.grad.tobytes() == (g + g).tobytes()

    def test_reused_node_fans_in(self):
        w = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        y = mul(w, w)  # w used twice
        tsum(y).backward()
        np.testing.assert_allclose(w.grad, [6.0], atol=1e-6)

    def test_no_grad_blocks_recording(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = tsum(mul(w, w))
        assert not y.requires_grad and y._vjp is None

    def test_tape_order_is_topological_and_unique(self):
        w = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        h = add(matmul(w, w), b)
        loss = tsum(mul(h, h))
        order = T._linearize(loss)
        pos = {id(t): i for i, t in enumerate(order)}
        assert len(pos) == len(order), "a node appears twice in the tape"
        for node in order:
            for p in node._parents:
                assert pos[id(p)] < pos[id(node)], "input recorded after its consumer"

    def test_broadcast_grad_sums_over_rows(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        tsum(add(x, b)).backward()
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(16, 16)).astype(np.float32)
        b = rng.normal(size=(16, 16)).astype(np.float32)

        def run():
            ta = Tensor(a.copy(), requires_grad=True)
            tb = Tensor(b.copy(), requires_grad=True)
            loss = tsum(gelu(matmul(ta, tb)))
            loss.backward()
            return loss.data.copy(), ta.grad.copy(), tb.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert ga1.tobytes() == ga2.tobytes()
        assert gb1.tobytes() == gb2.tobytes()


# ---------------------------------------------------------------------------
# GELU: float32 rational erf against the float64 scipy reference
# ---------------------------------------------------------------------------


def _gelu64_ref(x):
    x = np.asarray(x, dtype=np.float64)
    return x * (0.5 * (1.0 + erf(x * T._INV_SQRT2)))


class TestGelu:
    def test_f32_error_bound(self):
        edge = np.float32(4.0 * math.sqrt(2.0))  # where the erf argument is clamped
        near_edge = [edge]
        for direction in (np.inf, -np.inf):
            v = edge
            for _ in range(8):
                v = np.nextafter(v, np.float32(direction))
                near_edge.append(v)
        near_edge = np.array(near_edge, dtype=np.float32)
        x = np.concatenate([
            np.linspace(-12, 12, 480_001).astype(np.float32),
            near_edge, -near_edge,
            np.array([1e4, -1e4], dtype=np.float32),
        ])
        got = gelu(Tensor(x)).data
        assert got.dtype == np.float32
        err = np.abs(got.astype(np.float64) - _gelu64_ref(x))
        bound = 5e-7 * np.maximum(1.0, np.abs(x.astype(np.float64)))
        assert (err <= bound).all(), f"worst x={x[np.argmax(err / bound)]}, err={err.max():.3e}"

    def test_f32_bits_independent_of_layout_and_block_offset(self):
        rng = np.random.default_rng(0)
        x = (rng.normal(size=(8, 16, 64)) * 3).astype(np.float32)
        base = gelu(Tensor(x)).data
        view = x.transpose(2, 0, 1)
        assert not view.flags.c_contiguous
        assert gelu(Tensor(view)).data.tobytes() == np.ascontiguousarray(base.transpose(2, 0, 1)).tobytes()

        n = 2 * T._GELU_BLOCK + 1234  # not a multiple of the block
        y = (rng.normal(size=n) * 4).astype(np.float32)
        full = gelu(Tensor(y)).data
        for offset in (1, 777, T._GELU_BLOCK - 5):
            assert gelu(Tensor(y[offset:])).data.tobytes() == full[offset:].tobytes()
        assert gelu(Tensor(y[-3:].copy())).data.tobytes() == full[-3:].tobytes()

    def test_f32_no_grad_output_equals_recorded(self):
        x = Tensor((np.random.default_rng(1).normal(size=(3, 50_000)) * 3).astype(np.float32),
                   requires_grad=True)
        recorded = gelu(x)
        with no_grad():
            evaluated = gelu(x)
        assert recorded._vjp is not None and evaluated._vjp is None
        assert recorded.data.tobytes() == evaluated.data.tobytes()

    def test_f32_vjp_matches_formula(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([np.linspace(-12, 12, 150_001), rng.normal(size=20_000) * 3])
        x = x.astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        got = gelu(Tensor(x, requires_grad=True))._vjp(g)[0]
        assert got.dtype == np.float32
        x64, g64 = x.astype(np.float64), g.astype(np.float64)
        deriv = 0.5 * (1.0 + erf(x64 * T._INV_SQRT2)) + x64 * np.exp(-0.5 * x64 * x64) * T._INV_SQRT2PI
        err = np.abs(got - g64 * deriv)
        assert (err <= 1e-6 * np.abs(g64) * np.maximum(1.0, np.abs(deriv))).all()

    def test_f64_forward_and_vjp_are_the_scipy_formula(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(size=10_000) * 3, [0.0, -40.0, 40.0]])
        g = rng.normal(size=x.shape)
        y = gelu(Tensor(x, requires_grad=True))
        cdf = 0.5 * (1.0 + erf(x * T._INV_SQRT2))
        assert y.data.tobytes() == (x * cdf).tobytes()
        pdf = np.exp(-0.5 * x * x) * T._INV_SQRT2PI
        assert y._vjp(g)[0].tobytes() == (g * (cdf + x * pdf)).tobytes()

    def test_scipy_erf_sees_only_float64(self, monkeypatch):
        seen = []
        monkeypatch.setattr(scipy.special, "erf", lambda z: seen.append(z.dtype) or erf(z))
        x = Tensor(np.linspace(-3, 3, 11, dtype=np.float32), requires_grad=True)
        tsum(gelu(x)).backward()
        assert seen == []
        gelu(Tensor(np.linspace(-3, 3, 11)))
        assert seen == [np.dtype(np.float64)]


# ---------------------------------------------------------------------------
# fused primitives: byte-equal to the composites they replace
# ---------------------------------------------------------------------------


def _same_bytes(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _run(op, arrays, upstream):
    """Forward ``op`` on fresh leaves, backward through <out, upstream>; (out, grads)."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    tsum(mul(out, Tensor(upstream))).backward()
    return out, [t.grad for t in leaves]


def _assert_byte_equal(fused, reference, arrays, upstream):
    out, grads = _run(fused, arrays, upstream)
    ref_out, ref_grads = _run(reference, arrays, upstream)
    assert _same_bytes(out.data, ref_out.data), "forward"
    for i, (g, r) in enumerate(zip(grads, ref_grads)):
        assert _same_bytes(g, r), f"gradient of input {i}"


# (b, l, d, heads) incl. l=1 and heads=1; at head dim 32 a different operand
# layout in a matmul (say a contiguous k transpose) changes the bits
ATTN_SHAPES = [(2, 5, 8, 2), (2, 1, 8, 2), (3, 4, 6, 1), (1, 7, 12, 3), (2, 16, 64, 2)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
class TestFusedPrimitives:
    @pytest.mark.parametrize("layout", ["2d", "3d", "4d", "1d", "transposed_3d",
                                        "transposed_2d", "transposed_weight", "wide"])
    def test_affine_matches_composite(self, dtype, layout):
        rng = np.random.default_rng(7)
        d_in, d_out = (64, 48) if layout == "wide" else (6, 5)
        x = {"wide": lambda: rng.normal(size=(3, 16, d_in)),
             "2d": lambda: rng.normal(size=(7, d_in)),
             "3d": lambda: rng.normal(size=(2, 5, d_in)),
             "4d": lambda: rng.normal(size=(2, 3, 2, d_in)),
             "1d": lambda: rng.normal(size=(d_in,)),
             "transposed_3d": lambda: rng.normal(size=(5, 2, d_in)).transpose(1, 0, 2),
             "transposed_2d": lambda: rng.normal(size=(d_in, 7)).T,
             "transposed_weight": lambda: rng.normal(size=(4, d_in))}[layout]().astype(dtype)
        w = rng.normal(size=(d_in, d_out)).astype(dtype)
        if layout == "transposed_weight":
            w = np.ascontiguousarray(w.T).T
        b = rng.normal(size=d_out).astype(dtype)
        u = rng.normal(size=x.shape[:-1] + (d_out,)).astype(dtype)
        _assert_byte_equal(T.affine, affine_composite, [x, w, b], u)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "causal"])
    @pytest.mark.parametrize("shape", ATTN_SHAPES, ids=lambda s: "b{}l{}d{}h{}".format(*s))
    def test_attention_matches_composite(self, dtype, shape, masked):
        b, l, d, heads = shape
        rng = np.random.default_rng(sum(shape))
        q, k, v = (rng.normal(size=(b, l, d)).astype(dtype) for _ in range(3))
        mask = np.triu(np.full((l, l), -1e9), k=1).astype(dtype) if masked else None
        u = rng.normal(size=(b, l, d)).astype(dtype)

        def fused(*qkv):
            return T.attention(*qkv, heads, mask)

        def reference(*qkv):
            return attention_composite(*qkv, heads, mask)

        _assert_byte_equal(fused, reference, [q, k, v], u)

    def test_attention_non_contiguous_inputs(self, dtype):
        rng = np.random.default_rng(11)
        b, l, d, heads = 2, 5, 8, 2
        q = rng.normal(size=(l, b, d)).astype(dtype).transpose(1, 0, 2)
        k = rng.normal(size=(b, d, l)).astype(dtype).transpose(0, 2, 1)
        v = rng.normal(size=(b, l, 2 * d)).astype(dtype)[..., ::2]
        assert not any(a.flags.c_contiguous for a in (q, k, v))
        mask = np.triu(np.full((l, l), -1e9), k=1).astype(dtype)
        u = rng.normal(size=(b, l, d)).astype(dtype)
        _assert_byte_equal(lambda *t: T.attention(*t, heads, mask),
                           lambda *t: attention_composite(*t, heads, mask), [q, k, v], u)

    @pytest.mark.parametrize("layout", ["2d", "3d", "permuted", "transposed", "strided"])
    def test_layernorm_matches_reference(self, dtype, layout):
        rng = np.random.default_rng(13)
        d = 40  # past numpy's 8-wide pairwise-sum unrolling, so reduction order shows
        x = {"2d": lambda: rng.normal(size=(6, d)),
             "3d": lambda: rng.normal(size=(3, 5, d)),
             "permuted": lambda: rng.normal(size=(5, 3, d)).transpose(1, 0, 2),
             "transposed": lambda: rng.normal(size=(d, 5, 3)).transpose(2, 1, 0),
             "strided": lambda: rng.normal(size=(3, 5, 2 * d))[..., ::2]}[layout]()
        x = (x * 2.0 + 0.5).astype(dtype)
        gain = (rng.normal(size=d) * 0.5 + 1.0).astype(dtype)
        bias = (rng.normal(size=d) * 0.1).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        out, grads = _run(layernorm, [x, gain, bias], g)
        want = layernorm_reference(x, gain, bias, g)
        assert _same_bytes(out.data, want[0]), "forward"
        for i, (got, ref) in enumerate(zip(grads, want[1:])):
            assert _same_bytes(got, ref), f"gradient of input {i}"

    @pytest.mark.parametrize("counts", [(3, 0, 4), (7, 0, 0), (0, 0, 0), (1, 1, 1)],
                             ids=["idle_middle", "one_group", "no_rows", "single_rows"])
    def test_grouped_affine_matches_affine_per_segment(self, dtype, counts):
        rng = np.random.default_rng(19)
        n, d_in, d_out = len(counts), 6, 5
        x = rng.normal(size=(sum(counts), d_in)).astype(dtype)
        w = rng.normal(size=(n, d_in, d_out)).astype(dtype)
        b = rng.normal(size=(n, d_out)).astype(dtype)
        g = rng.normal(size=(sum(counts), d_out)).astype(dtype)
        out, (gx, gw, gb) = _run(lambda *t: T.grouped_affine(*t, counts), [x, w, b], g)
        start = 0
        for i, c in enumerate(counts):
            s = slice(start, start + c)
            start += c
            if not c:
                assert not gw[i].any() and not gb[i].any()
                continue
            want, (wx, ww, wb) = _run(T.affine, [x[s], w[i], b[i]], g[s])
            assert _same_bytes(out.data[s], want.data), f"output of group {i}"
            assert _same_bytes(gx[s], wx) and _same_bytes(gw[i], ww) and _same_bytes(gb[i], wb)

    def test_grouped_affine_shape_checks(self, dtype):
        x = Tensor(np.zeros((5, 4), dtype=dtype))
        w = Tensor(np.zeros((2, 4, 3), dtype=dtype))
        b = Tensor(np.zeros((2, 3), dtype=dtype))
        with pytest.raises(ShapeError, match="weight"):
            T.grouped_affine(x, Tensor(np.zeros((2, 3, 3), dtype=dtype)), b, (2, 3))
        with pytest.raises(ShapeError, match="bias"):
            T.grouped_affine(x, w, Tensor(np.zeros((3, 3), dtype=dtype)), (2, 3))
        for counts in [(2, 2), (6, -1), (5,), (1, 2, 2), (2.0, 3.0)]:
            with pytest.raises(ShapeError, match="segment"):
                T.grouped_affine(x, w, b, counts)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dispatch_and_collect_rows_match_add_at(self, dtype, k):
        rng = np.random.default_rng(23 + k)
        t, d = 7, 5
        slots = np.sort(rng.permutation(t * k).reshape(t, k), axis=1)
        rows = np.empty(t * k, dtype=np.intp)
        rows[slots] = np.arange(t)[:, None]  # the source row of each dispatched row
        a = rng.normal(size=(t, d)).astype(dtype)
        v = rng.normal(size=(t * k, d)).astype(dtype)
        ga = rng.normal(size=(t * k, d)).astype(dtype)
        gv = rng.normal(size=(t, d)).astype(dtype)
        _assert_byte_equal(lambda x: T.dispatch_rows(x, slots),
                           lambda x: gather_rows(x, rows), [a], ga)
        _assert_byte_equal(lambda x: T.collect_rows(x, slots),
                           lambda x: scatter_rows(x, rows, t, unique=False), [v], gv)

    def test_dispatch_and_collect_rows_checks(self, dtype):
        a = Tensor(np.zeros((3, 2), dtype=dtype))
        v = Tensor(np.zeros((6, 2), dtype=dtype))
        with pytest.raises(ShapeError, match="slots"):
            T.dispatch_rows(a, np.arange(6))
        with pytest.raises(ShapeError, match="slots"):
            T.dispatch_rows(a, np.arange(6).reshape(2, 3))
        with pytest.raises(ShapeError, match="slots"):
            T.collect_rows(v, np.arange(4).reshape(2, 2))
        with pytest.raises(ShapeError, match="integer"):
            T.dispatch_rows(a, np.arange(6.0).reshape(3, 2))
        for bad in ([[0, 1], [1, 2], [3, 4]], [[0, 1], [2, 3], [4, 6]], [[0, 1], [2, 3], [4, -1]]):
            with pytest.raises(ValueError, match="exactly once"):
                T.dispatch_rows(a, np.array(bad))
            with pytest.raises(ValueError, match="exactly once"):
                T.collect_rows(v, np.array(bad))

    @pytest.mark.parametrize("op", ["affine", "grouped_affine", "attention", "layernorm"])
    def test_one_node_parents_untouched_backward_repeatable(self, dtype, op):
        rng = np.random.default_rng(17)
        if op == "affine":
            arrays = [rng.normal(size=(2, 4, 6)), rng.normal(size=(6, 3)), rng.normal(size=3)]
            fn = T.affine
        elif op == "grouped_affine":
            arrays = [rng.normal(size=(8, 6)), rng.normal(size=(3, 6, 3)), rng.normal(size=(3, 3))]
            fn = lambda *t: T.grouped_affine(*t, (5, 0, 3))  # noqa: E731
        elif op == "attention":
            arrays = [rng.normal(size=(2, 4, 6)) for _ in range(3)]
            mask = np.triu(np.full((4, 4), -1e9), k=1).astype(dtype)
            fn = lambda *t: T.attention(*t, 2, mask)  # noqa: E731
        else:
            arrays = [rng.normal(size=(2, 4, 6)), rng.normal(size=6), rng.normal(size=6)]
            fn = layernorm
        arrays = [a.astype(dtype) for a in arrays]
        before = [a.copy() for a in arrays]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*leaves)
        assert out._parents == tuple(leaves)
        loss = tsum(mul(out, out))
        loss.backward()
        first = [t.grad.copy() for t in leaves]
        loss.backward()  # a second pass sees the same saved arrays
        for a, b, t, g in zip(arrays, before, leaves, first):
            assert a.tobytes() == b.tobytes()
            assert t.grad.tobytes() == (g + g).tobytes()

    def test_attention_shape_checks(self, dtype):
        q = Tensor(np.zeros((2, 3, 8), dtype=dtype))
        with pytest.raises(ShapeError, match="multiple"):
            T.attention(q, q, q, 3)
        with pytest.raises(ShapeError, match="mask"):
            T.attention(q, q, q, 2, np.zeros((4, 4), dtype=dtype))
        with pytest.raises(ShapeError, match="shape"):
            T.attention(q, q, Tensor(np.zeros((2, 4, 8), dtype=dtype)), 2)

    def test_affine_shape_checks(self, dtype):
        x = Tensor(np.zeros((2, 3, 4), dtype=dtype))
        w = Tensor(np.zeros((4, 5), dtype=dtype))
        with pytest.raises(ShapeError, match="weight"):
            T.affine(x, Tensor(np.zeros((3, 5), dtype=dtype)), Tensor(np.zeros(5, dtype=dtype)))
        with pytest.raises(ShapeError, match="bias"):
            T.affine(x, w, Tensor(np.zeros(4, dtype=dtype)))


# ---------------------------------------------------------------------------
# lean tape bookkeeping: the same bytes and errors as before
# ---------------------------------------------------------------------------

MEAN_AXES = [None, 0, 1, -1, (0, 2), (2, 0), (-1,), ()]
# (a, b): equal shapes, then shapes that broadcast either way round
BINARY_SHAPES = [((3, 4), (3, 4)), ((2, 3, 4), (2, 3, 4)), ((3, 4), (4,)), ((4,), (3, 4)),
                 ((2, 3, 4), (3, 1)), ((2, 1, 4), (1, 3, 1)), ((3, 4), ()), ((), (3, 4))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
class TestLeanBookkeeping:
    @pytest.mark.parametrize("keepdims", [False, True], ids=["dropdims", "keepdims"])
    @pytest.mark.parametrize("axis", MEAN_AXES, ids=str)
    def test_tmean_matches_the_sum_scale_chain(self, dtype, axis, keepdims):
        rng = np.random.default_rng(29)
        x = (rng.normal(size=(3, 5, 7)) * 2.0).astype(dtype)
        want = tmean_chain(Tensor(x), axis, keepdims).data
        upstream = rng.normal(size=np.shape(want)).astype(dtype)
        out, (grad,) = _run(lambda t: tmean(t, axis, keepdims), [x], upstream)
        ref, (ref_grad,) = _run(lambda t: tmean_chain(t, axis, keepdims), [x], upstream)
        assert type(out.data) is type(ref.data)
        assert _same_bytes(out.data, ref.data), "forward"
        assert _same_bytes(grad, ref_grad), "gradient"

    def test_tmean_is_one_tape_node(self, dtype):
        a = Tensor(np.ones((2, 3), dtype=dtype), requires_grad=True)
        for axis in (None, 1, (0, 1)):
            assert tmean(a, axis)._parents == (a,)

    @pytest.mark.parametrize("shapes", BINARY_SHAPES, ids=str)
    @pytest.mark.parametrize("op", [add, mul], ids=["add", "mul"])
    def test_add_mul_broadcast_is_the_materialised_operation(self, dtype, op, shapes):
        # with each operand copied out to the result shape, the shapes are equal;
        # the bytes must not depend on which path the op takes
        rng = np.random.default_rng(31)
        a, b = (rng.normal(size=s).astype(dtype) for s in shapes)
        shape = np.broadcast_shapes(*shapes)
        g = rng.normal(size=shape).astype(dtype)
        out, (ga, gb) = _run(op, [a, b], g)
        full = [np.broadcast_to(v, shape).copy() for v in (a, b)]
        ref, (gfa, gfb) = _run(op, full, g)
        assert _same_bytes(out.data, ref.data), "forward"
        assert _same_bytes(ga, sum_to_shape(gfa, a.shape)), "gradient of a"
        assert _same_bytes(gb, sum_to_shape(gfb, b.shape)), "gradient of b"

    @pytest.mark.parametrize("op, name", [(add, "add"), (mul, "mul"), (T.sub, "sub")])
    def test_shapes_that_do_not_broadcast_keep_their_error(self, dtype, op, name):
        a, b = Tensor(np.zeros((2, 3), dtype=dtype)), Tensor(np.zeros(4, dtype=dtype))
        text = f"{name}: shapes (2, 3) and (4,) are not broadcastable"
        with pytest.raises(ShapeError, match=re.escape(text)):
            op(a, b)

    def test_combine_skips_the_unused_weight_gradient(self, dtype):
        rng = np.random.default_rng(37)
        w, stack = rng.normal(size=3).astype(dtype), rng.normal(size=(3, 4, 5)).astype(dtype)
        g = rng.normal(size=(4, 5)).astype(dtype)
        experts = Tensor(stack, requires_grad=True)
        frozen = combine(Tensor(w), experts)._vjp(g)
        learned = combine(Tensor(w, requires_grad=True), experts)._vjp(g)
        assert frozen[0] is None
        assert learned[0].tobytes() == (stack.reshape(3, -1) @ g.ravel()).tobytes()
        assert frozen[1].tobytes() == learned[1].tobytes() == np.multiply.outer(w, g).tobytes()


class TestEmptyInputs:
    def test_row_max_and_softmax_refuse_zero_width_rows(self):
        with pytest.raises(ShapeError, match="zero-width"):
            T._row_max(np.zeros((3, 0)))
        for shape in [(3, 0), (2, 3, 0)]:
            with pytest.raises(ShapeError, match="empty axis"):
                softmax(Tensor(np.zeros(shape)))
        assert softmax(Tensor(np.zeros((0, 3)))).shape == (0, 3)  # no rows is fine

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_cross_entropy_refuses_no_rows_or_no_classes(self, shape):
        with pytest.raises(ShapeError, match="at least one row and one class"):
            cross_entropy(Tensor(np.zeros(shape)), np.zeros(shape[0], dtype=int))


# ---------------------------------------------------------------------------
# row max and layernorm means: byte-equal to the numpy calls they replace
# ---------------------------------------------------------------------------


def _assert_unchanged_by(monkeypatch, helper, old, op, arrays, upstream):
    """``op`` gives the same bytes, forward and vjp, with ``T.<helper>`` set to ``old``."""
    new_out, new_grads = _run(op, arrays, upstream)
    monkeypatch.setattr(T, helper, old)
    old_out, old_grads = _run(op, arrays, upstream)
    assert _same_bytes(new_out.data, old_out.data), "forward"
    for i, (g, r) in enumerate(zip(new_grads, old_grads)):
        assert _same_bytes(g, r), f"gradient of input {i}"


def _old_row_max(x):
    return x.max(axis=-1, keepdims=True)


def _zero_max_rows(rng, shape, dtype):
    """Negative rows; by turns the max is +0 tied with -0 (both orders), a lone
    -0, or one entry left in a row masked to -1e9."""
    x = -np.abs(rng.normal(size=shape)) - 0.1
    rows = x.reshape(-1, shape[-1])
    rows[0::4, :2] = (0.0, -0.0)
    rows[1::4, :2] = (-0.0, 0.0)
    rows[2::4, -1] = -0.0
    rows[3::4, 1:] = -1e9
    return x.astype(dtype)


# charlm-small scores, the charlm-small logits, rows past one transposed block, the
# verify-fd scores, and the row counts either side of where numpy's reduce takes over
ROW_SHAPES = [(16, 4, 32, 32), (512, 65), (2100, 40), (5, 2), (2, 2, 4, 4), (63, 8), (64, 8)]
# layernorm inputs of the charlm-small, cluster-wide and verify-fd workloads, and
# a width that is not a power of two, where 1/n is inexact
NORM_SHAPES = [(16, 32, 32), (64, 32, 128), (2, 4, 8), (6, 40)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
class TestRowMaxAndMeans:
    @pytest.mark.parametrize("shape", ROW_SHAPES, ids=str)
    def test_row_max_is_numpy_max(self, dtype, shape):
        x = _zero_max_rows(np.random.default_rng(1), shape, dtype)
        got, want = T._row_max(x), _old_row_max(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()  # == holds for a +0/-0 tie

    @pytest.mark.parametrize("shape", ROW_SHAPES, ids=str)
    def test_softmax_unchanged(self, monkeypatch, dtype, shape):
        rng = np.random.default_rng(2)
        x = _zero_max_rows(rng, shape, dtype)
        _assert_unchanged_by(monkeypatch, "_row_max", _old_row_max, softmax, [x],
                             rng.normal(size=shape).astype(dtype))

    @pytest.mark.parametrize("c", [65, 8])
    def test_cross_entropy_unchanged(self, monkeypatch, dtype, c):
        rng = np.random.default_rng(3)
        x = _zero_max_rows(rng, (512, c), dtype)
        targets = rng.integers(0, c, size=512)
        targets[:3] = (0, 0, c - 1)  # the tied +0, the tied -0 and the lone -0
        _assert_unchanged_by(monkeypatch, "_row_max", _old_row_max,
                             lambda t: cross_entropy(t, targets), [x], np.asarray(1.5, dtype))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "causal"])
    def test_attention_unchanged(self, monkeypatch, dtype, masked):
        b, l, d, heads = 16, 32, 32, 4
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(size=(b, l, d)).astype(dtype) for _ in range(3))
        q[:, ::3] = 0.0  # rows of equal scores, all with max 0
        mask = np.triu(np.full((l, l), -1e9), k=1).astype(dtype) if masked else None
        _assert_unchanged_by(monkeypatch, "_row_max", _old_row_max,
                             lambda *t: T.attention(*t, heads, mask), [q, k, v],
                             rng.normal(size=(b, l, d)).astype(dtype))

    @pytest.mark.parametrize("shape", NORM_SHAPES, ids=str)
    def test_layernorm_means_unchanged(self, monkeypatch, dtype, shape):
        rng = np.random.default_rng(5)
        d = shape[-1]
        x = (rng.normal(size=shape) * 2.0 + 0.5).astype(dtype)
        gain = (rng.normal(size=d) * 0.5 + 1.0).astype(dtype)
        bias = (rng.normal(size=d) * 0.1).astype(dtype)
        _assert_unchanged_by(monkeypatch, "_mean_last", lambda a: a.mean(axis=-1, keepdims=True),
                             layernorm, [x, gain, bias], rng.normal(size=shape).astype(dtype))


# ---------------------------------------------------------------------------
# gradient checks vs finite differences, both dtypes, many seeds
# ---------------------------------------------------------------------------

SEEDS = range(100)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
class TestGradChecks:
    def test_matmul(self, dtype):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 4)) * 0.5
            b = rng.normal(size=(4, 2)) * 0.5
            check_grads(lambda ts: tsum(matmul(ts[0], ts[1])), [a, b], dtype)

    def test_matmul_batched_broadcast(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(2, 3, 4)) * 0.5
            b = rng.normal(size=(4, 5)) * 0.5
            check_grads(lambda ts: tsum(mul(matmul(ts[0], ts[1]), ts[2])),
                        [a, b, rng.normal(size=(2, 3, 5))], dtype)

    def test_add_mul_scale_broadcast(self, dtype):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3,))
            check_grads(
                lambda ts: tsum(scale(mul(add(ts[0], ts[1]), ts[0]), 0.3)), [a, b], dtype
            )

    def test_gelu(self, dtype):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(5, 3)) * 2.0
            check_grads(lambda ts: tsum(gelu(ts[0])), [x], dtype)

    def test_gelu_at_specific_point(self, dtype):
        check_grads(lambda ts: tsum(gelu(ts[0])), [np.array([0.7])], dtype)

    def test_softmax_vjp(self, dtype):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 6)) * 2.0
            u = rng.normal(size=(4, 6))
            uc = u.copy()
            check_grads(
                lambda ts: tsum(mul(softmax(ts[0]), Tensor(uc.astype(ts[0].data.dtype)))),
                [x],
                dtype,
            )

    def test_layernorm(self, dtype):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(3, 8)) * 1.5
            g = rng.normal(size=(8,)) * 0.5 + 1.0
            b = rng.normal(size=(8,)) * 0.1
            check_grads(lambda ts: tsum(layernorm(ts[0], ts[1], ts[2])), [x, g, b], dtype)

    def test_layernorm_3d(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(2, 3, 8)) * 1.5
            g = rng.normal(size=(8,)) * 0.5 + 1.0
            b = rng.normal(size=(8,)) * 0.1
            u = rng.normal(size=(2, 3, 8))
            check_grads(lambda ts: tsum(mul(layernorm(ts[0], ts[1], ts[2]),
                                            Tensor(u.astype(ts[0].data.dtype)))),
                        [x, g, b], dtype)

    def test_affine(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(2, 3, 4)) * 0.5
            w = rng.normal(size=(4, 5)) * 0.5
            b = rng.normal(size=(5,)) * 0.1
            u = rng.normal(size=(2, 3, 5))
            check_grads(lambda ts: tsum(mul(T.affine(ts[0], ts[1], ts[2]),
                                            Tensor(u.astype(ts[0].data.dtype)))),
                        [x, w, b], dtype)

    def test_grouped_affine(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(6, 4)) * 0.5
            w = rng.normal(size=(4, 4, 3)) * 0.5
            b = rng.normal(size=(4, 3)) * 0.1
            u = rng.normal(size=(6, 3))
            check_grads(lambda ts: tsum(mul(T.grouped_affine(ts[0], ts[1], ts[2], (2, 0, 3, 1)),
                                            Tensor(u.astype(ts[0].data.dtype)))),
                        [x, w, b], dtype)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "causal"])
    def test_attention(self, dtype, masked):
        mask = np.triu(np.full((4, 4), -1e9), k=1) if masked else None
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q, k, v = (rng.normal(size=(2, 4, 6)) for _ in range(3))
            u = rng.normal(size=(2, 4, 6))

            def loss(ts):
                m = None if mask is None else mask.astype(ts[0].data.dtype)
                return tsum(mul(T.attention(ts[0], ts[1], ts[2], 2, m),
                                Tensor(u.astype(ts[0].data.dtype))))

            check_grads(loss, [q, k, v], dtype)

    def test_cross_entropy(self, dtype):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 5)) * 2.0
            t = rng.integers(0, 5, size=4)
            check_grads(lambda ts: cross_entropy(ts[0], t), [x], dtype)

    def test_reshape_transpose_mean(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(2, 3, 4))
            check_grads(
                lambda ts: tmean(transpose(reshape(ts[0], (6, 4)), (1, 0))), [x], dtype
            )

    def test_gather_scatter_index(self, dtype):
        idx = np.array([2, 0, 3])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(5, 3))

            def loss(ts):
                g = gather_rows(ts[0], idx)
                s = scatter_rows(g, np.array([1, 4, 0]), 6)
                return tsum(mul(s, s))

            check_grads(loss, [x], dtype)

    def test_dispatch_collect_rows(self, dtype):
        slots = np.array([[4, 0], [1, 5], [2, 3]])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(3, 4))
            u = rng.normal(size=(6, 4))

            def loss(ts):
                spread = mul(T.dispatch_rows(ts[0], slots), Tensor(u.astype(ts[0].data.dtype)))
                c = T.collect_rows(spread, slots)
                return tsum(mul(c, c))

            check_grads(loss, [x], dtype)

    def test_index_first_last(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 3, 5))
            check_grads(
                lambda ts: add(tsum(mul(index_first(ts[0], 2), index_first(ts[0], 2))),
                               tsum(index_last(ts[0], 1))),
                [x],
                dtype,
            )

    def test_embedding(self, dtype):
        ids = np.array([[0, 2, 2], [1, 0, 3]])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            table = rng.normal(size=(4, 5))
            check_grads(lambda ts: tsum(mul(embedding(ts[0], ids), embedding(ts[0], ids))),
                        [table], dtype)

    def test_combine(self, dtype):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(4,))
            s = rng.normal(size=(4, 3, 2))
            check_grads(lambda ts: tsum(mul(combine(ts[0], ts[1]), combine(ts[0], ts[1]))),
                        [w, s], dtype)

    def test_two_layer_mlp_all_params(self, dtype):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 6)) * 0.5
            w1 = rng.normal(size=(6, 8)) * 0.5
            b1 = rng.normal(size=(8,)) * 0.1
            w2 = rng.normal(size=(8, 3)) * 0.5
            b2 = rng.normal(size=(3,)) * 0.1
            t = rng.integers(0, 3, size=4)

            def loss(ts):
                h = gelu(add(matmul(ts[0], ts[1]), ts[2]))
                return cross_entropy(add(matmul(h, ts[3]), ts[4]), t)

            check_grads(loss, [x, w1, b1, w2, b2], dtype)
