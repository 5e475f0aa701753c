import dataclasses
import itertools
import math

import numpy as np
import pytest

from exfusion import params
from exfusion.model import (
    AttentionLayer,
    Model,
    ModelSpec,
    causal_mask,
    collapse_to_dense,
    expected_param_count,
)
from exfusion.optim import AdamW
from exfusion.params import ArraySource
from exfusion.tensor import ShapeError, Tensor, cross_entropy, no_grad
from exfusion.train import batch_loss

from oracles import affine_composite, attention_composite, max_rel_err, numeric_gradient


def small_spec(**kw):
    base = dict(depth=2, dim=16, heads=4, expansion=2, vocab_size=11, num_classes=4,
                max_seq_len=8, seed=5)
    base.update(kw)
    return ModelSpec(**base)


def rand_tokens(spec, b=3, l=6, seed=0):
    return np.random.default_rng(seed).integers(0, spec.vocab_size, size=(b, l))


class TestSpecValidation:
    def test_dim_heads_divisibility(self):
        with pytest.raises(ValueError, match="heads"):
            small_spec(dim=10, heads=4)

    def test_expert_bounds(self):
        with pytest.raises(ValueError, match="num_experts"):
            small_spec(num_experts=0)
        with pytest.raises(ValueError, match="top_k"):
            small_spec(num_experts=2, top_k=3)

    def test_momentum_range(self):
        with pytest.raises(ValueError, match="momentum"):
            small_spec(momentum=1.0)

    def test_replaced_layers_range(self):
        with pytest.raises(ValueError, match="replaced_layers"):
            small_spec(replaced_layers=(0, 2))
        assert small_spec(replaced_layers=(1, 0, 1)).replaced_layers == (0, 1)
        assert small_spec(replaced_layers=None).replaced_layers == (0, 1)

    def test_roundtrip_dict(self):
        spec = small_spec(variant="mb", replaced_layers=(1,))
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestAttention:
    def test_single_token_output_is_projected_value(self):
        attn = AttentionLayer("a", 8, 2, ArraySource("f32", 3))
        x_np = np.random.default_rng(1).normal(size=(2, 1, 8)).astype(np.float32)
        out = attn(Tensor(x_np)).data
        v = x_np @ attn.v.weight.data + attn.v.bias.data
        want = v @ attn.o.weight.data + attn.o.bias.data
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_identical_tokens_identical_outputs(self):
        attn = AttentionLayer("a", 8, 2, ArraySource("f32", 4))
        row = np.random.default_rng(2).normal(size=8).astype(np.float32)
        x = Tensor(np.tile(row, (2, 5, 1)))
        out = attn(x).data
        for t in range(1, 5):
            np.testing.assert_allclose(out[:, t], out[:, 0], atol=1e-6)

    def test_attention_rows_sum_to_one(self):
        attn = AttentionLayer("a", 16, 4, ArraySource("f32", 5))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 7, 16)).astype(np.float32))
        _, probs = attn(x, return_weights=True)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "causal"])
    def test_layer_and_weights_equal_the_composite(self, dtype, masked):
        attn = AttentionLayer("a", 16, 4, ArraySource(dtype, 5))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 7, 16)), dtype=dtype)
        mask = causal_mask(7, x.dtype) if masked else None
        out, probs = attn(x, mask, return_weights=True)
        q, k, v, o = ((lin.weight, lin.bias) for lin in (attn.q, attn.k, attn.v, attn.o))
        ctx, ref_probs = attention_composite(affine_composite(x, *q), affine_composite(x, *k),
                                             affine_composite(x, *v), 4, mask)
        assert out.data.tobytes() == affine_composite(ctx, *o).data.tobytes()
        assert probs.data.shape == (2, 4, 7, 7)
        assert probs.data.tobytes() == ref_probs.data.tobytes()

    def test_causal_mask_is_cached_read_only_per_length_and_dtype(self):
        m = causal_mask(5, np.dtype(np.float32))
        assert m is causal_mask(5, np.dtype(np.float32))
        assert m.dtype == np.float32 and not m.flags.writeable
        assert causal_mask(5, np.dtype(np.float64)).dtype == np.float64
        assert m.tobytes() == np.triu(np.full((5, 5), -1e9), k=1).astype(np.float32).tobytes()


class TestFFNSlot:
    def test_zero_params_zero_output(self):
        m = Model(small_spec())
        slot = m.blocks[0].ffn
        slot.up.weight.data = np.zeros_like(slot.up.weight.data)
        slot.down.weight.data = np.zeros_like(slot.down.weight.data)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 16)).astype(np.float32))
        np.testing.assert_array_equal(slot.forward(x, False).data, 0.0)

    def test_identity_weights_pass_large_positive_input(self):
        spec = small_spec(expansion=1)
        m = Model(spec)
        slot = m.blocks[0].ffn
        eye = np.eye(16, dtype=np.float32)[None]
        slot.up.weight.data = eye.copy()
        slot.down.weight.data = eye.copy()
        slot.up.bias.data = np.zeros_like(slot.up.bias.data)
        slot.down.bias.data = np.zeros_like(slot.down.bias.data)
        x_np = np.full((1, 2, 16), 9.0, dtype=np.float32)
        out = slot.forward(Tensor(x_np), False).data
        np.testing.assert_allclose(out, x_np, atol=1e-5)

    def test_gradcheck_dense_slot_params(self):
        m = Model(small_spec(), dtype="f32")
        slot = m.blocks[0].ffn
        x_np = np.random.default_rng(5).normal(size=(4, 16)).astype(np.float32) * 0.5
        slot.forward(Tensor(x_np[None]), False).sum().backward()
        params = [slot.up.weight, slot.up.bias, slot.down.weight, slot.down.bias]
        arrays = [p.data.astype(np.float64) for p in params]

        def f(uw, ub, dw, db):
            m64 = Model(small_spec(), dtype="f64")
            s = m64.blocks[0].ffn
            s.up.weight.data, s.up.bias.data = uw, ub
            s.down.weight.data, s.down.bias.data = dw, db
            return float(s.forward(Tensor(x_np.astype(np.float64)[None]), False).sum().data)

        for i, p in enumerate(params):
            num = numeric_gradient(f, arrays, i, 1e-3)
            assert max_rel_err(p.grad, num) < 1e-4, f"ffn param {i}"


class TestBlocks:
    def test_zeroed_block_is_identity(self):
        m = Model(small_spec())
        block = m.blocks[0]
        for name, t in m.named_parameters():
            if name.startswith("blocks.0."):
                t.data = np.zeros_like(t.data)
        x_np = np.random.default_rng(6).normal(size=(2, 4, 16)).astype(np.float32)
        out = block.forward(Tensor(x_np), None, False).data
        np.testing.assert_array_equal(out, x_np)

    def test_dense_equals_single_expert_static(self):
        dense = Model(small_spec(variant="dense"))
        sw1 = Model(small_spec(variant="sw", num_experts=1))
        tokens = rand_tokens(dense.spec)
        a = dense.forward(tokens).data
        b = sw1.forward(tokens).data
        assert a.tobytes() == b.tobytes()

    def test_no_replaced_layers_matches_dense_bitwise(self):
        tokens = rand_tokens(small_spec())
        dense = Model(small_spec(variant="dense")).forward(tokens).data
        for variant in ("sw", "dw", "mb", "moe"):
            m = Model(small_spec(variant=variant, replaced_layers=()))
            assert m.forward(tokens).data.tobytes() == dense.tobytes(), variant


class TestModelForward:
    def test_classification_logits_shape(self):
        m = Model(small_spec())
        assert m.forward(rand_tokens(m.spec)).shape == (3, 4)

    def test_lm_logits_shape(self):
        m = Model(small_spec(objective="lm"))
        assert m.forward(rand_tokens(m.spec)).shape == (3, 6, 11)

    def test_forward_deterministic(self):
        m = Model(small_spec(variant="mb"))
        tokens = rand_tokens(m.spec)
        assert m.forward(tokens).data.tobytes() == m.forward(tokens).data.tobytes()

    def test_init_loss_near_uniform(self):
        spec = small_spec(num_classes=8)
        m = Model(spec)
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, spec.vocab_size, size=(64, 6))
        labels = rng.integers(0, 8, size=64)
        loss = cross_entropy(m.forward(tokens), labels).item()
        assert abs(loss - math.log(8)) < 0.1 * math.log(8)

    def test_causal_logits_ignore_future_tokens(self):
        m = Model(small_spec(objective="lm"))
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, 11, size=(2, 6))
        changed = tokens.copy()
        changed[:, 4:] = (changed[:, 4:] + 3) % 11
        a = m.forward(tokens).data
        b = m.forward(changed).data
        assert a[:, :4].tobytes() == b[:, :4].tobytes()
        assert not np.array_equal(a[:, 4:], b[:, 4:])

    def test_rejects_long_sequence_and_bad_tokens(self):
        m = Model(small_spec())
        with pytest.raises(Exception, match="max_seq_len"):
            m.forward(np.zeros((1, 9), dtype=int))
        with pytest.raises(ValueError, match="token id"):
            m.forward(np.full((1, 4), 11))


def tape_nodes(root) -> int:
    """Tensors reachable from ``root`` through the tape, leaves included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestTapeSize:
    def test_depth2_dense_step(self):
        # 40 leaves: embed, pos, 17 per block (2 layernorms, q/k/v/o, up, down,
        # the static fusion weights), final_ln, head. 39 ops: embedding, position
        # gather and add; per block ln1, q/k/v affines, attention, o affine,
        # residual add, ln2, four fusion combines, up affine, gelu, down affine,
        # residual add; final_ln, head affine, the logits reshape, cross_entropy.
        spec = small_spec(objective="lm")
        tokens = rand_tokens(spec)
        loss = batch_loss(Model(spec), tokens, np.roll(tokens, -1, axis=1), training=True)
        assert tape_nodes(loss) == 79


class TestParamAudit:
    @pytest.mark.parametrize("variant", ["dense", "sw", "dw", "mb", "moe"])
    def test_count_matches_closed_form(self, variant):
        for kw in (dict(), dict(replaced_layers=(1,)), dict(shared_router=False),
                   dict(num_experts=3, top_k=2), dict(objective="lm")):
            spec = small_spec(variant=variant, **kw)
            assert Model(spec).param_count() == expected_param_count(spec), (variant, kw)

    def test_frozen_learned_weights_still_counted(self):
        spec = small_spec(variant="dw", freeze_fusion_weights=True)
        assert Model(spec).param_count() == expected_param_count(spec)


def _names(named):
    return [name for name, _ in named]


class TestRegistry:
    """A model lists the arrays its one source created, in creation order."""

    def test_mb_unshared_names_in_walk_order(self):
        # the order clip sums and AdamW steps in
        model = Model(small_spec(variant="mb", shared_router=False, replaced_layers=(1,)))
        assert _names(model.named_parameters()) == [
            "embed.weight", "pos.weight",
            "blocks.0.ln1.gain", "blocks.0.ln1.bias",
            "blocks.0.attn.q.weight", "blocks.0.attn.q.bias",
            "blocks.0.attn.k.weight", "blocks.0.attn.k.bias",
            "blocks.0.attn.v.weight", "blocks.0.attn.v.bias",
            "blocks.0.attn.o.weight", "blocks.0.attn.o.bias",
            "blocks.0.ln2.gain", "blocks.0.ln2.bias",
            "blocks.0.ffn.up.weight", "blocks.0.ffn.up.bias",
            "blocks.0.ffn.down.weight", "blocks.0.ffn.down.bias",
            "blocks.1.ln1.gain", "blocks.1.ln1.bias",
            "blocks.1.attn.q.weight", "blocks.1.attn.q.bias",
            "blocks.1.attn.k.weight", "blocks.1.attn.k.bias",
            "blocks.1.attn.v.weight", "blocks.1.attn.v.bias",
            "blocks.1.attn.o.weight", "blocks.1.attn.o.bias",
            "blocks.1.ln2.gain", "blocks.1.ln2.bias",
            "blocks.1.ffn.up.weight", "blocks.1.ffn.up.bias",
            "blocks.1.ffn.down.weight", "blocks.1.ffn.down.bias",
            "blocks.1.ffn.router.up.weight", "blocks.1.ffn.router.up.bias",
            "blocks.1.ffn.router.down.weight", "blocks.1.ffn.router.down.bias",
            "final_ln.gain", "final_ln.bias",
            "head.weight", "head.bias",
        ]
        assert _names(model.named_buffers()) == [
            "blocks.1.ffn.fusion.up.bank", "blocks.1.ffn.fusion.down.bank",
        ]

    @pytest.mark.parametrize("objective", ["classification", "lm"])
    @pytest.mark.parametrize("shared_router", [True, False], ids=["shared", "unshared"])
    @pytest.mark.parametrize("variant", ["dense", "moe", "sw", "dw", "mb"])
    def test_names_unique_and_state_is_their_union(self, variant, shared_router, objective):
        model = Model(small_spec(variant=variant, shared_router=shared_router,
                                 objective=objective))
        params, buffers = _names(model.named_parameters()), _names(model.named_buffers())
        assert len(set(params)) == len(params) and len(set(buffers)) == len(buffers)
        assert not set(params) & set(buffers)
        assert set(model.state_arrays()) == set(params) | set(buffers)
        rebuilt = Model.from_arrays(model.spec, model.state_arrays(), "f64")
        assert _names(rebuilt.named_parameters()) == params
        assert _names(rebuilt.named_buffers()) == buffers

    def test_lists_are_copies_of_live_arrays(self):
        model = Model(small_spec(variant="mb"))
        model.named_parameters().clear()
        model.named_buffers().clear()
        assert dict(model.named_parameters())["head.weight"] is model.head.weight
        bank = model.blocks[0].ffn.controllers[0].bank
        assert dict(model.named_buffers())["blocks.0.ffn.fusion.bank"] is bank


class TestFullModelGradients:
    @pytest.mark.parametrize("variant", ["sw", "dw", "mb"])
    def test_small_model_grads_match_fd(self, variant):
        spec = ModelSpec(depth=2, dim=8, heads=2, expansion=2, vocab_size=7,
                         num_classes=3, max_seq_len=4, variant=variant,
                         num_experts=3, seed=11)
        model = Model(spec, dtype="f32")
        rng = np.random.default_rng(12)
        tokens = rng.integers(0, 7, size=(2, 4))
        labels = rng.integers(0, 3, size=2)

        banks = model.bank_state()
        loss = cross_entropy(model.forward(tokens, training=True), labels)
        loss.backward()
        model.set_bank_state(banks)

        m64 = model.cast("f64")
        names = [n for n, _ in m64.named_parameters()]
        params64 = dict(m64.named_parameters())
        banks64 = {k: v.astype(np.float64) for k, v in banks.items()}

        def f64_loss():
            m64.set_bank_state(banks64)
            with no_grad():
                return float(cross_entropy(m64.forward(tokens, training=True), labels).data)

        worst = 0.0
        h = 1e-4  # balances truncation vs roundoff at this parameter scale
        for name, t in model.named_parameters():
            target = params64[name].data
            num = np.zeros_like(target)
            flat, nflat = target.reshape(-1), num.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                hi = f64_loss()
                flat[j] = orig - h
                lo = f64_loss()
                flat[j] = orig
                nflat[j] = (hi - lo) / (2 * h)
            assert t.grad is not None, name
            worst = max(worst, max_rel_err(t.grad, num))
        assert worst < 1e-4, f"{variant}: max rel err {worst:.2e}"
        assert names == [n for n, _ in model.named_parameters()]


class TestBankState:
    def _mb(self, **kw):
        return Model(small_spec(variant="mb", **kw))

    def test_state_arrays_bank_stays_live_across_a_step(self):
        model = self._mb(shared_router=False)
        arrays = model.state_arrays()
        names = [name for name, _ in model.named_buffers()]
        before = {name: arrays[name].copy() for name in names}
        model.forward(rand_tokens(model.spec), training=True)
        current = model.bank_state()
        for name, buf in model.named_buffers():
            assert arrays[name] is buf, name
            assert arrays[name].tobytes() == current[name].tobytes(), name
            assert not np.array_equal(arrays[name], before[name]), name

    def test_wrong_bank_shape_rejected(self):
        model = self._mb()
        name, buf = model.named_buffers()[0]
        arrays = {k: v.copy() for k, v in model.state_arrays().items()}
        arrays[name] = np.zeros(buf.size + 1, dtype=buf.dtype)
        with pytest.raises(ShapeError, match="bank"):
            model.load_state_arrays(arrays)
        with pytest.raises(ShapeError, match="bank"):
            model.set_bank_state({name: np.zeros((1, buf.size), dtype=buf.dtype)})
        assert not buf.any()  # neither call wrote into the bank

    def test_eval_tape_keeps_its_bank_across_a_training_step(self):
        tokens, labels = rand_tokens(small_spec()), np.arange(3) % 4

        def expert_grads(step_between: bool) -> dict:
            model = self._mb()
            model.forward(rand_tokens(model.spec, seed=1), training=True)  # bank leaves zero
            eval_loss = cross_entropy(model.forward(tokens, training=False), labels)
            if step_between:
                opt = AdamW(model.named_parameters())
                loss = cross_entropy(model.forward(rand_tokens(model.spec, seed=2),
                                                   training=True), labels)
                loss.backward()
                opt.step(1e-2)
                model.zero_grad()
            eval_loss.backward()
            return {name: t.grad.copy() for name, t in model.named_parameters()
                    if ".ffn.up." in name or ".ffn.down." in name}

        plain, stepped = expert_grads(False), expert_grads(True)
        assert plain.keys() == stepped.keys() and plain
        for name, g in plain.items():
            assert g.tobytes() == stepped[name].tobytes(), name


class TestCollapse:
    def _trained_ish(self, variant, seed=13, **kw):
        spec = small_spec(variant=variant, seed=seed, **kw)
        model = Model(spec)
        rng = np.random.default_rng(seed)
        # nudge every parameter and run a few training forwards so banks move
        for _, t in model.named_parameters():
            t.data = t.data + rng.normal(0, 0.01, t.data.shape).astype(t.data.dtype)
        for _ in range(5):
            tokens = rng.integers(0, spec.vocab_size, size=(2, 5))
            model.forward(tokens, training=True)
        return model

    @pytest.mark.parametrize("variant", ["sw", "dw", "mb"])
    def test_eval_logits_match_on_fresh_batches(self, variant):
        model = self._trained_ish(variant)
        dense = collapse_to_dense(model)
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(16):
            tokens = rng.integers(0, model.spec.vocab_size, size=(4, 6))
            with no_grad():
                a = model.forward(tokens, training=False).data
                b = dense.forward(tokens, training=False).data
            worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 1e-5

    def test_mb_unshared_router_collapse(self):
        model = self._trained_ish("mb", shared_router=False)
        dense = collapse_to_dense(model)
        tokens = rand_tokens(model.spec, seed=15)
        with no_grad():
            a = model.forward(tokens).data
            b = dense.forward(tokens).data
        assert np.abs(a - b).max() < 1e-5

    def test_collapsed_count_equals_dense_baseline(self):
        for variant in ("sw", "dw", "mb"):
            model = self._trained_ish(variant)
            dense_spec = dataclasses.replace(model.spec, variant="dense")
            assert collapse_to_dense(model).param_count() == expected_param_count(dense_spec)

    def test_sw_collapse_is_expert_mean(self):
        model = self._trained_ish("sw")
        dense = collapse_to_dense(model)
        src = model.blocks[0].ffn.up.weight.data
        got = dense.blocks[0].ffn.up.weight.data[0]
        np.testing.assert_allclose(got, src.mean(axis=0), atol=1e-7)

    def test_moe_not_collapsible(self):
        model = Model(small_spec(variant="moe"))
        with pytest.raises(ValueError, match="collapsed"):
            collapse_to_dense(model)


class TestRebuiltModels:
    """Cast and dense export adopt arrays instead of drawing and overwriting."""

    def _moved_mb(self):
        model = Model(small_spec(variant="mb", shared_router=False))
        for seed in range(2):
            model.forward(rand_tokens(model.spec, seed=seed), training=True)
        return model

    def _rebuilds(self, model):
        return {"export": collapse_to_dense(model), "cast f32": model.cast("f32"),
                "cast f64": model.cast("f64")}

    def test_rebuilds_draw_no_init(self, monkeypatch):
        model = self._moved_mb()

        def no_draws(*args, **kwargs):
            raise AssertionError("a rebuilt model drew a fresh init")

        monkeypatch.setattr(params, "normal_init", no_draws)
        rebuilt = self._rebuilds(model)
        for name, arr in model.state_arrays().items():
            assert rebuilt["cast f32"].state_arrays()[name].tobytes() == arr.tobytes(), name
            assert rebuilt["cast f64"].state_arrays()[name].dtype == np.float64, name

    def test_rebuilt_arrays_are_owned_and_separate(self):
        model = self._moved_mb()
        source = list(model.state_arrays().values())
        rebuilt = [list(m.state_arrays().values()) for m in self._rebuilds(model).values()]
        for arrays in rebuilt:
            for arr in arrays:
                assert arr.flags.writeable and arr.flags.c_contiguous
                assert not any(np.shares_memory(arr, other) for other in source)
        everything = [arr for arrays in rebuilt for arr in arrays]
        for a, b in itertools.combinations(everything, 2):
            assert not np.shares_memory(a, b)

    def test_export_unmoved_by_later_source_changes(self):
        model = self._moved_mb()
        dense = collapse_to_dense(model)
        tokens = rand_tokens(model.spec, seed=9)
        with no_grad():
            before = dense.forward(tokens).data.copy()
        for _, t in model.named_parameters():
            t.data += 0.5
        for _, buf in model.named_buffers():
            buf += 0.25
        model.forward(tokens, training=True)  # updates the banks in place as well
        with no_grad():
            after = dense.forward(tokens).data
        assert after.tobytes() == before.tobytes()
