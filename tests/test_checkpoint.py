import dataclasses
import errno
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfusion.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_model_checkpoint,
    meta_int,
    meta_json,
    meta_str,
    read_checkpoint,
    save_model_checkpoint,
    write_checkpoint,
)
from exfusion import checkpoint, params
from exfusion.model import VARIANTS, Model, ModelSpec
from exfusion.optim import AdamW
from exfusion.tasks import TaskSpec
from exfusion.tensor import cross_entropy
from exfusion.train import TrainConfig

from oracles import read_checkpoint_reference


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "a.weight": rng.normal(size=(3, 4)).astype(np.float32),
        "b.bias": rng.normal(size=7),
        "counts": np.arange(5, dtype=np.int64),
        "blob": np.frombuffer(b"raw-bytes", dtype=np.uint8).copy(),
    }


class TestContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "x.bin"
        tensors = sample_tensors()
        meta = {"step": 17, "delta": 0.95, "variant": "mb", "spec": {"depth": 2, "dim": 8}}
        write_checkpoint(path, tensors, meta)
        loaded, m = read_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].tobytes() == arr.tobytes()
        assert meta_int(m, "step") == 17
        assert m["delta"][0] == 0.95
        assert meta_str(m, "variant") == "mb"
        assert meta_json(m, "spec") == {"depth": 2, "dim": 8}

    def test_layout_matches_documented_format(self, tmp_path):
        # independent struct-level parse of the written bytes
        path = tmp_path / "x.bin"
        arr = np.array([[1.5, -2.0]], dtype=np.float32)
        write_checkpoint(path, {"w": arr}, {"tag": "ok"})
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, count = struct.unpack_from("<II", raw, 4)
        assert version == VERSION and count == 2
        off = 12
        (name_len,) = struct.unpack_from("<I", raw, off); off += 4
        name = raw[off:off + name_len].decode(); off += name_len
        assert name == "w"
        code, rank = struct.unpack_from("<BB", raw, off); off += 2
        assert code == 0 and rank == 2
        dims = struct.unpack_from("<QQ", raw, off); off += 16
        assert dims == (1, 2)
        payload = np.frombuffer(raw, dtype="<f4", count=2, offset=off)
        np.testing.assert_array_equal(payload.reshape(1, 2), arr)
        off += 8
        (name_len,) = struct.unpack_from("<I", raw, off); off += 4
        assert raw[off:off + name_len].decode() == "meta/tag"

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "x.bin"
        write_checkpoint(path, sample_tensors())
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version mismatch"):
            read_checkpoint(path)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)
        write_checkpoint(path, sample_tensors())
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) - 3])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        write_checkpoint(path, sample_tensors())
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            read_checkpoint(path)


    def _single_record(self, tmp_path):
        path = tmp_path / "x.bin"
        write_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
        return path, bytearray(path.read_bytes()), 12 + 4 + len("w") + 2  # dims offset

    def test_absurd_dims_refused_before_reading(self, tmp_path):
        path, raw, dims_at = self._single_record(tmp_path)
        for dims in ((2 ** 40, 3), (2 ** 62, 2 ** 62)):
            raw[dims_at:dims_at + 16] = struct.pack("<QQ", *dims)
            path.write_bytes(bytes(raw))
            with pytest.raises(CheckpointError, match="truncated.*bytes declared"):
                read_checkpoint(path)

    @pytest.mark.parametrize("dims", [(0, 2 ** 63), (1,) * 65], ids=["huge_dim", "rank_65"])
    def test_impossible_dims_refused(self, tmp_path, dims):
        # both declare at most 4 payload bytes, so only building the array can fail
        path = tmp_path / "x.bin"
        payload = b"\0" * (4 * math.prod(dims))
        path.write_bytes(MAGIC + struct.pack("<IIIc", VERSION, 1, 1, b"w")
                         + struct.pack("<BB", 0, len(dims))
                         + b"".join(struct.pack("<Q", d) for d in dims) + payload)
        with pytest.raises(CheckpointError, match=r"x\.bin: record 'w' has impossible dims"):
            read_checkpoint(path)

    def test_truncated_payload_refused(self, tmp_path):
        path, raw, dims_at = self._single_record(tmp_path)
        path.write_bytes(bytes(raw[:dims_at + 16 + 10]))  # 10 of the 24 payload bytes
        with pytest.raises(CheckpointError, match="truncated.*24 bytes declared, 10 left"):
            read_checkpoint(path)


    def test_undecodable_record_name_names_the_file(self, tmp_path):
        path = tmp_path / "x.bin"
        write_checkpoint(path, sample_tensors())
        raw = bytearray(path.read_bytes())
        raw[16] = 0xFF  # first byte of the first record name
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="x.bin.*UTF-8"):
            read_checkpoint(path)

    @pytest.mark.parametrize("record", ["a.weight", "meta/step"])
    def test_duplicate_record_refused(self, tmp_path, record):
        path = tmp_path / "x.bin"
        stand_in = record[:-1] + "~"  # same length, written after ``record``
        tensors = sample_tensors()
        meta = {"step": 17}
        if record.startswith("meta/"):
            meta[stand_in[len("meta/"):]] = 7
        else:
            tensors[stand_in] = np.full_like(tensors[record], 7)
        write_checkpoint(path, tensors, meta)
        path.write_bytes(path.read_bytes().replace(stand_in.encode(), record.encode()))
        with pytest.raises(CheckpointError, match=f"x.bin: duplicate record '{record}'"):
            read_checkpoint(path)


def reference_encoding(tensors: dict, meta: dict | None = None) -> bytes:
    """The documented layout, built with struct and tobytes() only: the
    tensors sorted by name, then ``meta``'s arrays as ``meta/`` records."""
    codes = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
             np.dtype(np.int64): 2, np.dtype(np.uint8): 3}
    records = sorted(tensors.items())
    records += [("meta/" + key, arr) for key, arr in sorted((meta or {}).items())]
    out = [MAGIC, struct.pack("<II", VERSION, len(records))]
    for name, arr in records:
        encoded = name.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded,
                struct.pack("<BB", codes[arr.dtype], arr.ndim)]
        out += [struct.pack("<Q", d) for d in arr.shape]
        out.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    return b"".join(out)


def reference_meta(meta: dict) -> dict:
    """Metadata values as the documented records: strings as uint8 bytes,
    ints as int64[1], dicts as sorted-key JSON bytes."""
    def record(value):
        if isinstance(value, int):
            return np.array([value], dtype=np.int64)
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        return np.frombuffer(value.encode("utf-8"), dtype=np.uint8)

    return {key: record(value) for key, value in meta.items()}


def _expected_model_file(model, step, opt, extra):
    """``save_model_checkpoint``'s file, built from the model's arrays and
    ``dataclasses.asdict`` of its spec by ``reference_encoding``."""
    tensors = dict(model.state_arrays(), **opt.state_arrays())
    meta = dict(format="model", model_spec=dataclasses.asdict(model.spec), dtype=model.dtype,
                step=step, **extra)
    return reference_encoding(tensors, reference_meta(meta))


class TestWriterEncoding:
    def test_bytes_match_reference_encoding(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = {
            "f32": rng.normal(size=(3, 5)).astype(np.float32),
            "f64.transposed": rng.normal(size=(4, 6)).T,
            "i64": np.arange(-3, 9, dtype=np.int64).reshape(2, 2, 3),
            "u8": np.frombuffer(b"\x00\x7f\xff", dtype=np.uint8).copy(),
            "scalar": np.array(2.5, dtype=np.float64),
            "empty": np.zeros((0, 3), dtype=np.float32),
        }
        assert not tensors["f64.transposed"].flags.c_contiguous
        path = tmp_path / "x.bin"
        write_checkpoint(path, tensors)
        assert path.read_bytes() == reference_encoding(tensors)
        loaded, _ = read_checkpoint(path)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_model_checkpoint_matches_reference_encoding(self, tmp_path, variant, dtype):
        model, opt = _small_trained(variant, dtype)
        extra = {"task_spec": dataclasses.asdict(TaskSpec(task="char_lm", seq_len=4)),
                 "train_config": dataclasses.asdict(TrainConfig(steps=1, warmup_steps=0, dtype=dtype))}
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, model, step=1, optimizer=opt, extra_meta=extra)
        assert path.read_bytes() == _expected_model_file(model, 1, opt, extra)

    def test_same_names_with_other_shapes_get_their_own_headers(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        for dim in (8, 16, 8):
            spec = ModelSpec(depth=1, dim=dim, heads=2, expansion=2, vocab_size=7,
                             num_classes=3, max_seq_len=4, variant="mb", num_experts=3)
            model = Model(spec)
            opt = AdamW(model.named_parameters())
            save_model_checkpoint(path, model, step=dim, optimizer=opt)
            assert path.read_bytes() == _expected_model_file(model, dim, opt, {})


def _trained_mb(seed=3, shared_router=False):
    spec = ModelSpec(depth=2, dim=16, heads=2, expansion=2, vocab_size=9, num_classes=3,
                     max_seq_len=6, variant="mb", num_experts=4, shared_router=shared_router,
                     seed=seed)
    model = Model(spec)
    opt = AdamW(model.named_parameters(), weight_decay=0.05)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        model.zero_grad()
        cross_entropy(model.forward(rng.integers(0, 9, size=(4, 6)), training=True),
                      rng.integers(0, 3, size=4)).backward()
        opt.step(1e-3)
    return model, opt


class TestAdoptingLoad:
    def test_load_draws_no_init(self, tmp_path, monkeypatch):
        model, opt = _trained_mb()
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, model, step=2, optimizer=opt)

        def no_draws(*args, **kwargs):
            raise AssertionError("a rebuilt model drew a fresh init")

        monkeypatch.setattr(params, "normal_init", no_draws)
        loaded = load_model_checkpoint(path)
        want = model.state_arrays()
        got = loaded.model.state_arrays()
        assert got.keys() == want.keys()
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name

    def test_loaded_arrays_are_owned_and_separate(self, tmp_path):
        model, opt = _trained_mb()
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, model, step=2, optimizer=opt)
        loaded = load_model_checkpoint(path)
        arrays = list(loaded.model.state_arrays().values()) + list(loaded.opt_arrays.values())
        source = list(model.state_arrays().values()) + list(opt.state_arrays().values())
        for i, arr in enumerate(arrays):
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert not any(np.shares_memory(arr, other) for other in source)
            assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:])


class TestModelCheckpoint:
    def test_model_roundtrip_with_banks_and_optimizer(self, tmp_path):
        spec = ModelSpec(depth=2, dim=16, heads=2, expansion=2, vocab_size=9,
                         num_classes=3, max_seq_len=6, variant="mb", num_experts=4, seed=3)
        model = Model(spec)
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 9, size=(4, 6))
        opt = AdamW(model.named_parameters(), weight_decay=0.05)
        for step in range(3):
            model.zero_grad()
            loss = cross_entropy(model.forward(tokens, training=True),
                                 rng.integers(0, 3, size=4))
            loss.backward()
            opt.step(1e-3)

        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, model, step=3, optimizer=opt,
                              extra_meta={"task_spec": {"seed": 3}})
        loaded = load_model_checkpoint(path)
        assert loaded.step == 3
        assert loaded.model.spec == spec
        for (name, t), (name2, t2) in zip(model.named_parameters(),
                                          loaded.model.named_parameters()):
            assert name == name2 and t.data.tobytes() == t2.data.tobytes()
        for (name, b), (name2, b2) in zip(model.named_buffers(),
                                          loaded.model.named_buffers()):
            assert name == name2 and b.tobytes() == b2.tobytes()
            assert b.sum() > 0  # banks actually moved during training
        for key, arr in opt.state_arrays().items():
            assert loaded.opt_arrays[key].tobytes() == arr.tobytes()
        assert loaded.meta["task_spec"] == {"seed": 3}

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "over_existing"])
    @pytest.mark.parametrize("key", ["rng_state", "format", "step"])
    def test_unknown_or_reserved_extra_meta_writes_nothing(self, tmp_path, key, existing):
        model = Model(ModelSpec(depth=1, dim=8, heads=2, expansion=2, vocab_size=5,
                                num_classes=2, max_seq_len=4))
        path = tmp_path / "ckpt.bin"
        if existing:
            save_model_checkpoint(path, model)
        before = _listing(tmp_path)
        with pytest.raises(CheckpointError, match=f"ckpt.bin: extra metadata '{key}'"):
            save_model_checkpoint(path, model, extra_meta={"task_spec": {}, key: 1})
        assert _listing(tmp_path) == before

    def test_non_model_refused_by_type_name(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, Model(ModelSpec(depth=1, dim=8, heads=2, expansion=2,
                                                    vocab_size=5, num_classes=2, max_seq_len=4)))
        before = _listing(tmp_path)
        loaded = load_model_checkpoint(path)
        with pytest.raises(TypeError, match="expected a Model, got LoadedModel"):
            save_model_checkpoint(path, loaded)
        assert _listing(tmp_path) == before

    def test_collapsed_checkpoint_smaller_than_source(self, tmp_path):
        from exfusion.model import collapse_to_dense

        spec = ModelSpec(depth=2, dim=16, heads=2, expansion=2, vocab_size=9,
                         num_classes=3, max_seq_len=6, variant="mb", num_experts=4, seed=4)
        model = Model(spec)
        src = tmp_path / "src.bin"
        dst = tmp_path / "dense.bin"
        save_model_checkpoint(src, model, step=0)
        save_model_checkpoint(dst, collapse_to_dense(model), step=0)
        assert dst.stat().st_size < src.stat().st_size

    @pytest.mark.parametrize("change, field", [
        (lambda d: d.update(mb_update_order="update_then_fuse"), "mb_update_order"),
        (lambda d: d.update(momentum=1.5), "momentum"),
        (lambda d: d.pop("depth"), "depth"),
    ])
    def test_unbuildable_model_spec_is_checkpoint_error(self, tmp_path, change, field):
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, Model(ModelSpec(depth=1, dim=8, heads=2, expansion=2,
                                                    vocab_size=5, num_classes=2, max_seq_len=4)))
        tensors, meta = read_checkpoint(path)
        spec = meta_json(meta, "model_spec")
        change(spec)
        meta["model_spec"] = json.dumps(spec)
        write_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError, match=f"ckpt.bin.*{field}"):
            load_model_checkpoint(path)

    def test_undecodable_model_spec_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, Model(ModelSpec(depth=1, dim=8, heads=2, expansion=2,
                                                    vocab_size=5, num_classes=2, max_seq_len=4)))
        tensors, meta = read_checkpoint(path)
        meta["model_spec"] = "{not json"
        write_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError, match="ckpt.bin.*model_spec"):
            load_model_checkpoint(path)

    @pytest.mark.parametrize("dtype, foreign", [("f32", np.float64), ("f64", np.float32)])
    @pytest.mark.parametrize("record", ["blocks.0.attn.q.weight", "blocks.1.ffn.fusion.bank",
                                        "opt/m/head.weight", "opt/v/blocks.0.ffn.up.bias"])
    def test_foreign_dtype_record_is_checkpoint_error(self, tmp_path, dtype, foreign, record):
        model = Model(ModelSpec(depth=2, dim=16, heads=2, expansion=2, vocab_size=9,
                                num_classes=3, max_seq_len=6, variant="mb", num_experts=4),
                      dtype=dtype)
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, model, optimizer=AdamW(model.named_parameters()))
        tensors, meta = read_checkpoint(path)
        assert tensors["opt/step"].dtype == np.int64
        tensors[record] = tensors[record].astype(foreign)
        write_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError,
                           match=f"ckpt.bin: record '{record}' is {np.dtype(foreign)}"):
            load_model_checkpoint(path)

    def test_negative_step_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, Model(ModelSpec(depth=1, dim=8, heads=2, expansion=2,
                                                    vocab_size=5, num_classes=2, max_seq_len=4)))
        tensors, meta = read_checkpoint(path)
        meta["step"] = -3
        write_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError, match="ckpt.bin.*'meta/step'.*-3"):
            load_model_checkpoint(path)


# ---------------------------------------------------------------------------
# the reader against the one it replaced, refused writes, corruption sweeps
# ---------------------------------------------------------------------------


def _outcome(reader, path):
    """What ``reader`` makes of ``path``: its records in order, or its error."""
    try:
        tensors, meta = reader(path)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    return [[(k, a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for k, a in d.items()]
            for d in (tensors, meta)]


def _assert_reads_like_reference(path):
    got, want = _outcome(read_checkpoint, path), _outcome(read_checkpoint_reference, path)
    assert got == want


def _small_trained(variant, dtype, seed=5, depth=2):
    spec = ModelSpec(depth=depth, dim=8, heads=2, expansion=2, vocab_size=7, num_classes=3,
                     max_seq_len=4, variant=variant, num_experts=3, seed=seed)
    model = Model(spec, dtype)
    opt = AdamW(model.named_parameters())
    model.zero_grad()
    tokens = np.random.default_rng(seed).integers(0, 7, size=(2, 4))
    cross_entropy(model.forward(tokens, training=True), np.array([0, 2])).backward()
    opt.step(1e-3)
    return model, opt


def _malformed_files():
    """(id, build) for each malformed file the tests above refuse; ``build``
    writes the file into a directory and returns its path."""

    def sample(d):
        path = d / "x.bin"
        write_checkpoint(path, sample_tensors(), {"step": 17})
        return path, bytearray(path.read_bytes())

    def edited(edit):
        def build(d):
            path, raw = sample(d)
            path.write_bytes(bytes(edit(raw)))
            return path
        return build

    def single_record(tail):
        def build(d):
            path = d / "x.bin"
            write_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
            path.write_bytes(tail(bytearray(path.read_bytes()), 12 + 4 + len("w") + 2))
            return path
        return build

    def dims_at(dims):
        def tail(raw, at):
            raw[at:at + 16] = struct.pack("<QQ", *dims)
            return bytes(raw)
        return tail

    def declared(dims):
        def build(d):
            path = d / "x.bin"
            path.write_bytes(MAGIC + struct.pack("<IIIc", VERSION, 1, 1, b"w")
                             + struct.pack("<BB", 0, len(dims))
                             + b"".join(struct.pack("<Q", n) for n in dims)
                             + b"\0" * (4 * math.prod(dims)))
            return path
        return build

    def duplicate(record):
        def build(d):
            path = d / "x.bin"
            stand_in = record[:-1] + "~"
            tensors, meta = sample_tensors(), {"step": 17}
            if record.startswith("meta/"):
                meta[stand_in[len("meta/"):]] = 7
            else:
                tensors[stand_in] = np.full_like(tensors[record], 7)
            write_checkpoint(path, tensors, meta)
            path.write_bytes(path.read_bytes().replace(stand_in.encode(), record.encode()))
            return path
        return build

    def bad_magic(d):
        path = d / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        return path

    def set_bytes(at, value):
        def edit(raw):
            raw[at:at + len(value)] = value
            return raw
        return edit

    return [
        ("bad_magic", bad_magic),
        ("version_mismatch", edited(set_bytes(4, struct.pack("<I", VERSION + 1)))),
        ("truncated_by_3", edited(lambda raw: raw[:-3])),
        ("trailing_bytes", edited(lambda raw: raw + b"junk")),
        ("absurd_dims", single_record(dims_at((2 ** 40, 3)))),
        ("absurd_dims_overflow", single_record(dims_at((2 ** 62, 2 ** 62)))),
        ("huge_dim", declared((0, 2 ** 63))),
        ("rank_65", declared((1,) * 65)),
        ("truncated_payload", single_record(lambda raw, at: bytes(raw[:at + 16 + 10]))),
        ("undecodable_name", edited(set_bytes(16, b"\xff"))),
        ("duplicate_tensor", duplicate("a.weight")),
        ("duplicate_meta", duplicate("meta/step")),
        ("unknown_dtype_code", edited(set_bytes(12 + 4 + len("a.weight"), b"\x07"))),
        ("absurd_name_length", edited(set_bytes(12, struct.pack("<I", 2 ** 32 - 1)))),
        ("empty_file", edited(lambda raw: b"")),
    ]


class TestReaderMatchesReference:
    """``read_checkpoint`` gives the records, in order, or the error that the
    one-field-at-a-time reader in ``tests/oracles.py`` gives."""

    @pytest.mark.parametrize("with_opt", [False, True], ids=["model", "with_opt"])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_model_checkpoints(self, tmp_path, variant, dtype, with_opt):
        model, opt = _small_trained(variant, dtype)
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, model, step=1, optimizer=opt if with_opt else None,
                              extra_meta={"task_spec": {"task": "synthetic_cluster"}})
        _assert_reads_like_reference(path)
        tensors, _ = read_checkpoint(path)
        assert any(k.startswith("opt/") for k in tensors) == with_opt

    def test_every_record_kind(self, tmp_path):
        path = tmp_path / "x.bin"
        write_checkpoint(path, {
            "rank0": np.array(2.5),
            "empty": np.zeros((0, 3), dtype=np.float32),
            "u8": np.frombuffer(b"\x00\x7f\xff", dtype=np.uint8).copy(),
            "i64": np.arange(-3, 9, dtype=np.int64).reshape(2, 2, 3),
            "f32": np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32),
        }, {"step": 4, "delta": 0.5, "tag": "x", "spec": {"a": [1, 2]}})
        _assert_reads_like_reference(path)
        tensors, _ = read_checkpoint(path)
        assert tensors["rank0"].shape == () and tensors["empty"].shape == (0, 3)

    @pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in _malformed_files()])
    def test_malformed_files(self, tmp_path, build):
        path = build(tmp_path)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
        _assert_reads_like_reference(path)

    def test_every_truncation_and_bit_flip_of_a_small_file(self, tmp_path):
        path = tmp_path / "x.bin"
        write_checkpoint(path, {"rank0": np.array(2.5), "empty": np.zeros((0, 3)),
                                "w": np.ones((2, 3), dtype=np.float32)}, {"step": 3})
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            _assert_reads_like_reference(path)
        for at in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[at] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                _assert_reads_like_reference(path)


class TestUnknownRecords:
    """A record the model does not use is refused by name, the first in file order."""

    @pytest.mark.parametrize("extra, first", [
        ({"opt/step2": "opt/m/head.bias"}, "opt/step2"),
        ({"opt/x/head.weight": "opt/m/head.weight"}, "opt/x/head.weight"),
        ({"opt/m/blocks.0.ffn.fusion.weights": "opt/m/head.weight"},
         "opt/m/blocks.0.ffn.fusion.weights"),
        ({"zz.weight": "head.weight", "opt/zz": "head.bias", "aa.weight": "head.weight"},
         "aa.weight"),
        ({"opt/v/zz": "opt/v/head.weight", "pos.weigh": "pos.weight"}, "opt/v/zz"),
    ], ids=["stray_opt", "unknown_moment_kind", "moment_of_frozen_param", "first_of_three",
            "moment_before_state"])
    def test_unknown_record_named(self, tmp_path, extra, first):
        spec = ModelSpec(depth=1, dim=8, heads=2, expansion=2, vocab_size=5, num_classes=2,
                         max_seq_len=4, variant="dw", num_experts=2, freeze_fusion_weights=True)
        model = Model(spec)
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, model, optimizer=AdamW(model.named_parameters()))
        tensors, meta = read_checkpoint(path)
        assert not dict(model.named_parameters())["blocks.0.ffn.fusion.weights"].requires_grad
        for name, like in extra.items():
            tensors[name] = tensors[like].copy()
        write_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError, match=f"ckpt.bin: unknown record '{first}'"):
            load_model_checkpoint(path)


def _listing(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestRefusedWrite:
    """A write that is refused, or fails, leaves the directory as it was."""

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "over_existing"])
    @pytest.mark.parametrize("tensors, meta, match", [
        ({"a": np.zeros(3), "b": np.arange(4, dtype=np.int32)}, {"step": 1},
         "'b' has unsupported dtype int32"),
        ({"a": np.zeros(3)}, {"step": 1, "bad": np.zeros(2, dtype=np.float16)},
         "'meta/bad' has unsupported dtype float16"),
        ({"a": np.zeros(3), "meta/step": np.zeros(1)}, {"step": 1},
         "'meta/step' uses the reserved 'meta/' prefix"),
        ({"meta/extra": np.zeros(1)}, None, "'meta/extra' uses the reserved 'meta/' prefix"),
    ], ids=["int32_tensor", "float16_meta", "meta_step_tensor", "meta_named_tensor"])
    def test_refused_record_writes_nothing(self, tmp_path, tensors, meta, match, existing):
        path = tmp_path / "x.bin"
        if existing:
            write_checkpoint(path, sample_tensors())
        before = _listing(tmp_path)
        with pytest.raises(CheckpointError, match=match):
            write_checkpoint(path, tensors, meta)
        assert _listing(tmp_path) == before

    def test_unencodable_meta_value_writes_nothing(self, tmp_path):
        before = _listing(tmp_path)
        with pytest.raises(TypeError, match="cannot encode metadata"):
            write_checkpoint(tmp_path / "x.bin", sample_tensors(), {"step": object()})
        assert _listing(tmp_path) == before

    def test_failed_write_removes_its_tmp(self, tmp_path, monkeypatch):
        path = tmp_path / "x.bin"
        write_checkpoint(path, sample_tensors())
        before = _listing(tmp_path)
        real_writev, calls = os.writev, []

        def full_disk(fd, buffers):  # one buffer per call, then ENOSPC on the third
            calls.append(len(buffers))
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_writev(fd, buffers[:1])

        monkeypatch.setattr(os, "writev", full_disk)
        with pytest.raises(OSError, match="No space left"):
            write_checkpoint(path, {"w": np.ones(4)}, {"step": 2})
        assert len(calls) == 3
        assert _listing(tmp_path) == before

    def test_short_writes_resume_where_they_stopped(self, tmp_path, monkeypatch):
        real_writev, calls = os.writev, []

        def seven_bytes(fd, buffers):
            calls.append(len(buffers))
            return real_writev(fd, [b"".join(memoryview(b).tobytes() for b in buffers)[:7]])

        monkeypatch.setattr(os, "writev", seven_bytes)
        tensors = dict(sample_tensors(), rank0=np.array(2.5), empty=np.zeros((0, 3)),
                       transposed=np.arange(12.0).reshape(3, 4).T)
        path = tmp_path / "x.bin"
        write_checkpoint(path, tensors)
        raw = path.read_bytes()
        assert raw == reference_encoding(tensors)
        assert len(calls) == math.ceil(len(raw) / 7)

    @pytest.mark.parametrize("count, size, dtype", [
        (600, 1, np.int64),         # 1201 buffers, more than one os.writev takes
        (12, 1 << 17, np.float64),  # 12 MiB
    ], ids=["1201_buffers", "12_MiB"])
    def test_large_writes_take_bounded_writev_calls(self, tmp_path, monkeypatch,
                                                    count, size, dtype):
        real_writev, calls = os.writev, []

        def counted(fd, buffers):
            calls.append([memoryview(b).nbytes for b in buffers])
            return real_writev(fd, buffers)

        monkeypatch.setattr(os, "writev", counted)
        tensors = {f"r{i:03d}": np.full(size + i % 3, i, dtype=dtype) for i in range(count)}
        path = tmp_path / "x.bin"
        write_checkpoint(path, tensors)
        assert path.read_bytes() == reference_encoding(tensors)
        assert len(calls) > 1 and sum(map(len, calls)) == 1 + 2 * count
        for sizes in calls:  # each call adds no record once it holds _WRITEV_BYTES
            assert len(sizes) <= os.sysconf("SC_IOV_MAX")
            assert sum(sizes[:-2]) < checkpoint._WRITEV_BYTES


def _records(raw: bytes):
    """(name, dtype code, rank, start, header end, end) of each record of a
    checkpoint file, found with the documented layout."""
    (count,) = struct.unpack_from("<I", raw, 8)
    at = 12
    itemsize = {0: 4, 1: 8, 2: 8, 3: 1}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, at)
        name = raw[at + 4:at + 4 + name_len].decode("utf-8")
        code, rank = raw[at + 4 + name_len], raw[at + 5 + name_len]
        header = at + 4 + name_len + 2 + 8 * rank
        dims = struct.unpack_from(f"<{rank}Q", raw, header - 8 * rank)
        end = header + math.prod(dims) * itemsize[code]
        yield name, code, rank, at, header, end
        at = end
    assert at == len(raw)


def _header_offsets(raw: bytes) -> dict[int, str]:
    """Offsets of the file header (record "") and of the length, name, code,
    rank and dims of one record of each kind, each with the name of its
    record: every meta record, and the first tensor record of each namespace
    (model state, ``opt/m/``, ``opt/v/``, ``opt/step``), dtype code and rank."""
    offsets, seen = dict.fromkeys(range(12), ""), set()
    for name, code, rank, start, header, _ in _records(raw):
        if name.startswith(("meta/", "opt/step")):
            kind = name
        else:
            kind = (name[:6] if name.startswith("opt/") else "", code, rank)
        if kind not in seen:
            seen.add(kind)
            offsets.update(dict.fromkeys(range(start, header), name))
    return offsets


class TestCorruptionSweep:
    """Every truncation, and every single-bit flip of a header byte of the
    file and of one record of each kind, of a small model checkpoint with
    optimizer state either loads or ends in a ``CheckpointError``: no other
    exception escapes ``load_model_checkpoint``."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        model, opt = _small_trained("mb", "f32", seed=9, depth=1)
        path = tmp_path_factory.mktemp("sweep") / "source.bin"
        save_model_checkpoint(path, model, step=1, optimizer=opt)
        return path.read_bytes()

    @staticmethod
    def _loads_or_refuses(path) -> bool:
        try:
            load_model_checkpoint(path)
        except CheckpointError:
            return False
        return True

    def test_every_truncation_is_refused(self, tmp_path, saved):
        path = tmp_path / "x.bin"
        path.write_bytes(saved)
        assert self._loads_or_refuses(path)
        for cut in range(len(saved) - 1, -1, -1):  # shrink the file in place
            os.truncate(path, cut)
            assert not self._loads_or_refuses(path), cut

    def test_every_header_bit_flip_loads_or_is_refused(self, tmp_path, saved):
        path = tmp_path / "x.bin"
        path.write_bytes(saved)
        offsets = _header_offsets(saved)
        loaded = []  # the record of each flip that loads
        fd = os.open(path, os.O_RDWR)
        try:
            for at, record in offsets.items():
                for bit in range(8):
                    os.pwrite(fd, bytes([saved[at] ^ (1 << bit)]), at)
                    if self._loads_or_refuses(path):
                        loaded.append(record)
                os.pwrite(fd, saved[at:at + 1], at)
        finally:
            os.close(fd)
        assert path.read_bytes() == saved
        assert len(loaded) < len(offsets)  # most flips are refused
        assert [r for r in loaded if r.startswith("meta/")] == []  # none in a meta record


def _container(chunks) -> bytes:
    return MAGIC + struct.pack("<II", VERSION, len(chunks)) + b"".join(chunks)


class TestRecordOrder:
    """The reader keys records by name: a small mb checkpoint with its
    optimizer, rewritten with its records in any order, loads to the same
    arrays and metadata, and a record written twice is refused by name."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        model, opt = _small_trained("mb", "f32", seed=4, depth=1)
        path = tmp_path_factory.mktemp("order") / "source.bin"
        save_model_checkpoint(path, model, step=1, optimizer=opt,
                              extra_meta={"task_spec": {"seed": 4}})
        raw = path.read_bytes()
        return path, [(name, raw[start:end]) for name, _, _, start, _, end in _records(raw)]

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_any_record_order_loads_the_same(self, tmp_path_factory, saved, data):
        source, chunks = saved
        order = data.draw(st.permutations(range(len(chunks))))
        path = tmp_path_factory.mktemp("shuffled") / "x.bin"
        path.write_bytes(_container([chunks[i][1] for i in order]))
        want, got = load_model_checkpoint(source), load_model_checkpoint(path)
        assert got.step == want.step and got.meta == want.meta
        for arrays, again in ((want.model.state_arrays(), got.model.state_arrays()),
                              (want.opt_arrays, got.opt_arrays)):
            assert arrays.keys() == again.keys()
            for name, arr in arrays.items():
                assert again[name].dtype == arr.dtype, name
                assert again[name].tobytes() == arr.tobytes(), name

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_a_duplicated_record_is_refused_by_name(self, tmp_path_factory, saved, data):
        _, chunks = saved
        twice = data.draw(st.sampled_from(chunks))
        order = data.draw(st.permutations(chunks + [twice]))
        path = tmp_path_factory.mktemp("duplicated") / "x.bin"
        path.write_bytes(_container([chunk for _, chunk in order]))
        with pytest.raises(CheckpointError, match=f"duplicate record '{re.escape(twice[0])}'"):
            load_model_checkpoint(path)
