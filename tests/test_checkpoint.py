import json
import struct

import numpy as np
import pytest

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
from exfusion import params
from exfusion.model import Model, ModelSpec
from exfusion.optim import AdamW
from exfusion.tensor import cross_entropy


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


def reference_encoding(tensors: dict) -> bytes:
    """The documented layout, built with struct and tobytes() only."""
    codes = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
             np.dtype(np.int64): 2, np.dtype(np.uint8): 3}
    out = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in sorted(tensors.items()):
        encoded = name.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded,
                struct.pack("<BB", codes[arr.dtype], arr.ndim)]
        out += [struct.pack("<Q", d) for d in arr.shape]
        out.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    return b"".join(out)


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
                              extra_meta={"rng_state": {"seed": 3}})
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
        assert meta_json(loaded.meta, "rng_state") == {"seed": 3}

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

    def test_negative_step_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_model_checkpoint(path, Model(ModelSpec(depth=1, dim=8, heads=2, expansion=2,
                                                    vocab_size=5, num_classes=2, max_seq_len=4)))
        tensors, meta = read_checkpoint(path)
        meta["step"] = -3
        write_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError, match="ckpt.bin.*'meta/step'.*-3"):
            load_model_checkpoint(path)
