"""Versioned binary container for named tensors.

Layout (all little-endian):

    magic 'EXFU' | u32 version | u32 record count
    per record: u32 name length | name utf-8 | u8 dtype code | u8 rank
                | rank x u64 dims | raw payload

Scalar metadata rides along as records with a ``meta/`` prefix, placed
after the model tensors: strings as uint8 bytes, ints as int64[1], floats
as float64[1], structured values as JSON bytes. Round-trips are bit-exact;
a version mismatch refuses to load.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .tensor import NonFiniteError, as_np_dtype

MAGIC = b"EXFU"
VERSION = 1

_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.int64): 2,
    np.dtype(np.uint8): 3,
}
_DTYPES = {code: dt for dt, code in _CODES.items()}


class CheckpointError(RuntimeError):
    """Raised for unreadable, truncated, or version-mismatched checkpoints."""


def _encode_meta_value(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, str):
        return np.frombuffer(value.encode("utf-8"), dtype=np.uint8).copy()
    if isinstance(value, bool):
        return np.array([int(value)], dtype=np.int64)
    if isinstance(value, (int, np.integer)):
        return np.array([value], dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return np.array([value], dtype=np.float64)
    if isinstance(value, (dict, list, tuple)):
        return np.frombuffer(json.dumps(value, sort_keys=True).encode("utf-8"), dtype=np.uint8).copy()
    raise TypeError(f"cannot encode metadata value of type {type(value).__name__}")


def meta_str(meta: dict, key: str) -> str:
    return bytes(meta[key].astype(np.uint8)).decode("utf-8")


def meta_json(meta: dict, key: str):
    return json.loads(meta_str(meta, key))


def meta_int(meta: dict, key: str) -> int:
    return int(meta[key][0])


def _write_record(fh, name: str, arr: np.ndarray) -> None:
    if arr.dtype not in _CODES:
        raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<BB", _CODES[arr.dtype], arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))


def write_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write tensors plus metadata; tensor records sorted by name, meta after."""
    path = Path(path)
    meta = meta or {}
    meta_records = [("meta/" + k, _encode_meta_value(v)) for k, v in sorted(meta.items())]
    records = sorted(tensors.items()) + meta_records
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(records)))
        for name, arr in records:
            _write_record(fh, name, np.asarray(arr))
    tmp.replace(path)


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Load (tensors, meta). Meta values come back as raw arrays; use the
    ``meta_*`` helpers to decode them. Each declared length is checked
    against the bytes left in the file before it is read, and each payload
    is read straight into its own array. A name may appear only once."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def check_left(n: int) -> None:
            left = size - fh.tell()
            if n > left:
                raise CheckpointError(
                    f"{path}: truncated checkpoint ({n} bytes declared, {left} left)")

        def read_exact(n: int) -> bytes:
            check_left(n)
            return fh.read(n)

        if read_exact(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        version, count = struct.unpack("<II", read_exact(8))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: version mismatch (file v{version}, reader v{VERSION}); refusing to load"
            )
        tensors: dict[str, np.ndarray] = {}
        meta: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read_exact(4))
            try:
                name = read_exact(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: record name at byte {fh.tell() - name_len} is not UTF-8") from None
            if name.startswith("meta/"):
                into, key = meta, name[len("meta/"):]
            else:
                into, key = tensors, name
            if key in into:
                raise CheckpointError(f"{path}: duplicate record {name!r}")
            code, rank = struct.unpack("<BB", read_exact(2))
            if code not in _DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
            dims = tuple(struct.unpack("<Q", read_exact(8))[0] for _ in range(rank))
            dtype = _DTYPES[code]
            nbytes = math.prod(dims) * dtype.itemsize
            check_left(nbytes)
            try:
                arr = np.empty(dims, dtype=dtype.newbyteorder("<"))
            except ValueError as exc:  # a rank or dim numpy cannot build, with no payload
                raise CheckpointError(f"{path}: record {name!r} has impossible dims: {exc}") from None
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise CheckpointError(f"{path}: short read of {name!r}")
            into[key] = arr.astype(dtype, copy=False)
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after declared records")
    return tensors, meta


# -- model-level helpers ---------------------------------------------------------


def save_model_checkpoint(path, model, step: int = 0, optimizer=None,
                          extra_meta: dict | None = None) -> None:
    from .model import Model  # local import to keep this module light

    assert isinstance(model, Model)
    tensors = model.state_arrays()
    if optimizer is not None:
        tensors.update(optimizer.state_arrays())
    meta = {
        "format": "model",
        "model_spec": model.spec.to_dict(),
        "dtype": model.dtype,
        "step": int(step),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_checkpoint(path, tensors, meta)


class LoadedModel:
    def __init__(self, model, step: int, meta: dict, opt_arrays: dict):
        self.model = model
        self.step = step
        self.meta = meta
        self.opt_arrays = opt_arrays


def _meta_field(path, meta: dict, key: str, decode):
    if key not in meta:
        raise CheckpointError(f"{path}: missing record 'meta/{key}'")
    try:
        return decode(meta, key)
    except (TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"{path}: record 'meta/{key}' is invalid: {exc}") from None


def _dtype_name(meta: dict, key: str) -> str:
    name = meta_str(meta, key)
    as_np_dtype(name)
    return name


def _json_object(meta: dict, key: str) -> dict:
    value = meta_json(meta, key)
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def load_model_checkpoint(path) -> LoadedModel:
    """Rebuild the saved model from its records, adopting them as its arrays.

    Every fault in what the file holds (a missing, wrong-shaped or
    non-finite record, undecodable metadata, a record the model does not
    use) is a ``CheckpointError`` naming the file and the record. Besides
    the model's parameters and buffers, only the optimizer moments of its
    trainable parameters (``opt/m/<name>``, ``opt/v/<name>``) and
    ``opt/step`` may be present. Every record but ``opt/step`` must have
    the dtype ``meta/dtype`` names, and ``meta/task_spec`` and
    ``meta/train_config``, where present, must be JSON objects.
    """
    from .model import Model, ModelSpec

    tensors, meta = read_checkpoint(path)
    spec = _meta_field(path, meta, "model_spec",
                       lambda m, k: ModelSpec(**meta_json(m, k)))
    dtype = _meta_field(path, meta, "dtype", _dtype_name)
    step = _meta_field(path, meta, "step", meta_int)
    if step < 0:
        raise CheckpointError(f"{path}: record 'meta/step' must be non-negative; got {step}")
    for key in ("task_spec", "train_config"):
        if key in meta:
            _meta_field(path, meta, key, _json_object)
    want = as_np_dtype(dtype)
    foreign = next((name for name, arr in tensors.items()
                    if name != "opt/step" and arr.dtype != want), None)
    if foreign is not None:
        raise CheckpointError(f"{path}: record {foreign!r} is {tensors[foreign].dtype}, "
                              f"but 'meta/dtype' is {dtype}")
    opt_arrays = {k: v for k, v in tensors.items() if k.startswith("opt/")}
    state = {k: v for k, v in tensors.items() if not k.startswith("opt/")}
    try:
        model = Model.from_arrays(spec, state, dtype)
    except (KeyError, ValueError, NonFiniteError) as exc:
        raise CheckpointError(f"{path}: cannot rebuild the model: {exc}") from None
    known = set(model.state_arrays())
    known.update(f"opt/{moment}/{name}" for name, t in model.named_parameters()
                 if t.requires_grad for moment in "mv")
    known.add("opt/step")
    unknown = next((name for name in tensors if name not in known), None)
    if unknown is not None:
        raise CheckpointError(f"{path}: unknown record {unknown!r}")
    return LoadedModel(model, step, meta, opt_arrays)
