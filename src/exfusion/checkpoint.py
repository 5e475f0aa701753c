"""Versioned binary container for named tensors.

Layout (all little-endian):

    magic 'EXFU' | u32 version | u32 record count
    per record: u32 name length | name utf-8 | u8 dtype code | u8 rank
                | rank x u64 dims | raw payload

Scalar metadata rides along as records with a ``meta/`` prefix, placed
after the model tensors: strings as uint8 bytes, ints as int64[1], floats
as float64[1], structured values as JSON bytes, so no tensor name may
begin with ``meta/``. Round-trips are bit-exact; a version mismatch refuses
to load.
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
    if isinstance(value, (int, np.integer)):
        return np.array([value], dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return np.array([value], dtype=np.float64)
    if isinstance(value, (dict, list, tuple)):
        return np.frombuffer(json.dumps(value, sort_keys=True).encode("utf-8"), dtype=np.uint8).copy()
    raise TypeError(f"cannot encode metadata value of type {type(value).__name__}")


def meta_str(meta: dict, key: str) -> str:
    arr = meta[key]
    if arr.dtype != np.uint8 or arr.ndim != 1:
        raise ValueError(f"expected uint8 bytes, got {arr.dtype} of shape {arr.shape}")
    return bytes(arr).decode("utf-8")


def meta_json(meta: dict, key: str):
    return json.loads(meta_str(meta, key))


def meta_int(meta: dict, key: str) -> int:
    return int(meta[key][0])


_HEAD = struct.Struct("<II")  # version, record count
_U32 = struct.Struct("<I")
_LITTLE = {code: dt.newbyteorder("<") for code, dt in _DTYPES.items()}
# Bytes one os.writev call gathers before the next begins. On ext4 one 28.6 MB
# call took 2-3x as long as the same bytes in 4 MiB calls.
_WRITEV_BYTES = 4 << 20


def _record_bytes(name: str, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """(header, payload) of one record, refused unless the dtype has a code.
    The payload is ``arr`` itself unless it is not C-contiguous little-endian."""
    code = _CODES.get(arr.dtype)
    if code is None:
        raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
    encoded = name.encode("utf-8")
    header = (_U32.pack(len(encoded)) + encoded
              + struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape))
    if not arr.flags.c_contiguous or arr.dtype != _LITTLE[code]:
        arr = np.ascontiguousarray(arr, dtype=_LITTLE[code])
    return header, arr


def _write_all(fd: int, buffers: list, size: int) -> None:
    """Write the ``size`` bytes of ``buffers`` in order with ``os.writev``,
    going on from where a short write stopped."""
    at = 0
    while True:
        written = os.writev(fd, buffers[at:])
        size -= written
        if not size:
            return
        while written >= (n := memoryview(buffers[at]).nbytes):
            written -= n
            at += 1
        if written:  # the buffer at ``at`` was written in part
            buffers[at] = memoryview(buffers[at]).cast("B")[written:]


def write_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write tensors plus metadata; tensor records sorted by name, meta after.

    Every record is encoded and checked before the file is opened: an
    unsupported dtype, or a tensor name in the ``meta/`` namespace (it would
    read back as metadata), is refused with nothing written. A write that
    fails partway removes its ``.tmp`` file; the target is only ever
    replaced whole.
    """
    path = Path(path)
    meta = meta or {}
    reserved = next((name for name in tensors if name.startswith("meta/")), None)
    if reserved is not None:
        raise CheckpointError(f"tensor {reserved!r} uses the reserved 'meta/' prefix")
    records = [_record_bytes(name, np.asarray(arr)) for name, arr in sorted(tensors.items())]
    records += [_record_bytes("meta/" + k, _encode_meta_value(v)) for k, v in sorted(meta.items())]
    # One os.writev call per batch: at most IOV_MAX buffers, and no record
    # added once it holds _WRITEV_BYTES.
    iov_max = os.sysconf("SC_IOV_MAX")
    batches = [[MAGIC + _HEAD.pack(VERSION, len(records))]]
    sizes = [len(batches[0][0])]
    for header, payload in records:
        if len(batches[-1]) + 2 > iov_max or sizes[-1] >= _WRITEV_BYTES:
            batches.append([])
            sizes.append(0)
        batches[-1] += (header, payload)
        sizes[-1] += len(header) + payload.nbytes
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            for batch, size in zip(batches, sizes):
                _write_all(fd, batch, size)
        finally:
            os.close(fd)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _truncated(path, n: int, left: int) -> CheckpointError:
    return CheckpointError(f"{path}: truncated checkpoint ({n} bytes declared, {left} left)")


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Load (tensors, meta). Meta values come back as raw arrays; use the
    ``meta_*`` helpers to decode them. A name may appear only once.

    The reader tracks its own offset: each declared length is checked
    against the bytes left in the file before it is read, and each payload
    is read straight into its own array. A record costs three header reads
    (the name length; the name, dtype code and rank; all dims) and one
    payload read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        read = fh.read
        if size < 4:
            raise _truncated(path, 4, size)
        if read(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        if size < 12:
            raise _truncated(path, 8, size - 4)
        version, count = _HEAD.unpack(read(8))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: version mismatch (file v{version}, reader v{VERSION}); refusing to load"
            )
        tensors: dict[str, np.ndarray] = {}
        meta: dict[str, np.ndarray] = {}
        left = size - 12  # bytes after the reader's offset
        for _ in range(count):
            if left < 4:
                raise _truncated(path, 4, left)
            (name_len,) = _U32.unpack(read(4))
            left -= 4
            if name_len + 2 > left:  # the name, or its dtype code and rank, runs off the end
                if name_len > left:
                    raise _truncated(path, name_len, left)
                head = read(name_len)
            else:
                head = read(name_len + 2)
            try:
                name = head[:name_len].decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"{path}: record name at byte {size - left} is not UTF-8") from None
            if name.startswith("meta/"):
                into, key = meta, name[5:]
            else:
                into, key = tensors, name
            if key in into:
                raise CheckpointError(f"{path}: duplicate record {name!r}")
            left -= name_len
            if left < 2:
                raise _truncated(path, 2, left)
            code = head[name_len]
            rank = head[name_len + 1]
            left -= 2
            if code not in _LITTLE:
                raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
            if 8 * rank > left:  # named by the first dim that runs off the end
                raise _truncated(path, 8, left % 8)
            dims = struct.unpack(f"<{rank}Q", read(8 * rank))
            left -= 8 * rank
            dtype = _LITTLE[code]
            nbytes = math.prod(dims) * dtype.itemsize
            if nbytes > left:
                raise _truncated(path, nbytes, left)
            try:
                arr = np.empty(dims, dtype=dtype)
            except ValueError as exc:  # a rank or dim numpy cannot build, with no payload
                raise CheckpointError(f"{path}: record {name!r} has impossible dims: {exc}") from None
            if fh.readinto(arr) != nbytes:
                raise CheckpointError(f"{path}: short read of {name!r}")
            left -= nbytes
            into[key] = arr.astype(_DTYPES[code], copy=False)
        if left:
            raise CheckpointError(f"{path}: trailing bytes after declared records")
    return tensors, meta


# -- model-level helpers ---------------------------------------------------------


def save_model_checkpoint(path, model, step: int = 0, optimizer=None,
                          extra_meta: dict | None = None) -> None:
    """Write the model, and the optimizer's state if given. ``extra_meta``
    may hold only the optional metadata records (``_EXTRA_META``); any other
    key is refused before the file is opened."""
    from .model import Model  # local import to keep this module light

    if not isinstance(model, Model):
        raise TypeError(f"expected a Model, got {type(model).__name__}")
    unknown = next((key for key in extra_meta or () if key not in _EXTRA_META), None)
    if unknown is not None:
        raise CheckpointError(f"{path}: extra metadata {unknown!r} is not one of {_EXTRA_META}")
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
    """A rebuilt model, its step, its decoded metadata (key -> value, as
    ``_META`` decodes it) and its optimizer records."""

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
    except (TypeError, ValueError, IndexError, RecursionError) as exc:
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


def _model_format(meta: dict, key: str) -> str:
    value = meta_str(meta, key)
    if value != "model":
        raise ValueError(f"expected 'model', got {value!r}")
    return value


def _model_spec(meta: dict, key: str):
    from .model import ModelSpec

    return ModelSpec(**_json_object(meta, key))


def _step(meta: dict, key: str) -> int:
    if meta[key].dtype != np.int64 or meta[key].shape != (1,):
        raise ValueError(f"expected one int64, got {meta[key].dtype} of shape {meta[key].shape}")
    step = meta_int(meta, key)
    if step < 0:
        raise ValueError(f"must be non-negative; got {step}")
    return step


# Every metadata record a model checkpoint may hold, with its decoder. The
# required ones are those save_model_checkpoint always writes; the rest are
# what its ``extra_meta`` may add.
_META = {
    "format": _model_format,
    "model_spec": _model_spec,
    "dtype": _dtype_name,
    "step": _step,
    "task_spec": _json_object,
    "train_config": _json_object,
    "exported_from": meta_str,
}
_REQUIRED_META = ("format", "model_spec", "dtype", "step")
_EXTRA_META = tuple(key for key in _META if key not in _REQUIRED_META)


def _decoded_meta(path, meta: dict) -> dict:
    """Each metadata record decoded by its ``_META`` entry. An unknown,
    missing or invalid record is a ``CheckpointError`` naming it."""
    unknown = next((key for key in meta if key not in _META), None)
    if unknown is not None:
        raise CheckpointError(f"{path}: unknown record 'meta/{unknown}'")
    return {key: _meta_field(path, meta, key, decode) for key, decode in _META.items()
            if key in meta or key in _REQUIRED_META}


def load_model_checkpoint(path) -> LoadedModel:
    """Rebuild the saved model from its records, adopting them as its arrays.

    Every fault in what the file holds (a missing, wrong-shaped or
    non-finite record, unknown or undecodable metadata, a record the model
    does not use) is a ``CheckpointError`` naming the file and the record.
    Besides the model's parameters and buffers, only the optimizer moments
    of its trainable parameters (``opt/m/<name>``, ``opt/v/<name>``) and
    ``opt/step`` may be present. Every record but ``opt/step`` must have
    the dtype ``meta/dtype`` names. The metadata records are those in
    ``_META``: ``meta/format`` must be ``"model"``, and ``meta/task_spec``
    and ``meta/train_config``, where present, must be JSON objects.
    """
    from .model import Model

    tensors, raw_meta = read_checkpoint(path)
    meta = _decoded_meta(path, raw_meta)
    spec, dtype, step = meta["model_spec"], meta["dtype"], meta["step"]
    want = as_np_dtype(dtype)
    state: dict[str, np.ndarray] = {}
    opt_arrays: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        if arr.dtype != want and name != "opt/step":
            raise CheckpointError(f"{path}: record {name!r} is {arr.dtype}, "
                                  f"but 'meta/dtype' is {dtype}")
        (opt_arrays if name.startswith("opt/") else state)[name] = arr
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
