"""Versioned binary container for named tensors and one JSON metadata object.

Layout (all little-endian):

    magic 'EXFU' | u32 version | u32 record count | u32 metadata length
    | metadata: one UTF-8 JSON object, keys sorted
    per record: u32 name length | name utf-8 | u8 dtype code | u8 rank
                | rank x u64 dims | raw payload

Round-trips are bit-exact; a version mismatch refuses to load.
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
VERSION = 3

_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.int64): 2,
    np.dtype(np.uint8): 3,
}
_DTYPES = {code: dt for dt, code in _CODES.items()}


class CheckpointError(RuntimeError):
    """Raised for unreadable, truncated, or version-mismatched checkpoints."""


_HEAD = struct.Struct("<III")  # version, record count, metadata length
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
    """Write ``meta`` as the header's JSON object, then the tensors sorted by name.

    The metadata and every record are encoded and checked before the file
    is opened: a value JSON cannot hold (NaN and infinities included) or an
    unsupported dtype is refused with nothing written. A write that fails
    partway removes its ``.tmp`` file; the target is only ever replaced whole.
    """
    path = Path(path)
    encoded = json.dumps(meta or {}, sort_keys=True, allow_nan=False).encode("utf-8")
    records = [_record_bytes(name, np.asarray(arr)) for name, arr in sorted(tensors.items())]
    # One os.writev call per batch: at most IOV_MAX buffers, and no record
    # added once it holds _WRITEV_BYTES.
    iov_max = os.sysconf("SC_IOV_MAX")
    batches = [[MAGIC + _HEAD.pack(VERSION, len(records), len(encoded)) + encoded]]
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


def _decoded_meta(path, raw: bytes) -> dict:
    """The header's metadata: one JSON object of finite numbers, no key in it
    written twice; anything else is a ``CheckpointError`` naming the file."""

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise CheckpointError(f"{path}: metadata key {key!r} is written twice")
            obj[key] = value
        return obj

    try:  # a UnicodeDecodeError and a JSONDecodeError are ValueErrors
        meta = json.loads(raw.decode("utf-8"), object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: metadata is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is a JSON {type(meta).__name__}, not an object")
    for key, value in meta.items():
        try:  # NaN and infinities, which the writer refuses
            json.dumps(value, allow_nan=False)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"{path}: metadata {key!r} is not finite JSON: {exc}") from None
    return meta


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Load (tensors, meta), ``meta`` decoded by ``_decoded_meta``. A record
    name may appear only once.

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
        if size < 8:
            raise _truncated(path, 4, size - 4)
        (version,) = _U32.unpack(read(4))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: version mismatch (file v{version}, reader v{VERSION}); refusing to load"
            )
        if size < 16:
            raise _truncated(path, 8, size - 8)
        count, meta_len = struct.unpack("<II", read(8))
        left = size - 16  # bytes after the reader's offset
        if meta_len > left:
            raise _truncated(path, meta_len, left)
        meta = _decoded_meta(path, read(meta_len))
        left -= meta_len
        tensors: dict[str, np.ndarray] = {}
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
            if name in tensors:
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
            tensors[name] = arr.astype(_DTYPES[code], copy=False)
        if left:
            raise CheckpointError(f"{path}: trailing bytes after declared records")
    return tensors, meta


# -- model-level helpers ---------------------------------------------------------


def save_model_checkpoint(path, model, step: int = 0, optimizer=None,
                          extra_meta: dict | None = None) -> None:
    """Write the model, and the optimizer's state if given. ``extra_meta``
    may hold only the optional metadata keys (``_EXTRA_META``); any other
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
    meta = dict(extra_meta or {}, model_spec=model.spec.to_dict(), dtype=model.dtype,
                step=int(step))
    write_checkpoint(path, tensors, meta)


class LoadedModel:
    """A rebuilt model, its step, its checked metadata and its optimizer records."""

    def __init__(self, model, step: int, meta: dict, opt_arrays: dict):
        self.model = model
        self.step = step
        self.meta = meta
        self.opt_arrays = opt_arrays


# Every metadata key a model checkpoint may hold, with the type JSON decodes
# its value to. The required keys are those save_model_checkpoint always
# writes; the rest are what its ``extra_meta`` may add.
_META = {"model_spec": dict, "dtype": str, "step": int, "task_spec": dict, "train_config": dict}
_REQUIRED_META = ("model_spec", "dtype", "step")
_EXTRA_META = tuple(key for key in _META if key not in _REQUIRED_META)


def load_model_checkpoint(path) -> LoadedModel:
    """Rebuild the saved model from its records, adopting them as its arrays.

    Every fault in what the file holds is a ``CheckpointError`` naming the
    file and the record or metadata key: a missing, wrong-shaped or
    non-finite record, a record the model does not use, a metadata key that
    is unknown, missing when required, or not of its ``_META`` type, a
    negative ``step``, a ``dtype`` other than f32/f64, or a ``model_spec``
    that does not build. Besides the model's parameters and buffers, only
    the optimizer moments of its trainable parameters (``opt/m/<name>``,
    ``opt/v/<name>``) and ``opt/step`` may be present. Every record but
    ``opt/step`` must have the dtype the metadata's ``dtype`` names.
    """
    from .model import Model, ModelSpec

    tensors, meta = read_checkpoint(path)
    for key, value in meta.items():
        if key not in _META:
            raise CheckpointError(f"{path}: unknown metadata key {key!r}")
        if type(value) is not _META[key]:  # so a bool is not an int
            raise CheckpointError(f"{path}: metadata {key!r} is {type(value).__name__}, "
                                  f"expected {_META[key].__name__}")
    missing = next((key for key in _REQUIRED_META if key not in meta), None)
    if missing is not None:
        raise CheckpointError(f"{path}: missing metadata key {missing!r}")
    step, dtype = meta["step"], meta["dtype"]
    if step < 0:
        raise CheckpointError(f"{path}: metadata 'step' must be non-negative; got {step}")
    if dtype not in ("f32", "f64"):
        raise CheckpointError(f"{path}: metadata 'dtype' must be f32 or f64; got {dtype!r}")
    try:
        spec = ModelSpec(**meta["model_spec"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: metadata 'model_spec' cannot be built: {exc}") from None
    want = as_np_dtype(dtype)
    state: dict[str, np.ndarray] = {}
    opt_arrays: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        if arr.dtype != want and name != "opt/step":
            raise CheckpointError(f"{path}: record {name!r} is {arr.dtype}, "
                                  f"but metadata 'dtype' is {dtype}")
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
