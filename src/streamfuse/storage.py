"""Bit-exact persistence for streams, schedules and models.

Byte layouts (all little-endian):

stream file ("SATN"):
    magic 4s | version u16 | C u32 | T u32 | stream_id i32 | frame_offset i32
    | dtype u8 (0 = f32) | payload T*C f32

schedule file ("SATW"):
    magic 4s | version u16 | M u32 | T u32 | dtype u8 (0 = f32)
    | payload T*M f32

model file ("STAE", version 2):
    magic 4s | version u16 | C u32 | K u32 | logit_clamp f64
    | context_left i32 | context_right i32
    | pca_mean C f64 | pca_basis C*K f64 (row-major)
    | num_layers u16, then per layer:
      fan_in u32 | width u32 | activation u8 (0 relu, 1 linear)
      | num_offsets u16 | offsets i32... | weight row-major f32 | bias f32
    | sha256 32s of every byte before it

Stream and schedule readers check the fixed-size header first: magic,
version, dtype code, and a file size of exactly header + rows * columns * 4
bytes, so a hostile row or column count fails before any payload is read
or allocated.  read_stream_header stops there, which lets a corpus check
every stream's shape at load and read its payload only on use.  Readers
of a payload then run core.check_simplex on its rows (finite, >= 0, sum
within SIMPLEX_ATOL = 1e-6 of 1) and return them as stored.  Writers run
the same check before they open the file and store the rows cast to f32,
so no writer makes a file its reader rejects, and write -> read -> write
gives the same bytes.  The model reader checks each size before it reads
it, then rejects a non-finite value, a layer stack that does not chain (no
layers, a fan_in other than the previous width, K for layer 0, times its
offset count, or a last width other than K), a trailing sha256 that is not
that of the bytes before it (model_digest is that hash's prefix) and, last,
a logit_clamp other than aemonitor.LOGIT_CLAMP: the front end's clamp is a
constant, and the writer stores it so that a model made under another
clamp is refused, with the advice to retrain, and never run at this one.
write_model and model_digest take each layer array as it is held, and
read_model reads each straight into a new array: neither copies a layer.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .aemonitor import LOGIT_CLAMP, AeModel, FrontEnd, Layer
from .core import AttentionSchedule, PosteriorStream, check_simplex, finite_as
from .errors import (
    BadMagic,
    FormatError,
    InvalidSimplex,
    PayloadTruncated,
    VersionUnsupported,
)

VERSION = 1

_STREAM_HDR = struct.Struct("<4sHIIiiB")
_SCHED_HDR = struct.Struct("<4sHIIB")


def _check_left(f, n: int, what: str) -> None:
    """PayloadTruncated unless n more bytes are left in f.

    Sizes come from untrusted headers: compare with what the file holds
    before asking read() for them, which could overflow or allocate hugely.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise PayloadTruncated(f"{what}: expected {n} bytes, {max(left, 0)} left in file")


def _read_exact(f, n: int, what: str, h=None) -> bytes:
    """The next n bytes of f, also fed to the hash h if one is given."""
    _check_left(f, n, what)
    buf = f.read(n)
    if len(buf) != n:
        raise PayloadTruncated(f"{what}: expected {n} bytes, got {len(buf)}")
    if h is not None:
        h.update(buf)
    return buf


def _check_header(magic: bytes, expect: bytes, version: int, want=VERSION, advice=""):
    if magic != expect:
        raise BadMagic(f"expected magic {expect!r}, found {magic!r}")
    if version != want:
        raise VersionUnsupported(f"version {version} not supported{advice}")


def _write_matrix(path, hdr: struct.Struct, magic: bytes, what: str, mat: np.ndarray, *extra):
    """Header (magic, version, columns, rows, *extra, dtype 0) and an f32 payload.

    The rows are checked and the header packed first, so neither a matrix the
    reader would reject nor a field outside its type (struct.error) leaves a file.
    """
    check_simplex(mat, what)
    header = hdr.pack(magic, VERSION, mat.shape[1], mat.shape[0], *extra, 0)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


def _read_matrix_header(f, hdr: struct.Struct, magic: bytes, what: str) -> tuple[int, int, list]:
    """Rows, columns and extra fields of an open _write_matrix file, left at its payload.

    The file must hold exactly rows * columns f32 values after the header.
    """
    found, version, cols, rows, *extra, dtype = hdr.unpack(
        _read_exact(f, hdr.size, f"{what} header")
    )
    _check_header(found, magic, version)
    if dtype != 0:
        raise VersionUnsupported(f"unknown dtype code {dtype}")
    size, left = rows * cols * 4, os.fstat(f.fileno()).st_size - hdr.size
    if size > left:
        raise PayloadTruncated(f"{what} payload: expected {size} bytes, {left} left in file")
    if size < left:
        raise PayloadTruncated(f"trailing bytes after {what} payload")
    if rows and not cols:
        # No such row sums to 1, and its row sums would take 8 bytes a row.
        raise InvalidSimplex(f"{what}: {rows} rows of 0 columns")
    return rows, cols, extra


def _read_matrix(path, hdr: struct.Struct, magic: bytes, what: str) -> tuple[np.ndarray, list]:
    """The validated (rows, columns) matrix of a _write_matrix file, and its extra fields."""
    with open(path, "rb") as f:
        rows, cols, extra = _read_matrix_header(f, hdr, magic, what)
        payload = _read_exact(f, rows * cols * 4, f"{what} payload")
    mat = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(rows, cols)
    check_simplex(mat, what)
    return mat, extra


class StreamHeader(NamedTuple):
    """A stream file's header, named as PosteriorStream names its fields."""

    num_frames: int
    num_classes: int
    stream_id: int
    frame_offset: int


def write_stream(stream: PosteriorStream, path):
    _write_matrix(path, _STREAM_HDR, b"SATN", "stream", stream.probs, stream.stream_id,
                  stream.frame_offset)


def read_stream_header(path) -> StreamHeader:
    """A stream file's checked header (as read_stream checks it), without its payload."""
    with open(path, "rb", buffering=0) as f:  # one small read: skip the buffer
        T, C, (sid, offset) = _read_matrix_header(f, _STREAM_HDR, b"SATN", "stream")
    return StreamHeader(T, C, sid, offset)


def read_stream(path) -> PosteriorStream:
    probs, (sid, offset) = _read_matrix(path, _STREAM_HDR, b"SATN", "stream")
    return PosteriorStream(probs=probs, stream_id=sid, frame_offset=offset)


def write_schedule(sched: AttentionSchedule, path):
    _write_matrix(path, _SCHED_HDR, b"SATW", "schedule", sched.weights)


def read_schedule(path) -> AttentionSchedule:
    return AttentionSchedule(_read_matrix(path, _SCHED_HDR, b"SATW", "schedule")[0])


_ACT_CODES = {"relu": 0, "linear": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


# Model format versions: 1 stored the layers as <f8 and no hash; 2 stores
# them as <f4, the dtype AeModel holds, and ends in a sha256.
MODEL_VERSION = 2
_MODEL_HDR = struct.Struct("<4sHIIdii")


def _model_parts(model: AeModel) -> Iterator[bytes | np.ndarray]:
    """A model file's contents before its sha256, in order: header, front end,
    then each layer's header, weights and bias."""
    fe = model.front_end
    yield _MODEL_HDR.pack(b"STAE", MODEL_VERSION, *fe.pca_basis.shape, LOGIT_CLAMP,
                          *model.context)
    yield from (np.ascontiguousarray(arr, "<f8") for arr in (fe.pca_mean, fe.pca_basis))
    yield struct.pack("<H", len(model.layers))
    for ly in model.layers:
        yield struct.pack(f"<IIBH{len(ly.offsets)}i", *ly.weight.shape,
                          _ACT_CODES[ly.activation], len(ly.offsets), *ly.offsets)
        yield from (np.ascontiguousarray(arr, "<f4") for arr in (ly.weight, ly.bias))


def _sha256(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h


def write_model(model: AeModel, path):
    parts = list(_model_parts(model))  # the model's own arrays, not copies
    with open(path, "wb") as f:
        f.writelines(parts)
        f.write(_sha256(parts).digest())


def model_digest(model: AeModel) -> str:
    """The model's identity: the first 16 hex digits of the sha256 its file ends in."""
    return _sha256(_model_parts(model)).hexdigest()[:16]


def _read_array(f, h, shape: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
    """The next prod(shape) values of dtype in f, all finite; h takes their bytes."""
    _check_left(f, math.prod(shape) * np.dtype(dtype).itemsize, what)  # then allocate
    arr = np.empty(shape, dtype)
    f.readinto(arr)  # the bytes are there: _check_left saw them
    if not finite_as(arr, arr.dtype):
        raise FormatError(f"{what}: non-finite values")
    h.update(arr)
    return arr


def _check_layer_chain(layers: list[Layer], K: int) -> None:
    """FormatError naming the layer unless each layer's fan_in is the width before
    it (K for layer 0) times its offset count, and the last width is K."""
    if not layers:
        raise FormatError("model has no layers")
    width = K
    for i, ly in enumerate(layers):
        if ly.weight.shape[0] != width * len(ly.offsets):
            raise FormatError(f"layer {i}: fan_in {ly.weight.shape[0]} is not input width "
                              f"{width} x offset count {len(ly.offsets)}")
        width = ly.weight.shape[1]
    if width != K:
        raise FormatError(f"layer {len(layers) - 1}: width {width} is not the front end's K={K}")


def read_model(path) -> AeModel:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        read = functools.partial(_read_exact, f, h=h)
        magic, version, C, K, clamp, left, right = _MODEL_HDR.unpack(
            read(_MODEL_HDR.size, "model header"))
        _check_header(magic, b"STAE", version, MODEL_VERSION,
                      f"; retrain the model with train-ae, which writes version {MODEL_VERSION}")
        mean = _read_array(f, h, (C,), "<f8", "pca mean")
        basis = _read_array(f, h, (C, K), "<f8", "pca basis")
        (num_layers,) = struct.unpack("<H", read(2, "layer count"))
        layers = []
        for i in range(num_layers):
            fan_in, width, act, n_off = struct.unpack("<IIBH", read(11, f"layer {i} header"))
            if act not in _ACT_NAMES:
                raise VersionUnsupported(f"unknown activation code {act}")
            offsets = struct.unpack(f"<{n_off}i", read(4 * n_off, f"layer {i} offsets"))
            w = _read_array(f, h, (fan_in, width), "<f4", f"layer {i} weights")
            b = _read_array(f, h, (width,), "<f4", f"layer {i} bias")
            layers.append(Layer(weight=w, bias=b, activation=_ACT_NAMES[act], offsets=offsets))
        stored = f.read(h.digest_size + 1)  # one more, to see trailing bytes
        if len(stored) != h.digest_size:
            raise PayloadTruncated(f"model sha256: expected {h.digest_size} bytes to end the file")
    _check_layer_chain(layers, K)
    if stored != h.digest():
        raise FormatError("model sha256: not the hash of the bytes before it, so they changed")
    if clamp != LOGIT_CLAMP:
        raise FormatError(f"model logit_clamp is {clamp!r}, not the front end's {LOGIT_CLAMP!r}; "
                          "retrain the model with train-ae")
    return AeModel(front_end=FrontEnd(pca_mean=mean, pca_basis=basis), layers=layers,
                   context=(left, right))
