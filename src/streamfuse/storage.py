"""Bit-exact persistence for streams, schedules and models.

Byte layouts (all little-endian):

stream file ("SATN"):
    magic 4s | version u16 | C u32 | T u32 | stream_id u32 | frame_offset i32
    | dtype u8 (0 = f32) | payload T*C f32

schedule file ("SATW"):
    magic 4s | version u16 | M u32 | T u32 | dtype u8 (0 = f32)
    | payload T*M f32

model file ("STAE"):
    magic 4s | version u16 | C u32 | K u32 | logit_clamp f64
    | context_left i32 | context_right i32
    | pca_mean C f64 | pca_basis C*K f64 (row-major)
    | num_layers u16, then per layer:
      fan_in u32 | width u32 | activation u8 (0 relu, 1 linear)
      | num_offsets u16 | offsets i32... | weight row-major f64 | bias f64

Stream and schedule readers check the fixed-size header first: magic,
version, dtype code, and a file size of exactly header + rows * columns * 4
bytes, so a hostile row or column count fails before any payload is read
or allocated.  read_stream_header stops there, which lets a corpus check
every stream's shape at load and read its payload only on use.  Readers
of a payload then run core.check_simplex on its rows (finite, >= 0, sum
within SIMPLEX_ATOL = 1e-6 of 1) and return them as stored.  Writers run
the same check before they open the file and store the rows cast to f32,
so no writer makes a file its reader rejects, and write -> read -> write
gives the same bytes.  The model reader rejects a value that is not finite
in the dtype it is held in (float32 for layers), and a layer stack that
does not chain: no layers, a fan_in other than the previous width (K for
layer 0) times the layer's offset count, or a last width other than K.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .aemonitor import AeModel, FrontEnd, Layer
from .core import AttentionSchedule, PosteriorStream, check_simplex, finite_as
from .errors import (
    BadMagic,
    FormatError,
    InvalidSimplex,
    PayloadTruncated,
    VersionUnsupported,
)

VERSION = 1

_STREAM_HDR = struct.Struct("<4sHIIIiB")
_SCHED_HDR = struct.Struct("<4sHIIB")


def _check_left(f, n: int, what: str) -> None:
    """PayloadTruncated unless n more bytes are left in f.

    Sizes come from untrusted headers: compare with what the file holds
    before asking read() for them, which could overflow or allocate hugely.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise PayloadTruncated(f"{what}: expected {n} bytes, {max(left, 0)} left in file")


def _read_exact(f, n: int, what: str) -> bytes:
    _check_left(f, n, what)
    buf = f.read(n)
    if len(buf) != n:
        raise PayloadTruncated(f"{what}: expected {n} bytes, got {len(buf)}")
    return buf


def _check_header(magic: bytes, expect: bytes, version: int):
    if magic != expect:
        raise BadMagic(f"expected magic {expect!r}, found {magic!r}")
    if version != VERSION:
        raise VersionUnsupported(f"version {version} not supported")


def _write_matrix(path, hdr: struct.Struct, magic: bytes, what: str, mat: np.ndarray, *extra):
    """Header (magic, version, columns, rows, *extra, dtype 0) and an f32 payload.

    The rows are checked first, so a matrix the reader would reject is never written.
    """
    check_simplex(mat, what)
    with open(path, "wb") as f:
        f.write(hdr.pack(magic, VERSION, mat.shape[1], mat.shape[0], *extra, 0))
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


def _signed(sid: int) -> int:
    return sid if sid < 0x80000000 else sid - 0x100000000


def write_stream(stream: PosteriorStream, path):
    sid = stream.stream_id & 0xFFFFFFFF  # u32 on disk; the readers restore the sign
    _write_matrix(path, _STREAM_HDR, b"SATN", "stream", stream.probs, sid, stream.frame_offset)


def read_stream_header(path) -> StreamHeader:
    """A stream file's checked header (as read_stream checks it), without its payload."""
    with open(path, "rb", buffering=0) as f:  # one small read: skip the buffer
        T, C, (sid, offset) = _read_matrix_header(f, _STREAM_HDR, b"SATN", "stream")
    return StreamHeader(T, C, _signed(sid), offset)


def read_stream(path) -> PosteriorStream:
    probs, (sid, offset) = _read_matrix(path, _STREAM_HDR, b"SATN", "stream")
    return PosteriorStream(probs=probs, stream_id=_signed(sid), frame_offset=offset)


def write_schedule(sched: AttentionSchedule, path):
    _write_matrix(path, _SCHED_HDR, b"SATW", "schedule", sched.weights)


def read_schedule(path) -> AttentionSchedule:
    return AttentionSchedule(_read_matrix(path, _SCHED_HDR, b"SATW", "schedule")[0])


_ACT_CODES = {"relu": 0, "linear": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


# Values of a model array converted to or from <f8 at a time (f8_chunks,
# _read_f8), instead of a <f8 copy of a whole float32 layer: 6.3 MB for
# layer 1 at the published widths.
_F8_CHUNK = 1 << 16


def f8_chunks(arr: np.ndarray) -> Iterator[np.ndarray]:
    """An array's values in row-major order as <f8, as model files store
    them, _F8_CHUNK values at a time."""
    flat = arr.reshape(-1)  # a view of a C-ordered array
    for i in range(0, flat.size, _F8_CHUNK):
        yield flat[i : i + _F8_CHUNK].astype("<f8")


def write_model(model: AeModel, path):
    fe = model.front_end
    C, K = fe.pca_basis.shape
    with open(path, "wb") as f:
        f.write(struct.pack("<4sHIId", b"STAE", VERSION, C, K, fe.logit_clamp))
        f.write(struct.pack("<ii", model.context[0], model.context[1]))
        f.writelines(f8_chunks(fe.pca_mean))
        f.writelines(f8_chunks(fe.pca_basis))
        f.write(struct.pack("<H", len(model.layers)))
        for ly in model.layers:
            fan_in, width = ly.weight.shape
            f.write(
                struct.pack(
                    "<IIBH", fan_in, width, _ACT_CODES[ly.activation], len(ly.offsets)
                )
            )
            f.write(struct.pack(f"<{len(ly.offsets)}i", *ly.offsets))
            f.writelines(f8_chunks(ly.weight))
            f.writelines(f8_chunks(ly.bias))


def _read_f8(f, shape: tuple[int, ...], what: str, held=np.float64) -> np.ndarray:
    """The next prod(shape) f8 values of f as an array of that shape and dtype
    held, every one finite in held (float32 for layers: f8 widens them exactly).

    Read _F8_CHUNK values at a time, so no <f8 copy of a whole float32
    layer is made.
    """
    n = math.prod(shape)
    _check_left(f, n * 8, what)
    out = np.empty(n, held)
    for i in range(0, n, _F8_CHUNK):
        arr = np.frombuffer(_read_exact(f, min(_F8_CHUNK, n - i) * 8, what), dtype="<f8")
        if not finite_as(arr, held):
            raise FormatError(f"{what}: non-finite values as {np.dtype(held).name}")
        out[i : i + arr.size] = arr
    return out.reshape(shape)


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
    with open(path, "rb") as f:
        hdr = struct.Struct("<4sHIId")
        magic, version, C, K, clamp = hdr.unpack(_read_exact(f, hdr.size, "model header"))
        _check_header(magic, b"STAE", version)
        left, right = struct.unpack("<ii", _read_exact(f, 8, "model context"))
        mean = _read_f8(f, (C,), "pca mean")
        basis = _read_f8(f, (C, K), "pca basis")
        (num_layers,) = struct.unpack("<H", _read_exact(f, 2, "layer count"))
        layers = []
        for i in range(num_layers):
            fan_in, width, act, n_off = struct.unpack(
                "<IIBH", _read_exact(f, 11, f"layer {i} header")
            )
            if act not in _ACT_NAMES:
                raise VersionUnsupported(f"unknown activation code {act}")
            offsets = struct.unpack(
                f"<{n_off}i", _read_exact(f, 4 * n_off, f"layer {i} offsets")
            )
            w = _read_f8(f, (fan_in, width), f"layer {i} weights", np.float32)
            b = _read_f8(f, (width,), f"layer {i} bias", np.float32)
            layers.append(Layer(weight=w, bias=b, activation=_ACT_NAMES[act], offsets=offsets))
        if f.read(1):
            raise PayloadTruncated("trailing bytes after model payload")
    _check_layer_chain(layers, K)
    try:
        fe = FrontEnd(pca_mean=mean, pca_basis=basis, logit_clamp=clamp)
    except ValueError as e:
        raise FormatError(f"model front end: {e}") from None
    return AeModel(front_end=fe, layers=layers, context=(left, right))
