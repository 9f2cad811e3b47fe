"""Bit-exact persistence for streams, schedules, manifests and models.

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

manifest: plain text, one record per line of whitespace-separated
key=value fields (utt, frames, oracle, profiles); profiles is a
semicolon-joined list of per-stream "lam:..,smear:..,fail:..,off:.."
entries.  Unknown fields raise ManifestError naming the line.

Readers validate simplex rows: a row whose sum is further than 1e-6 from 1
is rejected; rows inside the tolerance but beyond float32 promotion noise
(1e-7) are renormalized; rows within promotion noise are kept untouched so
write -> read -> write is byte-stable.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .aemonitor import AeModel, FrontEnd, Layer
from .core import SIMPLEX_ATOL, AttentionSchedule, PosteriorStream
from .errors import (
    BadMagic,
    InvalidSimplex,
    ManifestError,
    PayloadTruncated,
    VersionUnsupported,
)
from .simulator import CorruptionProfile

VERSION = 1
# Rows closer to 1 than this are left untouched on read (float32 promotion
# noise); between this and SIMPLEX_ATOL they get renormalized.
_EXACT_ATOL = 1e-7

_STREAM_HDR = struct.Struct("<4sHIIIiB")
_SCHED_HDR = struct.Struct("<4sHIIB")


def _read_exact(f, n: int, what: str) -> bytes:
    # Sizes come from untrusted headers: compare with what the file holds
    # before asking read() for them, which could overflow or allocate hugely.
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise PayloadTruncated(f"{what}: expected {n} bytes, {max(left, 0)} left in file")
    buf = f.read(n)
    if len(buf) != n:
        raise PayloadTruncated(f"{what}: expected {n} bytes, got {len(buf)}")
    return buf


def _check_header(magic: bytes, expect: bytes, version: int):
    if magic != expect:
        raise BadMagic(f"expected magic {expect!r}, found {magic!r}")
    if version != VERSION:
        raise VersionUnsupported(f"version {version} not supported")


def _validate_rows(mat: np.ndarray, what: str) -> np.ndarray:
    if np.any(mat < 0) or not np.all(np.isfinite(mat)):
        raise InvalidSimplex(f"{what}: negative or non-finite entries")
    sums = mat.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > SIMPLEX_ATOL):
        t = int(np.argmax(off))
        raise InvalidSimplex(f"{what}: row {t} sums to {sums[t]:.8f}")
    fix = off > _EXACT_ATOL
    if np.any(fix):
        mat[fix] /= sums[fix, None]
    return mat


def _to_f32_payload(mat: np.ndarray) -> np.ndarray:
    """Cast rows to f32 so their promoted row sums stay inside _EXACT_ATOL.

    Casting alone can leave float32 row sums a few ulps off 1, which would
    make the reader renormalize and break write -> read -> write stability;
    a couple of renormalize-and-recast passes reaches a fixed point.
    """
    out = np.ascontiguousarray(mat, dtype="<f4")
    for _ in range(4):
        sums = out.astype(np.float64).sum(axis=1)
        bad = np.abs(sums - 1.0) > _EXACT_ATOL
        if not np.any(bad):
            break
        out[bad] = (out[bad].astype(np.float64) / sums[bad, None]).astype("<f4")
    return out


def write_stream(stream: PosteriorStream, path):
    with open(path, "wb") as f:
        f.write(
            _STREAM_HDR.pack(
                b"SATN",
                VERSION,
                stream.num_classes,
                stream.num_frames,
                stream.stream_id & 0xFFFFFFFF,
                stream.frame_offset,
                0,
            )
        )
        f.write(_to_f32_payload(stream.probs).tobytes())


def read_stream(path) -> PosteriorStream:
    with open(path, "rb") as f:
        magic, version, C, T, sid, offset, dtype = _STREAM_HDR.unpack(
            _read_exact(f, _STREAM_HDR.size, "stream header")
        )
        _check_header(magic, b"SATN", version)
        if dtype != 0:
            raise VersionUnsupported(f"unknown dtype code {dtype}")
        payload = _read_exact(f, T * C * 4, "stream payload")
        if f.read(1):
            raise PayloadTruncated("trailing bytes after stream payload")
    probs = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(T, C)
    probs = _validate_rows(probs, "stream")
    sid = sid if sid < 0x80000000 else sid - 0x100000000
    return PosteriorStream(probs=probs, stream_id=sid, frame_offset=offset)


def write_schedule(sched: AttentionSchedule, path):
    with open(path, "wb") as f:
        f.write(
            _SCHED_HDR.pack(b"SATW", VERSION, sched.num_streams, sched.num_frames, 0)
        )
        f.write(_to_f32_payload(sched.weights).tobytes())


def read_schedule(path) -> AttentionSchedule:
    with open(path, "rb") as f:
        magic, version, M, T, dtype = _SCHED_HDR.unpack(
            _read_exact(f, _SCHED_HDR.size, "schedule header")
        )
        _check_header(magic, b"SATW", version)
        if dtype != 0:
            raise VersionUnsupported(f"unknown dtype code {dtype}")
        payload = _read_exact(f, T * M * 4, "schedule payload")
        if f.read(1):
            raise PayloadTruncated("trailing bytes after schedule payload")
    w = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(T, M)
    return AttentionSchedule(_validate_rows(w, "schedule"))


_ACT_CODES = {"relu": 0, "linear": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


def write_model(model: AeModel, path):
    fe = model.front_end
    C, K = fe.pca_basis.shape
    with open(path, "wb") as f:
        f.write(struct.pack("<4sHIId", b"STAE", VERSION, C, K, fe.logit_clamp))
        f.write(struct.pack("<ii", model.context[0], model.context[1]))
        f.write(np.ascontiguousarray(fe.pca_mean, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(fe.pca_basis, dtype="<f8").tobytes())
        f.write(struct.pack("<H", len(model.layers)))
        for ly in model.layers:
            fan_in, width = ly.weight.shape
            f.write(
                struct.pack(
                    "<IIBH", fan_in, width, _ACT_CODES[ly.activation], len(ly.offsets)
                )
            )
            f.write(struct.pack(f"<{len(ly.offsets)}i", *ly.offsets))
            f.write(np.ascontiguousarray(ly.weight, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(ly.bias, dtype="<f8").tobytes())


def read_model(path) -> AeModel:
    with open(path, "rb") as f:
        hdr = struct.Struct("<4sHIId")
        magic, version, C, K, clamp = hdr.unpack(_read_exact(f, hdr.size, "model header"))
        _check_header(magic, b"STAE", version)
        left, right = struct.unpack("<ii", _read_exact(f, 8, "model context"))
        mean = np.frombuffer(_read_exact(f, C * 8, "pca mean"), dtype="<f8").copy()
        basis = (
            np.frombuffer(_read_exact(f, C * K * 8, "pca basis"), dtype="<f8")
            .reshape(C, K)
            .copy()
        )
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
            w = (
                np.frombuffer(
                    _read_exact(f, fan_in * width * 8, f"layer {i} weights"), dtype="<f8"
                )
                .reshape(fan_in, width)
                .copy()
            )
            b = np.frombuffer(
                _read_exact(f, width * 8, f"layer {i} bias"), dtype="<f8"
            ).copy()
            layers.append(Layer(weight=w, bias=b, activation=_ACT_NAMES[act], offsets=offsets))
        if f.read(1):
            raise PayloadTruncated("trailing bytes after model payload")
    fe = FrontEnd(pca_mean=mean, pca_basis=basis, logit_clamp=clamp)
    return AeModel(front_end=fe, layers=layers, context=(left, right))


@dataclass
class UtteranceRecord:
    utt_id: int
    num_frames: int
    oracle_stream: int
    profiles: list[CorruptionProfile]


def _profile_to_text(p: CorruptionProfile) -> str:
    return f"lam:{p.uniform_mix!r},smear:{p.smear_width},fail:{int(p.fail)},off:{p.offset}"


def _profile_from_text(text: str, lineno: int) -> CorruptionProfile:
    fields = {}
    for part in text.split(","):
        try:
            key, val = part.split(":", 1)
        except ValueError:
            raise ManifestError(f"line {lineno}: bad profile token {part!r}") from None
        fields[key] = val
    try:
        profile = CorruptionProfile(
            uniform_mix=float(fields.pop("lam")),
            smear_width=int(fields.pop("smear")),
            fail=bool(int(fields.pop("fail"))),
            offset=int(fields.pop("off")),
        )
    except KeyError as e:
        raise ManifestError(f"line {lineno}: profile missing field {e}") from None
    if fields:
        raise ManifestError(
            f"line {lineno}: unknown profile field {sorted(fields)[0]!r}"
        )
    return profile


def write_manifest(records: list[UtteranceRecord], path):
    with open(path, "w") as f:
        for r in records:
            profs = ";".join(_profile_to_text(p) for p in r.profiles)
            f.write(
                f"utt={r.utt_id} frames={r.num_frames} oracle={r.oracle_stream} "
                f"profiles={profs}\n"
            )


_MANIFEST_KEYS = ("utt", "frames", "oracle", "profiles")


def read_manifest(path) -> list[UtteranceRecord]:
    records = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = {}
            for token in line.split():
                if "=" not in token:
                    raise ManifestError(f"line {lineno}: bad token {token!r}")
                key, val = token.split("=", 1)
                if key not in _MANIFEST_KEYS:
                    raise ManifestError(f"line {lineno}: unknown field {key!r}")
                fields[key] = val
            missing = [k for k in _MANIFEST_KEYS if k not in fields]
            if missing:
                raise ManifestError(f"line {lineno}: missing fields {missing}")
            try:
                profiles = [
                    _profile_from_text(p, lineno)
                    for p in fields["profiles"].split(";")
                ]
                records.append(
                    UtteranceRecord(
                        utt_id=int(fields["utt"]),
                        num_frames=int(fields["frames"]),
                        oracle_stream=int(fields["oracle"]),
                        profiles=profiles,
                    )
                )
            except ValueError as e:
                raise ManifestError(f"line {lineno}: {e}") from None
    return records
