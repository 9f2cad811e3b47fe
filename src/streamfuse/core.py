"""Domain types, stream alignment and the posterior re-weighting step.

A posterior stream is a T x C matrix whose rows live on the probability
simplex.  A stream set bundles M parallel streams (one per microphone); an
attention schedule assigns each frame a convex weight vector over the M
streams.  Fusion is the weighted sum of the per-stream posterior rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidN, InvalidSimplex, OverlapEmpty

# Absolute tolerance on simplex row sums.  Rows inside the tolerance are
# accepted (classifier outputs carry float noise); rows outside are rejected.
SIMPLEX_ATOL = 1e-6
# Floor inside logs; keeps 0 * log(0) terms finite without moving mass.
LOG_EPS = 1e-10


@dataclass
class PosteriorStream:
    """Per-frame class posteriors of one stream.

    probs: (T, C) float64 rows, meant to lie on the simplex; only the shape
        is checked here (check_simplex runs in storage and in fuse).
    frame_offset: signed shift (in frames) of this stream's content relative
        to the common time base; frame k of the reference appears at index
        k + frame_offset of this stream.
    """

    probs: np.ndarray
    stream_id: int = 0
    frame_offset: int = 0

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise DimensionMismatch("stream probs must be a (T, C) matrix")

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


@dataclass
class StreamSet:
    """M parallel posterior streams sharing a class alphabet."""

    streams: list[PosteriorStream]

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    @property
    def num_classes(self) -> int:
        return self.streams[0].num_classes

    def aligned(self) -> bool:
        return all(s.frame_offset == 0 for s in self.streams) and (
            len({s.num_frames for s in self.streams}) == 1
        )


@dataclass
class AttentionSchedule:
    """Per-frame convex weights over streams: (T, M), shape checked here only."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise DimensionMismatch("schedule weights must be a (T, M) matrix")

    @property
    def num_frames(self) -> int:
        return self.weights.shape[0]

    @property
    def num_streams(self) -> int:
        return self.weights.shape[1]


def check_simplex(mat: np.ndarray, what: str, atol: float = SIMPLEX_ATOL) -> np.ndarray:
    """The row sums of mat (rows along its last axis), once each row is on the simplex.

    The package's one test of the rule: InvalidSimplex naming what unless
    every entry is finite and >= 0 and every row sums to 1 within atol.
    """
    sums = mat.sum(axis=-1)
    # NaN fails ">= 0"; +inf passes it but makes its row sum infinite.
    if not (np.all(mat >= 0) and np.all(np.isfinite(sums))):
        raise InvalidSimplex(f"{what}: negative or non-finite entries")
    off = np.abs(sums - 1.0)
    if np.any(off > atol):
        t = int(np.argmax(off))
        raise InvalidSimplex(f"{what}: row {t} sums to {sums.flat[t]:.8f}")
    return sums


def finite_as(arr: np.ndarray, dtype) -> bool:
    """Whether every value of arr is finite as dtype: no nan, none beyond its range.

    The package's one test of the rule, for arrays read from model files
    (in their own dtype) and for the layers an AeModel narrows to float32.
    """
    # Two reductions make no array as large as arr; a nan fails both tests.
    bound = np.finfo(dtype).max
    return bool(-bound <= arr.min(initial=0.0) and arr.max(initial=0.0) <= bound)


def renormalize_rows(mat: np.ndarray) -> np.ndarray:
    """Divide each row by its sum (rows assumed near the simplex already)."""
    return mat / mat.sum(axis=1, keepdims=True)


def inverse_weights(scores: np.ndarray, floor: float) -> np.ndarray:
    """1 / max(score, floor), normalized to sum to 1 along each row."""
    inv = 1.0 / np.maximum(scores, floor)
    return inv / inv.sum(axis=-1, keepdims=True)


def check_range(name: str, value, bounds: tuple, error=ValueError) -> None:
    """Raise error unless value is finite and lies in the closed range bounds = (lo, hi).

    The package's one closed-range test of a number: NaN, inf and -inf fail
    whatever the bounds, so hi = inf only leaves the range open above.
    """
    lo, hi = bounds
    if not (lo <= value <= hi and -math.inf < value < math.inf):
        raise error(f"{name}={value!r} is not a finite number in [{lo}, {hi}]")


def overlap_range(sset: StreamSet) -> tuple[int, int]:
    """Common reference-frame range implied by the stream offsets.

    Returns (lo, length): reference frame indices lo .. lo+length-1 are
    covered by every stream.  Raises OverlapEmpty when no frame is shared.
    """
    lo = 0
    hi = None
    for s in sset.streams:
        o = s.frame_offset
        lo = max(lo, -o)
        h = s.num_frames - 1 - o
        hi = h if hi is None else min(hi, h)
    lo = max(lo, 0)
    if hi is None or hi < lo:
        raise OverlapEmpty("stream offsets leave no common frame range")
    return lo, hi - lo + 1


def align_streams(sset: StreamSet) -> StreamSet:
    """Shift each stream by its offset and truncate to the overlap.

    Output streams all carry offset 0 and share length; applying the
    operation twice is a no-op.  Reference frame k of stream i lives at
    index k + offset_i, so the aligned index j maps to reference frame
    lo + j with (lo, length) = overlap_range(sset).  Each output's probs is
    a view of its input's rows, not a copy.
    """
    lo, length = overlap_range(sset)
    out = []
    for s in sset.streams:
        start = lo + s.frame_offset
        out.append(replace(s, probs=s.probs[start : start + length], frame_offset=0))
    return StreamSet(out)


def fuse(sset: StreamSet, sched: AttentionSchedule) -> PosteriorStream:
    """Per-frame convex combination of stream posteriors under the schedule.

    The schedule and the fused rows pass check_simplex; the inputs are not
    checked one by one: a NaN or infinite entry always reaches its fused row,
    a negative one once its weight moves that row off the simplex.
    """
    if not sset.aligned():
        raise DimensionMismatch("fuse requires an aligned stream set (all offsets 0)")
    T = sset.streams[0].num_frames
    if sched.num_frames != T:
        raise DimensionMismatch(
            f"schedule has {sched.num_frames} rows, streams have {T} frames"
        )
    if sched.num_streams != sset.num_streams:
        raise DimensionMismatch(
            f"schedule has {sched.num_streams} columns for {sset.num_streams} streams"
        )
    if len({s.num_classes for s in sset.streams}) > 1:
        raise DimensionMismatch("class-count mismatch across streams")
    check_simplex(sched.weights, "schedule")
    stacked = np.stack([s.probs for s in sset.streams])  # (M, T, C)
    fused = np.einsum("tm,mtc->tc", sched.weights, stacked)
    sums = check_simplex(fused, "fused stream")
    return PosteriorStream(probs=fused / sums[:, None], stream_id=-1)


def n_best_truncate(sched: AttentionSchedule, n: int) -> AttentionSchedule:
    """Keep the n largest weights per row, zero the rest, renormalize.

    Ties broken toward the lowest stream index; n=1 is winner-takes-all,
    n=M is the identity.
    """
    M = sched.num_streams
    check_range("n", n, (1, M), InvalidN)
    if n == M:
        return AttentionSchedule(sched.weights.copy())
    # Stable sort on descending weight keeps equal weights in index order.
    order = np.argsort(-sched.weights, axis=1, kind="stable")
    keep = order[:, :n]
    mask = np.zeros_like(sched.weights, dtype=bool)
    np.put_along_axis(mask, keep, True, axis=1)
    w = np.where(mask, sched.weights, 0.0)
    return AttentionSchedule(renormalize_rows(w))
