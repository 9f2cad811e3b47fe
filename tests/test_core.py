"""Core types and checks: ranges, simplex rows, alignment, fusion and n-best truncation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_SIMPLEX,
    random_schedule,
    random_simplex,
    random_stream,
    random_stream_set,
)
from streamfuse.aemonitor import TRAIN_RANGES, TrainConfig
from streamfuse.core import (
    AttentionSchedule,
    PosteriorStream,
    StreamSet,
    align_streams,
    check_range,
    check_simplex,
    fuse,
    n_best_truncate,
    overlap_range,
)
from streamfuse.errors import DimensionMismatch, InvalidN, InvalidSimplex, OverlapEmpty
from streamfuse.simulator import SPEC_RANGES, CorpusSpec, CorruptionProfile

_SPEC = dict(num_utterances=2, frames_min=5, frames_max=9, num_classes=3, num_streams=2, seed=0)

# (setting, a call that sets it to the value it is given): every setting
# the library range-checks.
_RANGED = [
    *((name, lambda v, name=name: CorpusSpec(**{**_SPEC, name: v})) for name in SPEC_RANGES),
    *((name, lambda v, name=name: TrainConfig(**{name: v})) for name in TRAIN_RANGES),
    *((name, lambda v, name=name: CorruptionProfile(**{name: v}))
      for name in ("uniform_mix", "smear_width")),
]


class TestCheckRange:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name, build", _RANGED, ids=[name for name, _ in _RANGED])
    def test_non_finite_setting_rejected(self, name, build, value):
        with pytest.raises(ValueError, match=f"^{name}={value!r} is not a finite number in "):
            build(value)

    def test_closed_range_and_unbounded_ints(self):
        check_range("x", 0.0, (0.0, 1.0))
        check_range("x", 1.0, (0.0, 1.0))
        check_range("x", 10**400, (1, math.inf))  # exact int comparison, no float cast
        with pytest.raises(ValueError, match=r"^x=1.5 is not a finite number in \[0.0, 1.0\]$"):
            check_range("x", 1.5, (0.0, 1.0))


class TestCheckSimplex:
    @BAD_SIMPLEX
    def test_bad_rows_rejected(self, bad):
        with pytest.raises(InvalidSimplex, match="^probs: "):
            check_simplex(bad, "probs")

    def test_returns_row_sums_within_atol(self):
        mat = np.array([[0.5, 0.5 + 5e-7], [1.0, 0.0]])
        np.testing.assert_array_equal(check_simplex(mat, "probs"), mat.sum(axis=1))
        with pytest.raises(InvalidSimplex, match="row 0 sums to 1.00000050"):
            check_simplex(mat, "probs", atol=1e-7)
        assert check_simplex(np.empty((0, 3)), "probs").shape == (0,)


class TestAlignment:
    def test_zero_offsets_identity(self, rng):
        sset = random_stream_set(rng, 2, 10, 3)
        out = align_streams(sset)
        for a, b in zip(out.streams, sset.streams):
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_offset_two_truncates_to_98(self, rng):
        s0 = random_stream(rng, 100, 3, stream_id=0, frame_offset=0)
        s1 = random_stream(rng, 100, 3, stream_id=1, frame_offset=2)
        out = align_streams(StreamSet([s0, s1]))
        assert all(s.num_frames == 98 for s in out.streams)
        assert all(s.frame_offset == 0 for s in out.streams)
        # Reference frame k lives at index k + offset, so the aligned copy of
        # stream 1 starts at its own index 2.
        np.testing.assert_array_equal(out.streams[0].probs, s0.probs[:98])
        np.testing.assert_array_equal(out.streams[1].probs, s1.probs[2:])

    def test_disjoint_offsets_raise(self, rng):
        s0 = random_stream(rng, 50, 3, frame_offset=0)
        s1 = random_stream(rng, 50, 3, frame_offset=200)
        with pytest.raises(OverlapEmpty):
            align_streams(StreamSet([s0, s1]))

    def test_overlap_range_symmetric_offsets(self, rng):
        s0 = random_stream(rng, 10, 2, frame_offset=-2)
        s1 = random_stream(rng, 10, 2, frame_offset=2)
        lo, length = overlap_range(StreamSet([s0, s1]))
        # Stream 1 covers reference frames -2..7, stream 0 covers 2..11.
        assert (lo, length) == (2, 6)

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_align_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        offsets = rng.integers(-3, 4, size=3)
        sset = StreamSet(
            [
                random_stream(rng, int(rng.integers(10, 20)), 3, stream_id=m, frame_offset=int(o))
                for m, o in enumerate(offsets)
            ]
        )
        try:
            once = align_streams(sset)
        except OverlapEmpty:
            return
        twice = align_streams(once)
        assert once.aligned()
        for a, b in zip(once.streams, twice.streams):
            np.testing.assert_array_equal(a.probs, b.probs)


class TestFuse:
    def test_equal_weights_average(self, rng):
        sset = random_stream_set(rng, 2, 4, 3)
        sched = AttentionSchedule(np.full((4, 2), 0.5))
        fused = fuse(sset, sched)
        expect = 0.5 * (sset.streams[0].probs + sset.streams[1].probs)
        np.testing.assert_allclose(fused.probs, expect, atol=1e-12)

    def test_one_hot_weights_select_stream(self, rng):
        sset = random_stream_set(rng, 3, 5, 4)
        w = np.zeros((5, 3))
        w[:, 1] = 1.0
        fused = fuse(sset, AttentionSchedule(w))
        np.testing.assert_allclose(fused.probs, sset.streams[1].probs, atol=1e-12)

    def test_identical_streams_fixed_point(self, rng):
        s = random_stream(rng, 6, 3)
        sset = StreamSet([PosteriorStream(s.probs.copy(), stream_id=m) for m in range(3)])
        fused = fuse(sset, random_schedule(rng, 6, 3))
        np.testing.assert_allclose(fused.probs, s.probs, atol=1e-12)

    def test_requires_alignment(self, rng):
        s0 = random_stream(rng, 5, 3, frame_offset=1)
        s1 = random_stream(rng, 5, 3)
        with pytest.raises(DimensionMismatch):
            fuse(StreamSet([s0, s1]), random_schedule(rng, 5, 2))

    def test_shape_mismatches(self, rng):
        sset = random_stream_set(rng, 2, 5, 3)
        with pytest.raises(DimensionMismatch):
            fuse(sset, random_schedule(rng, 4, 2))  # wrong T
        with pytest.raises(DimensionMismatch):
            fuse(sset, random_schedule(rng, 5, 3))  # wrong M

    @BAD_SIMPLEX
    def test_bad_stream_rejected(self, rng, bad):
        # All weight on the bad stream: its rows are the fused rows.
        good = np.full(bad.shape, 0.5)  # the table's matrices have 2 or 0 columns
        sset = StreamSet([PosteriorStream(bad), PosteriorStream(good, stream_id=1)])
        with pytest.raises(InvalidSimplex, match="^fused stream: "):
            fuse(sset, AttentionSchedule(np.array([[1.0, 0.0], [1.0, 0.0]])))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_stream_rejected_at_zero_weight(self, rng, value):
        bad = random_simplex(rng, 2, 3)
        bad[1, 2] = value
        sset = StreamSet([PosteriorStream(bad), random_stream(rng, 2, 3, stream_id=1)])
        with pytest.raises(InvalidSimplex, match="^fused stream: "):
            fuse(sset, AttentionSchedule(np.array([[0.0, 1.0], [0.0, 1.0]])))

    @BAD_SIMPLEX
    def test_bad_schedule_rejected(self, rng, bad):
        sset = random_stream_set(rng, 2, 2, 3)
        # A schedule of 0 columns weights no stream: its shape fails first.
        expected = InvalidSimplex if bad.shape[1] else DimensionMismatch
        with pytest.raises(expected):
            fuse(sset, AttentionSchedule(bad))

    def test_negative_schedule_not_renormalized_away(self, rng):
        sset = random_stream_set(rng, 2, 2, 3)
        with pytest.raises(InvalidSimplex, match="^schedule: negative"):
            fuse(sset, AttentionSchedule(np.full((2, 2), -3.0)))

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_fused_rows_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        M, T, C = int(rng.integers(2, 5)), int(rng.integers(1, 10)), int(rng.integers(2, 6))
        fused = fuse(random_stream_set(rng, M, T, C), random_schedule(rng, T, M))
        assert np.all(fused.probs >= 0)
        np.testing.assert_allclose(fused.probs.sum(axis=1), 1.0, atol=1e-12)

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_fuse_matches_weighted_sum(self, seed):
        rng = np.random.default_rng(seed)
        sset = random_stream_set(rng, 3, 6, 4)
        sched = random_schedule(rng, 6, 3)
        fused = fuse(sset, sched)
        expect = sum(
            sched.weights[:, m : m + 1] * sset.streams[m].probs for m in range(3)
        )
        np.testing.assert_allclose(fused.probs, expect, atol=1e-12)

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_fuse_stream_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        sset = random_stream_set(rng, 4, 5, 3)
        sched = random_schedule(rng, 5, 4)
        perm = rng.permutation(4)
        psset = StreamSet([sset.streams[m] for m in perm])
        psched = AttentionSchedule(sched.weights[:, perm])
        np.testing.assert_allclose(
            fuse(sset, sched).probs, fuse(psset, psched).probs, atol=1e-12
        )


class TestNBest:
    def test_two_best_of_three(self):
        sched = AttentionSchedule(np.array([[0.5, 0.3, 0.2]]))
        out = n_best_truncate(sched, 2)
        np.testing.assert_allclose(out.weights, [[0.625, 0.375, 0.0]], atol=1e-12)

    def test_n_one_winner_takes_all(self):
        sched = AttentionSchedule(np.array([[0.2, 0.5, 0.3]]))
        np.testing.assert_allclose(n_best_truncate(sched, 1).weights, [[0.0, 1.0, 0.0]])

    def test_n_equals_m_identity(self, rng):
        sched = random_schedule(rng, 5, 3)
        np.testing.assert_array_equal(n_best_truncate(sched, 3).weights, sched.weights)

    def test_out_of_range_n(self, rng):
        sched = random_schedule(rng, 5, 3)
        for n in (0, 4, -1, math.nan):
            message = re.escape(f"n={n!r} is not a finite number in [1, 3]")
            with pytest.raises(InvalidN, match=message):
                n_best_truncate(sched, n)

    def test_tie_keeps_lowest_index(self):
        sched = AttentionSchedule(np.array([[0.25, 0.25, 0.25, 0.25]]))
        np.testing.assert_allclose(
            n_best_truncate(sched, 2).weights, [[0.5, 0.5, 0.0, 0.0]], atol=1e-12
        )

    @settings(deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_nbest_preserves_argmax_and_simplex(self, seed, n):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(n, 6))
        sched = random_schedule(rng, 8, M)
        out = n_best_truncate(sched, min(n, M))
        np.testing.assert_allclose(out.weights.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(
            np.argmax(out.weights, axis=1), np.argmax(sched.weights, axis=1)
        )
        assert np.all(np.count_nonzero(out.weights, axis=1) <= min(n, M))
