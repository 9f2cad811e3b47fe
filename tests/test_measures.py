"""Entropy, inverse-entropy weighting and the mean-time-distance measures."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import random_simplex, random_stream, random_stream_set
from streamfuse import measures
from streamfuse.core import PosteriorStream, StreamSet, inverse_weights
from streamfuse.errors import WindowTooShort
from streamfuse.measures import (
    ENTROPY_FLOOR,
    SPANS,
    binary_window_attention,
    check_fit,
    check_window,
    entropy_attention,
    entropy_rows,
    m_measure,
    symmetric_kld_rows,
)


def alternating_stream(T=100, p=0.9):
    rows = np.tile([[p, 1 - p], [1 - p, p]], (T // 2, 1))
    return PosteriorStream(probs=rows)


def with_spans(*ds):
    """measures.SPANS patched to ds, for streams shorter than the defaults
    need: a decorator or a with block."""
    return mock.patch.object(measures, "SPANS", ds)


def entropy(p) -> float:
    """entropy_rows of the 1-row matrix [p]."""
    return float(entropy_rows(np.array([p], dtype=np.float64))[0])


def frame_weights(frames) -> np.ndarray:
    """Inverse-entropy weights of one time instant, from M posterior rows."""
    ents = entropy_rows(np.array(frames, dtype=np.float64))
    return inverse_weights(ents[None], ENTROPY_FLOOR)[0]


def symmetric_kld(p, q) -> float:
    """symmetric_kld_rows of the 1-row matrices [p] and [q]."""
    return float(symmetric_kld_rows(np.array([p]), np.array([q]))[0])


class TestEntropy:
    def test_known_value(self):
        # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25) = 1.5 ln 2
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * math.log(2), rel=1e-12)

    def test_uniform_is_log_c(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4), rel=1e-12)

    def test_one_hot_near_zero(self):
        assert entropy([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-8)

    def test_rows_matches_scalar(self, rng):
        mat = random_simplex(rng, 7, 5)
        np.testing.assert_allclose(
            entropy_rows(mat), [ref.entropy_ref(r) for r in mat], atol=1e-12
        )

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_bounds_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 8))
        p = random_simplex(rng, 1, C)[0]
        h = entropy(p)
        assert -1e-9 <= h <= math.log(C) + 1e-9
        assert entropy(rng.permutation(p)) == pytest.approx(h, abs=1e-12)

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_mixing_toward_uniform_increases_entropy(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 8))
        p = random_simplex(rng, 1, C)[0]
        u = np.full(C, 1.0 / C)
        lams = sorted(rng.uniform(0, 1, size=2))
        h1 = entropy((1 - lams[0]) * p + lams[0] * u)
        h2 = entropy((1 - lams[1]) * p + lams[1] * u)
        assert h2 >= h1 - 1e-12


class TestInverseEntropyWeights:
    def test_equal_entropies_equal_weights(self):
        np.testing.assert_allclose(
            inverse_weights(np.array([[1.5, 1.5]]), ENTROPY_FLOOR), [[0.5, 0.5]]
        )

    def test_entropies_one_and_two(self):
        np.testing.assert_allclose(
            inverse_weights(np.array([[1.0, 2.0]]), ENTROPY_FLOOR), [[2 / 3, 1 / 3]], atol=1e-12
        )

    def test_one_hot_vs_uniform_floored(self):
        w = frame_weights([np.array([1.0, 0.0, 0.0, 0.0]), np.full(4, 0.25)])
        expect = ref.inverse_entropy_weights_ref([0.0, math.log(4)])
        np.testing.assert_allclose(w, expect, rtol=1e-9)
        assert w[0] > 0.999

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_simplex_and_order(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 6))
        frames = [random_simplex(rng, 1, 5)[0] for _ in range(M)]
        w = frame_weights(frames)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)
        ents = [entropy(f) for f in frames]
        # Lower entropy never gets the smaller weight.
        order = np.argsort(ents)
        assert np.all(np.diff(w[order]) <= 1e-12)


class TestSymmetricKld:
    def test_zero_on_equal(self, rng):
        p = random_simplex(rng, 1, 4)[0]
        assert symmetric_kld(p, p) == 0.0

    def test_known_value(self):
        # 2 * 0.8 * ln 9 for the (0.9, 0.1) vs (0.1, 0.9) pair.
        got = symmetric_kld(np.array([0.9, 0.1]), np.array([0.1, 0.9]))
        assert got == pytest.approx(1.6 * math.log(9), rel=1e-12)

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetric_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 7))
        p, q = random_simplex(rng, 2, C)
        assert symmetric_kld(p, q) == pytest.approx(symmetric_kld(q, p), rel=1e-12)
        assert symmetric_kld(p, q) >= 0.0
        assert symmetric_kld(p, q) == pytest.approx(
            ref.symmetric_kld_ref(p.tolist(), q.tolist()), rel=1e-9
        )


class TestMMeasure:
    def test_constant_stream_zero(self):
        s = PosteriorStream(np.tile([0.7, 0.2, 0.1], (80, 1)))
        assert m_measure(s) == pytest.approx(0.0, abs=1e-12)

    def test_alternating_stream_value(self):
        # Pairs at odd spans alternate between the two rows; even spans pair
        # identical rows.  Only span 5 of the defaults is odd.
        s = alternating_stream(100)
        expect = (1.6 * math.log(9)) / len(SPANS)
        assert m_measure(s) == pytest.approx(expect, rel=1e-9)

    @with_spans(2, 5, 7)
    def test_matches_reference(self, rng):
        s = random_stream(rng, 40, 3)
        expect = ref.m_measure_ref(s.probs.tolist(), (2, 5, 7))
        assert m_measure(s) == pytest.approx(expect, rel=1e-9)

    def test_window_too_short(self, rng):
        with pytest.raises(WindowTooShort):
            m_measure(random_stream(rng, 20, 3))  # max default span is 50

    @with_spans(1, 2)
    def test_windowed_average_weighted_by_length(self, rng):
        s = random_stream(rng, 25, 3)
        # Windows are [0,10), [10,25) (short tail joins the last window).
        v1 = ref.m_measure_ref(s.probs[:10].tolist(), (1, 2))
        v2 = ref.m_measure_ref(s.probs[10:].tolist(), (1, 2))
        expect = (10 * v1 + 15 * v2) / 25
        assert m_measure(s, 10) == pytest.approx(expect, rel=1e-9)

    @with_spans(1, 3)
    def test_class_permutation_invariant(self, rng):
        s = random_stream(rng, 30, 4)
        perm = rng.permutation(4)
        sp = PosteriorStream(s.probs[:, perm])
        assert m_measure(s) == pytest.approx(m_measure(sp), rel=1e-12)

    @settings(deadline=None)
    @given(T=st.integers(1, 300), window=st.one_of(st.none(), st.integers(1, 300)))
    def test_check_fit_reads_the_shortest_window(self, T, window):
        shortest = min(b - a for a, b in measures._window_bounds(T, window))
        scope = "over the utterance" if window is None else f"window={window}"
        if shortest >= 51:
            check_fit(T, window)
            return
        with pytest.raises(WindowTooShort) as e:
            check_fit(T, window)
        assert str(e.value) == (f"window of {shortest} frames cannot host span 50 "
                                f"(M-measure {scope}, spans=5,10,20,30,40,50)")

    @with_spans(1, 10)
    def test_config_validation(self):
        with pytest.raises(ValueError, match=r"^window must be >= max\(spans\) \+ 1$"):
            check_window(10)
        with pytest.raises(ValueError, match=r"^window must be >= max\(spans\) \+ 1$"):
            m_measure(alternating_stream(40), 10)  # window_scores checks the window too
        check_window(11)
        check_window(None)


class TestDeltaMMeasure:
    def test_constant_stream_zero(self):
        s = PosteriorStream(np.tile([0.7, 0.3], (80, 1)))
        assert m_measure(s, delta=True) == pytest.approx(0.0, abs=1e-12)

    def test_equals_m_when_every_pair_changes_argmax(self):
        # Alternating stream: every odd-span pair flips argmax, every
        # even-span pair is identical (zero divergence both ways).
        s = alternating_stream(100)
        assert m_measure(s, delta=True) == pytest.approx(m_measure(s), rel=1e-12)

    @with_spans(1, 2)
    def test_zero_when_argmax_never_changes(self):
        rows = np.tile([[0.9, 0.1], [0.6, 0.4]], (40, 1))
        s = PosteriorStream(rows)
        assert m_measure(s, delta=True) == 0.0
        assert m_measure(s) > 0.1

    @with_spans(2, 5, 7)
    def test_matches_gated_reference(self, rng):
        s = random_stream(rng, 40, 3)
        expect = ref.m_measure_ref(s.probs.tolist(), (2, 5, 7), gate_on_argmax=True)
        assert m_measure(s, delta=True) == pytest.approx(expect, rel=1e-9)


class TestBinaryWindowAttention:
    @with_spans(1, 3)
    def test_dynamic_stream_wins(self, rng):
        flat = PosteriorStream(np.tile([0.5, 0.5], (40, 1)), stream_id=0)
        dyn = PosteriorStream(alternating_stream(40).probs, stream_id=1)
        sched = binary_window_attention(StreamSet([flat, dyn]))
        np.testing.assert_array_equal(sched.weights, np.tile([0.0, 1.0], (40, 1)))

    @with_spans(1, 2)
    def test_tie_selects_lowest_index(self, rng):
        probs = random_simplex(rng, 30, 3)
        sset = StreamSet([PosteriorStream(probs.copy(), stream_id=m) for m in range(3)])
        sched = binary_window_attention(sset)
        np.testing.assert_array_equal(sched.weights[:, 0], np.ones(30))

    @with_spans(1, 3)
    def test_per_window_winners(self):
        # Stream 0 is dynamic only in the first half, stream 1 only in the
        # second; with window 10 each window picks its own winner.
        alt = alternating_stream(10).probs
        flat = np.tile([0.5, 0.5], (10, 1))
        s0 = PosteriorStream(np.vstack([alt, flat]), stream_id=0)
        s1 = PosteriorStream(np.vstack([flat, alt]), stream_id=1)
        sched = binary_window_attention(StreamSet([s0, s1]), 10)
        np.testing.assert_array_equal(sched.weights[:10], np.tile([1.0, 0.0], (10, 1)))
        np.testing.assert_array_equal(sched.weights[10:], np.tile([0.0, 1.0], (10, 1)))

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_rows_are_one_hot(self, seed):
        rng = np.random.default_rng(seed)
        sset = random_stream_set(rng, 3, 20, 3)
        for delta in (False, True):
            with with_spans(1, 4):
                sched = binary_window_attention(sset, delta=delta)
            np.testing.assert_array_equal(sched.weights.sum(axis=1), np.ones(20))
            assert set(np.unique(sched.weights)) <= {0.0, 1.0}


class TestWindowScores:
    @settings(deadline=None, max_examples=80)
    @given(
        M=st.integers(2, 5),
        T=st.integers(11, 60),
        spans=st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True).map(
            lambda xs: tuple(sorted(xs))
        ),
        extra=st.one_of(st.none(), st.integers(1, 60)),
        delta=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_matches_the_two_window_loops_bit_for_bit(self, M, T, spans, extra, delta, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 5))
        # Rows of small integer counts, normalized, and some streams copying
        # earlier ones, so argmax ties occur within rows and score ties
        # across streams.
        probs = []
        for m in range(M):
            if m and rng.random() < 0.4:
                probs.append(probs[int(rng.integers(m))].copy())
                continue
            counts = rng.integers(0, 4, size=(T, C)).astype(np.float64)
            counts[counts.sum(axis=1) == 0, 0] = 1.0
            probs.append(counts / counts.sum(axis=1, keepdims=True))
        sset = StreamSet([PosteriorStream(p, stream_id=m) for m, p in enumerate(probs)])
        window = None if extra is None else max(spans) + extra
        with mock.patch.object(measures, "SPANS", spans):
            got = binary_window_attention(sset, window, delta=delta)
            for s in sset.streams:
                assert m_measure(s, window, delta=delta) == ref.m_measure_loop_ref(
                    s, spans, window, delta)
        want = ref.binary_window_attention_ref(sset, spans, window, gate_on_argmax=delta)
        assert np.array_equal(got.weights, want.weights)


class TestEntropyAttention:
    def test_uniform_rows_equal_weights(self):
        sset = StreamSet(
            [PosteriorStream(np.full((6, 4), 0.25), stream_id=m) for m in range(3)]
        )
        np.testing.assert_allclose(entropy_attention(sset).weights, 1 / 3, atol=1e-12)

    def test_confident_stream_dominates(self, rng):
        sharp = PosteriorStream(np.tile([0.999, 0.0005, 0.0005], (5, 1)), stream_id=0)
        flat = PosteriorStream(np.full((5, 3), 1 / 3), stream_id=1)
        w = entropy_attention(StreamSet([sharp, flat])).weights
        assert np.all(w[:, 0] > 0.99)

    def test_matches_frame_wise_weights(self, rng):
        sset = random_stream_set(rng, 3, 8, 4)
        sched = entropy_attention(sset)
        for t in range(8):
            expect = ref.inverse_entropy_weights_ref(
                [ref.entropy_ref(s.probs[t]) for s in sset.streams]
            )
            np.testing.assert_allclose(sched.weights[t], expect, atol=1e-12)
