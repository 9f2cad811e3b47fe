"""Synthetic corpus generator: labels, emissions, corruption, scenarios."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfuse import measures
from streamfuse.core import PosteriorStream, StreamSet, align_streams
from streamfuse.decoder import HmmModel, make_hmm, stationary
from streamfuse.measures import entropy_rows, m_measure
from streamfuse.simulator import (
    CorpusSpec,
    CorruptionProfile,
    corpus_facts,
    corrupt,
    emit_posteriors,
    generate_reference,
    hrm_like_profiles,
    ldc_like_profiles,
    oracle_stream_index,
    sample_labels,
    simulate_utterance,
)


def small_spec(**kw):
    base = dict(
        num_utterances=3,
        frames_min=40,
        frames_max=60,
        num_classes=8,
        num_streams=4,
        seed=3,
        conf_prob=0.0,
    )
    base.update(kw)
    return CorpusSpec(**base)


class TestSpecValidation:
    def test_needs_two_classes_and_streams(self):
        with pytest.raises(ValueError):
            small_spec(num_classes=1)
        with pytest.raises(ValueError):
            small_spec(num_streams=1)

    def test_frame_range_checked(self):
        with pytest.raises(ValueError):
            small_spec(frames_min=50, frames_max=40)
        with pytest.raises(ValueError):
            small_spec(num_utterances=0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            CorruptionProfile(uniform_mix=1.5)
        with pytest.raises(ValueError):
            CorruptionProfile(smear_width=-1)


class TestLabelsAndEmissions:
    def test_label_marginals_match_stationary(self):
        # Weak self-loop keeps the chain close to iid so the chi-square
        # calibration holds: make_hmm's draw for seed 3, at self-loop 0.3.
        C, loop = 5, 0.3
        off = np.random.default_rng([3, 0x484D4D]).dirichlet(np.ones(C - 1), size=C)
        trans = np.diag(np.full(C, loop))
        trans[~np.eye(C, dtype=bool)] = (off * (1.0 - loop)).ravel()
        trans /= trans.sum(axis=1, keepdims=True)
        hmm = HmmModel(transitions=trans, priors=stationary(trans))
        labels = sample_labels(hmm, 10000, np.random.default_rng(0))
        counts = np.bincount(labels, minlength=5)
        expect = stationary(hmm.transitions) * 10000
        _, p = scipy.stats.chisquare(counts, expect)
        assert p > 0.01

    def test_peaked_emissions_track_labels(self, rng):
        labels = rng.integers(6, size=200)
        probs = emit_posteriors(labels, 6, 1e6, 1e-3, rng, 0.0, 5.0)
        np.testing.assert_array_equal(np.argmax(probs, axis=1), labels)

    def test_emission_rows_on_simplex(self, rng):
        labels = rng.integers(4, size=50)
        probs = emit_posteriors(labels, 4, 20.0, 0.5, rng, conf_prob=0.1, conf_len=4.0)
        assert np.all(probs > 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_confusion_bursts_introduce_errors(self):
        labels = np.zeros(2000, dtype=np.intp)
        rng = np.random.default_rng(1)
        probs = emit_posteriors(labels, 6, 200.0, 0.1, rng, conf_prob=0.05, conf_len=8.0)
        err = np.mean(np.argmax(probs, axis=1) != labels)
        assert 0.05 < err < 0.8

    def test_reference_deterministic(self):
        spec = small_spec()
        hmm = make_hmm(spec.num_classes, spec.seed)
        la, ca = generate_reference(spec, hmm)
        lb, cb = generate_reference(spec, hmm)
        for x, y in zip(la, lb):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(ca, cb):
            np.testing.assert_array_equal(x.probs, y.probs)

    def test_frame_counts_within_range(self):
        spec = small_spec(num_utterances=10)
        labels, _ = generate_reference(spec, make_hmm(spec.num_classes, spec.seed))
        assert all(spec.frames_min <= len(l) <= spec.frames_max for l in labels)


class TestCorrupt:
    def make_stream(self, rng, T=60, C=6):
        labels = rng.integers(C, size=T)
        return PosteriorStream(emit_posteriors(labels, C, 50.0, 0.5, rng, 0.0, 5.0), stream_id=0)

    def test_identity_profile(self, rng):
        s = self.make_stream(rng)
        out = corrupt(s, CorruptionProfile(), seed=0)
        np.testing.assert_allclose(out.probs, s.probs, atol=1e-12)
        assert out.frame_offset == s.frame_offset

    def test_full_mix_gives_uniform(self, rng):
        s = self.make_stream(rng, C=6)
        out = corrupt(s, CorruptionProfile(uniform_mix=1.0), seed=0)
        np.testing.assert_allclose(out.probs, 1 / 6, atol=1e-12)

    @mock.patch.object(measures, "SPANS", (1, 5))
    def test_whole_utterance_smear_is_constant_mean(self, rng):
        s = self.make_stream(rng, T=40)
        out = corrupt(s, CorruptionProfile(smear_width=2 * 40 - 1), seed=0)
        mean = s.probs.mean(axis=0)
        np.testing.assert_allclose(
            out.probs, np.tile(mean / mean.sum(), (40, 1)), atol=1e-9
        )
        assert m_measure(out) <= 1e-12

    def test_failed_stream_near_uniform(self, rng):
        s = self.make_stream(rng, C=10)
        out = corrupt(s, CorruptionProfile(fail=True), seed=42)
        ents = entropy_rows(out.probs)
        assert np.all(np.abs(ents - math.log(10)) < 1e-2)
        # Jitter keeps rows from being exactly constant.
        assert np.any(out.probs[0] != out.probs[1])

    def test_offset_shifts_content(self, rng):
        s = self.make_stream(rng, T=30)
        out = corrupt(s, CorruptionProfile(offset=2), seed=0)
        assert out.frame_offset == 2
        # Reference frame k moves to index k + 2.
        np.testing.assert_allclose(out.probs[2:], s.probs[:-2], atol=1e-12)

    def test_align_undoes_offset(self, rng):
        s = self.make_stream(rng, T=30)
        shifted = corrupt(s, CorruptionProfile(offset=3), seed=0)
        aligned = align_streams(StreamSet([s, shifted]))
        np.testing.assert_allclose(
            aligned.streams[0].probs, aligned.streams[1].probs, atol=1e-12
        )

    @settings(deadline=None)
    @given(st.integers(0, 10**6))
    def test_simplex_preserved(self, seed):
        rng = np.random.default_rng(seed)
        s = self.make_stream(rng, T=20)
        prof = CorruptionProfile(
            uniform_mix=float(rng.uniform(0, 1)),
            smear_width=int(rng.integers(0, 9)),
            fail=bool(rng.integers(2)),
            offset=int(rng.integers(-3, 4)),
        )
        out = corrupt(s, prof, seed=seed)
        assert np.all(out.probs >= 0)
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_entropy_nondecreasing_in_mix(self, rng):
        s = self.make_stream(rng, T=80)
        means = [
            entropy_rows(
                corrupt(s, CorruptionProfile(uniform_mix=lam), seed=0).probs
            ).mean()
            for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))

    @mock.patch.object(measures, "SPANS", (1, 3, 5))
    def test_m_measure_nonincreasing_in_smear(self, rng):
        s = self.make_stream(rng, T=80)
        vals = [
            m_measure(corrupt(s, CorruptionProfile(smear_width=w), seed=0))
            for w in (0, 3, 9, 27)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


class TestScenarios:
    def test_ldc_profiles_all_working(self):
        profiles = ldc_like_profiles(12)
        assert len(profiles) == 12
        assert not any(p.fail for p in profiles)
        assert oracle_stream_index(profiles) == 0  # lowest mix

    def test_hrm_profiles_two_failed(self):
        profiles = hrm_like_profiles(12)
        assert sum(p.fail for p in profiles) == 2
        assert profiles[0].uniform_mix == 0.0 and not profiles[0].fail
        assert oracle_stream_index(profiles) == 0

    def test_oracle_ignores_failed_streams(self):
        profiles = [
            CorruptionProfile(uniform_mix=0.1, fail=True),
            CorruptionProfile(uniform_mix=0.3),
            CorruptionProfile(uniform_mix=0.2),
        ]
        assert oracle_stream_index(profiles) == 2

    def test_oracle_tie_lowest_index(self):
        profiles = [CorruptionProfile(uniform_mix=0.2)] * 3
        assert oracle_stream_index(profiles) == 0

    def test_simulate_utterance_shapes_and_determinism(self):
        spec = small_spec()
        facts = corpus_facts("ldc_like", spec)
        a = [simulate_utterance(spec, facts, u) for u in range(spec.num_utterances)]
        # Made in reverse order from facts derived again: the same bits.
        b = [simulate_utterance(spec, corpus_facts("ldc_like", spec), u)
             for u in reversed(range(spec.num_utterances))][::-1]
        assert [u.utt_id for u in a] == list(range(spec.num_utterances))
        for ua, ub in zip(a, b):
            assert ua.streams.num_streams == spec.num_streams
            np.testing.assert_array_equal(ua.labels, ub.labels)
            for sa, sb in zip(ua.streams.streams, ub.streams.streams):
                np.testing.assert_array_equal(sa.probs, sb.probs)
        # generate_reference draws the same labels and clean streams.
        labels, cleans = generate_reference(spec, facts.hmm)
        for u, lab, clean in zip(a, labels, cleans):
            np.testing.assert_array_equal(u.labels, lab)
            np.testing.assert_array_equal(u.clean.probs, clean.probs)

    def test_streams_are_independent_emissions(self):
        spec = small_spec()
        s = simulate_utterance(spec, corpus_facts("ldc_like", spec), 0).streams.streams
        assert not np.array_equal(s[0].probs, s[1].probs)
