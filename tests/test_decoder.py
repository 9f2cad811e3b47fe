"""HMM construction, Viterbi decoding and error-rate scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import random_simplex, random_stream
from streamfuse.core import AttentionSchedule, PosteriorStream, StreamSet, fuse
from streamfuse.decoder import (
    LOG_EPS,
    ErrorReport,
    HmmModel,
    collapse_runs,
    combine_reports,
    levenshtein_counts,
    make_hmm,
    path_score,
    score,
    stationary,
    viterbi,
    viterbi_batch,
)
from streamfuse.errors import DimensionMismatch


def random_hmm(rng, C):
    trans = rng.dirichlet(np.full(C, 1.0), size=C)
    priors = rng.dirichlet(np.full(C, 1.0))
    return HmmModel(
        transitions=trans, priors=priors, labels=tuple(f"s{i}" for i in range(C))
    )


class TestMakeHmm:
    def test_rows_stochastic_with_self_loop(self):
        hmm = make_hmm(6, seed=1, self_loop=0.9)
        np.testing.assert_allclose(hmm.transitions.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(hmm.transitions), 0.9, atol=1e-9)

    def test_priors_are_stationary(self):
        hmm = make_hmm(5, seed=2)
        np.testing.assert_allclose(hmm.priors, stationary(hmm), atol=1e-9)
        np.testing.assert_allclose(hmm.priors @ hmm.transitions, hmm.priors, atol=1e-9)

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(
            make_hmm(4, seed=7).transitions, make_hmm(4, seed=7).transitions
        )
        assert not np.array_equal(
            make_hmm(4, seed=7).transitions, make_hmm(4, seed=8).transitions
        )

    def test_model_validation(self):
        with pytest.raises(ValueError):
            HmmModel(
                transitions=np.array([[0.5, 0.4], [0.5, 0.5]]),
                priors=np.array([0.5, 0.5]),
                labels=("a", "b"),
            )
        with pytest.raises(DimensionMismatch):
            HmmModel(
                transitions=np.eye(2), priors=np.array([0.5, 0.5]), labels=("a",)
            )


class TestViterbi:
    def test_dominant_evidence_follows_posteriors(self, rng):
        hmm = make_hmm(3, seed=0, self_loop=0.5)
        probs = np.full((10, 3), 0.005)
        probs[:, 0] = 0.99
        path = viterbi(PosteriorStream(probs), hmm)
        np.testing.assert_array_equal(path, np.zeros(10, dtype=np.intp))

    def test_class_count_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            viterbi(random_stream(rng, 5, 4), make_hmm(3))

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            T, C = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            hmm = random_hmm(rng, C)
            probs = random_simplex(rng, T, C)
            scale = bool(trial % 2)
            got = viterbi(PosteriorStream(probs), hmm, scale_by_priors=scale)
            best, best_path, margin = ref.viterbi_exhaustive(
                probs.tolist(), hmm.transitions.tolist(), hmm.priors.tolist(), scale
            )
            got_score = path_score(got, PosteriorStream(probs), hmm, scale_by_priors=scale)
            assert got_score == pytest.approx(best, abs=1e-9)
            if margin > 1e-9:
                np.testing.assert_array_equal(got, best_path)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_beats_random_paths(self, seed):
        rng = np.random.default_rng(seed)
        T, C = 8, 3
        hmm = random_hmm(rng, C)
        stream = PosteriorStream(random_simplex(rng, T, C))
        best = path_score(viterbi(stream, hmm), stream, hmm)
        for _ in range(50):
            rand = rng.integers(C, size=T)
            assert best >= path_score(rand, stream, hmm) - 1e-9

    def test_thousand_random_paths_never_beat_viterbi(self):
        rng = np.random.default_rng(5)
        hmm = random_hmm(rng, 3)
        stream = PosteriorStream(random_simplex(rng, 12, 3))
        best = path_score(viterbi(stream, hmm), stream, hmm)
        for _ in range(1000):
            assert best >= path_score(rng.integers(3, size=12), stream, hmm) - 1e-9

    def test_deterministic(self, rng):
        hmm = make_hmm(4, seed=1)
        stream = random_stream(rng, 20, 4)
        np.testing.assert_array_equal(viterbi(stream, hmm), viterbi(stream, hmm))

    def test_one_hot_fusion_equals_direct_decode(self, rng):
        hmm = make_hmm(4, seed=2)
        good = random_stream(rng, 15, 4, stream_id=0, alpha=0.3)
        junk = random_stream(rng, 15, 4, stream_id=1)
        w = np.zeros((15, 2))
        w[:, 0] = 1.0
        fused = fuse(StreamSet([good, junk]), AttentionSchedule(w))
        np.testing.assert_array_equal(viterbi(fused, hmm), viterbi(good, hmm))


def quantised_simplex(rng, shape, levels=3):
    """Dirichlet rows rounded to a few levels, so equal scores (ties) occur."""
    rows = np.round(rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]) * levels) + 1.0
    return rows / rows.sum(axis=-1, keepdims=True)


class TestViterbiBatch:
    @settings(deadline=None, max_examples=80)
    @given(
        B=st.integers(1, 13),
        T=st.integers(1, 9),
        C=st.integers(2, 4),
        quantise=st.booleans(),
        scale=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_rows_equal_single_stream_decodes(self, B, T, C, quantise, scale, seed):
        rng = np.random.default_rng(seed)
        if quantise:
            hmm = HmmModel(
                transitions=quantised_simplex(rng, (C, C)),
                priors=quantised_simplex(rng, (C,)),
                labels=tuple(f"s{i}" for i in range(C)),
            )
            probs = quantised_simplex(rng, (B, T, C))
        else:
            hmm = random_hmm(rng, C)
            probs = rng.dirichlet(np.ones(C), size=(B, T))
        paths = viterbi_batch(probs, hmm, scale_by_priors=scale)
        assert paths.shape == (B, T)

        log_prior = np.log(np.maximum(hmm.priors, LOG_EPS))
        log_trans = np.log(np.maximum(hmm.transitions, LOG_EPS))
        for b in range(B):
            stream = PosteriorStream(probs[b])
            np.testing.assert_array_equal(
                paths[b], viterbi(stream, hmm, scale_by_priors=scale)
            )
            logp = np.log(np.maximum(probs[b], LOG_EPS))
            if scale:
                logp = logp - log_prior
            assert paths[b].tolist() == ref.viterbi_backpointer_ref(
                logp.tolist(), log_trans.tolist(), log_prior.tolist()
            )
            if C**T <= 256:
                best, best_path, margin = ref.viterbi_exhaustive(
                    probs[b].tolist(), hmm.transitions.tolist(), hmm.priors.tolist(), scale
                )
                got = path_score(paths[b], stream, hmm, scale_by_priors=scale)
                assert got == pytest.approx(best, abs=1e-9)
                if margin > 1e-9:
                    assert paths[b].tolist() == best_path

    def test_bad_shapes_rejected(self, rng):
        hmm = make_hmm(3)
        with pytest.raises(DimensionMismatch):
            viterbi_batch(rng.dirichlet(np.ones(3), size=5), hmm)  # (T, C), no batch axis
        with pytest.raises(DimensionMismatch):
            viterbi_batch(rng.dirichlet(np.ones(4), size=(2, 5)), hmm)


class TestCollapseAndLevenshtein:
    def test_collapse_runs(self):
        np.testing.assert_array_equal(
            collapse_runs(np.array([1, 1, 2, 2, 2, 1])), [1, 2, 1]
        )
        assert collapse_runs(np.array([], dtype=int)).size == 0
        np.testing.assert_array_equal(collapse_runs(np.array([3])), [3])

    def test_identical_sequences(self):
        assert levenshtein_counts([1, 2, 3], [1, 2, 3]) == (0, 0, 0)

    def test_single_deletion(self):
        # ref A B A vs hyp A A: delete the B (distance 1, not 2).
        s, i, d = levenshtein_counts(["A", "B", "A"], ["A", "A"])
        assert (s, i, d) == (0, 0, 1)
        assert s + i + d == ref.edit_distance_ref(["A", "B", "A"], ["A", "A"])

    def test_empty_hypothesis_all_deletions(self):
        assert levenshtein_counts([1, 2, 3], []) == (0, 0, 3)

    def test_empty_reference_all_insertions(self):
        assert levenshtein_counts([], [1, 2]) == (0, 2, 0)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**6))
    def test_distance_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.integers(3, size=rng.integers(0, 7)).tolist()
        h = rng.integers(3, size=rng.integers(0, 7)).tolist()
        s, i, d = levenshtein_counts(r, h)
        assert s + i + d == ref.edit_distance_ref(r, h)
        assert len(h) - len(r) == i - d  # alignment length bookkeeping


class TestScore:
    def test_perfect_hypothesis(self):
        ref_labels = np.array([0, 0, 1, 1, 2])
        rep = score(ref_labels.copy(), ref_labels)
        assert rep.frame_error_rate == 0.0
        assert rep.token_error_rate == 0.0
        assert rep.num_ref_tokens == 3

    def test_frame_error_rate(self):
        rep = score(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
        assert rep.frame_error_rate == 0.25

    def test_rates_from_collapsed_tokens(self):
        # ref frames collapse to A B A (3 tokens); hyp collapses to A,
        # which costs two deletions -> token error rate 2/3.
        rep = score(np.array([0, 0, 0, 0, 0]), np.array([0, 0, 1, 0, 0]))
        assert rep.num_ref_tokens == 3
        assert rep.deletions == 2
        assert rep.token_error_rate == pytest.approx(2 / 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            score(np.array([0, 1]), np.array([0, 1, 2]))

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            score(np.array([]), np.array([]))

    def test_combine_reports_pools_counts(self):
        a = score(np.array([0, 1, 1]), np.array([0, 0, 1]))
        b = score(np.array([2, 2]), np.array([2, 2]))
        c = combine_reports([a, b])
        assert c.num_frames == 5
        assert c.num_ref_tokens == a.num_ref_tokens + b.num_ref_tokens
        assert c.frame_error_rate == pytest.approx(
            (a.frame_error_rate * 3 + b.frame_error_rate * 2) / 5
        )
        assert c.substitutions == a.substitutions + b.substitutions
