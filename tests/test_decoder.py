"""HMM construction, Viterbi decoding and error-rate scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import BAD_SIMPLEX, random_simplex, random_stream
from streamfuse.core import AttentionSchedule, PosteriorStream, StreamSet, fuse
from streamfuse.decoder import (
    LOG_EPS,
    SELF_LOOP,
    ErrorReport,
    HmmModel,
    collapse_runs,
    combine_reports,
    levenshtein_counts,
    make_hmm,
    score,
    stationary,
    viterbi_batch,
)
from streamfuse.errors import DimensionMismatch, InvalidSimplex


def random_hmm(rng, C):
    trans = rng.dirichlet(np.full(C, 1.0), size=C)
    priors = rng.dirichlet(np.full(C, 1.0))
    return HmmModel(transitions=trans, priors=priors)


class TestMakeHmm:
    def test_rows_stochastic_with_self_loop(self):
        hmm = make_hmm(6, seed=1)
        np.testing.assert_allclose(hmm.transitions.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(hmm.transitions), SELF_LOOP, atol=1e-9)

    def test_priors_are_stationary(self):
        hmm = make_hmm(5, seed=2)
        np.testing.assert_allclose(hmm.priors, stationary(hmm.transitions), atol=1e-9)
        np.testing.assert_allclose(hmm.priors @ hmm.transitions, hmm.priors, atol=1e-9)

    def test_deterministic_in_seed(self):
        np.testing.assert_array_equal(
            make_hmm(4, seed=7).transitions, make_hmm(4, seed=7).transitions
        )
        assert not np.array_equal(
            make_hmm(4, seed=7).transitions, make_hmm(4, seed=8).transitions
        )

    def test_model_validation(self):
        with pytest.raises(InvalidSimplex):
            HmmModel(
                transitions=np.array([[0.5, 0.4], [0.5, 0.5]]),
                priors=np.array([0.5, 0.5]),
            )
        with pytest.raises(DimensionMismatch):
            HmmModel(transitions=np.eye(2), priors=np.array([0.5, 0.5, 0.0]))

    @BAD_SIMPLEX
    def test_bad_rows_rejected(self, bad):
        C = bad.shape[1]
        with pytest.raises(InvalidSimplex, match="^priors: "):
            HmmModel(transitions=np.eye(C), priors=bad[0])
        if bad.shape == (C, C):
            with pytest.raises(InvalidSimplex, match="^transitions: "):
                HmmModel(transitions=bad, priors=np.full(C, 1 / C))

    def test_row_sum_bound_is_1e_9(self):
        trans = np.array([[0.5, 0.5 + 2e-9], [0.5, 0.5]])
        with pytest.raises(InvalidSimplex, match="^transitions: row 0"):
            HmmModel(transitions=trans, priors=np.array([0.5, 0.5]))
        trans[0, 1] = 0.5 + 5e-10
        HmmModel(transitions=trans, priors=np.array([0.5, 0.5]))


class TestViterbi:
    def test_dominant_evidence_follows_posteriors(self, rng):
        hmm = make_hmm(3, seed=0)
        probs = np.full((10, 3), 0.005)
        probs[:, 0] = 0.99
        path = viterbi_batch([probs], hmm)[0]
        np.testing.assert_array_equal(path, np.zeros(10, dtype=np.intp))

    def test_class_count_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            viterbi_batch([random_stream(rng, 5, 4).probs], make_hmm(3))[0]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(77)
        for trial in range(40):
            T, C = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            hmm = random_hmm(rng, C)
            probs = random_simplex(rng, T, C)
            scale = bool(trial % 2)
            got = viterbi_batch([probs], hmm, scale_by_priors=scale)[0]
            best, best_path, margin = ref.viterbi_exhaustive(
                probs.tolist(), hmm.transitions.tolist(), hmm.priors.tolist(), scale
            )
            got_score = ref.path_score(got, PosteriorStream(probs), hmm, scale_by_priors=scale)
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
        best = ref.path_score(viterbi_batch([stream.probs], hmm)[0], stream, hmm)
        for _ in range(50):
            rand = rng.integers(C, size=T)
            assert best >= ref.path_score(rand, stream, hmm) - 1e-9

    def test_thousand_random_paths_never_beat_viterbi(self):
        rng = np.random.default_rng(5)
        hmm = random_hmm(rng, 3)
        stream = PosteriorStream(random_simplex(rng, 12, 3))
        best = ref.path_score(viterbi_batch([stream.probs], hmm)[0], stream, hmm)
        for _ in range(1000):
            assert best >= ref.path_score(rng.integers(3, size=12), stream, hmm) - 1e-9

    def test_deterministic(self, rng):
        hmm = make_hmm(4, seed=1)
        stream = random_stream(rng, 20, 4)
        np.testing.assert_array_equal(viterbi_batch([stream.probs], hmm)[0],
                                      viterbi_batch([stream.probs], hmm)[0])

    def test_one_hot_fusion_equals_direct_decode(self, rng):
        hmm = make_hmm(4, seed=2)
        good = random_stream(rng, 15, 4, stream_id=0, alpha=0.3)
        junk = random_stream(rng, 15, 4, stream_id=1)
        w = np.zeros((15, 2))
        w[:, 0] = 1.0
        fused = fuse(StreamSet([good, junk]), AttentionSchedule(w))
        np.testing.assert_array_equal(viterbi_batch([fused.probs], hmm)[0],
                                      viterbi_batch([good.probs], hmm)[0])


def quantised_simplex(rng, shape, levels=3):
    """Dirichlet rows rounded to a few levels, so equal scores (ties) occur."""
    rows = np.round(rng.dirichlet(np.ones(shape[-1]), size=shape[:-1]) * levels) + 1.0
    return rows / rows.sum(axis=-1, keepdims=True)


def draw_hmm(rng, C, quantise):
    if not quantise:
        return random_hmm(rng, C)
    return HmmModel(
        transitions=quantised_simplex(rng, (C, C)),
        priors=quantised_simplex(rng, (C,)),
    )


def assert_single_stream_path(path, probs, hmm, scale):
    """path is viterbi_batch's path of probs decoded alone and the textbook
    backpointer path."""
    np.testing.assert_array_equal(
        path, viterbi_batch([probs], hmm, scale_by_priors=scale)[0]
    )
    log_prior = np.log(np.maximum(hmm.priors, LOG_EPS))
    log_trans = np.log(np.maximum(hmm.transitions, LOG_EPS))
    logp = np.log(np.maximum(probs, LOG_EPS))
    if scale:
        logp = logp - log_prior
    assert path.tolist() == ref.viterbi_backpointer_ref(
        logp.tolist(), log_trans.tolist(), log_prior.tolist()
    )


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
        hmm = draw_hmm(rng, C, quantise)
        if quantise:
            probs = quantised_simplex(rng, (B, T, C))
        else:
            probs = rng.dirichlet(np.ones(C), size=(B, T))
        paths = viterbi_batch(probs, hmm, scale_by_priors=scale)
        assert np.stack(paths).shape == (B, T)

        for b in range(B):
            stream = PosteriorStream(probs[b])
            assert_single_stream_path(paths[b], probs[b], hmm, scale)
            if C**T <= 256:
                best, best_path, margin = ref.viterbi_exhaustive(
                    probs[b].tolist(), hmm.transitions.tolist(), hmm.priors.tolist(), scale
                )
                got = ref.path_score(paths[b], stream, hmm, scale_by_priors=scale)
                assert got == pytest.approx(best, abs=1e-9)
                if margin > 1e-9:
                    assert paths[b].tolist() == best_path

    @settings(deadline=None, max_examples=80)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        C=st.integers(2, 4),
        quantise=st.booleans(),
        scale=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_ragged_rows_equal_single_stream_decodes(
        self, lengths, C, quantise, scale, seed
    ):
        rng = np.random.default_rng(seed)
        hmm = draw_hmm(rng, C, quantise)
        if quantise:
            streams = [quantised_simplex(rng, (T, C)) for T in lengths]
        else:
            streams = [rng.dirichlet(np.ones(C), size=T) for T in lengths]
        paths = viterbi_batch(streams, hmm, scale_by_priors=scale)
        assert [len(path) for path in paths] == lengths
        for path, probs in zip(paths, streams):
            assert_single_stream_path(path, probs, hmm, scale)

    def test_bad_shapes_rejected(self, rng):
        hmm = make_hmm(3)
        with pytest.raises(DimensionMismatch):
            viterbi_batch(rng.dirichlet(np.ones(3), size=5), hmm)  # (T, C), no batch axis
        with pytest.raises(DimensionMismatch):
            viterbi_batch(rng.dirichlet(np.ones(4), size=(2, 5)), hmm)

    def test_bad_rows_rejected(self, rng):
        hmm = make_hmm(3)
        good = rng.dirichlet(np.ones(3), size=5)
        bad_rows = [
            good[0],  # 1-D
            rng.dirichlet(np.ones(4), size=5),  # C = 4 for a 3-state HMM
            np.empty((0, 3)),  # T = 0
        ]
        for bad in bad_rows:
            with pytest.raises(DimensionMismatch):
                viterbi_batch([good, bad], hmm)
        with pytest.raises(DimensionMismatch):
            viterbi_batch([], hmm)


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
        assert (rep.frame_errors, rep.num_frames) == (1, 4)
        assert rep.frame_error_rate == 0.25

    def test_rates_from_collapsed_tokens(self):
        # ref frames collapse to A B A (3 tokens); hyp collapses to A,
        # which costs two deletions -> token error rate 2/3.
        rep = score(np.array([0, 0, 0, 0, 0]), np.array([0, 0, 1, 0, 0]))
        assert rep.num_ref_tokens == 3
        assert rep.deletions == 2
        assert rep.token_error_rate == 2 / 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            score(np.array([0, 1]), np.array([0, 1, 2]))

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            score(np.array([]), np.array([]))

    def test_combine_reports_pools_counts(self):
        # a: 1 of 3 frames wrong, tokens 0 1 against 0 1; b: 1 of 2 frames
        # wrong, tokens 2 1 against 2, one insertion.
        a = score(np.array([0, 1, 1]), np.array([0, 0, 1]))
        b = score(np.array([2, 1]), np.array([2, 2]))
        assert a == ErrorReport(1, 0, 0, 0, 3, 2)
        assert b == ErrorReport(1, 0, 1, 0, 2, 1)
        c = combine_reports([a, b])
        assert c == ErrorReport(frame_errors=2, substitutions=0, insertions=1, deletions=0,
                                num_frames=5, num_ref_tokens=3)
        assert c.frame_error_rate == 2 / 5
        assert c.token_error_rate == 1 / 3

    @settings(deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1,
                             max_size=12), min_size=1, max_size=5))
    def test_rates_are_those_of_the_summed_counts(self, utterances):
        # Each utterance is (hyp, ref) label pairs over 3 classes.
        reports = [score(*np.array(pairs).T) for pairs in utterances]
        for pairs, r in zip(utterances, reports):
            hyp, ref_labels = np.array(pairs).T
            assert r.frame_errors == np.count_nonzero(hyp != ref_labels)
            assert r.num_frames == len(pairs)
        c = combine_reports(reports)
        for field in ("frame_errors", "substitutions", "insertions", "deletions", "num_frames",
                      "num_ref_tokens"):
            assert getattr(c, field) == sum(getattr(r, field) for r in reports)
        assert c.frame_error_rate == c.frame_errors / c.num_frames
        errors = c.substitutions + c.insertions + c.deletions
        assert c.token_error_rate == errors / c.num_ref_tokens
