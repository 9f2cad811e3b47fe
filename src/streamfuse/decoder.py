"""Small HMM Viterbi decoder and error-rate scoring.

The decoder consumes posterior streams directly, using the hybrid
convention: emission score for class c at frame t is log(p_t[c] / prior[c])
(prior scaling can be switched off).  viterbi_batch decodes streams of any
lengths at once, one stream as a batch of one; make_hmm's states stay in
themselves with probability SELF_LOOP.  Scoring counts mismatched frames
and the edits between run-length-collapsed label sequences; an ErrorReport
holds only counts, so combine_reports sums them and the frame and WER-like
token error rates are those of the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import LOG_EPS, check_simplex
from .errors import DimensionMismatch

# Row-sum tolerance of HmmModel: an HMM is float64 end to end, so it is
# held tighter than core.SIMPLEX_ATOL.
HMM_ATOL = 1e-9


@dataclass
class HmmModel:
    """Class transition matrix and priors."""

    transitions: np.ndarray  # (C, C), row-stochastic
    priors: np.ndarray  # (C,), simplex

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.priors = np.asarray(self.priors, dtype=np.float64)
        C = self.transitions.shape[0]
        if self.transitions.shape != (C, C) or self.priors.shape != (C,):
            raise DimensionMismatch("transitions must be (C, C), priors (C,)")
        check_simplex(self.transitions, "transitions", atol=HMM_ATOL)
        check_simplex(self.priors[None], "priors", atol=HMM_ATOL)

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]


# Probability that make_hmm gives each state for staying in itself.
SELF_LOOP = 0.92


def make_hmm(num_states: int, seed: int = 0) -> HmmModel:
    """Random but reproducible HMM whose states stay in themselves with SELF_LOOP.

    Priors are set to the stationary distribution of the sampled
    transition matrix.
    """
    rng = np.random.default_rng([seed, 0x484D4D])
    C = num_states
    off = rng.dirichlet(np.ones(C - 1), size=C) * (1.0 - SELF_LOOP)
    trans = np.zeros((C, C))
    for i in range(C):
        row = np.delete(np.arange(C), i)
        trans[i, row] = off[i]
        trans[i, i] = SELF_LOOP
    trans /= trans.sum(axis=1, keepdims=True)
    return HmmModel(transitions=trans, priors=stationary(trans))


def stationary(transitions: np.ndarray) -> np.ndarray:
    """Stationary distribution of a (C, C) row-stochastic transition matrix."""
    vals, vecs = np.linalg.eig(transitions.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, k])
    pi = np.abs(pi)
    return pi / pi.sum()


def viterbi_batch(
    streams, hmm: HmmModel, scale_by_priors: bool = True
) -> list[np.ndarray]:
    """Most likely state paths of B posterior streams of any lengths at once.

    streams is a sequence of (T_b, C) posterior matrices (a (B, T, C) array
    is one); the result is the list of B paths, path b of length T_b being
    the most likely state path of stream b alone, with posteriors as
    emission scores.  Ties break toward the lower state index at every step.

    Shorter streams are padded at the end of a (T_max, B, C) buffer.  The
    forward pass is causal, so row b's scores for t < T_b do not depend on
    the padding, and row b backtraces from its own last frame.  The forward
    pass keeps only the max-plus scores.  The backtrace recomputes each
    step's candidate scores from the stored ones; they are the same floats
    as in the forward pass, so its argmax picks the same (lowest-index)
    predecessor a stored backpointer would.
    """
    C = hmm.num_states
    rows = [np.asarray(s, dtype=np.float64) for s in streams]
    for s in rows:
        if s.ndim != 2 or s.shape[1] != C or s.shape[0] == 0:
            raise DimensionMismatch(
                f"HMM has {C} states: expected (T, {C}) posterior matrices with "
                f"T >= 1, got shape {s.shape}"
            )
    if not rows:
        raise DimensionMismatch("expected at least one posterior stream")
    log_prior = np.log(np.maximum(hmm.priors, LOG_EPS))
    log_trans = np.log(np.maximum(hmm.transitions, LOG_EPS))
    B, lengths = len(rows), [s.shape[0] for s in rows]
    T = max(lengths)
    logp = np.empty((T, B, C))  # emission scores, time-major
    for b, s in enumerate(rows):
        np.maximum(s, LOG_EPS, out=logp[: lengths[b], b])
        logp[lengths[b] :, b] = 1.0  # padding: any finite score will do
    np.log(logp, out=logp)
    if scale_by_priors:
        logp -= log_prior

    # The forward pass overwrites the emission scores frame by frame:
    # hist[t, b, j] becomes the best score of a path ending in state j.
    # Each step spreads the previous scores over a (from, batch, to) buffer
    # and adds the transitions there: a broadcast copy and a contiguous add
    # run faster than one broadcasting add and sum the same two floats.
    hist = logp
    hist[0] += log_prior
    cand = np.empty((C, B, C))  # (from, batch, to)
    best = np.empty((B, C))
    hist_from = hist.transpose(0, 2, 1)[:, :, :, None]  # (T, from, batch, 1)
    trans_from = np.broadcast_to(log_trans[:, None, :], cand.shape).copy()
    for t in range(1, T):
        np.copyto(cand, hist_from[t - 1])
        cand += trans_from
        np.maximum.reduce(cand, axis=0, out=best)
        hist[t] += best
    # Row b's path starts at its last frame T_b - 1: rows by that frame.
    ends: dict[int, list[int]] = {}
    for b, n in enumerate(lengths):
        ends.setdefault(n - 1, []).append(b)
    trans_to = np.ascontiguousarray(log_trans.T)  # (to, from)
    path = np.empty((T, B), dtype=np.intp)
    path[-1] = np.argmax(hist[-1], axis=1)
    for t in range(T - 1, 0, -1):
        path[t - 1] = np.argmax(hist[t - 1] + trans_to[path[t]], axis=1)
        if t - 1 in ends:
            r = ends[t - 1]
            path[t - 1, r] = np.argmax(hist[t - 1, r], axis=1)
    path = np.ascontiguousarray(path.T)
    return [path[b, :n] for b, n in enumerate(lengths)]


@dataclass
class ErrorReport:
    """Error counts of a hypothesis against its reference; the rates derive from them."""

    frame_errors: int
    substitutions: int
    insertions: int
    deletions: int
    num_frames: int
    num_ref_tokens: int

    @property
    def frame_error_rate(self) -> float:
        return self.frame_errors / self.num_frames

    @property
    def token_error_rate(self) -> float:
        return (self.substitutions + self.insertions + self.deletions) / self.num_ref_tokens


def collapse_runs(seq: np.ndarray) -> np.ndarray:
    """Run-length collapse a label sequence to token-like units."""
    seq = np.asarray(seq)
    if seq.size == 0:
        return seq
    keep = np.ones(seq.size, dtype=bool)
    keep[1:] = seq[1:] != seq[:-1]
    return seq[keep]


def levenshtein_counts(ref, hyp) -> tuple[int, int, int]:
    """(substitutions, insertions, deletions) of a minimal edit alignment.

    Deterministic backtrace preference: match/substitution, then deletion,
    then insertion.
    """
    ref = list(ref)
    hyp = list(hyp)
    R, H = len(ref), len(hyp)
    # Plain int lists: numpy-scalar element access dominates on these sizes.
    dp = [list(range(H + 1))]
    for i in range(1, R + 1):
        prev, r = dp[-1], ref[i - 1]
        row = [i] * (H + 1)
        for j in range(1, H + 1):
            row[j] = min(prev[j - 1] + (r != hyp[j - 1]), prev[j] + 1, row[j - 1] + 1)
        dp.append(row)
    subs = ins = dels = 0
    i, j = R, H
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += int(ref[i - 1] != hyp[j - 1])
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, ins, dels


def score(hyp: np.ndarray, ref: np.ndarray) -> ErrorReport:
    """Frame and token error rates of a hypothesis path against reference labels."""
    hyp = np.asarray(hyp)
    ref = np.asarray(ref)
    if ref.size == 0:
        raise ValueError("reference must be non-empty")
    if hyp.shape != ref.shape:
        raise DimensionMismatch("hypothesis and reference lengths differ")
    cref = collapse_runs(ref)
    s, i, d = levenshtein_counts(cref.tolist(), collapse_runs(hyp).tolist())
    return ErrorReport(int(np.count_nonzero(hyp != ref)), s, i, d, int(ref.size), len(cref))


def combine_reports(reports: list[ErrorReport]) -> ErrorReport:
    """Corpus-level report: each count summed, so the rates are those of the totals."""
    return ErrorReport(*(sum(getattr(r, f.name) for r in reports) for f in fields(ErrorReport)))
