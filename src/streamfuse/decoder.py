"""Small HMM Viterbi decoder and error-rate scoring.

The decoder consumes posterior streams directly, using the hybrid
convention: emission score for class c at frame t is log(p_t[c] / prior[c])
(prior scaling can be switched off).  Scoring reports a per-frame mismatch
rate and a WER-like token error rate computed on run-length-collapsed label
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PosteriorStream
from .errors import DimensionMismatch

LOG_EPS = 1e-10


@dataclass
class HmmModel:
    """Class transition matrix, priors and label alphabet."""

    transitions: np.ndarray  # (C, C), row-stochastic
    priors: np.ndarray  # (C,), simplex
    labels: tuple[str, ...]

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.priors = np.asarray(self.priors, dtype=np.float64)
        self.labels = tuple(self.labels)
        C = self.transitions.shape[0]
        if self.transitions.shape != (C, C) or self.priors.shape != (C,):
            raise DimensionMismatch("transitions must be (C, C), priors (C,)")
        if len(self.labels) != C:
            raise DimensionMismatch("label alphabet size must equal C")
        if np.max(np.abs(self.transitions.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("transition rows must sum to 1 within 1e-9")
        if abs(self.priors.sum() - 1.0) > 1e-9 or np.any(self.priors < 0):
            raise ValueError("priors must lie on the simplex")

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]


def make_hmm(num_states: int, seed: int = 0, self_loop: float = 0.92) -> HmmModel:
    """Random but reproducible HMM with a given self-loop probability.

    Priors are set to the stationary distribution of the sampled
    transition matrix.
    """
    rng = np.random.default_rng([seed, 0x484D4D])
    C = num_states
    off = rng.dirichlet(np.ones(C - 1), size=C) * (1.0 - self_loop)
    trans = np.zeros((C, C))
    for i in range(C):
        row = np.delete(np.arange(C), i)
        trans[i, row] = off[i]
        trans[i, i] = self_loop
    trans /= trans.sum(axis=1, keepdims=True)
    labels = tuple(f"c{i:02d}" for i in range(C))
    hmm = HmmModel(transitions=trans, priors=np.full(C, 1.0 / C), labels=labels)
    return HmmModel(transitions=trans, priors=stationary(hmm), labels=labels)


def stationary(hmm: HmmModel) -> np.ndarray:
    """Stationary distribution of the transition matrix."""
    vals, vecs = np.linalg.eig(hmm.transitions.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, k])
    pi = np.abs(pi)
    return pi / pi.sum()


def viterbi(
    stream: PosteriorStream, hmm: HmmModel, scale_by_priors: bool = True
) -> np.ndarray:
    """Most likely state path given posteriors-as-emission-scores.

    A batch of one through viterbi_batch(); ties break toward the lower
    state index at every step.
    """
    return viterbi_batch(stream.probs[None], hmm, scale_by_priors)[0]


def viterbi_batch(
    probs: np.ndarray, hmm: HmmModel, scale_by_priors: bool = True
) -> np.ndarray:
    """Most likely state paths of B equal-length posterior streams at once.

    probs is a (B, T, C) stack of posterior matrices; the result is the
    (B, T) array of paths, row b being exactly what viterbi() returns for
    stream b alone.  Ties break toward the lower state index at every step.

    The forward pass keeps only the max-plus scores.  The backtrace
    recomputes each step's candidate scores from the stored ones; they are
    the same floats as in the forward pass, so its argmax picks the same
    (lowest-index) predecessor a stored backpointer would.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[2] != hmm.num_states:
        raise DimensionMismatch(
            f"HMM has {hmm.num_states} states: expected a (B, T, {hmm.num_states}) "
            f"posterior stack, got shape {probs.shape}"
        )
    log_prior = np.log(np.maximum(hmm.priors, LOG_EPS))
    log_trans = np.log(np.maximum(hmm.transitions, LOG_EPS))
    B, T, C = probs.shape
    logp = np.empty((T, B, C))  # emission scores, time-major
    np.maximum(probs.transpose(1, 0, 2), LOG_EPS, out=logp)
    np.log(logp, out=logp)
    if scale_by_priors:
        logp -= log_prior

    # The forward pass overwrites the emission scores frame by frame:
    # hist[t, b, j] becomes the best score of a path ending in state j.
    hist = logp
    hist[0] += log_prior
    cand = np.empty((C, B, C))  # (from, batch, to)
    best = np.empty((B, C))
    hist_from = hist.transpose(0, 2, 1)[:, :, :, None]  # (T, from, batch, 1)
    trans_from = log_trans[:, None, :]  # (from, 1, to)
    for t in range(1, T):
        np.add(hist_from[t - 1], trans_from, out=cand)
        np.maximum.reduce(cand, axis=0, out=best)
        hist[t] += best
    trans_to = np.ascontiguousarray(log_trans.T)  # (to, from)
    path = np.empty((T, B), dtype=np.intp)
    path[-1] = np.argmax(hist[-1], axis=1)
    for t in range(T - 1, 0, -1):
        path[t - 1] = np.argmax(hist[t - 1] + trans_to[path[t]], axis=1)
    return np.ascontiguousarray(path.T)


def path_score(
    path: np.ndarray, stream: PosteriorStream, hmm: HmmModel, scale_by_priors: bool = True
) -> float:
    """Log score of a state path under the same convention as viterbi()."""
    logp = np.log(np.maximum(stream.probs, LOG_EPS))
    if scale_by_priors:
        logp = logp - np.log(np.maximum(hmm.priors, LOG_EPS))
    log_trans = np.log(np.maximum(hmm.transitions, LOG_EPS))
    s = float(np.log(np.maximum(hmm.priors[path[0]], LOG_EPS)) + logp[0, path[0]])
    for t in range(1, len(path)):
        s += float(log_trans[path[t - 1], path[t]] + logp[t, path[t]])
    return s


@dataclass
class ErrorReport:
    frame_error_rate: float
    token_error_rate: float
    substitutions: int
    insertions: int
    deletions: int
    num_frames: int
    num_ref_tokens: int


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
    fer = float(np.mean(hyp != ref))
    cref = collapse_runs(ref)
    chyp = collapse_runs(hyp)
    s, i, d = levenshtein_counts(cref.tolist(), chyp.tolist())
    return ErrorReport(
        frame_error_rate=fer,
        token_error_rate=(s + i + d) / len(cref),
        substitutions=s,
        insertions=i,
        deletions=d,
        num_frames=int(ref.size),
        num_ref_tokens=int(len(cref)),
    )


def combine_reports(reports: list[ErrorReport]) -> ErrorReport:
    """Corpus-level report: counts summed, rates recomputed from totals."""
    frames = sum(r.num_frames for r in reports)
    tokens = sum(r.num_ref_tokens for r in reports)
    frame_errors = sum(r.frame_error_rate * r.num_frames for r in reports)
    s = sum(r.substitutions for r in reports)
    i = sum(r.insertions for r in reports)
    d = sum(r.deletions for r in reports)
    return ErrorReport(
        frame_error_rate=frame_errors / frames,
        token_error_rate=(s + i + d) / tokens,
        substitutions=s,
        insertions=i,
        deletions=d,
        num_frames=frames,
        num_ref_tokens=tokens,
    )
