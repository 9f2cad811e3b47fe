"""Unsupervised stream-reliability monitors built on posteriorgram analysis.

Two families:

* frame-wise inverse-entropy weighting: a frame whose posterior is close to
  uniform (high entropy) carries little evidence, so its stream is
  down-weighted at that frame;
* window-level mean time distance: the average symmetric KL divergence
  between posterior frames spaced by fixed time spans.  Stationary
  distortions flatten temporal dynamics and shrink this value, so the
  stream with the highest score per window is selected outright (binary
  attention).  The "delta" variant only counts frame pairs whose argmax
  class differs, gating the divergences on class change.  Both the
  schedule and `m_measure` read one (windows x M) matrix from
  `window_scores`: the schedule takes each window's argmax, `m_measure` a
  stream's length-weighted mean.  The spans are SPANS, and the window
  (None: the utterance) is the one setting; check_window and check_fit
  check a window and a stream's length against the longest span.

All measures use natural logs (nats).
"""

from __future__ import annotations

import numpy as np

from .core import LOG_EPS, AttentionSchedule, PosteriorStream, StreamSet, inverse_weights
from .errors import WindowTooShort

# Entropy floor applied before inversion so a saturated (one-hot) stream
# yields a large but bounded weight.
ENTROPY_FLOOR = 1e-3

#: Time spans (frames) for the mean-time-distance measures, covering a few
#: hundred milliseconds at a 10 ms frame rate.
SPANS = (5, 10, 20, 30, 40, 50)


def check_window(window: int | None) -> None:
    """Raise ValueError unless window is None (one window over the utterance)
    or holds the longest span."""
    if window is not None and window < max(SPANS) + 1:
        raise ValueError("window must be >= max(spans) + 1")


def check_fit(frames: int, window: int | None) -> None:
    """Raise WindowTooShort unless every analysis window of a frames-long
    stream hosts the longest span."""
    shortest = min(b - a for a, b in _window_bounds(frames, window))
    if shortest < max(SPANS) + 1:
        scope = "over the utterance" if window is None else f"window={window}"
        raise WindowTooShort(
            f"window of {shortest} frames cannot host span {max(SPANS)} "
            f"(M-measure {scope}, spans={','.join(map(str, SPANS))})"
        )


def entropy_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy of a (T, C) matrix, in nats."""
    return -(mat * np.log(np.maximum(mat, LOG_EPS))).sum(axis=1)


def symmetric_kld_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise symmetric KL divergence between two (N, C) matrices."""
    lp = np.log(np.maximum(P, LOG_EPS))
    lq = np.log(np.maximum(Q, LOG_EPS))
    return ((P - Q) * (lp - lq)).sum(axis=1)


def _window_bounds(T: int, window: int | None) -> list[tuple[int, int]]:
    """Tile [0, T) into analysis windows; a short tail joins the last tile."""
    if window is None or window >= T:
        return [(0, T)]
    starts = list(range(0, T, window))
    bounds = [(s, min(s + window, T)) for s in starts]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < window:
        last = bounds.pop()
        prev = bounds.pop()
        bounds.append((prev[0], last[1]))
    return bounds


def _mean_time_distance(probs: np.ndarray, delta: bool) -> float:
    """Average pairwise divergence over SPANS within one window of at least
    max(SPANS) + 1 frames."""
    per_span = []
    for d in SPANS:
        div = symmetric_kld_rows(probs[:-d], probs[d:])
        if delta:
            changed = np.argmax(probs[:-d], axis=1) != np.argmax(probs[d:], axis=1)
            div = div[changed]
            per_span.append(float(div.mean()) if div.size else 0.0)
        else:
            per_span.append(float(div.mean()))
    return float(np.mean(per_span))


def window_scores(
    sset: StreamSet, window: int | None, *, delta: bool
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Analysis windows of an aligned stream set and their (windows, M) scores.

    Cell (w, m) is stream m's mean time distance over window w (None: the
    utterance); delta=True counts only frame pairs whose argmax class
    differs.  A window shorter than the longest span raises ValueError
    (check_window), and a stream too short for it WindowTooShort (check_fit).
    """
    T = sset.streams[0].num_frames
    check_window(window)
    check_fit(T, window)
    bounds = _window_bounds(T, window)
    scores = np.array([
        [_mean_time_distance(s.probs[a:b], delta) for s in sset.streams]
        for a, b in bounds
    ])
    return bounds, scores


def m_measure(stream: PosteriorStream, window: int | None = None, *, delta: bool = False) -> float:
    """Mean time distance of a stream (utterance-level unless windowed).

    With a finite window the per-window values are averaged, weighted by
    window length, so the utterance-level call is the single-window case.
    delta=True gives the delta M-measure.
    """
    bounds, scores = window_scores(StreamSet([stream]), window, delta=delta)
    return float(np.average(scores[:, 0], weights=[b - a for a, b in bounds]))


def binary_window_attention(
    sset: StreamSet, window: int | None = None, *, delta: bool = False
) -> AttentionSchedule:
    """One-hot schedule selecting the highest-scoring stream per window.

    delta=True scores windows by the delta M-measure.  Ties go to the
    lowest stream index.
    """
    bounds, scores = window_scores(sset, window, delta=delta)
    weights = np.zeros((sset.streams[0].num_frames, sset.num_streams))
    # argmax takes the first (lowest) index on ties.
    for (a, b), winner in zip(bounds, np.argmax(scores, axis=1)):
        weights[a:b, winner] = 1.0
    return AttentionSchedule(weights)


def entropy_attention(sset: StreamSet) -> AttentionSchedule:
    """Frame-wise inverse-entropy attention over an aligned stream set."""
    ent = np.stack([entropy_rows(s.probs) for s in sset.streams], axis=1)  # (T, M)
    return AttentionSchedule(inverse_weights(ent, ENTROPY_FLOOR))
