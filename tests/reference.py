"""Independent reference implementations used as test oracles.

Everything here is deliberately written in plain Python (math module,
itertools) rather than numpy, so the values it produces do not share code
paths with the package under test.  The exceptions are the last four
sections: numpy copies of the autoencoder's earlier fancy-index splice,
np.add.at backward and out-of-place update, which the faster kernels must
match bit for bit; evaluate's earlier loops, one per system, which its
one pass over the utterances must match row for row; the M-measures' loops
over windows, which window_scores' one matrix must match bit for bit; and helpers only
tests call, which read the package's conventions (a path's score, a splice
plan's reach) for the assertions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from streamfuse import aemonitor, storage
from streamfuse.core import LOG_EPS as PACKAGE_LOG_EPS
from streamfuse.core import AttentionSchedule, align_streams, fuse, n_best_truncate, overlap_range
from streamfuse.decoder import combine_reports, score, viterbi_batch
from streamfuse.experiments import compute_schedule, read_config_pairs
from streamfuse.measures import _window_bounds, symmetric_kld_rows

LOG_EPS = 1e-10
ENTROPY_FLOOR = 1e-3


def entropy_ref(p) -> float:
    return -sum(x * math.log(max(x, LOG_EPS)) for x in p)


def inverse_entropy_weights_ref(entropies) -> list[float]:
    inv = [1.0 / max(h, ENTROPY_FLOOR) for h in entropies]
    z = sum(inv)
    return [v / z for v in inv]


def symmetric_kld_ref(p, q) -> float:
    return sum(
        (pi - qi) * (math.log(max(pi, LOG_EPS)) - math.log(max(qi, LOG_EPS)))
        for pi, qi in zip(p, q)
    )


def inverse_error_weights_ref(errors, floor=1e-6) -> list[float]:
    inv = [1.0 / max(e, floor) for e in errors]
    z = sum(inv)
    return [v / z for v in inv]


def logit_ref(p, clamp) -> float:
    p = min(max(p, clamp), 1.0 - clamp)
    return math.log(p / (1.0 - p))


def m_measure_ref(rows, spans, gate_on_argmax=False) -> float:
    """Utterance-level mean time distance of a list of posterior rows."""
    T = len(rows)
    per_span = []
    for d in spans:
        divs = []
        for t in range(T - d):
            if gate_on_argmax:
                a = max(range(len(rows[t])), key=rows[t].__getitem__)
                b = max(range(len(rows[t + d])), key=rows[t + d].__getitem__)
                if a == b:
                    continue
            divs.append(symmetric_kld_ref(rows[t], rows[t + d]))
        per_span.append(sum(divs) / len(divs) if divs else 0.0)
    return sum(per_span) / len(per_span)


def path_score_ref(path, logp_rows, log_trans, log_prior) -> float:
    s = log_prior[path[0]] + logp_rows[0][path[0]]
    for t in range(1, len(path)):
        s += log_trans[path[t - 1]][path[t]] + logp_rows[t][path[t]]
    return s


def viterbi_backpointer_ref(logp, log_trans, log_prior):
    """Best path by the textbook recursion with stored backpointers.

    Takes the emission, transition and prior log scores as nested lists
    (so the floats are exactly the decoder's) and breaks every tie toward
    the lowest state index: max() returns the first maximal item.
    """
    T, C = len(logp), len(log_prior)
    delta = [log_prior[c] + logp[0][c] for c in range(C)]
    back = []
    for t in range(1, T):
        ptrs, nxt = [], []
        for j in range(C):
            i = max(range(C), key=lambda i: delta[i] + log_trans[i][j])
            ptrs.append(i)
            nxt.append(delta[i] + log_trans[i][j] + logp[t][j])
        back.append(ptrs)
        delta = nxt
    path = [max(range(C), key=delta.__getitem__)]
    for ptrs in reversed(back):
        path.append(ptrs[path[-1]])
    return path[::-1]


def viterbi_exhaustive(probs, trans, priors, scale_by_priors=True):
    """Best path by brute force over all C^T paths.

    Returns (best_score, best_path, margin) where margin is the score gap
    to the best path that differs from best_path (math.inf when C**T == 1).
    Uses the same log flooring conventions as the decoder.
    """
    T = len(probs)
    C = len(probs[0])
    log_prior = [math.log(max(p, LOG_EPS)) for p in priors]
    log_trans = [[math.log(max(x, LOG_EPS)) for x in row] for row in trans]
    logp = [
        [
            math.log(max(p, LOG_EPS))
            - (math.log(max(priors[c], LOG_EPS)) if scale_by_priors else 0.0)
            for c, p in enumerate(row)
        ]
        for row in probs
    ]
    best_score, best_path, second = -math.inf, None, -math.inf
    for path in itertools.product(range(C), repeat=T):
        s = path_score_ref(path, logp, log_trans, log_prior)
        if s > best_score:
            second = best_score
            best_score, best_path = s, path
        elif s > second:
            second = s
    return best_score, list(best_path), best_score - second


def edit_distance_ref(ref, hyp) -> int:
    """Plain Levenshtein distance by recursive brute force (small inputs)."""

    def go(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        return min(
            go(i + 1, j + 1) + (ref[i] != hyp[j]),
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
        )

    return go(0, 0)


# --- Autoencoder kernels as first written (bit-exactness oracles) ---------


def splice_gather_ref(h, offsets):
    """(T, n * W) splice by a clipped index-matrix gather, and that matrix."""
    T = h.shape[0]
    idx = np.clip(np.arange(T)[:, None] + np.asarray(offsets, dtype=np.intp), 0, T - 1)
    return h[idx].reshape(T, -1), idx


def splice_scatter_ref(dx, idx, width):
    """Splice backward: np.add.at of the (T, n * W) gradient through idx."""
    dprev = np.zeros((idx.shape[0], width), dtype=dx.dtype)
    np.add.at(dprev, idx.ravel(), dx.reshape(-1, width))
    return dprev


def forward_ref(layers, z):
    h = np.asarray(z, dtype=layers[0].weight.dtype)
    for ly in layers:
        x, _ = splice_gather_ref(h, ly.offsets)
        a = x @ ly.weight + ly.bias
        h = np.maximum(a, 0.0) if ly.activation == "relu" else a
    return h


def loss_and_grads_ref(layers, z, target, rows=None):
    z = np.asarray(z, dtype=layers[0].weight.dtype)
    caches = []
    h = z
    for ly in layers:
        x, idx = splice_gather_ref(h, ly.offsets)
        a = x @ ly.weight + ly.bias
        out = np.maximum(a, 0.0) if ly.activation == "relu" else a
        caches.append((h.shape, x, idx, a))
        h = out
    diff = h - np.asarray(target, dtype=z.dtype)
    if rows is None:
        rows = np.arange(z.shape[0])
    n = rows.size * h.shape[1]
    loss = float(np.sum(diff[rows] ** 2) / n)
    d = np.zeros_like(h)
    d[rows] = 2.0 * diff[rows] / n
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        ly = layers[i]
        prev_shape, x, idx, a = caches[i]
        if ly.activation == "relu":
            d = d * (a > 0)
        grads[i] = (x.T @ d, d.sum(axis=0))
        if i > 0:
            d = splice_scatter_ref(d @ ly.weight.T, idx, prev_shape[1])
    return loss, grads


def evaluate_mse_ref(layers, z_list):
    total = 0.0
    frames = 0
    for z in z_list:
        out = forward_ref(layers, z)
        total += float(np.sum((out - z) ** 2))
        frames += z.shape[0]
    return total / (frames * z_list[0].shape[1])


def train_loop_ref(layers, z_list, cfg, dtype=np.float32):
    """train_ae's epoch loop on given initial float64 layers (updated in place).

    Training runs in dtype, float32 as train_ae's does: the layers and the
    features are cast first, and the layers end holding the trained dtype
    arrays, as train_ae's model does.  Each minibatch runs over its window,
    the frames [start + left, stop + right) clipped to the sequence, where
    (left, right) is the receptive field of the layers' splice plan.
    Returns the loss log: the MSE of the dtype network on the float64
    features before training, then after each epoch.
    """
    for ly in layers:
        ly.weight, ly.bias = ly.weight.astype(dtype), ly.bias.astype(dtype)
    left, right = receptive_field([ly.offsets for ly in layers])
    velocity = [(np.zeros_like(ly.weight), np.zeros_like(ly.bias)) for ly in layers]
    losses = [evaluate_mse_ref(layers, z_list)]
    for _ in range(cfg.epochs):
        for z in z_list:
            z = z.astype(dtype)
            T = z.shape[0]
            for start in range(0, T, cfg.batch_size):
                stop = min(start + cfg.batch_size, T)
                lo, hi = max(start + left, 0), min(stop + right, T)
                rows = np.arange(start - lo, stop - lo)
                _, grads = loss_and_grads_ref(layers, z[lo:hi], z[lo:hi], rows)
                for ly, vel, (gw, gb) in zip(layers, velocity, grads):
                    vel[0][...] = aemonitor.MOMENTUM * vel[0] - cfg.learning_rate * gw
                    vel[1][...] = aemonitor.MOMENTUM * vel[1] - cfg.learning_rate * gb
                    ly.weight += vel[0]
                    ly.bias += vel[1]
        losses.append(evaluate_mse_ref(layers, z_list))
    return losses


# --- evaluate's per-system loops as first written (equality oracles) -----


def decode_reports_ref(streams, labels, hmm, start=0):
    """Decode equal-length streams in one Viterbi batch and score each one."""
    paths = viterbi_batch(np.stack([s.probs for s in streams]), hmm)
    reports = []
    for path, s in zip(paths, streams):
        o, T = s.frame_offset, len(path)
        jlo = max(0, o - start)
        jhi = min(T - 1, len(labels) - 1 - start + o)
        reports.append(
            score(path[jlo : jhi + 1], labels[start + jlo - o : start + jhi - o + 1])
        )
    return reports


def evaluate_single_streams_ref(corpus):
    per_stream = [[] for _ in range(corpus.spec.num_streams)]
    clean = []
    for u in corpus:
        lo, _ = overlap_range(u.streams)
        aligned = align_streams(u.streams)
        reports = decode_reports_ref(aligned.streams, u.labels, corpus.hmm, start=lo)
        for m, rep in enumerate(reports):
            per_stream[m].append(rep)
        clean += decode_reports_ref([u.clean], u.labels, corpus.hmm)
    rows = [(f"stream:{m}", combine_reports(reps)) for m, reps in enumerate(per_stream)]
    rows.append(("clean", combine_reports(clean)))
    return rows


def evaluate_fused_dir_ref(corpus, fused_dir):
    fcfg = dict(read_config_pairs(fused_dir / "fuse.cfg"))
    name = fcfg["method"]
    if fcfg.get("n"):
        name += f":n={fcfg['n']}"
    reports = []
    for utt in corpus:
        lo, _ = overlap_range(utt.streams)
        fused = storage.read_stream(fused_dir / f"utt{utt.utt_id:04d}_fused.strm")
        reports += decode_reports_ref([fused], utt.labels, corpus.hmm, start=lo)
    return name, combine_reports(reports)


def evaluate_methods_ref(corpus, methods, *, model=None):
    """One row per (method, n) pair: a pass of its own that computes each
    utterance's schedule under that method and n, fuses and scores it.
    max_n is entropy truncated to n, 1 when n is None."""
    rows = []
    for method, n in methods:
        frame, keep = ("entropy", 1 if n is None else n) if method == "max_n" else (method, n)
        reports = []
        for utt in corpus:
            lo, _ = overlap_range(utt.streams)
            aligned = align_streams(utt.streams)
            sched = compute_schedule(frame, aligned, corpus.facts.oracle_stream, model=model)
            if keep is not None:
                sched = n_best_truncate(sched, keep)
            reports += decode_reports_ref([fuse(aligned, sched)], utt.labels, corpus.hmm, start=lo)
        rows.append((method + ("" if n is None else f":n={n}"), combine_reports(reports)))
    return rows


# --- The M-measures' window loops as first written (bit-exactness oracles)


def _mean_time_distance_ref(probs, spans, gate_on_argmax) -> float:
    """One window's mean over spans of the mean symmetric KL divergence of its
    frame pairs, in the package's numpy operations and order."""
    per_span = []
    for d in spans:
        div = symmetric_kld_rows(probs[:-d], probs[d:])
        if gate_on_argmax:
            div = div[np.argmax(probs[:-d], axis=1) != np.argmax(probs[d:], axis=1)]
            per_span.append(float(div.mean()) if div.size else 0.0)
        else:
            per_span.append(float(div.mean()))
    return float(np.mean(per_span))


def m_measure_loop_ref(stream, spans, window, gate_on_argmax=False) -> float:
    """A stream's length-weighted mean of per-window mean time distances."""
    vals, lens = [], []
    for a, b in _window_bounds(stream.num_frames, window):
        vals.append(_mean_time_distance_ref(stream.probs[a:b], spans, gate_on_argmax))
        lens.append(b - a)
    return float(np.average(vals, weights=lens))


def binary_window_attention_ref(sset, spans, window, gate_on_argmax=False):
    """One-hot schedule of the highest-scoring stream per window."""
    T = sset.streams[0].num_frames
    weights = np.zeros((T, sset.num_streams))
    for a, b in _window_bounds(T, window):
        scores = [
            _mean_time_distance_ref(s.probs[a:b], spans, gate_on_argmax) for s in sset.streams
        ]
        weights[a:b, int(np.argmax(scores))] = 1.0
    return AttentionSchedule(weights)


# --- Helpers only tests call, on the package's conventions ----------------


def path_score(path, stream, hmm, scale_by_priors=True) -> float:
    """Log score of a state path under the same convention as viterbi_batch()."""
    logp = np.log(np.maximum(stream.probs, PACKAGE_LOG_EPS))
    if scale_by_priors:
        logp = logp - np.log(np.maximum(hmm.priors, PACKAGE_LOG_EPS))
    log_trans = np.log(np.maximum(hmm.transitions, PACKAGE_LOG_EPS))
    s = float(np.log(np.maximum(hmm.priors[path[0]], PACKAGE_LOG_EPS)) + logp[0, path[0]])
    for t in range(1, len(path)):
        s += float(log_trans[path[t - 1], path[t]] + logp[t, path[t]])
    return s


def receptive_field(plan) -> tuple[int, int]:
    """(left, right) context reach of a per-layer offset plan."""
    return (
        sum(min(o) for o in plan),
        sum(max(o) for o in plan),
    )


def splice_context(features, t, context):
    """First-layer spliced input vector for frame t under a named context."""
    plan = aemonitor.SPLICE_PLANS[tuple(context)]
    return aemonitor._splice(np.asarray(features, dtype=np.float64), plan[0])[t]
