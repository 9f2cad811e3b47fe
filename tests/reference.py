"""Independent reference implementations used as test oracles.

Everything here is deliberately written in plain Python (math module,
itertools) rather than numpy, so the values it produces do not share code
paths with the package under test.  The exception is the last section:
numpy copies of the autoencoder's earlier fancy-index splice, np.add.at
backward and out-of-place update, which the faster kernels must match
bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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
    dprev = np.zeros((idx.shape[0], width))
    np.add.at(dprev, idx.ravel(), dx.reshape(-1, width))
    return dprev


def forward_ref(layers, z):
    h = np.asarray(z, dtype=np.float64)
    for ly in layers:
        x, _ = splice_gather_ref(h, ly.offsets)
        a = x @ ly.weight + ly.bias
        h = np.maximum(a, 0.0) if ly.activation == "relu" else a
    return h


def loss_and_grads_ref(layers, z, target, rows=None):
    z = np.asarray(z, dtype=np.float64)
    caches = []
    h = z
    for ly in layers:
        x, idx = splice_gather_ref(h, ly.offsets)
        a = x @ ly.weight + ly.bias
        out = np.maximum(a, 0.0) if ly.activation == "relu" else a
        caches.append((h.shape, x, idx, a))
        h = out
    diff = h - target
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


def train_loop_ref(layers, z_list, cfg):
    """train_ae's epoch loop on given initial layers (updated in place).

    Returns the loss log: the MSE before training, then after each epoch.
    """
    velocity = [(np.zeros_like(ly.weight), np.zeros_like(ly.bias)) for ly in layers]
    losses = [evaluate_mse_ref(layers, z_list)]
    for _ in range(cfg.epochs):
        for z in z_list:
            T = z.shape[0]
            for start in range(0, T, cfg.batch_size):
                rows = np.arange(start, min(start + cfg.batch_size, T))
                _, grads = loss_and_grads_ref(layers, z, z, rows)
                for ly, vel, (gw, gb) in zip(layers, velocity, grads):
                    if cfg.optimizer == "momentum":
                        vel[0][...] = cfg.momentum_coeff * vel[0] - cfg.learning_rate * gw
                        vel[1][...] = cfg.momentum_coeff * vel[1] - cfg.learning_rate * gb
                        ly.weight += vel[0]
                        ly.bias += vel[1]
                    else:
                        ly.weight -= cfg.learning_rate * gw
                        ly.bias -= cfg.learning_rate * gb
        losses.append(evaluate_mse_ref(layers, z_list))
    return losses
