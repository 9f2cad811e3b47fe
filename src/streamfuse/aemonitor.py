"""Autoencoder-based stream confidence monitor.

Posterior frames pass through a Logit transform (more Gaussian) and a PCA
projection fitted on training data, then a time-delay autoencoder is
trained to reconstruct the current frame's projected features from temporal
context assembled by per-layer splices.  At test time the squared l2 norm
of the reconstruction error measures train/test mismatch per frame and
stream; inverting and normalizing the errors across streams gives the
attention weights.

Training is plain (momentum) SGD on the MSE criterion, from scratch on
numpy, single-threaded with a fixed accumulation order so a seed fully
determines the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import AttentionSchedule, PosteriorStream, StreamSet
from .errors import DegenerateData, DimensionMismatch, DivergedTraining

DEFAULT_LOGIT_CLAMP = 1e-6
# Floor on the squared reconstruction error before inversion.
ERROR_FLOOR = 1e-6
# Hidden widths of the published architecture: five ReLU layers (24-unit
# bottleneck in the middle) and a linear output back to the feature dim.
PAPER_HIDDEN_WIDTHS = (512, 512, 24, 512, 512)
DEFAULT_PCA_DIM = 40

_PLAN_PATH = Path(__file__).with_name("splice_plans.cfg")


def _load_splice_plans(path: Path = _PLAN_PATH) -> dict:
    plans: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    key = None
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[context"):
            _, left, right = line.strip("[]").split()
            key = (int(left), int(right))
            plans[key] = []
        else:
            _, offsets = line.split(":", 1)
            plans[key].append(tuple(int(o) for o in offsets.split(",")))
    return plans


SPLICE_PLANS = _load_splice_plans()


def receptive_field(plan: list[tuple[int, ...]]) -> tuple[int, int]:
    """(left, right) context reach of a per-layer offset plan."""
    return (
        sum(min(o) for o in plan),
        sum(max(o) for o in plan),
    )


@dataclass
class FrontEnd:
    """Logit + PCA projection applied to posterior rows."""

    pca_mean: np.ndarray  # (C,), mean in logit space
    pca_basis: np.ndarray  # (C, K), orthonormal columns
    logit_clamp: float = DEFAULT_LOGIT_CLAMP

    def __post_init__(self):
        self.pca_mean = np.asarray(self.pca_mean, dtype=np.float64)
        self.pca_basis = np.asarray(self.pca_basis, dtype=np.float64)
        if not 0.0 < self.logit_clamp < 0.5:
            raise ValueError("logit_clamp must be in (0, 0.5)")

    @property
    def num_classes(self) -> int:
        return self.pca_basis.shape[0]

    @property
    def output_dim(self) -> int:
        return self.pca_basis.shape[1]


@dataclass
class Layer:
    weight: np.ndarray  # (fan_in, width)
    bias: np.ndarray  # (width,)
    activation: str  # "relu" | "linear"
    offsets: tuple[int, ...] = (0,)


@dataclass
class AeModel:
    front_end: FrontEnd
    layers: list[Layer]
    context: tuple[int, int]

    @property
    def splice_plan(self) -> list[tuple[int, ...]]:
        return [ly.offsets for ly in self.layers]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 15
    batch_size: int = 128  # frames per gradient update
    seed: int = 0
    optimizer: str = "momentum"  # "sgd" | "momentum"
    momentum_coeff: float = 0.9

    def __post_init__(self):
        if self.learning_rate < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("learning_rate >= 0, epochs >= 1, batch_size >= 1")
        if self.optimizer not in ("sgd", "momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def logit_transform(probs: np.ndarray, clamp: float = DEFAULT_LOGIT_CLAMP) -> np.ndarray:
    """Elementwise ln(p / (1 - p)) with p clamped into [clamp, 1 - clamp]."""
    p = np.clip(np.asarray(probs, dtype=np.float64), clamp, 1.0 - clamp)
    return np.log(p / (1.0 - p))


def fit_pca(data: np.ndarray, K: int, logit_clamp: float = DEFAULT_LOGIT_CLAMP) -> FrontEnd:
    """PCA of (already logit-space) data; basis = top-K eigenvectors.

    Eigenvector signs are fixed (largest-magnitude entry positive) for
    determinism.  Raises DegenerateData when the covariance rank is < K.
    """
    data = np.asarray(data, dtype=np.float64)
    N, C = data.shape
    if K > C:
        raise ValueError("K must be <= C")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (N - 1)
    vals, vecs = np.linalg.eigh(cov)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if np.sum(vals > max(vals[0], 0.0) * 1e-10) < K:
        raise DegenerateData(f"covariance rank below K={K}")
    basis = vecs[:, :K].copy()
    for k in range(K):
        j = int(np.argmax(np.abs(basis[:, k])))
        if basis[j, k] < 0:
            basis[:, k] = -basis[:, k]
    return FrontEnd(pca_mean=mean, pca_basis=basis, logit_clamp=logit_clamp)


def fit_front_end(
    prob_rows: np.ndarray, K: int, logit_clamp: float = DEFAULT_LOGIT_CLAMP
) -> FrontEnd:
    """Fit the Logit + PCA front-end on raw posterior rows."""
    return fit_pca(logit_transform(prob_rows, logit_clamp), K, logit_clamp)


def front_end_apply(fe: FrontEnd, prob_rows: np.ndarray) -> np.ndarray:
    """(N, C) posterior rows -> (N, K) projected features."""
    z = logit_transform(prob_rows, fe.logit_clamp)
    return (z - fe.pca_mean) @ fe.pca_basis


def _splice(h: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """(T, len(offsets) * width) frames at the given offsets, edges repeated.

    Each offset's column block is filled from one contiguous slice of h,
    with the first and last frame standing in for frames beyond the ends.
    The zero-offset plan returns h itself.
    """
    if offsets == (0,):
        return h
    T, W = h.shape
    x = np.empty((T, len(offsets), W))
    for k, o in enumerate(offsets):
        # Rows lo..hi-1 read frame t + o inside the sequence.
        lo, hi = min(max(-o, 0), T), min(max(T - o, 0), T)
        x[:lo, k] = h[0]
        x[lo:hi, k] = h[lo + o : hi + o]
        x[hi:, k] = h[T - 1]
    return x.reshape(T, -1)


def _unsplice(dx: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """Sum a (T, len(offsets) * width) splice gradient onto the frames it read.

    Bit-exact with numpy's unbuffered scatter-add over the clipped
    (t, k) -> t + offsets[k] index matrix, which adds into each frame,
    starting from 0.0, in ascending (t, k) order.  Frames 1..T-2 are only
    read unclamped, from t = r - offsets[k], so ascending t is descending
    offset: one shifted slice-add per offset in that order.  Frames 0 and
    T-1 also collect the clamped reads and are summed term by term.  The
    zero-offset plan is the identity: its gradient is a GEMM product, which
    holds no -0.0, so adding it to 0.0 would change no bit.
    """
    if offsets == (0,):
        return dx
    T = dx.shape[0]
    dx = dx.reshape(T, len(offsets), -1)
    out = np.zeros((T, dx.shape[2]))
    for k in sorted(range(len(offsets)), key=lambda k: (-offsets[k], k)):
        o = offsets[k]
        lo, hi = max(1, o), min(T - 1, T + o)
        if lo < hi:
            out[lo:hi] += dx[lo - o : hi - o, k]
    # Only t < n_first reach frame 0 and only t >= last reach frame T-1.
    n_first = min(T, max(0, 1 - min(offsets)))
    last = max(n_first, T - 1 - max(offsets))
    for t in (*range(n_first), *range(last, T)):
        for k, o in enumerate(offsets):
            r = min(max(t + o, 0), T - 1)
            if r == 0 or r == T - 1:
                out[r] += dx[t, k]
    return out


def splice_context(
    features: np.ndarray, t: int, context: tuple[int, int]
) -> np.ndarray:
    """First-layer spliced input vector for frame t under a named context."""
    plan = SPLICE_PLANS[tuple(context)]
    return _splice(np.asarray(features, dtype=np.float64), plan[0])[t]


def build_architecture(
    K: int,
    context: tuple[int, int] = (0, 0),
    hidden_widths: tuple[int, ...] | None = None,
    rng: np.random.Generator | None = None,
) -> list[Layer]:
    """Layer stack for the autoencoder; He-style random init.

    hidden_widths=None gives the published 6-layer architecture.  Custom
    depths are only available without temporal context because the splice
    plans are written for the 6-layer stack.
    """
    context = tuple(context)
    if hidden_widths is None:
        hidden_widths = PAPER_HIDDEN_WIDTHS
        plan = SPLICE_PLANS[context]
    else:
        if context != (0, 0):
            raise ValueError("custom widths require context (0, 0)")
        plan = [(0,)] * (len(hidden_widths) + 1)
    rng = rng or np.random.default_rng(0)
    widths = [K, *hidden_widths, K]
    layers = []
    for i, offsets in enumerate(plan):
        fan_in = widths[i] * len(offsets)
        w = rng.standard_normal((fan_in, widths[i + 1])) * np.sqrt(2.0 / fan_in)
        layers.append(
            Layer(
                weight=w,
                bias=np.zeros(widths[i + 1]),
                activation="linear" if i == len(plan) - 1 else "relu",
                offsets=tuple(offsets),
            )
        )
    return layers


def forward(layers: list[Layer], z: np.ndarray) -> np.ndarray:
    """Network output over a whole (T, K) feature sequence."""
    h = np.ascontiguousarray(z, dtype=np.float64)
    for ly in layers:
        a = _splice(h, ly.offsets) @ ly.weight
        a += ly.bias
        if ly.activation == "relu":
            np.maximum(a, 0.0, out=a)
        h = a
    return h


def loss_and_grads(
    layers: list[Layer],
    z: np.ndarray,
    target: np.ndarray,
    rows: np.ndarray | None = None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """MSE over the selected frames and its gradients w.r.t. every layer.

    The full sequence is run (splices reach across frames); the loss only
    counts the frames in `rows` (all frames when None).
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    caches = []
    h = z
    for ly in layers:
        x = _splice(h, ly.offsets)
        a = x @ ly.weight
        a += ly.bias
        h = np.maximum(a, 0.0) if ly.activation == "relu" else a
        caches.append((x, a))
    diff = h - target
    if rows is None:
        rows = np.arange(z.shape[0])
    n = rows.size * h.shape[1]
    loss = float(np.sum(diff[rows] ** 2) / n)
    d = np.zeros_like(h)
    d[rows] = 2.0 * diff[rows] / n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        ly = layers[i]
        x, a = caches[i]
        if ly.activation == "relu":
            d *= a > 0
        grads[i] = (x.T @ d, d.sum(axis=0))
        if i > 0:
            d = _unsplice(d @ ly.weight.T, ly.offsets)
    return loss, grads


def evaluate_mse(layers: list[Layer], z_list: list[np.ndarray]) -> float:
    """Mean reconstruction MSE over all frames of all sequences."""
    total = 0.0
    frames = 0
    for z in z_list:
        out = forward(layers, z)
        total += float(np.sum((out - z) ** 2))
        frames += z.shape[0]
    return total / (frames * z_list[0].shape[1])


def train_ae(
    data: list[PosteriorStream],
    cfg: TrainConfig,
    context: tuple[int, int] = (0, 0),
    hidden_widths: tuple[int, ...] | None = None,
    front_end: FrontEnd | None = None,
) -> tuple[AeModel, list[float]]:
    """Train the autoencoder on clean posterior streams.

    Returns the model and the loss log: entry 0 is the pre-training MSE
    over the full data, entry e the MSE after epoch e.
    """
    if not data:
        raise ValueError("training data must be non-empty")
    if len({s.num_classes for s in data}) > 1:
        raise DimensionMismatch("training streams disagree on class count")
    if front_end is None:
        all_rows = np.vstack([s.probs for s in data])
        front_end = fit_front_end(all_rows, min(data[0].num_classes, DEFAULT_PCA_DIM))
    z_list = [front_end_apply(front_end, s.probs) for s in data]
    rng = np.random.default_rng(cfg.seed)
    layers = build_architecture(front_end.output_dim, context, hidden_widths, rng)
    velocity = [
        (np.zeros_like(ly.weight), np.zeros_like(ly.bias)) for ly in layers
    ]
    losses = [evaluate_mse(layers, z_list)]
    for _ in range(cfg.epochs):
        for z in z_list:
            T = z.shape[0]
            for start in range(0, T, cfg.batch_size):
                rows = np.arange(start, min(start + cfg.batch_size, T))
                loss, grads = loss_and_grads(layers, z, z, rows)
                if not np.isfinite(loss):
                    raise DivergedTraining(f"training loss became {loss}")
                # In place, rounding exactly like w += mc * v - lr * g.
                for ly, vel, grad in zip(layers, velocity, grads):
                    for w, v, g in zip((ly.weight, ly.bias), vel, grad):
                        g *= cfg.learning_rate
                        if cfg.optimizer == "momentum":
                            v *= cfg.momentum_coeff
                            v -= g
                            w += v
                        else:
                            w -= g
        epoch_mse = evaluate_mse(layers, z_list)
        if not np.isfinite(epoch_mse):
            raise DivergedTraining(f"training loss became {epoch_mse}")
        losses.append(epoch_mse)
    model = AeModel(front_end=front_end, layers=layers, context=tuple(context))
    return model, losses


def reconstruction_errors(model: AeModel, stream: PosteriorStream) -> np.ndarray:
    """Per-frame squared l2 reconstruction error in front-end feature space."""
    if stream.num_classes != model.front_end.num_classes:
        raise DimensionMismatch("stream and model disagree on class count")
    z = front_end_apply(model.front_end, stream.probs)
    out = forward(model.layers, z)
    return np.sum((out - z) ** 2, axis=1)


def ae_attention(sset: StreamSet, model: AeModel) -> AttentionSchedule:
    """Inverse reconstruction-error attention over an aligned stream set."""
    errs = np.stack(
        [reconstruction_errors(model, s) for s in sset.streams], axis=1
    )  # (T, M)
    inv = 1.0 / np.maximum(errs, ERROR_FLOOR)
    return AttentionSchedule(inv / inv.sum(axis=1, keepdims=True))
