"""Autoencoder-based stream confidence monitor.

Posterior frames pass through a Logit transform (more Gaussian) and a PCA
projection fitted on training data, then a time-delay autoencoder is
trained to reconstruct the current frame's projected features from temporal
context assembled by per-layer splices.  At test time the squared l2 norm
of the reconstruction error measures train/test mismatch per frame and
stream; inverting and normalizing the errors across streams gives the
attention weights.

Training is momentum SGD on the MSE criterion, from scratch on
numpy, with a fixed accumulation order so a seed fully determines the
result at any BLAS thread count.  It runs in float32, each minibatch on
its receptive-field window (train_ae), in the features of a front end
fitted beforehand (fit_front_end); loss_and_grads hands each layer's
gradients to the update step as it goes.  An AeModel holds float32 layers,
the weights trained and run; model files widen them to <f8, which is
exact.  forward, loss_and_grads, their splices and their buffers take
their dtype from the weights they are given, so the same kernels also
run a float64 gradient check on plain float64 Layers.  forward and its
splices take a leading batch axis, so the monitor (ae_attention) runs
the M streams of an utterance as stacked blocks of whole streams: one
GEMM per layer on each block's frames, at most max(INFERENCE_ROWS, T) of
them, in a buffer set the model holds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    AttentionSchedule,
    PosteriorStream,
    StreamSet,
    check_range,
    finite_as,
    inverse_weights,
)
from .errors import DegenerateData, DimensionMismatch, DivergedTraining, StreamFuseError

DEFAULT_LOGIT_CLAMP = 1e-3
# The open (lo, hi) range of the logit clamp: 0 leaves log(0) in, and at
# 0.5 every probability clips to one value.
LOGIT_CLAMP_RANGE = (0.0, 0.5)
# Floor on the squared reconstruction error before inversion.
ERROR_FLOOR = 1e-6
# Hidden widths of the published architecture: five ReLU layers (24-unit
# bottleneck in the middle) and a linear output back to the feature dim.
PAPER_HIDDEN_WIDTHS = (512, 512, 24, 512, 512)
DEFAULT_PCA_DIM = 40
# Rows (stream frames) the monitor runs the network on at once: it runs an
# utterance's streams in blocks of about this many rows, so its buffer set
# (about 10 KB a row at the published widths) stays bounded whatever the
# stream and frame counts.  512-row blocks ran about 10% slower (2-vCPU x86_64).
INFERENCE_ROWS = 1024

# Per-layer frame-offset splice plans of the 6-layer autoencoder, one per
# temporal context: layer i's input concatenates the previous layer's
# output at these frame offsets.  Each plan's composed receptive field
# equals its context.
SPLICE_PLANS = {
    (0, 0): [(0,), (0,), (0,), (0,), (0,), (0,)],
    (-8, 5): [(-2, -1, 0, 1), (-3, 0, 2), (-3, 0, 2), (0,), (0,), (0,)],
    (-13, 10): [(-2, -1, 0, 1, 2), (-3, 0, 3), (-4, 0, 4), (-4, 0, 1), (0,), (0,)],
    (-16, 12): [(-2, -1, 0, 1, 2), (-4, 0, 4), (-5, 0, 5), (-5, 0, 1), (0,), (0,)],
    (-20, 14): [(-2, -1, 0, 1, 2), (-5, 0, 5), (-6, 0, 6), (-7, 0, 1), (0,), (0,)],
}


def check_logit_clamp(value: float) -> None:
    """Raise ValueError unless value lies in the open LOGIT_CLAMP_RANGE."""
    lo, hi = LOGIT_CLAMP_RANGE
    if not lo < value < hi:
        raise ValueError(f"logit_clamp={value!r} is not in ({lo}, {hi})")


@dataclass
class FrontEnd:
    """Logit + PCA projection applied to posterior rows."""

    pca_mean: np.ndarray  # (C,), mean in logit space
    pca_basis: np.ndarray  # (C, K), orthonormal columns
    logit_clamp: float = DEFAULT_LOGIT_CLAMP

    def __post_init__(self):
        self.pca_mean = np.asarray(self.pca_mean, dtype=np.float64)
        self.pca_basis = np.asarray(self.pca_basis, dtype=np.float64)
        check_logit_clamp(self.logit_clamp)

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
    """The trained monitor; layers of another dtype are cast to float32 once, when made."""

    front_end: FrontEnd
    layers: list[Layer]
    context: tuple[int, int]
    # The forward-only buffer set the monitor runs the layers in.
    _work: _Buffers | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Cast the layers to float32; StreamFuseError naming the first layer
        array that holds a value beyond the float32 range, or a nan."""
        for i, ly in enumerate(self.layers):
            for what, arr in (("weights", ly.weight), ("bias", ly.bias)):
                if not finite_as(arr, np.float32):
                    raise StreamFuseError(f"layer {i} {what}: non-finite values as float32")
        self.layers = _cast(self.layers, np.float32)

    def _inference_work(self, rows: int) -> _Buffers:
        """The model's forward-only set for its layers, holding >= rows rows.

        rows is one block of _stacked_errors, at most max(INFERENCE_ROWS, T)
        for T-frame streams.  Made on first use and regrown only for more
        rows; the old set is dropped before the larger one is made, so the
        two never coexist.
        """
        if self._work is None or self._work.rows < rows:
            self._work = None
            self._work = _Buffers(self.layers, rows, backward=False)
        return self._work


# Momentum coefficient of every training update.
MOMENTUM = 0.9
# The closed (lo, hi) range of each numeric TrainConfig field.
TRAIN_RANGES = {
    "learning_rate": (0.0, math.inf),  # zero makes a no-op run
    "epochs": (1, math.inf),
    "batch_size": (1, math.inf),
    "seed": (0, math.inf),
}


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 15
    batch_size: int = 128  # frames per gradient update
    seed: int = 0

    def __post_init__(self):
        for name, bounds in TRAIN_RANGES.items():
            check_range(name, getattr(self, name), bounds)


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
    if N - 1 < K:  # the rank of N centered rows is at most N - 1
        raise DegenerateData(f"covariance rank below K={K}: N={N} rows")
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
    prob_rows: np.ndarray, K: int | None = None, logit_clamp: float = DEFAULT_LOGIT_CLAMP
) -> FrontEnd:
    """Fit the Logit + PCA front-end on raw (N, C) posterior rows.

    K=None keeps min(C, DEFAULT_PCA_DIM) components.
    """
    check_logit_clamp(logit_clamp)
    if K is None:
        K = min(prob_rows.shape[1], DEFAULT_PCA_DIM)
    return fit_pca(logit_transform(prob_rows, logit_clamp), K, logit_clamp)


def front_end_apply(fe: FrontEnd, prob_rows: np.ndarray) -> np.ndarray:
    """(N, C) posterior rows -> (N, K) projected features."""
    z = logit_transform(prob_rows, fe.logit_clamp)
    return (z - fe.pca_mean) @ fe.pca_basis


def _splice(h: np.ndarray, offsets: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
    """(..., T, len(offsets) * W) frames at the given offsets, edges repeated.

    h holds (T, W) sequences along any leading batch axes.  Each offset's
    column block is filled from one contiguous slice of every sequence,
    with its own first and last frame standing in for frames beyond its
    ends, so no sequence reads another.  The result is written into the
    first (batch size) * T rows of a 2-D out when given (a fresh array of
    h's dtype otherwise).  The zero-offset plan returns h itself.
    """
    if offsets == (0,):
        return h
    *lead, T, W = h.shape
    rows = math.prod(lead) * T
    x = np.empty((rows, len(offsets) * W), dtype=h.dtype) if out is None else out[:rows]
    x4 = x.reshape(*lead, T, len(offsets), W)
    for k, o in enumerate(offsets):
        # Rows lo..hi-1 read frame t + o inside the sequence.
        lo, hi = min(max(-o, 0), T), min(max(T - o, 0), T)
        x4[..., :lo, k, :] = h[..., :1, :]
        x4[..., lo:hi, k, :] = h[..., lo + o : hi + o, :]
        x4[..., hi:, k, :] = h[..., T - 1 :, :]
    return x.reshape(*lead, T, len(offsets) * W)


def _unsplice(
    dx: np.ndarray, offsets: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Sum a (T, len(offsets) * width) splice gradient onto the frames it read.

    Bit-exact with numpy's unbuffered scatter-add over the clipped
    (t, k) -> t + offsets[k] index matrix, which adds into each frame,
    starting from 0.0, in ascending (t, k) order.  Frames 1..T-2 are only
    read unclamped, from t = r - offsets[k], so ascending t is descending
    offset: one shifted slice-add per offset in that order.  Frames 0 and
    T-1 also collect the clamped reads and are summed term by term.  The
    sums go into the first T rows of out when given (a fresh array of
    dx's dtype otherwise).  The zero-offset plan is the identity: its
    gradient is a GEMM product, which holds no -0.0, so adding it to 0.0
    would change no bit.
    """
    if offsets == (0,):
        return dx
    T = dx.shape[0]
    dx = dx.reshape(T, len(offsets), -1)
    out = np.empty((T, dx.shape[2]), dtype=dx.dtype) if out is None else out[:T]
    out.fill(0.0)
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


def _cast(layers: list[Layer], dtype) -> list[Layer]:
    """layers with their weights and biases cast to dtype; arrays of dtype are shared."""
    return [replace(ly, weight=ly.weight.astype(dtype, copy=False),
                    bias=ly.bias.astype(dtype, copy=False)) for ly in layers]


def _rows(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The (rows, cols) C-ordered view of the start of a flat buffer."""
    return flat[: rows * cols].reshape(rows, cols)


class _Buffers:
    """Work buffers for forward and loss_and_grads on up to `rows` rows.

    A row is one frame of one sequence: training runs one minibatch's
    window or one whole sequence at a time, the monitor one block of
    whole streams of an utterance (_stream_groups) at a time.
    For the backward pass each layer keeps its splice input (none for the
    zero-offset plan) and its output, and the set adds the two buffers the
    backward pass alternates between, wide enough for any layer's input or
    output, and one weight and one bias scratch for the gradients of the
    layer being done.  A forward-only set holds one splice buffer that
    every layer reuses and two output buffers that layers alternate
    between, since no layer's values are read once the next layer has run;
    the monitor's float32 set lives on the model (AeModel._inference_work).
    Calls that share a set overwrite each other's results.  Every buffer
    has the dtype of the layers' weights: fed another dtype, numpy's
    matmul would leave BLAS for a slower mixed-dtype loop.
    """

    def __init__(self, layers: list[Layer], rows: int, backward: bool = True):
        self.rows = rows
        fan_in = [ly.weight.shape[0] for ly in layers]
        width = [ly.weight.shape[1] for ly in layers]
        dt = layers[0].weight.dtype
        if backward:
            self.x = [
                None if ly.offsets == (0,) else np.empty((rows, f), dt)
                for ly, f in zip(layers, fan_in)
            ]
            self.h = [np.empty((rows, w), dt) for w in width]
            size = rows * max(*fan_in, *width)
            self.back = (np.empty(size, dt), np.empty(size, dt))
            self.grad_w = np.empty(max(ly.weight.size for ly in layers), dt)
            self.grad_b = np.empty(max(width), dt)
        else:
            # One block, so that a regrown model's set hands all of the old
            # one back: as three blocks, the allocator kept part of them and
            # a benchmark fuse step peaked 2 MB higher.
            nx, nh = rows * max(fan_in), rows * max(width)
            flat = np.empty(nx + 2 * nh, dt)
            x, h = flat[:nx], (flat[nx : nx + nh], flat[nx + nh :])
            self.x = [_rows(x, rows, f) for f in fan_in]
            self.h = [_rows(h[i % 2], rows, w) for i, w in enumerate(width)]


def _forward(layers: list[Layer], h: np.ndarray, work: _Buffers) -> list:
    """(spliced input, output) of every layer over contiguous (..., T, K) features h.

    Both are (rows, ·) views into work, one row per frame of every
    sequence, so each layer is one GEMM over all of them.  ReLU runs in
    place on the layer's output.
    """
    lead = h.shape[:-1]
    rows = math.prod(lead)
    caches = []
    for ly, x_buf, h_buf in zip(layers, work.x, work.h):
        x = _splice(h, ly.offsets, out=x_buf).reshape(rows, -1)
        out = np.matmul(x, ly.weight, out=h_buf[:rows])
        out += ly.bias
        if ly.activation == "relu":
            np.maximum(out, 0.0, out=out)
        caches.append((x, out))
        h = out.reshape(*lead, -1)
    return caches


def forward(layers: list[Layer], z: np.ndarray, work: _Buffers | None = None) -> np.ndarray:
    """Network output over (..., T, K) features: (T, K) sequences on any leading axes.

    Each sequence is spliced on its own, and each layer runs one GEMM on
    the frames of all of them.  z is cast to the dtype of the layers'
    weights, and so is the output.  The output is a view into work when
    given (a fresh forward-only set otherwise), so the next call on the
    same set overwrites it.
    """
    z = np.ascontiguousarray(z, dtype=layers[0].weight.dtype)
    work = work or _Buffers(layers, math.prod(z.shape[:-1]), backward=False)
    return _forward(layers, z, work)[-1][1].reshape(z.shape[:-1] + (-1,))


def loss_and_grads(
    layers: list[Layer],
    z: np.ndarray,
    step: Callable[[int, np.ndarray, np.ndarray], None],
    rows: np.ndarray | None = None,
    work: _Buffers | None = None,
) -> float:
    """MSE of reconstructing z over the selected frames; its gradients go to step.

    The full sequence is run (splices reach across frames); the loss only
    counts the frames in `rows` (all frames when None).  z is cast to the
    dtype of the layers' weights, and everything is computed in that
    dtype, in work when given (a fresh set otherwise).  Layer i's
    gradients go to step(i, grad_w, grad_b), top layer first, once the
    pass has read that layer's weights for the last time, so step may
    update them in place; the gradient arrays are scratch that the next
    layer's overwrite.
    """
    z = np.ascontiguousarray(z, dtype=layers[0].weight.dtype)
    T = z.shape[0]
    work = work or _Buffers(layers, T)
    caches = _forward(layers, z, work)
    h = caches[-1][1]
    diff = h - z
    if rows is None:
        rows = np.arange(T)
    n = rows.size * h.shape[1]
    loss = float(np.sum(diff[rows] ** 2) / n)
    back = work.back
    d = _rows(back[0], *h.shape)
    d.fill(0.0)
    d[rows] = 2.0 * diff[rows] / n
    for i in range(len(layers) - 1, -1, -1):
        ly = layers[i]
        x, h = caches[i]
        if ly.activation == "relu":
            d *= h > 0  # h > 0 exactly where the pre-activation is
        gw = np.matmul(x.T, d, out=_rows(work.grad_w, *ly.weight.shape))
        gb = np.sum(d, axis=0, out=work.grad_b[: ly.bias.size])
        if i > 0:
            dx = np.matmul(d, ly.weight.T, out=_rows(back[1], T, ly.weight.shape[0]))
            d = _unsplice(dx, ly.offsets, out=_rows(back[0], T, layers[i - 1].bias.size))
            if d is dx:  # the zero-offset plan: d now lives in back[1]
                back = back[::-1]
        step(i, gw, gb)
    return loss


def evaluate_mse(layers: list[Layer], z_list: list[np.ndarray], work: _Buffers) -> float:
    """Mean reconstruction MSE over all frames of all sequences, each forward pass in work.

    The network runs at its layers' dtype, the error sums at z's.
    """
    total = 0.0
    frames = 0
    for z in z_list:
        out = forward(layers, z, work)
        total += float(np.sum((out - z) ** 2))
        frames += z.shape[0]
    return total / (frames * z_list[0].shape[1])


def train_ae(
    data: list[PosteriorStream],
    cfg: TrainConfig,
    front_end: FrontEnd,
    context: tuple[int, int] = (0, 0),
    hidden_widths: tuple[int, ...] | None = None,
) -> tuple[AeModel, list[float]]:
    """Train the autoencoder on clean posterior streams, in the features of front_end.

    Returns the model, holding the trained float32 layers, and the loss
    log: entry 0 is the pre-training MSE over the full data, entry e the
    MSE after epoch e, each of the float32 network against the float64
    features.  Each minibatch of batch_size frames runs only over the
    frames its outputs read: its receptive field, clipped to the sequence.
    A frame cut off, or one at an inner window edge that reads a repeated
    edge frame, feeds no output of the batch, so its gradient is zero
    either way and the window changes only the order of sums.  A
    minibatch loss or an epoch MSE that is not finite raises
    DivergedTraining; the overflows that lead to it stay silent.
    """
    if not data:
        raise ValueError("training data must be non-empty")
    if any(s.num_classes != front_end.num_classes for s in data):
        raise DimensionMismatch("training streams and front end disagree on class count")
    z_list = [front_end_apply(front_end, s.probs) for s in data]
    rng = np.random.default_rng(cfg.seed)
    layers = _cast(build_architecture(front_end.output_dim, context, hidden_widths, rng),
                   np.float32)
    # The receptive field (left, right): a minibatch's outputs read frames
    # [start + left, stop + right).
    left = sum(min(ly.offsets) for ly in layers)
    right = sum(max(ly.offsets) for ly in layers)
    velocity = [
        (np.zeros_like(ly.weight), np.zeros_like(ly.bias)) for ly in layers
    ]

    def update(i, grad_w, grad_b):
        # In place, rounding exactly like w += mc * v - lr * g.
        for w, v, g in zip((layers[i].weight, layers[i].bias), velocity[i], (grad_w, grad_b)):
            g *= cfg.learning_rate
            v *= MOMENTUM
            v -= g
            w += v

    # One buffer set for every pass: the longest sequence sizes it.
    work = _Buffers(layers, max(z.shape[0] for z in z_list))
    with np.errstate(over="ignore", invalid="ignore"):
        losses = [evaluate_mse(layers, z_list, work)]
        for _ in range(cfg.epochs):
            for z in z_list:
                T = z.shape[0]
                for start in range(0, T, cfg.batch_size):
                    stop = min(start + cfg.batch_size, T)
                    lo, hi = max(start + left, 0), min(stop + right, T)
                    window = z[lo:hi]
                    rows = np.arange(start - lo, stop - lo)
                    loss = loss_and_grads(layers, window, update, rows, work)
                    if not np.isfinite(loss):
                        raise DivergedTraining(f"training loss became {loss}")
            epoch_mse = evaluate_mse(layers, z_list, work)
            if not np.isfinite(epoch_mse):
                raise DivergedTraining(f"training loss became {epoch_mse}")
            losses.append(epoch_mse)
    return AeModel(front_end=front_end, layers=layers, context=tuple(context)), losses


def _stream_groups(M: int, T: int) -> list[range]:
    """M streams of T frames as the fewest near-equal runs of consecutive
    streams that keep each run within max(INFERENCE_ROWS, T) rows.

    Near-equal, not greedy: a small last run could fall under OpenBLAS's
    small-matrix kernel, which rounds differently from the blocked kernel
    that the other runs, and one pass over all M streams, use.
    """
    n = -(-M // max(1, INFERENCE_ROWS // max(T, 1)))
    return [range(M * i // n, M * (i + 1) // n) for i in range(n)]


def _stacked_errors(model: AeModel, streams: list[PosteriorStream]) -> np.ndarray:
    """(M, T) per-frame squared l2 reconstruction errors of M T-frame streams.

    The front end runs per stream and the error sum in float64; the
    network runs on the model's float32 layers and in its buffer set, once
    per group of _stream_groups, on that group's feature sequences stacked
    as (streams, T, K).  Each row's bits are those of one pass over all M.
    """
    C = model.front_end.num_classes
    if any(s.num_classes != C for s in streams):
        raise DimensionMismatch("stream and model disagree on class count")
    M, T = len(streams), streams[0].num_frames
    groups = _stream_groups(M, T)
    work = model._inference_work(max(map(len, groups)) * T)
    errs = np.empty((M, T))
    for g in groups:
        z = np.stack([front_end_apply(model.front_end, streams[m].probs) for m in g])
        out = forward(model.layers, z, work)
        # float32 out widens exactly to z's float64 before the subtraction.
        errs[g.start : g.stop] = np.sum((out - z) ** 2, axis=-1)
    return errs


def ae_attention(sset: StreamSet, model: AeModel) -> AttentionSchedule:
    """Inverse reconstruction-error attention over an aligned stream set.

    The network runs on blocks of whole streams: one GEMM per layer and
    block (_stacked_errors).  Raises
    DimensionMismatch, before any work, on a set that is not aligned
    (a frame_offset or a length that differs) or on a stream whose class
    count is not the model's.
    """
    if not sset.aligned():
        raise DimensionMismatch("ae_attention needs an aligned stream set (offsets 0, one length)")
    # (T, M) in C order, so each row's sum adds its M errors as before.
    errs = np.ascontiguousarray(_stacked_errors(model, sset.streams).T)
    return AttentionSchedule(inverse_weights(errs, ERROR_FLOOR))
