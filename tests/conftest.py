"""Shared test helpers: simplex generators and small stream builders."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `reference` importable
# CLI tests run `python -m streamfuse.cli` in subprocesses: give them the
# source tree pytest's `pythonpath` setting put on this process's path.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

from streamfuse.aemonitor import loss_and_grads
from streamfuse.core import AttentionSchedule, PosteriorStream, StreamSet


def random_simplex(rng: np.random.Generator, T: int, C: int, alpha: float = 1.0):
    """(T, C) rows drawn from a symmetric Dirichlet."""
    return rng.dirichlet(np.full(C, alpha), size=T)


def random_stream(rng, T, C, stream_id=0, frame_offset=0, alpha=1.0):
    return PosteriorStream(
        probs=random_simplex(rng, T, C, alpha),
        stream_id=stream_id,
        frame_offset=frame_offset,
    )


def random_stream_set(rng, M, T, C, alpha=1.0):
    return StreamSet([random_stream(rng, T, C, stream_id=m, alpha=alpha) for m in range(M)])


def random_schedule(rng, T, M):
    return AttentionSchedule(random_simplex(rng, T, M))


def loss_and_grad_copies(layers, z, rows=None, work=None):
    """(loss, [(grad_w, grad_b) of each layer]) of aemonitor.loss_and_grads,
    through a step that keeps a copy of each layer's gradients."""
    grads = [None] * len(layers)

    def keep(i, grad_w, grad_b):
        grads[i] = (grad_w.copy(), grad_b.copy())

    return loss_and_grads(layers, z, keep, rows, work), grads


# One table of matrices off the simplex, each bad in row 0 alone (row 1 of
# the 2 x 2 ones is valid): every boundary that takes rows in must reject
# each of them with InvalidSimplex.
BAD_SIMPLEX = pytest.mark.parametrize("bad", [
    pytest.param(np.array([[np.nan, 1.0], [0.5, 0.5]]), id="nan"),
    pytest.param(np.array([[np.inf, 0.0], [0.5, 0.5]]), id="inf"),
    pytest.param(np.array([[1.25, -0.25], [0.5, 0.5]]), id="negative"),
    pytest.param(np.array([[0.5, 0.5 + 2e-6], [0.5, 0.5]]), id="sum 1+2e-6"),
    pytest.param(np.empty((2, 0)), id="0 columns"),
])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
