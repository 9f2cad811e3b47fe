"""Synthetic ground-truthed multi-stream posterior corpora.

Each utterance is a state path sampled from an HMM.  Every stream observes
the same path through its own Dirichlet-peaked emission noise (independent
per stream, like independent microphones), then gets corrupted per its
profile: mixing toward uniform, temporal smearing, outright failure
(near-uniform output) and a frame offset, applied in that order.

simulate_utterance makes one utterance from the facts corpus_facts derives;
experiments.write_corpus writes each utterance as it is made, and
experiments.load_corpus reads a corpus back as an experiments.Corpus, the
sequence of its Utterances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import PosteriorStream, StreamSet, check_range, renormalize_rows
from .decoder import HmmModel, make_hmm

# rng sub-key constants: one independent generator per (seed, utterance, key).
_KEY_LABELS = 1
_KEY_CLEAN = 999
_KEY_EMIT = 1000  # + stream index
_KEY_CORRUPT = 2000  # + stream index

# Failed streams emit uniform rows nudged by a sparse Dirichlet sample so
# they are not exactly constant (keeps M-measure ties away).
FAIL_JITTER = 0.01

# The closed (lo, hi) range of each numeric CorpusSpec field.
SPEC_RANGES = {
    "num_utterances": (1, math.inf),
    "frames_min": (1, math.inf),
    "frames_max": (1, math.inf),
    "num_classes": (2, math.inf),
    "num_streams": (2, math.inf),
    "alpha_true": (0.0, math.inf),
    "alpha_other": (0.0, math.inf),
    "conf_prob": (0.0, 1.0),
    "conf_len": (1.0, math.inf),  # a burst lasts at least one frame
    "seed": (0, math.inf),
}


@dataclass(kw_only=True)
class CorpusSpec:
    """Corpus geometry plus the emission-noise model.

    Emissions are Dirichlet rows concentrated on the true class
    (alpha_true vs alpha_other).  Each stream additionally suffers
    independent confusion bursts: with probability conf_prob per frame it
    enters a burst of mean length conf_len frames during which the
    concentration sits on a random wrong class, mimicking a classifier
    confidently tracking the wrong sound.
    """

    num_utterances: int
    frames_min: int = 80
    frames_max: int = 160
    num_classes: int = 40
    num_streams: int
    seed: int
    alpha_true: float = 100.0
    alpha_other: float = 0.05
    conf_prob: float = 0.035
    conf_len: float = 8.0

    def __post_init__(self):
        for name, bounds in SPEC_RANGES.items():
            check_range(name, getattr(self, name), bounds)
        if self.frames_max < self.frames_min:
            raise ValueError("frames_max < frames_min")


@dataclass
class CorruptionProfile:
    uniform_mix: float = 0.0
    smear_width: int = 0
    fail: bool = False
    offset: int = 0

    def __post_init__(self):
        check_range("uniform_mix", self.uniform_mix, (0.0, 1.0))
        check_range("smear_width", self.smear_width, (0, math.inf))


def sample_labels(hmm: HmmModel, num_frames: int, rng: np.random.Generator) -> np.ndarray:
    path = np.zeros(num_frames, dtype=np.intp)
    path[0] = rng.choice(hmm.num_states, p=hmm.priors)
    for t in range(1, num_frames):
        path[t] = rng.choice(hmm.num_states, p=hmm.transitions[path[t - 1]])
    return path


def emit_posteriors(
    labels: np.ndarray,
    num_classes: int,
    alpha_true: float,
    alpha_other: float,
    rng: np.random.Generator,
    conf_prob: float,
    conf_len: float,
) -> np.ndarray:
    """Dirichlet-peaked posterior rows concentrated on the true class.

    With conf_prob > 0 the emitter occasionally locks onto a wrong class
    for a geometric-length burst (confident misclassification).
    """
    T = labels.size
    peak = labels.copy()
    if conf_prob > 0.0:
        t = 0
        stay = 1.0 - 1.0 / max(conf_len, 1.0)
        while t < T:
            if rng.random() < conf_prob:
                burst_class = int(rng.integers(num_classes))
                while t < T:
                    peak[t] = burst_class
                    t += 1
                    if rng.random() >= stay:
                        break
            else:
                t += 1
    alphas = np.full((T, num_classes), alpha_other)
    alphas[np.arange(T), peak] = alpha_true
    # Gamma sampling == Dirichlet, vectorized over frames.
    g = rng.gamma(alphas)
    return renormalize_rows(np.maximum(g, 1e-300))


def _emit(spec: CorpusSpec, labels: np.ndarray, key: list[int]) -> np.ndarray:
    """emit_posteriors of labels under spec's emission model, drawing from the generator of key."""
    rng = np.random.default_rng(key)
    return emit_posteriors(labels, spec.num_classes, spec.alpha_true, spec.alpha_other, rng,
                           spec.conf_prob, spec.conf_len)


def _utterance_frames(spec: CorpusSpec, utt: int) -> int:
    rng = np.random.default_rng([spec.seed, utt, 0])
    return int(rng.integers(spec.frames_min, spec.frames_max + 1))


def _reference(spec: CorpusSpec, hmm: HmmModel, u: int, num_frames: int):
    """Utterance u's num_frames labels, sampled from hmm, and its clean stream."""
    labels = sample_labels(hmm, num_frames, np.random.default_rng([spec.seed, u, _KEY_LABELS]))
    return labels, PosteriorStream(_emit(spec, labels, [spec.seed, u, _KEY_CLEAN]), stream_id=-1)


def generate_reference(
    spec: CorpusSpec, hmm: HmmModel
) -> tuple[list[np.ndarray], list[PosteriorStream]]:
    """Each utterance's label path and clean stream, drawn as simulate_utterance draws them."""
    pairs = [_reference(spec, hmm, u, _utterance_frames(spec, u))
             for u in range(spec.num_utterances)]
    return [labels for labels, _ in pairs], [clean for _, clean in pairs]


def _smear(probs: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average of width frames, edge-truncated."""
    if width <= 1:
        return probs
    T = probs.shape[0]
    left = (width - 1) // 2
    right = width // 2
    csum = np.cumsum(probs, axis=0)
    csum = np.vstack([np.zeros((1, probs.shape[1])), csum])
    lo = np.maximum(np.arange(T) - left, 0)
    hi = np.minimum(np.arange(T) + right, T - 1)
    out = (csum[hi + 1] - csum[lo]) / (hi - lo + 1)[:, None]
    return renormalize_rows(out)


def corrupt(stream: PosteriorStream, profile: CorruptionProfile, seed) -> PosteriorStream:
    """Apply a corruption profile (mix -> smear -> fail -> offset)."""
    T, C = stream.probs.shape
    probs = stream.probs
    lam = profile.uniform_mix
    if lam > 0:
        probs = (1.0 - lam) * probs + lam / C
    probs = _smear(probs, profile.smear_width)
    if profile.fail:
        rng = np.random.default_rng(seed)
        jitter = rng.dirichlet(np.full(C, 0.01), size=T)
        probs = (1.0 - FAIL_JITTER) / C + FAIL_JITTER * jitter
    o = profile.offset
    if o != 0:
        # Reference frame k must appear at index k + o; pad edges by repetition.
        probs = probs[np.clip(np.arange(T) - o, 0, T - 1)]
    return replace(
        stream, probs=renormalize_rows(probs), frame_offset=stream.frame_offset + o
    )


@dataclass
class Utterance:
    utt_id: int
    labels: np.ndarray
    clean: PosteriorStream
    streams: StreamSet


_OFFSET_CYCLE = (0, 1, -1, 2, -2)
# Mirrors a 12-stream set with the 3rd and 11th microphones dead.
_FAIL_POSITIONS = (2, 10)


def ldc_like_profiles(num_streams: int) -> list[CorruptionProfile]:
    """All streams working, mildly to moderately mixed toward uniform."""
    lams = np.linspace(0.05, 0.4, num_streams)
    return [
        CorruptionProfile(uniform_mix=float(lams[i]), offset=_OFFSET_CYCLE[i % 5])
        for i in range(num_streams)
    ]


def hrm_like_profiles(num_streams: int) -> list[CorruptionProfile]:
    """One clean stream, reverberation-like competitors, two failed streams.

    The competitors get a long temporal smear plus a uniform mix; the smear
    blurs label boundaries the same way in every stream, which is what makes
    equal-weight fusion collapse while per-frame re-weighting survives.
    """
    profiles = [CorruptionProfile(uniform_mix=0.0)]
    for i in range(1, num_streams):
        profiles.append(
            CorruptionProfile(
                uniform_mix=0.6,
                smear_width=71,
                offset=_OFFSET_CYCLE[i % 5],
            )
        )
    for pos in _FAIL_POSITIONS:
        if pos < num_streams:
            profiles[pos] = replace(profiles[pos], fail=True)
    return profiles


def oracle_stream_index(profiles: list[CorruptionProfile]) -> int:
    """Lowest-mix working stream; ties go to the lowest index."""
    working = [
        (p.uniform_mix, i) for i, p in enumerate(profiles) if not p.fail
    ]
    return min(working)[1]


# The stream profiles of each scenario, by name.
SCENARIO_PROFILES = {"ldc_like": ldc_like_profiles, "hrm_like": hrm_like_profiles}


class CorpusFacts(NamedTuple):
    """What a scenario name and a CorpusSpec fix before any label is drawn."""

    hmm: HmmModel
    profiles: list[CorruptionProfile]  # one per stream
    oracle_stream: int
    frames: list[int]  # per utterance


def corpus_facts(name: str, spec: CorpusSpec) -> CorpusFacts:
    """The HMM (make_hmm(classes, seed)), the stream profiles, the oracle stream
    and each utterance's frame count of scenario name under spec.

    An unknown name raises ValueError.
    """
    if name not in SCENARIO_PROFILES:
        raise ValueError(f"unknown scenario {name!r}, not one of {', '.join(SCENARIO_PROFILES)}")
    profiles = SCENARIO_PROFILES[name](spec.num_streams)
    return CorpusFacts(
        hmm=make_hmm(spec.num_classes, spec.seed),
        profiles=profiles,
        oracle_stream=oracle_stream_index(profiles),
        frames=[_utterance_frames(spec, u) for u in range(spec.num_utterances)],
    )


def simulate_utterance(spec: CorpusSpec, facts: CorpusFacts, u: int) -> Utterance:
    """Utterance u of the corpus that spec and its facts (corpus_facts) fix.

    Every draw comes from a generator keyed by [seed, u, ...], so utterances
    can be made one at a time, in any order, with the same bits.  Each stream
    gets an independent emission of the shared label path before corruption.
    """
    labels, clean = _reference(spec, facts.hmm, u, facts.frames[u])
    streams = [
        corrupt(PosteriorStream(_emit(spec, labels, [spec.seed, u, _KEY_EMIT + m]), stream_id=m),
                prof, seed=[spec.seed, u, _KEY_CORRUPT + m])
        for m, prof in enumerate(facts.profiles)
    ]
    return Utterance(u, labels, clean, StreamSet(streams))
