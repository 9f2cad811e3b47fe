"""Multi-stream posterior fusion with unsupervised stream-reliability monitors."""

from .core import (
    AttentionSchedule,
    PosteriorStream,
    StreamSet,
    align_streams,
    fuse,
    n_best_truncate,
)
from .decoder import ErrorReport, HmmModel, make_hmm, score, viterbi_batch
from .measures import MMeasureConfig, binary_window_attention, entropy_attention, m_measure
from .simulator import CorpusSpec, CorruptionProfile, corrupt, simulate_utterance

__version__ = "0.1.0"

__all__ = [
    "AttentionSchedule",
    "CorpusSpec",
    "CorruptionProfile",
    "ErrorReport",
    "HmmModel",
    "MMeasureConfig",
    "PosteriorStream",
    "StreamSet",
    "align_streams",
    "binary_window_attention",
    "corrupt",
    "entropy_attention",
    "fuse",
    "m_measure",
    "make_hmm",
    "n_best_truncate",
    "score",
    "simulate_utterance",
    "viterbi_batch",
    "__version__",
]
