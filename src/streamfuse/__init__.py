"""Multi-stream posterior fusion with unsupervised stream-reliability monitors."""

from .core import (
    AttentionSchedule,
    PosteriorStream,
    StreamSet,
    align_streams,
    fuse,
    n_best_truncate,
)
from .decoder import ErrorReport, HmmModel, make_hmm, score, viterbi
from .measures import (
    MMeasureConfig,
    StreamScore,
    binary_window_attention,
    delta_m_measure,
    entropy,
    entropy_attention,
    inverse_entropy_weights,
    m_measure,
    symmetric_kld,
)
from .simulator import CorpusSpec, CorruptionProfile, build_scenario, corrupt

__version__ = "0.1.0"

__all__ = [
    "AttentionSchedule",
    "CorpusSpec",
    "CorruptionProfile",
    "ErrorReport",
    "HmmModel",
    "MMeasureConfig",
    "PosteriorStream",
    "StreamScore",
    "StreamSet",
    "align_streams",
    "binary_window_attention",
    "build_scenario",
    "corrupt",
    "delta_m_measure",
    "entropy",
    "entropy_attention",
    "fuse",
    "inverse_entropy_weights",
    "m_measure",
    "make_hmm",
    "n_best_truncate",
    "score",
    "symmetric_kld",
    "viterbi",
    "__version__",
]
