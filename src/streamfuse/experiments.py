"""Experiment orchestration: corpora on disk, method dispatch, reports.

Corpus directory layout:

    corpus.cfg        key=value run configuration (includes config_hash)
    hmm.json          generator/decoder HMM (transitions, priors, labels)
    manifest.txt      one record per utterance (id, frames, oracle, profiles)
    uttNNNN.ref       reference labels, space-separated state indices
    uttNNNN_clean.strm   matched-condition stream (autoencoder training data)
    uttNNNN_sMM.strm  corrupted stream MM of utterance NNNN

Fusion output directory layout:

    fuse.cfg          method/settings + config_hash
    uttNNNN.schd      attention schedule over the aligned range
    uttNNNN_fused.strm   fused posterior stream (aligned time base)

Reports are tab-separated tables with a header row; lines starting with
"#" carry the config hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aemonitor, measures, simulator, storage
from .core import (
    AttentionSchedule,
    PosteriorStream,
    StreamSet,
    align_streams,
    fuse,
    n_best_truncate,
    overlap_range,
)
from .decoder import (
    ErrorReport,
    HmmModel,
    combine_reports,
    score,
    viterbi,
    viterbi_batch,
)
from .errors import MissingModel, StreamFuseError

FUSION_METHODS = (
    "equal",
    "entropy",
    "m_measure",
    "delta_m",
    "autoencoder",
    "oracle",
    "max_n",
)


def config_hash(pairs: dict) -> str:
    text = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_config(path) -> dict:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StreamFuseError(f"{path}: line {lineno}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def write_config(pairs: dict, path):
    with open(path, "w") as f:
        for k in sorted(pairs):
            f.write(f"{k}={pairs[k]}\n")


def _hmm_to_json(hmm: HmmModel) -> dict:
    return {
        "transitions": hmm.transitions.tolist(),
        "priors": hmm.priors.tolist(),
        "labels": list(hmm.labels),
    }


def _hmm_from_json(obj: dict) -> HmmModel:
    return HmmModel(
        transitions=np.array(obj["transitions"]),
        priors=np.array(obj["priors"]),
        labels=tuple(obj["labels"]),
    )


def write_corpus(scenario: simulator.Scenario, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = scenario.spec
    cfg = {
        "scenario": scenario.name,
        "utterances": spec.num_utterances,
        "frames_min": spec.frames_min,
        "frames_max": spec.frames_max,
        "classes": spec.num_classes,
        "streams": spec.num_streams,
        "seed": spec.seed,
        "alpha_true": spec.alpha_true,
        "alpha_other": spec.alpha_other,
        "conf_prob": spec.conf_prob,
        "conf_len": spec.conf_len,
    }
    cfg["config_hash"] = config_hash(cfg)
    write_config(cfg, outdir / "corpus.cfg")
    (outdir / "hmm.json").write_text(json.dumps(_hmm_to_json(scenario.hmm)))
    records = []
    for utt in scenario.utterances:
        tag = f"utt{utt.utt_id:04d}"
        (outdir / f"{tag}.ref").write_text(
            " ".join(str(int(x)) for x in utt.labels) + "\n"
        )
        storage.write_stream(utt.clean, outdir / f"{tag}_clean.strm")
        for m, stream in enumerate(utt.streams.streams):
            storage.write_stream(stream, outdir / f"{tag}_s{m:02d}.strm")
        records.append(
            storage.UtteranceRecord(
                utt_id=utt.utt_id,
                num_frames=len(utt.labels),
                oracle_stream=utt.oracle_stream,
                profiles=scenario.profiles,
            )
        )
    storage.write_manifest(records, outdir / "manifest.txt")


@dataclass
class LoadedUtterance:
    utt_id: int
    labels: np.ndarray
    clean: PosteriorStream
    streams: StreamSet
    oracle_stream: int


@dataclass
class LoadedCorpus:
    cfg: dict
    hmm: HmmModel
    utterances: list[LoadedUtterance]

    @property
    def num_streams(self) -> int:
        return int(self.cfg["streams"])


def load_corpus(indir) -> LoadedCorpus:
    indir = Path(indir)
    cfg = read_config(indir / "corpus.cfg")
    hmm = _hmm_from_json(json.loads((indir / "hmm.json").read_text()))
    records = storage.read_manifest(indir / "manifest.txt")
    M = int(cfg["streams"])
    utterances = []
    for rec in records:
        tag = f"utt{rec.utt_id:04d}"
        labels = np.array(
            [int(x) for x in (indir / f"{tag}.ref").read_text().split()], dtype=np.intp
        )
        clean = storage.read_stream(indir / f"{tag}_clean.strm")
        streams = StreamSet(
            [storage.read_stream(indir / f"{tag}_s{m:02d}.strm") for m in range(M)]
        )
        utterances.append(
            LoadedUtterance(
                utt_id=rec.utt_id,
                labels=labels,
                clean=clean,
                streams=streams,
                oracle_stream=rec.oracle_stream,
            )
        )
    return LoadedCorpus(cfg=cfg, hmm=hmm, utterances=utterances)


def compute_schedule(
    method: str,
    aligned: StreamSet,
    *,
    model: aemonitor.AeModel | None = None,
    oracle_stream: int | None = None,
    mcfg: measures.MMeasureConfig | None = None,
    n: int | None = None,
    base: str = "entropy",
) -> AttentionSchedule:
    """Attention schedule for one aligned utterance under a fusion method.

    An explicit n applies n-best truncation on top of any frame-wise
    method; method "max_n" is winner-takes-all (n defaults to 1) over the
    base method.
    """
    T = aligned.streams[0].num_frames
    M = aligned.num_streams
    if method == "max_n":
        sched = compute_schedule(
            base, aligned, model=model, oracle_stream=oracle_stream, mcfg=mcfg
        )
        return n_best_truncate(sched, 1 if n is None else n)
    if method == "equal":
        sched = AttentionSchedule(np.full((T, M), 1.0 / M))
    elif method == "entropy":
        sched = measures.entropy_attention(aligned)
    elif method == "m_measure":
        sched = measures.binary_window_attention(aligned, mcfg, measure="m")
    elif method == "delta_m":
        sched = measures.binary_window_attention(aligned, mcfg, measure="delta_m")
    elif method == "autoencoder":
        if model is None:
            raise MissingModel("autoencoder method requires a trained model")
        sched = aemonitor.ae_attention(aligned, model)
    elif method == "oracle":
        if oracle_stream is None:
            raise StreamFuseError("oracle method requires the corpus manifest")
        w = np.zeros((T, M))
        w[:, oracle_stream] = 1.0
        sched = AttentionSchedule(w)
    else:
        raise StreamFuseError(f"unknown fusion method {method!r}")
    if n is not None:
        sched = n_best_truncate(sched, n)
    return sched


def fuse_corpus(
    corpus: LoadedCorpus,
    method: str,
    outdir,
    *,
    model: aemonitor.AeModel | None = None,
    mcfg: measures.MMeasureConfig | None = None,
    n: int | None = None,
    base: str = "entropy",
):
    """Fuse every utterance of a corpus and write the results."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = {
        "method": method,
        "n": "" if n is None else n,
        "base": base,
        "corpus_hash": corpus.cfg.get("config_hash", ""),
    }
    cfg["config_hash"] = config_hash(cfg)
    write_config(cfg, outdir / "fuse.cfg")
    for utt in corpus.utterances:
        aligned = align_streams(utt.streams)
        sched = compute_schedule(
            method,
            aligned,
            model=model,
            oracle_stream=utt.oracle_stream,
            mcfg=mcfg,
            n=n,
            base=base,
        )
        fused = fuse(aligned, sched)
        tag = f"utt{utt.utt_id:04d}"
        storage.write_schedule(sched, outdir / f"{tag}.schd")
        storage.write_stream(fused, outdir / f"{tag}_fused.strm")


def _score_vs_labels(
    path: np.ndarray, labels: np.ndarray, frame_offset: int, start: int = 0
) -> ErrorReport:
    """Score a decoded path whose index j maps to reference frame start+j-offset."""
    o = frame_offset
    T = len(path)
    jlo = max(0, o - start)
    jhi = min(T - 1, len(labels) - 1 - start + o)
    return score(path[jlo : jhi + 1], labels[start + jlo - o : start + jhi - o + 1])


def decode_stream_report(
    stream: PosteriorStream, labels: np.ndarray, hmm: HmmModel, start: int = 0
) -> ErrorReport:
    path = viterbi(stream, hmm)
    return _score_vs_labels(path, labels, stream.frame_offset, start)


def decode_reports(
    streams: list[PosteriorStream], labels: np.ndarray, hmm: HmmModel, start: int = 0
) -> list[ErrorReport]:
    """Decode equal-length streams in one Viterbi batch and score each one."""
    paths = viterbi_batch(np.stack([s.probs for s in streams]), hmm)
    return [
        _score_vs_labels(path, labels, s.frame_offset, start)
        for path, s in zip(paths, streams)
    ]


def evaluate_single_streams(corpus: LoadedCorpus) -> list[tuple[str, ErrorReport]]:
    """Per-stream baseline error rates, plus the clean matched stream.

    Each stream is scored on the utterance's common overlap range (the
    same span fused systems are scored on) so the numbers are comparable.
    The aligned streams of an utterance share a length and decode as one
    batch; the clean stream, of the full length, decodes on its own.
    """
    rows = []
    M = corpus.num_streams
    per_stream: list[list[ErrorReport]] = [[] for _ in range(M)]
    clean = []
    for u in corpus.utterances:
        lo, _ = overlap_range(u.streams)
        aligned = align_streams(u.streams)
        reports = decode_reports(aligned.streams, u.labels, corpus.hmm, start=lo)
        for m, rep in enumerate(reports):
            per_stream[m].append(rep)
        clean.append(decode_stream_report(u.clean, u.labels, corpus.hmm))
    for m in range(M):
        rows.append((f"stream:{m}", combine_reports(per_stream[m])))
    rows.append(("clean", combine_reports(clean)))
    return rows


def evaluate_fused_dir(corpus: LoadedCorpus, fused_dir) -> tuple[str, ErrorReport]:
    fused_dir = Path(fused_dir)
    fcfg = read_config(fused_dir / "fuse.cfg")
    name = fcfg["method"]
    if fcfg.get("n"):
        name += f":n={fcfg['n']}"
    reports = []
    for utt in corpus.utterances:
        lo, _ = overlap_range(utt.streams)
        fused = storage.read_stream(fused_dir / f"utt{utt.utt_id:04d}_fused.strm")
        reports.append(decode_stream_report(fused, utt.labels, corpus.hmm, start=lo))
    return name, combine_reports(reports)


def evaluate_method(
    corpus: LoadedCorpus,
    method: str,
    *,
    model: aemonitor.AeModel | None = None,
    mcfg: measures.MMeasureConfig | None = None,
    n: int | None = None,
    base: str = "entropy",
) -> ErrorReport:
    """Fuse in memory and score, without touching disk."""
    reports = []
    for utt in corpus.utterances:
        lo, _ = overlap_range(utt.streams)
        aligned = align_streams(utt.streams)
        sched = compute_schedule(
            method,
            aligned,
            model=model,
            oracle_stream=utt.oracle_stream,
            mcfg=mcfg,
            n=n,
            base=base,
        )
        fused = fuse(aligned, sched)
        reports.append(decode_stream_report(fused, utt.labels, corpus.hmm, start=lo))
    return combine_reports(reports)


def n_sweep(
    corpus: LoadedCorpus,
    method: str,
    *,
    model: aemonitor.AeModel | None = None,
    mcfg: measures.MMeasureConfig | None = None,
) -> list[tuple[str, ErrorReport]]:
    """Token error per n for n-best re-weighting, n = 1..M.

    Row n equals evaluate_method(corpus, method, n=n).  Each utterance is
    aligned and its schedule computed once; the M fused streams, one per
    n, decode as one batch.
    """
    M = corpus.num_streams
    per_n: list[list[ErrorReport]] = [[] for _ in range(M)]
    for utt in corpus.utterances:
        lo, _ = overlap_range(utt.streams)
        aligned = align_streams(utt.streams)
        # n = M keeps every weight, so this is the untruncated schedule of
        # the method (for max_n, of its base method) that each n cuts down.
        full = compute_schedule(
            method,
            aligned,
            model=model,
            oracle_stream=utt.oracle_stream,
            mcfg=mcfg,
            n=M,
        )
        fused = [fuse(aligned, n_best_truncate(full, n)) for n in range(1, M + 1)]
        for k, rep in enumerate(decode_reports(fused, utt.labels, corpus.hmm, start=lo)):
            per_n[k].append(rep)
    return [(f"{method}:n={k + 1}", combine_reports(reps)) for k, reps in enumerate(per_n)]


REPORT_HEADER = (
    "system\ttoken_error_rate\tframe_error_rate\tsubstitutions\tinsertions"
    "\tdeletions\tref_tokens\tframes"
)


def format_report(rows: list[tuple[str, ErrorReport]], cfg_hash: str = "") -> str:
    lines = []
    if cfg_hash:
        lines.append(f"# config_hash={cfg_hash}")
    lines.append(REPORT_HEADER)
    for name, r in rows:
        lines.append(
            f"{name}\t{r.token_error_rate:.6f}\t{r.frame_error_rate:.6f}"
            f"\t{r.substitutions}\t{r.insertions}\t{r.deletions}"
            f"\t{r.num_ref_tokens}\t{r.num_frames}"
        )
    return "\n".join(lines) + "\n"
