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
from .decoder import ErrorReport, HmmModel, combine_reports, score, viterbi_batch
from .errors import MissingModel, StreamFuseError


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


# One row per spec key of corpus.cfg: (key, CorpusSpec field, type).
# write_corpus writes these keys and load_corpus parses them back.
_CORPUS_KEYS = (
    ("utterances", "num_utterances", int),
    ("frames_min", "frames_min", int),
    ("frames_max", "frames_max", int),
    ("classes", "num_classes", int),
    ("streams", "num_streams", int),
    ("seed", "seed", int),
    ("alpha_true", "alpha_true", float),
    ("alpha_other", "alpha_other", float),
    ("conf_prob", "conf_prob", float),
    ("conf_len", "conf_len", float),
)


def _corpus_cfg(scenario: simulator.Scenario) -> dict:
    # Each value passes through its type, so a spec hashes the same before
    # write_corpus and after load_corpus (an int alpha_true is written 100.0).
    cfg = {"scenario": scenario.name}
    for key, attr, typ in _CORPUS_KEYS:
        cfg[key] = typ(getattr(scenario.spec, attr))
    return cfg


def corpus_hash(scenario: simulator.Scenario) -> str:
    """The config_hash of a corpus, as corpus.cfg stores it."""
    return config_hash(_corpus_cfg(scenario))


def _cfg_value(cfg: dict, key: str, typ, path):
    try:
        return typ(cfg[key])
    except KeyError:
        raise StreamFuseError(f"{path}: missing key {key!r}") from None
    except ValueError:
        raise StreamFuseError(f"{path}: bad value {cfg[key]!r} for key {key!r}") from None


def write_corpus(scenario: simulator.Scenario, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = _corpus_cfg(scenario)
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


def load_corpus(indir) -> simulator.Scenario:
    """Read a corpus directory back into the Scenario write_corpus was given."""
    indir = Path(indir)
    cfg_path = indir / "corpus.cfg"
    cfg = read_config(cfg_path)
    name = _cfg_value(cfg, "scenario", str, cfg_path)
    fields = {attr: _cfg_value(cfg, key, typ, cfg_path) for key, attr, typ in _CORPUS_KEYS}
    try:
        spec = simulator.CorpusSpec(**fields)
    except ValueError as e:
        raise StreamFuseError(f"{cfg_path}: {e}") from None
    hmm = _hmm_from_json(json.loads((indir / "hmm.json").read_text()))
    records = storage.read_manifest(indir / "manifest.txt")
    utterances = []
    for rec in records:
        tag = f"utt{rec.utt_id:04d}"
        labels = np.array(
            [int(x) for x in (indir / f"{tag}.ref").read_text().split()], dtype=np.intp
        )
        streams = StreamSet(
            [
                storage.read_stream(indir / f"{tag}_s{m:02d}.strm")
                for m in range(spec.num_streams)
            ]
        )
        utterances.append(
            simulator.Utterance(
                utt_id=rec.utt_id,
                labels=labels,
                clean=storage.read_stream(indir / f"{tag}_clean.strm"),
                streams=streams,
                oracle_stream=rec.oracle_stream,
            )
        )
    profiles = records[0].profiles if records else []
    return simulator.Scenario(
        name=name, spec=spec, hmm=hmm, profiles=profiles, utterances=utterances
    )


def _equal(aligned: StreamSet, **_) -> AttentionSchedule:
    M = aligned.num_streams
    return AttentionSchedule(np.full((aligned.streams[0].num_frames, M), 1.0 / M))


def _autoencoder(aligned: StreamSet, *, model, **_) -> AttentionSchedule:
    if model is None:
        raise MissingModel("autoencoder method requires a trained model")
    return aemonitor.ae_attention(aligned, model)


def _oracle(aligned: StreamSet, *, oracle_stream, **_) -> AttentionSchedule:
    if oracle_stream is None:
        raise StreamFuseError("oracle method requires the corpus manifest")
    w = np.zeros((aligned.streams[0].num_frames, aligned.num_streams))
    w[:, oracle_stream] = 1.0
    return AttentionSchedule(w)


# The schedule function of each frame-wise fusion method, called as
# fn(aligned, model=, oracle_stream=, mcfg=).  Entries call the monitors
# through their modules.
FRAME_METHODS = {
    "equal": _equal,
    "entropy": lambda aligned, **_: measures.entropy_attention(aligned),
    "m_measure": lambda aligned, *, mcfg, **_: measures.binary_window_attention(
        aligned, mcfg, measure="m"
    ),
    "delta_m": lambda aligned, *, mcfg, **_: measures.binary_window_attention(
        aligned, mcfg, measure="delta_m"
    ),
    "autoencoder": _autoencoder,
    "oracle": _oracle,
}
FUSION_METHODS = (*FRAME_METHODS, "max_n")


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
    frame-wise base method.
    """
    if method == "max_n":
        method, n = base, 1 if n is None else n
    if method not in FRAME_METHODS:
        raise StreamFuseError(f"unknown fusion method {method!r}")
    sched = FRAME_METHODS[method](
        aligned, model=model, oracle_stream=oracle_stream, mcfg=mcfg
    )
    return sched if n is None else n_best_truncate(sched, n)


def _utterance_schedule(
    utt: simulator.Utterance, method: str, **kwargs
) -> tuple[int, StreamSet, AttentionSchedule]:
    """Overlap start, aligned streams and attention schedule of one utterance."""
    lo, _ = overlap_range(utt.streams)
    aligned = align_streams(utt.streams)
    sched = compute_schedule(method, aligned, oracle_stream=utt.oracle_stream, **kwargs)
    return lo, aligned, sched


def _model_digest(model: aemonitor.AeModel) -> str:
    """Hash of everything in a model that shapes its attention weights."""
    fe = model.front_end
    h = hashlib.sha256(f"{model.context} {fe.logit_clamp!r}".encode())
    for arr in (fe.pca_mean, fe.pca_basis):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for ly in model.layers:
        h.update(f"{ly.activation} {ly.offsets} {ly.weight.shape}".encode())
        h.update(np.ascontiguousarray(ly.weight, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(ly.bias, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def fuse_corpus(
    corpus: simulator.Scenario,
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
        "window": "" if mcfg is None or mcfg.window is None else mcfg.window,
        "model_digest": "" if model is None else _model_digest(model),
        "corpus_hash": corpus_hash(corpus),
    }
    cfg["config_hash"] = config_hash(cfg)
    write_config(cfg, outdir / "fuse.cfg")
    for utt in corpus.utterances:
        _, aligned, sched = _utterance_schedule(
            utt, method, model=model, mcfg=mcfg, n=n, base=base
        )
        tag = f"utt{utt.utt_id:04d}"
        storage.write_schedule(sched, outdir / f"{tag}.schd")
        storage.write_stream(fuse(aligned, sched), outdir / f"{tag}_fused.strm")


def decode_reports(
    streams: list[PosteriorStream], labels: np.ndarray, hmm: HmmModel, start: int = 0
) -> list[ErrorReport]:
    """Decode equal-length streams in one Viterbi batch and score each one.

    Index j of a stream's path maps to reference frame start + j - offset.
    """
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


def evaluate_single_streams(corpus: simulator.Scenario) -> list[tuple[str, ErrorReport]]:
    """Per-stream baseline error rates, plus the clean matched stream.

    Each stream is scored on the utterance's common overlap range (the
    same span fused systems are scored on) so the numbers are comparable.
    The aligned streams of an utterance share a length and decode as one
    batch; the clean stream, of the full length, decodes on its own.
    """
    per_stream: list[list[ErrorReport]] = [[] for _ in range(corpus.spec.num_streams)]
    clean = []
    for u in corpus.utterances:
        lo, _ = overlap_range(u.streams)
        aligned = align_streams(u.streams)
        reports = decode_reports(aligned.streams, u.labels, corpus.hmm, start=lo)
        for m, rep in enumerate(reports):
            per_stream[m].append(rep)
        clean += decode_reports([u.clean], u.labels, corpus.hmm)
    rows = [(f"stream:{m}", combine_reports(reps)) for m, reps in enumerate(per_stream)]
    rows.append(("clean", combine_reports(clean)))
    return rows


def evaluate_fused_dir(corpus: simulator.Scenario, fused_dir) -> tuple[str, ErrorReport]:
    fused_dir = Path(fused_dir)
    fcfg = read_config(fused_dir / "fuse.cfg")
    name = fcfg["method"]
    if fcfg.get("n"):
        name += f":n={fcfg['n']}"
    reports = []
    for utt in corpus.utterances:
        lo, _ = overlap_range(utt.streams)
        fused = storage.read_stream(fused_dir / f"utt{utt.utt_id:04d}_fused.strm")
        reports += decode_reports([fused], utt.labels, corpus.hmm, start=lo)
    return name, combine_reports(reports)


def evaluate_method(
    corpus: simulator.Scenario,
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
        lo, aligned, sched = _utterance_schedule(
            utt, method, model=model, mcfg=mcfg, n=n, base=base
        )
        reports += decode_reports([fuse(aligned, sched)], utt.labels, corpus.hmm, start=lo)
    return combine_reports(reports)


def n_sweep(
    corpus: simulator.Scenario,
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
    M = corpus.spec.num_streams
    per_n: list[list[ErrorReport]] = [[] for _ in range(M)]
    for utt in corpus.utterances:
        # n = M keeps every weight, so this is the untruncated schedule of
        # the method (for max_n, of its base method) that each n cuts down.
        lo, aligned, full = _utterance_schedule(utt, method, model=model, mcfg=mcfg, n=M)
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
