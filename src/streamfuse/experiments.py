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

A corpus has one form: write_corpus simulates it into a directory one
utterance at a time (simulator.simulate_utterance), and load_corpus reads
it back as a Corpus, the sequence of its utterances, each read from disk
when it is taken.  manifest.txt and fuse.cfg are completion markers: each
is removed before its directory is written and written last, so an
interrupted rerun leaves no marker.

When each check runs: load_corpus reads corpus.cfg (read_written_config),
which decides the rest: hmm.json and manifest.txt must be the bytes that
write_corpus writes for it; neither file is parsed.  It then
checks every label file and every stream file's header against the facts
corpus.cfg gives (label count and range, each stream's frames, classes and
frame_offset: its profile's off, 0 for the clean stream; each file's size),
so a corpus that contradicts itself fails before any output exists.  A
stream's payload is read, and its rows checked by core.check_simplex, only
when its utterance is taken from the corpus, so fuse_corpus and
evaluate_corpus hold one utterance at a time in each process.
fuse checks each schedule and fused stream, and the storage writers check
every matrix before they write it.  Before the first utterance,
evaluate_corpus reads each fused directory's fuse.cfg by read_written_config
and checks its settings (check_settings, and an n of at most the corpus's
stream count) and corpus hash, and reads every fused stream's header to
check its shape and frame_offset (0); it checks the header again, and the
rows, as it reads each stream.

Processes: write_corpus, fuse_corpus and evaluate_corpus run their
utterances through _per_utterance, one process per CPU (_workers), forked
after every check above; a step with an AE model runs in one process,
since BLAS already spreads the monitor's GEMMs over every CPU.  Each
process writes its own utterances' files, the parent writes the marker
after every child has succeeded, and evaluate_corpus sums each system's
reports in utterance order, so the bytes written do not depend on the
worker count.  A failure is the lowest failing utterance's exception, as
in a serial loop, and once it is known no process runs a higher utterance.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import pickle
import select
import signal
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from . import aemonitor, measures, simulator, storage
from .core import (
    AttentionSchedule,
    PosteriorStream,
    StreamSet,
    align_streams,
    check_range,
    fuse,
    n_best_truncate,
    overlap_range,
)
from .decoder import ErrorReport, HmmModel, combine_reports, score, viterbi_batch
from .errors import FormatError, SettingError, StreamFuseError, WindowTooShort


def config_hash(pairs: dict) -> str:
    text = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_config_pairs(path) -> list[tuple[str, str]]:
    """The (key, value) pairs of a key=value file, in file order, repeats kept.

    Text from "#" to the end of a line is a comment; blank lines are skipped.
    """
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StreamFuseError(f"{path}: line {lineno}: expected key=value")
        key, val = line.split("=", 1)
        pairs.append((key.strip(), val.strip()))
    return pairs


def write_config(pairs: dict, path):
    """pairs and their config_hash, one sorted key=value line each."""
    pairs = {**pairs, "config_hash": config_hash(pairs)}
    with open(path, "w") as f:
        for k in sorted(pairs):
            f.write(f"{k}={pairs[k]}\n")


def read_written_config(path, types: dict) -> dict:
    """The values of a write_config file whose lines are the keys of types and a
    config_hash of their values, each once and parsed by its type; else
    FormatError naming the file and the line or key."""
    keys = (*types, "config_hash")
    fields = {}
    for line in Path(path).read_text().splitlines():
        key, found, val = line.partition("=")
        if not found:
            raise FormatError(f"{path}: bad token {line!r}")
        if key not in keys:
            raise FormatError(f"{path}: unknown key {key!r}")
        if key in fields:
            raise FormatError(f"{path}: repeated key {key!r}")
        fields[key] = val
    missing = [k for k in keys if k not in fields]
    if missing:
        raise FormatError(f"{path}: missing key {missing[0]!r}")
    values = {}
    for key, typ in types.items():
        try:
            values[key] = typ(fields[key])
        except ValueError:
            raise FormatError(f"{path}: bad value {fields[key]!r} for key {key!r}") from None
    if fields["config_hash"] != config_hash(values):
        raise FormatError(f"{path}: key 'config_hash' is not the hash of the other keys")
    return values


# One row per spec key of corpus.cfg: (key, CorpusSpec field, type).
# write_corpus writes these keys, load_corpus parses them back, and each
# is the dest of the simulate flag that sets its field.
CORPUS_KEYS = (
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


def _count_or_empty(text: str):
    """A fuse.cfg n or window: "" (not set) as itself, else an int >= 1."""
    if text:
        check_range("value", int(text), (1, math.inf))
    return text and int(text)


# The keys of fuse.cfg but config_hash, each with the type its value is read
# by, in the order fuse_corpus lists their values.
FUSE_KEYS = {"method": str, "n": _count_or_empty, "base": str, "window": _count_or_empty,
             "model_digest": str, "corpus_hash": str}


def _corpus_cfg(name: str, spec: simulator.CorpusSpec) -> dict:
    # Each value passes through its type, so a spec hashes the same before
    # write_corpus and after load_corpus (an int alpha_true is written 100.0).
    cfg = {"scenario": name}
    for key, attr, typ in CORPUS_KEYS:
        cfg[key] = typ(getattr(spec, attr))
    return cfg


def corpus_hash(corpus: Corpus) -> str:
    """The config_hash of a corpus, as corpus.cfg stores it."""
    return config_hash(_corpus_cfg(corpus.name, corpus.spec))


def _profile_to_text(p: simulator.CorruptionProfile) -> str:
    return f"lam:{p.uniform_mix!r},smear:{p.smear_width},fail:{int(p.fail)},off:{p.offset}"


def manifest_text(frames: list[int], oracle_stream: int,
                  profiles: list[simulator.CorruptionProfile]) -> str:
    """The manifest of a corpus whose utterance u has frames[u] frames: one line
    per utterance, "utt=u frames=T oracle=O profiles=P" with P the
    semicolon-joined profile of every stream.  It is written, never parsed."""
    profs = ";".join(_profile_to_text(p) for p in profiles)
    return "".join(f"utt={u} frames={n} oracle={oracle_stream} profiles={profs}\n"
                   for u, n in enumerate(frames))


def _corpus_files(name: str, spec: simulator.CorpusSpec) -> tuple:
    """The facts scenario name fixes under spec (simulator.corpus_facts), and
    the bytes of hmm.json and manifest.txt that write_corpus writes."""
    facts = simulator.corpus_facts(name, spec)
    hmm = facts.hmm
    fields = {"transitions": hmm.transitions.tolist(), "priors": hmm.priors.tolist(),
              "labels": list(hmm.labels)}
    manifest = manifest_text(facts.frames, facts.oracle_stream, facts.profiles)
    return facts, json.dumps(fields).encode(), manifest.encode()


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where the OS does not say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows): run in one process
        return 1


def _workers(count: int, model: aemonitor.AeModel | None = None) -> int:
    """The processes that run count utterances: one per CPU, at most one per
    utterance, and one alone for a step with an AE model, whose GEMMs BLAS
    already spreads over every CPU."""
    return 1 if model is not None else min(_cpus(), count)


def _share(fn: Callable, us: range, lowest: Callable[[], float] = lambda: math.inf,
           ) -> tuple[list, tuple[int, Exception] | None]:
    """fn(u) for each u of us in order, up to the first that raises or the
    first above lowest() (a lower utterance has failed elsewhere): the
    results, and None or (that u, its exception)."""
    results = []
    for u in us:
        if u > lowest():
            break
        try:
            results.append(fn(u))
        except Exception as e:
            return results, (u, e)
    return results, None


def _worker(fn: Callable, us: range, pipe: int):
    """A forked child's life: _share(fn, us) pickled into pipe, then os._exit.

    It never returns, so it never runs its caller's code (a CLI that would
    write a report, a test runner) or flushes stdio buffers it shares with
    the parent; a share that does not pickle exits 1 without a result.
    """
    status = 1
    try:
        payload = pickle.dumps(_share(fn, us))
        with open(pipe, "wb") as f:
            f.write(payload)
        status = 0
    finally:
        os._exit(status)


def _per_utterance(fn: Callable[[int], object], count: int, workers: int) -> list:
    """[fn(u) for u in range(count)], utterance u run by process u % workers.

    Process 0 is this one; each other is a forked child that sends back its
    results, or the first exception it raises and that utterance, through a
    pipe.  On failure, the exception of the lowest failing utterance is
    raised, as a serial loop would; a child that ends without sending a
    result fails at its first utterance with a StreamFuseError that names
    its utterances and how it ended.  Once a failure is known, no process
    runs an utterance above it: this one stops its share (it looks at the
    pipes between its utterances) and a child whose share starts above it
    is killed.  Every child is reaped before this returns or raises, and
    killed first if this process fails on its own.  With one worker
    nothing is forked.
    """
    shares = [range(k, count, workers) for k in range(workers)]
    outcomes = [([], None)] * workers  # each process's (results, None or (u, exception))
    children = {}  # read end of child k's pipe: (k, pid, the bytes read from it)
    lowest = count  # the lowest utterance known to have failed, or count

    def take(timeout: float | None) -> int:
        """Read what the children that may hold a failure below lowest have
        sent, once one is ready or timeout seconds pass (None: no limit);
        reap each whose pipe has ended.  Returns lowest."""
        nonlocal lowest
        ends = [end for end, (k, _, _) in children.items() if k < lowest]
        for end in select.select(ends, [], [], timeout)[0]:
            k, pid, payload = children[end]
            chunk = os.read(end, 1 << 16)
            if chunk:
                payload += chunk
                continue
            del children[end]
            os.close(end)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:
                outcomes[k] = pickle.loads(payload)
            else:
                us = shares[k]
                named = ", ".join(map(str, us[:3])) + (f", ..., {us[-1]}" if len(us) > 3 else "")
                how = f"by signal {-code}" if code < 0 else f"with status {code}"
                outcomes[k] = [], (us[0], StreamFuseError(
                    f"the worker process for utterances {named} ended {how} without its results"))
            if outcomes[k][1] is not None:
                lowest = min(lowest, outcomes[k][1][0])
        return lowest

    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, shares[k], write_end)
            os.close(write_end)
            children[read_end] = (k, pid, bytearray())
        outcomes[0] = _share(fn, shares[0], lambda: take(0))
        if outcomes[0][1] is not None:
            lowest = min(lowest, outcomes[0][1][0])
        while any(k < lowest for k, _, _ in children.values()):
            take(None)
    finally:
        # Those left can hold no failure below lowest, or this process failed on its own.
        for end, (_, pid, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(end)
    failures = [failed for _, failed in outcomes if failed is not None]
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    results = [None] * count
    for us, (share_results, _) in zip(shares, outcomes):
        results[us.start::workers] = share_results
    return results


def write_corpus(name: str, spec: simulator.CorpusSpec, outdir) -> simulator.CorpusFacts:
    """Simulate corpus name under spec into outdir, one utterance at a time
    (simulator.simulate_utterance), the manifest removed first and written
    last; return its facts."""
    facts, hmm_json, manifest = _corpus_files(name, spec)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.txt").unlink(missing_ok=True)
    write_config(_corpus_cfg(name, spec), outdir / "corpus.cfg")
    (outdir / "hmm.json").write_bytes(hmm_json)

    def utterance(u: int) -> None:
        utt = simulator.simulate_utterance(spec, facts, u)
        tag = f"utt{u:04d}"
        (outdir / f"{tag}.ref").write_text(" ".join(str(int(x)) for x in utt.labels) + "\n")
        storage.write_stream(utt.clean, outdir / f"{tag}_clean.strm")
        for m, stream in enumerate(utt.streams.streams):
            storage.write_stream(stream, outdir / f"{tag}_s{m:02d}.strm")

    count = spec.num_utterances
    _per_utterance(utterance, count, _workers(count))
    (outdir / "manifest.txt").write_bytes(manifest)
    return facts


def _read_checked(read, path: Path, shape: tuple[int, int], where: str, offset: int = 0):
    """read(path), a stream or its StreamHeader, once its (frames, classes) equal
    shape and its frame_offset offset.  Every error names where and the file.
    """
    try:
        found = read(path)
    except FormatError as e:
        raise type(e)(f"{where}: {path.name}: {e}") from None
    if (found.num_frames, found.num_classes) != shape:
        raise StreamFuseError(
            f"{where}: {path.name} holds {found.num_frames} frames x "
            f"{found.num_classes} classes, not frames={shape[0]} x {shape[1]} HMM states"
        )
    if found.frame_offset != offset:
        raise StreamFuseError(
            f"{where}: {path.name} has frame_offset {found.frame_offset}, not {offset}"
        )
    return found


# The errors of opening a file that is not there: no such path, a file where
# a directory should be, or a directory where the file should be.
_NO_FILE = (FileNotFoundError, NotADirectoryError, IsADirectoryError)


def _missing(e: OSError, so: str = "the corpus is incomplete") -> FormatError:
    """The FormatError of a file that is not there (one of _NO_FILE):
    "DIR: no NAME, so <so>"."""
    path = Path(e.filename)
    return FormatError(f"{path.parent}: no {path.name}, so {so}")


class Corpus(Sequence[simulator.Utterance]):
    """A corpus directory that load_corpus checked: the sequence of its
    utterances, each read from disk when it is taken, with its scenario name,
    spec, facts (simulator.corpus_facts) and HMM.

    Taking an utterance reads and simplex-checks its stream payloads; nothing
    is cached, so a pass over the corpus holds one utterance's streams at a
    time.
    """

    def __init__(self, indir: Path, name: str, spec: simulator.CorpusSpec,
                 facts: simulator.CorpusFacts, labels: list[np.ndarray]):
        self.name, self.spec, self.facts, self.hmm = name, spec, facts, facts.hmm
        self._indir, self._labels = indir, labels  # labels per utterance

    def __len__(self) -> int:
        return len(self._labels)

    def _streams(self, read, u: int, profiles: list) -> list:
        """read(path) of utterance u's stream files, _s00 .. then _clean, each checked.

        Every stream spans the utterance's frames over the HMM's states;
        stream m's frame_offset is profiles[m]'s off, and the clean stream's
        is 0.  With no profiles, the _clean file alone is read.
        """
        tag = f"utt{u:04d}"
        files = [(f"{tag}_s{m:02d}.strm", p.offset) for m, p in enumerate(profiles)]
        files.append((f"{tag}_clean.strm", 0))
        shape = (self.facts.frames[u], self.spec.num_classes)
        where = f"{self._indir / 'manifest.txt'}: utt {u}"
        try:
            return [_read_checked(read, self._indir / f, shape, where, offset)
                    for f, offset in files]
        except _NO_FILE as e:
            raise _missing(e) from None

    def __getitem__(self, i: int) -> simulator.Utterance:
        u = range(len(self))[operator.index(i)]
        *streams, clean = self._streams(storage.read_stream, u, self.facts.profiles)
        return simulator.Utterance(u, self._labels[u], clean, StreamSet(streams),
                                   self.facts.oracle_stream)

    def clean_streams(self) -> list[PosteriorStream]:
        """Every utterance's clean stream, read and checked without its
        corrupted streams."""
        return [self._streams(storage.read_stream, u, [])[0] for u in range(len(self))]


def load_corpus(indir) -> Corpus:
    """Read back, as a Corpus, a corpus directory that write_corpus wrote.

    corpus.cfg decides the corpus: hmm.json and manifest.txt must be the
    bytes write_corpus writes for it, and every label file and stream header
    must fit the facts it gives, so a directory that contradicts itself or
    lacks one of its files (a FormatError that names it) fails here, before
    any output exists.  The corpus reads an utterance's stream payloads, and
    checks their rows are on the simplex, only when it is taken; its
    clean_streams() reads the clean streams alone.
    """
    indir = Path(indir)
    cfg_path, hmm_path, manifest = (indir / n for n in ("corpus.cfg", "hmm.json", "manifest.txt"))
    types = {"scenario": str, **{key: typ for key, _, typ in CORPUS_KEYS}}
    try:
        cfg = read_written_config(cfg_path, types)
    except _NO_FILE as e:
        raise _missing(e, "not a corpus directory") from None
    try:
        hmm_json, manifest_bytes = hmm_path.read_bytes(), manifest.read_bytes()
    except _NO_FILE as e:
        raise _missing(e) from None
    hmm_mismatch = StreamFuseError(f"{hmm_path} is not the JSON of the HMM {cfg_path} gives")
    manifest_mismatch = StreamFuseError(f"{manifest} is not the manifest {cfg_path} gives")
    try:
        spec = simulator.CorpusSpec(**{attr: cfg[key] for key, attr, _ in CORPUS_KEYS})
        # hmm.json takes a byte or more for each of the classes**2 transitions,
        # and the manifest 28 or more for each of its utterances x streams
        # profiles: settings too large for the files are refused before
        # anything is derived at their size.
        if spec.num_classes**2 > len(hmm_json):
            raise hmm_mismatch
        if spec.num_utterances * spec.num_streams > len(manifest_bytes):
            raise manifest_mismatch
        facts, want_hmm_json, want_manifest = _corpus_files(cfg["scenario"], spec)
    except ValueError as e:
        raise StreamFuseError(f"{cfg_path}: {e}") from None
    if hmm_json != want_hmm_json:
        raise hmm_mismatch
    if manifest_bytes != want_manifest:
        raise manifest_mismatch
    C = spec.num_classes
    all_labels = []  # filled as each utterance passes its checks
    corpus = Corpus(indir, cfg["scenario"], spec, facts, all_labels)
    for u, frames in enumerate(facts.frames):
        ref = indir / f"utt{u:04d}.ref"
        try:
            labels = np.array([int(x) for x in ref.read_text().split()], dtype=np.intp)
        except (ValueError, OverflowError) as e:  # OverflowError: a label beyond intp
            raise StreamFuseError(f"{ref}: {e}") from None
        except _NO_FILE as e:
            raise _missing(e) from None
        outside = labels[(labels < 0) | (labels >= C)]
        if outside.size:
            raise StreamFuseError(
                f"{ref}: label {outside[0]} is not in [0, {C}) for the hmm.json states"
            )
        if frames != len(labels):
            raise StreamFuseError(
                f"{manifest}: utt {u}: frames={frames}, but {ref.name} holds {len(labels)} labels"
            )
        corpus._streams(storage.read_stream_header, u, facts.profiles)
        all_labels.append(labels)
    return corpus


def _equal(aligned: StreamSet) -> AttentionSchedule:
    M = aligned.num_streams
    return AttentionSchedule(np.full((aligned.streams[0].num_frames, M), 1.0 / M))


def _oracle(aligned: StreamSet, oracle_stream) -> AttentionSchedule:
    w = np.zeros((aligned.streams[0].num_frames, aligned.num_streams))
    w[:, oracle_stream] = 1.0
    return AttentionSchedule(w)


# Each frame-wise fusion method: (schedule function, the compute_schedule
# keyword it reads or None).  Entries call the monitors through their modules.
FRAME_METHODS = {
    "equal": (_equal, None),
    "entropy": (lambda a: measures.entropy_attention(a), None),
    "m_measure": (lambda a, mcfg: measures.binary_window_attention(a, mcfg), "mcfg"),
    "delta_m": (lambda a, mcfg: measures.binary_window_attention(a, mcfg, delta=True), "mcfg"),
    "autoencoder": (lambda a, model: aemonitor.ae_attention(a, model), "model"),
    "oracle": (_oracle, "oracle_stream"),
}
FUSION_METHODS = (*FRAME_METHODS, "max_n")
# The frame-wise method that max_n truncates unless told otherwise.
DEFAULT_BASE = "entropy"


def _frame_method(method: str, n: int | None, base: str = DEFAULT_BASE) -> tuple[str, int | None]:
    """The frame-wise method and the truncation n that method and n stand for:
    "max_n" is base truncated to n, 1 when n is None."""
    if method == "max_n":
        method, n = base, 1 if n is None else n
    if method not in FRAME_METHODS:
        raise StreamFuseError(f"unknown fusion method {method!r}")
    return method, n


def check_settings(method: str, *, base: str = DEFAULT_BASE, window=None, model=None) -> None:
    """Raise SettingError unless the frame-wise method that method and base
    stand for reads every setting given, and has the model it needs.

    base is read by max_n alone, window by the M-measures, model by the
    autoencoder.  A base of DEFAULT_BASE and a window or model of None are
    not given.
    """
    if base != DEFAULT_BASE and method != "max_n":
        raise SettingError("base", "only the max_n method reads it")
    frame, _ = _frame_method(method, None, base)
    _, reads = FRAME_METHODS[frame]
    for setting, value, keyword in (("window", window, "mcfg"), ("model", model, "model")):
        if value is not None and reads != keyword:
            raise SettingError(setting, f"the {frame} method does not read it")
    if reads == "model" and model is None:
        raise SettingError("model", f"the {frame} method needs it")


def compute_schedule(
    method: str,
    aligned: StreamSet,
    *,
    model: aemonitor.AeModel | None = None,
    oracle_stream: int | None = None,
    mcfg: measures.MMeasureConfig | None = None,
) -> AttentionSchedule:
    """Attention schedule for one aligned utterance under a frame-wise method,
    which reads only its own setting.  max_n is not one: see _frame_method.
    A model or oracle_stream of None that it reads raises SettingError; an
    mcfg of None is the utterance-level M-measure.
    """
    if method not in FRAME_METHODS:
        raise StreamFuseError(f"{method!r} is not a frame-wise fusion method")
    fn, reads = FRAME_METHODS[method]
    if reads is None:
        return fn(aligned)
    value = {"model": model, "oracle_stream": oracle_stream, "mcfg": mcfg}[reads]
    if value is None and reads != "mcfg":
        raise SettingError(reads, f"the {method} method needs it")
    return fn(aligned, value)


def _fuse_utterance(utt, aligned: StreamSet, truncations, *, model=None, mcfg=None):
    """The schedules and the fused streams of utterance utt, aligned, under the
    (frame method, n) pairs of truncations.

    Each distinct frame method's schedule is computed once, then truncated
    for each pair with an n.  A window too short for the M-measure spans
    raises WindowTooShort naming the utterance.
    """
    settings = {"model": model, "oracle_stream": utt.oracle_stream, "mcfg": mcfg}
    frames = dict.fromkeys(f for f, _ in truncations)
    try:
        full = {f: compute_schedule(f, aligned, **settings) for f in frames}
    except WindowTooShort as e:
        raise WindowTooShort(f"utt {utt.utt_id}: {e}") from None
    scheds = [full[f] if n is None else n_best_truncate(full[f], n) for f, n in truncations]
    return scheds, [fuse(aligned, sched) for sched in scheds]


def _model_digest(model: aemonitor.AeModel) -> str:
    """Hash of everything in a model that shapes its attention weights, its
    arrays as the <f8 values of its file (storage.f8_chunks)."""
    fe = model.front_end
    h = hashlib.sha256(f"{model.context} {fe.logit_clamp!r}".encode())

    def update(*arrays):
        for arr in arrays:
            for chunk in storage.f8_chunks(arr):
                h.update(chunk)

    update(fe.pca_mean, fe.pca_basis)
    for ly in model.layers:
        h.update(f"{ly.activation} {ly.offsets} {ly.weight.shape}".encode())
        update(ly.weight, ly.bias)
    return h.hexdigest()[:16]


def fuse_corpus(
    corpus: Corpus,
    method: str,
    outdir,
    *,
    model: aemonitor.AeModel | None = None,
    mcfg: measures.MMeasureConfig | None = None,
    n: int | None = None,
    base: str = DEFAULT_BASE,
):
    """Fuse every utterance of a corpus and write the results.

    A setting the method does not read raises SettingError (check_settings)
    before anything is written.  fuse.cfg is removed before the first
    utterance and written last.
    """
    check_settings(method, base=base, window=None if mcfg is None else mcfg.window, model=model)
    truncation = [_frame_method(method, n, base)]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fuse.cfg").unlink(missing_ok=True)
    values = (
        method,
        "" if n is None else n,
        base,
        "" if mcfg is None or mcfg.window is None else mcfg.window,
        "" if model is None else _model_digest(model),
        corpus_hash(corpus),
    )
    cfg = dict(zip(FUSE_KEYS, values, strict=True))

    def utterance(u: int) -> None:
        utt = corpus[u]
        aligned = align_streams(utt.streams)
        [sched], [fused] = _fuse_utterance(utt, aligned, truncation, model=model, mcfg=mcfg)
        storage.write_schedule(sched, outdir / f"utt{u:04d}.schd")
        storage.write_stream(fused, outdir / f"utt{u:04d}_fused.strm")

    _per_utterance(utterance, len(corpus), _workers(len(corpus), model))
    write_config(cfg, outdir / "fuse.cfg")


def decode_reports(
    streams: list[PosteriorStream], labels: np.ndarray, hmm: HmmModel, starts: list[int]
) -> list[ErrorReport]:
    """Decode one utterance's streams in one Viterbi batch and score each one.

    Every stream has frame_offset 0, so index j of stream b's path is
    reference frame starts[b] + j.  Streams that score the same hypothesis
    on the same reference span share one score() and so one report.
    """
    paths = viterbi_batch([s.probs for s in streams], hmm)
    memo: dict[tuple[int, bytes], ErrorReport] = {}
    reports = []
    for path, start in zip(paths, starts):
        key = (start, path.tobytes())
        if key not in memo:
            memo[key] = score(path, labels[start : start + len(path)])
        reports.append(memo[key])
    return reports


def _row_name(method: str, n) -> str:
    """The report row of method truncated to n (no truncation when n is None or "")."""
    return method + (f":n={n}" if n else "")


def _fused_name(fused_dir: Path, chash: str, num_streams: int) -> str:
    """The report row of a complete fuse output made from the corpus whose hash
    is chash and which has num_streams streams."""
    path = fused_dir / "fuse.cfg"
    if not path.is_file():
        raise StreamFuseError(f"{fused_dir}: no fuse.cfg, so not a complete fuse output")
    fcfg = read_written_config(path, FUSE_KEYS)
    if fcfg["corpus_hash"] != chash:
        raise StreamFuseError(
            f"{path}: corpus_hash={fcfg['corpus_hash']}, but the corpus "
            f"being scored has {chash}: fused from another corpus"
        )
    try:
        check_settings(fcfg["method"], base=fcfg["base"], window=fcfg["window"] or None,
                       model=fcfg["model_digest"] or None)
        if fcfg["n"]:
            check_range("n", fcfg["n"], (1, num_streams), StreamFuseError)
    except StreamFuseError as e:  # an unknown method or base, a SettingError, n > M
        raise FormatError(f"{path}: {e}") from None
    return _row_name(fcfg["method"], fcfg["n"])


def evaluate_corpus(
    corpus: Corpus,
    *,
    baselines: bool = True,
    fused_dirs=(),
    methods: Sequence[tuple[str, int | None]] = (),
    model: aemonitor.AeModel | None = None,
) -> list[tuple[str, ErrorReport]]:
    """The report rows of every system, from one pass over the utterances.

    Rows come in this order: with baselines, stream:0 .. stream:M-1 and
    clean; one per fused directory, named by its fuse.cfg; one per
    (method, n) pair of methods, fused in memory by the step fuse_corpus
    takes and named method, plus ":n=N" when n is not None.  Single
    and fused streams are scored on the utterance's common overlap range,
    so their numbers are comparable; the clean stream is scored on its
    full length.  Each utterance decodes every stream it needs in one
    Viterbi batch.
    """
    M, C = corpus.spec.num_streams, len(corpus.hmm.priors)
    fused_dirs = [Path(d) for d in fused_dirs]
    names = [*(f"stream:{m}" for m in range(M)), "clean"] if baselines else []
    chash = corpus_hash(corpus)
    names += [_fused_name(d, chash, M) for d in fused_dirs]
    names += [_row_name(method, n) for method, n in methods]
    truncations = [_frame_method(method, n) for method, n in methods]
    # Each utterance's overlap range, from the stream shapes load_corpus checked.
    overlaps = [
        overlap_range(StreamSet([storage.StreamHeader(frames, C, m, p.offset)
                                 for m, p in enumerate(corpus.facts.profiles)]))
        for frames in corpus.facts.frames
    ]

    def fused_stream(read, d: Path, u: int):
        path = d / f"utt{u:04d}_fused.strm"
        try:
            return _read_checked(read, path, (overlaps[u][1], C), f"{d}: utt {u}")
        except _NO_FILE as e:
            raise _missing(e, "the fuse output is incomplete") from None

    for d in fused_dirs:
        for u in range(len(corpus)):
            fused_stream(storage.read_stream_header, d, u)

    def utterance(u: int) -> list[ErrorReport]:
        utt = corpus[u]
        aligned = align_streams(utt.streams) if baselines or methods else None
        streams = [*aligned.streams, utt.clean] if baselines else []
        streams += [fused_stream(storage.read_stream, d, u) for d in fused_dirs]
        streams += _fuse_utterance(utt, aligned, truncations, model=model)[1]
        starts = [overlaps[u][0]] * len(streams)
        if baselines:
            starts[M] = 0  # the clean stream is scored on its full length
        return decode_reports(streams, utt.labels, corpus.hmm, starts)

    # One list of reports per utterance, in utterance order: each system's
    # reports are summed in that order.
    per_utterance = _per_utterance(utterance, len(corpus), _workers(len(corpus), model))
    return [(name, combine_reports(list(reps)))
            for name, reps in zip(names, zip(*per_utterance))]


REPORT_HEADER = (
    "system\ttoken_error_rate\tframe_error_rate\tsubstitutions\tinsertions"
    "\tdeletions\tref_tokens\tframes"
)


def format_report(rows: list[tuple[str, ErrorReport]], cfg_hash: str) -> str:
    lines = [f"# config_hash={cfg_hash}", REPORT_HEADER]
    for name, r in rows:
        lines.append(
            f"{name}\t{r.token_error_rate:.6f}\t{r.frame_error_rate:.6f}"
            f"\t{r.substitutions}\t{r.insertions}\t{r.deletions}"
            f"\t{r.num_ref_tokens}\t{r.num_frames}"
        )
    return "\n".join(lines) + "\n"
