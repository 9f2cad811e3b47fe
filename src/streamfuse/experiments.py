"""Experiment orchestration: corpora on disk, method dispatch, reports.

Corpus directory layout:

    corpus.cfg        key=value run configuration (includes config_hash)
    hmm.json          generator/decoder HMM (transitions, priors, labels c00..)
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
corpus.cfg gives (label count and range, each stream's frames, classes,
frame_offset and stream_id: its profile's off and m, 0 and -1 for the clean
stream; each file's size), so a corpus that contradicts itself fails
before any output exists.  A stream's payload is read, and its rows checked
by core.check_simplex, only when its utterance is taken from the corpus, so
fuse_corpus and evaluate_corpus hold one utterance at a time in each process.
fuse checks each schedule and fused stream, and the storage writers check
every matrix before they write it.  This module alone decides a fusion's
settings (method, window, model, n): check_settings resolves and checks
them in one call, check_model checks a model's class count, and _overlaps
every utterance's overlap range under them (not load_corpus: train-ae
reads only clean streams); fuse_corpus runs all three before it makes its
directory.  Before the first utterance, evaluate_corpus runs them on each
(method, n) pair, and check_settings on each fused directory's fuse.cfg
(read_written_config; a FormatError naming it), checks its corpus hash,
and checks every fused stream's shape, frame_offset (0) and stream_id (-1)
by its header; it checks the header again, and the rows, as it reads it.

Processes: write_corpus, fuse_corpus and evaluate_corpus run their
utterances through _per_utterance, one process per CPU (_workers), forked
after every check above; a step with an AE model runs in one process,
since BLAS already spreads the monitor's GEMMs over every CPU.  Each
process writes its own utterances' files, the parent writes the marker
after every child has succeeded, and evaluate_corpus sums each system's
reports in utterance order, so the bytes written do not depend on the
worker count.  Each process runs one block of consecutive utterances.  A
failure is the lowest failing utterance's exception, as in a serial loop:
it is raised once every block below it has finished, and the processes of
the blocks above it are killed.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import pickle
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
from .errors import (DimensionMismatch, FormatError, OverlapEmpty, SettingError,
                     StreamFuseError, WindowTooShort)


def config_hash(pairs: dict) -> str:
    text = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _config_text(path) -> str:
    """The text of a key=value file; FormatError naming it if it is not UTF-8."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: byte {e.start} is not UTF-8 text") from None


def read_config_pairs(path) -> list[tuple[str, str]]:
    """The (key, value) pairs of a key=value file, in file order, repeats kept
    (a --config file's repeated key is a repeated flag).

    Text from "#" to the end of a line is a comment; blank lines are skipped.
    """
    pairs = []
    for lineno, raw in enumerate(_config_text(path).splitlines(), start=1):
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
    for line in _config_text(path).splitlines():
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
FUSE_KEYS = {"method": str, "n": _count_or_empty, "window": _count_or_empty,
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
              "labels": [f"c{i:02d}" for i in range(spec.num_classes)]}
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


def _share(fn: Callable, us: range) -> tuple[list, Exception | None]:
    """fn(u) for each u of us in order, up to the first that raises: the
    results, and None or the exception of that u."""
    results = []
    for u in us:
        try:
            results.append(fn(u))
        except Exception as e:
            return results, e
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
    """[fn(u) for u in range(count)], process k of workers running block k,
    range(count*k//workers, count*(k+1)//workers).

    Process 0 is this one; each other is a forked child that sends back its
    results, or the first exception it raises, through a pipe.  This
    process runs its block, then reads the children's pipes in block
    order, so the first failure it finds is the lowest failing
    utterance, whose exception is raised, as a serial loop would; a child
    that ends without sending a result fails at its first utterance with a
    StreamFuseError that names its utterances and how it ended.  The
    children whose blocks lie above the failure are killed, not waited for.
    Every child is reaped before this returns or raises, and killed first
    if this process fails on its own.  With one worker nothing is forked.
    """
    blocks = [range(count * k // workers, count * (k + 1) // workers) for k in range(workers)]
    children = []  # (block, pid, read end of its pipe) of each child, in block order
    try:
        for us in blocks[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, us, write_end)
            os.close(write_end)
            children.append((us, pid, read_end))
        results, failed = _share(fn, blocks[0])
        while failed is None and children:
            us, pid, end = children[0]
            with open(end, "rb", closefd=False) as f:
                payload = f.read()
            del children[0]
            os.close(end)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:
                done, failed = pickle.loads(payload)
                results += done
            else:
                named = ", ".join(map(str, us[:3])) + (f", ..., {us[-1]}" if len(us) > 3 else "")
                how = f"by signal {-code}" if code < 0 else f"with status {code}"
                failed = StreamFuseError(
                    f"the worker process for utterances {named} ended {how} without its results")
    finally:
        # Those left lie above the failure, or this process failed on its own.
        for _, pid, end in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(end)
    if failed is not None:
        raise failed
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


def _read_checked(read, path: Path, shape: tuple[int, int], where: str, offset: int = 0,
                  stream_id: int = -1):
    """read(path), a stream or its StreamHeader, once its (frames, classes) equal
    shape, its frame_offset offset and its stream_id stream_id (-1: a clean or
    fused stream).  Every error names where and the file.
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
    for field, want in (("frame_offset", offset), ("stream_id", stream_id)):
        if getattr(found, field) != want:
            raise StreamFuseError(
                f"{where}: {path.name} has {field} {getattr(found, field)}, not {want}"
            )
    return found


# The errors of opening a file that is not there: no such path, a file where
# a directory should be, or a directory where the file should be.
_NO_FILE = (FileNotFoundError, NotADirectoryError, IsADirectoryError)


def _missing(e: OSError, so: str = "the corpus is incomplete") -> FormatError:
    """The FormatError of a file that is not there (one of _NO_FILE):
    "PATH: is a directory, not a file, so <so>" for a directory, else
    "DIR: no NAME, so <so>"."""
    path = Path(e.filename)
    if isinstance(e, IsADirectoryError):
        return FormatError(f"{path}: is a directory, not a file, so {so}")
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
        stream m's frame_offset is profiles[m]'s off and its stream_id m, and
        the clean stream's are 0 and -1.  With no profiles, the _clean file
        alone is read.
        """
        tag = f"utt{u:04d}"
        files = [(f"{tag}_s{m:02d}.strm", p.offset, m) for m, p in enumerate(profiles)]
        files.append((f"{tag}_clean.strm", 0, -1))
        shape = (self.facts.frames[u], self.spec.num_classes)
        where = f"{self._indir / 'manifest.txt'}: utt {u}"
        try:
            return [_read_checked(read, self._indir / f, shape, where, offset, sid)
                    for f, offset, sid in files]
        except _NO_FILE as e:
            raise _missing(e) from None

    def __getitem__(self, i: int) -> simulator.Utterance:
        u = range(len(self))[operator.index(i)]
        *streams, clean = self._streams(storage.read_stream, u, self.facts.profiles)
        return simulator.Utterance(u, self._labels[u], clean, StreamSet(streams))

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


def _equal(aligned: StreamSet, *_) -> AttentionSchedule:
    M = aligned.num_streams
    return AttentionSchedule(np.full((aligned.streams[0].num_frames, M), 1.0 / M))


def _oracle(aligned: StreamSet, oracle_stream: int, *_) -> AttentionSchedule:
    w = np.zeros((aligned.streams[0].num_frames, aligned.num_streams))
    w[:, oracle_stream] = 1.0
    return AttentionSchedule(w)


# Each frame-wise fusion method: (schedule function, the setting it reads or
# None, which is also its flag's name).  Each function takes the aligned set,
# the corpus's oracle stream, the window and the model; monitors are called
# through their modules.
FRAME_METHODS = {
    "equal": (_equal, None),
    "entropy": (lambda a, o, w, m: measures.entropy_attention(a), None),
    "m_measure": (lambda a, o, w, m: measures.binary_window_attention(a, w), "window"),
    "delta_m": (lambda a, o, w, m: measures.binary_window_attention(a, w, delta=True), "window"),
    "autoencoder": (lambda a, o, w, m: aemonitor.ae_attention(a, m), "model"),
    "oracle": (_oracle, None),
}
FUSION_METHODS = (*FRAME_METHODS, "max_n")


def check_settings(method: str, n: int | None = None, num_streams: int | float = math.inf, *,
                   window=None, model=None) -> tuple[str, int | None]:
    """The (frame method, n) pair that method and n stand for over num_streams
    streams ("max_n" is entropy truncated to n, 1 when n is None).  Raises, in
    order: StreamFuseError for an unknown method; SettingError for a window or
    model the frame method does not read (the M-measures read the window, the
    autoencoder the model) or a model it lacks, for a window too short for the
    M-measure spans, for an n outside [1, num_streams].  None is not given."""
    frame, n = ("entropy", 1 if n is None else n) if method == "max_n" else (method, n)
    if frame not in FRAME_METHODS:
        raise StreamFuseError(f"unknown fusion method {method!r}")
    _, reads = FRAME_METHODS[frame]
    for setting, value in (("window", window), ("model", model)):
        if value is not None and reads != setting:
            raise SettingError(setting, f"the {frame} method does not read it")
    if reads == "model" and model is None:
        raise SettingError("model", f"the {frame} method needs it")
    try:
        measures.check_window(window)
    except ValueError as e:
        raise SettingError("window", f"{window}: {e}") from None
    if n is not None and not 1 <= n <= num_streams:
        more = f"more than the corpus's {num_streams} streams" if n >= 1 else "less than 1"
        raise SettingError("n", f"{n} is {more}")
    return frame, n


def check_model(model: aemonitor.AeModel | None, corpus: Corpus) -> None:
    """Raise DimensionMismatch unless model (None: no model) has the corpus's class count."""
    if model is not None and model.front_end.num_classes != corpus.spec.num_classes:
        raise DimensionMismatch(f"the model has {model.front_end.num_classes} classes, "
                                f"the corpus {corpus.spec.num_classes}")


def compute_schedule(method: str, aligned: StreamSet, oracle_stream: int, *, window=None,
                     model=None) -> AttentionSchedule:
    """Attention schedule for one aligned utterance under a frame-wise method and
    settings that check_settings passed (a window of None: the utterance-level M-measure)."""
    return FRAME_METHODS[method][0](aligned, oracle_stream, window, model)


def _overlaps(corpus: Corpus, truncations, window: int | None = None) -> list[tuple[int, int]]:
    """Each utterance's overlap range, from the stream headers load_corpus
    checked.  The lowest utterance whose streams share no frame, or, when a
    frame method of the (frame method, n) pairs of truncations reads the
    window, that cannot host the M-measure spans (measures.check_fit) raises,
    naming it."""
    C, profiles = corpus.spec.num_classes, corpus.facts.profiles
    fits = any(FRAME_METHODS[f][1] == "window" for f, _ in truncations)
    overlaps = []
    for u, frames in enumerate(corpus.facts.frames):
        headers = [storage.StreamHeader(frames, C, m, p.offset) for m, p in enumerate(profiles)]
        try:
            overlaps.append(overlap_range(StreamSet(headers)))
            if fits:
                measures.check_fit(overlaps[-1][1], window)
        except (OverlapEmpty, WindowTooShort) as e:
            raise type(e)(f"utt {u}: {e}") from None
    return overlaps


def _fuse_utterance(aligned: StreamSet, oracle_stream: int, truncations, *, model=None,
                    window=None):
    """The schedules and the fused streams of one aligned utterance under the
    (frame method, n) pairs of truncations.

    Each distinct frame method's schedule is computed once, then truncated
    for each pair with an n.
    """
    frames = dict.fromkeys(f for f, _ in truncations)
    full = {f: compute_schedule(f, aligned, oracle_stream, window=window, model=model)
            for f in frames}
    scheds = [full[f] if n is None else n_best_truncate(full[f], n) for f, n in truncations]
    return scheds, [fuse(aligned, sched) for sched in scheds]


def fuse_corpus(corpus: Corpus, method: str, outdir, *, model: aemonitor.AeModel | None = None,
                window: int | None = None, n: int | None = None):
    """Fuse every utterance of a corpus and write the results.

    Every setting (check_settings, check_model) and every utterance's
    overlap (_overlaps) is checked before anything is written.  fuse.cfg is
    removed before the first utterance and written last.
    """
    truncation = [check_settings(method, n, corpus.spec.num_streams, window=window, model=model)]
    check_model(model, corpus)
    _overlaps(corpus, truncation, window)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fuse.cfg").unlink(missing_ok=True)
    values = (
        method,
        "" if n is None else n,
        "" if window is None else window,
        "" if model is None else storage.model_digest(model),
        corpus_hash(corpus),
    )
    cfg = dict(zip(FUSE_KEYS, values, strict=True))

    def utterance(u: int) -> None:
        aligned = align_streams(corpus[u].streams)
        [sched], [fused] = _fuse_utterance(aligned, corpus.facts.oracle_stream, truncation,
                                           model=model, window=window)
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
        check_settings(fcfg["method"], fcfg["n"] or None, num_streams,
                       window=fcfg["window"] or None, model=fcfg["model_digest"] or None)
    except StreamFuseError as e:  # an unknown method, a SettingError
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
    Viterbi batch.  Every setting is checked before the first utterance;
    the model need not be read by every pair.  A fused directory given
    twice (the same resolved path) is a SettingError on "fused", and no
    baselines, fused directory or method a StreamFuseError.
    """
    M, C = corpus.spec.num_streams, len(corpus.hmm.priors)
    fused_dirs = [Path(d) for d in fused_dirs]
    if not (baselines or fused_dirs or methods):
        raise StreamFuseError("nothing to score: no baselines, fused directory or method")
    for i, d in enumerate(fused_dirs):
        if d.resolve() in (e.resolve() for e in fused_dirs[:i]):
            raise SettingError("fused", f"{d} is given twice")
    names = [*(f"stream:{m}" for m in range(M)), "clean"] if baselines else []
    chash = corpus_hash(corpus)
    names += [_fused_name(d, chash, M) for d in fused_dirs]
    names += [_row_name(method, n) for method, n in methods]
    # One model serves every pair: it is given to the pairs whose method reads it.
    read_model = {f for f, (_, reads) in FRAME_METHODS.items() if reads == "model"}
    truncations = [check_settings(method, n, M, model=model if method in read_model else None)
                   for method, n in methods]
    check_model(model, corpus)
    overlaps = _overlaps(corpus, truncations)

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
        streams += _fuse_utterance(aligned, corpus.facts.oracle_stream, truncations,
                                   model=model)[1]
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
