"""In-memory experiment orchestration over a corpus on disk."""

import dataclasses
import os
import re
import shutil
import signal
import struct
import time
import tracemalloc

import numpy as np
import pytest

import reference as ref
from conftest import random_simplex, random_stream_set
from streamfuse import aemonitor, cli, experiments, measures, simulator
from streamfuse.core import PosteriorStream, StreamSet, align_streams, overlap_range
from streamfuse.decoder import score
from streamfuse.decoder import make_hmm
from streamfuse.errors import (
    DimensionMismatch,
    FormatError,
    OverlapEmpty,
    SettingError,
    StreamFuseError,
    WindowTooShort,
)
from streamfuse.simulator import CorpusSpec


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    spec = CorpusSpec(
        num_utterances=6,
        frames_min=30,
        frames_max=50,
        num_classes=8,
        num_streams=5,
        seed=3,
    )
    outdir = tmp_path_factory.mktemp("exp") / "hrm"
    facts = experiments.write_corpus("hrm_like", spec, outdir)
    return spec, facts, outdir


@pytest.fixture(scope="module")
def hrm_corpus(written):
    return experiments.load_corpus(written[2])


def test_load_corpus_round_trips_the_scenario(written, hrm_corpus):
    spec, facts, outdir = written
    got = hrm_corpus
    assert (got.name, got.spec, got.facts.profiles) == ("hrm_like", spec, facts.profiles)
    assert got.facts.oracle_stream == facts.oracle_stream
    np.testing.assert_array_equal(got.hmm.transitions, facts.hmm.transitions)
    np.testing.assert_array_equal(got.hmm.priors, facts.hmm.priors)
    assert [u.utt_id for u in got] == list(range(spec.num_utterances))
    for g in got:
        s = simulator.simulate_utterance(spec, facts, g.utt_id)
        np.testing.assert_array_equal(g.labels, s.labels)
        for gs, ss in zip([g.clean, *g.streams.streams], [s.clean, *s.streams.streams]):
            assert (gs.stream_id, gs.frame_offset) == (ss.stream_id, ss.frame_offset)
            np.testing.assert_allclose(gs.probs, ss.probs, rtol=1e-6, atol=1e-12)
    stored = dict(experiments.read_config_pairs(outdir / "corpus.cfg"))["config_hash"]
    written_hash = experiments.config_hash(experiments._corpus_cfg("hrm_like", spec))
    assert experiments.corpus_hash(got) == written_hash == stored


def test_interrupted_rewrite_leaves_no_manifest(tmp_path, monkeypatch):
    # The manifest does not depend on the alphas: a rerun with another
    # alpha_true that stops at utterance 3 must not leave the old manifest
    # to vouch for a corpus of mixed utterances.
    spec = CorpusSpec(num_utterances=5, frames_min=10, frames_max=12, num_classes=3,
                      num_streams=2, seed=4)
    experiments.write_corpus("ldc_like", spec, tmp_path)
    simulate = simulator.simulate_utterance

    def stop_at_3(spec, facts, u):
        if u == 3:
            raise RuntimeError("interrupted")
        return simulate(spec, facts, u)

    monkeypatch.setattr(simulator, "simulate_utterance", stop_at_3)
    with pytest.raises(RuntimeError, match="interrupted"):
        experiments.write_corpus("ldc_like", dataclasses.replace(spec, alpha_true=50.0), tmp_path)
    assert not (tmp_path / "manifest.txt").exists()
    incomplete = f"{tmp_path}: no manifest.txt, so the corpus is incomplete"
    with pytest.raises(FormatError, match=re.escape(incomplete)):
        experiments.load_corpus(tmp_path)


def _not_derived(*args):
    raise AssertionError("corpus_facts called")


# A setting far above what hmm.json or the manifest holds, under a corpus.cfg
# hash made right for it: load_corpus refuses it before corpus_facts would
# allocate or loop at its size.
@pytest.mark.parametrize("key, value, file", [
    ("classes", 10**6, "hmm.json"),
    ("utterances", 10**9, "manifest.txt"),
    ("streams", 10**9, "manifest.txt"),
])
def test_load_corpus_refuses_settings_its_files_cannot_hold(written, tmp_path, monkeypatch,
                                                            key, value, file):
    corpus = tmp_path / "corpus"
    shutil.copytree(written[2], corpus)
    pairs = dict(experiments.read_config_pairs(corpus / "corpus.cfg"))
    del pairs["config_hash"]
    experiments.write_config({**pairs, key: value}, corpus / "corpus.cfg")
    monkeypatch.setattr(simulator, "corpus_facts", _not_derived)
    with pytest.raises(StreamFuseError, match=f"^{re.escape(str(corpus / file))}"):
        experiments.load_corpus(corpus)


@pytest.mark.parametrize("method", ["entropy", "max_n"])
def test_n_sweep_rows_equal_per_n_evaluation(hrm_corpus, method):
    # The sweep's rows share one schedule per utterance; each n alone
    # computes its own.
    sweep = [(method, n) for n in range(1, hrm_corpus.spec.num_streams + 1)]
    expected = [
        experiments.evaluate_corpus(hrm_corpus, baselines=False, methods=[pair])[0]
        for pair in sweep
    ]
    got = experiments.evaluate_corpus(hrm_corpus, baselines=False, methods=sweep)
    assert got == expected
    assert [name for name, _ in got] == [f"{method}:n={n}" for _, n in sweep]


def test_check_settings_resolves_max_n_to_entropy_truncated_to_n():
    # max_n is no frame-wise method: check_settings resolves it, the caller truncates.
    assert "max_n" not in experiments.FRAME_METHODS
    assert experiments.check_settings("max_n") == ("entropy", 1)
    assert experiments.check_settings("max_n", 3, 5) == ("entropy", 3)
    assert experiments.check_settings("entropy", None, 5) == ("entropy", None)
    assert experiments.check_settings("m_measure", 2, 5, window=60) == ("m_measure", 2)


def test_check_settings_needs_the_model_the_autoencoder_reads():
    with pytest.raises(SettingError, match="^model: the autoencoder method needs it$") as e:
        experiments.check_settings("autoencoder", 1, 5)
    assert e.value.setting == "model"


# One call checks a fusion in this order: the method, the settings it does
# not read or lacks, the window's spans, then n.
@pytest.mark.parametrize("method, window, model, message", [
    ("nope", 1, object(), "unknown fusion method 'nope'"),
    ("max_n", 1, object(), "window: the entropy method does not read it"),
    ("autoencoder", None, None, "model: the autoencoder method needs it"),
    ("delta_m", 1, None, r"window: 1: window must be >= max\(spans\) \+ 1"),
    ("delta_m", 60, None, "n: 0 is less than 1"),
])
def test_check_settings_checks_in_order(method, window, model, message):
    with pytest.raises(StreamFuseError, match=f"^{message}$"):
        experiments.check_settings(method, 0, 5, window=window, model=model)


def _small_model(C: int, rng) -> aemonitor.AeModel:
    """A C-class model with a 3-wide code and one hidden layer of 4."""
    basis, _ = np.linalg.qr(rng.standard_normal((C, 3)))
    front_end = aemonitor.FrontEnd(pca_mean=rng.standard_normal(C), pca_basis=basis)
    layers = aemonitor.build_architecture(3, hidden_widths=(4,), rng=rng)
    return aemonitor.AeModel(front_end, layers, (0, 0))


def _monitor_schedule(method, aligned, oracle_stream, window, model):
    """The schedule of method's monitor, called by hand."""
    M = aligned.num_streams
    if method == "equal":
        return np.full((aligned.streams[0].num_frames, M), 1.0 / M)
    if method == "entropy":
        return measures.entropy_attention(aligned).weights
    if method in ("m_measure", "delta_m"):
        return measures.binary_window_attention(aligned, window,
                                                delta=method == "delta_m").weights
    if method == "autoencoder":
        return aemonitor.ae_attention(aligned, model).weights
    return np.eye(M)[[oracle_stream] * aligned.streams[0].num_frames]


def _ranked_apart(rng, T: int = 130, C: int = 8) -> StreamSet:
    """Three aligned streams that the M-measure and the delta M-measure, over
    the utterance and over 60-frame windows, rank four ways.  Stream 0 varies
    in its first 60 frames alone, with a fixed argmax, so its delta score is
    0; stream 1 is uniform there and then moves its argmax every frame;
    stream 2 sits near uniform throughout."""
    steady = np.hstack([np.full((T, 1), 0.6), 0.4 * random_simplex(rng, T, C - 1)])
    steady[60:] = steady[59]
    moving = np.full((T, C), 1.0 / C)
    moving[np.arange(60, T), np.arange(60, T) % C] += 0.1
    mixed = 0.1 * random_simplex(rng, T, C) + 0.9 / C
    rows = [steady, moving / moving.sum(axis=1, keepdims=True), mixed]
    return StreamSet([PosteriorStream(p, stream_id=m) for m, p in enumerate(rows)])


# Every frame-wise method at no window, and the M-measures at a 60-frame one.
@pytest.mark.parametrize("method, window", [
    *((method, None) for method in experiments.FRAME_METHODS),
    ("m_measure", 60),
    ("delta_m", 60),
])
def test_compute_schedule_is_the_monitors_own_schedule(hrm_corpus, rng, method, window):
    _, reads = experiments.FRAME_METHODS[method]
    aligned = _ranked_apart(rng)
    ways = {measures.binary_window_attention(aligned, w, delta=d).weights.tobytes()
            for w in (None, 60) for d in (False, True)}
    assert len(ways) == 4
    model = _small_model(8, rng)
    settings = {"window": window, "model": model if reads == "model" else None}
    # The corpus's oracle stream (0 in hrm_like), and another.
    for oracle in (hrm_corpus.facts.oracle_stream, 2):
        got = experiments.compute_schedule(method, aligned, oracle, **settings).weights
        want = _monitor_schedule(method, aligned, oracle, window, model)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("method", ["m_measure", "delta_m"])
def test_compute_schedule_reads_no_window_as_the_utterance_level_default(rng, method):
    aligned = random_stream_set(rng, 3, 80, 6)  # 80 frames host the longest span
    default = measures.binary_window_attention(aligned, delta=method == "delta_m")
    for settings in ({}, {"window": None}):
        np.testing.assert_array_equal(
            experiments.compute_schedule(method, aligned, 0, **settings).weights, default.weights
        )


def test_decode_reports_scores_each_stream_on_its_own_span():
    hmm = make_hmm(2, 0)
    labels = np.repeat([0, 1], 10)
    stream = PosteriorStream(np.tile([0.99, 0.01], (10, 1)))  # decodes to all 0
    got = experiments.decode_reports([stream, stream], labels, hmm, [0, 10])
    assert got == [score(np.zeros(10, int), labels[:10]), score(np.zeros(10, int), labels[10:])]
    assert got[0].frame_error_rate == 0.0 and got[1].frame_error_rate == 1.0


@pytest.fixture(scope="module")
def fused_dirs(hrm_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("fused")
    dirs = []
    for method, n in (("entropy", None), ("max_n", 2)):
        dirs.append(root / method)
        experiments.fuse_corpus(hrm_corpus, method, dirs[-1], n=n)
    return dirs


# A setting the method does not read, or a model the method needs and lacks:
# fuse_corpus raises before it writes anything, with the check the CLI uses.
@pytest.mark.parametrize("method, settings, message", [
    ("entropy", {"window": 60, "model": object()}, "window: the entropy method does not read it"),
    ("entropy", {"window": 60}, "window: the entropy method does not read it"),
    ("oracle", {"model": object()}, "model: the oracle method does not read it"),
    ("autoencoder", {}, "model: the autoencoder method needs it"),
], ids=["repro", "window", "oracle model", "ae no model"])
def test_fuse_corpus_rejects_unread_settings(hrm_corpus, tmp_path, method, settings, message):
    out = tmp_path / "fused"
    with pytest.raises(SettingError, match=f"^{message}$"):
        experiments.fuse_corpus(hrm_corpus, method, out, **settings)
    assert not out.exists()


# A setting the method reads, but out of range for it or for the corpus's
# 5 streams: also refused before fuse_corpus makes its directory.
@pytest.mark.parametrize("method, settings, message", [
    ("entropy", {"n": 6}, "n: 6 is more than the corpus's 5 streams"),
    ("max_n", {"n": 6}, "n: 6 is more than the corpus's 5 streams"),
    ("max_n", {"n": 0}, "n: 0 is less than 1"),
    ("m_measure", {"window": 50}, r"window: 50: window must be >= max\(spans\) \+ 1"),
], ids=["entropy n", "max_n n", "max_n n=0", "short window"])
def test_fuse_corpus_checks_n_and_window_before_any_output(hrm_corpus, tmp_path, method,
                                                           settings, message):
    out = tmp_path / "fused"
    with pytest.raises(SettingError, match=f"^{message}$") as e:
        experiments.fuse_corpus(hrm_corpus, method, out, **settings)
    assert e.value.setting == next(iter(settings))
    assert not out.exists()


def _no_utterances(*args):
    pytest.fail("the step ran its utterances")


@pytest.mark.parametrize("methods, message", [
    ([("autoencoder", 1)], "model: the autoencoder method needs it"),
    ([("entropy", 1), ("max_n", 6)], "n: 6 is more than the corpus's 5 streams"),
    ([("entropy", 6)], "n: 6 is more than the corpus's 5 streams"),
], ids=["ae no model", "max_n n", "entropy n"])
def test_evaluate_corpus_checks_every_pair_before_the_first_utterance(
        hrm_corpus, monkeypatch, methods, message):
    monkeypatch.setattr(experiments, "_per_utterance", _no_utterances)
    with pytest.raises(SettingError, match=f"^{message}$"):
        experiments.evaluate_corpus(hrm_corpus, methods=methods)


def test_evaluate_corpus_with_nothing_to_score_raises_before_any_work(hrm_corpus,
                                                                       monkeypatch):
    monkeypatch.setattr(experiments, "_per_utterance", _no_utterances)
    with pytest.raises(StreamFuseError) as e:
        experiments.evaluate_corpus(hrm_corpus, baselines=False, fused_dirs=(), methods=())
    assert str(e.value) == "nothing to score: no baselines, fused directory or method"


# A model over 6 classes that chains right; hrm_corpus has 8.  Both library
# entries refuse it before any output or worker.
@pytest.mark.parametrize("entry", ["fuse_corpus", "evaluate_corpus"])
def test_a_model_of_another_class_count_is_refused_before_any_work(hrm_corpus, tmp_path, rng,
                                                                   monkeypatch, entry):
    model = _small_model(6, rng)
    monkeypatch.setattr(experiments, "_per_utterance", _no_utterances)
    out = tmp_path / "fused"
    with pytest.raises(DimensionMismatch, match="^the model has 6 classes, the corpus 8$"):
        if entry == "fuse_corpus":
            experiments.fuse_corpus(hrm_corpus, "autoencoder", out, model=model)
        else:
            experiments.evaluate_corpus(hrm_corpus, methods=[("autoencoder", None)], model=model)
    assert not out.exists()


def test_evaluate_corpus_refuses_a_fused_dir_given_twice(hrm_corpus, fused_dirs, monkeypatch):
    # The same directory under another spelling is the same directory; two
    # different directories of the same settings are not refused here.
    monkeypatch.setattr(experiments, "_per_utterance", _no_utterances)
    entropy, max_n = fused_dirs
    again = entropy / ".." / entropy.name
    with pytest.raises(SettingError, match=f"^fused: {re.escape(str(again))} is given twice$") as e:
        experiments.evaluate_corpus(hrm_corpus, fused_dirs=[entropy, max_n, again])
    assert e.value.setting == "fused"
    with pytest.raises(SettingError, match="is given twice$"):
        experiments.evaluate_corpus(hrm_corpus, baselines=False, fused_dirs=[max_n, str(max_n)])


@pytest.fixture(scope="module")
def uneven(tmp_path_factory):
    """Two hrm_like corpora of 4 streams x 8 utterances x 8 classes, seed 3, by
    their frame range: at 50-70 frames utterance 4 is the first whose overlap
    (47 frames) cannot host the M-measure's longest span, 50; at 2-6 frames
    utterance 3 is the first whose streams share no frame."""
    root = tmp_path_factory.mktemp("uneven")
    corpora = {}
    for lo, hi in ((50, 70), (2, 6)):
        spec = CorpusSpec(num_utterances=8, frames_min=lo, frames_max=hi, num_classes=8,
                          num_streams=4, seed=3)
        experiments.write_corpus("hrm_like", spec, root / f"{lo}-{hi}")
        corpora[lo, hi] = experiments.load_corpus(root / f"{lo}-{hi}")
    return corpora


SHORT_UTT = ("utt 4: window of 47 frames cannot host span 50 "
             "(M-measure over the utterance, spans=5,10,20,30,40,50)")
NO_OVERLAP = "utt 3: stream offsets leave no common frame range"


# Every utterance's overlap is settled before fuse_corpus makes its directory:
# the lowest utterance that fails is named, as a serial loop would name it.
@pytest.mark.parametrize("frames, method, settings, error, message", [
    ((50, 70), "m_measure", {}, WindowTooShort, SHORT_UTT),
    ((50, 70), "m_measure", {"n": 2}, WindowTooShort, SHORT_UTT),
    ((50, 70), "delta_m", {"window": 60},
     WindowTooShort, SHORT_UTT.replace("over the utterance", "window=60")),
    ((2, 6), "entropy", {}, OverlapEmpty, NO_OVERLAP),
    ((2, 6), "m_measure", {}, WindowTooShort, "utt 0: window of 3 frames cannot host span 50 "
     "(M-measure over the utterance, spans=5,10,20,30,40,50)"),
], ids=["short", "short n", "short window", "no overlap", "lowest failure first"])
def test_fuse_corpus_checks_every_utterance_before_any_output(uneven, tmp_path, frames, method,
                                                              settings, error, message):
    out = tmp_path / "fused"
    with pytest.raises(error) as e:
        experiments.fuse_corpus(uneven[frames], method, out, **settings)
    assert str(e.value) == message
    assert not out.exists()


def test_fuse_corpus_checks_the_window_fit_only_for_a_method_that_reads_it(uneven, tmp_path):
    experiments.fuse_corpus(uneven[50, 70], "entropy", tmp_path / "fused")
    assert (tmp_path / "fused" / "fuse.cfg").is_file()


@pytest.mark.parametrize("frames, methods, error, message", [
    ((50, 70), [("entropy", 2), ("m_measure", None)], WindowTooShort, SHORT_UTT),
    ((2, 6), [], OverlapEmpty, NO_OVERLAP),
], ids=["short", "no overlap"])
def test_evaluate_corpus_checks_every_utterance_before_the_first(uneven, monkeypatch, frames,
                                                                 methods, error, message):
    monkeypatch.setattr(experiments, "_per_utterance", _no_utterances)
    with pytest.raises(error) as e:
        experiments.evaluate_corpus(uneven[frames], methods=methods)
    assert str(e.value) == message


def test_fuse_corpus_accepts_the_default_settings(hrm_corpus, tmp_path):
    # What the CLI passes for every method it gives no flag: None.
    a, b = tmp_path / "a", tmp_path / "b"
    experiments.fuse_corpus(hrm_corpus, "entropy", a)
    experiments.fuse_corpus(hrm_corpus, "entropy", b, model=None, window=None, n=None)
    assert [p.read_bytes() for p in sorted(a.iterdir())] == [
        p.read_bytes() for p in sorted(b.iterdir())
    ]


@pytest.mark.parametrize("sweep", ["entropy", "max_n"])
def test_one_pass_equals_per_system_loops(hrm_corpus, fused_dirs, sweep):
    # The clean stream outlasts the overlap, so each utterance's batch is ragged.
    assert any(
        overlap_range(u.streams)[1] < len(u.labels) for u in hrm_corpus
    )
    # An n-best sweep, then untruncated rows: max_n alone is n=1 of entropy,
    # and entropy shares its schedule with a max_n sweep.
    methods = [(sweep, n) for n in range(1, hrm_corpus.spec.num_streams + 1)]
    methods += [("entropy", None), ("max_n", None), ("equal", None)]
    baselines = ref.evaluate_single_streams_ref(hrm_corpus)
    fused = [ref.evaluate_fused_dir_ref(hrm_corpus, d) for d in fused_dirs]
    swept = ref.evaluate_methods_ref(hrm_corpus, methods)
    got = experiments.evaluate_corpus(hrm_corpus, fused_dirs=fused_dirs, methods=methods)
    assert got == baselines + fused + swept
    # Each part alone gives the same rows.
    assert experiments.evaluate_corpus(hrm_corpus) == baselines
    assert [
        experiments.evaluate_corpus(hrm_corpus, baselines=False, fused_dirs=[d])[0]
        for d in fused_dirs
    ] == fused
    assert experiments.evaluate_corpus(hrm_corpus, baselines=False, methods=methods) == swept


def _pipeline_peak_bytes(root, num_utterances: int) -> int:
    """tracemalloc peak of write_corpus, load_corpus, fuse_corpus and evaluate_corpus,
    run in this process alone (tracemalloc sees no forked worker)."""
    spec = CorpusSpec(
        num_utterances=num_utterances,
        frames_min=60,
        frames_max=60,
        num_classes=12,
        num_streams=6,
        seed=3,
    )
    corpus_dir, fused = root / f"corpus{num_utterances}", root / f"fused{num_utterances}"
    tracemalloc.start()
    try:
        experiments.write_corpus("hrm_like", spec, corpus_dir)
        corpus = experiments.load_corpus(corpus_dir)
        experiments.fuse_corpus(corpus, "entropy", fused)
        methods = [("entropy", n) for n in range(1, spec.num_streams + 1)]
        experiments.evaluate_corpus(corpus, fused_dirs=[fused], methods=methods)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pipeline_holds_one_utterance_at_a_time(tmp_path, monkeypatch):
    # Same utterance shape, 4x the utterances: a corpus held in memory would
    # grow the peak about 4x; one utterance at a time keeps it flat.
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    _pipeline_peak_bytes(tmp_path, 1)  # first-call allocations out of the way
    small, large = (_pipeline_peak_bytes(tmp_path, n) for n in (4, 16))
    assert large <= 1.5 * small, (small, large)


# The per-utterance steps split their utterances over forked workers; the
# worker count is patched through experiments._cpus, not the host's affinity.
SMALL = CorpusSpec(num_utterances=5, frames_min=55, frames_max=70, num_classes=6,
                   num_streams=3, seed=2)


def _tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_counts_give_the_same_bytes(tmp_path, monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(experiments, "_cpus", lambda workers=workers: workers)
        root = tmp_path / f"w{workers}"
        experiments.write_corpus("hrm_like", SMALL, root / "corpus")
        corpus = experiments.load_corpus(root / "corpus")
        dirs = [root / "entropy", root / "m_measure"]
        experiments.fuse_corpus(corpus, "entropy", dirs[0])
        experiments.fuse_corpus(corpus, "m_measure", dirs[1])
        rows = experiments.evaluate_corpus(corpus, fused_dirs=dirs,
                                           methods=[("entropy", n) for n in (1, 2, 3)])
        report = experiments.format_report(rows, experiments.corpus_hash(corpus))
        (root / "report.tsv").write_text(report)
        outputs[workers] = _tree(root)
        # Four steps, each forking workers - 1 children.
        assert len(forks) == 4 * (workers - 1)
        forks.clear()
        _no_child_left()
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


@pytest.mark.parametrize("command", ["fuse", "evaluate"])
def test_late_corrupt_streams_fail_as_the_serial_run(tmp_path, monkeypatch, capsys, command):
    # Utterances 3 and 4 are off the simplex; 3 is run by a child at two and at
    # three workers (its block is 2-4, then 3-4), and is the one a serial run reports.
    corpus = tmp_path / "corpus"
    experiments.write_corpus("hrm_like", SMALL, corpus)
    first = struct.calcsize("<4sHIIiiB")  # row 0, class 0
    for name in ("utt0003_s01.strm", "utt0004_s00.strm"):
        data = bytearray((corpus / name).read_bytes())
        data[first : first + 4] = struct.pack("<f", 2.0)
        (corpus / name).write_bytes(bytes(data))
    ends = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(experiments, "_cpus", lambda workers=workers: workers)
        out = tmp_path / f"out{workers}"
        argv = ["--method", "entropy"] if command == "fuse" else []
        rc = cli.main([command, "--corpus", str(corpus), "--out", str(out), *argv])
        ends[workers] = rc, capsys.readouterr().err
        assert not (out / "fuse.cfg").exists() and not out.is_file()
        _no_child_left()
    assert ends[1][0] == 3
    assert "utt 3: utt0003_s01.strm" in ends[1][1] and "row 0" in ends[1][1]
    assert ends[2] == ends[3] == ends[1]


def test_killed_worker_ends_in_a_typed_error(tmp_path, monkeypatch):
    # Two workers over SMALL's 5 utterances: the child's block is 2, 3, 4.
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    simulate, parent = simulator.simulate_utterance, os.getpid()

    def killed_at_2(spec, facts, u):
        if u == 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return simulate(spec, facts, u)

    monkeypatch.setattr(simulator, "simulate_utterance", killed_at_2)
    message = "the worker process for utterances 2, 3, 4 ended by signal 9 without its results"
    with pytest.raises(StreamFuseError, match=f"^{message}$"):
        experiments.write_corpus("hrm_like", SMALL, tmp_path)
    assert not (tmp_path / "manifest.txt").exists()
    _no_child_left()


class _Stop(BaseException):
    """Not an Exception: nothing on the way catches it."""


def test_parent_failure_kills_its_workers():
    parent = os.getpid()

    def fn(u):
        if os.getpid() != parent:
            time.sleep(60)
        raise _Stop

    start = time.perf_counter()
    with pytest.raises(_Stop):
        experiments._per_utterance(fn, 2, 2)
    assert time.perf_counter() - start < 30
    _no_child_left()


@pytest.mark.parametrize("block", [0, 1])
def test_an_early_failure_does_not_wait_for_the_other_workers(block):
    # Three workers over 60 utterances, in blocks 0-19, 20-39 and 40-59: the
    # first utterance of `block` fails, and that of each block above it
    # sleeps.  Once the failure is known, no process on a higher block is
    # waited for.
    failing = 20 * block

    def fn(u):
        if u == failing:
            raise ValueError(f"utt {u}")
        if u % 20 == 0 and u > failing:
            time.sleep(60)
        return u

    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^utt {failing}$"):
        experiments._per_utterance(fn, 60, 3)
    assert time.perf_counter() - start < 5
    _no_child_left()


def test_a_failure_waits_only_for_the_utterances_below_it():
    # Two workers over 60 utterances of 0.2 s each: the parent's utterance 4
    # fails 1 s in, and the child's block, 30-59, would take 6 s.
    def fn(u):
        time.sleep(0.2)
        if u == 4:
            raise ValueError(f"utt {u}")
        return u

    start = time.perf_counter()
    with pytest.raises(ValueError, match="^utt 4$"):
        experiments._per_utterance(fn, 60, 2)
    assert time.perf_counter() - start < 3
    _no_child_left()


def test_a_lower_failure_wins_over_an_earlier_higher_one():
    # Three workers over 6 utterances, in blocks 0-1, 2-3 and 4-5: utterance 4
    # fails at once, utterance 3 a second later; a serial loop raises at 3.
    def fn(u):
        if u == 4:
            raise ValueError("utt 4")
        if u == 3:
            time.sleep(1)
            raise ValueError("utt 3")
        return u

    with pytest.raises(ValueError, match="^utt 3$"):
        experiments._per_utterance(fn, 6, 3)
    _no_child_left()


def test_fused_streams_are_checked_before_any_decode(hrm_corpus, fused_dirs, tmp_path,
                                                     monkeypatch):
    fused = tmp_path / "f"
    shutil.copytree(fused_dirs[0], fused)
    last = f"utt{len(hrm_corpus) - 1:04d}_fused.strm"
    (fused / last).unlink()

    def not_decoded(*args):
        raise AssertionError("decoded before the fused streams were checked")

    monkeypatch.setattr(experiments, "decode_reports", not_decoded)
    incomplete = f"{fused}: no {last}, so the fuse output is incomplete"
    with pytest.raises(FormatError, match=f"^{re.escape(incomplete)}$"):
        experiments.evaluate_corpus(hrm_corpus, fused_dirs=[fused])
