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
from conftest import random_stream_set
from streamfuse import cli, experiments, simulator
from streamfuse.core import PosteriorStream, align_streams, overlap_range
from streamfuse.decoder import score
from streamfuse.decoder import make_hmm
from streamfuse.errors import FormatError, SettingError, StreamFuseError
from streamfuse.measures import MMeasureConfig
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
    np.testing.assert_array_equal(got.hmm.transitions, facts.hmm.transitions)
    np.testing.assert_array_equal(got.hmm.priors, facts.hmm.priors)
    assert got.hmm.labels == facts.hmm.labels
    assert [u.utt_id for u in got] == list(range(spec.num_utterances))
    for g in got:
        s = simulator.simulate_utterance(spec, facts, g.utt_id)
        np.testing.assert_array_equal(g.labels, s.labels)
        assert g.oracle_stream == s.oracle_stream
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


def test_compute_schedule_takes_frame_wise_methods_only(hrm_corpus):
    # max_n is a truncation; _frame_method resolves it and the caller truncates.
    aligned = align_streams(hrm_corpus[0].streams)
    with pytest.raises(StreamFuseError, match="'max_n' is not a frame-wise fusion method"):
        experiments.compute_schedule("max_n", aligned)


@pytest.mark.parametrize("method, setting", [
    ("autoencoder", "model"),
    ("oracle", "oracle_stream"),
])
def test_compute_schedule_needs_the_setting_its_method_reads(hrm_corpus, method, setting):
    aligned = align_streams(hrm_corpus[0].streams)
    with pytest.raises(SettingError, match=f"^{setting}: the {method} method needs it$") as e:
        experiments.compute_schedule(method, aligned)
    assert e.value.setting == setting


@pytest.mark.parametrize("method", ["m_measure", "delta_m"])
def test_compute_schedule_reads_no_window_as_the_utterance_level_default(rng, method):
    aligned = random_stream_set(rng, 3, 80, 6)  # 80 frames host the longest span
    np.testing.assert_array_equal(
        experiments.compute_schedule(method, aligned).weights,
        experiments.compute_schedule(method, aligned, mcfg=MMeasureConfig()).weights,
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
    ("entropy", {"base": "m_measure", "mcfg": MMeasureConfig(window=60)},
     "base: only the max_n method reads it"),
    ("entropy", {"mcfg": MMeasureConfig(window=60)}, "window: the entropy method does not read it"),
    ("max_n", {"base": "oracle", "model": object()}, "model: the oracle method does not read it"),
    ("autoencoder", {}, "model: the autoencoder method needs it"),
], ids=["repro", "window", "max_n model", "ae no model"])
def test_fuse_corpus_rejects_unread_settings(hrm_corpus, tmp_path, method, settings, message):
    out = tmp_path / "fused"
    with pytest.raises(SettingError, match=f"^{message}$"):
        experiments.fuse_corpus(hrm_corpus, method, out, **settings)
    assert not out.exists()


def test_fuse_corpus_accepts_the_default_settings(hrm_corpus, tmp_path):
    # What the CLI passes for every method: the default base and window=None.
    a, b = tmp_path / "a", tmp_path / "b"
    experiments.fuse_corpus(hrm_corpus, "entropy", a)
    experiments.fuse_corpus(hrm_corpus, "entropy", b, base=experiments.DEFAULT_BASE,
                            mcfg=MMeasureConfig(window=None))
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
    # Utterances 3 and 4 are off the simplex; 3 is run by the parent at three
    # workers and by a child at two, and is the one a serial run reports.
    corpus = tmp_path / "corpus"
    experiments.write_corpus("hrm_like", SMALL, corpus)
    first = struct.calcsize("<4sHIIIiB")  # row 0, class 0
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
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    simulate, parent = simulator.simulate_utterance, os.getpid()

    def killed_at_1(spec, facts, u):
        if u == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return simulate(spec, facts, u)

    monkeypatch.setattr(simulator, "simulate_utterance", killed_at_1)
    message = "the worker process for utterances 1, 3 ended by signal 9 without its results"
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


@pytest.mark.parametrize("failing", [0, 1])
def test_an_early_failure_does_not_wait_for_the_other_workers(failing):
    # Three workers over 60 utterances: the parent runs 0, 3, 6, ... (half a
    # second each after 0), child 1 runs 1, 4, ... and child 2 sleeps at 2.
    # Once utterance `failing` has failed, no process runs a higher one.
    parent = os.getpid()

    def fn(u):
        if u == failing:
            raise ValueError(f"utt {u}")
        if u == 2:
            time.sleep(60)
        if u > 0 and os.getpid() == parent:
            time.sleep(0.5)
        return u

    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^utt {failing}$"):
        experiments._per_utterance(fn, 60, 3)
    assert time.perf_counter() - start < 5
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
