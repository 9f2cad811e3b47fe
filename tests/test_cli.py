"""End-to-end CLI behaviour through subprocess invocations."""

import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from streamfuse import storage

CLI = [sys.executable, "-m", "streamfuse.cli"]

# Small, smooth-emission corpus: keeps the whole CLI pipeline fast and the
# autoencoder loss surface benign at the default learning rate.
SIM_FLAGS = [
    "--scenario", "ldc_like",
    "--streams", "3",
    "--utterances", "4",
    "--seed", "5",
    "--classes", "6",
    "--frames-min", "30",
    "--frames-max", "40",
    "--alpha-true", "20",
    "--alpha-other", "1.0",
    "--conf-prob", "0",
]


def run(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    r = run("simulate", "--out", str(out), *SIM_FLAGS)
    assert r.returncode == 0, r.stderr
    return out


@pytest.fixture(scope="module")
def model(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-model") / "mon.stae"
    r = run(
        "train-ae", "--corpus", str(corpus), "--out", str(path),
        "--epochs", "6", "--seed", "0",
    )
    assert r.returncode == 0, r.stderr
    return path


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestSimulate:
    def test_file_count_contract(self, corpus):
        strm = sorted(p.name for p in corpus.glob("*_s??.strm"))
        assert len(strm) == 4 * 3  # utterances x streams
        assert len(list(corpus.glob("*_clean.strm"))) == 4
        assert len(list(corpus.glob("*.ref"))) == 4
        assert (corpus / "manifest.txt").exists()
        assert (corpus / "corpus.cfg").exists()
        assert (corpus / "hmm.json").exists()

    def test_deterministic_across_runs(self, corpus, tmp_path):
        out = tmp_path / "again"
        r = run("simulate", "--out", str(out), *SIM_FLAGS)
        assert r.returncode == 0, r.stderr
        assert tree_bytes(out) == tree_bytes(corpus)

    def test_missing_required_flag_exits_2(self, tmp_path):
        r = run("simulate", "--out", str(tmp_path / "x"), "--scenario", "ldc_like",
                "--utterances", "2", "--seed", "1")
        assert r.returncode == 2
        assert "--streams" in r.stderr

    def test_unknown_scenario_exits_2(self, tmp_path):
        r = run("simulate", "--out", str(tmp_path / "x"), "--scenario", "nope",
                "--streams", "2", "--utterances", "2", "--seed", "1")
        assert r.returncode == 2

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario=ldc_like\nstreams=3\nutterances=3\nseed=5\nclasses=6\n"
            "frames-min=20\nframes-max=30\n"
        )
        out = tmp_path / "from-config"
        r = run("simulate", "--config", str(cfg), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert len(list(out.glob("*_s??.strm"))) == 9

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario=ldc_like\nstreams=3\nutterances=5\nseed=5\nclasses=6\n"
                       "frames-min=20\nframes-max=30\n")
        out = tmp_path / "override"
        r = run("simulate", "--config", str(cfg), "--out", str(out), "--utterances", "2")
        assert r.returncode == 0, r.stderr
        assert len(list(out.glob("*.ref"))) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        r = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert r.returncode == 2
        assert "bogus" in r.stderr


class TestTrainAe:
    def test_zero_epochs_rejected(self, corpus, tmp_path):
        r = run("train-ae", "--corpus", str(corpus), "--out", str(tmp_path / "m.stae"),
                "--epochs", "0")
        assert r.returncode == 2
        assert "epochs" in r.stderr

    def test_loss_log_strictly_decreasing_early(self, model):
        lines = (model.parent / (model.name + ".loss")).read_text().splitlines()
        losses = [float(line.split("\t")[1]) for line in lines]
        assert len(losses) == 7  # pre-training value + 6 epochs
        for a, b in zip(losses[:5], losses[1:6]):
            assert b < a

    def test_context_recorded_in_model(self, corpus, tmp_path):
        path = tmp_path / "ctx.stae"
        r = run("train-ae", "--corpus", str(corpus), "--out", str(path),
                "--context", "-16,12", "--epochs", "1")
        assert r.returncode == 0, r.stderr
        assert storage.read_model(path).context == (-16, 12)

    def test_missing_corpus_exits_3(self, tmp_path):
        r = run("train-ae", "--corpus", str(tmp_path / "nope"),
                "--out", str(tmp_path / "m.stae"))
        assert r.returncode == 3


class TestFuse:
    def test_equal_weights_schedule(self, corpus, tmp_path):
        out = tmp_path / "equal"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out), "--method", "equal")
        assert r.returncode == 0, r.stderr
        scheds = sorted(out.glob("*.schd"))
        fused = sorted(out.glob("*_fused.strm"))
        assert len(scheds) == 4 and len(fused) == 4
        w = storage.read_schedule(scheds[0]).weights
        np.testing.assert_allclose(w, 1 / 3, atol=1e-6)

    def test_oracle_schedule_one_hot_on_manifest_stream(self, corpus, tmp_path):
        out = tmp_path / "oracle"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out), "--method", "oracle")
        assert r.returncode == 0, r.stderr
        oracle = storage.read_manifest(corpus / "manifest.txt")[0].oracle_stream
        w = storage.read_schedule(sorted(out.glob("*.schd"))[0]).weights
        assert np.all(w[:, oracle] == 1.0)
        assert np.all(np.delete(w, oracle, axis=1) == 0.0)

    def test_max_n_default_winner_takes_all(self, corpus, tmp_path):
        out = tmp_path / "maxn"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out), "--method", "max_n")
        assert r.returncode == 0, r.stderr
        w = storage.read_schedule(sorted(out.glob("*.schd"))[0]).weights
        assert set(np.unique(w)) <= {0.0, 1.0}
        np.testing.assert_array_equal(w.sum(axis=1), 1.0)

    def test_autoencoder_without_model_exits_3(self, corpus, tmp_path):
        r = run("fuse", "--corpus", str(corpus), "--out", str(tmp_path / "ae"),
                "--method", "autoencoder")
        assert r.returncode == 3
        assert "model" in r.stderr.lower()

    def test_autoencoder_with_model(self, corpus, model, tmp_path):
        out = tmp_path / "ae"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out),
                "--method", "autoencoder", "--model", str(model))
        assert r.returncode == 0, r.stderr
        assert len(list(out.glob("*_fused.strm"))) == 4

    def test_unknown_method_exits_2(self, corpus, tmp_path):
        r = run("fuse", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                "--method", "bogus")
        assert r.returncode == 2

    def test_unknown_base_exits_2(self, corpus, tmp_path):
        r = run("fuse", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                "--method", "max_n", "--base", "nonsense")
        assert r.returncode == 2
        assert "--base" in r.stderr

    def test_hostile_model_header_exits_3(self, corpus, tmp_path):
        # A C=6, K=1 front end, then a layer declaring a (2**32 - 1) square
        # weight matrix the file lacks.
        model = tmp_path / "hostile.stae"
        model.write_bytes(
            struct.pack("<4sHIId", b"STAE", 1, 6, 1, 1e-3)
            + struct.pack("<ii", 0, 0)
            + bytes(8 * (6 + 6))
            + struct.pack("<H", 1)
            + struct.pack("<IIBH", 0xFFFFFFFF, 0xFFFFFFFF, 0, 0)
        )
        r = run("fuse", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                "--method", "autoencoder", "--model", str(model))
        assert r.returncode == 3
        assert "layer 0 weights" in r.stderr
        assert "Traceback" not in r.stderr


class TestEvaluate:
    def test_report_rows_and_hash(self, corpus, tmp_path):
        fused = tmp_path / "equal"
        run("fuse", "--corpus", str(corpus), "--out", str(fused), "--method", "equal")
        report = tmp_path / "report.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report),
                "--fused", str(fused))
        assert r.returncode == 0, r.stderr
        lines = report.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("system\ttoken_error_rate")
        systems = [line.split("\t")[0] for line in lines[2:]]
        assert systems == ["stream:0", "stream:1", "stream:2", "clean", "equal"]

    def test_sweep_adds_one_row_per_n(self, corpus, tmp_path):
        report = tmp_path / "sweep.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report),
                "--no-baselines", "--sweep", "--method", "entropy")
        assert r.returncode == 0, r.stderr
        systems = [
            line.split("\t")[0]
            for line in report.read_text().splitlines()
            if not line.startswith(("#", "system"))
        ]
        assert systems == ["entropy:n=1", "entropy:n=2", "entropy:n=3"]

    def test_sweep_requires_method(self, corpus, tmp_path):
        r = run("evaluate", "--corpus", str(corpus), "--out", str(tmp_path / "r.tsv"),
                "--sweep")
        assert r.returncode == 2

    def test_deterministic_reports(self, corpus, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        for path in (a, b):
            r = run("evaluate", "--corpus", str(corpus), "--out", str(path))
            assert r.returncode == 0, r.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_missing_corpus_exits_3(self, tmp_path):
        r = run("evaluate", "--corpus", str(tmp_path / "nope"),
                "--out", str(tmp_path / "r.tsv"))
        assert r.returncode == 3

    def test_hostile_stream_header_exits_3(self, corpus, tmp_path):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        (copy / "utt0000_s01.strm").write_bytes(
            struct.pack("<4sHIIIiB", b"SATN", 1, 0xFFFFFFFF, 0xFFFFFFFF, 1, 0, 0)
        )
        r = run("evaluate", "--corpus", str(copy), "--out", str(tmp_path / "r.tsv"))
        assert r.returncode == 3
        assert "stream payload" in r.stderr
        assert "Traceback" not in r.stderr
