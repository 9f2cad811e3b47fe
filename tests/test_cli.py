"""End-to-end CLI behaviour, mostly through subprocess invocations."""

import contextlib
import dataclasses
import inspect
import io
import json
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfuse import aemonitor, cli, experiments, simulator, storage
from streamfuse.decoder import make_hmm

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
def fused_entropy(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-fused") / "entropy"
    r = run("fuse", "--corpus", str(corpus), "--out", str(out), "--method", "entropy")
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


def _hmm_json_text(hmm) -> str:
    """The hmm.json text simulate writes for hmm."""
    fields = {"transitions": hmm.transitions.tolist(), "priors": hmm.priors.tolist(),
              "labels": list(hmm.labels)}
    return json.dumps(fields)


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

    def test_missing_seed_exits_2(self, tmp_path):
        r = run("simulate", "--out", str(tmp_path / "x"), "--scenario", "ldc_like",
                "--streams", "2", "--utterances", "2")
        assert r.returncode == 2
        assert "--seed" in r.stderr
        assert not (tmp_path / "x").exists()

    # Each value is outside the range the library accepts for the flag
    # (--frames-max 70 is below the default --frames-min, 80).
    @pytest.mark.parametrize("flag, value", [
        ("--streams", "1"), ("--utterances", "0"),
        ("--classes", "1"), ("--frames-min", "0"), ("--frames-max", "0"), ("--frames-max", "70"),
        ("--alpha-true", "-1"), ("--alpha-true", "nan"), ("--alpha-other", "-0.5"),
        ("--conf-prob", "1.5"), ("--conf-len", "0.5"), ("--conf-len", "inf"), ("--seed", "-1"),
    ])
    def test_out_of_range_flag_exits_2(self, tmp_path, flag, value):
        out = tmp_path / "x"
        r = run("simulate", "--out", str(out), "--scenario", "ldc_like", "--streams", "3",
                "--utterances", "2", "--seed", "1", flag, value)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert f"error: argument {flag}: " in r.stderr
        assert not out.exists()

    def test_unknown_scenario_exits_2(self, tmp_path):
        r = run("simulate", "--out", str(tmp_path / "x"), "--scenario", "nope",
                "--streams", "2", "--utterances", "2", "--seed", "1")
        assert r.returncode == 2

    def test_custom_scenario_exits_2(self, tmp_path):
        r = run("simulate", "--out", str(tmp_path / "x"), "--scenario", "custom",
                "--streams", "2", "--utterances", "2", "--seed", "1")
        assert r.returncode == 2
        assert "argument --scenario: invalid choice: 'custom'" in r.stderr
        assert not (tmp_path / "x").exists()

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

    def test_config_value_outside_choices_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario=nope\nstreams=2\nutterances=2\nseed=1\n")
        r = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
        assert r.returncode == 2
        assert "nope" in r.stderr


class TestTrainAe:
    def test_zero_epochs_rejected(self, corpus, tmp_path):
        r = run("train-ae", "--corpus", str(corpus), "--out", str(tmp_path / "m.stae"),
                "--epochs", "0")
        assert r.returncode == 2
        assert "epochs" in r.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1"), ("--lr", "nan"), ("--batch-size", "0"),
        ("--logit-clamp", "0"), ("--logit-clamp", "0.5"), ("--logit-clamp", "0.7"),
        ("--logit-clamp", "-1"), ("--logit-clamp", "nan"), ("--lr", "inf"), ("--epochs", "inf"),
        ("--seed", "-1"),
    ])
    def test_out_of_range_flag_exits_2(self, corpus, tmp_path, flag, value):
        out = tmp_path / "m.stae"
        r = run("train-ae", "--corpus", str(corpus), "--out", str(out), flag, value)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert f"error: argument {flag}: " in r.stderr
        assert list(tmp_path.iterdir()) == []

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

    def test_reads_only_the_clean_streams(self, corpus, tmp_path, monkeypatch):
        reads = []
        read_stream = storage.read_stream

        def counted(path):
            reads.append(path.name)
            return read_stream(path)

        monkeypatch.setattr(storage, "read_stream", counted)
        rc = cli.main(["train-ae", "--corpus", str(corpus), "--out", str(tmp_path / "m.stae"),
                       "--epochs", "1"])
        assert rc == 0
        assert len(reads) == len(experiments.load_corpus(corpus))
        assert sorted(reads) == sorted(p.name for p in corpus.glob("*_clean.strm"))

    def test_off_simplex_clean_payload_exits_3(self, corpus, tmp_path):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        path = copy / "utt0003_clean.strm"
        data = bytearray(path.read_bytes())
        first = struct.calcsize("<4sHIIIiB")  # row 0, class 0
        data[first : first + 4] = struct.pack("<f", 2.0)
        path.write_bytes(bytes(data))
        out = tmp_path / "m.stae"
        r = run("train-ae", "--corpus", str(copy), "--out", str(out))
        assert r.returncode == 3
        assert "utt 3: utt0003_clean.strm" in r.stderr and "row 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    def test_missing_corpus_exits_3(self, tmp_path):
        r = run("train-ae", "--corpus", str(tmp_path / "nope"),
                "--out", str(tmp_path / "m.stae"))
        assert r.returncode == 3

    def test_one_frame_corpus_exits_3_without_a_warning(self, tmp_path):
        # One frame gives a covariance of rank 0, refused before it is formed.
        corpus = tmp_path / "corpus"
        r = run("simulate", "--out", str(corpus), "--scenario", "hrm_like", "--streams", "2",
                "--utterances", "1", "--seed", "1", "--frames-min", "1", "--frames-max", "1")
        assert r.returncode == 0, r.stderr
        out = tmp_path / "m.stae"
        r = run("train-ae", "--corpus", str(corpus), "--out", str(out))
        assert r.returncode == 3
        assert r.stderr == "error: covariance rank below K=40: N=1 rows\n"
        assert not out.exists()

    def test_diverging_training_exits_4_without_a_warning(self, tmp_path):
        # At the default learning rate this corpus's loss overflows to nan.
        corpus = tmp_path / "corpus"
        r = run("simulate", "--out", str(corpus), "--scenario", "hrm_like", "--streams", "3",
                "--utterances", "4", "--seed", "1", "--classes", "8", "--frames-min", "60",
                "--frames-max", "70")
        assert r.returncode == 0, r.stderr
        out = tmp_path / "m.stae"
        r = run("train-ae", "--corpus", str(corpus), "--out", str(out))
        assert r.returncode == 4
        assert r.stderr == "error: training loss became nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("context", ["-4,4", "abc"])
    def test_context_without_splice_plan_exits_2(self, corpus, tmp_path, source, context):
        args = ["train-ae", "--corpus", str(corpus), "--out", str(tmp_path / "m.stae")]
        if source == "flag":
            args += ["--context", context]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"context={context}\n")
            args += ["--config", str(cfg)]
        r = run(*args)
        assert r.returncode == 2
        assert "-16,12" in r.stderr  # names the available contexts
        assert "Traceback" not in r.stderr


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
        oracle = experiments.load_corpus(corpus)[0].oracle_stream
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

    # A flag the resolved frame-wise method would not read, or an
    # autoencoder without its model.  The model file is never opened.
    @pytest.mark.parametrize("flags, expected", [
        (["--method", "entropy", "--window", "60"], "argument --window: the entropy method"),
        (["--method", "entropy", "--window", "60", "--base", "m_measure", "--model", "m.stae"],
         "argument --base: only the max_n method reads it"),
        (["--method", "max_n", "--window", "60"], "argument --window: the entropy method"),
        (["--method", "max_n", "--base", "oracle", "--model", "m.stae"],
         "argument --model: the oracle method"),
        (["--method", "autoencoder", "--window", "60", "--model", "m.stae"],
         "argument --window: the autoencoder method"),
        (["--method", "autoencoder"], "argument --model: the autoencoder method needs it"),
        (["--method", "max_n", "--base", "autoencoder", "--n", "2"],
         "argument --model: the autoencoder method needs it"),
    ], ids=["window", "repro", "max_n window", "max_n model", "ae window", "ae no model",
            "max_n ae no model"])
    def test_flag_the_method_does_not_read_exits_2(self, corpus, tmp_path, flags, expected):
        out = tmp_path / "x"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out), *flags)
        assert r.returncode == 2
        assert r.stderr.startswith("usage: streamfuse fuse")
        assert f"error: {expected}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    # The corpus has 3 streams; the M-measure spans need a window >= 51.
    # m_measure reads neither --base nor a model.
    @pytest.mark.parametrize("flag, value", [
        ("--window", "abc"), ("--window", "0"), ("--window", "50"),
        ("--n", "abc"), ("--n", "0"), ("--n", "4"), ("--base", "m_measure"), ("--model", "m.stae"),
    ])
    def test_bad_flag_value_exits_2(self, corpus, tmp_path, flag, value):
        out = tmp_path / "x"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out), "--method", "m_measure",
                flag, value)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("usage: streamfuse fuse")
        assert f"error: argument {flag}: " in r.stderr
        assert not out.exists()

    # An edit "key=old→new" (or "key:old→new") replaces the first key=old of
    # the manifest by key=new; both values are in range.  The manifest must
    # be the bytes simulate writes, so reordered fields, a comment or a blank
    # line contradict the corpus too.
    @pytest.mark.parametrize("edit", ["oracle=99", "oracle=-1", "frames=3", "profiles",
                                      "stream T", "stream C", "off", "stream off", "empty",
                                      "repeat", "ref", "ref label", "ref huge label",
                                      "clean off", "oracle twice", "lam twice", "oracle=0→2",
                                      "lam:0.05→0.5", "fields reordered", "comment line",
                                      "blank line"])
    def test_manifest_contradicting_corpus_exits_3(self, corpus, tmp_path, edit):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        manifest = copy / "manifest.txt"
        first, *rest = manifest.read_text().splitlines()
        if edit.endswith(" off"):
            path = copy / ("utt0000_clean.strm" if edit == "clean off" else "utt0000_s01.strm")
            storage.write_stream(dataclasses.replace(storage.read_stream(path), frame_offset=3),
                                 path)
        elif edit.startswith("stream"):
            # One frame short of the manifest's frames, or one class more
            # than hmm.json's states.
            path = copy / "utt0000_s01.strm"
            s = storage.read_stream(path)
            probs = s.probs[:-1] if edit == "stream T" else np.pad(s.probs, ((0, 0), (0, 1)))
            storage.write_stream(dataclasses.replace(s, probs=probs), path)
        elif edit == "profiles":
            first = first.rsplit(";", 1)[0]  # drop the last stream's profile
        elif edit == "off":
            # Stream 1's profile one frame later than its header's frame_offset.
            head, profiles = first.split("profiles=")
            profiles = profiles.split(";")
            rest_of_profile, off = profiles[1].rsplit("off:", 1)
            profiles[1] = f"{rest_of_profile}off:{int(off) + 1}"
            first = head + "profiles=" + ";".join(profiles)
        elif edit == "repeat":
            rest[0] = first  # utt 0's record twice, utt 1's none
        elif edit == "oracle twice":
            first = re.sub(r"\boracle=\S+", lambda m: f"{m[0]} {m[0]}", first)
        elif edit == "lam twice":
            first = re.sub(r"profiles=(lam:[^,]+),", r"profiles=\1,\1,", first)
        elif "→" in edit:
            key, old, new = re.fullmatch(r"(\w+[=:])(.+)→(.+)", edit).groups()
            first = first.replace(key + old, key + new, 1)
        elif edit == "ref":
            (copy / "utt0000.ref").write_text("0 1 x\n")
        elif edit == "ref label":
            # The right count of labels, every one outside the 6 HMM states.
            ref = copy / "utt0000.ref"
            ref.write_text(" ".join("99" for _ in ref.read_text().split()) + "\n")
        elif edit == "ref huge label":
            # The right count of labels, the first too large for an intp.
            ref = copy / "utt0000.ref"
            _, *labels = ref.read_text().split()
            ref.write_text(" ".join(["9" * 30, *labels]) + "\n")
        elif edit == "fields reordered":
            utt, frames, tail = first.split(" ", 2)
            first = f"{frames} {utt} {tail}"
        elif edit == "comment line":
            first, rest = "# x", [first, *rest]
        elif edit == "blank line":
            rest = ["", *rest]
        elif edit != "empty":
            key = edit.split("=")[0]
            first = re.sub(rf"\b{key}=\S+", edit, first)
        manifest.write_text("" if edit == "empty" else "\n".join([first, *rest]) + "\n")
        out = tmp_path / "x"
        r = run("fuse", "--corpus", str(copy), "--out", str(out), "--method", "oracle")
        assert r.returncode == 3
        expected = {
            "stream T": "utt 0:",
            "stream C": "utt 0:",
            "stream off": "utt 0: utt0000_s01.strm has frame_offset 3, not 1",
            "ref": "utt0000.ref: invalid literal",
            "ref label": "utt0000.ref: label 99 is not in [0, 6)",
            "ref huge label": "utt0000.ref: Python int too large",
            "clean off": "utt 0: utt0000_clean.strm has frame_offset 3, not 0",
        }
        mismatch = f"error: {manifest} is not the manifest {copy / 'corpus.cfg'} gives\n"
        assert expected.get(edit, mismatch) in r.stderr
        if edit.startswith("stream"):
            assert "utt0000_s01.strm" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    def test_off_simplex_payload_in_last_utterance_exits_3(self, corpus, tmp_path):
        # Headers are checked at load, payloads as each utterance is taken:
        # the error comes after earlier utterances were fused, and fuse.cfg,
        # written last, must not appear.
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        path = copy / "utt0003_s02.strm"
        data = bytearray(path.read_bytes())
        first = struct.calcsize("<4sHIIIiB")  # row 0, class 0
        data[first : first + 4] = struct.pack("<f", 2.0)
        path.write_bytes(bytes(data))
        out = tmp_path / "x"
        r = run("fuse", "--corpus", str(copy), "--out", str(out), "--method", "entropy")
        assert r.returncode == 3
        assert "utt 3: utt0003_s02.strm" in r.stderr and "row 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert (out / "utt0000_fused.strm").exists()
        assert not (out / "fuse.cfg").exists()

    def test_failed_rerun_removes_the_old_fuse_cfg(self, corpus, fused_entropy, tmp_path):
        # An equal-weight rerun into an entropy output that stops at utterance
        # 3 has overwritten utterances 0-2: the old fuse.cfg must not vouch
        # for the mix.
        out = tmp_path / "f"
        shutil.copytree(fused_entropy, out)
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        path = copy / "utt0003_s01.strm"
        data = bytearray(path.read_bytes())
        first = struct.calcsize("<4sHIIIiB")  # row 0, class 0
        data[first : first + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(data))
        r = run("fuse", "--corpus", str(copy), "--out", str(out), "--method", "equal")
        assert r.returncode == 3
        assert not (out / "fuse.cfg").exists()
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(out))
        assert r.returncode == 3
        assert f"{out}: no fuse.cfg, so not a complete fuse output" in r.stderr
        assert not report.exists()

    def test_autoencoder_with_model(self, corpus, model, tmp_path):
        out = tmp_path / "ae"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out),
                "--method", "autoencoder", "--model", str(model))
        assert r.returncode == 0, r.stderr
        assert len(list(out.glob("*_fused.strm"))) == 4

    @pytest.mark.parametrize("name", ["utt0002_clean.strm", "utt0002_s01.strm", "utt0002.ref",
                                      "manifest.txt", "hmm.json"])
    def test_incomplete_corpus_names_the_missing_file(self, corpus, model, tmp_path, name):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        (copy / name).unlink()
        out = tmp_path / "ae"
        r = run("fuse", "--corpus", str(copy), "--out", str(out),
                "--method", "autoencoder", "--model", str(model))
        assert r.returncode == 3
        assert f"{copy}: no {name}, so the corpus is incomplete" in r.stderr
        assert "Errno" not in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    def test_unknown_method_exits_2(self, corpus, tmp_path):
        r = run("fuse", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                "--method", "bogus")
        assert r.returncode == 2

    def test_unknown_base_exits_2(self, corpus, tmp_path):
        r = run("fuse", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                "--method", "max_n", "--base", "nonsense")
        assert r.returncode == 2
        assert "--base" in r.stderr

    def test_max_n_base_exits_2(self, corpus, tmp_path):
        r = run("fuse", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
                "--method", "max_n", "--base", "max_n")
        assert r.returncode == 2

    def test_config_base_outside_choices_exits_2(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base=nonsense\n")
        r = run("fuse", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(tmp_path / "x"), "--method", "max_n")
        assert r.returncode == 2
        assert "nonsense" in r.stderr

    def test_config_hash_covers_window_and_model(self, corpus, model, tmp_path):
        other = tmp_path / "other.stae"
        perturbed = storage.read_model(model)
        perturbed.layers[0].bias[0] += 1e-9
        storage.write_model(perturbed, other)
        # m_measure reads the window; its spans need >= 51 aligned frames.
        long_corpus = tmp_path / "long"
        flags = [*SIM_FLAGS]
        flags[flags.index("--frames-min") + 1], flags[flags.index("--frames-max") + 1] = "70", "80"
        assert run("simulate", "--out", str(long_corpus), *flags).returncode == 0
        runs = {
            "window 60": ["--method", "m_measure", "--window", "60"],
            "window 70": ["--method", "m_measure", "--window", "70"],
            "model": ["--method", "autoencoder", "--model", str(model)],
            "other model": ["--method", "autoencoder", "--model", str(other)],
        }
        hashes = {}
        for name, flags in runs.items():
            out = tmp_path / name.replace(" ", "_")
            source = long_corpus if name.startswith("window") else corpus
            r = run("fuse", "--corpus", str(source), "--out", str(out), *flags)
            assert r.returncode == 0, r.stderr
            cfg = dict(ln.split("=", 1) for ln in (out / "fuse.cfg").read_text().split())
            hashes[name] = cfg["config_hash"]
        assert hashes["window 60"] != hashes["window 70"]
        assert hashes["model"] != hashes["other model"]

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

    def test_non_finite_model_exits_3_before_writing(self, corpus, model, tmp_path):
        bad = storage.read_model(model)
        bad.layers[0].bias[0] = np.nan
        path = tmp_path / "nan.stae"
        storage.write_model(bad, path)
        out = tmp_path / "ae"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out),
                "--method", "autoencoder", "--model", str(path))
        assert r.returncode == 3
        assert "layer 0 bias: non-finite values" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    # Layer weight shapes over a C=6, K=4 front end that do not map K
    # features back to K, and the error each must give.
    @pytest.mark.parametrize("shapes, message", [
        ([], "model has no layers"),
        ([(4, 8), (5, 4)], "layer 1: fan_in 5 is not input width 8 x offset count 1"),
        ([(4, 1)], "layer 0: width 1 is not the front end's K=4"),
    ], ids=["no layers", "broken chain", "last width 1"])
    def test_unchained_model_exits_3_before_writing(self, corpus, tmp_path, shapes, message):
        front_end = aemonitor.FrontEnd(pca_mean=np.zeros(6), pca_basis=np.eye(6)[:, :4])
        layers = [aemonitor.Layer(np.ones(s), np.zeros(s[1]), "relu") for s in shapes]
        path = tmp_path / "unchained.stae"
        storage.write_model(aemonitor.AeModel(front_end, layers, (0, 0)), path)
        out = tmp_path / "ae"
        r = run("fuse", "--corpus", str(corpus), "--out", str(out),
                "--method", "autoencoder", "--model", str(path))
        assert r.returncode == 3
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fuse", "evaluate"])
    @pytest.mark.parametrize("a_dir", [False, True], ids=["no path", "a directory"])
    def test_model_path_that_is_not_a_file_exits_3(self, corpus, tmp_path, command, a_dir):
        path = tmp_path / "m.stae"
        if a_dir:
            path.mkdir()
        out = tmp_path / "out"
        argv = {"fuse": ["--method", "autoencoder"],
                "evaluate": ["--sweep", "--method", "autoencoder"]}[command]
        r = run(command, "--corpus", str(corpus), "--out", str(out), "--model", str(path), *argv)
        assert r.returncode == 3
        assert f"error: {tmp_path}: no m.stae, so there is no model to read\n" in r.stderr
        assert "Errno" not in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fuse", "evaluate"])
    def test_model_of_another_class_count_exits_3_before_writing(self, corpus, tmp_path,
                                                                  command):
        # A model that chains right over C=4 classes; the corpus has 6.
        front_end = aemonitor.FrontEnd(pca_mean=np.zeros(4), pca_basis=np.eye(4)[:, :2])
        layers = [aemonitor.Layer(np.ones((2, 2)), np.zeros(2), "linear")]
        path = tmp_path / "c4.stae"
        storage.write_model(aemonitor.AeModel(front_end, layers, (0, 0)), path)
        out = tmp_path / "out"
        if command == "fuse":
            argv = ["fuse", "--out", str(out), "--method", "autoencoder"]
        else:
            argv = ["evaluate", "--out", str(out), "--sweep", "--method", "autoencoder"]
        r = run(*argv, "--corpus", str(corpus), "--model", str(path))
        assert r.returncode == 3
        assert f"error: {path}: the model has 4 classes, the corpus 6\n" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()


class TestOutPath:
    """An --out path that a step could not write is refused before any work."""

    @pytest.mark.parametrize("command, kind", [
        ("simulate", "a file"),
        ("train-ae", "a directory"),
        ("train-ae", "no parent"),
        ("train-ae", "loss log a directory"),
        ("fuse", "a file"),
        ("fuse", "under a file"),
        ("evaluate", "a directory"),
        ("evaluate", "no parent"),
    ])
    def test_unwritable_out_exits_3_before_the_corpus_is_read(self, corpus, tmp_path,
                                                             monkeypatch, capsys, command,
                                                             kind):
        blocker = tmp_path / "x"
        if kind == "a directory":
            blocker.mkdir()
            out, message = blocker, f"{blocker}: is a directory, not a file to write"
        elif kind == "no parent":
            out = blocker / "out"
            message = f"{out}: {blocker} is not a directory"
        elif kind == "loss log a directory":
            out, blocker = tmp_path / "m.stae", tmp_path / "m.stae.loss"
            blocker.mkdir()
            message = f"{blocker}: is a directory, not a file to write"
        else:
            blocker.write_text("kept")
            out = blocker / "out" if kind == "under a file" else blocker
            message = f"{out}: {blocker} is not a directory"
        calls = []
        monkeypatch.setattr(experiments, "load_corpus", lambda *a: calls.append(a))
        monkeypatch.setattr(experiments, "write_corpus", lambda *a: calls.append(a))
        argv = {"simulate": SIM_FLAGS, "fuse": ["--method", "entropy"]}.get(command, [])
        if command != "simulate":
            argv = ["--corpus", str(corpus), *argv]
        rc = cli.main([command, "--out", str(out), *argv])
        assert (rc, *capsys.readouterr(), calls) == (3, "", f"error: {message}\n", [])
        want = [] if kind == "no parent" else [blocker.name]
        assert [p.name for p in tmp_path.rglob("*")] == want
        if blocker.is_file():
            assert blocker.read_text() == "kept"


class TestEvaluate:
    def test_fused_dir_without_a_fused_stream_exits_3(self, corpus, fused_entropy, tmp_path):
        fused = tmp_path / "f"
        shutil.copytree(fused_entropy, fused)
        (fused / "utt0001_fused.strm").unlink()
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(fused))
        assert r.returncode == 3
        assert f"{fused}: no utt0001_fused.strm, so the fuse output is incomplete" in r.stderr
        assert "Errno" not in r.stderr and "Traceback" not in r.stderr
        assert not report.exists()

    @pytest.mark.parametrize("command", ["fuse", "evaluate", "train-ae"])
    @pytest.mark.parametrize("a_file", [False, True], ids=["no path", "a file"])
    def test_corpus_path_without_corpus_cfg_exits_3(self, tmp_path, command, a_file):
        nothere = tmp_path / "nothere"
        if a_file:
            nothere.write_text("")
        out = tmp_path / "out"
        argv = {"fuse": ["--method", "equal"], "evaluate": [], "train-ae": []}[command]
        r = run(command, "--corpus", str(nothere), "--out", str(out), *argv)
        assert r.returncode == 3
        assert f"{nothere}: no corpus.cfg, so not a corpus directory" in r.stderr
        assert "Errno" not in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("name, so", [
        ("corpus.cfg", "not a corpus directory"),
        ("hmm.json", "the corpus is incomplete"),
    ])
    def test_corpus_file_that_is_a_directory_exits_3(self, corpus, tmp_path, name, so):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        (copy / name).unlink()
        (copy / name).mkdir()
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(copy), "--out", str(report))
        assert r.returncode == 3
        assert f"{copy}: no {name}, so {so}" in r.stderr
        assert "Errno" not in r.stderr and "Traceback" not in r.stderr
        assert not report.exists()

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

    def test_sweep_unknown_method_exits_2(self, corpus, tmp_path):
        r = run("evaluate", "--corpus", str(corpus), "--out", str(tmp_path / "r.tsv"),
                "--sweep", "--method", "nonsense")
        assert r.returncode == 2

    def test_sweep_requires_method(self, corpus, tmp_path):
        r = run("evaluate", "--corpus", str(corpus), "--out", str(tmp_path / "r.tsv"),
                "--sweep")
        assert r.returncode == 2

    @pytest.mark.parametrize("flag, value", [("--method", "entropy"),
                                             ("--model", "nonexistent.stae")])
    def test_sweep_flag_without_sweep_exits_2(self, corpus, tmp_path, flag, value):
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), flag, value)
        assert r.returncode == 2
        assert f"{flag} requires --sweep" in r.stderr
        assert not report.exists()

    @pytest.mark.parametrize("method, model, expected", [
        ("entropy", "nonexistent.stae", "argument --model: the entropy method"),
        ("max_n", "nonexistent.stae", "argument --model: the entropy method"),
        ("autoencoder", None, "argument --model: the autoencoder method needs it"),
    ], ids=["entropy model", "max_n model", "ae no model"])
    def test_sweep_model_the_method_does_not_read_exits_2(self, corpus, tmp_path, method,
                                                          model, expected):
        report = tmp_path / "r.tsv"
        flags = [] if model is None else ["--model", model]
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--sweep",
                "--method", method, *flags)
        assert r.returncode == 2
        assert f"error: {expected}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not report.exists()

    def test_nothing_to_score_exits_2(self, tmp_path):
        # The corpus does not exist: the usage error comes before it is read.
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(tmp_path / "nope"), "--out", str(report),
                "--no-baselines")
        assert r.returncode == 2
        assert "nothing to score" in r.stderr
        assert not report.exists()

    def test_config_fused_dir(self, corpus, tmp_path):
        fused = tmp_path / "equal"
        run("fuse", "--corpus", str(corpus), "--out", str(fused), "--method", "equal")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fused={fused}\nno_baselines=1\n")
        report = tmp_path / "report.tsv"
        r = run("evaluate", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(report))
        assert r.returncode == 0, r.stderr
        systems = [line.split("\t")[0] for line in report.read_text().splitlines()[2:]]
        assert systems == ["equal"]

    def test_config_fused_lines_accumulate_before_flags(self, corpus, tmp_path):
        dirs = {}
        for method in ("equal", "entropy", "max_n"):
            dirs[method] = tmp_path / method
            r = run("fuse", "--corpus", str(corpus), "--out", str(dirs[method]),
                    "--method", method)
            assert r.returncode == 0, r.stderr
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fused={dirs['equal']}\nno_baselines=1\nfused={dirs['entropy']}\n")
        report = tmp_path / "report.tsv"
        r = run("evaluate", "--fused", str(dirs["max_n"]), "--config", str(cfg),
                "--corpus", str(corpus), "--out", str(report))
        assert r.returncode == 0, r.stderr
        systems = [line.split("\t")[0] for line in report.read_text().splitlines()[2:]]
        assert systems == ["equal", "entropy", "max_n"]

    @pytest.mark.parametrize("value, baselines", [("0", True), ("false", True),
                                                  ("true", False), ("1", False)])
    def test_config_store_true_values(self, corpus, tmp_path, value, baselines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_baselines={value}\nsweep=1\nmethod=equal\n")
        report = tmp_path / "report.tsv"
        r = run("evaluate", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(report))
        assert r.returncode == 0, r.stderr
        systems = [line.split("\t")[0] for line in report.read_text().splitlines()[2:]]
        assert ("clean" in systems) == baselines
        assert "equal:n=1" in systems

    def test_config_store_true_bad_value_exits_2(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_baselines=maybe\n")
        r = run("evaluate", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(tmp_path / "r.tsv"))
        assert r.returncode == 2
        assert "maybe" in r.stderr

    def test_fused_dir_from_another_corpus_exits_3(self, corpus, tmp_path):
        other = tmp_path / "other"
        flags = [*SIM_FLAGS]
        flags[flags.index("--seed") + 1] = "6"
        assert run("simulate", "--out", str(other), *flags).returncode == 0
        fused = tmp_path / "entropy"
        r = run("fuse", "--corpus", str(other), "--out", str(fused), "--method", "entropy")
        assert r.returncode == 0, r.stderr
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(fused))
        assert r.returncode == 3
        assert str(fused / "fuse.cfg") in r.stderr and "corpus_hash" in r.stderr
        assert "Traceback" not in r.stderr
        assert not report.exists()

    def test_fuse_cfg_n_above_the_stream_count_exits_3(self, corpus, tmp_path):
        # fuse refuses --n 4 on this 3-stream corpus; a fuse.cfg rehashed
        # to say it is refused too, before any report row is scored.
        fused = tmp_path / "max_n"
        r = run("fuse", "--corpus", str(corpus), "--out", str(fused), "--method", "max_n",
                "--n", "3")
        assert r.returncode == 0, r.stderr
        pairs = dict(experiments.read_config_pairs(fused / "fuse.cfg"))
        del pairs["config_hash"]
        experiments.write_config({**pairs, "n": 4}, fused / "fuse.cfg")
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(fused))
        assert r.returncode == 3
        assert r.stderr == f"error: {fused / 'fuse.cfg'}: n=4 is not a finite number in [1, 3]\n"
        assert not report.exists()

    def test_fused_stream_of_wrong_shape_exits_3(self, corpus, tmp_path):
        fused = tmp_path / "equal"
        r = run("fuse", "--corpus", str(corpus), "--out", str(fused), "--method", "equal")
        assert r.returncode == 0, r.stderr
        path = fused / "utt0002_fused.strm"
        s = storage.read_stream(path)
        storage.write_stream(dataclasses.replace(s, probs=s.probs[:-1]), path)
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(fused))
        assert r.returncode == 3
        assert f"{fused}: utt 2: utt0002_fused.strm holds" in r.stderr
        assert "Traceback" not in r.stderr
        assert not report.exists()

    def test_fused_stream_off_the_time_base_exits_3(self, corpus, tmp_path):
        fused = tmp_path / "equal"
        r = run("fuse", "--corpus", str(corpus), "--out", str(fused), "--method", "equal")
        assert r.returncode == 0, r.stderr
        path = fused / "utt0002_fused.strm"
        storage.write_stream(dataclasses.replace(storage.read_stream(path), frame_offset=3), path)
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(fused))
        assert r.returncode == 3
        assert f"{fused}: utt 2: utt0002_fused.strm has frame_offset 3, not 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert not report.exists()

    def test_fused_dir_without_fuse_cfg_exits_3(self, corpus, tmp_path):
        fused = tmp_path / "equal"
        r = run("fuse", "--corpus", str(corpus), "--out", str(fused), "--method", "equal")
        assert r.returncode == 0, r.stderr
        (fused / "fuse.cfg").unlink()
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(fused))
        assert r.returncode == 3
        assert f"{fused}: no fuse.cfg, so not a complete fuse output" in r.stderr
        assert "Errno" not in r.stderr and "Traceback" not in r.stderr
        assert not report.exists()

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

    # The last case is the hmm.json of a valid 6-state HMM of another seed.
    @pytest.mark.parametrize("text", [
        '{"priors": [1]}',
        "[1, 2]",
        '{"transitions": 5, "priors": [1], "labels": ["a"]}',
        '{"transitions": [[1]], "priors": [1], "labels": 5}',
        '{"transitions": [[1]], "priors": [1], "labels": ["a"], "x": 1}',
        '{"transitions": [[NaN, 1], [0.5, 0.5]], "priors": [NaN, 0.5], "labels": ["a", "b"]}',
        '{"transitions": [[1.42, -0.42], [0.5, 0.5]], "priors": [0.5, 0.5], "labels": ["a", "b"]}',
        '{"transitions": [[1, 0], [0, 1]], "priors": [0.5, 0.6], "labels": ["a", "b"]}',
        _hmm_json_text(make_hmm(6, 6)),
    ], ids=["no transitions", "list", "scalar transitions", "scalar labels", "unknown key",
            "nan", "negative", "priors sum", "another seed"])
    def test_bad_hmm_json_exits_3(self, corpus, tmp_path, text):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        (copy / "hmm.json").write_text(text)
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(copy), "--out", str(report))
        assert r.returncode == 3
        assert r.stderr == (
            f"error: {copy / 'hmm.json'} is not the JSON of the HMM {copy / 'corpus.cfg'} gives\n"
        )
        assert not report.exists()

    # Each case drops the lines that start with drop (none when it is
    # empty), appends the lines of add and names key in its error; rehash
    # rewrites config_hash as the hash of the edited keys.
    @pytest.mark.parametrize("drop, add, rehash, key", [
        ("streams=", [], False, "streams"),
        ("streams=", ["streams=abc"], False, "streams"),
        ("", ["streams=3"], False, "streams"),
        ("config_hash=", ["config_hash=0000"], False, "config_hash"),
        ("config_hash=", [], False, "config_hash"),
        ("config_hash=", ["cnfig_hash=1"], False, "cnfig_hash"),
        ("", ["base4=1"], False, "base4"),
        ("scenario=", ["scenario=custom"], True, "custom"),
    ], ids=["missing", "streams=abc", "streams twice", "config_hash=0000", "no config_hash",
            "cnfig_hash=1", "base4=1", "scenario=custom rehashed"])
    def test_bad_corpus_cfg_exits_3(self, corpus, tmp_path, drop, add, rehash, key):
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        cfg = copy / "corpus.cfg"
        lines = [ln for ln in cfg.read_text().splitlines() if not (drop and ln.startswith(drop))]
        _write_cfg_lines(cfg, [*lines, *add], rehash)
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(copy), "--out", str(report))
        assert r.returncode == 3
        assert f"{cfg}: " in r.stderr and f"'{key}'" in r.stderr
        assert "Traceback" not in r.stderr
        assert not report.exists()

    # As for corpus.cfg; a rehashed edit is left to the checks of the values.
    @pytest.mark.parametrize("drop, add, rehash, key", [
        ("method=", ["method=bogus"], False, "'config_hash'"),
        ("method=", ["method=bogus"], True, "unknown fusion method 'bogus'"),
        ("config_hash=", ["config_hash=0000"], False, "'config_hash'"),
        ("config_hash=", [], False, "'config_hash'"),
        ("config_hash=", ["cnfig_hash=1"], False, "'cnfig_hash'"),
        ("", ["base4=1"], False, "'base4'"),
        ("", ["n="], False, "'n'"),
        ("n=", ["n=abc"], True, "bad value 'abc' for key 'n'"),
        ("base=", ["base=m_measure"], True, "base: only the max_n method reads it"),
    ], ids=["method=bogus", "method=bogus rehashed", "config_hash=0000", "no config_hash",
            "cnfig_hash=1", "base4=1", "n twice", "n=abc rehashed", "base=m_measure rehashed"])
    def test_bad_fuse_cfg_exits_3(self, corpus, fused_entropy, tmp_path, drop, add, rehash,
                                  key):
        fused = tmp_path / "entropy"
        shutil.copytree(fused_entropy, fused)
        cfg = fused / "fuse.cfg"
        lines = [ln for ln in cfg.read_text().splitlines() if not (drop and ln.startswith(drop))]
        _write_cfg_lines(cfg, [*lines, *add], rehash)
        report = tmp_path / "r.tsv"
        r = run("evaluate", "--corpus", str(corpus), "--out", str(report), "--fused", str(fused))
        assert r.returncode == 3
        assert f"{cfg}: " in r.stderr and key in r.stderr
        assert "Traceback" not in r.stderr
        assert not report.exists()


def _write_cfg_lines(cfg, lines, rehash):
    """lines as the text of cfg; with rehash, its config_hash is made the hash of
    the other lines."""
    if rehash:
        pairs = dict(ln.split("=", 1) for ln in lines if not ln.startswith("config_hash="))
        experiments.write_config(pairs, cfg)
    else:
        cfg.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def mutable_copy(corpus, fused_entropy, tmp_path_factory):
    """A copy of the corpus and of its entropy fused dir, and the bytes of
    the evaluate report that scores both."""
    root = tmp_path_factory.mktemp("cli-mutate")
    shutil.copytree(corpus, root / "corpus")
    shutil.copytree(fused_entropy, root / "fused")
    rc, err = _evaluate_in_process(root, root / "want.tsv")
    assert rc == 0, err
    return root, (root / "want.tsv").read_bytes()


def _evaluate_in_process(root, report) -> tuple[int, str]:
    """cli.main's exit code and stderr for evaluate --fused on mutable_copy's root."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["evaluate", "--corpus", str(root / "corpus"), "--out", str(report),
                       "--fused", str(root / "fused")])
    return rc, err.getvalue()


# One character of one text file the evaluate step reads, replaced.  An
# exception out of cli.main (a traceback from the command line) fails the
# test, and so does any exit but 0 or 3.  Exit 3 must come before the
# report is written, and exit 0 must give the unmutated report unless the
# labels changed.  manifest.txt and hmm.json are checked byte for byte, so
# any change to either must exit 3.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(("corpus.cfg", "manifest.txt", "hmm.json", "utt0001.ref", "fuse.cfg")),
    char=st.sampled_from("0123456789.-+eE=:;,_ \nabflnrstu#[]{}\""),
    data=st.data(),
)
def test_one_character_edit_exits_0_with_the_same_report_or_3(mutable_copy, name, char, data):
    root, want = mutable_copy
    path = root / ("fused" if name == "fuse.cfg" else "corpus") / name
    text = path.read_text()
    at = data.draw(st.integers(0, len(text) - 1), label="at")
    report = root / "report.tsv"
    report.unlink(missing_ok=True)
    mutated = text[:at] + char + text[at + 1 :]
    path.write_text(mutated)
    try:
        rc, err = _evaluate_in_process(root, report)
    finally:
        path.write_text(text)
    assert rc in (0, 3), err
    if name in ("manifest.txt", "hmm.json") and mutated != text:
        assert rc == 3, err
    if rc == 3:
        assert err.startswith("error: ") and not report.exists()
    elif name != "utt0001.ref":
        assert report.read_bytes() == want


@pytest.fixture(scope="module")
def short_corpus(tmp_path_factory):
    """hrm_like, 4 streams x 3 utterances x 8 classes of 40-60 frames: utterance 1
    aligns to 39 frames, too few for the M-measure's longest span, 50."""
    out = tmp_path_factory.mktemp("cli-short") / "corpus"
    r = run("simulate", "--out", str(out), "--scenario", "hrm_like", "--streams", "4",
            "--utterances", "3", "--seed", "5", "--classes", "8", "--frames-min", "40",
            "--frames-max", "60")
    assert r.returncode == 0, r.stderr
    return out


@pytest.mark.parametrize("argv, scope", [
    (["fuse", "--out", "f", "--method", "m_measure", "--window", "60"], "window=60"),
    (["evaluate", "--out", "r.tsv", "--sweep", "--method", "m_measure"], "over the utterance"),
], ids=["fuse", "evaluate sweep"])
def test_window_too_short_names_utterance_and_settings(short_corpus, tmp_path, argv, scope):
    r = run(*argv, "--corpus", str(short_corpus), cwd=tmp_path)
    assert r.returncode == 3
    assert r.stderr == (
        "error: utt 1: window of 39 frames cannot host span 50 "
        f"(M-measure {scope}, spans=5,10,20,30,40,50)\n"
    )


class TestParser:
    def test_defaults_are_the_library_values(self, capsys):
        parse = cli.build_parser().parse_args
        sim = parse(["simulate", "--out", "c", "--scenario", "ldc_like", "--streams", "2",
                     "--utterances", "1", "--seed", "0"])
        for key in ("alpha_true", "alpha_other", "conf_prob", "conf_len"):
            library = getattr(simulator.CorpusSpec, key)
            assert getattr(sim, key) == library
            assert type(getattr(sim, key)) is type(library)

        train = parse(["train-ae", "--corpus", "c", "--out", "m"])
        cfg = aemonitor.TrainConfig()
        for flag, library in [(train.epochs, cfg.epochs), (train.lr, cfg.learning_rate),
                              (train.batch_size, cfg.batch_size), (train.seed, cfg.seed),
                              (train.logit_clamp, aemonitor.DEFAULT_LOGIT_CLAMP)]:
            assert flag == library and type(flag) is type(library)
        assert train.context == (0, 0)

        # --base defaults to the library's default base, named in --help.
        base = inspect.signature(experiments.fuse_corpus).parameters["base"].default
        assert base == experiments.DEFAULT_BASE
        with pytest.raises(SystemExit):
            parse(["fuse", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"base method for max_n (default: {base})" in help_text


_FUSE_KEYS = ("corpus", "out", "method", "model", "n", "base", "window", "no_such_key", "")
_VALUE = st.text(st.characters(blacklist_characters="\n\r#", blacklist_categories=("Cs",)),
                 max_size=6)
_NUMBER = st.one_of(st.none(), st.integers(-2, 120).map(str), _VALUE)


@settings(max_examples=40, deadline=None)
@given(
    method=st.sampled_from(experiments.FUSION_METHODS + ("junk",)),
    base=st.one_of(st.none(), st.sampled_from(experiments.FUSION_METHODS)),
    n=_NUMBER,
    window=_NUMBER,
    lines=st.lists(st.tuples(st.sampled_from(_FUSE_KEYS), _VALUE), max_size=4),
)
def test_fuse_exits_with_a_documented_code(corpus, tmp_path_factory, method, base, n,
                                           window, lines):
    tmp = tmp_path_factory.getbasetemp() / "fuse-property"
    tmp.mkdir(exist_ok=True)
    cfg = tmp / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in lines), encoding="utf-8")
    argv = ["fuse", "--config", str(cfg), "--corpus", str(corpus), "--out", str(tmp / "out"),
            "--method", method]
    for flag, value in (("--base", base), ("--n", n), ("--window", window)):
        if value is not None:
            argv += [flag, value]
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        assert e.code == 2
    else:
        assert rc in (0, 3, 4)
