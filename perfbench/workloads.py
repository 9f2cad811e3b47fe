"""Workload definitions for the streamfuse benchmark and their predicted counts.

A workload is a corpus (one `simulate` call, the set-up) and a chain of
timed CLI steps run against it.  Each step knows its own command line and
how many times it calls each traced library function, given the corpus
shape; the trace coverage check compares those predictions with the
counts the traced run records.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

AE_CONTEXT = "-16,12"
AE_BATCH = 128  # the CLI's default --batch-size


@dataclass(frozen=True)
class Corpus:
    scenario: str
    streams: int
    utterances: int
    classes: int
    frames_min: int
    frames_max: int

    def simulate_argv(self, out: str, seed: int) -> list[str]:
        return [
            "simulate", "--out", out, "--scenario", self.scenario,
            "--streams", str(self.streams), "--utterances", str(self.utterances),
            "--seed", str(seed), "--classes", str(self.classes),
            "--frames-min", str(self.frames_min), "--frames-max", str(self.frames_max),
        ]


@dataclass(frozen=True)
class Step:
    """One timed CLI call.  kind is the subcommand."""

    kind: str  # "fuse" | "evaluate" | "train-ae"
    method: str | None = None  # fuse method
    n: int | None = None  # fuse --n
    fused: tuple[str, ...] = ()  # evaluate: fuse methods whose dirs are scored
    baselines: bool = True  # evaluate: per-stream baselines
    sweep: str | None = None  # evaluate: --sweep --method
    epochs: int | None = None  # train-ae

    def argv(self, corpus: str, chain: str) -> list[str]:
        if self.kind == "train-ae":
            return [
                "train-ae", "--corpus", corpus, "--out", f"{chain}/monitor.stae",
                "--context", AE_CONTEXT, "--epochs", str(self.epochs),
            ]
        if self.kind == "fuse":
            argv = [
                "fuse", "--corpus", corpus, "--out", f"{chain}/fused_{self.method}",
                "--method", self.method,
            ]
            if self.n is not None:
                argv += ["--n", str(self.n)]
            if self.method == "autoencoder":
                argv += ["--model", f"{chain}/monitor.stae"]
            return argv
        argv = ["evaluate", "--corpus", corpus, "--out", f"{chain}/report.tsv"]
        if not self.baselines:
            argv.append("--no-baselines")
        for method in self.fused:
            argv += ["--fused", f"{chain}/fused_{method}"]
        if self.sweep:
            argv += ["--sweep", "--method", self.sweep]
        return argv


@dataclass(frozen=True)
class Shape:
    """What the predictions need to know about a corpus on disk."""

    streams: int
    frames: tuple[int, ...]  # reference frames per utterance
    overlap: tuple[int, ...]  # aligned (common-range) frames per utterance

    @property
    def utterances(self) -> int:
        return len(self.frames)


def read_shape(corpus_dir: Path) -> Shape:
    """Corpus shape from corpus.cfg and manifest.txt (plain-text formats)."""
    cfg = dict(
        line.split("=", 1)
        for line in (corpus_dir / "corpus.cfg").read_text().splitlines()
        if "=" in line
    )
    frames, overlap = [], []
    for line in (corpus_dir / "manifest.txt").read_text().splitlines():
        fields = dict(tok.split("=", 1) for tok in line.split())
        T = int(fields["frames"])
        offsets = [
            int(dict(kv.split(":") for kv in prof.split(","))["off"])
            for prof in fields["profiles"].split(";")
        ]
        lo = max(0, max(-o for o in offsets))
        hi = T - 1 - max(offsets)
        frames.append(T)
        overlap.append(hi - lo + 1)
    return Shape(streams=int(cfg["streams"]), frames=tuple(frames), overlap=tuple(overlap))


def _predict_step(step: Step, s: Shape) -> Counter:
    U, M = s.utterances, s.streams
    L = sum(s.overlap)
    c = Counter()
    c["experiments.load_corpus"] += 1
    c["storage.read_manifest"] += 1
    c["storage.read_stream"] += U * (M + 1)
    if step.kind == "train-ae":
        E = step.epochs
        c["aemonitor.train_ae"] += 1
        c["aemonitor.fit_front_end"] += 1
        c["aemonitor.evaluate_mse"] += E + 1
        c["aemonitor.forward"] += (E + 1) * U
        c["aemonitor.loss_and_grads"] += E * sum(math.ceil(T / AE_BATCH) for T in s.frames)
        c["storage.write_model"] += 1
    elif step.kind == "fuse":
        per_utt = Counter(
            {
                "core.align_streams": 1,
                "experiments.compute_schedule": 1,
                "core.fuse": 1,
                "storage.write_schedule": 1,
                "storage.write_stream": 1,
            }
        )
        base = step.method
        if step.method == "max_n":
            per_utt["experiments.compute_schedule"] += 1  # recursion into the base
            base = "entropy"
        if step.method == "max_n" or step.n is not None:
            per_utt["core.n_best_truncate"] += 1
        if base == "entropy":
            per_utt["measures.entropy_attention"] += 1
        elif base in ("m_measure", "delta_m"):
            per_utt["measures.binary_window_attention"] += 1
        elif base == "autoencoder":
            per_utt["aemonitor.ae_attention"] += 1
            per_utt["aemonitor.forward"] += M
            c["storage.read_model"] += 1
            c["aemonitor.ae_attention.frames"] += M * L
        for k, v in per_utt.items():
            c[k] += U * v
        c["experiments.fuse_corpus"] += 1
    else:  # evaluate
        decodes = frames = 0
        if step.baselines:
            c["experiments.evaluate_single_streams"] += 1
            c["core.align_streams"] += U
            decodes += U * (M + 1)
            frames += M * L + sum(s.frames)
        for _ in step.fused:
            c["experiments.evaluate_fused_dir"] += 1
            c["storage.read_stream"] += U
            decodes += U
            frames += L
        if step.sweep:
            if step.sweep != "entropy":
                raise ValueError("count predictions cover only the entropy sweep")
            c["experiments.n_sweep"] += 1
            for name in (
                "core.align_streams",
                "experiments.compute_schedule",
                "measures.entropy_attention",
                "core.n_best_truncate",
                "core.fuse",
            ):
                c[name] += M * U
            decodes += M * U
            frames += M * L
        c["decoder.viterbi"] += decodes
        c["decoder.score"] += decodes
        c["decoder.viterbi.frames"] += frames
    return c


def _predict_setup(s: Shape) -> Counter:
    U, M = s.utterances, s.streams
    return Counter(
        {
            "simulator.build_scenario": 1,
            "simulator.stream_frames": (M + 1) * sum(s.frames),
            "storage.write_stream": U * (M + 1),
            "storage.write_manifest": 1,
        }
    )


# Every count the coverage check compares, so that a function predicted
# never to run on a workload is checked as 0 there.
PREDICTED = (
    "experiments.load_corpus",
    "experiments.fuse_corpus",
    "experiments.compute_schedule",
    "experiments.evaluate_single_streams",
    "experiments.evaluate_fused_dir",
    "experiments.n_sweep",
    "simulator.build_scenario",
    "simulator.stream_frames",
    "storage.read_manifest",
    "storage.write_manifest",
    "storage.read_stream",
    "storage.write_stream",
    "storage.write_schedule",
    "storage.read_model",
    "storage.write_model",
    "core.align_streams",
    "core.fuse",
    "core.n_best_truncate",
    "measures.entropy_attention",
    "measures.binary_window_attention",
    "aemonitor.fit_front_end",
    "aemonitor.train_ae",
    "aemonitor.evaluate_mse",
    "aemonitor.loss_and_grads",
    "aemonitor.forward",
    "aemonitor.ae_attention",
    "aemonitor.ae_attention.frames",
    "decoder.viterbi",
    "decoder.viterbi.frames",
    "decoder.score",
)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    corpus: Corpus
    steps: tuple[Step, ...]

    def predict(self, shape: Shape) -> dict[str, int]:
        """Exact call/frame counts of one traced set-up plus one chain."""
        total = _predict_setup(shape)
        for step in self.steps:
            total += _predict_step(step, shape)
        return {name: total.get(name, 0) for name in PREDICTED}

    def report_rows(self, streams: int) -> list[str]:
        """System names the report of the final evaluate step lists, in order."""
        evaluate = self.steps[-1]
        fuse_n = {s.method: s.n for s in self.steps if s.kind == "fuse"}
        rows = []
        if evaluate.baselines:
            rows += [f"stream:{m}" for m in range(streams)] + ["clean"]
        for method in evaluate.fused:
            rows.append(method + (f":n={fuse_n[method]}" if fuse_n[method] else ""))
        if evaluate.sweep:
            rows += [f"{evaluate.sweep}:n={n}" for n in range(1, streams + 1)]
        return rows


HRM = Corpus("hrm_like", streams=12, utterances=50, classes=40, frames_min=80, frames_max=160)
LDC = Corpus("ldc_like", streams=12, utterances=400, classes=12, frames_min=60, frames_max=80)
# Criterion-10 scale for the self-test.  Frames start at 60, not 40: the
# M-measure's largest span is 50 frames, so shorter aligned utterances
# would make m_measure/delta_m fail with WindowTooShort.
TINY_HRM = Corpus("hrm_like", streams=6, utterances=8, classes=12, frames_min=60, frames_max=80)
TINY_LDC = Corpus("ldc_like", streams=6, utterances=8, classes=12, frames_min=60, frames_max=80)

FUSE_DECODE_STEPS = (
    Step("fuse", method="entropy"),
    Step("fuse", method="m_measure"),
    Step("fuse", method="delta_m"),
    Step("evaluate", fused=("entropy", "m_measure", "delta_m"), sweep="entropy"),
)
LDC_STEPS = (
    Step("fuse", method="entropy"),
    Step("fuse", method="m_measure"),
    Step("fuse", method="max_n", n=2),
    Step("evaluate", fused=("entropy", "m_measure", "max_n"), baselines=False),
)


def ae_steps(epochs: int) -> tuple[Step, ...]:
    return (
        Step("train-ae", epochs=epochs),
        Step("fuse", method="autoencoder"),
        Step("evaluate", fused=("autoencoder",), baselines=False),
    )


def workloads(size: str = "full") -> dict[str, Workload]:
    hrm, ldc, epochs = (HRM, LDC, 2) if size == "full" else (TINY_HRM, TINY_LDC, 1)
    return {
        "hrm_fuse_decode": Workload("hrm_fuse_decode", hrm, FUSE_DECODE_STEPS),
        "hrm_ae_monitor": Workload("hrm_ae_monitor", hrm, ae_steps(epochs)),
        "ldc_many_short": Workload("ldc_many_short", ldc, LDC_STEPS),
    }
