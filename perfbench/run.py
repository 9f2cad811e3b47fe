"""Benchmark the streamfuse CLI pipeline: one workload, one run.

    python3 perfbench/run.py --workload hrm_fuse_decode --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout.  Every step is a fresh
`python -m streamfuse.cli` subprocess on the checkout's `src/`, driven one
after another from this process (a closed loop with one client).  BLAS
threads keep the machine default; the thread settings seen are recorded in
the provenance block rather than pinned.

--trace 0 builds the corpus several times (set-up), then runs the
workload's chain of timed steps again and again for --seconds and reports
the end-to-end metrics as medians over the repeats.  --trace 1 runs each
step through trace_launch.py instead and reports per-layer self times and
exact counts, checks the counts against predictions from the corpus shape,
and reports the tracing overhead against untraced chains run alongside.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json names for the mode.  Everything before it is
for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from trace_launch import LAYERS
from workloads import Workload, read_shape, workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
LAUNCHER = BENCH_DIR / "trace_launch.py"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 7
SETUP_REPEATS = 3
STEP_TIMEOUT_S = 150.0
REPORT_HEADER = (
    "system\ttoken_error_rate\tframe_error_rate\tsubstitutions\tinsertions"
    "\tdeletions\tref_tokens\tframes"
)


@dataclass
class StepRun:
    kind: str
    seconds: float
    rc: int
    rss_kb: int
    spans: dict | None = None  # the launcher's output, traced steps only


@dataclass
class ChainRun:
    steps: list[StepRun] = field(default_factory=list)
    complete: bool = False  # every step ran and exited 0 (the report may still be wrong)

    def total(self, kind: str | None = None) -> float:
        return sum(s.seconds for s in self.steps if kind is None or s.kind == kind)


class Bench:
    """One run: a work directory, a step runner and the output checks."""

    def __init__(self, workload: Workload, seed: int, expected_digest: str | None):
        self.wl = workload
        self.seed = seed
        self.expected_digest = expected_digest
        self.first_report: bytes | None = None
        self.attempted = 0
        self.failed = 0
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run_", dir=WORK_ROOT))
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            TMPDIR=str(self.work),
        )
        self._seq = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's files are still there

    def step(self, kind: str, argv: list[str], traced: bool) -> StepRun:
        """Run one CLI step to completion; time it from spawn to reap."""
        self._seq += 1
        log = self.work / f"step{self._seq:04d}"
        spans_path = log.with_suffix(".spans.json")
        if traced:
            cmd = [sys.executable, str(LAUNCHER), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "streamfuse.cli", *argv]
        self.attempted += 1
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StepRun(kind, seconds, proc.returncode, usage.ru_maxrss)
        if run.rc != 0:
            self.failed += 1
            tail = log.with_suffix(".err").read_text(errors="replace")[-2000:]
            print(f"step failed (exit {run.rc}): {' '.join(argv)}\n{tail}", file=sys.stderr)
        elif traced:
            run.spans = json.loads(spans_path.read_text())
        return run

    def setup(self, corpus: Path, traced: bool = False) -> StepRun:
        run = self.step("simulate", self.wl.corpus.simulate_argv(str(corpus), self.seed), traced)
        if run.rc != 0:
            raise SystemExit(f"set-up failed: simulate exited {run.rc}")
        return run

    def chain(self, corpus: Path, traced: bool) -> ChainRun:
        """The workload's timed steps in a fresh directory; checks the report."""
        chain_dir = Path(tempfile.mkdtemp(prefix="chain_", dir=self.work))
        result = ChainRun()
        try:
            for step in self.wl.steps:
                run = self.step(step.kind, step.argv(str(corpus), str(chain_dir)), traced)
                result.steps.append(run)
                if run.rc != 0:
                    return result  # later steps need this one's output
            result.complete = True
            try:
                error = self.check_report(corpus, (chain_dir / "report.tsv").read_bytes())
            except (OSError, ValueError, KeyError, IndexError) as e:
                error = f"report unreadable: {e!r}"
            if error:
                self.failed += 1  # the output check fails the evaluate step
                print(f"output check failed: {error}", file=sys.stderr)
            return result
        finally:
            shutil.rmtree(chain_dir, ignore_errors=True)

    def check_report(self, corpus: Path, report: bytes) -> str | None:
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            return "report differs from the first chain of this run"
        if self.expected_digest:
            digest = hashlib.sha256(report).hexdigest()
            if digest != self.expected_digest:
                return f"report sha256 {digest} != recorded {self.expected_digest}"
        cfg = dict(
            line.split("=", 1) for line in (corpus / "corpus.cfg").read_text().splitlines()
        )
        lines = report.decode().splitlines()
        if lines[:2] != [f"# config_hash={cfg['config_hash']}", REPORT_HEADER]:
            return f"report head {lines[:2]!r} is wrong"
        rows = [line.split("\t") for line in lines[2:]]
        names = [row[0] for row in rows]
        expected = self.wl.report_rows(int(cfg["streams"]))
        if names != expected:
            return f"report rows {names} != {expected}"
        for row in rows:
            if len(row) != 8:
                return f"report row {row} has {len(row)} fields"
            rates, counts = [float(x) for x in row[1:3]], [int(x) for x in row[3:]]
            if not (all(0 <= r < math.inf for r in rates) and rates[1] <= 1 and min(counts) >= 0):
                return f"report row {row} is out of range"
        return None


def hi_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it, else the max."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    q = int(100 * (1 - 10 / n))
    return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --------------------------------------------------------------------------- untraced


def run_untraced(bench: Bench, seconds: float) -> tuple[list[float], list[ChainRun]]:
    """SETUP_REPEATS set-ups, then chains on the first corpus until --seconds."""
    setups, chains = [], []
    corpus = bench.work / "corpus0"
    for i in range(SETUP_REPEATS):
        target = bench.work / f"corpus{i}"
        setups.append(bench.setup(target).seconds)
        if target != corpus:
            shutil.rmtree(target)
    start = time.perf_counter()
    while True:
        chain = bench.chain(corpus, traced=False)
        if chain.complete:
            chains.append(chain)
        if time.perf_counter() - start >= seconds:
            return setups, chains


def _peak_rss_mb(chain: ChainRun) -> float:
    return max(s.rss_kb for s in chain.steps) / 1024


def end_to_end(setups: list[float], chains: list[ChainRun]) -> dict[str, float]:
    """Each step's median over the chains, summed by kind; medians are robust
    to the slow phases of a shared machine at the granularity of one step."""
    kinds = [s.kind for s in chains[0].steps]
    step_median = [
        statistics.median(c.steps[i].seconds for c in chains) for i in range(len(kinds))
    ]

    def total(*wanted: str) -> float:
        return sum(t for k, t in zip(kinds, step_median) if not wanted or k in wanted)

    m = {
        "setup_s": statistics.median(setups),
        "run_s": total(),
        "fuse_s": total("fuse"),
        "evaluate_s": total("evaluate"),
        "peak_rss_mb": statistics.median(_peak_rss_mb(c) for c in chains),
    }
    if "train-ae" in kinds:
        m["train_ae_s"] = total("train-ae")
    return m


def print_untraced(m: dict[str, float], setups: list[float], chains: list[ChainRun], units):
    """The metrics, then the per-chain distributions behind them."""
    per_repeat = {
        "setup_s": setups,
        "run_s": [c.total() for c in chains],
        "fuse_s": [c.total("fuse") for c in chains],
        "evaluate_s": [c.total("evaluate") for c in chains],
        "train_ae_s": [c.total("train-ae") for c in chains],
        "peak_rss_mb": [_peak_rss_mb(c) for c in chains],
    }
    print("metric         value       unit | per set-up or chain: median, high percentile, count")
    for name, value in m.items():
        values = per_repeat[name]
        label, hi = hi_percentile(values)
        print(
            f"{name:<14} {value:10.4f}  {units.get(name, 's'):<4} | "
            f"median {statistics.median(values):.4f} {label} {hi:.4f} n={len(values)}"
        )


# --------------------------------------------------------------------------- traced


def _self_times(steps: list[StepRun]):
    """Per span name: summed self time, inclusive time and call count."""
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    extras: dict[str, int] = defaultdict(int)
    for step in steps:
        for name in step.spans["wrapped"]:
            self_s[name] += 0.0
            calls[name] += 0
        spans = step.spans["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent), inner in zip(spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
            if parent < 0 or spans[parent][0] != name:  # outermost of a recursion
                incl_s[name] += end - start
        for name, counts in step.spans["counts"].items():
            for key, val in counts.items():
                extras[f"{name}.{key}"] += val
    return self_s, incl_s, calls, extras


def layer_metrics(steps: list[StepRun], chain_steps: list[StepRun]) -> dict[str, float]:
    """Every per-layer metric of one traced pass (set-up + chain)."""
    self_s, incl_s, calls, extras = _self_times(steps)
    m: dict[str, float] = {"cli.startup_s": statistics.median(s.spans["startup_s"] for s in steps)}
    for name in self_s:
        m[f"{name}.s"] = self_s[name]
        m[f"{name}.calls"] = calls[name]
    m.update(extras)
    m["simulator.stream_frames"] = extras.get("simulator.build_scenario.stream_frames", 0)

    def rate(work: float, span: str) -> float:
        return work / incl_s[span] if incl_s.get(span) else 0.0

    m["decoder.viterbi.frames"] = extras.get("decoder.viterbi.frames", 0)
    m["decoder.viterbi.frames_per_s"] = rate(m["decoder.viterbi.frames"], "decoder.viterbi")
    m["aemonitor.ae_attention.frames"] = extras.get("aemonitor.ae_attention.frames", 0)
    m["aemonitor.ae_attention.frames_per_s"] = rate(
        m["aemonitor.ae_attention.frames"], "aemonitor.ae_attention"
    )
    epochs = extras.get("aemonitor.train_ae.epochs", 0)
    m["aemonitor.train_epoch_s"] = incl_s.get("aemonitor.train_ae", 0.0) / epochs if epochs else 0.0
    m["aemonitor.train_frames_per_s"] = rate(
        extras.get("aemonitor.train_ae.frames", 0), "aemonitor.train_ae"
    )
    chain_self, _, _, _ = _self_times(chain_steps)
    for layer in LAYERS:
        m[f"layer.{layer}.s"] = sum(v for k, v in chain_self.items() if k.split(".")[0] == layer)
    return m


def run_traced(bench: Bench, seconds: float):
    """Traced passes until --seconds: traced set-up, untraced chain, traced chain."""
    passes, overheads = [], []
    start = time.perf_counter()
    for i in itertools.count():
        corpus = bench.work / f"corpus{i}"
        setup = bench.setup(corpus, traced=True)
        shape = read_shape(corpus)
        plain = bench.chain(corpus, traced=False)
        traced = bench.chain(corpus, traced=True)
        shutil.rmtree(corpus)
        if plain.complete and traced.complete:
            m = layer_metrics([setup, *traced.steps], traced.steps)
            m["run_s"] = traced.total()
            passes.append(m)
            overheads.append((traced.total() - plain.total()) / plain.total())
        if time.perf_counter() - start >= seconds:
            return passes, overheads, bench.wl.predict(shape), shape


def coverage(m: dict[str, float], predicted: dict[str, int]) -> list[str]:
    """Predicted counts that the trace did not reproduce exactly."""
    bad = []
    for name, want in predicted.items():
        key = name if name.endswith("frames") else f"{name}.calls"
        got = int(m.get(key, 0))
        if got != want:
            bad.append(f"{key}: predicted {want}, traced {got}")
    return bad


# --------------------------------------------------------------------------- output


def provenance() -> dict:
    info: dict = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": None,
        "git_dirty": None,
    }
    try:
        import numpy as np

        info["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, TypeError, KeyError) as e:
        info.setdefault("numpy", None)
        info["blas"] = f"unknown ({e.__class__.__name__})"
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(
            [*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True
        )
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            info["git_dirty"] = bool(dirty.stdout.strip())
    for path in sorted((SRC / "streamfuse").glob("*.py")):
        lines = path.read_text().splitlines()
        info[f"{path.stem}.loc"] = sum(1 for l in lines if l.strip() and not l.strip().startswith("#"))
    return info


def print_traced(passes, overheads, predicted, shape, bad, per_layer: dict[str, str]):
    med = {k: statistics.median(p.get(k, 0) for p in passes) for k in passes[0]}
    run_s = med["run_s"]
    print(f"traced passes: {len(passes)}; traced run_s median {run_s:.4f} s; "
          f"tracing overhead {statistics.median(overheads):+.2%} of untraced run_s")
    print("self-time share of traced run_s, by layer:")
    inside = 0.0
    for layer in LAYERS:
        busy = med[f"layer.{layer}.s"]
        inside += busy
        print(f"  {layer:<12} {busy:9.4f} s  {busy / run_s:6.1%}")
    outside = run_s - inside
    print(f"  {'(outside)':<12} {outside:9.4f} s  {outside / run_s:6.1%}  process start, imports, argv")
    print("per-layer metrics (median over passes; counts are exact):")
    named = sorted(k for k in med if k != "run_s")
    for k in named:
        mark = "*" if k in per_layer else " "
        print(f" {mark}{k:<44} {med[k]:16.6f}")
    print(f"  (* = in the JSON line; corpus: {shape.utterances} utterances x {shape.streams} streams)")
    if bad:
        print("TRACE COVERAGE MISMATCH:\n  " + "\n  ".join(bad))
        print("TRACE COVERAGE MISMATCH: " + "; ".join(bad), file=sys.stderr)
    else:
        print(f"trace coverage: all {len(predicted)} predicted counts match")
    return med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: criterion-10 scale corpora for the self-test",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "streamfuse" / "cli.py").is_file():
        print(f"error: no streamfuse source under {SRC}", file=sys.stderr)
        return 2
    wls = workloads(args.size)
    if args.workload not in wls:
        parser.error(f"--workload must be one of {', '.join(wls)}")
    wl = wls[args.workload]
    digests = json.loads(DIGESTS.read_text())
    expected = None
    if args.seed == digests["seed"] and args.size == "full":
        expected = digests["reports"][wl.name]

    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} size {args.size} seconds {args.seconds:g} trace {args.trace}")
    bench = Bench(wl, args.seed, expected)
    try:
        # Byte-compile and warm the page cache; not a timed or counted step.
        if bench.step("warmup", ["--help"], traced=False).rc != 0:
            raise SystemExit("error: streamfuse.cli does not start")
        bench.attempted = 0
        if args.trace:
            passes, overheads, predicted, shape = run_traced(bench, args.seconds)
        else:
            setups, chains = run_untraced(bench, args.seconds)
    finally:
        bench.close()

    if bench.first_report:
        print(f"report sha256 {hashlib.sha256(bench.first_report).hexdigest()}")
    if args.trace:
        if not passes:
            print("error: no traced pass completed", file=sys.stderr)
            return 1
        bad = sorted({b for p in passes for b in coverage(p, predicted)})
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        med = print_traced(passes, overheads, predicted, shape, bad, wanted)
        med["trace.overhead_share"] = statistics.median(overheads)
        med["trace.count_mismatches"] = len(bad)
    else:
        if not chains:
            print("error: no chain completed", file=sys.stderr)
            return 1
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        med = end_to_end(setups, chains)
        print_untraced(med, setups, chains, wanted)
        print(f"failed_ratio   {bench.failed / bench.attempted:10.4f}  ({bench.failed} of {bench.attempted} steps)")
    missing = sorted(set(wanted) - set(med))
    if missing:
        print(f"warning: reported as 0, nothing measures {missing}", file=sys.stderr)
    metrics = {name: {"value": med.get(name, 0), "unit": unit} for name, unit in wanted.items()}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
