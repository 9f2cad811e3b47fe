"""Acceptance suite: ten go/no-go criteria for the fusion toolkit.

Each test prints exactly one "criterion N: PASS/FAIL" line with the
numbers that drove the verdict.  Criteria 4-8 run on the two calibrated
reference scenarios (12 streams, 50 utterances, seed 7) with the stock
monitor-training recipe; criteria 1-3 and 9-10 are self-contained.
"""

import math
import struct
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

import reference as ref
from conftest import loss_and_grad_copies, random_schedule, random_simplex, random_stream
from streamfuse import aemonitor, experiments, simulator, storage
from streamfuse.aemonitor import (
    TrainConfig,
    build_architecture,
    fit_front_end,
    train_ae,
)
from streamfuse.core import (
    AttentionSchedule,
    PosteriorStream,
    align_streams,
    inverse_weights,
    n_best_truncate,
)
from streamfuse.decoder import HmmModel, make_hmm, viterbi_batch
from streamfuse.measures import (
    ENTROPY_FLOOR,
    MMeasureConfig,
    binary_window_attention,
    entropy_rows,
    m_measure,
    symmetric_kld_rows,
)
from streamfuse.simulator import CorpusSpec, CorruptionProfile, corrupt

CLI = [sys.executable, "-m", "streamfuse.cli"]

# Reference-scenario geometry (frozen with the calibrated generator defaults).
STREAMS = 12
UTTERANCES = 50
SEED = 7
CLASSES = 40


def verdict(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def build_corpus(name, outdir) -> experiments.Corpus:
    spec = CorpusSpec(
        num_utterances=UTTERANCES,
        frames_min=80,
        frames_max=160,
        num_classes=CLASSES,
        num_streams=STREAMS,
        seed=SEED,
    )
    experiments.write_corpus(name, spec, outdir)
    return experiments.load_corpus(outdir)


@pytest.fixture(scope="module")
def ldc_corpus(tmp_path_factory):
    return build_corpus("ldc_like", tmp_path_factory.mktemp("acc") / "ldc")


@pytest.fixture(scope="module")
def hrm_corpus(tmp_path_factory):
    return build_corpus("hrm_like", tmp_path_factory.mktemp("acc") / "hrm")


@pytest.fixture(scope="module")
def monitor_model(ldc_corpus):
    """Autoencoder monitor trained on the matched-condition streams."""
    clean = [u.clean for u in ldc_corpus]
    rows = np.vstack([s.probs for s in clean])
    fe = fit_front_end(rows, min(CLASSES, aemonitor.DEFAULT_PCA_DIM), logit_clamp=1e-3)
    cfg = TrainConfig(learning_rate=1e-3, epochs=15, batch_size=128, seed=0)
    model, losses = train_ae(clean, cfg, context=(0, 0), front_end=fe)
    assert losses[-1] < losses[0]
    return model


@pytest.fixture(scope="module")
def ldc_baselines(ldc_corpus):
    return dict(experiments.evaluate_corpus(ldc_corpus))


@pytest.fixture(scope="module")
def hrm_baselines(hrm_corpus):
    return dict(experiments.evaluate_corpus(hrm_corpus))


def best_stream_ter(baselines) -> float:
    return min(
        rep.token_error_rate
        for name, rep in baselines.items()
        if name.startswith("stream:")
    )


def test_criterion_1_analytic_oracles():
    """Closed-form values reproduced to 1e-9 relative."""
    checks = [
        (
            "entropy(0.5,0.25,0.25)",
            entropy_rows(np.array([[0.5, 0.25, 0.25]]))[0],
            1.5 * math.log(2),
        ),
        ("entropy(uniform4)", entropy_rows(np.full((1, 4), 0.25))[0], math.log(4)),
        (
            "inv-entropy weights H=(1,2)",
            inverse_weights(np.array([[1.0, 2.0]]), ENTROPY_FLOOR)[0, 0],
            2.0 / 3.0,
        ),
        (
            "inv-entropy one-hot vs uniform4",
            inverse_weights(
                entropy_rows(np.array([[1.0, 0, 0, 0], [0.25] * 4]))[None], ENTROPY_FLOOR
            )[0, 0],
            ref.inverse_entropy_weights_ref([0.0, math.log(4)])[0],
        ),
        (
            "sym-KLD (.9,.1) vs (.1,.9)",
            symmetric_kld_rows(np.array([[0.9, 0.1]]), np.array([[0.1, 0.9]]))[0],
            1.6 * math.log(9),
        ),
        (
            "m-measure alternating",
            m_measure(
                PosteriorStream(np.tile([[0.9, 0.1], [0.1, 0.9]], (50, 1)))
            ),
            1.6 * math.log(9) / 6.0,
        ),
        (
            "2-best of (.5,.3,.2)",
            n_best_truncate(AttentionSchedule(np.array([[0.5, 0.3, 0.2]])), 2)
            .weights[0, 0],
            0.625,
        ),
        (
            "logit at clamp 1e-6",
            aemonitor.logit_transform(np.array([0.0]), clamp=1e-6)[0],
            ref.logit_ref(0.0, 1e-6),
        ),
    ]
    worst_name, worst = "", 0.0
    for name, got, expect in checks:
        rel = abs(got - expect) / max(abs(expect), 1e-30)
        if rel > worst:
            worst_name, worst = name, rel
    verdict(1, worst <= 1e-9, f"max rel err {worst:.2e} at {worst_name}")


def test_criterion_2_viterbi_vs_exhaustive():
    """500 random instances (T<=6, C<=3) against brute-force search."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(500):
        T, C = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        trans = rng.dirichlet(np.full(C, 1.0), size=C)
        priors = rng.dirichlet(np.full(C, 1.0))
        hmm = HmmModel(
            transitions=trans, priors=priors, labels=tuple(f"s{i}" for i in range(C))
        )
        probs = random_simplex(rng, T, C)
        scale = bool(trial % 2)
        got = viterbi_batch([probs], hmm, scale_by_priors=scale)[0]
        best, best_path, margin = ref.viterbi_exhaustive(
            probs.tolist(), trans.tolist(), priors.tolist(), scale
        )
        got_score = ref.path_score(got, PosteriorStream(probs), hmm, scale_by_priors=scale)
        if abs(got_score - best) > 1e-9:
            mismatches += 1
        elif margin > 1e-9 and list(got) != best_path:
            mismatches += 1
    verdict(2, mismatches == 0, f"{mismatches}/500 instances disagree")


def test_criterion_3_gradient_check():
    """Backprop gradients vs central differences (step 1e-4, widths <= 8)."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for offsets in ([(0,)] * 4, [(-1, 0, 1), (-2, 0), (0,)]):
        if offsets == [(0,)] * 4:
            layers = build_architecture(3, hidden_widths=(6, 8, 6), rng=rng)
        else:
            widths = [3, 6, 4, 3]
            layers = []
            for i, offs in enumerate(offsets):
                fan_in = widths[i] * len(offs)
                layers.append(
                    aemonitor.Layer(
                        weight=rng.standard_normal((fan_in, widths[i + 1])) * 0.5,
                        bias=rng.standard_normal(widths[i + 1]) * 0.1,
                        activation="linear" if i == len(offsets) - 1 else "relu",
                        offsets=offs,
                    )
                )
        z = rng.standard_normal((7, 3))
        _, grads = loss_and_grad_copies(layers, z)
        step = 1e-4
        for ly, (gw, gb) in zip(layers, grads):
            for arr, g in ((ly.weight, gw), (ly.bias, gb)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + step
                    lp, _ = loss_and_grad_copies(layers, z)
                    arr[ix] = orig - step
                    lm, _ = loss_and_grad_copies(layers, z)
                    arr[ix] = orig
                    num = (lp - lm) / (2 * step)
                    denom = max(abs(num), abs(g[ix]), 1e-6)
                    worst = max(worst, abs(num - g[ix]) / denom)
    verdict(3, worst <= 1e-3, f"max rel gradient err {worst:.2e}")


def test_criterion_4_matched_scenario_ranking(ldc_corpus, ldc_baselines):
    """All-streams-working corpus: fusion never hurts.

    Inverse-entropy fusion must match or beat the best single stream, and
    even naive equal weighting must stay within 10% of it.
    """
    best = best_stream_ter(ldc_baselines)
    rows = dict(experiments.evaluate_corpus(
        ldc_corpus, baselines=False, methods=[("entropy", None), ("equal", None)]
    ))
    ent, eq = (rows[name].token_error_rate for name in ("entropy", "equal"))
    ok = ent <= best + 1e-12 and eq <= 1.1 * best
    verdict(4, ok, f"best stream {best:.4f}, entropy {ent:.4f}, equal {eq:.4f}")


def test_criterion_5_mismatched_scenario_ranking(
    hrm_corpus, hrm_baselines, monitor_model
):
    """One-good-stream corpus: equal weighting collapses, monitors survive.

    Equal weights must be >1.5x worse than the best single stream while both
    the inverse-entropy and autoencoder monitors beat that stream.
    """
    best = best_stream_ter(hrm_baselines)
    rows = dict(experiments.evaluate_corpus(
        hrm_corpus,
        baselines=False,
        methods=[("equal", None), ("entropy", None), ("autoencoder", None)],
        model=monitor_model,
    ))
    eq, ent, ae = (rows[name].token_error_rate for name in ("equal", "entropy", "autoencoder"))
    ok = eq > 1.5 * best and ent < best and ae < best
    verdict(
        5,
        ok,
        f"best stream {best:.4f}, equal {eq:.4f} ({eq / best:.2f}x), "
        f"entropy {ent:.4f}, autoencoder {ae:.4f}",
    )


def test_criterion_6_window_selection(hrm_corpus):
    """Binary M-measure attention finds the undistorted stream.

    Competitors carry a heavy uniform mix (>=0.5) and long smear (>=9), so
    the selector must pick the clean stream on at least 90% of utterances.
    """
    clean_index = hrm_corpus[0].oracle_stream
    hits = 0
    for u in hrm_corpus:
        aligned = align_streams(u.streams)
        sched = binary_window_attention(aligned)
        hits += int(np.argmax(sched.weights[0]) == clean_index)
    frac = hits / len(hrm_corpus)
    verdict(6, frac >= 0.9, f"clean stream selected on {hits}/{len(hrm_corpus)} utterances")


def test_criterion_7_n_best_sweep(hrm_corpus):
    """n-best re-weighting: too few streams hurts, all streams is near-best."""
    sweep = [("entropy", n) for n in range(1, hrm_corpus.spec.num_streams + 1)]
    rows = experiments.evaluate_corpus(hrm_corpus, baselines=False, methods=sweep)
    ters = [rep.token_error_rate for _, rep in rows]
    best_mid = min(ters[1:-1])
    overall = min(ters)
    ok = ters[0] > best_mid and ters[-1] <= 1.05 * overall
    verdict(
        7,
        ok,
        f"n=1 {ters[0]:.4f} vs best intermediate {best_mid:.4f}, "
        f"n={len(ters)} {ters[-1]:.4f} vs min {overall:.4f}",
    )


def test_criterion_8_monitor_monotonicity(monitor_model):
    """Monitors respond monotonically to corruption severity."""
    spec = CorpusSpec(
        num_utterances=8,
        frames_min=80,
        frames_max=160,
        num_classes=CLASSES,
        num_streams=STREAMS,
        seed=SEED + 1,
    )
    hmm = make_hmm(CLASSES, SEED)
    labels, cleans = simulator.generate_reference(spec, hmm)
    lams = (0.0, 0.25, 0.5, 0.75, 1.0)
    smears = (0, 3, 9, 27)

    mean_entropy, ae_median = [], []
    for lam in lams:
        ents, errs = [], []
        for s in cleans:
            mixed = corrupt(s, CorruptionProfile(uniform_mix=lam), seed=0)
            ents.append(entropy_rows(mixed.probs))
            errs.append(aemonitor._stacked_errors(monitor_model, [mixed])[0])
        mean_entropy.append(float(np.concatenate(ents).mean()))
        ae_median.append(float(np.median(np.concatenate(errs))))
    m_vals = []
    for w in smears:
        vals = [
            m_measure(corrupt(s, CorruptionProfile(smear_width=w), seed=0))
            for s in cleans
        ]
        m_vals.append(float(np.mean(vals)))

    ent_ok = all(b >= a - 1e-12 for a, b in zip(mean_entropy, mean_entropy[1:]))
    m_ok = all(b <= a + 1e-12 for a, b in zip(m_vals, m_vals[1:]))
    rho = scipy.stats.spearmanr(lams, ae_median).statistic
    ae_ok = rho >= 0.8
    verdict(
        8,
        ent_ok and m_ok and ae_ok,
        f"entropy nondecreasing={ent_ok}, m-measure nonincreasing={m_ok}, "
        f"AE spearman rho={rho:.2f}",
    )


def test_criterion_9_round_trips(tmp_path, rng):
    """>=1000 write/read/write round trips are byte-stable."""
    failures = 0
    cases = 0

    def byte_stable(write, read, obj, stem):
        nonlocal failures, cases
        p1, p2 = tmp_path / f"{stem}.a", tmp_path / f"{stem}.b"
        write(obj, p1)
        write(read(p1), p2)
        cases += 1
        failures += int(p1.read_bytes() != p2.read_bytes())

    for k in range(500):
        s = random_stream(
            rng,
            int(rng.integers(1, 40)),
            int(rng.integers(2, 12)),
            stream_id=int(rng.integers(-2, 100)),
            frame_offset=int(rng.integers(-5, 6)),
            alpha=float(rng.uniform(0.05, 5.0)),
        )
        byte_stable(storage.write_stream, storage.read_stream, s, f"s{k}")
    for k in range(400):
        sched = random_schedule(rng, int(rng.integers(1, 40)), int(rng.integers(2, 13)))
        byte_stable(storage.write_schedule, storage.read_schedule, sched, f"w{k}")
    for k in range(60):
        K = int(rng.integers(2, 5))
        fe = aemonitor.FrontEnd(
            pca_mean=rng.standard_normal(K + 1),
            pca_basis=rng.standard_normal((K + 1, K)),
            logit_clamp=float(rng.uniform(1e-6, 1e-2)),
        )
        layers = build_architecture(
            K, hidden_widths=tuple(rng.integers(2, 6, size=int(rng.integers(1, 4)))),
            rng=rng,
        )
        model = aemonitor.AeModel(front_end=fe, layers=layers, context=(0, 0))
        byte_stable(storage.write_model, storage.read_model, model, f"m{k}")
    # A corpus directory's text files, written, read back by load_corpus and
    # written again from the corpus it read.
    for k in range(40):
        frames_min = int(rng.integers(1, 30))
        spec = CorpusSpec(
            num_utterances=int(rng.integers(1, 4)),
            frames_min=frames_min,
            frames_max=frames_min + int(rng.integers(0, 20)),
            num_classes=int(rng.integers(2, 8)),
            num_streams=int(rng.integers(2, 6)),
            seed=int(rng.integers(0, 2**31)),
            alpha_true=float(rng.uniform(1.0, 200.0)),
            alpha_other=float(rng.uniform(0.01, 1.0)),
            conf_prob=float(rng.uniform(0.0, 0.1)),
            conf_len=float(rng.uniform(1.0, 10.0)),
        )
        a, b = tmp_path / f"c{k}.a", tmp_path / f"c{k}.b"
        experiments.write_corpus(("ldc_like", "hrm_like")[k % 2], spec, a)
        got = experiments.load_corpus(a)
        experiments.write_corpus(got.name, got.spec, b)
        cases += 1
        failures += int(any((a / f).read_bytes() != (b / f).read_bytes()
                            for f in ("corpus.cfg", "hmm.json", "manifest.txt")))
    verdict(9, cases >= 1000 and failures == 0, f"{failures}/{cases} round trips unstable")


def test_criterion_10_pipeline_determinism(tmp_path):
    """simulate -> train-ae -> fuse -> evaluate, twice, identical reports."""

    def pipeline(root):
        root.mkdir()
        corpus = root / "corpus"
        model = root / "mon.stae"
        report = root / "report.tsv"

        def run(*args):
            r = subprocess.run(CLI + list(args), capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            return r

        run(
            "simulate", "--out", str(corpus), "--scenario", "hrm_like",
            "--streams", "6", "--utterances", "8", "--seed", "11",
            "--classes", "12", "--frames-min", "40", "--frames-max", "60",
        )
        run("train-ae", "--corpus", str(corpus), "--out", str(model), "--epochs", "3")
        for method, extra in (
            ("entropy", []),
            ("autoencoder", ["--model", str(model)]),
        ):
            run(
                "fuse", "--corpus", str(corpus), "--out", str(root / method),
                "--method", method, *extra,
            )
        run(
            "evaluate", "--corpus", str(corpus), "--out", str(report),
            "--fused", str(root / "entropy"), "--fused", str(root / "autoencoder"),
            "--sweep", "--method", "entropy",
        )
        return report.read_bytes()

    a = pipeline(tmp_path / "run_a")
    b = pipeline(tmp_path / "run_b")
    verdict(10, a == b, f"report bytes {'identical' if a == b else 'differ'} across runs")
