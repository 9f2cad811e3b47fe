"""Command-line front door: simulate, train-ae, fuse, evaluate.

Exit codes: 0 success, 2 usage error, 3 data/config error, 4 numeric
failure.  Every flag can also come from a plain-text key=value config file
(--config); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import aemonitor, experiments, simulator, storage
from .decoder import make_hmm
from .errors import DivergedTraining, StreamFuseError
from .measures import MMeasureConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Fill unset argparse values from the key=value config file, if any."""
    if not getattr(args, "config", None):
        return
    try:
        file_cfg = experiments.read_config(args.config)
    except (OSError, StreamFuseError) as e:
        parser.error(str(e))
    for key, val in file_cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, val)


def _require(args, parser, *names):
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"missing required option --{name.replace('_', '-')}")


def _parse_context(text: str) -> tuple[int, int]:
    left, right = text.split(",")
    return (int(left), int(right))


def cmd_simulate(args, parser) -> int:
    _require(args, parser, "out", "scenario", "streams", "utterances", "seed")
    spec = simulator.CorpusSpec(
        num_utterances=int(args.utterances),
        frames_min=int(args.frames_min),
        frames_max=int(args.frames_max),
        num_classes=int(args.classes),
        num_streams=int(args.streams),
        seed=int(args.seed),
        alpha_true=float(args.alpha_true),
        alpha_other=float(args.alpha_other),
        conf_prob=float(args.conf_prob),
        conf_len=float(args.conf_len),
    )
    hmm = make_hmm(spec.num_classes, spec.seed, self_loop=float(args.self_loop))
    scenario = simulator.build_scenario(args.scenario, spec, hmm=hmm)
    experiments.write_corpus(scenario, args.out)
    frames = sum(len(u.labels) for u in scenario.utterances)
    print(
        f"wrote corpus {args.out}: scenario={scenario.name} "
        f"utterances={spec.num_utterances} streams={spec.num_streams} "
        f"classes={spec.num_classes} frames={frames}"
    )
    return EXIT_OK


def cmd_train_ae(args, parser) -> int:
    _require(args, parser, "corpus", "out")
    if int(args.epochs) < 1:
        parser.error("--epochs must be >= 1")
    corpus = experiments.load_corpus(args.corpus)
    cfg = aemonitor.TrainConfig(
        learning_rate=float(args.lr),
        epochs=int(args.epochs),
        batch_size=int(args.batch_size),
        seed=int(args.seed),
    )
    clean = [u.clean for u in corpus.utterances]
    rows = np.vstack([s.probs for s in clean])
    front_end = aemonitor.fit_front_end(
        rows,
        min(clean[0].num_classes, aemonitor.DEFAULT_PCA_DIM),
        logit_clamp=float(args.logit_clamp),
    )
    model, losses = aemonitor.train_ae(
        clean, cfg, context=_parse_context(args.context), front_end=front_end
    )
    storage.write_model(model, args.out)
    loss_log = Path(str(args.out) + ".loss")
    loss_log.write_text("".join(f"{e}\t{v:.8f}\n" for e, v in enumerate(losses)))
    print(
        f"wrote model {args.out}: context={model.context} "
        f"mse {losses[0]:.6f} -> {losses[-1]:.6f} ({len(losses) - 1} epochs)"
    )
    return EXIT_OK


def cmd_fuse(args, parser) -> int:
    _require(args, parser, "corpus", "out", "method")
    if args.method not in experiments.FUSION_METHODS:
        parser.error(
            f"--method must be one of {', '.join(experiments.FUSION_METHODS)}"
        )
    corpus = experiments.load_corpus(args.corpus)
    model = storage.read_model(args.model) if args.model else None
    mcfg = MMeasureConfig(window=int(args.window) if args.window else None)
    n = int(args.n) if args.n is not None else None
    experiments.fuse_corpus(
        corpus, args.method, args.out, model=model, mcfg=mcfg, n=n, base=args.base
    )
    print(f"wrote fused streams to {args.out}: method={args.method}")
    return EXIT_OK


def cmd_evaluate(args, parser) -> int:
    _require(args, parser, "corpus", "out")
    corpus = experiments.load_corpus(args.corpus)
    rows = []
    if not args.no_baselines:
        rows.extend(experiments.evaluate_single_streams(corpus))
    for fused_dir in args.fused or []:
        rows.append(experiments.evaluate_fused_dir(corpus, fused_dir))
    if args.sweep:
        if args.method is None:
            parser.error("--sweep requires --method")
        model = storage.read_model(args.model) if args.model else None
        rows.extend(experiments.n_sweep(corpus, args.method, model=model))
    report = experiments.format_report(rows, corpus.cfg.get("config_hash", ""))
    Path(args.out).write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfuse",
        description="Multi-stream posterior fusion experiments on synthetic corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic multi-stream corpus")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--out", help="output corpus directory")
    p.add_argument("--scenario", choices=("ldc_like", "hrm_like", "custom"))
    p.add_argument("--streams", help="number of parallel streams (M)")
    p.add_argument("--utterances", help="number of utterances")
    p.add_argument("--seed", help="corpus seed")
    p.add_argument("--classes", default=None,
                   help=f"class count C (default {_DEFAULTS['classes']})")
    p.add_argument("--frames-min", default=None, dest="frames_min")
    p.add_argument("--frames-max", default=None, dest="frames_max")
    p.add_argument("--alpha-true", default=None, dest="alpha_true")
    p.add_argument("--alpha-other", default=None, dest="alpha_other")
    p.add_argument("--conf-prob", default=None, dest="conf_prob",
                   help="per-frame confusion-burst entry probability")
    p.add_argument("--conf-len", default=None, dest="conf_len",
                   help="mean confusion-burst length in frames")
    p.add_argument("--self-loop", default=None, dest="self_loop")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-ae", help="train the autoencoder monitor")
    # Let "--context -16,12" parse: treat "-16,12" as a value, not a flag.
    p._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)?$")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--corpus", help="corpus directory (clean streams are the data)")
    p.add_argument("--out", help="output model file")
    p.add_argument("--context", default=None, help="temporal context, e.g. -16,12")
    p.add_argument("--logit-clamp", default=None, dest="logit_clamp",
                   help="front-end probability clamp (default 1e-3)")
    p.add_argument("--epochs", default=None)
    p.add_argument("--lr", default=None)
    p.add_argument("--batch-size", default=None, dest="batch_size")
    p.add_argument("--seed", default=None)
    p.set_defaults(func=cmd_train_ae)

    p = sub.add_parser("fuse", help="fuse corpus streams under an attention method")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--corpus", help="corpus directory")
    p.add_argument("--out", help="output directory for fused streams")
    p.add_argument("--method", help="|".join(experiments.FUSION_METHODS))
    p.add_argument("--model", default=None, help="model file (autoencoder method)")
    p.add_argument("--n", default=None, help="n-best truncation of the schedule")
    p.add_argument("--base", default=None, choices=experiments.FUSION_METHODS,
                   help=f"base method for max_n (default {_DEFAULTS['base']})")
    p.add_argument("--window", default=None, help="finite M-measure window (frames)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="score fused streams and baselines")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--corpus", help="corpus directory")
    p.add_argument("--out", help="output report file (TSV)")
    p.add_argument("--fused", action="append", help="fused directory (repeatable)")
    p.add_argument("--no-baselines", action="store_true", dest="no_baselines")
    p.add_argument("--sweep", action="store_true", help="n-best sweep, n = 1..M")
    p.add_argument("--method", default=None, help="method for --sweep")
    p.add_argument("--model", default=None, help="model file for --sweep")
    p.set_defaults(func=cmd_evaluate)
    return parser


_DEFAULTS = {
    "classes": "40",
    "frames_min": "80",
    "frames_max": "160",
    "alpha_true": "100.0",
    "alpha_other": "0.05",
    "conf_prob": "0.035",
    "conf_len": "8.0",
    "self_loop": "0.92",
    "context": "0,0",
    "logit_clamp": "1e-3",
    "epochs": "15",
    "lr": "1e-3",
    "batch_size": "128",
    "seed": "0",
    "base": "entropy",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _merge_config(args, parser)
    for key, val in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, val)
    try:
        return args.func(args, parser)
    except DivergedTraining as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (StreamFuseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
