"""Command-line front door: simulate, train-ae, fuse, evaluate.

Exit codes: 0 success, 2 usage error, 3 data/config error, 4 numeric
failure.  Every flag can also come from a plain-text key=value config file
(--config), whose lines act as flags placed before the command line's own:
explicit flags win.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import aemonitor, experiments, simulator, storage
from .core import check_range
from .errors import DivergedTraining, SettingError, StreamFuseError
from .measures import MMeasureConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: shows defaults in --help and reads --config.

    The config file's lines go in front of the command line as --key=value
    flags, so one parse checks both and the command line's value wins.
    """

    def __init__(self, **kwargs):
        self.flags: dict[str, argparse.Action] = {}  # by dest: the keys a config file may set
        super().__init__(formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)
        self.add_argument("--config", help="key=value file of flags, read before the other flags")
        self.flags.clear()  # -h and --config are not config keys
        self.set_defaults(parser=self)  # for the command's own usage errors

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action

    def parse_known_args(self, args, namespace=None):
        # The subparsers action of the top-level parser passes args as a list.
        return super().parse_known_args(self._config_flags(args) + args, namespace)

    def _config_flags(self, args: list[str]) -> list[str]:
        """The lines of the --config file named in args as flags, in file order."""
        pre = argparse.ArgumentParser(prog=self.prog, add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(args)[0].config
        if path is None:
            return []
        try:
            pairs = experiments.read_config_pairs(path)
        except (OSError, ValueError, StreamFuseError) as e:  # ValueError: not UTF-8
            self.error(str(e))
        flags = []
        for key, val in pairs:
            action = self.flags.get(key.replace("-", "_"))
            if action is None:
                self.error(f"unknown config key {key!r}")
            flag = action.option_strings[0]
            if action.nargs != 0:
                flags.append(f"{flag}={val}")
            elif val.lower() in ("1", "true"):  # a switch
                flags.append(flag)
            elif val.lower() not in ("0", "false"):
                self.error(f"config key {key!r}: {val!r} is not one of 1, 0, true, false")
        return flags


def _checked(typ, check, allowed: str):
    """An argparse type=: the text as a typ value that passes check(value).

    check is the library's own test of the setting; a ValueError from it or
    from typ is the usage error "'TEXT' is not ALLOWED".
    """

    def parse(text: str):
        try:
            value = typ(text)
            check(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {allowed}") from None
        return value

    return parse


def _in_range(typ, bounds: tuple):
    """_checked by core.check_range over the closed range bounds = (lo, hi)."""
    lo, hi = bounds
    kind = "an integer" if typ is int else "a finite number"
    where = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    return _checked(typ, lambda value: check_range("value", value, bounds), f"{kind} {where}")


_positive_int = _in_range(int, (1, math.inf))


def _parse_context(text: str) -> tuple[int, int]:
    try:
        left, right = text.split(",")
        context = (int(left), int(right))
    except ValueError:
        context = None
    if context not in aemonitor.SPLICE_PLANS:
        known = " ".join(f"{lo},{hi}" for lo, hi in aemonitor.SPLICE_PLANS)
        raise argparse.ArgumentTypeError(f"{text!r} has no splice plan; available: {known}")
    return context


def _check_out(path, directory: bool = False) -> None:
    """Refuse an --out path the step could not write, before any work:
    StreamFuseError naming it (exit 3).

    A file's directory must exist.  A directory is made with its missing
    parents, so the nearest of them that exists must be a directory.
    """
    out = Path(path)
    if not directory and out.is_dir():
        raise StreamFuseError(f"{out}: is a directory, not a file to write")
    there = next(p for p in (out, *out.parents) if p.exists()) if directory else out.parent
    if not there.is_dir():
        raise StreamFuseError(f"{out}: {there} is not a directory")


def cmd_simulate(args, parser) -> int:
    # Each flag's dest is its corpus.cfg key.
    fields = {attr: getattr(args, key) for key, attr, _ in experiments.CORPUS_KEYS}
    try:
        spec = simulator.CorpusSpec(**fields)
    except ValueError as e:  # each flag is in range, so frames_max < frames_min
        parser.error(f"argument --frames-max: {args.frames_max}: {e}")
    _check_out(args.out, directory=True)
    facts = experiments.write_corpus(args.scenario, spec, args.out)
    print(
        f"wrote corpus {args.out}: scenario={args.scenario} "
        f"utterances={spec.num_utterances} streams={spec.num_streams} "
        f"classes={spec.num_classes} frames={sum(facts.frames)}"
    )
    return EXIT_OK


def cmd_train_ae(args, parser) -> int:
    loss_log = Path(str(args.out) + ".loss")
    for path in (args.out, loss_log):
        _check_out(path)
    corpus = experiments.load_corpus(args.corpus)
    cfg = aemonitor.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    clean = corpus.clean_streams()
    # No name holds the stacked rows, so training does not keep them alive.
    front_end = aemonitor.fit_front_end(
        np.vstack([s.probs for s in clean]), logit_clamp=args.logit_clamp
    )
    model, losses = aemonitor.train_ae(clean, cfg, front_end, context=args.context)
    storage.write_model(model, args.out)
    loss_log.write_text("".join(f"{e}\t{v:.8f}\n" for e, v in enumerate(losses)))
    print(
        f"wrote model {args.out}: context={model.context} "
        f"mse {losses[0]:.6f} -> {losses[-1]:.6f} ({len(losses) - 1} epochs)"
    )
    return EXIT_OK


def _check_settings(parser, method: str, **settings) -> None:
    """experiments.check_settings, its SettingError a usage error naming the flag."""
    try:
        experiments.check_settings(method, **settings)
    except SettingError as e:
        parser.error(f"argument --{e.setting}: {e.reason}")


def _read_model(path, corpus: experiments.Corpus) -> aemonitor.AeModel | None:
    """The model file at path (None for no path), once its class count is the corpus's."""
    if not path:
        return None
    try:
        model = storage.read_model(path)
    except experiments._NO_FILE as e:
        raise experiments._missing(e, "there is no model to read") from None
    C, want = model.front_end.num_classes, corpus.spec.num_classes
    if C != want:
        raise StreamFuseError(f"{path}: the model has {C} classes, the corpus {want}")
    return model


def cmd_fuse(args, parser) -> int:
    _check_settings(parser, args.method, base=args.base, window=args.window, model=args.model)
    try:
        mcfg = MMeasureConfig(window=args.window)
    except ValueError as e:
        parser.error(f"argument --window: {args.window}: {e}")
    _check_out(args.out, directory=True)
    corpus = experiments.load_corpus(args.corpus)
    M = corpus.spec.num_streams
    if args.n is not None:
        try:
            check_range("n", args.n, (1, M))
        except ValueError:
            parser.error(f"argument --n: {args.n} is more than the corpus's {M} streams")
    model = _read_model(args.model, corpus)
    experiments.fuse_corpus(
        corpus, args.method, args.out, model=model, mcfg=mcfg, n=args.n, base=args.base
    )
    print(f"wrote fused streams to {args.out}: method={args.method}")
    return EXIT_OK


def cmd_evaluate(args, parser) -> int:
    if args.sweep and args.method is None:
        parser.error("--sweep requires --method")
    for flag, value in (("--method", args.method), ("--model", args.model)):
        if value is not None and not args.sweep:
            parser.error(f"{flag} requires --sweep")
    if args.no_baselines and not args.fused and not args.sweep:
        parser.error("nothing to score: --no-baselines needs --fused or --sweep")
    if args.sweep:
        _check_settings(parser, args.method, model=args.model)
    _check_out(args.out)
    corpus = experiments.load_corpus(args.corpus)
    model = _read_model(args.model, corpus)
    sweep = range(1, corpus.spec.num_streams + 1) if args.sweep else ()
    rows = experiments.evaluate_corpus(
        corpus,
        baselines=not args.no_baselines,
        fused_dirs=args.fused or [],
        methods=[(args.method, n) for n in sweep],
        model=model,
    )
    report = experiments.format_report(rows, experiments.corpus_hash(corpus))
    Path(args.out).write_text(report)
    sys.stdout.write(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfuse",
        description="Multi-stream posterior fusion experiments on synthetic corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    spec, train = simulator.CorpusSpec, aemonitor.TrainConfig
    # The library's range of each field, for the flags that set it.
    spec_range, train_range = simulator.SPEC_RANGES, aemonitor.TRAIN_RANGES

    p = sub.add_parser("simulate", help="generate a synthetic multi-stream corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--scenario", required=True, choices=tuple(simulator.SCENARIO_PROFILES))
    p.add_argument("--streams", required=True, type=_in_range(int, spec_range["num_streams"]),
                   help="number of parallel streams (M)")
    p.add_argument("--utterances", required=True,
                   type=_in_range(int, spec_range["num_utterances"]), help="number of utterances")
    p.add_argument("--seed", required=True, type=_in_range(int, spec_range["seed"]),
                   help="corpus seed")
    p.add_argument("--classes", type=_in_range(int, spec_range["num_classes"]), default=40,
                   help="class count C")
    p.add_argument("--frames-min", type=_in_range(int, spec_range["frames_min"]), default=80,
                   help="shortest utterance (frames)")
    p.add_argument("--frames-max", type=_in_range(int, spec_range["frames_max"]), default=160,
                   help="longest utterance (frames)")
    p.add_argument("--alpha-true", type=_in_range(float, spec_range["alpha_true"]),
                   default=spec.alpha_true, help="emission concentration on the true class")
    p.add_argument("--alpha-other", type=_in_range(float, spec_range["alpha_other"]),
                   default=spec.alpha_other, help="emission concentration on each other class")
    p.add_argument("--conf-prob", type=_in_range(float, spec_range["conf_prob"]),
                   default=spec.conf_prob, help="per-frame confusion-burst entry probability")
    p.add_argument("--conf-len", type=_in_range(float, spec_range["conf_len"]),
                   default=spec.conf_len, help="mean confusion-burst length in frames")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-ae", help="train the autoencoder monitor")
    # Let "--context -16,12" parse: treat "-16,12" as a value, not a flag.
    p._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)?$")
    p.add_argument("--corpus", required=True,
                   help="corpus directory (clean streams are the data)")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--context", type=_parse_context, default="0,0", help="temporal context")
    p.add_argument("--logit-clamp", default=aemonitor.DEFAULT_LOGIT_CLAMP,
                   type=_checked(float, aemonitor.check_logit_clamp,
                                 f"a number in {aemonitor.LOGIT_CLAMP_RANGE}"),
                   help="front-end probability clamp")
    p.add_argument("--epochs", type=_in_range(int, train_range["epochs"]),
                   default=train.epochs, help="training epochs")
    p.add_argument("--lr", type=_in_range(float, train_range["learning_rate"]),
                   default=train.learning_rate, help="learning rate")
    p.add_argument("--batch-size", type=_in_range(int, train_range["batch_size"]),
                   default=train.batch_size, help="frames per gradient update")
    p.add_argument("--seed", type=_in_range(int, train_range["seed"]), default=train.seed,
                   help="training seed")
    p.set_defaults(func=cmd_train_ae)

    p = sub.add_parser("fuse", help="fuse corpus streams under an attention method")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output directory for fused streams")
    p.add_argument("--method", required=True, choices=experiments.FUSION_METHODS)
    p.add_argument("--model", help="model file (autoencoder method)")
    p.add_argument("--n", type=_positive_int, help="n-best truncation of the schedule")
    p.add_argument("--base", default=experiments.DEFAULT_BASE,
                   choices=tuple(experiments.FRAME_METHODS), help="base method for max_n")
    p.add_argument("--window", type=_positive_int, help="finite M-measure window (frames)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("evaluate", help="score fused streams and baselines")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--out", required=True, help="output report file (TSV)")
    p.add_argument("--fused", action="append", help="fused directory (repeatable)")
    p.add_argument("--no-baselines", action="store_true")
    p.add_argument("--sweep", action="store_true", help="n-best sweep, n = 1..M")
    p.add_argument("--method", choices=experiments.FUSION_METHODS, help="method for --sweep")
    p.add_argument("--model", help="model file for --sweep")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, args.parser)
    except DivergedTraining as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (StreamFuseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
