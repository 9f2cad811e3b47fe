"""Run one streamfuse CLI step with every public library function traced.

Usage: python3 trace_launch.py SPANS.json ARGV...

Imports streamfuse.cli (timing the import), wraps each public top-level
function of the layer modules in a span, patches the wrapper into every
streamfuse namespace, module-level container and default argument that
binds the function,
runs streamfuse.cli.main(ARGV) and writes the spans and counts to
SPANS.json.  Spans stay in memory until the step ends.

Exits 70 before running the step if a streamfuse module still binds an
unwrapped function: calls through that binding would escape the trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "experiments", "simulator", "storage", "core", "measures", "aemonitor", "decoder")
EXIT_UNTRACED = 70


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


def _stream_frames(args, kwargs, result):
    return {"frames": args[0].num_frames}


def _set_frames(args, kwargs, result):
    sset = args[0]
    return {"frames": sset.num_streams * sset.streams[0].num_frames}


def _train_frames(args, kwargs, result):
    data, cfg = args[0], args[1]
    return {"frames": cfg.epochs * sum(s.num_frames for s in data), "epochs": cfg.epochs}


def _scenario_frames(args, kwargs, result):
    return {
        "stream_frames": sum(
            len(u.labels) * (u.streams.num_streams + 1) for u in result.utterances
        )
    }


# Work counted per call, outside the span's timed interval.
EXTRA_COUNTS = {
    "storage.read_stream": _read_bytes,
    "storage.write_stream": _file_bytes,
    "decoder.viterbi": _stream_frames,
    "aemonitor.ae_attention": _set_frames,
    "aemonitor.train_ae": _train_frames,
    "simulator.build_scenario": _scenario_frames,
}


class Tracer:
    def __init__(self):
        self.wrapped: list[str] = []
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = {}

    def wrap(self, name: str, fn):
        self.wrapped.append(name)
        spans, stack = self.spans, self.stack
        extra = EXTRA_COUNTS.get(name)
        counts = self.counts.setdefault(name, {}) if extra else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra:
                for key, val in extra(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + val
            return result

        return traced


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield attr, obj


def _swap(value, wrappers):
    """value with every wrapped function in it (one container level) replaced."""
    if callable(value) and id(value) in wrappers:
        return wrappers[id(value)]
    if isinstance(value, dict):
        for k, v in value.items():
            if id(v) in wrappers:
                value[k] = wrappers[id(v)]
    elif isinstance(value, list):
        value[:] = [wrappers.get(id(v), v) for v in value]
    elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
        new = tuple(wrappers.get(id(v), v) for v in value)
        return type(value)(*new) if hasattr(value, "_fields") else new
    return value


def _members(value) -> list:
    """value itself, or the items of a module-level container."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "streamfuse" or n.startswith("streamfuse.")]


def install(tracer: Tracer) -> list[str]:
    """Wrap every public layer function; return the bindings still unwrapped."""
    originals = {}
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"streamfuse.{layer}")
        for attr, fn in _public_functions(module):
            originals[id(fn)] = fn
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
    functions = list(originals.values())
    for module in _package_modules():
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            namespace[attr] = _swap(value, wrappers)
            if inspect.isfunction(value):
                functions.append(value)
    for fn in functions:  # default arguments bound to a function at definition
        if fn.__defaults__:
            fn.__defaults__ = tuple(wrappers.get(id(v), v) for v in fn.__defaults__)
    return [
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if any(id(v) in originals for v in _members(value))
    ]


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("streamfuse.cli")
    startup = time.perf_counter() - t0
    tracer = Tracer()
    missed = install(tracer)
    if missed:
        print(f"trace coverage: unwrapped bindings {missed}", file=sys.stderr)
        return EXIT_UNTRACED
    try:
        rc = cli.main(cli_argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    with open(out_path, "w") as f:
        json.dump(
            {
                "startup_s": startup,
                "wrapped": tracer.wrapped,
                "spans": tracer.spans,
                "counts": tracer.counts,
            },
            f,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
