"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces the public functions of each stabswitch module, and
the public methods of the classes those modules define, with wrappers
that record a span (name, start, end, parent span, op id, whether it
raised).  The package reaches sibling functions through module globals
or `module.fn`, so the wrappers also see its internal calls; nothing
under src/ changes.  gf2 functions and PauliOp methods run hundreds of
thousands of times per second, so they get call counters, not spans.

Spans stay in memory and are summarised (or written to a file by a CLI
child) when the run ends.  A span's self time is its duration minus the
time its child spans cover.

Run as a script, this module is the traced stand-in for
`python -m stabswitch.cli`: it imports the CLI, installs the wrappers,
runs `cli.main(argv)` and writes its spans to the file named by --spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = ("gf2", "pauli", "rewiring", "analysis", "tableau", "gadgets", "catalog", "fixtures", "cli")
COUNT_ONLY_MODULES = {"gf2"}
COUNT_ONLY_CLASSES = {"PauliOp"}
# calls that are the entry point of an op: their self time is glue, not a layer
ENTRY_SPANS = {"rewiring.search", "cli.main"}
# per-call attributes kept for a few spans: a label from the arguments
ARG_LABELS = {"analysis.error_vectors": lambda n, wmax: f"n{n}.w{wmax}"}
# per-call results folded into counters
RESULT_COUNTS = {"tableau.inject_and_check": ("tableau.inject_and_check.errors", lambda r: r.errors_checked)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, raised]
        self.counts: Counter = Counter()
        self.first_calls: dict[str, float] = {}
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, label_of = self.spans, self._stack, ARG_LABELS.get(name)
        fold = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, True]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                span[5] = False
            finally:
                span[2] = clock()
                stack.pop()
            if label_of is not None:
                key = f"{name}.first_ms.{label_of(*args, **kwargs)}"
                self.first_calls.setdefault(key, (span[2] - span[1]) * 1e3)
            if fold is not None:
                self.counts[fold[0]] += fold[1](out)
            return out

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, raw, wrapped) -> None:
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every public function and method of the stabswitch modules."""
        for short in MODULES:
            module = importlib.import_module(f"stabswitch.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if isinstance(obj, types.FunctionType):
                    make = self._count_wrapper if short in COUNT_ONLY_MODULES else self._span_wrapper
                    self._replace(module, attr, obj, make(name, obj))
                elif isinstance(obj, type):
                    self._install_class(short, obj)

    def _install_class(self, short: str, cls: type) -> None:
        counted = cls.__name__ in COUNT_ONLY_CLASSES
        for attr, raw in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            if attr == "__post_init__":
                self._replace(cls, attr, raw, self._count_wrapper(f"{short}.{cls.__name__}.built", raw))
                continue
            if attr.startswith("_"):
                continue
            make = self._count_wrapper if counted else self._span_wrapper
            if isinstance(raw, types.FunctionType):
                self._replace(cls, attr, raw, make(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._replace(cls, attr, raw, type(raw)(make(name, raw.__func__)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def add_child_spans(self, doc: dict, op) -> None:
        """Merge the spans a traced CLI child wrote (same monotonic clock)."""
        base = len(self.spans)
        for name, start, end, parent, raised in doc["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, raised])
        self.counts.update(doc["counts"])
        for key, ms in doc["first_calls"].items():
            self.first_calls.setdefault(key, ms)


def summarise(tracer: Tracer, op_walls: dict) -> dict:
    """Per-name, per-layer and per-op figures from the recorded spans.

    op_walls maps an op id to its wall time in seconds.  Coverage of an
    op is the share of its wall time inside spans below its entry call
    (or inside any span, for ops without an entry call).
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, raised in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0})
    layer_self: dict[str, float] = defaultdict(float)
    op_uncovered: dict = defaultdict(float)
    op_top: dict = defaultdict(float)
    for i, (name, start, end, parent, op, raised) in enumerate(spans):
        dur = end - start
        self_s = dur - child_time[i]
        rec = per_name[name]
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += self_s
        rec["raised"] += int(raised)
        if op in op_walls:
            if parent < 0:
                op_top[op] += dur
                if name in ENTRY_SPANS:
                    op_uncovered[op] += self_s
            if not (parent < 0 and name in ENTRY_SPANS):
                layer_self[name.split(".")[0]] += self_s
    coverage = {}
    for op, wall in op_walls.items():
        glue = wall - op_top.get(op, 0.0) + op_uncovered.get(op, 0.0)
        coverage[op] = 1.0 - glue / wall if wall > 0 else 0.0
    op_total = sum(op_walls.values())
    layers = {
        layer: {"self_s": s, "share": s / op_total if op_total else 0.0}
        for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1])
    }
    return {"per_name": dict(per_name), "layers": layers, "coverage": coverage}


def _child_main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracing.py --spans FILE -- CLI-ARGS...", file=sys.stderr)
        return 64
    out_file, cli_args = argv[1], argv[3:]
    tracer = Tracer()
    start = time.perf_counter()
    from stabswitch import cli

    tracer.spans.append(["cli.startup", start, time.perf_counter(), -1, "child", False])
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        doc = {
            "spans": [[n, s, e, p, r] for n, s, e, p, _, r in tracer.spans],
            "counts": dict(tracer.counts),
            "first_calls": tracer.first_calls,
        }
        with open(out_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
