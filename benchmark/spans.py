"""Span recorder for the traced benchmark run.

``Tracer`` wraps the public functions of the qwkt layer modules at run
time, and ``install`` rebinds every module attribute that refers to one of
them, so a call made through any name a caller imported (``qwkt.cli.mle_fit``,
``qwkt.estimation.inverse_qwkt``, ``qwkt.hom.fringe_factor`` ...) opens a
span. Nothing in the package itself changes; ``uninstall`` puts the
original functions back.

Spans are kept in memory. Each records its name, start, end, parent span
and the id of the benchmark operation it belongs to, plus whether it
raised, how many warnings were issued inside it and, for ``io`` functions
whose first argument is a file path, the size of that file afterwards. A
span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("biphoton", "transform", "hom", "estimation", "io", "cli")

# Scalar helpers called once per quadrature point or per CSV cell: a span
# per call would cost more than the work it times, so their time stays
# with the caller.
UNWRAPPED = frozenset({"biphoton.envelope_density", "io.format_float"})

ROOT = "bench.op"
PACKAGE = "qwkt"


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    warnings: int = 0
    nbytes: int = 0


@dataclass(slots=True)
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    failed: int = 0
    warnings: int = 0
    nbytes: int = 0


def span_name(layer: str, function: str) -> str:
    """``<layer>.<function>``; CLI handlers ``cmd_x`` read as subcommand ``x``."""
    return f"{layer}.{function.removeprefix('cmd_')}"


class Tracer:
    """Wraps the layer functions once; ``install`` and ``uninstall`` only
    rebind names, so they are cheap enough to run around every operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._caught: list | None = None
        self.names: list[str] = []
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = span_name(layer, attr)
                if name not in UNWRAPPED:
                    self._wrappers[obj] = self._wrap(name, obj)
                    self.names.append(name)
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Rebind every ``qwkt`` module attribute that names a wrapped function."""
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def run_op(self, op_id: int, caught: list, fn, *args):
        """Run ``fn(*args)`` as benchmark operation ``op_id`` under a root span.

        ``caught`` is the list a ``warnings.catch_warnings(record=True)``
        block fills; spans count the warnings appended while they run.
        """
        self._op, self._caught = op_id, caught
        try:
            return self._record(ROOT, fn, args, {})
        finally:
            self._op, self._caught = None, None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)

        return traced

    def _record(self, name: str, fn, args, kwargs):
        span = Span(name, self._stack[-1] if self._stack else None, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        seen = len(self._caught)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
            span.warnings = len(self._caught) - seen
            if name.startswith("io.") and args and isinstance(args[0], (str, os.PathLike)):
                if os.path.isfile(args[0]):
                    span.nbytes = os.path.getsize(args[0])

    def stats(self, scales) -> dict[str, NameStats]:
        """Totals per span name over all recorded operations.

        The times of operation ``op``'s spans are multiplied by
        ``scales[op]``. Every wrapped name is present, with zero counts when
        never called. ``warnings`` and ``nbytes`` are inclusive of child spans.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        out = {name: NameStats() for name in (ROOT, *self.names)}
        for span, children in zip(self.spans, child_s):
            entry = out[span.name]
            duration = span.end - span.start
            entry.calls += 1
            entry.total_s += duration * scales[span.op]
            entry.self_s += (duration - children) * scales[span.op]
            entry.failed += span.failed
            entry.warnings += span.warnings
            entry.nbytes += span.nbytes
        return out

    def write(self, path) -> None:
        """Write every span as a JSON list; ``parent`` indexes that list."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
