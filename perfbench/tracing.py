"""Spans around the calls the CLI makes into each ``fpl`` module.

The tracer wraps functions from outside: every public function of the
library modules, the solver entry points ``scipy.optimize.linprog`` and
``scipy.optimize.minimize``, and ``numpy.linalg.svd`` and
``numpy.random.default_rng`` while a harness call is running.  A wrapper
replaces every binding of the original object, so callers that did
``from .core import dual_family`` see it too.  Spans stay in memory until
the run writes them out.

Per-trial calls (the generator and SVD calls inside the harness) would
cost one span each; they are summed into counters on the enclosing
harness span instead, under a lock, because with ``FPL_THREADS=2`` they
arrive from pool threads.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
import types
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

# Library modules whose public functions get spans.
MODULES = ("core", "potentials", "fusion", "io", "grassmannian", "suite")
# The harness entry point; per-trial calls are summed onto its span.
HARNESS = "grassmannian.conjecture_harness"
# Helpers called once per subspace or per pair of subspaces; a span each
# would cost more than their work, so their time stays in the caller's.
PER_ELEMENT = {"fusion.subspace", "fusion.orthonormalize",
               "fusion.subspaces_equal", "fusion.subspaces_orthogonal",
               "fusion.is_semi_orthogonal", "fusion.intersection_dim",
               "fusion.orthogonal_complement"}


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None
    call: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.children_s


class Tracer:
    """Installs the wrappers, records spans, and restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._harness: Span | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    stack[-1] if stack else None, self.call)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.children_s += span.seconds
        with self._lock:
            self.spans.append(span)

    def root(self, call: int) -> Span:
        """Open the span of one CLI call; the caller closes it."""
        self.call = call
        return self.open("cli.run")

    # -- wrappers --------------------------------------------------------
    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            if name == HARNESS:
                self._harness = span
            try:
                out = fn(*args, **kwargs)
            finally:
                if name == HARNESS:
                    self._harness = None
                self.close(span)
            _annotate(span, args, kwargs, out)
            return out
        return wrapper

    def _summed(self, name: str, fn):
        """Count calls made inside a harness span and sum their time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._harness
            if span is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                with self._lock:
                    span.attrs[f"{name}_calls"] = (
                        span.attrs.get(f"{name}_calls", 0) + 1)
                    span.attrs[f"{name}_s"] = (
                        span.attrs.get(f"{name}_s", 0.0) + took)
        return wrapper

    def _rebind(self, original, wrapper, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def install(self, fpl_modules: dict[str, types.ModuleType]) -> None:
        namespaces = list(fpl_modules.values())
        for short in MODULES:
            mod = fpl_modules[short]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{short}.{attr}" in PER_ELEMENT):
                    continue
                self._rebind(fn, self._spanned(f"{short}.{attr}", fn),
                             namespaces)
        for attr in ("linprog", "minimize"):
            fn = getattr(scipy.optimize, attr)
            self._rebind(fn, self._spanned(f"scipy.{attr}", fn),
                         namespaces + [scipy.optimize])
        for owner, attr, name in ((np.linalg, "svd", "svd"),
                                  (np.random, "default_rng", "rng")):
            fn = getattr(owner, attr)
            self._rebind(fn, self._summed(name, fn), namespaces + [owner])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def dump(self) -> list[dict]:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [{"id": ids[id(s)], "name": s.name, "call": s.call,
                 "start": s.start, "end": s.end,
                 "parent": ids.get(id(s.parent)) if s.parent else None,
                 **s.attrs} for s in self.spans]


def _annotate(span: Span, args, kwargs, out) -> None:
    """Solver statistics and file sizes, read from the call's arguments
    and result."""
    if span.name.startswith("scipy."):
        span.attrs.update(method=kwargs.get("method", ""),
                          success=bool(getattr(out, "success", True)),
                          nit=int(getattr(out, "nit", 0) or 0),
                          nfev=int(getattr(out, "nfev", 0) or 0))
    elif span.name.startswith(("io.load_", "io.save_")):
        path = args[0] if span.name.startswith("io.load_") else args[1]
        span.attrs["bytes"] = os.path.getsize(path)


def fpl_modules() -> dict[str, types.ModuleType]:
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("fpl.") and mod is not None}
