"""Span tracer that wraps the public functions of a package from outside.

Every public function defined in a module of the package is replaced by a
wrapper in *every* module namespace that binds it, because ``from .model
import projection_bundle`` copies the binding into ``flow`` and ``dtpnn``
and ``mttkrp`` is bound in four modules. Each wrapped call records one span
(function, start, end, parent span) in flat in-memory arrays; nothing is
written until :meth:`Tracer.save`. A wrapper records only while the tracer
is active, so the benchmark's own checks between solves are not traced.

Probes attached to a function name see the call's arguments and result and
add to :attr:`Tracer.counters`; they derive counts (flops, accepted Armijo
blocks, inner steps) that the spans alone cannot give.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Wraps a package's public functions and records one span per call."""

    def __init__(self, probes=None):
        self.names: list[str] = []  # function id -> "<module>.<function>"
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.active = False
        self.probes = dict(probes or {})
        self._stack: list[int] = []
        self._bindings: list = []  # (module, attr, original, wrapper)

    # -- installation -----------------------------------------------------

    def install(self, package: str) -> None:
        """Wrap every public function of every module of ``package``.

        The wrappers are built on the first call; later calls put the same
        wrappers back after :meth:`uninstall`.
        """
        if not self._bindings:
            self._bindings = self._build(package)
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _build(self, package: str) -> list:
        modules = _package_modules(package)
        originals = {}  # id(function) -> (qualified name, function)
        for mod in modules:
            short = mod.__name__.removeprefix(package + ".")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {
            key: self._wrap(name, fn)
            for key, (name, fn) in sorted(originals.items(), key=lambda kv: kv[1][0])
        }
        return [
            (mod, attr, obj, wrappers[id(obj)])
            for mod in modules
            for attr, obj in vars(mod).items()
            if id(obj) in wrappers and originals[id(obj)][1] is obj
        ]

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        probe = self.probes.get(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(self.counters, args, kwargs, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    # -- analysis -----------------------------------------------------------

    def mark(self) -> int:
        """Span index to pass to :meth:`summary` as a window start."""
        return len(self.start)

    def spans(self, lo: int = 0, hi: int | None = None):
        """(fid, parent, start, end) numpy arrays of spans ``lo:hi``."""
        hi = len(self.start) if hi is None else hi
        return (
            np.frombuffer(self.fid, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
        )

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per function: ``calls`` and ``self_s`` over spans ``lo:hi``."""
        fid, parent, start, end = self.spans(lo, hi)
        self_s = self_times(parent - lo, end - start)
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        busy = np.bincount(fid, weights=self_s, minlength=n)
        return {
            name: {"calls": int(calls[i]), "self_s": float(busy[i])}
            for i, name in enumerate(self.names)
        }

    def _with_parent(self, lo, hi):
        """Window spans plus the function id of each span's parent (-1 when
        the parent lies outside the window)."""
        fid, par, start, end = self.spans(lo, hi)
        rel = par - lo
        inside = rel >= 0
        parent_fid = np.full_like(fid, -1)
        parent_fid[inside] = fid[rel[inside]]
        return fid, parent_fid, end - start

    def child_time(self, child: set[str], parent: str, lo=0, hi=None) -> float:
        """Total duration of ``child`` function spans called directly from a
        ``parent`` span."""
        fid, parent_fid, duration = self._with_parent(lo, hi)
        ids = [self.names.index(c) for c in child]
        chosen = np.isin(fid, ids) & (parent_fid == self.names.index(parent))
        return float(duration[chosen].sum())

    def count_children(self, child: str, parent: str, lo=0, hi=None) -> int:
        """Number of ``child`` calls made directly from a ``parent`` span."""
        fid, parent_fid, _ = self._with_parent(lo, hi)
        return int(
            ((fid == self.names.index(child))
             & (parent_fid == self.names.index(parent))).sum()
        )

    def parents_with_child(self, child: str, parent: str, lo=0, hi=None) -> int:
        """Number of ``parent`` spans that made at least one direct ``child``
        call."""
        fid, par, _, _ = self.spans(lo, hi)
        rel = par - lo
        calls = (fid == self.names.index(child)) & (rel >= 0)
        callers = np.unique(rel[calls])
        return int((fid[callers] == self.names.index(parent)).sum())

    def save(self, path) -> None:
        """Write every span once, as arrays plus the function-name table."""
        fid, parent, start, end = self.spans()
        np.savez(path, fid=fid, parent=parent, start=start, end=end,
                 names=np.array(self.names))


def self_times(parent, duration):
    """Span duration minus the durations of its direct child spans.

    ``parent`` holds each span's parent index within the same window (-1,
    or any negative value, for a span whose parent lies outside it). Calls
    are single-threaded and properly nested, so direct children never
    overlap and their durations add up to the covered part of the parent.
    """
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=np.float64)
    inside = parent >= 0
    covered = np.bincount(
        parent[inside], weights=duration[inside], minlength=len(duration)
    )
    return duration - covered


def _package_modules(package: str) -> list:
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        importlib.import_module(info.name)
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def unwrapped_left(package: str) -> list[str]:
    """``module.attr`` bindings that still hold an original public function
    of the package: either a function some wrapper wraps, or a public
    function that was never wrapped at all."""
    modules = _package_modules(package)
    traced = {
        id(obj.__traced__)
        for mod in modules for obj in vars(mod).values()
        if inspect.isfunction(obj) and hasattr(obj, "__traced__")
    }
    return [
        f"{mod.__name__}.{attr}"
        for mod in modules for attr, obj in vars(mod).items()
        if id(obj) in traced
        or (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
            and not hasattr(obj, "__traced__")
        )
    ]
