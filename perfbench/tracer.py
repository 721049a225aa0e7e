"""Outside-in span tracer for the coinflip package.

The tracer wraps public functions and hook methods of the package from the
benchmark's own code, so nothing under src/ changes. A function imported by
name into other modules (``from .quantum import measure_projective``) has one
binding per importing module; every binding that is the original object is
replaced, so calls are seen whichever module makes them.

Spans are kept in flat arrays (name, parent span, trial index, start, end)
and reduced when the traced pass ends. A span's self time is its duration
minus the durations of its direct children; calls are single-threaded and
strictly nested, so children never overlap.

A target that no longer exists (renamed function, class without the method)
is listed in ``absent`` and its spans read zero; that is not an error.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.absent: list[str] = []
        self._stack = [-1]
        self._trial_index = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, span: str) -> int:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        return self._name_ids[span]

    def wrap(self, span: str, fn, before=None, after=None):
        """Return fn wrapped in a span; before(args) runs ahead of the span,
        after(args, result, seconds) once it has closed without raising."""
        nid = self._name_id(span)
        name, parent, trial = self.name, self.parent, self.trial
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            trial.append(self._trial_index)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, end[idx] - start[idx])
            return result

        return traced

    def set_trial(self, index: int) -> None:
        self._trial_index = index

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _package_modules(package: str):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]

    def patch_function(self, module: str, attr: str, span: str,
                       before=None, after=None) -> None:
        """Wrap module.attr at every binding site inside its package."""
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(span, original, before, after)
        for m in self._package_modules(module.split(".")[0]):
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, key, value))
                    setattr(m, key, wrapper)

    def patch_methods(self, modules: tuple[str, ...], method: str, span: str,
                      classes: tuple[str, ...] = (), before=None,
                      after=None) -> None:
        """Wrap `method` on each class defined in `modules` (or only the
        named classes) whose own namespace defines it; inherited copies are
        covered by the patch on the defining class."""
        found = False
        for module in modules:
            mod = sys.modules.get(module)
            for obj in list(vars(mod).values()) if mod else ():
                if not isinstance(obj, type) or obj.__module__ != module:
                    continue
                if classes and obj.__name__ not in classes:
                    continue
                original = obj.__dict__.get(method)
                if not callable(original):
                    continue
                found = True
                self._patches.append((obj, method, original))
                setattr(obj, method, self.wrap(span, original, before, after))
        if not found:
            self.absent.append(f"{'/'.join(modules)}: {method}")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - child
        k = len(self.span_names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        return {s: (int(calls[i]), float(self_s[i]))
                for i, s in enumerate(self.span_names)}

    def trials_seen(self) -> int:
        """Distinct trial indices that recorded at least one span."""
        return len(set(self.trial))
