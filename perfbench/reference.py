"""Reference work that puts timings on a scale the host's speed does not move.

A shared host can run for seconds to minutes at a time at a much lower speed
(on the 2-vCPU VM the benchmark was tuned on, 1.5-2x slower, in phases of
seconds to over a minute), and a whole run can fall into one phase. The
benchmark therefore times every set-up and pass between two runs of this
fixed work and scales the section's time by REF_S / (their mean time). The
result, in reference seconds, is the time the section would take on a host
that runs the reference work in REF_S seconds; the host's phases cancel, the
program's own speed does not.

The work mixes what the package's hot paths do: seeding a numpy generator
from a SeedSequence, scalar draws, frozen dataclasses, Python complex
arithmetic and small numpy arrays. It imports nothing from the package, so no
change to the package moves it.
"""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

REF_N = 250
# Time of reference_work(REF_N) at the fast phase of the tuning host (2-vCPU
# x86-64 VM, Python 3.11.7, numpy single-threaded): the scale's unit.
REF_S = 0.0085


@dataclass(frozen=True)
class _Pair:
    a: complex
    b: complex


def reference_work(n: int = REF_N) -> float:
    acc = 0.0
    m = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    for i in range(n):
        gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(12345, spawn_key=(i,))))
        for _ in range(8):
            u = float(gen.random())
            s = _Pair(complex(math.cos(u), 0.0), cmath.exp(1j * u) * math.sin(u))
            p = abs(s.a * 0.6 + s.b * 0.8) ** 2
            acc += p if u < 0.5 else -p
        w = m @ np.array([s.a, s.b])
        acc += float(np.vdot(w, w).real)
        if i % 16 == 0:
            acc += float(np.linalg.eigvalsh(m).min())
    return acc


def _reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class ReferenceClock:
    """Times sections back to back, each between two runs of the reference
    work; `time` returns (wall seconds, reference seconds, result)."""

    def __init__(self):
        reference_work(10)  # warm-up
        self._before = _reference_seconds()

    def time(self, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = _reference_seconds()
        scale = REF_S / (0.5 * (self._before + after))
        self._before = after
        return wall, wall * scale, out
