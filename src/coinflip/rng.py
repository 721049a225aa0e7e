"""Seeded, counter-based random streams.

Every stochastic operation in the package consumes a RandomStream explicitly;
there is no hidden global randomness. A stream is keyed by (seed, chunk): the
seed is the Philox key and the chunk index sits in the high 128 bits of the
256-bit Philox counter (Salmon et al., "Parallel Random Numbers: As Easy as
1, 2, 3", SC'11), so the streams of different chunks never overlap and each
is reproducible on its own, in any order.

Uniforms are generated a block at a time and every draw consumes exactly
one of them, so the n-th draw of a stream is the same whichever draw methods
came before it.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ProbabilityMismatch

_PROB_TOL = 1e-9
_BLOCK = 256
_CHUNK_SHIFT = 128  # chunk index -> counter words 2 and 3


class RandomStream:
    """Deterministic random source: one Philox stream per (seed, chunk)."""

    def __init__(self, seed: int, chunk: int = 0):
        self._gen = np.random.Generator(
            np.random.Philox(key=seed, counter=chunk << _CHUNK_SHIFT))
        self._next = iter(()).__next__

    def _uniform(self) -> float:
        try:
            return self._next()
        except StopIteration:
            self._next = iter(self._gen.random(_BLOCK).tolist()).__next__
            return self._next()

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._uniform()

    def bit(self) -> int:
        return 1 if self._uniform() < 0.5 else 0

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self._uniform() * n)

    def bernoulli(self, p: float) -> bool:
        return self._uniform() < p

    def sign(self) -> int:
        """Uniform +1 / -1."""
        return 1 if self._uniform() < 0.5 else -1

    def choice(self, probs: Sequence[float]) -> int:
        """Sample an index from a probability vector (must sum to 1)."""
        total = 0.0
        for p in probs:
            if p < -_PROB_TOL:
                raise ProbabilityMismatch(f"negative probability {p}")
            total += max(p, 0.0)
        if abs(total - 1.0) > 1e-6:
            raise ProbabilityMismatch(f"probabilities sum to {total}")
        u = self._uniform() * total
        acc = 0.0
        for i, p in enumerate(probs):
            acc += max(p, 0.0)
            if u < acc:
                return i
        return len(probs) - 1
