"""Seeded uniforms for the batch engine, one block per step, and the draws
made from them.

There is no hidden global randomness: every draw reads uniforms from a
ChunkStream. Trials run in chunks, and the trials of a chunk that are still
pending run their next attempts together in steps. Step s of chunk k reads one
block of uniforms from the start of PCG64DXSM(seed).jumped((k << 32) | s)
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905, with numpy's
DXSM output). Jump j advances by j times the golden-ratio share of 2**128,
which spreads the blocks over the period where power-of-two offsets would
leave their states agreeing in their low bits, so blocks never overlap and
each is reproducible on its own, in any order.

A block has shape (pending trials, attempts, SLOTS): one row of SLOTS
uniforms per (trial, attempt) pair. An attempt is one round, or, for a Bob
who restarts on every lost round, a run of lost rounds and the round that
arrives; the channel's two rules read the TRANSMIT uniform either way (see
channel). Each draw site of an attempt owns fixed columns of its row
(PREPARE, TRANSMIT, RECEIVE, CHOOSE_B, REVEAL, VERIFY); every site runs on
every attempt, and every draw maps exactly one uniform, so what one site
draws never shifts another site's uniforms. Hooks (see protocols) get their
own columns as arrays, one entry per attempt, and return arrays; they keep
no state across rounds, so the attempts of a step are independent.

Every draw from a probability vector takes one inverse-CDF path:
cumulative checks the vectors and gives their cumulative sums, and
inverse_cdf compares each uniform against them. choice does both per call;
a caller who draws from fixed distributions again and again (an honest
Alice's x, a receiver's Born table, see quantum.born_table) runs cumulative
once and only inverse_cdf per draw.
"""
from __future__ import annotations

import numpy as np

from .errors import ProbabilityMismatch

_PROB_TOL = 1e-9
# PCG64DXSM.jumped(j) advances j times this, the golden-ratio share of 2**128
_JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835
_PERIOD = 1 << 128

# Columns of a block row, one set per draw site of an attempt.
PREPARE = slice(0, 2)
TRANSMIT = 2
RECEIVE = slice(3, 7)
CHOOSE_B = 7
REVEAL = 8
VERIFY = 9
SLOTS = 10


class ChunkStream:
    """The uniforms of one chunk: block(s, shape) is the start of the stream
    PCG64DXSM(seed).jumped((chunk << 32) | s), for steps s < 2**32. The
    stream owns one bit generator, restores its seeded state and advances it
    for each step, which gives the same uniforms as jumped() at a fraction
    of the cost of building a new generator."""

    def __init__(self, seed: int, chunk: int = 0):
        self._bits = np.random.PCG64DXSM(seed)
        self._gen = np.random.Generator(self._bits)
        self._state = self._bits.state
        self._chunk = chunk << 32

    def block(self, step: int, shape) -> np.ndarray:
        """Uniforms in [0, 1) of the given shape for step `step`."""
        self._bits.state = self._state
        self._bits.advance((self._chunk | step) * _JUMP % _PERIOD)
        return self._gen.random(shape)


def bit(u: np.ndarray) -> np.ndarray:
    """Uniform 0 / 1 per uniform."""
    return (u < 0.5).astype(np.intp)


def sign(u: np.ndarray) -> np.ndarray:
    """Uniform +1 / -1 per uniform."""
    return np.where(u < 0.5, 1, -1)


def randint(n: int, u: np.ndarray) -> np.ndarray:
    """Uniform integer in [0, n) per uniform."""
    return (u * n).astype(np.intp)


def bernoulli(p: float, u: np.ndarray) -> np.ndarray:
    return u < p


def cumulative(probs) -> tuple[np.ndarray, np.ndarray]:
    """The checked cumulative form (cdf, total) of probability vectors, which
    inverse_cdf draws from. probs is one vector (k,), taken as one column, or
    (k, n) with one vector per column; cdf holds the first k - 1 cumulative
    sums and total the sum of each column. Each vector must have no entry
    below -1e-9 and sum to 1 within 1e-6 (ProbabilityMismatch)."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim == 1:
        probs = probs[:, None]  # one column, broadcast over the uniforms
    if (probs < -_PROB_TOL).any():
        raise ProbabilityMismatch(f"negative probability {probs.min()}")
    probs = np.maximum(probs, 0.0)
    total = probs.sum(0)
    off = np.abs(total - 1.0) > 1e-6
    if off.any():
        raise ProbabilityMismatch(
            f"probabilities sum to {np.extract(off, total)[0]}")
    return np.cumsum(probs[:-1], 0), total


def inverse_cdf(cdf: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per uniform by inverse CDF over cumulative(probs): the first
    i with u * total < cdf[i], or the last index if none is. Column j of cdf
    and entry j of total belong to uniform j, or one column to all."""
    return (cdf <= u * total).sum(0)


def choice(probs, u: np.ndarray) -> np.ndarray:
    """Sample one index per uniform by inverse CDF. probs is one probability
    vector (k,) for every uniform, or (k, n) with column j for uniform j,
    checked as cumulative checks it."""
    return inverse_cdf(*cumulative(probs), u)
