"""Seeded uniforms for the batch engine, one block per step, and the draws
made from them.

There is no hidden global randomness: every draw reads uniforms from block.
Trials run in chunks of CHUNK, and the trials of a chunk that are still
pending run their next attempts together in steps. Step s of chunk k reads one
block of uniforms from the start of PCG64DXSM(seed).jumped((k << 32) | s)
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", HMC-CS-2014-0905, with numpy's
DXSM output). Jump j advances by j times the golden-ratio share of 2**128,
which spreads the blocks over the period where power-of-two offsets would
leave their states agreeing in their low bits, so blocks never overlap and
each is reproducible on its own, in any order.

A process seeds one bit generator per seed, kept in a bounded cache of
SEEDS with the offset it has reached, and shares it between every chunk,
config and grid point run with that seed. One float64 uniform consumes one
64-bit output, and PCG jumps compose exactly, so block positions the
generator at ((k << 32) | s) times the jump with one advance by the
distance from its offset, modulo 2**128, and draws. The advance, the draw
and the new offset are one step under the module lock, so two threads never
draw from a position the other one set; the uniforms are those jumped()
gives, at a fraction of the cost of a new generator.

One engine call runs consecutive chunks together, from a first chunk on,
and rows gives the rows of one of its steps: each chunk's own block, drawn
for that chunk's pending trials in chunk order, so the rows of a trial do
not depend on which chunks share its engine call. Several chunks' blocks are
drawn straight into their slices of one array, with no concatenation.

A block has shape (pending trials, attempts, SLOTS): one row of SLOTS
uniforms per (trial, attempt) pair. An attempt is one round, or, for a Bob
who restarts on every lost round, a run of lost rounds and the round that
arrives; the channel's two rules read the TRANSMIT uniform either way (see
channel). Each of the five draw sites of an attempt owns fixed columns of
its row (PREPARE, TRANSMIT, RECEIVE, REVEAL, VERIFY), and RECEIVE's last
column is b's; every site runs on every attempt, and every draw maps
exactly one uniform, so what one site draws never shifts another site's
uniforms. Hooks (see protocols) get their
own columns as arrays, one entry per attempt, and return arrays; they keep
no state across rounds, so the attempts of a step are independent.

Three helpers map uniforms to draws, and no other module compares a
uniform: bit, bernoulli and steps (the channel's lost_rounds aside, see
channel). Every draw from a probability vector takes the one inverse-CDF
path: cumulative checks the vectors and gives their cumulative sums, steps
compares each uniform against them, and inverse_cdf counts the steps each
uniform passes. A sender's weights are checked once per table and kept with
it (see strategies.TableAlice), and every quantum measurement draws from a
Born table in the same form (see quantum).
"""
from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .errors import ProbabilityMismatch

_PROB_TOL = 1e-9
# PCG64DXSM.jumped(j) advances j times this, the golden-ratio share of 2**128
_JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835
_PERIOD = 1 << 128

# Columns of a block row, one set per draw site of an attempt.
PREPARE = slice(0, 2)
TRANSMIT = 2
RECEIVE = slice(3, 8)  # its last column is b's
REVEAL = 8
VERIFY = 9
SLOTS = 10

CHUNK = 1024  # trials per chunk, each on its own blocks
SEEDS = 8  # seeded generators kept; the least recently used goes first
_LOCK = threading.Lock()  # held from positioning a generator to its new offset


@lru_cache(maxsize=SEEDS)
def _seeded(seed: int) -> tuple:
    """A seed's bit generator, its Generator and a one-item list holding the
    offset, in outputs from the seeded state, that the generator stands at."""
    bits = np.random.PCG64DXSM(seed)
    return bits, np.random.Generator(bits), [0]


def block(seed: int, chunk: int, step: int, shape) -> np.ndarray:
    """Uniforms in [0, 1) of the given shape for step `step` of chunk
    `chunk`: the start of PCG64DXSM(seed).jumped((chunk << 32) | step), for
    steps below 2**32."""
    return _fill(seed, chunk, step, np.empty(shape))


def _fill(seed: int, chunk: int, step: int, out: np.ndarray) -> np.ndarray:
    """block(seed, chunk, step, out.shape), drawn into out (C-contiguous
    float64) and returned. The offset is the block's start during the draw,
    which consumes nothing if Generator.random refuses out, and its end after."""
    bits, gen, offset = _seeded(seed)
    start = ((chunk << 32) | step) * _JUMP
    with _LOCK:
        bits.advance((start - offset[0]) % _PERIOD)
        offset[0] = start
        gen.random(out=out)
        offset[0] = start + out.size
    return out


def rows(seed: int, chunk: int, step: int, pending: np.ndarray,
         depth: int) -> np.ndarray:
    """Step `step` for the trials `pending` (ascending) of the chunks from
    `chunk` on, depth attempts each: trial i is trial i % CHUNK of chunk
    chunk + i // CHUNK. Every chunk's block (its pending trials, depth,
    SLOTS), in chunk order, as one (pending, depth, SLOTS) array."""
    if pending[-1] < CHUNK:  # one chunk, one block
        return block(seed, chunk, step, (pending.size, depth, SLOTS))
    out, start = np.empty((pending.size, depth, SLOTS)), 0
    for k, n in enumerate(np.bincount(pending // CHUNK).tolist()):
        if n:  # a run of rows of a C-contiguous array is C-contiguous
            _fill(seed, chunk + k, step, out[start:start + n])
            start += n
    return out


def bit(u: np.ndarray) -> np.ndarray:
    """Uniform 0 / 1 per uniform."""
    return (u < 0.5).astype(np.intp)


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


def steps(cdf: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf <= u * total: for each cumulative sum of cumulative(probs), whether
    the uniform has passed it. Column j of cdf and entry j of total belong to
    uniform j, or one column to all."""
    return cdf <= u * total


def inverse_cdf(cdf: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per uniform by inverse CDF over cumulative(probs): the first
    i with u * total < cdf[i], or the last index if none is, as
    steps(cdf, total, u) counts them."""
    return np.add.reduce(steps(cdf, total, u), 0)  # the ufunc: no method wrapper
