"""Dense complex linear algebra for dimensions 2-4, Born-rule measurement and
distinguishability primitives.

States, density matrices and POVMs are plain ndarrays, which no class wraps:
each function checks the arrays it is given (unit norm; Hermitian, PSD, unit
trace) with an absolute tolerance of 1e-9. Dimensions never exceed 4, so
everything is kept dense.

Measurements run on batches: a batch of n pure states is a (dim, n) array
whose column j holds the amplitudes of state j. Every measurement takes a
stack (k, dim, dim) of bases, row i of basis b the bra <b_i|, and a basis
index per state or one int for all. One Born arithmetic (_born: the
cumulative Born probabilities |<b_i|psi>|^2 of each state in each basis) and
one draw (_draw: check the basis indices, gather each state's column, inverse
CDF of one uniform) serve every measurement: measure_projective on its own
batch, measure_table on a fixed state table (born_table, kept by content),
steer_epr on the outcome weights of a singlet's measured half.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ProbabilityMismatch
from .rng import cumulative, inverse_cdf

ATOL = 1e-9
_DIMS = (2, 3, 4)
BORN_TABLES = 64  # Born tables kept; the least recently used goes first


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real ** 2 + a.imag ** 2 if a.dtype.kind == "c" else a * a


def _check_normalized(amplitudes: np.ndarray) -> None:
    norm2 = _abs2(amplitudes).sum(0)
    off = np.abs(norm2 - 1.0) > ATOL
    if off.any():
        raise ValueError(
            f"state not normalized: |psi|^2 = {np.extract(off, norm2)[0]}")


def _check_positive(ops, ndim: int, what: str) -> np.ndarray:
    """ops as an array, if it has ndim axes and its last two hold Hermitian
    matrices of dimension 2-4 with no eigenvalue below -ATOL."""
    ops = np.asarray(ops)
    if ops.ndim != ndim or ops.shape[-2] != ops.shape[-1] or ops.shape[-1] not in _DIMS:
        raise DimensionMismatch(f"bad {what} shape {ops.shape}")
    if not np.allclose(ops, np.swapaxes(ops, -1, -2).conj(), atol=ATOL):
        raise ValueError(f"{what} not Hermitian")
    if np.linalg.eigvalsh(ops).min() < -ATOL:
        raise ValueError(f"{what} not positive semidefinite")
    return ops


def _check_density(rho) -> np.ndarray:
    """rho as an array, if it is a density matrix: Hermitian and PSD as
    _check_positive asks, with unit trace."""
    rho = _check_positive(rho, 2, "density matrix")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > ATOL or abs(trace.imag) > ATOL:
        raise ValueError(f"density matrix trace {trace} != 1")
    return rho


def mix(weights: Sequence[float], states) -> np.ndarray:
    """sum_i p_i |psi_i><psi_i| for the unit-norm rows |psi_i> of states
    (n, dim), laid out as basis_pair's rows (ValueError otherwise), and one
    weight p_i >= 0 per state, summing to 1 (ProbabilityMismatch)."""
    weights, states = np.asarray(weights, dtype=float), np.asarray(states)
    total = weights.sum()
    if (states.ndim != 2 or weights.shape != states.shape[:1]
            or (weights < -ATOL).any() or abs(total - 1.0) > ATOL):
        raise ProbabilityMismatch(f"weights sum to {total} for states {states.shape}")
    _check_normalized(states.T)
    return (weights[:, None] * states).T @ states.conj()


def _born(states: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """The Born table of the columns of states (dim, m), each normalized
    within ATOL (ValueError), in each basis of the stack bras (k, dim, dim)
    (DimensionMismatch). Column c * k + b belongs to column c in basis b: its
    rows are the cumulative sums and then the total that rng.cumulative gives
    for the Born probabilities."""
    if bras.ndim != 3:
        raise DimensionMismatch(f"bases {bras.shape} are not a (k, dim, dim) stack")
    _check_normalized(states)
    probs = _abs2(bras @ states).transpose(1, 2, 0).reshape(bras.shape[1], -1)
    return np.vstack(cumulative(probs))


def _draw(table: np.ndarray, index: np.ndarray, bras: np.ndarray, u: np.ndarray,
          which: int | np.ndarray) -> np.ndarray:
    """One outcome per uniform u[j], drawn from column index[j] * k + which[j]
    (or + which, for an int) of a table laid out as _born's for the k bases
    of bras. ValueError unless every basis index lies in [0, k)."""
    k = len(bras)
    # an int directly (True is basis 1, as numpy reads it); an array in one
    # reduction, read as unsigned so that a negative index is past the range
    if (not 0 <= which < k if isinstance(which, int)
            else np.asarray(which, np.intp).view(np.uintp).max(initial=0) >= k):
        raise ValueError(f"basis index not in [0, {k})")
    drawn = table.take(index * k + which, 1)
    return inverse_cdf(drawn[:-1], drawn[-1], u)


def measure_projective(amplitudes: np.ndarray, bras: np.ndarray, u: np.ndarray,
                       which: int | np.ndarray) -> np.ndarray:
    """Born-rule measurement of a batch of states (dim, n), one per column,
    each normalized within ATOL (ValueError): state j is measured in basis
    bras[which[j]] of the stack bras (k, dim, dim), or bras[which] for an int
    which, drawn by u[j] from the batch's own Born table. Returns one outcome
    index per state."""
    index = np.arange(amplitudes.shape[-1])
    return _draw(_born(amplitudes, bras), index, bras, u, which)


def measure_table(states: np.ndarray, index: np.ndarray, bras: np.ndarray,
                  u: np.ndarray, which: int | np.ndarray) -> np.ndarray:
    """measure_projective(states[:, index], bras, u, which), bit for bit, by
    the same _draw from the shared born_table of states: one gather and one
    comparison per state. A state index past the table raises IndexError."""
    return _draw(born_table(states, bras), index, bras, u, which)


def born_table(states: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """The Born table of the columns of states (dim, m) in each basis of the
    stack bras (k, dim, dim), checked and laid out as _born gives it, and
    read-only. Tables are kept by content, at most BORN_TABLES of them, so
    equal arrays, views included, share one table."""
    return _born_table(*(a.shape + (a.dtype.str, a.tobytes()) for a in (states, bras)))


@lru_cache(maxsize=BORN_TABLES)
def _born_table(states_key: tuple, bras_key: tuple) -> np.ndarray:
    table = _born(*(np.frombuffer(key[-1], key[-2]).reshape(key[:-2])
                    for key in (states_key, bras_key)))
    table.flags.writeable = False  # shared by every caller
    return table


def trace_distance(r0, r1) -> float:
    """(1/2) Tr|r0 - r1| via eigenvalues of the Hermitian difference, for two
    density matrices of one dimension (checked as _check_density does)."""
    r0, r1 = _check_density(r0), _check_density(r1)
    if r0.shape != r1.shape:
        raise DimensionMismatch("trace distance of different dims")
    eigs = np.linalg.eigvalsh(r0 - r1)
    return float(0.5 * np.abs(eigs).sum())


def helstrom_success(r0, r1) -> float:
    """Best achievable guessing probability for equal priors: 1/2 + D/2."""
    return 0.5 + 0.5 * trace_distance(r0, r1)


# Singlet (|01> - |10>)/sqrt(2), the only entangled state the package needs.
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def steer_epr(bras: np.ndarray, u: np.ndarray,
              which: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure one half of a singlet per uniform; steer the far halves.

    bras is a stack (k, 2, 2) of qubit bases (DimensionMismatch otherwise),
    and pair j is measured in bras[which[j]], checked as in measure_projective.
    The outcome weights and collapsed far halves are computed once per basis;
    _draw picks the outcomes. Returns (outcome indices, far states as a (2, n)
    batch). The outcome is uniform; the far qubit collapses onto the state
    orthogonal to the observed basis vector, so a later measurement of it in
    the same basis is guaranteed to give the complementary outcome. The
    singlet is symmetric under swapping the two parties, so either party may
    be taken as the measuring one.
    """
    if bras.ndim != 3 or bras.shape[1:] != (2, 2):
        raise DimensionMismatch(f"steer_epr needs a (k, 2, 2) stack, got {bras.shape}")
    # far[b, i] contracts <b_i| on the measured side: the far half, unnormalized
    far = bras @ _SINGLET.reshape(2, 2)
    probs = _abs2(far).sum(-1)
    i = _draw(np.vstack(cumulative(probs.T)), np.zeros(len(u), np.intp), bras, u, which)
    return i, (far / np.sqrt(probs)[..., None])[which, i].T
