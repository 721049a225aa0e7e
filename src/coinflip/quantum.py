"""Dense complex linear algebra for dimensions 2-4, Born-rule measurement and
distinguishability primitives.

States and matrices are immutable after construction and validate their own
invariants (normalization, hermiticity, positivity) at build time with an
absolute tolerance of 1e-9. Dimensions never exceed 4, so everything is kept
dense.

Measurements run on batches: a batch of n pure states is a (dim, n) array
whose column j holds the amplitudes of state j, and one uniform per state
picks the outcome by inverse CDF over the Born probabilities |<b_i|psi>|^2.
When the states are columns of a fixed table, measure_table draws from the
table's Born probabilities in each basis, computed once (born_table) with
measure_projective's arithmetic, so both give the same outcome per uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ProbabilityMismatch, ZeroVector
from .rng import choice, cumulative, inverse_cdf

ATOL = 1e-9
_ZERO_TOL = 1e-12
_DIMS = (2, 3, 4)
BORN_TABLES = 64  # Born tables kept; the least recently used goes first


@dataclass(frozen=True)
class QuantumState:
    """Pure state: a normalized complex amplitude vector of dimension 2-4."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        if len(self.amplitudes) not in _DIMS:
            raise DimensionMismatch(f"dimension {len(self.amplitudes)} not in {_DIMS}")
        object.__setattr__(self, "amplitudes", tuple(complex(a) for a in self.amplitudes))
        norm2 = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(norm2 - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def overlap(self, other: "QuantumState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch("overlap of states with different dims")
        return sum(a.conjugate() * b for a, b in zip(self.amplitudes, other.amplitudes))

    def fidelity_with(self, other: "QuantumState") -> float:
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit-trace, PSD matrix of dimension 2-4."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in _DIMS:
            raise DimensionMismatch(f"bad density matrix shape {m.shape}")
        if not np.allclose(m, m.conj().T, atol=ATOL):
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > ATOL or abs(np.trace(m).imag) > ATOL:
            raise ValueError(f"density matrix trace {np.trace(m)} != 1")
        if np.linalg.eigvalsh(m).min() < -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Complete orthonormal basis; outcome i is basis vector i."""

    basis: tuple[QuantumState, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        dim = self.basis[0].dim
        if len(self.basis) != dim:
            raise DimensionMismatch("basis must have exactly dim vectors")
        for i, u in enumerate(self.basis):
            if u.dim != dim:
                raise DimensionMismatch("mixed dimensions in basis")
            for v in self.basis[i + 1:]:
                if abs(u.overlap(v)) > ATOL:
                    raise ValueError("basis vectors not orthogonal")

    @property
    def dim(self) -> int:
        return self.basis[0].dim

    def probabilities(self, state: QuantumState) -> list[float]:
        if state.dim != self.dim:
            raise DimensionMismatch("state/measurement dimension mismatch")
        return [abs(u.overlap(state)) ** 2 for u in self.basis]

    @cached_property
    def bras(self) -> np.ndarray:
        """(dim, dim) read-only matrix whose row i is <b_i|, so that
        bras @ amplitudes holds the outcome amplitudes of a batch."""
        bras = as_columns(self.basis).conj().T
        bras.flags.writeable = False
        return bras


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure; label \"?\" marks an inconclusive outcome."""

    elements: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        elems = tuple(np.array(e, dtype=complex) for e in self.elements)
        for e in elems:
            e.flags.writeable = False
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(elems) != len(self.labels):
            raise ValueError("one label per POVM element required")
        dim = elems[0].shape[0]
        if dim not in _DIMS:
            raise DimensionMismatch(f"POVM dimension {dim} not in {_DIMS}")
        total = np.zeros((dim, dim), dtype=complex)
        for e in elems:
            if e.shape != (dim, dim):
                raise DimensionMismatch("POVM elements of mixed shape")
            if not np.allclose(e, e.conj().T, atol=ATOL):
                raise ValueError("POVM element not Hermitian")
            if np.linalg.eigvalsh(e).min() < -ATOL:
                raise ValueError("POVM element not positive semidefinite")
            total += e
        if not np.allclose(total, np.eye(dim), atol=ATOL):
            raise ValueError("POVM elements do not sum to identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def probabilities(self, rho: DensityMatrix) -> list[float]:
        if rho.dim != self.dim:
            raise DimensionMismatch("state/POVM dimension mismatch")
        return [float(np.trace(e @ rho.entries).real) for e in self.elements]


def normalize(amplitudes: Sequence[complex]) -> QuantumState:
    """Scale a nonzero amplitude vector to unit norm (direction preserved)."""
    amps = [complex(a) for a in amplitudes]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if norm < _ZERO_TOL:
        raise ZeroVector("cannot normalize the zero vector")
    return QuantumState(tuple(a / norm for a in amps))


def density_of(state: QuantumState) -> DensityMatrix:
    """Outer product |psi><psi|."""
    v = state.vector()
    return DensityMatrix(np.outer(v, v.conj()))


def mix(ensemble: Sequence[tuple[float, QuantumState]]) -> DensityMatrix:
    """Convex mixture sum_i p_i |psi_i><psi_i| of same-dimension pure states."""
    if not ensemble:
        raise ProbabilityMismatch("empty ensemble")
    total = sum(p for p, _ in ensemble)
    if any(p < -ATOL for p, _ in ensemble) or abs(total - 1.0) > ATOL:
        raise ProbabilityMismatch(f"ensemble weights sum to {total}")
    dim = ensemble[0][1].dim
    m = np.zeros((dim, dim), dtype=complex)
    for p, s in ensemble:
        if s.dim != dim:
            raise DimensionMismatch("mixed dimensions in ensemble")
        v = s.vector()
        m += p * np.outer(v, v.conj())
    return DensityMatrix(m)


def as_columns(states: Sequence[QuantumState]) -> np.ndarray:
    """The states' amplitudes as the columns of a read-only (dim, len(states))
    array; real-valued when every amplitude is real."""
    m = np.array([s.amplitudes for s in states], dtype=complex).T
    if not m.imag.any():
        m = m.real.copy()
    m.flags.writeable = False
    return m


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real ** 2 + a.imag ** 2 if a.dtype.kind == "c" else a * a


def _check_normalized(amplitudes: np.ndarray) -> None:
    norm2 = _abs2(amplitudes).sum(0)
    off = np.abs(norm2 - 1.0) > ATOL
    if off.any():
        raise ValueError(
            f"state not normalized: |psi|^2 = {np.extract(off, norm2)[0]}")


def measure_projective(amplitudes: np.ndarray, bras: np.ndarray, u: np.ndarray,
                       which: Optional[np.ndarray] = None) -> np.ndarray:
    """Born-rule measurement of a batch of states; returns one outcome index
    per state.

    amplitudes is (dim, n) with one state per column, each normalized within
    ATOL (ValueError otherwise). bras is one basis (dim, dim), as
    ProjectiveMeasurement.bras, or a stack (k, dim, dim) of bases of which
    state j is measured in bras[which[j]]. u holds one uniform per state.
    """
    _check_normalized(amplitudes)
    outcome = bras @ amplitudes
    if which is not None:
        outcome = np.choose(which, outcome)
    return choice(_abs2(outcome), u)


def measure_table(states: np.ndarray, index: np.ndarray, bras: np.ndarray,
                  u: np.ndarray, which: Optional[np.ndarray] = None) -> np.ndarray:
    """measure_projective(states[:, index], bras, u, which), bit for bit,
    drawn from the Born table of states in bras: one gather and one
    comparison per state. A basis index outside the stack raises ValueError,
    a state index past the table IndexError."""
    table, bases = born_table(states, bras)
    if which is None:
        if bases > 1:
            raise ValueError("a stack of bases needs one basis index per state")
        col = index
    else:
        # one reduction: read as unsigned, a negative index is past the range
        if np.asarray(which, np.intp).view(np.uintp).max(initial=0) >= bases:
            raise ValueError(f"basis index not in [0, {bases})")
        col = index * bases + which
    drawn = table.take(col, 1)  # IndexError for a column past the table
    return inverse_cdf(drawn[:-1], drawn[-1], u)


def born_table(states: np.ndarray, bras: np.ndarray) -> tuple[np.ndarray, int]:
    """The Born table of the columns of states (dim, m) in one basis
    (dim, dim) or in each basis of a stack (bases, dim, dim), and the number
    of bases. Column c * bases + b of the table belongs to column c measured
    in basis b: its rows are the cumulative sums and then the total that
    rng.cumulative gives for the Born probabilities, the form
    rng.inverse_cdf draws from. Every column must be normalized within ATOL
    (ValueError). Tables are kept by content, at most BORN_TABLES of them,
    so equal arrays, views included, share one table."""
    return _born_table(*(a.shape + (a.dtype.str, a.tobytes()) for a in (states, bras)))


@lru_cache(maxsize=BORN_TABLES)
def _born_table(states_key: tuple, bras_key: tuple) -> tuple[np.ndarray, int]:
    states, bras = (np.frombuffer(key[-1], key[-2]).reshape(key[:-2])
                    for key in (states_key, bras_key))
    _check_normalized(states)
    stack = bras.reshape(-1, *bras.shape[-2:])
    # measure_projective's arithmetic on every (basis, column) pair at once
    probs = _abs2(stack @ states).transpose(1, 2, 0).reshape(stack.shape[1], -1)
    cdf, total = cumulative(probs)
    table = np.vstack((cdf, total))
    table.flags.writeable = False  # shared by every caller
    return table, len(stack)


def trace_distance(r0: DensityMatrix, r1: DensityMatrix) -> float:
    """(1/2) Tr|r0 - r1| via eigenvalues of the Hermitian difference."""
    if r0.dim != r1.dim:
        raise DimensionMismatch("trace distance of different dims")
    eigs = np.linalg.eigvalsh(r0.entries - r1.entries)
    return float(0.5 * np.abs(eigs).sum())


def helstrom_success(r0: DensityMatrix, r1: DensityMatrix) -> float:
    """Best achievable guessing probability for equal priors: 1/2 + D/2."""
    return 0.5 + 0.5 * trace_distance(r0, r1)


# Singlet (|01> - |10>)/sqrt(2), the only entangled state the package needs.
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def steer_epr(bras: np.ndarray, u: np.ndarray,
              which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure one half of a singlet per uniform; steer the far halves.

    bras is a stack (k, 2, 2) of qubit bases, and pair j is measured in
    bras[which[j]], as in measure_projective. Returns
    (outcome indices, far states as a (2, n) batch). The outcome is uniform;
    the far qubit collapses onto the state orthogonal to the observed basis
    vector, so a later measurement of it in the same basis is guaranteed to
    give the complementary outcome. The singlet is symmetric under swapping
    the two parties, so either party may be taken as the measuring one.
    """
    if bras.shape[-1] != 2:
        raise DimensionMismatch("steer_epr requires a qubit basis")
    # row i of bras @ joint contracts <b_i| on the measured side
    far = (bras @ _SINGLET.reshape(2, 2))[which]
    probs = _abs2(far).sum(-1)
    i = choice(probs.T, u)
    rows = np.arange(len(u))
    return i, (far[rows, i] / np.sqrt(probs[rows, i])[:, None]).T
