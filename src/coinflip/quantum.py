"""Dense complex linear algebra for dimensions 2-4, Born-rule measurement and
distinguishability primitives.

States and matrices are immutable after construction and validate their own
invariants (normalization, hermiticity, positivity) at build time with an
absolute tolerance of 1e-9. Dimensions never exceed 4, so everything is kept
dense; probabilities on the hot measurement path are computed with plain
Python complex arithmetic, numpy is used where eigenvalues are needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, ProbabilityMismatch, ZeroVector
from .rng import RandomStream

ATOL = 1e-9
_ZERO_TOL = 1e-12
_DIMS = (2, 3, 4)


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
    """Complete orthonormal basis with one outcome label per basis vector."""

    basis: tuple[QuantumState, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "labels", tuple(self.labels))
        dim = self.basis[0].dim
        if len(self.basis) != dim or len(self.labels) != dim:
            raise DimensionMismatch("basis must have exactly dim vectors and labels")
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


@dataclass(frozen=True)
class MeasurementOutcome:
    label: str
    post_state: Optional[QuantumState] = None


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


def measure_projective(state: QuantumState, m: ProjectiveMeasurement,
                       randomness: RandomStream) -> MeasurementOutcome:
    """Born-rule measurement; collapses onto the observed basis vector."""
    probs = m.probabilities(state)
    i = randomness.choice(probs)
    return MeasurementOutcome(m.labels[i], m.basis[i])


def measure_povm(state: DensityMatrix, p: Povm,
                 randomness: RandomStream) -> MeasurementOutcome:
    """Sample a POVM outcome with probability Tr(E_i rho); no post-state."""
    probs = p.probabilities(state)
    i = randomness.choice(probs)
    return MeasurementOutcome(p.labels[i], None)


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
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def steer_epr(keep_basis: ProjectiveMeasurement,
              randomness: RandomStream) -> tuple[int, QuantumState]:
    """Measure one half of a singlet in keep_basis; steer the far half.

    Returns (outcome index, collapsed state of the far qubit). The outcome is
    uniform; the far qubit collapses onto the state orthogonal to the observed
    basis vector, so a later measurement of it in keep_basis is guaranteed to
    give the complementary outcome. The singlet is symmetric under swapping
    the two parties, so either party may be taken as the measuring one.
    """
    if keep_basis.dim != 2:
        raise DimensionMismatch("steer_epr requires a qubit basis")
    joint = _SINGLET.reshape(2, 2)
    conditionals = []
    probs = []
    for u in keep_basis.basis:
        # contract <u| on the measured side
        far = u.vector().conj() @ joint
        probs.append(float(np.vdot(far, far).real))
        conditionals.append(far)
    i = randomness.choice(probs)
    far = conditionals[i] / math.sqrt(probs[i])
    return i, QuantumState(tuple(far))
