"""State discrimination beyond minimum-error guessing.

Covers the two measurement styles that trade conclusiveness against
certainty: unambiguous discrimination of a pure-state pair (the
Ivanovic-Dieks-Peres construction for equal priors) and exact outcome
statistics of an arbitrary POVM against a pair of hypotheses.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .catalog import Family, StateFamily, committed_density
from .errors import DimensionMismatch, ParallelStates
from .quantum import DensityMatrix, Povm, QuantumState

INCONCLUSIVE = "?"


@dataclass(frozen=True)
class DiscriminationStats:
    """Exact outcome statistics of a POVM against two equally likely states.

    confidence is the probability that the max-posterior guess is correct
    given a conclusive (non-"?") outcome; it defaults to 1/2 when the POVM
    has no conclusive mass at all.
    """

    p_inconclusive: float
    confidence: float
    per_outcome: tuple[tuple[str, float, float], ...]


def usd_pure_pair(s0: QuantumState, s1: QuantumState) -> Povm:
    """Optimal unambiguous discrimination POVM for two pure states, equal priors.

    Outcome "0" never fires on s1 and vice versa; the average conclusive
    probability is 1 - |<s0|s1>|.
    """
    if s0.dim != s1.dim:
        raise DimensionMismatch("USD of states with different dims")
    overlap = abs(s0.overlap(s1))
    if overlap > 1.0 - 1e-9:
        raise ParallelStates("states too close for unambiguous discrimination")
    v0, v1 = s0.vector(), s1.vector()
    # unit vectors in span{s0, s1} orthogonal to s1 and to s0 respectively
    w0 = v0 - v1 * np.vdot(v1, v0)
    w1 = v1 - v0 * np.vdot(v0, v1)
    w0 /= np.linalg.norm(w0)
    w1 /= np.linalg.norm(w1)
    scale = 1.0 / (1.0 + overlap)
    e0 = scale * np.outer(w0, w0.conj())
    e1 = scale * np.outer(w1, w1.conj())
    e_fail = np.eye(s0.dim, dtype=complex) - e0 - e1
    return Povm((e0, e1, e_fail), ("0", "1", INCONCLUSIVE))


@functools.cache
def computational_usd_ambainis() -> Povm:
    """Computational-basis POVM unambiguously separating the Ambainis mixtures.

    |1> reveals a=0, |2> reveals a=1, and |0> (shared support) is inconclusive.
    Built once: every call returns the same (immutable) POVM.
    """
    e = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
    e[0][1, 1] = 1.0  # |1><1|  -> a=0
    e[1][2, 2] = 1.0  # |2><2|  -> a=1
    e[2][0, 0] = 1.0  # |0><0|  -> ?
    return Povm(tuple(e), ("a=0", "a=1", INCONCLUSIVE))


def stats(p: Povm, r0: DensityMatrix, r1: DensityMatrix) -> DiscriminationStats:
    """Closed-form outcome table of POVM p against hypotheses r0, r1 (equal priors)."""
    if p.dim != r0.dim or r0.dim != r1.dim:
        raise DimensionMismatch("POVM/state dimension mismatch")
    probs0 = p.probabilities(r0)
    probs1 = p.probabilities(r1)
    p_inconclusive = 0.0
    conclusive_mass = 0.0
    correct_mass = 0.0
    per_outcome = []
    for label, q0, q1 in zip(p.labels, probs0, probs1):
        p_out = 0.5 * (q0 + q1)
        if label == INCONCLUSIVE:
            p_inconclusive += p_out
            continue
        p_correct = 0.5 if p_out < 1e-15 else max(q0, q1) / (q0 + q1)
        per_outcome.append((label, p_out, p_correct))
        conclusive_mass += p_out
        correct_mass += 0.5 * max(q0, q1)
    confidence = 0.5 if conclusive_mass < 1e-15 else correct_mass / conclusive_mass
    return DiscriminationStats(p_inconclusive, confidence, tuple(per_outcome))


def loss_tolerant_guess_ceiling(alpha2: float, grid: int = 10) -> float:
    """Best conclusive confidence of any diagonal 3-outcome POVM on the
    loss-tolerant commitment pair, by brute-force grid search.

    The committed mixtures commute (both diagonal), so off-diagonal POVM
    structure cannot change any Tr(E rho) and diagonal POVMs exhaust the
    search space. A diagonal POVM {E_0, E_1, E_?} on a qubit is determined by
    the weights (u_i, w_i) of E_i = diag(u_i, w_i), with the columns summing
    to one; both weight pairs are swept over a simplex grid (well over 10^3
    combinations at the default resolution). Used to check the
    no-better-than-Helstrom property of the loss-tolerant commitment.
    """
    family = StateFamily(Family.LOSS_TOLERANT, alpha2)
    d0 = committed_density(family, 0).diagonal()
    d1 = committed_density(family, 1).diagonal()
    steps = [i / grid for i in range(grid + 1)]
    pairs = [(u, v) for u in steps for v in steps if u + v <= 1.0 + 1e-12]
    best = 0.5
    for u0, u1 in pairs:  # weights on |0><0| for outcomes "0" and "1"
        for w0, w1 in pairs:  # weights on |1><1|
            conclusive = 0.0
            correct = 0.0
            for eu, ew in ((u0, w0), (u1, w1)):
                q0 = eu * d0[0] + ew * d0[1]
                q1 = eu * d1[0] + ew * d1[1]
                conclusive += 0.5 * (q0 + q1)
                correct += 0.5 * max(q0, q1)
            if conclusive > 1e-15:
                best = max(best, correct / conclusive)
    return best
