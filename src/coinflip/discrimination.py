"""State discrimination beyond minimum-error guessing.

Covers the two measurement styles that trade conclusiveness against
certainty: unambiguous discrimination of a pure-state pair (the
Ivanovic-Dieks-Peres construction for equal priors) and exact outcome
statistics of an arbitrary POVM against a pair of hypotheses.

A POVM is a (k, dim, dim) array of Hermitian PSD elements that sum to the
identity, checked by stats; its last element is the inconclusive outcome.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Family, StateFamily, committed_density
from .errors import DimensionMismatch, ParallelStates
from .quantum import ATOL, _check_density, _check_normalized, _check_positive


@dataclass(frozen=True)
class DiscriminationStats:
    """Exact outcome statistics of a POVM against two equally likely states.

    confidence is the probability that the max-posterior guess is correct
    given a conclusive (not the last) outcome; it defaults to 1/2 when the
    POVM has no conclusive mass at all. per_outcome: (index, p, confidence).
    """

    p_inconclusive: float
    confidence: float
    per_outcome: tuple[tuple[int, float, float], ...]


def usd_pure_pair(s0, s1) -> np.ndarray:
    """Optimal unambiguous discrimination POVM for two pure states, given as
    unit-norm amplitude vectors, equal priors.

    Outcome 0 never fires on s1 and vice versa, and outcome 2 is
    inconclusive; the average conclusive probability is 1 - |<s0|s1>|.
    """
    v0, v1 = np.asarray(s0), np.asarray(s1)
    if v0.shape != v1.shape:
        raise DimensionMismatch("USD of states with different dims")
    _check_normalized(np.stack((v0, v1), 1))
    overlap = abs(np.vdot(v0, v1))
    if overlap > 1.0 - 1e-9:
        raise ParallelStates("states too close for unambiguous discrimination")
    # unit vectors in span{s0, s1} orthogonal to s1 and to s0 respectively
    w0 = v0 - v1 * np.vdot(v1, v0)
    w1 = v1 - v0 * np.vdot(v0, v1)
    w0 = w0 / np.linalg.norm(w0)
    w1 = w1 / np.linalg.norm(w1)
    scale = 1.0 / (1.0 + overlap)
    e0 = scale * np.outer(w0, w0.conj())
    e1 = scale * np.outer(w1, w1.conj())
    return np.stack((e0, e1, np.eye(len(v0)) - e0 - e1))


# Computational-basis POVM unambiguously separating the Ambainis mixtures:
# |1> reveals a=0, |2> reveals a=1, and |0> (shared support) is inconclusive.
COMPUTATIONAL_USD_AMBAINIS = np.array([np.diag(e) for e in np.eye(3)[[1, 2, 0]]])
COMPUTATIONAL_USD_AMBAINIS.flags.writeable = False


def stats(povm, r0, r1) -> DiscriminationStats:
    """Closed-form outcome table of a POVM against density matrices r0, r1
    (equal priors); its last element is the inconclusive outcome."""
    povm = _check_positive(povm, 3, "POVM")
    if not np.allclose(povm.sum(0), np.eye(povm.shape[-1]), atol=ATOL):
        raise ValueError("POVM elements do not sum to identity")
    r0, r1 = _check_density(r0), _check_density(r1)
    if povm.shape[1:] != r0.shape or r0.shape != r1.shape:
        raise DimensionMismatch("POVM/state dimension mismatch")
    probs0, probs1 = (np.einsum("kij,ji->k", povm, r).real for r in (r0, r1))
    conclusive_mass = 0.0
    correct_mass = 0.0
    per_outcome = []
    for i, (q0, q1) in enumerate(zip(probs0[:-1].tolist(), probs1[:-1].tolist())):
        p_out = 0.5 * (q0 + q1)
        p_correct = 0.5 if p_out < 1e-15 else max(q0, q1) / (q0 + q1)
        per_outcome.append((i, p_out, p_correct))
        conclusive_mass += p_out
        correct_mass += 0.5 * max(q0, q1)
    confidence = 0.5 if conclusive_mass < 1e-15 else correct_mass / conclusive_mass
    p_inconclusive = 0.5 * float(probs0[-1] + probs1[-1])
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
