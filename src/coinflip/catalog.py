"""Named state families used by the protocols.

Four families are provided, each indexed by a basis bit ``a`` and a bit
(or trit) ``x``:

* BB84           - the four conjugate-basis qubit states.
* AMBAINIS       - the four qutrit states (|0> +/- |1>)/sqrt2, (|0> +/- |2>)/sqrt2.
* LOSS_TOLERANT  - the alpha/beta qubit states grouped by x, parameterized by
                   alpha^2 in (1/2, 1) with beta^2 = 1 - alpha^2.
* MCQM_EXAMPLE   - the Ambainis states extended with x=2 states |2> and |1>,
                   drawn with weights (0.49, 0.49, 0.02).

All amplitudes are real; construction still goes through the complex
QuantumState type for uniformity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InvalidLabel, OutOfRange
from .quantum import DensityMatrix, ProjectiveMeasurement, QuantumState


class Family(Enum):
    BB84 = "bb84"
    AMBAINIS = "ambainis"
    LOSS_TOLERANT = "loss_tolerant"
    MCQM_EXAMPLE = "mcqm_example"


@dataclass(frozen=True)
class StateFamily:
    """A family tag plus, for LOSS_TOLERANT, the alpha^2 parameter."""

    family: Family
    alpha2: Optional[float] = None

    def __post_init__(self):
        if self.family is Family.LOSS_TOLERANT:
            if self.alpha2 is None or not (0.5 < self.alpha2 < 1.0):
                raise OutOfRange("LOSS_TOLERANT requires 1/2 < alpha2 < 1")
        elif self.alpha2 is not None:
            raise InvalidLabel(f"{self.family.value} takes no alpha2 parameter")

    @property
    def dim(self) -> int:
        return 2 if self.family in (Family.BB84, Family.LOSS_TOLERANT) else 3

    @property
    def x_values(self) -> tuple[int, ...]:
        return (0, 1, 2) if self.family is Family.MCQM_EXAMPLE else (0, 1)

    @property
    def x_weights(self) -> tuple[float, ...]:
        if self.family is Family.MCQM_EXAMPLE:
            return (0.49, 0.49, 0.02)
        return (0.5, 0.5)


@dataclass(frozen=True)
class StateLabel:
    a: int
    x: int

    def __post_init__(self):
        if self.a not in (0, 1):
            raise InvalidLabel(f"basis label a={self.a}")


_SQ2 = 1.0 / math.sqrt(2.0)
FAMILIES = 64  # families each cache holds (an alpha2 grid); least recent goes first


def _alpha_beta(family: StateFamily) -> tuple[float, float]:
    return math.sqrt(family.alpha2), math.sqrt(1.0 - family.alpha2)


@lru_cache(maxsize=6 * FAMILIES)  # two bases, up to three values of x
def state(family: StateFamily, label: StateLabel) -> QuantumState:
    """The family's state |a, x>."""
    a, x = label.a, label.x
    if x not in family.x_values:
        raise InvalidLabel(f"x={x} not valid for {family.family.value}")
    kind = family.family
    if kind is Family.BB84:
        vecs = {
            (0, 0): (1.0, 0.0),
            (0, 1): (0.0, 1.0),
            (1, 0): (_SQ2, _SQ2),
            (1, 1): (_SQ2, -_SQ2),
        }
        return QuantumState(vecs[(a, x)])
    if kind in (Family.AMBAINIS, Family.MCQM_EXAMPLE):
        if x == 2:  # MCQM_EXAMPLE only
            return QuantumState((0.0, 0.0, 1.0) if a == 0 else (0.0, 1.0, 0.0))
        sign = 1.0 if x == 0 else -1.0
        if a == 0:
            return QuantumState((_SQ2, sign * _SQ2, 0.0))
        return QuantumState((_SQ2, 0.0, sign * _SQ2))
    alpha, beta = _alpha_beta(family)
    vecs = {
        (0, 0): (alpha, beta),
        (1, 0): (alpha, -beta),
        (0, 1): (beta, -alpha),
        (1, 1): (beta, alpha),
    }
    return QuantumState(vecs[(a, x)])


@lru_cache(maxsize=2 * FAMILIES)
def basis(family: StateFamily, a: int) -> ProjectiveMeasurement:
    """The honest measurement basis for basis bit ``a``.

    Outcome index i is the state |a, i>, so an honest outcome is the bit x
    itself. The Ambainis basis adds a third vector |2-a> as index 2, which
    no honest x equals and no honest state ever produces.
    """
    if a not in (0, 1):
        raise InvalidLabel(f"basis label a={a}")
    kind = family.family
    if kind is Family.AMBAINIS:
        reject = QuantumState((0.0, 1.0, 0.0) if a == 1 else (0.0, 0.0, 1.0))
        return ProjectiveMeasurement(
            (state(family, StateLabel(a, 0)), state(family, StateLabel(a, 1)), reject))
    return ProjectiveMeasurement(
        tuple(state(family, StateLabel(a, x)) for x in family.x_values))


@lru_cache(maxsize=FAMILIES)
def basis_pair(family: StateFamily) -> np.ndarray:
    """The bras of both honest bases, stacked (2, dim, dim): entry a
    measures in basis(family, a), and its row x is <a, x|."""
    pair = np.stack([basis(family, a).bras for a in (0, 1)])
    pair.flags.writeable = False
    return pair


@lru_cache(maxsize=None)
def computational_basis(dim: int) -> ProjectiveMeasurement:
    """The standard basis {|0>, ..., |dim-1>}; outcome i is |i>."""
    vecs = []
    for i in range(dim):
        amps = [0.0] * dim
        amps[i] = 1.0
        vecs.append(QuantumState(tuple(amps)))
    return ProjectiveMeasurement(tuple(vecs))


def honest_ensemble(family: StateFamily, commit: int) -> list[tuple[float, QuantumState]]:
    """The ensemble an honest Alice draws from once committed.

    BB84, AMBAINIS and MCQM_EXAMPLE commit to the basis bit a (mixing over x);
    LOSS_TOLERANT commits to the bit x (mixing over a).
    """
    if commit not in (0, 1):
        raise InvalidLabel(f"commit={commit}")
    if family.family is Family.LOSS_TOLERANT:
        return [(0.5, state(family, StateLabel(a, commit))) for a in (0, 1)]
    return [
        (w, state(family, StateLabel(commit, x)))
        for w, x in zip(family.x_weights, family.x_values)
    ]


@lru_cache(maxsize=2 * FAMILIES)
def committed_density(family: StateFamily, commit: int) -> DensityMatrix:
    """The diagonal mixed state signalling the committed value."""
    if commit not in (0, 1):
        raise InvalidLabel(f"commit={commit}")
    kind = family.family
    if kind is Family.BB84:
        diag = (0.5, 0.5)
    elif kind is Family.AMBAINIS:
        diag = (0.5, 0.5, 0.0) if commit == 0 else (0.5, 0.0, 0.5)
    elif kind is Family.MCQM_EXAMPLE:
        diag = (0.49, 0.49, 0.02) if commit == 0 else (0.49, 0.02, 0.49)
    else:
        alpha2 = family.alpha2
        diag = (alpha2, 1.0 - alpha2) if commit == 0 else (1.0 - alpha2, alpha2)
    return DensityMatrix(np.diag(np.array(diag, dtype=complex)))
