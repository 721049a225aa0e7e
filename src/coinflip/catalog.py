"""Named state families used by the protocols.

Each family is one table of real amplitudes: for each basis bit ``a``, the
rows |a, x> of the honest basis a, indexed by a bit (or trit) ``x``.
Everything else is read from it: basis_pair is the table as a read-only
array, checked once for orthonormality, whose rows are the states (and
bras). The committed mixtures an honest Alice draws from are
discrimination.committed_density, off the run path.

* BB84           - the four conjugate-basis qubit states.
* AMBAINIS       - the four qutrit states (|0> +/- |1>)/sqrt2, (|0> +/- |2>)/sqrt2;
                   basis a adds |2-a> as row 2, which no honest x equals.
* LOSS_TOLERANT  - the alpha/beta qubit states grouped by x, parameterized by
                   alpha^2 in (1/2, 1) with beta^2 = 1 - alpha^2.
* MCQM_EXAMPLE   - the Ambainis table, whose rows 2 are also the x=2 states
                   |2> and |1>, drawn with weights (0.49, 0.49, 0.02).
"""
from __future__ import annotations

import math
from functools import lru_cache
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidLabel, OutOfRange
from .quantum import ATOL


class Family(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity
    BB84 = "bb84"
    AMBAINIS = "ambainis"
    LOSS_TOLERANT = "loss_tolerant"
    MCQM_EXAMPLE = "mcqm_example"


def check_alpha2(alpha2: float) -> None:
    """OutOfRange unless 1/2 < alpha2 < 1, the loss-tolerant family's range."""
    if not (0.5 < alpha2 < 1.0):
        raise OutOfRange(f"alpha2={alpha2} not in (1/2, 1)")


class _Fields(NamedTuple):
    family: Family
    alpha2: Optional[float] = None


class StateFamily(_Fields):
    """A family tag plus, for LOSS_TOLERANT, the alpha^2 parameter, checked
    wherever one is made (_replace too)."""

    __slots__ = ()

    def __new__(cls, family: Family, alpha2: Optional[float] = None):
        if family is Family.LOSS_TOLERANT:
            if alpha2 is None:
                raise OutOfRange("LOSS_TOLERANT requires an alpha2")
            check_alpha2(alpha2)
        elif alpha2 is not None:
            raise InvalidLabel(f"{family.value} takes no alpha2 parameter")
        return super().__new__(cls, family, alpha2)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make

    @property
    def dim(self) -> int:
        return 2 if self.family in (Family.BB84, Family.LOSS_TOLERANT) else 3

    @property
    def x_weights(self) -> tuple[float, ...]:
        if self.family is Family.MCQM_EXAMPLE:
            return (0.49, 0.49, 0.02)
        return (0.5, 0.5)


_SQ2 = 1.0 / math.sqrt(2.0)
FAMILIES = 64  # families basis_pair holds (an alpha2 grid); least recent goes first


def _rows(family: StateFamily) -> tuple:
    """The family's table: for each basis bit a, the rows |a, x> of basis a."""
    kind = family.family
    if kind is Family.BB84:
        return (((1.0, 0.0), (0.0, 1.0)),
                ((_SQ2, _SQ2), (_SQ2, -_SQ2)))
    if kind is Family.LOSS_TOLERANT:
        alpha, beta = math.sqrt(family.alpha2), math.sqrt(1.0 - family.alpha2)
        return (((alpha, beta), (beta, -alpha)),
                ((alpha, -beta), (beta, alpha)))
    # AMBAINIS and MCQM_EXAMPLE: row 2 is |2-a>, MCQM's state |a, 2>
    return (((_SQ2, _SQ2, 0.0), (_SQ2, -_SQ2, 0.0), (0.0, 0.0, 1.0)),
            ((_SQ2, 0.0, _SQ2), (_SQ2, 0.0, -_SQ2), (0.0, 1.0, 0.0)))


@lru_cache(maxsize=FAMILIES)
def basis_pair(family: StateFamily) -> np.ndarray:
    """The family's table as a read-only (2, dim, dim) array: entry a is
    basis a, and its row x is |a, x>, real, so also the bra <a, x|. Each
    basis is orthonormal within ATOL (ValueError otherwise)."""
    pair = np.array(_rows(family))
    if np.abs(pair @ pair.transpose(0, 2, 1) - np.eye(family.dim)).max() > ATOL:
        raise ValueError(f"{family} has a basis that is not orthonormal")
    pair.flags.writeable = False
    return pair

