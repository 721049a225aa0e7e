"""Lossy quantum channel.

Loss is pure erasure: with probability eta the signal arrives bit-exact, with
probability 1 - eta nothing arrives. eta folds channel transmittance and
detector efficiency into one number, since the protocols treat every
non-detection identically. A multi-photon pulse crosses as one signal: all
of its copies arrive or none do.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TypeVar

from .errors import OutOfRange
from .rng import RandomStream

T = TypeVar("T")


@dataclass(frozen=True)
class ChannelParams:
    """Combined survival probability of a transmitted quantum signal."""

    eta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise OutOfRange(f"eta={self.eta} not in (0, 1]")


def transmit(signal: T, ch: ChannelParams,
             randomness: RandomStream) -> Optional[T]:
    """Deliver the signal unchanged with probability eta, else nothing.

    A signal whose photon_count is 0 (vacuum) never arrives and draws no
    randomness; every other signal draws exactly one bernoulli(eta).
    """
    if signal.photon_count == 0:
        return None
    return signal if randomness.bernoulli(ch.eta) else None
