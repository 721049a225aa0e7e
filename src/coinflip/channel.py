"""Lossy quantum channel.

Loss is pure erasure: with probability eta the signal arrives bit-exact, with
probability 1 - eta nothing arrives. eta folds channel transmittance and
detector efficiency into one number, since the protocols treat every
non-detection identically. A multi-photon pulse crosses as one signal: all
of its copies arrive or none do.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .rng import bernoulli


@dataclass(frozen=True)
class ChannelParams:
    """Combined survival probability of a transmitted quantum signal."""

    eta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise OutOfRange(f"eta={self.eta} not in (0, 1]")


def transmit(signal, ch: ChannelParams, u: np.ndarray) -> np.ndarray:
    """Which signals of a batch arrive: one bool per uniform in u.

    The signals are delivered unchanged; a signal whose photon_count is 0
    (vacuum) never arrives, and every other one arrives with probability eta,
    a bernoulli(eta) draw on its uniform.
    """
    if signal.photon_count == 0:
        return np.zeros(len(u), dtype=bool)
    return bernoulli(ch.eta, u)
