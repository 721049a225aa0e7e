"""Lossy quantum channel.

Loss is pure erasure: with probability eta an emission (protocols.Emission)
arrives bit-exact, with probability 1 - eta nothing arrives. eta folds
channel transmittance and detector efficiency into one number, since the
protocols treat every non-detection identically. The channel reads only an
emission's photon_count: vacuum (0) never arrives, and a multi-photon pulse
crosses whole, all of its copies or none.

There are two rules for drawing loss, one uniform per block row each.
transmit draws whether one round arrives. lost_rounds serves a receiver who
restarts on every lost round, so that a run of losses tells him nothing but
its length: a row is then an attempt, and its uniform gives the number of
rounds lost before the attempt arrives. Both take eta as a float in
(0, 1], which harness.ExperimentConfig checks.
"""
from __future__ import annotations

import math

import numpy as np

from .rng import bernoulli


def transmit(signal, eta: float, u: np.ndarray) -> np.ndarray:
    """Which rounds of the Emission signal arrive: one bool per uniform in u.

    What arrives is delivered unchanged; an emission whose photon_count is 0
    (vacuum) never arrives, and every other one arrives with probability eta,
    a bernoulli(eta) draw on its uniform.
    """
    if signal.photon_count == 0:
        return np.zeros(len(u), dtype=bool)
    return bernoulli(eta, u)


def lost_rounds(eta: float, u: np.ndarray, cap: int) -> np.ndarray:
    """How many rounds are lost before each attempt of a batch arrives, one
    count per uniform in u, clamped at cap: a Geometric(eta) count by
    inversion, K = floor(log(1 - u) / log(1 - eta)) (Devroye, Non-Uniform
    Random Variate Generation, 1986, X.2), so P(K >= k) = (1 - eta)**k;
    every count is 0 at eta = 1. Only for emissions that can arrive
    (photon_count > 0)."""
    log_loss = math.log1p(-eta) if eta < 1.0 else -math.inf
    with np.errstate(over="ignore"):  # inf at eta near the smallest float
        k = np.log1p(-u) / log_loss
    return np.minimum(k, cap).astype(np.int64)
