"""Monte Carlo harness: seeded experiments and bias estimates. The check
matrix that compares them with closed forms is coinflip.matrix, which only
`coinflip table` loads.

build_hooks builds both players of an experiment from strategies.REGISTRY,
honest ones included, once per experiment. Trials run in chunks of CHUNK,
and chunk k runs on its own uniforms: step s of the batch engine
(protocols.run_chunk) reads the block at jump (k << 32) | s of the seed's
one shared generator (see rng), with one row per (pending trial, attempt)
and one column per draw site. run_experiment hands the engine the config,
both hooks and a group of consecutive chunks per call, named by its first
chunk and its trials: one chunk in the first call, then up to GROUP_ROWS
rows in the first step of each call (one per trial). The engine reads the
coin rule, eta, max_restarts and the seed from the config itself. At each
step the engine draws every chunk's own block into its own slice of one
array, in chunk order, and runs the hooks once on all of them.
An attempt is one round, or, for a Bob who declares restarts_on_loss, a run
of K lost rounds drawn as one count and the round that arrives, charged
K + 1 rounds (and K + 1 rows in a transcript). Every site runs on every
attempt; hooks take arrays and return arrays, one entry per (trial,
attempt) pair, read only their own columns and keep no state across rounds.
Every hook writes its per-step state before it reads it, so all groups can
share one set of hooks. How many attempts a step runs depends only on s and
max_restarts, never on how many trials are pending, and a trial's rows only
on its chunk, so counts are a pure function of (seed, trials), whatever the
group size: bit-identical on re-run, a run of n trials is the prefix of any
longer run, and each chunk can be computed on its own.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .analytics import check_alpha2
from .errors import IncompatibleProtocol, OutOfRange, RestartBudgetExceeded
from .protocols import (ProtocolId, VariantFlags, check_flags, default_flags,
                        family_for, run_chunk, variant_name)
from .rng import CHUNK
from .strategies import HONEST, REGISTRY, Side, lookup

# trials per engine call after the first (one chunk), the rows of its first
# step: whole chunks
GROUP_ROWS = 8 * CHUNK


@dataclass(frozen=True)  # a dataclass: callers derive configs with dataclasses.replace
class ExperimentConfig:
    """One experiment. A bad config fails here, at construction, with
    OutOfRange or IncompatibleProtocol; the engine reads the config as it
    is and checks nothing. protocol is a ProtocolId and variant a
    VariantFlags or None, never a name. Counts and target are kept as
    Python ints (of an operator.index), eta and alpha2 as Python floats (of
    a numbers.Real)."""

    protocol: ProtocolId = ProtocolId.LOSS_TOLERANT_CF
    variant: Optional[VariantFlags] = None  # None -> protocol default
    alice: str = HONEST
    bob: str = HONEST
    target: int = 0
    trials: int = 100_000
    seed: int = 12345
    alpha2: float = 0.9
    eta: float = 1.0
    max_restarts: int = 10_000
    photon_count: int = 1

    def __post_init__(self):
        if not isinstance(self.protocol, ProtocolId):
            raise OutOfRange(f"protocol={self.protocol!r} is not a ProtocolId")
        if not isinstance(self.variant, (VariantFlags, type(None))):
            raise OutOfRange(f"variant={self.variant!r} is not a VariantFlags or None")
        for name in ("trials", "seed", "max_restarts", "photon_count", "target"):
            value = getattr(self, name)
            if type(value) is int:  # needs no conversion
                continue
            try:  # kept as a Python int, which numpy's fixed widths would wrap
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise OutOfRange(f"{name}={value!r} is not an integer") from None
        for name in ("eta", "alpha2"):  # kept as a float, which json can write
            value = getattr(self, name)
            if type(value) is float:  # needs no conversion, nor the ABC check
                continue
            if not isinstance(value, numbers.Real):
                raise OutOfRange(f"{name}={value!r} is not a real number")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:  # a real number past the float range, as 10**400
                raise OutOfRange(f"{name} is too large for a float") from None
        if self.trials < 1:
            raise OutOfRange(f"trials={self.trials} must be >= 1")
        if self.target not in (0, 1):
            raise OutOfRange(f"target={self.target} must be 0 or 1")
        if not 0 <= self.seed < 2 ** 64:
            raise OutOfRange(f"seed={self.seed} not in [0, 2**64)")
        if not 0.0 < self.eta <= 1.0:  # NaN included
            raise OutOfRange(f"eta={self.eta} not in (0, 1]")
        if self.photon_count < 1:
            raise OutOfRange(f"photon_count={self.photon_count} must be >= 1")
        # below 2**53 the engine's cap is exact as a float and 65 caps fit in int64
        if not 0 <= self.max_restarts < 2 ** 53:
            raise OutOfRange(f"max_restarts={self.max_restarts} not in [0, 2**53)")
        for side, name in ((Side.ALICE, self.alice), (Side.BOB, self.bob)):
            if not isinstance(name, str):
                raise OutOfRange(f"{side.value}={name!r} is not a str")
            spec = lookup(side, name, self.protocol)
            if self.photon_count < spec.min_photons:
                raise OutOfRange(f"{name} needs photon_count >= "
                                 f"{spec.min_photons}, got {self.photon_count}")
            if side is Side.ALICE and self.photon_count > 1 and not spec.pulses:
                raise OutOfRange(f"{name} sends single photons, got "
                                 f"photon_count={self.photon_count}")
            if spec.variants is not None and self.flags not in spec.variants:
                raise IncompatibleProtocol(
                    f"{name} does not play variant {variant_name(self.variant)}")
        check_alpha2(self.alpha2)
        check_flags(self.protocol, self.flags)

    @property
    def flags(self) -> VariantFlags:
        return self.variant or default_flags(self.protocol)


class BiasEstimate(NamedTuple):
    successes: int
    aborts: int
    restart_total: int
    trials: int
    limit_hits: int  # trials dropped for more than max_restarts restarts

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def bias_hat(self) -> float:
        return self.p_hat - 0.5

    @property
    def failures(self) -> int:
        return self.trials - self.successes

    @property
    def abort_rate(self) -> float:
        return self.aborts / self.trials

    @property
    def restarts_per_trial(self) -> float:
        return self.restart_total / self.trials

    @property
    def conclusive_rate(self) -> float:
        """Fraction of quantum rounds that did not end in a restart."""
        return self.trials / (self.trials + self.restart_total)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z, p = 1.959963984540054, k / n  # z: the normal quantile at 0.975
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def build_hooks(cfg: ExperimentConfig) -> tuple:
    """The (alice, bob) hooks of one experiment, shared by all its chunks;
    cfg's names were checked at construction."""
    family = family_for(cfg.protocol, cfg.alpha2)
    return tuple(REGISTRY[side][name].build(cfg, family)
                 for side, name in ((Side.ALICE, cfg.alice), (Side.BOB, cfg.bob)))


def run_experiment(cfg: ExperimentConfig,
                   transcript_sink=None) -> BiasEstimate:
    """Run cfg.trials independent protocol runs and tally the outcome.

    Success means the run was accepted and produced cfg.target; aborts count
    against the cheater. Trials that blow the per-run restart limit are
    counted in limit_hits and tolerated up to 0.1% of the total; past that
    the experiment fails with RestartBudgetExceeded as soon as an engine call
    shows it. The first call runs one chunk, so a config where no trial
    finishes fails after one chunk; the later ones run up to GROUP_ROWS
    trials each.
    """
    alice, bob = build_hooks(cfg)
    successes = aborts = restart_total = limit_hits = 0
    bounds = (0, *range(CHUNK, cfg.trials, GROUP_ROWS), cfg.trials)
    for start, stop in itertools.pairwise(bounds):
        verdict, coin, restarts = run_chunk(cfg, alice, bob, start // CHUNK,
                                            stop - start, transcript_sink)
        # counts of 2 * Decision + (coin == target): ACCEPTED is 0 and 1,
        # ABORT_CHEATER 2 and 3, REQUEST_RESTART (over the limit) 4 and 5
        tally = np.bincount(2 * verdict + (coin == cfg.target), minlength=6).tolist()
        limit_hits += tally[4] + tally[5]
        if limit_hits > 0.001 * cfg.trials:
            raise RestartBudgetExceeded(
                f"{limit_hits} of {cfg.trials} trials exceeded the restart limit")
        restart_total += int(restarts.sum())  # 0 for a trial over the limit
        aborts += tally[2] + tally[3]
        successes += tally[1]
    return BiasEstimate(successes, aborts, restart_total, cfg.trials, limit_hits)


def estimate_to_dict(cfg: ExperimentConfig, est: BiasEstimate) -> dict:
    """Fixed-order serialization of one experiment (byte-stable given a seed).
    alpha2 is null for every protocol whose family does not read it."""
    return {
        "protocol": cfg.protocol.value,
        "variant": variant_name(cfg.variant),
        "alice": cfg.alice,
        "bob": cfg.bob,
        "target": cfg.target,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "alpha2": family_for(cfg.protocol, cfg.alpha2).alpha2,
        "eta": cfg.eta,
        "successes": est.successes,
        "failures": est.failures,
        "aborts": est.aborts,
        "restart_total": est.restart_total,
        "p_hat": est.p_hat,
        "ci95": list(est.ci95),
        "bias_hat": est.bias_hat,
        "limit_hits": est.limit_hits,
        "max_restarts": cfg.max_restarts,
        "photon_count": cfg.photon_count,
    }
