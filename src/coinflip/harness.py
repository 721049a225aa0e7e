"""Monte Carlo harness: seeded experiments, bias estimates, check matrix.

Trials run in fixed blocks of CHUNK; block k consumes the stream
RandomStream(seed, k), trial after trial in order. Counts are therefore a
pure function of (seed, trials): bit-identical on re-run, a run of n trials
is the prefix of any longer run, and each block can be computed on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from . import strategies
from .analytics import fair_alpha2, reference_table
from .channel import ChannelParams
from .errors import OutOfRange, RestartBudgetExceeded, RestartLimitExceeded
from .protocols import (HonestAlice, HonestBob, LossPolicy, PlayerHooks,
                        ProtocolId, Transcript, VariantFlags, Verdict,
                        default_flags, family_for, run)
from .rng import RandomStream
from .strategies import Side, StrategyId

HONEST = "honest"
CHUNK = 1024  # trials per random stream

VARIANT_NAMES = {
    "default": None,
    "believe_on_faith": VariantFlags(LossPolicy.BELIEVE_ON_FAITH, False),
    "restart_on_loss": VariantFlags(LossPolicy.RESTART_ON_LOSS, False),
    "restart_measure": VariantFlags(LossPolicy.RESTART_ON_LOSS, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
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
        if self.trials < 1:
            raise OutOfRange(f"trials={self.trials} must be >= 1")
        if self.target not in (0, 1):
            raise OutOfRange(f"target={self.target} must be 0 or 1")
        if not 0 <= self.seed < 2 ** 64:
            raise OutOfRange(f"seed={self.seed} not in [0, 2**64)")
        ChannelParams(self.eta)  # raises OutOfRange unless 0 < eta <= 1
        if self.photon_count < 1:
            raise OutOfRange(f"photon_count={self.photon_count} must be >= 1")
        if self.max_restarts < 0:
            raise OutOfRange(f"max_restarts={self.max_restarts} must be >= 0")

    @property
    def flags(self) -> VariantFlags:
        return self.variant or default_flags(self.protocol)


@dataclass(frozen=True)
class BiasEstimate:
    successes: int
    aborts: int
    restart_total: int
    trials: int
    p_hat: float
    ci95: tuple[float, float]
    bias_hat: float

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


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def build_hooks(cfg: ExperimentConfig, family, flags: VariantFlags) -> PlayerHooks:
    if cfg.alice == HONEST:
        alice = HonestAlice(family, cfg.photon_count)
    else:
        alice = strategies.make(
            StrategyId(Side.ALICE, cfg.alice, cfg.target), cfg.protocol,
            family, flags, eta=cfg.eta, photon_count=max(cfg.photon_count, 2))
    if cfg.bob == HONEST:
        bob = HonestBob(family, flags)
    else:
        bob = strategies.make(
            StrategyId(Side.BOB, cfg.bob, cfg.target), cfg.protocol,
            family, flags, eta=cfg.eta)
    return PlayerHooks(alice, bob)


def run_experiment(cfg: ExperimentConfig,
                   transcript_sink=None) -> BiasEstimate:
    """Run cfg.trials independent protocol runs and tally the outcome.

    Success means the run was accepted and produced cfg.target; aborts count
    against the cheater. Trials that blow the per-run restart limit are
    tolerated up to 0.1% of the total, then the whole experiment fails.
    """
    family = family_for(cfg.protocol, cfg.alpha2
                        if cfg.protocol is ProtocolId.LOSS_TOLERANT_CF else None)
    flags = cfg.flags
    ch = ChannelParams(cfg.eta)
    successes = aborts = restart_total = limit_hits = 0
    for start in range(0, cfg.trials, CHUNK):
        rng = RandomStream(cfg.seed, start // CHUNK)
        for _ in range(min(CHUNK, cfg.trials - start)):
            hooks = build_hooks(cfg, family, flags)
            try:
                t = run(cfg.protocol, flags, hooks, ch, family,
                        cfg.max_restarts, rng)
            except RestartLimitExceeded:
                limit_hits += 1
                continue
            if transcript_sink is not None:
                transcript_sink(t)
            restart_total += t.restart_count
            if t.verdict is Verdict.ABORT_CHEATER:
                aborts += 1
            elif t.outcome == cfg.target:
                successes += 1
    if limit_hits > 0.001 * cfg.trials:
        raise RestartBudgetExceeded(
            f"{limit_hits}/{cfg.trials} trials exceeded the restart limit")
    p_hat = successes / cfg.trials
    return BiasEstimate(successes, aborts, restart_total, cfg.trials,
                        p_hat, wilson_interval(successes, cfg.trials),
                        p_hat - 0.5)


def estimate_to_dict(cfg: ExperimentConfig, est: BiasEstimate) -> dict:
    """Fixed-order serialization of one experiment (byte-stable given a seed)."""
    flags = cfg.flags
    variant = next((name for name, v in VARIANT_NAMES.items() if v == flags),
                   "default")
    return {
        "protocol": cfg.protocol.value,
        "variant": variant,
        "alice": cfg.alice,
        "bob": cfg.bob,
        "target": cfg.target,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "alpha2": cfg.alpha2,
        "eta": cfg.eta,
        "successes": est.successes,
        "failures": est.failures,
        "aborts": est.aborts,
        "restart_total": est.restart_total,
        "p_hat": est.p_hat,
        "ci95": list(est.ci95),
        "bias_hat": est.bias_hat,
    }


# ---------------------------------------------------------------------------
# the check matrix: every simulated number with a closed-form counterpart

@dataclass(frozen=True)
class MatrixRow:
    label: str
    cfg: ExperimentConfig
    metric: str  # attribute of BiasEstimate
    expected: float
    exact: bool = False  # counts must match exactly, not just within tolerance


def check_matrix(trials: int = 100_000, seed: int = 12345) -> list[MatrixRow]:
    t = fair_alpha2()
    oracle = dict(reference_table())
    lt = ProtocolId.LOSS_TOLERANT_CF

    def cfg(**kw) -> ExperimentConfig:
        return ExperimentConfig(trials=trials, seed=seed, alpha2=t, **kw)

    rotated = cfg(protocol=ProtocolId.BB84_CF, alice="bb84_rotated")
    conclusive = cfg(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                     variant=VARIANT_NAMES["restart_measure"],
                     bob="ambainis_conclusive", target=1)
    usd = cfg(protocol=lt, alice="honest_pulse", bob="twophoton_usd",
              target=1, photon_count=2)
    honest_app = cfg(protocol=lt, alice="honest_pulse",
                     bob="twophoton_honest_apparatus", target=1, photon_count=2)
    return [
        MatrixRow("bb84_postpone_lie",
                  cfg(protocol=ProtocolId.BB84_CF, alice="bb84_postpone_lie"),
                  "p_hat", oracle["bb84_postpone_lie_success"]),
        MatrixRow("bb84_rotated", rotated, "p_hat", oracle["bb84_rotated_success"]),
        MatrixRow("bb84_rotated_caught", rotated, "abort_rate",
                  oracle["bb84_rotated_caught"]),
        MatrixRow("bb84_epr",
                  cfg(protocol=ProtocolId.BB84_CF, alice="bb84_epr", target=1),
                  "p_hat", 1.0, exact=True),
        MatrixRow("ambainis_alice_optimal",
                  cfg(protocol=ProtocolId.AMBAINIS_CF, alice="ambainis_optimal"),
                  "p_hat", oracle["ambainis_alice_success"]),
        MatrixRow("ambainis_bob_conclusive", conclusive, "p_hat", 1.0, exact=True),
        MatrixRow("ambainis_bob_conclusive_restarts", conclusive,
                  "restarts_per_trial", 1.0),
        MatrixRow("ambainis_send_nothing",
                  cfg(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                      variant=VARIANT_NAMES["believe_on_faith"],
                      alice="send_nothing", target=1),
                  "p_hat", 1.0, exact=True),
        MatrixRow("lt_alice_optimal", cfg(protocol=lt, alice="lt_optimal"),
                  "p_hat", oracle["lt_alice_success"]),
        MatrixRow("lt_bob_helstrom",
                  cfg(protocol=lt, bob="lt_helstrom", target=1),
                  "p_hat", oracle["lt_bob_success"]),
        MatrixRow("mcqm_bob_restart",
                  cfg(protocol=ProtocolId.MCQM_CONTRIVED_CF, bob="mcqm_restart",
                      target=1),
                  "p_hat", oracle["mcqm_confidence"]),
        MatrixRow("cunning_son_agreement",
                  cfg(protocol=lt, bob="cunning_son", target=0),
                  "p_hat", oracle["cunning_agreement"]),
        MatrixRow("twophoton_usd_rate", usd, "conclusive_rate",
                  oracle["twophoton_usd_rate"]),
        MatrixRow("twophoton_usd_correct", usd, "p_hat", 1.0, exact=True),
        MatrixRow("twophoton_honest_rate", honest_app, "conclusive_rate",
                  oracle["twophoton_honest_rate"]),
    ]


def evaluate_matrix(trials: int = 100_000, seed: int = 12345,
                    tolerance: float = 0.01) -> list[dict]:
    """Run every matrix row and compare against its closed-form value.

    Rows sharing a config are run once; exact rows require the measured value
    to equal the expectation to the last count.
    """
    rows = check_matrix(trials, seed)
    cache: dict[int, BiasEstimate] = {}
    results = []
    for row in rows:
        key = id(row.cfg)
        if key not in cache:
            cache[key] = run_experiment(row.cfg)
        est = cache[key]
        measured = getattr(est, row.metric)
        if row.exact:
            ok = measured == row.expected
        else:
            ok = abs(measured - row.expected) <= tolerance
        results.append({
            "label": row.label,
            "metric": row.metric,
            "measured": measured,
            "expected": row.expected,
            "ok": ok,
        })
    return results
