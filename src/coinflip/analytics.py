"""Closed-form cheating biases, the fairness solver and oracle constants."""
from __future__ import annotations

import math

from .catalog import check_alpha2


def alice_bias_bound(alpha2: float) -> float:
    """Tight upper bound (1 + 2*alpha*beta)/4 on Alice's bias, saturated by
    the |+>/|-> strategy."""
    check_alpha2(alpha2)
    ab = math.sqrt(alpha2 * (1.0 - alpha2))
    return (1.0 + 2.0 * ab) / 4.0


def bob_bias(alpha2: float) -> float:
    """Bob's optimal bias alpha^2 - 1/2, achieved by the computational-basis
    measurement."""
    check_alpha2(alpha2)
    return alpha2 - 0.5


def fair_alpha2() -> float:
    """The alpha^2 making both optimal biases equal.

    Setting (1 + 2*alpha*beta)/4 = alpha^2 - 1/2 with beta^2 = 1 - alpha^2
    and t = alpha^2 gives 2*sqrt(t(1-t)) = 4t - 3; squaring (valid only for
    4t - 3 >= 0, as the left side is never negative) yields
    20t^2 - 28t + 9 = 0 with roots (28 +- sqrt(64))/40, 0.9 and 0.5. At 0.5,
    4t - 3 = -1 < 0, so that root is rejected and the larger one is returned.
    """
    return (28.0 + math.sqrt(28.0 * 28.0 - 4.0 * 20.0 * 9.0)) / 40.0


def cunning_agreement(alpha2: float) -> float:
    """P(b = x) when Bob honestly measures but sends b = x_hat:
    1/2 + (2*alpha^2 - 1)^2 / 2."""
    check_alpha2(alpha2)
    return 0.5 + 0.5 * (2.0 * alpha2 - 1.0) ** 2


def reference_table() -> list[tuple[str, float]]:
    """Stable-ordered table of every closed-form number the simulations are
    checked against."""
    t = fair_alpha2()
    usd = 0.5  # conclusive rate of the computational-basis Ambainis receiver
    return [
        ("bb84_postpone_lie_success", 0.875),
        ("bb84_rotated_success", (6.0 + math.sqrt(2.0)) / 8.0),
        ("bb84_rotated_caught", (2.0 - math.sqrt(2.0)) / 8.0),
        ("bb84_epr_success", 1.0),
        ("ambainis_alice_success", 0.75),
        ("ambainis_conclusive_success", 1.0),
        ("ambainis_usd_conclusive", usd),
        ("send_nothing_success", 1.0),
        ("usd_0_plus", 1.0 - 1.0 / math.sqrt(2.0)),
        ("mcqm_trace_distance", 0.47),
        ("helstrom_mcqm", 0.735),
        ("mcqm_inconclusive", 0.49),
        ("mcqm_confidence", 0.49 / 0.51),
        ("lt_fair_alpha2", t),
        ("lt_fair_bias", alice_bias_bound(t)),
        ("lt_alice_success", 0.5 + alice_bias_bound(t)),
        ("lt_bob_success", 0.5 + bob_bias(t)),
        ("cunning_agreement", cunning_agreement(t)),
        ("twophoton_usd_rate", (2.0 * t - 1.0) ** 2),
        ("twophoton_honest_rate", 0.5 * (2.0 * t - 1.0) ** 2),
        # restarts per trial of a receiver who restarts on every inconclusive
        # outcome: a geometric count with success probability usd
        ("ambainis_conclusive_restarts", (1.0 - usd) / usd),
        ("twophoton_usd_correct", 1.0),
        ("kitaev_lower_bound", (math.sqrt(2.0) - 1.0) / 2.0),
    ]
