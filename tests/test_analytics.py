"""Closed-form bias formulas and the fairness solver."""
import json
import math

import pytest

from coinflip.analytics import (alice_bias_bound, bob_bias, cunning_agreement,
                                fair_alpha2, reference_table)
from coinflip.catalog import Family, StateFamily
from coinflip.cli import cli_main
from coinflip.discrimination import committed_density, helstrom_success
from coinflip.errors import OutOfRange

GRID = [0.55 + 0.05 * i for i in range(9)]


def test_formula_values_on_grid():
    """Refactoring guard: both formulas agree with a literal re-derivation."""
    for t in GRID:
        alpha = math.sqrt(t)
        beta = math.sqrt(1.0 - t)
        assert alice_bias_bound(t) == pytest.approx(
            0.25 + 0.5 * alpha * beta, abs=1e-14)
        assert bob_bias(t) == pytest.approx(t - 0.5, abs=1e-14)


def test_bias_bound_range_checks():
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(OutOfRange):
            alice_bias_bound(bad)
        with pytest.raises(OutOfRange):
            bob_bias(bad)


def test_bob_bias_equals_helstrom_advantage():
    """The receiver's analytic bias is exactly the minimum-error advantage on
    the committed mixtures."""
    for t in GRID:
        fam = StateFamily(Family.LOSS_TOLERANT, t)
        hel = helstrom_success(committed_density(fam, 0),
                               committed_density(fam, 1))
        assert hel - 0.5 == pytest.approx(bob_bias(t), abs=1e-12)


def test_fair_point_closed_form():
    t = fair_alpha2()
    assert t == pytest.approx(0.9, abs=1e-12)
    assert alice_bias_bound(t) == pytest.approx(0.4, abs=1e-12)
    assert bob_bias(t) == pytest.approx(0.4, abs=1e-12)


def test_fair_point_agrees_with_bisection_oracle():
    """Independent oracle: bisect the difference of the two bias curves."""
    def gap(t):
        return alice_bias_bound(t) - bob_bias(t)

    lo, hi = 0.75, 0.99
    assert gap(lo) > 0 > gap(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert fair_alpha2() == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_fair_point_is_the_unique_crossing_on_the_grid():
    signs = [alice_bias_bound(t) - bob_bias(t) > 0 for t in GRID]
    # exactly one sign change, located between 0.85 and 0.95
    changes = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
    assert len(changes) == 1
    assert GRID[changes[0]] == pytest.approx(0.85)


def test_cunning_agreement_formula():
    assert cunning_agreement(0.9) == pytest.approx(0.82, abs=1e-12)
    # the agreement probability is monotone in the parameter
    values = [cunning_agreement(t) for t in GRID]
    assert values == sorted(values)


def test_reference_table_contents():
    """Each entry with the repr of its value, which `coinflip fair` and
    `coinflip table` print: even a one-ulp change must be made on purpose."""
    assert [(k, repr(v)) for k, v in reference_table()] == [
        ("bb84_postpone_lie_success", "0.875"),
        ("bb84_rotated_success", "0.9267766952966369"),
        ("bb84_rotated_caught", "0.0732233047033631"),
        ("bb84_epr_success", "1.0"),
        ("ambainis_alice_success", "0.75"),
        ("ambainis_conclusive_success", "1.0"),
        ("ambainis_usd_conclusive", "0.5"),
        ("send_nothing_success", "1.0"),
        ("usd_0_plus", "0.29289321881345254"),
        ("mcqm_trace_distance", "0.47"),
        ("helstrom_mcqm", "0.735"),
        ("mcqm_inconclusive", "0.49"),
        ("mcqm_confidence", "0.9607843137254901"),
        ("lt_fair_alpha2", "0.9"),
        ("lt_fair_bias", "0.4"),
        ("lt_alice_success", "0.9"),
        ("lt_bob_success", "0.9"),
        ("cunning_agreement", "0.8200000000000001"),
        ("twophoton_usd_rate", "0.6400000000000001"),
        ("twophoton_honest_rate", "0.32000000000000006"),
        ("ambainis_conclusive_restarts", "1.0"),
        ("twophoton_usd_correct", "1.0"),
        ("kitaev_lower_bound", "0.20710678118654757"),
    ]


def test_reference_table_order_is_stable(capsys):
    """`coinflip fair` prints the reference entries in table order."""
    cli_main(["fair"])
    assert list(json.loads(capsys.readouterr().out)["reference"]) == [
        name for name, _ in reference_table()]
