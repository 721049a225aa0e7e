"""Unambiguous and maximum-confidence discrimination."""
import math

import numpy as np
import pytest

from coinflip.catalog import Family, StateFamily, StateLabel, committed_density, state
from coinflip.discrimination import (INCONCLUSIVE, computational_usd_ambainis,
                                     loss_tolerant_guess_ceiling, stats,
                                     usd_pure_pair)
from coinflip.errors import ParallelStates
from coinflip.quantum import (QuantumState, density_of, helstrom_success,
                              measure_povm, trace_distance)
from coinflip.rng import RandomStream

from conftest import assert_close_5sigma

SQ2 = 1.0 / math.sqrt(2.0)
KET0 = QuantumState((1.0, 0.0))
PLUS = QuantumState((SQ2, SQ2))


# ---------------------------------------------------------------------------
# pure-pair USD

def test_usd_zero_plus_conclusive_rate():
    p = usd_pure_pair(KET0, PLUS)
    s = stats(p, density_of(KET0), density_of(PLUS))
    assert s.p_inconclusive == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert s.confidence == pytest.approx(1.0, abs=1e-9)


def test_usd_never_misidentifies():
    p = usd_pure_pair(KET0, PLUS)
    assert np.trace(p.elements[1] @ density_of(KET0).entries).real < 1e-12
    assert np.trace(p.elements[0] @ density_of(PLUS).entries).real < 1e-12


def test_usd_orthogonal_pair_is_fully_conclusive():
    p = usd_pure_pair(KET0, QuantumState((0.0, 1.0)))
    s = stats(p, density_of(KET0), density_of(QuantumState((0.0, 1.0))))
    assert s.p_inconclusive == pytest.approx(0.0, abs=1e-9)


def test_usd_loss_tolerant_same_x_pair():
    """Conclusive rate 1 - |overlap| = 2*beta^2 for the phi_{a,0} pair."""
    for alpha2 in (0.6, 0.75, 0.9):
        fam = StateFamily(Family.LOSS_TOLERANT, alpha2)
        s0 = state(fam, StateLabel(0, 0))
        s1 = state(fam, StateLabel(1, 0))
        p = usd_pure_pair(s0, s1)
        out = stats(p, density_of(s0), density_of(s1))
        assert out.p_inconclusive == pytest.approx(2.0 * alpha2 - 1.0, abs=1e-9)
        assert out.confidence == pytest.approx(1.0, abs=1e-9)


def test_usd_parallel_states_rejected():
    with pytest.raises(ParallelStates):
        usd_pure_pair(KET0, KET0)


def test_usd_monte_carlo_agrees_with_stats(rng):
    p = usd_pure_pair(KET0, PLUS)
    rho = density_of(PLUS)
    n = 50_000
    inconclusive = sum(
        measure_povm(rho, p, rng).label == INCONCLUSIVE for _ in range(n))
    expected = float(np.trace(p.elements[2] @ rho.entries).real)
    assert_close_5sigma(inconclusive / n, expected, n)


# ---------------------------------------------------------------------------
# computational-basis USD on the qutrit commitments

def test_ambainis_usd_statistics():
    fam = StateFamily(Family.AMBAINIS)
    s = stats(computational_usd_ambainis(),
              committed_density(fam, 0), committed_density(fam, 1))
    assert s.p_inconclusive == pytest.approx(0.5, abs=1e-12)
    assert s.confidence == pytest.approx(1.0, abs=1e-12)
    # each conclusive outcome fires with probability 1/4 overall
    for _, p_out, p_correct in s.per_outcome:
        assert p_out == pytest.approx(0.25, abs=1e-12)
        assert p_correct == pytest.approx(1.0, abs=1e-12)


def test_ambainis_usd_is_built_once_and_read_only():
    p = computational_usd_ambainis()
    assert computational_usd_ambainis() is p
    with pytest.raises(ValueError):
        p.elements[2][0, 0] = 0.0


def test_mcqm_statistics():
    """Small cross-support weights turn certainty into high confidence."""
    fam = StateFamily(Family.MCQM_EXAMPLE)
    r0, r1 = committed_density(fam, 0), committed_density(fam, 1)
    s = stats(computational_usd_ambainis(), r0, r1)
    assert s.p_inconclusive == pytest.approx(0.49, abs=1e-12)
    assert s.confidence == pytest.approx(0.49 / 0.51, abs=1e-12)
    assert trace_distance(r0, r1) == pytest.approx(0.47, abs=1e-12)
    assert helstrom_success(r0, r1) == pytest.approx(0.735, abs=1e-12)


def test_stats_equal_hypotheses_gives_half_confidence():
    fam = StateFamily(Family.AMBAINIS)
    rho = committed_density(fam, 0)
    s = stats(computational_usd_ambainis(), rho, rho)
    assert s.confidence == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# the no-better-than-Helstrom property of the qubit commitments

@pytest.mark.parametrize("alpha2", [0.6, 0.75, 0.9])
def test_guess_ceiling_never_beats_helstrom(alpha2):
    fam = StateFamily(Family.LOSS_TOLERANT, alpha2)
    hel = helstrom_success(committed_density(fam, 0), committed_density(fam, 1))
    assert hel == pytest.approx(alpha2, abs=1e-12)
    assert loss_tolerant_guess_ceiling(alpha2) <= alpha2 + 1e-9


def test_guess_ceiling_is_attained():
    """The all-conclusive computational POVM reaches exactly alpha^2."""
    assert loss_tolerant_guess_ceiling(0.9) == pytest.approx(0.9, abs=1e-9)
