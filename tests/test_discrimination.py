"""Unambiguous and maximum-confidence discrimination."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinflip.analytics import alice_bias_bound, bob_bias, reference_table
from coinflip.catalog import Family, StateFamily, basis_pair, committed_density
from coinflip.discrimination import (COMPUTATIONAL_USD_AMBAINIS,
                                     max_confidence, stats, usd_pure_pair)
from coinflip.errors import DimensionMismatch, ParallelStates
from coinflip.quantum import helstrom_success, mix, trace_distance

SQ2 = 1.0 / math.sqrt(2.0)
KET0 = np.array([1.0, 0.0])
PLUS = np.array([SQ2, SQ2])


def density_of(state: np.ndarray) -> np.ndarray:
    """|psi><psi| of one pure state."""
    return mix((1.0,), [state])


# ---------------------------------------------------------------------------
# pure-pair USD

def test_usd_zero_plus_conclusive_rate():
    p = usd_pure_pair(KET0, PLUS)
    s = stats(p, density_of(KET0), density_of(PLUS))
    assert s.p_inconclusive == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert s.confidence == pytest.approx(1.0, abs=1e-9)


def test_usd_never_misidentifies():
    p = usd_pure_pair(KET0, PLUS)
    assert np.trace(p[1] @ density_of(KET0)).real < 1e-12
    assert np.trace(p[0] @ density_of(PLUS)).real < 1e-12


def test_usd_orthogonal_pair_is_fully_conclusive():
    ket1 = np.array([0, 1])  # integer amplitudes are a state too
    p = usd_pure_pair(KET0, ket1)
    s = stats(p, density_of(KET0), density_of(ket1))
    assert s.p_inconclusive == pytest.approx(0.0, abs=1e-9)


def test_usd_loss_tolerant_same_x_pair():
    """Conclusive rate 1 - |overlap| = 2*beta^2 for the phi_{a,0} pair."""
    for alpha2 in (0.6, 0.75, 0.9):
        fam = StateFamily(Family.LOSS_TOLERANT, alpha2)
        s0, s1 = basis_pair(fam)[:, 0]  # |0, 0> and |1, 0>
        p = usd_pure_pair(s0, s1)
        out = stats(p, density_of(s0), density_of(s1))
        assert out.p_inconclusive == pytest.approx(2.0 * alpha2 - 1.0, abs=1e-9)
        assert out.confidence == pytest.approx(1.0, abs=1e-9)


def test_usd_parallel_states_rejected():
    with pytest.raises(ParallelStates):
        usd_pure_pair(KET0, KET0)
    with pytest.raises(DimensionMismatch):
        usd_pure_pair(KET0, np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# computational-basis USD on the qutrit commitments

def test_ambainis_usd_statistics():
    fam = StateFamily(Family.AMBAINIS)
    s = stats(COMPUTATIONAL_USD_AMBAINIS,
              committed_density(fam, 0), committed_density(fam, 1))
    assert s.p_inconclusive == pytest.approx(0.5, abs=1e-12)
    assert s.confidence == pytest.approx(1.0, abs=1e-12)
    # each conclusive outcome fires with probability 1/4 overall
    assert [i for i, _, _ in s.per_outcome] == [0, 1]  # the last is inconclusive
    for _, p_out, p_correct in s.per_outcome:
        assert p_out == pytest.approx(0.25, abs=1e-12)
        assert p_correct == pytest.approx(1.0, abs=1e-12)


def test_ambainis_usd_is_built_once_and_read_only():
    """One module constant, shared by every reader, that none can change."""
    with pytest.raises(ValueError):
        COMPUTATIONAL_USD_AMBAINIS[2, 0, 0] = 0.0


def test_mcqm_statistics():
    """Small cross-support weights turn certainty into high confidence."""
    fam = StateFamily(Family.MCQM_EXAMPLE)
    r0, r1 = committed_density(fam, 0), committed_density(fam, 1)
    s = stats(COMPUTATIONAL_USD_AMBAINIS, r0, r1)
    assert s.p_inconclusive == pytest.approx(0.49, abs=1e-12)
    assert s.confidence == pytest.approx(0.49 / 0.51, abs=1e-12)
    assert trace_distance(r0, r1) == pytest.approx(0.47, abs=1e-12)
    assert helstrom_success(r0, r1) == pytest.approx(0.735, abs=1e-12)


def test_stats_equal_hypotheses_gives_half_confidence():
    fam = StateFamily(Family.AMBAINIS)
    rho = committed_density(fam, 0)
    s = stats(COMPUTATIONAL_USD_AMBAINIS, rho, rho)
    assert s.confidence == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# each player's optimum, read off the committed states

GRID = (0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95)


def committed_pair(family):
    return committed_density(family, 0), committed_density(family, 1)


@pytest.mark.parametrize("alpha2", GRID)
def test_max_confidence_is_helstrom_on_loss_tolerant(alpha2):
    """Claiming loss gains Bob nothing: no outcome of any POVM, inconclusive
    ones allowed, guesses the commitment better than minimum error does."""
    r0, r1 = committed_pair(StateFamily(Family.LOSS_TOLERANT, alpha2))
    best = max_confidence(r0, r1)
    assert best == pytest.approx(0.5 + bob_bias(alpha2), abs=1e-12)
    assert best == pytest.approx(helstrom_success(r0, r1), abs=1e-12)


def test_max_confidence_on_the_other_families():
    """Ambainis leaks its commitment to a Bob who may claim loss, MCQM nearly
    so, and BB84 not at all."""
    oracle = dict(reference_table())
    for family, expected in ((Family.AMBAINIS, oracle["ambainis_conclusive_success"]),
                             (Family.MCQM_EXAMPLE, oracle["mcqm_confidence"]),
                             (Family.BB84, 0.5)):
        assert max_confidence(*committed_pair(StateFamily(family))) == pytest.approx(
            expected, abs=1e-12)


def bob_certificate_margins(family, confidence):
    """The smallest eigenvalue of C rho - rho_c / 2 for c = 0 and 1, where
    rho is the mean of the committed densities rho_c and C = confidence."""
    r0, r1 = committed_pair(family)
    rho = (r0 + r1) / 2.0
    return [np.linalg.eigvalsh(confidence * rho - r / 2.0).min() for r in (r0, r1)]


def test_bob_certificates_prove_the_registry_optima():
    """If C rho - rho_c / 2 >= 0 for both c, then tr(E rho_c) / 2 <=
    C tr(E rho) for every POVM element E: no outcome, inconclusive ones
    allowed, guesses the commitment with confidence above C. At each
    family's registry value (1/2 + bob_bias on 50 alpha2 in (1/2, 1), 1/2 on
    BB84, 1 on Ambainis, 0.49/0.51 on MCQM) both matrices are PSD, and with
    C scaled by 1 - 1e-6 neither is, so each value is tight. The registry
    Bobs reach these values, so Bob's optimum is proved from both sides."""
    oracle = dict(reference_table())
    cases = [(StateFamily(Family.LOSS_TOLERANT, alpha2), 0.5 + bob_bias(alpha2))
             for alpha2 in np.linspace(0.5, 1.0, 52)[1:-1].tolist()]
    cases += [(StateFamily(Family.BB84), 0.5),
              (StateFamily(Family.AMBAINIS), oracle["ambainis_conclusive_success"]),
              (StateFamily(Family.MCQM_EXAMPLE), oracle["mcqm_confidence"])]
    for family, confidence in cases:
        assert min(bob_certificate_margins(family, confidence)) >= -1e-12, family
        assert max(bob_certificate_margins(family, confidence * (1.0 - 1e-6))) < 0.0, \
            family


def test_max_confidence_checks_its_densities():
    fam = StateFamily(Family.AMBAINIS)
    with pytest.raises(DimensionMismatch):
        max_confidence(committed_density(fam, 0), np.eye(2) / 2)
    with pytest.raises(ValueError):
        max_confidence(np.eye(3), committed_density(fam, 1))


def _factor(entries):
    """A complex 3x3 matrix from 18 real entries."""
    re, im = np.reshape(entries, (2, 3, 3))
    return re + 1j * im


FAMILIES = st.one_of(
    st.floats(0.51, 0.99).map(lambda a2: StateFamily(Family.LOSS_TOLERANT, a2)),
    st.sampled_from([StateFamily(f) for f in
                     (Family.BB84, Family.AMBAINIS, Family.MCQM_EXAMPLE)]))
# up to 4 POVM elements, each a factor G (A = G G^dagger) and a decision:
# guess 0, guess 1 or claim loss (2)
ELEMENTS = st.lists(
    st.tuples(st.lists(st.floats(-1, 1), min_size=18, max_size=18).map(_factor),
              st.integers(0, 2)),
    min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(FAMILIES, ELEMENTS)
# power check: Bob's USD on Ambainis is sure of every conclusive guess, above
# Helstrom's 0.75, so a ceiling that were only Helstrom's would fail here
@example(StateFamily(Family.AMBAINIS), list(zip(COMPUTATIONAL_USD_AMBAINIS, (0, 1, 2))))
def test_no_povm_beats_max_confidence(family, elements):
    """A certificate against random Bobs: each A_i is normalised as
    S^(-1/2) A_i S^(-1/2), S = sum A_i (on S's well-conditioned support), the
    elements of each decision are summed, and the claim outcome takes the
    rest of the identity. No such POVM's conclusive outcomes reach a
    confidence above max_confidence."""
    r0, r1 = committed_pair(family)
    dim = len(r0)
    parts = [g[:dim, :dim] @ g[:dim, :dim].conj().T for g, _ in elements]
    vals, vecs = np.linalg.eigh(sum(parts))
    keep = vals > 1e-4 * max(vals.max(), 1.0)
    root = vecs[:, keep] / np.sqrt(vals[keep]) @ vecs[:, keep].conj().T
    povm = np.zeros((3, dim, dim), dtype=complex)
    for part, (_, decision) in zip(parts, elements):
        if decision < 2:
            povm[decision] += root @ part @ root
    povm[2] = np.eye(dim) - povm[0] - povm[1]
    assert stats(povm, r0, r1).confidence <= max_confidence(r0, r1) + 1e-12


def root_fidelity(r0, r1):
    """F = Tr sqrt(sqrt(r0) r1 sqrt(r0)), both roots by eigh."""
    vals, vecs = np.linalg.eigh(r0)
    root = vecs * np.sqrt(np.clip(vals, 0.0, None)) @ vecs.conj().T
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(root @ r1 @ root), 0.0, None)).sum())


@pytest.mark.parametrize("alpha2", GRID)
def test_alice_bound_is_the_fidelity_of_the_committed_states(alpha2):
    """Alice's optimal success (3 + F) / 4, F the root fidelity of the two
    committed densities, matches 1/2 + alice_bias_bound. Agreement on a grid
    is evidence, not a proof; the candidate derivation is the bit-commitment
    bound of Spekkens and Rudolph, PRA 65, 012310 (2002)."""
    fidelity = root_fidelity(*committed_pair(StateFamily(Family.LOSS_TOLERANT, alpha2)))
    assert (3.0 + fidelity) / 4.0 == pytest.approx(0.5 + alice_bias_bound(alpha2),
                                                   abs=1e-12)
