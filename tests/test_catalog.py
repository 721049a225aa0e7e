"""State catalog: the four families, their bases and committed mixtures."""
import math

import numpy as np
import pytest

from coinflip import catalog
from coinflip.catalog import FAMILIES, Family, StateFamily, basis_pair
from coinflip.discrimination import committed_density, trace_distance
from coinflip.errors import InvalidLabel, OutOfRange
from coinflip.harness import ExperimentConfig, build_hooks
from coinflip.protocols import ProtocolId

SQ2 = 1.0 / math.sqrt(2.0)

BB84 = StateFamily(Family.BB84)
AMB = StateFamily(Family.AMBAINIS)
MCQM = StateFamily(Family.MCQM_EXAMPLE)


def lt(alpha2=0.9) -> StateFamily:
    return StateFamily(Family.LOSS_TOLERANT, alpha2)


# ---------------------------------------------------------------------------
# family parameters

def test_loss_tolerant_requires_alpha2_in_range():
    with pytest.raises(OutOfRange):
        StateFamily(Family.LOSS_TOLERANT)
    with pytest.raises(OutOfRange):
        StateFamily(Family.LOSS_TOLERANT, 0.5)
    with pytest.raises(OutOfRange):
        StateFamily(Family.LOSS_TOLERANT, 1.0)
    with pytest.raises(OutOfRange):  # a copy with one field changed is checked too
        lt()._replace(alpha2=1.5)


def test_other_families_take_no_alpha2():
    with pytest.raises(InvalidLabel):
        StateFamily(Family.BB84, 0.9)
    with pytest.raises(InvalidLabel):
        BB84._replace(alpha2=0.9)


def test_dimensions_and_weights():
    assert BB84.dim == 2 and lt().dim == 2
    assert AMB.dim == 3 and MCQM.dim == 3
    assert BB84.x_weights == (0.5, 0.5)
    assert MCQM.x_weights == (0.49, 0.49, 0.02)


# ---------------------------------------------------------------------------
# individual states: |a, x> is row x of basis a

def state(family: StateFamily, a: int, x: int) -> np.ndarray:
    return basis_pair(family)[a, x]


def test_bb84_states():
    assert tuple(state(BB84, 0, 0)) == (1, 0)
    assert tuple(state(BB84, 0, 1)) == (0, 1)
    plus = state(BB84, 1, 0)
    assert plus == pytest.approx((SQ2, SQ2))
    minus = state(BB84, 1, 1)
    assert minus == pytest.approx((SQ2, -SQ2))


def test_ambainis_states():
    assert state(AMB, 0, 0) == pytest.approx((SQ2, SQ2, 0))
    assert state(AMB, 1, 1) == pytest.approx((SQ2, 0, -SQ2))


def test_loss_tolerant_states():
    fam = lt(0.9)
    alpha, beta = math.sqrt(0.9), math.sqrt(0.1)
    assert state(fam, 0, 0) == pytest.approx((alpha, beta))
    assert state(fam, 1, 0) == pytest.approx((alpha, -beta))
    assert state(fam, 0, 1) == pytest.approx((beta, -alpha))
    assert state(fam, 1, 1) == pytest.approx((beta, alpha))


def test_mcqm_extra_states():
    assert tuple(state(MCQM, 0, 2)) == (0, 0, 1)
    assert tuple(state(MCQM, 1, 2)) == (0, 1, 0)
    # the x in {0,1} states coincide with the Ambainis family
    for a in (0, 1):
        for x in (0, 1):
            assert tuple(state(MCQM, a, x)) == tuple(state(AMB, a, x))
    # and the x=2 states are the Ambainis reject vectors |2-a>: one table
    assert (basis_pair(MCQM) == basis_pair(AMB)).all()


def test_basis_pair_rejects_a_table_that_is_not_orthonormal(monkeypatch):
    skewed = (((1.0, 0.0), (SQ2, SQ2)), ((1.0, 0.0), (0.0, 1.0)))
    monkeypatch.setattr(catalog, "_rows", lambda family: skewed)
    with pytest.raises(ValueError, match="not orthonormal"):
        basis_pair.__wrapped__(lt())  # past the cache


def test_invalid_labels_rejected():
    """A commitment is a bit, and the reject vector |2-a> is no Ambainis
    state: it takes no part in the committed mixture."""
    for commit in (2, -1):
        with pytest.raises(InvalidLabel):
            committed_density(BB84, commit)
    for a in (0, 1):
        assert committed_density(AMB, a)[2 - a, 2 - a] == 0.0


# ---------------------------------------------------------------------------
# overlap structure

def test_loss_tolerant_same_x_overlap():
    """Within each x group the two states overlap by alpha^2 - beta^2 in
    magnitude (the x=1 pair carries the opposite sign)."""
    for alpha2 in (0.6, 0.75, 0.9):
        fam = lt(alpha2)
        for x in (0, 1):
            ov = state(fam, 0, x) @ state(fam, 1, x)
            assert abs(ov) == pytest.approx(2.0 * alpha2 - 1.0, abs=1e-12)


def test_loss_tolerant_plus_state_overlap():
    """|<+|phi_{x,x}>|^2 = 1/2 + alpha*beta: the quantity behind the optimal
    sender attack."""
    for alpha2 in (0.6, 0.9):
        fam = lt(alpha2)
        ab = math.sqrt(alpha2 * (1.0 - alpha2))
        plus = state(BB84, 1, 0)
        for x in (0, 1):
            best = state(fam, x, x)
            assert (plus @ best) ** 2 == pytest.approx(0.5 + ab, abs=1e-12)


def test_ambainis_groups_share_only_ket0():
    """The a=0 states live in span{|0>,|1>}, the a=1 states in span{|0>,|2>}."""
    for x in (0, 1):
        s0 = state(AMB, 0, x)
        s1 = state(AMB, 1, x)
        assert abs(s0[2]) == 0.0
        assert abs(s1[1]) == 0.0
        assert abs(s0 @ s1) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# bases

def test_bases_contain_their_states():
    """Measuring |a,x> in the a basis yields outcome index x with certainty."""
    for fam in (BB84, AMB, MCQM, lt(0.8)):
        for a in (0, 1):
            m = basis_pair(fam)[a]
            for x in range(len(fam.x_weights)):
                probs = (m @ state(fam, a, x)) ** 2
                assert probs[x] == pytest.approx(1.0)


def test_ambainis_reject_outcome_statistics():
    """Reject never fires when the basis matches the sending group (the only
    case the stored-measurement protocol produces), and fires half the time
    on a cross-group state."""
    for a in (0, 1):
        m = basis_pair(AMB)[a]
        j = 2  # |2-a>, the outcome no honest x equals
        for x in (0, 1):
            same = ((m @ state(AMB, a, x)) ** 2)[j]
            cross = ((m @ state(AMB, 1 - a, x)) ** 2)[j]
            assert same == pytest.approx(0.0, abs=1e-12)
            assert cross == pytest.approx(0.5, abs=1e-12)


def test_computational_basis_labels():
    """A guessing Bob measures in the computational basis: outcome i is |i>."""
    cfg = ExperimentConfig(protocol=ProtocolId.MCQM_CONTRIVED_CF, bob="mcqm_restart")
    m = build_hooks(cfg)[1].bras[0]
    assert all(u[i] == 1.0 for i, u in enumerate(m))
    assert (m @ state(MCQM, 0, 2)) ** 2 == pytest.approx([0, 0, 1])


# ---------------------------------------------------------------------------
# committed mixtures

def test_committed_density_matches_ensemble_mixture():
    """Each honest ensemble mixes to the diagonal typed here, with every
    off-diagonal entry 0."""
    diagonals = {
        BB84: ((0.5, 0.5), (0.5, 0.5)),
        AMB: ((0.5, 0.5, 0.0), (0.5, 0.0, 0.5)),
        MCQM: ((0.49, 0.49, 0.02), (0.49, 0.02, 0.49)),
        lt(0.9): ((0.9, 0.1), (0.1, 0.9)),
        lt(0.62): ((0.62, 0.38), (0.38, 0.62)),
    }
    for fam, pair in diagonals.items():
        for commit, diagonal in enumerate(pair):
            rho = committed_density(fam, commit)
            assert np.allclose(rho, np.diag(diagonal), atol=1e-12), (fam, commit)


def test_bb84_commitments_are_indistinguishable():
    assert trace_distance(committed_density(BB84, 0),
                          committed_density(BB84, 1)) == pytest.approx(0.0, abs=1e-12)


def test_loss_tolerant_commitment_diagonals():
    fam = lt(0.9)
    assert committed_density(fam, 0).diagonal() == pytest.approx([0.9, 0.1])
    assert committed_density(fam, 1).diagonal() == pytest.approx([0.1, 0.9])


def test_mcqm_commitment_diagonals():
    assert committed_density(MCQM, 0).diagonal() == pytest.approx([0.49, 0.49, 0.02])
    assert committed_density(MCQM, 1).diagonal() == pytest.approx([0.49, 0.02, 0.49])


def test_committed_densities_are_diagonal():
    for fam in (BB84, AMB, MCQM, lt(0.7)):
        for commit in (0, 1):
            m = committed_density(fam, commit)
            assert np.allclose(m, np.diag(np.diag(m)), atol=1e-12)


def _build(family: StateFamily) -> None:
    """What building a family's hooks and oracles asks of the catalog."""
    for a in (0, 1):
        committed_density(family, a)  # and its states
    basis_pair(family)


def test_family_caches_hold_one_grid_and_stay_bounded():
    """A FAMILIES-point alpha2 grid fits the one family cache, basis_pair's,
    so a second pass over it builds nothing; a 300-family sweep keeps the
    bound."""
    cache = catalog.basis_pair
    grid = [lt(float(a2)) for a2 in np.linspace(0.51, 0.99, FAMILIES)]
    for family in grid:
        _build(family)
    misses = cache.cache_info().misses
    for family in grid:
        _build(family)
    assert cache.cache_info().misses == misses
    for a2 in np.linspace(0.501, 0.999, 300):
        _build(lt(float(a2)))
    info = cache.cache_info()
    assert (info.maxsize, info.currsize) == (FAMILIES, FAMILIES)
