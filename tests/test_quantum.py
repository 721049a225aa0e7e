"""Linear-algebra core: states, densities, measurements, distances, steering."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinflip import quantum
from coinflip.catalog import Family, StateFamily, basis_pair
from coinflip.discrimination import stats, usd_pure_pair
from coinflip.errors import DimensionMismatch, ProbabilityMismatch
from coinflip.harness import ExperimentConfig, build_hooks
from coinflip.protocols import EprHalf, HonestAlice, SingleState, measure_delivery
from coinflip.quantum import (BORN_TABLES, born_table, helstrom_success,
                              measure_projective, measure_table, mix,
                              steer_epr, trace_distance)
from coinflip.rng import bit, cumulative, inverse_cdf

from conftest import assert_z, sigma, valid_configs

SQ2 = 1.0 / math.sqrt(2.0)
MIXED = np.eye(2) / 2.0  # the maximally mixed qubit


def probabilities(state, bras) -> np.ndarray:
    """The Born probabilities of one state in the basis whose rows are bras,
    read from its Born table."""
    table = born_table(np.asarray(state)[:, None], bras[None])
    return np.diff(table[:, 0], prepend=0.0)


# ---------------------------------------------------------------------------
# construction and normalization

def test_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        mix((1.0,), [(1.0, 1.0)])
    with pytest.raises(ValueError):
        usd_pure_pair(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_state_rejects_bad_dimension():
    for dim in (1, 5):
        rho = np.eye(dim) / dim
        with pytest.raises(DimensionMismatch):
            trace_distance(rho, rho)
    with pytest.raises(DimensionMismatch):
        trace_distance(MIXED, np.eye(3) / 3.0)


# ---------------------------------------------------------------------------
# densities and mixtures

def test_density_of_basis_state():
    rho = mix((1.0,), [(1.0, 0.0)])
    assert np.allclose(rho, np.diag([1.0, 0.0]))


def test_density_of_plus_state():
    rho = mix((1.0,), [(SQ2, SQ2)])
    assert np.allclose(rho, np.full((2, 2), 0.5))


def test_density_of_matches_independent_outer_product():
    v = np.array([2.0, 1.0, 1.0]) / math.sqrt(6.0)
    assert np.allclose(mix((1.0,), [v]), np.outer(v, v.conj()), atol=1e-12)


def test_mix_of_basis_states_is_maximally_mixed():
    rho = mix((0.5, 0.5), np.eye(2))
    assert np.allclose(rho, np.eye(2) / 2.0)


def test_mix_weights_must_sum_to_one():
    """One weight per state, none negative, summing to one."""
    with pytest.raises(ProbabilityMismatch):
        mix((0.5,), [(1.0, 0.0)])
    with pytest.raises(ProbabilityMismatch):
        mix((), np.empty((0, 2)))
    with pytest.raises(ProbabilityMismatch):
        mix((1.5, -0.5), np.eye(2))
    with pytest.raises(ProbabilityMismatch):
        mix((1.0,), np.eye(2))
    with pytest.raises(ProbabilityMismatch):  # states are rows, even one
        mix((0.5, 0.5), [1.0, 0.0])


def test_density_matrix_rejects_nonhermitian():
    with pytest.raises(ValueError):
        trace_distance(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex), MIXED)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        trace_distance(MIXED, np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        helstrom_success(np.diag([1.5, -0.5]).astype(complex), MIXED)


# ---------------------------------------------------------------------------
# projective measurement

def test_basis_must_be_orthogonal(monkeypatch):
    """basis_pair checks both of a family's bases, the second one too."""
    skewed = (((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (SQ2, SQ2)))
    monkeypatch.setattr("coinflip.catalog._rows", lambda family: skewed)
    with pytest.raises(ValueError, match="not orthonormal"):
        basis_pair.__wrapped__(StateFamily(Family.BB84))  # past the cache


def copies(amplitudes, n: int) -> np.ndarray:
    """A batch of n copies of a state, one per column."""
    return np.repeat(np.array(amplitudes, dtype=float)[:, None], n, axis=1)


X_BASIS = np.array([(SQ2, SQ2), (SQ2, -SQ2)])  # rows <+|, <-|


def test_eigenstate_measurement_is_deterministic(rng):
    outcomes = measure_projective(copies((SQ2, SQ2), 200), X_BASIS[None], rng(200), 0)
    assert (outcomes == 0).all()


def test_born_rule_probabilities_exact():
    alpha, beta = math.sqrt(0.9), math.sqrt(0.1)
    probs = probabilities((SQ2, SQ2), np.array([(alpha, beta), (beta, -alpha)]))
    # |<phi_00|+>|^2 = (alpha+beta)^2/2 = 1/2 + alpha*beta
    assert abs(probs[0] - (0.5 + alpha * beta)) < 1e-12
    assert abs(sum(probs) - 1.0) < 1e-12


def test_born_rule_empirical(rng):
    alpha, beta = math.sqrt(0.9), math.sqrt(0.1)
    bras = np.array([(alpha, beta), (beta, -alpha)])
    n = 100_000
    hits = (measure_projective(copies((SQ2, SQ2), n), bras[None], rng(n), 0) == 0).sum()
    p = 0.5 + alpha * beta
    assert_z(hits / n, p, sigma("frequency", p, n))


def test_measurement_checks_every_state(rng):
    """A batch holding one unnormalized state is rejected, and a basis per
    state measures each state in its own basis."""
    batch = copies((0.0, 1.0), 100)
    batch[:, 41] = (1.0, 1e-4)
    with pytest.raises(ValueError):
        measure_projective(batch, np.eye(2)[None], rng(100), 0)
    batch[:, 41] = (SQ2, -SQ2)
    which = np.zeros(100, dtype=int)
    which[41] = 1
    outcomes = measure_projective(batch, np.stack([np.eye(2), X_BASIS]), rng(100), which)
    assert (outcomes == 1).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_born_rule_probabilities_normalized_fuzzed(re, im):
    vec = np.array([complex(r, i) for r, i in zip(re, im)])
    if np.linalg.norm(vec) < 1e-6:
        return
    probs = probabilities(vec / np.linalg.norm(vec), np.eye(3))
    assert all(p >= -1e-12 for p in probs)
    assert abs(sum(probs) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# POVMs

def test_povm_must_sum_to_identity():
    half = 0.5 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        stats(np.stack((half, 0.25 * np.eye(2, dtype=complex))), MIXED, MIXED)


def test_povm_elements_must_be_psd():
    e0 = np.diag([1.5, 0.0]).astype(complex)
    e1 = np.eye(2, dtype=complex) - e0
    with pytest.raises(ValueError):
        stats(np.stack((e0, e1)), MIXED, MIXED)


def test_povm_elements_must_be_hermitian():
    e0 = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="not Hermitian"):
        stats(np.stack((e0, np.eye(2) - e0)), MIXED, MIXED)


def test_povm_probabilities_on_mixed_state():
    half = 0.5 * np.eye(2, dtype=complex)
    s = stats(np.stack((half, half)), MIXED, MIXED)
    assert [s.per_outcome[0][1], s.p_inconclusive] == pytest.approx([0.5, 0.5])


# ---------------------------------------------------------------------------
# trace distance and minimum-error discrimination

def _diag(p0: float) -> np.ndarray:
    return np.diag([p0, 1.0 - p0]).astype(complex)


def test_trace_distance_of_equal_states_is_zero():
    rho = _diag(0.3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_of_orthogonal_states_is_one():
    assert trace_distance(_diag(1.0), _diag(0.0)) == pytest.approx(1.0)


def test_trace_distance_symmetric_and_bounded(rng):
    for _ in range(50):
        a, b = rng(2)
        r0, r1 = _diag(a), _diag(b)
        d = trace_distance(r0, r1)
        assert d == pytest.approx(trace_distance(r1, r0))
        assert -1e-12 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(abs(a - b))  # diagonal qubits: |p0 - q0|


def _brute_force_best_guess(r0: np.ndarray, r1: np.ndarray) -> float:
    """Independent oracle: scan projective qubit measurements in 1-degree
    steps and take the best average guessing success with optimal labeling."""
    best = 0.0
    for deg in range(180):
        t = math.radians(deg)
        u = np.array([math.cos(t), math.sin(t)])
        v = np.array([-math.sin(t), math.cos(t)])
        score = 0.0
        for w in (u, v):
            q0 = float((w @ r0.real @ w))
            q1 = float((w @ r1.real @ w))
            score += 0.5 * max(q0, q1)
        best = max(best, score)
    return best


def test_helstrom_matches_brute_force_for_diagonal_pairs():
    for a, b in [(0.9, 0.1), (0.7, 0.4), (0.5, 0.5), (1.0, 0.0), (0.6, 0.55)]:
        r0, r1 = _diag(a), _diag(b)
        assert helstrom_success(r0, r1) == pytest.approx(
            _brute_force_best_guess(r0, r1), abs=1e-4)


def test_helstrom_on_maximally_mixed_pair_is_half():
    assert helstrom_success(MIXED, MIXED) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# entangled-pair steering

def _basis(theta: float) -> np.ndarray:
    """The real qubit basis at angle theta, one bra per row."""
    return np.array([(math.cos(theta), math.sin(theta)),
                     (-math.sin(theta), math.cos(theta))])


def test_steer_epr_same_basis_anticorrelation(rng):
    """Each far half is orthogonal to the observed basis vector; one int
    basis index measures every pair as an index per pair does."""
    m = _basis(0.7)
    u = rng(10_000)
    outcomes, far = steer_epr(m[None], u, np.zeros(10_000, int))
    probs = np.abs(m @ far) ** 2  # [outcome, pair]
    pairs = np.arange(10_000)
    assert probs[outcomes, pairs] == pytest.approx(0.0, abs=1e-9)
    assert probs[1 - outcomes, pairs] == pytest.approx(1.0, abs=1e-9)
    one_for_all = steer_epr(np.stack([_basis(0.1), m]), u, 1)
    assert np.array_equal(one_for_all[0], outcomes)
    assert np.array_equal(one_for_all[1], far)


def test_steer_epr_outcome_is_uniform(rng):
    m = _basis(1.1)
    n = 100_000
    ones = steer_epr(m[None], rng(n), np.zeros(n, int))[0].sum()
    assert_z(ones / n, 0.5, sigma("frequency", 0.5, n))


def test_steer_epr_other_basis_statistics(rng):
    """Measuring the steered half in a rotated basis reproduces the Born rule
    for the anticorrelated collapsed state."""
    m = _basis(0.0)
    other = _basis(math.pi / 8.0)
    n = 50_000
    outcomes, far = steer_epr(m[None], rng(n), np.zeros(n, int))
    kept = outcomes == 0
    total = kept.sum()
    hits = (measure_projective(far[:, kept], other[None], rng(n)[kept], 0) == 0).sum()
    # far state is |1>; |<cos,sin|1>|^2 = sin^2(pi/8)
    p = math.sin(math.pi / 8.0) ** 2
    assert_z(hits / total, p, sigma("frequency", p, total))


def test_steer_epr_rejects_qutrit_basis(rng):
    with pytest.raises(DimensionMismatch):
        steer_epr(np.eye(3)[None], rng(1), np.zeros(1, int))


# ---------------------------------------------------------------------------
# Born tables

def _born_pairs():
    """Every distinct (sender state table, receiver bases) pair of the hooks
    that build_hooks makes over valid_configs, at two alpha2 values."""
    pairs = {}
    for alpha2 in (0.6, 0.9):
        for cfg in valid_configs(alpha2=alpha2):
            alice, bob = build_hooks(cfg)
            states, bras = getattr(alice, "states", None), getattr(bob, "bras", None)
            if states is None or bras is None:
                continue
            key = (states.tobytes(), states.shape, bras.tobytes(), bras.shape)
            pairs.setdefault(key, (states, bras))
    return list(pairs.values())


BORN_PAIRS = _born_pairs()
QUARTERS = cumulative((0.25,) * 4)  # a uniform index among four


def _draw_both(states, bras, index, u, which):
    """(table draw, measure_projective on the gathered columns)."""
    return (measure_table(states, index, bras, u, which),
            measure_projective(states[:, index], bras, u, which))


def test_born_pairs_cover_qubits_qutrits_and_both_basis_counts():
    kinds = {(states.shape[0], len(bras)) for states, bras in BORN_PAIRS}
    assert kinds == {(2, 1), (2, 2), (3, 1), (3, 2)}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 600), st.integers(0, 2 ** 32 - 1))
def test_born_table_draws_equal_measure_projective(n, seed):
    """For every pair the hooks make, a draw from the table equals
    measure_projective on the same columns, outcome for outcome."""
    r = np.random.default_rng(seed)
    for states, bras in BORN_PAIRS:
        index = r.integers(states.shape[1], size=n)
        which = r.integers(len(bras), size=n)
        table, direct = _draw_both(states, bras, index, r.random(n), which)
        assert np.array_equal(table, direct)


def test_born_table_draws_agree_at_every_cdf_step():
    """Uniforms on and next to each cumulative step of every column: a table
    whose probabilities differed from measure_projective's in the last bit
    would draw another outcome at one of them."""
    for states, bras in BORN_PAIRS:
        table = born_table(states, bras)
        step = (table[:-1] / table[-1]).T.ravel()  # each column's steps in turn
        u = np.concatenate([np.nextafter(step, 0.0), step, np.nextafter(step, 1.0)])
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        col = np.tile(np.repeat(np.arange(table.shape[1]), len(table) - 1), 3)
        index, which = np.divmod(col, len(bras))
        table, direct = _draw_both(states, bras, index, u, which)
        assert np.array_equal(table, direct)


def test_born_table_rejects_what_measure_projective_rejects(rng):
    """An unnormalized state, a basis index outside the stack and a state
    index past the table raise as before, through measure_delivery too;
    none of them is read as another basis's column. An EPR half rejects a
    basis index outside the stack as a state does, and a bare basis, not a
    stack, is refused by every measurement and by born_table."""
    bras = basis_pair(StateFamily(Family.BB84))
    states = bras.conj().reshape(-1, 2).T  # column 2a + x is |a, x>
    n = 50
    u, index, which = rng(n), inverse_cdf(*QUARTERS, rng(n)), bit(rng(n))
    unnormalized = states.copy()
    unnormalized[:, 3] *= 1.01
    index[0] = 3
    cases = [(ValueError, unnormalized, index, which)]
    for bad in (2, -1):  # 2 * 0 + 2 would be column 1 in basis 0
        outside = which.copy()
        outside[7] = bad
        cases.append((ValueError, states, index, outside))
    past = index.copy()
    past[7] = 4
    cases.append((IndexError, states, past, which))
    for error, table, idx, wh in cases:
        with pytest.raises(error):
            measure_projective(table[:, idx], bras, u, wh)
        with pytest.raises(error):
            measure_table(table, idx, bras, u, wh)
        with pytest.raises(error):
            measure_delivery(SingleState(table, idx), np.ones(n, bool), bras, u, wh)
    for bad in (2, -1):  # steer_epr would read -1 as basis 1
        outside = which.copy()
        outside[7] = bad
        with pytest.raises(ValueError):
            measure_delivery(EprHalf(np.ones((2, n), complex)), np.ones(n, bool),
                             bras, u, outside)
    for measure in (lambda b: measure_projective(states[:, index], b, u, which),
                    lambda b: measure_table(states, index, b, u, which),
                    lambda b: steer_epr(b, u, which),
                    lambda b: born_table(states, b)):
        with pytest.raises(DimensionMismatch):
            measure(bras[0])


def test_every_measurement_draws_once_through_draw(monkeypatch, rng):
    """measure_projective, measure_table, steer_epr (an int and an array
    basis index) and measure_delivery (a state and an EPR half) each reach
    quantum._draw exactly once per call: there is one draw path."""
    draw, calls = quantum._draw, []

    def spy(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(quantum, "_draw", spy)
    bras = basis_pair(StateFamily(Family.BB84))
    states = bras.conj().reshape(-1, 2).T  # column 2a + x is |a, x>
    n = 50
    u, index, which = rng(n), inverse_cdf(*QUARTERS, rng(n)), bit(rng(n))
    delivered = np.ones(n, bool)
    delivered[7] = False
    for measure in (lambda: measure_projective(states[:, index], bras, u, which),
                    lambda: measure_table(states, index, bras, u, which),
                    lambda: steer_epr(bras, u, 1),
                    lambda: steer_epr(bras, u, which),
                    lambda: measure_delivery(SingleState(states, index), delivered,
                                             bras, u, which),
                    lambda: measure_delivery(EprHalf(np.ones((2, n), complex)),
                                             delivered, bras, u, which)):
        calls.clear()
        measure()
        assert len(calls) == 1


def test_born_tables_are_shared_by_content_and_bounded():
    """Equal arrays, a view of a stack included, share one table, and an
    alpha2 sweep over 300 families keeps at most BORN_TABLES of them."""
    family = StateFamily(Family.LOSS_TOLERANT, 0.9)
    states, bras = HonestAlice(ExperimentConfig(), family).states, basis_pair(family)
    first = born_table(states, bras[:1])
    assert born_table(states.copy(), bras[:1].copy()) is first
    for alpha2 in np.linspace(0.51, 0.99, 300):
        family = StateFamily(Family.LOSS_TOLERANT, float(alpha2))
        born_table(HonestAlice(ExperimentConfig(), family).states, basis_pair(family))
    info = quantum._born_table.cache_info()
    assert info.maxsize == BORN_TABLES
    assert info.currsize == BORN_TABLES
