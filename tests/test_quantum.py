"""Linear-algebra core: states, densities, measurements, distances, steering."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinflip.errors import (DimensionMismatch, ProbabilityMismatch,
                             ZeroVector)
from coinflip.quantum import (DensityMatrix, Povm, ProjectiveMeasurement,
                              QuantumState, density_of, helstrom_success,
                              measure_povm, measure_projective, mix,
                              normalize, steer_epr, trace_distance)
from coinflip.rng import RandomStream

from conftest import assert_close_5sigma

SQ2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# construction and normalization

def test_normalize_unit_vector_is_identity():
    s = normalize((1.0, 0.0))
    assert s.amplitudes == (1.0 + 0.0j, 0.0 + 0.0j)


def test_normalize_scales_to_unit_norm():
    s = normalize((1.0, 1.0))
    assert abs(s.amplitudes[0] - SQ2) < 1e-12
    assert abs(s.amplitudes[1] - SQ2) < 1e-12


def test_normalize_preserves_direction():
    s = normalize((3.0, 4.0j, 0.0))
    # the ratio of amplitudes must be unchanged
    assert abs(s.amplitudes[1] / s.amplitudes[0] - 4.0j / 3.0) < 1e-12


def test_normalize_zero_vector_raises():
    with pytest.raises(ZeroVector):
        normalize((0.0, 0.0))


def test_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        QuantumState((1.0, 1.0))


def test_state_rejects_bad_dimension():
    with pytest.raises(DimensionMismatch):
        QuantumState((1.0,))
    with pytest.raises(DimensionMismatch):
        QuantumState((1.0, 0, 0, 0, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=2, max_size=4))
def test_normalize_fuzzed(amps):
    vec = [complex(re, im) for re, im in amps]
    if math.sqrt(sum(abs(a) ** 2 for a in vec)) < 1e-6:
        return
    s = normalize(vec)
    assert abs(sum(abs(a) ** 2 for a in s.amplitudes) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# densities and mixtures

def test_density_of_basis_state():
    rho = density_of(QuantumState((1.0, 0.0)))
    assert np.allclose(rho.entries, np.diag([1.0, 0.0]))


def test_density_of_plus_state():
    rho = density_of(QuantumState((SQ2, SQ2)))
    assert np.allclose(rho.entries, np.full((2, 2), 0.5))


def test_density_of_matches_independent_outer_product():
    s = normalize((2.0, 1.0, 1.0))
    v = np.array(s.amplitudes)
    assert np.allclose(density_of(s).entries, np.outer(v, v.conj()), atol=1e-12)


def test_mix_of_basis_states_is_maximally_mixed():
    rho = mix([(0.5, QuantumState((1.0, 0.0))), (0.5, QuantumState((0.0, 1.0)))])
    assert np.allclose(rho.entries, np.eye(2) / 2.0)


def test_mix_weights_must_sum_to_one():
    with pytest.raises(ProbabilityMismatch):
        mix([(0.5, QuantumState((1.0, 0.0)))])
    with pytest.raises(ProbabilityMismatch):
        mix([])


def test_density_matrix_rejects_nonhermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_is_read_only():
    rho = density_of(QuantumState((1.0, 0.0)))
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0


# ---------------------------------------------------------------------------
# projective measurement

def test_basis_must_be_orthogonal():
    with pytest.raises(ValueError):
        ProjectiveMeasurement(
            (QuantumState((1.0, 0.0)), QuantumState((SQ2, SQ2))), ("0", "1"))


def test_eigenstate_measurement_is_deterministic(rng):
    m = ProjectiveMeasurement(
        (QuantumState((SQ2, SQ2)), QuantumState((SQ2, -SQ2))), ("+", "-"))
    for _ in range(200):
        out = measure_projective(QuantumState((SQ2, SQ2)), m, rng)
        assert out.label == "+"
        assert out.post_state == m.basis[0]


def test_born_rule_probabilities_exact():
    alpha, beta = math.sqrt(0.9), math.sqrt(0.1)
    m = ProjectiveMeasurement(
        (QuantumState((alpha, beta)), QuantumState((beta, -alpha))), ("0", "1"))
    probs = m.probabilities(QuantumState((SQ2, SQ2)))
    # |<phi_00|+>|^2 = (alpha+beta)^2/2 = 1/2 + alpha*beta
    assert abs(probs[0] - (0.5 + alpha * beta)) < 1e-12
    assert abs(sum(probs) - 1.0) < 1e-12


def test_born_rule_empirical(rng):
    alpha, beta = math.sqrt(0.9), math.sqrt(0.1)
    m = ProjectiveMeasurement(
        (QuantumState((alpha, beta)), QuantumState((beta, -alpha))), ("0", "1"))
    state = QuantumState((SQ2, SQ2))
    n = 100_000
    hits = sum(measure_projective(state, m, rng).label == "0" for _ in range(n))
    assert_close_5sigma(hits / n, 0.5 + alpha * beta, n)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_born_rule_probabilities_normalized_fuzzed(re, im):
    vec = [complex(r, i) for r, i in zip(re, im)]
    if math.sqrt(sum(abs(a) ** 2 for a in vec)) < 1e-6:
        return
    s = normalize(vec)
    m = ProjectiveMeasurement(
        tuple(QuantumState(tuple(1.0 if i == j else 0.0 for j in range(3)))
              for i in range(3)),
        ("0", "1", "2"))
    probs = m.probabilities(s)
    assert all(p >= -1e-12 for p in probs)
    assert abs(sum(probs) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# POVMs

def test_povm_must_sum_to_identity():
    half = 0.5 * np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        Povm((half, 0.25 * np.eye(2, dtype=complex)), ("a", "b"))


def test_povm_elements_must_be_psd():
    e0 = np.diag([1.5, 0.0]).astype(complex)
    e1 = np.eye(2, dtype=complex) - e0
    with pytest.raises(ValueError):
        Povm((e0, e1), ("a", "b"))


def test_povm_elements_are_read_only():
    e0 = np.diag([1.0, 0.0]).astype(complex)
    p = Povm((e0, np.eye(2, dtype=complex) - e0), ("a", "b"))
    with pytest.raises(ValueError):
        p.elements[0][0, 0] = 0.5
    e0[0, 0] = 0.5  # the caller's array is copied, not frozen or aliased
    assert p.elements[0][0, 0] == 1.0


def test_povm_probabilities_on_mixed_state():
    p = Povm((0.5 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)),
             ("a", "b"))
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    assert p.probabilities(rho) == pytest.approx([0.5, 0.5])


def test_measure_povm_empirical(rng):
    e0 = np.diag([0.7, 0.2]).astype(complex)
    e1 = np.eye(2, dtype=complex) - e0
    p = Povm((e0, e1), ("a", "b"))
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    n = 50_000
    hits = sum(measure_povm(rho, p, rng).label == "a" for _ in range(n))
    assert_close_5sigma(hits / n, 0.45, n)


# ---------------------------------------------------------------------------
# trace distance and minimum-error discrimination

def _diag(p0: float) -> DensityMatrix:
    return DensityMatrix(np.diag([p0, 1.0 - p0]).astype(complex))


def test_trace_distance_of_equal_states_is_zero():
    rho = _diag(0.3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_trace_distance_of_orthogonal_states_is_one():
    assert trace_distance(_diag(1.0), _diag(0.0)) == pytest.approx(1.0)


def test_trace_distance_symmetric_and_bounded(rng):
    for _ in range(50):
        a, b = rng.random(), rng.random()
        r0, r1 = _diag(a), _diag(b)
        d = trace_distance(r0, r1)
        assert d == pytest.approx(trace_distance(r1, r0))
        assert -1e-12 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(abs(a - b))  # diagonal qubits: |p0 - q0|


def _brute_force_best_guess(r0: DensityMatrix, r1: DensityMatrix) -> float:
    """Independent oracle: scan projective qubit measurements in 1-degree
    steps and take the best average guessing success with optimal labeling."""
    best = 0.0
    for deg in range(180):
        t = math.radians(deg)
        u = np.array([math.cos(t), math.sin(t)])
        v = np.array([-math.sin(t), math.cos(t)])
        score = 0.0
        for w in (u, v):
            q0 = float((w @ r0.entries.real @ w))
            q1 = float((w @ r1.entries.real @ w))
            score += 0.5 * max(q0, q1)
        best = max(best, score)
    return best


def test_helstrom_matches_brute_force_for_diagonal_pairs():
    for a, b in [(0.9, 0.1), (0.7, 0.4), (0.5, 0.5), (1.0, 0.0), (0.6, 0.55)]:
        r0, r1 = _diag(a), _diag(b)
        assert helstrom_success(r0, r1) == pytest.approx(
            _brute_force_best_guess(r0, r1), abs=1e-4)


def test_helstrom_on_maximally_mixed_pair_is_half():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    assert helstrom_success(rho, rho) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# entangled-pair steering

def _basis(theta: float) -> ProjectiveMeasurement:
    u = QuantumState((math.cos(theta), math.sin(theta)))
    v = QuantumState((-math.sin(theta), math.cos(theta)))
    return ProjectiveMeasurement((u, v), ("0", "1"))


def test_steer_epr_same_basis_anticorrelation(rng):
    m = _basis(0.7)
    for _ in range(10_000):
        i, far = steer_epr(m, rng)
        probs = m.probabilities(far)
        assert probs[i] == pytest.approx(0.0, abs=1e-9)
        assert probs[1 - i] == pytest.approx(1.0, abs=1e-9)


def test_steer_epr_outcome_is_uniform(rng):
    m = _basis(1.1)
    n = 100_000
    ones = sum(steer_epr(m, rng)[0] for _ in range(n))
    assert_close_5sigma(ones / n, 0.5, n)


def test_steer_epr_other_basis_statistics(rng):
    """Measuring the steered half in a rotated basis reproduces the Born rule
    for the anticorrelated collapsed state."""
    m = _basis(0.0)
    other = _basis(math.pi / 8.0)
    n = 50_000
    hits = total = 0
    for _ in range(n):
        i, far = steer_epr(m, rng)
        if i != 0:
            continue
        total += 1
        hits += measure_projective(far, other, rng).label == "0"
    # far state is |1>; |<cos,sin|1>|^2 = sin^2(pi/8)
    assert_close_5sigma(hits / total, math.sin(math.pi / 8.0) ** 2, total)


def test_steer_epr_rejects_qutrit_basis():
    m = ProjectiveMeasurement(
        tuple(QuantumState(tuple(1.0 if i == j else 0.0 for j in range(3)))
              for i in range(3)),
        ("0", "1", "2"))
    with pytest.raises(DimensionMismatch):
        steer_epr(m, RandomStream(1))
