"""Acceptance gate: one test per acceptance criterion.

Monte Carlo rows use 10^5 trials at a fixed seed and a 5 sigma gate around
their analytics.reference_table() values (conftest.assert_z). Each test prints
a single pass/fail line (bypassing output capture) so the gate's verdict is
visible in any pytest run.
"""
import functools
import itertools
import math

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, assert_metric, assert_z, sigma

from coinflip.analytics import (alice_bias_bound, bob_bias, fair_alpha2,
                                reference_table)
from coinflip.catalog import Family, StateFamily, basis_pair, committed_density
from coinflip.discrimination import (COMPUTATIONAL_USD_AMBAINIS,
                                     max_confidence, stats, usd_pure_pair)
from coinflip.harness import ExperimentConfig, run_experiment
from coinflip.protocols import VARIANT_NAMES, ProtocolId
from coinflip.quantum import helstrom_success, mix, trace_distance

TRIALS = 100_000
SEED = 12345
ORACLE = dict(reference_table())


def announce(criterion, description):
    """Emit one pass/fail line per criterion.

    The line is printed immediately (visible under -s) and queued for the
    terminal summary so it also shows up in captured runs.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _emit(f"ACCEPTANCE {criterion}: FAIL - {description}")
                raise
            _emit(f"ACCEPTANCE {criterion}: PASS - {description}")
        return wrapper
    return deco


def _emit(line):
    print(line)
    ACCEPTANCE_LINES.append(line)


@functools.lru_cache(maxsize=None)
def experiment(**kw):
    merged = dict(trials=TRIALS, seed=SEED)
    merged.update(kw)
    return run_experiment(ExperimentConfig(**merged))


def assert_mutually_consistent(estimates):
    for (e1, p), (e2, q) in itertools.combinations(estimates.items(), 2):
        assert_z(p, q, math.hypot(sigma("p_hat", p, TRIALS), sigma("p_hat", q, TRIALS)),
                 f"eta {e1} vs {e2}:")


@announce("criterion 1", "fair parameter point and equal bias formulas")
def test_criterion_1_fair_parameters():
    t = fair_alpha2()
    assert abs(t - 0.9) < 1e-12
    assert abs(alice_bias_bound(0.9) - 0.4) < 1e-12
    assert abs(bob_bias(0.9) - 0.4) < 1e-12


@announce("criterion 2", "optimal sender attack: 0.90 at every loss rate")
def test_criterion_2_sender_attack_loss_invariant():
    estimates = {}
    for eta in (1.0, 0.5, 0.1):
        est = experiment(protocol=ProtocolId.LOSS_TOLERANT_CF,
                         alice="lt_optimal", eta=eta)
        assert_metric(est, "p_hat", ORACLE["lt_alice_success"], f"eta {eta}:")
        estimates[eta] = est.p_hat
    assert_mutually_consistent(estimates)


@announce("criterion 3", "optimal receiver attack: 0.90 at every loss rate")
def test_criterion_3_receiver_attack_loss_invariant():
    estimates = {}
    for eta in (1.0, 0.5, 0.1):
        est = experiment(protocol=ProtocolId.LOSS_TOLERANT_CF,
                         bob="lt_helstrom", target=1, eta=eta)
        assert_metric(est, "p_hat", ORACLE["lt_bob_success"], f"eta {eta}:")
        estimates[eta] = est.p_hat
    assert_mutually_consistent(estimates)


@announce("criterion 4", "conjugate-basis qubit protocol attacks")
def test_criterion_4_bb84_attacks():
    est = experiment(protocol=ProtocolId.BB84_CF, alice="bb84_postpone_lie")
    assert_metric(est, "p_hat", ORACLE["bb84_postpone_lie_success"])

    est = experiment(protocol=ProtocolId.BB84_CF, alice="bb84_rotated")
    assert_metric(est, "p_hat", ORACLE["bb84_rotated_success"])
    assert_metric(est, "abort_rate", ORACLE["bb84_rotated_caught"])

    est = experiment(protocol=ProtocolId.BB84_CF, alice="bb84_epr", target=1)
    assert_metric(est, "p_hat", ORACLE["bb84_epr_success"])
    assert est.aborts == 0


@announce("criterion 5", "qutrit protocol attacks and loss loopholes")
def test_criterion_5_ambainis_attacks():
    est = experiment(protocol=ProtocolId.AMBAINIS_CF, alice="ambainis_optimal")
    assert_metric(est, "p_hat", ORACLE["ambainis_alice_success"])

    est = experiment(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                     variant=VARIANT_NAMES["restart_measure"],
                     bob="ambainis_conclusive", target=1, eta=1.0)
    assert_metric(est, "p_hat", ORACLE["ambainis_conclusive_success"])
    assert_metric(est, "restarts_per_trial", ORACLE["ambainis_conclusive_restarts"])

    est = experiment(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                     variant=VARIANT_NAMES["believe_on_faith"],
                     alice="send_nothing", target=1)
    assert_metric(est, "p_hat", ORACLE["send_nothing_success"])


@announce("criterion 6", "closed-form discrimination oracles")
def test_criterion_6_discrimination_oracles():
    mcqm = StateFamily(Family.MCQM_EXAMPLE)
    r0, r1 = committed_density(mcqm, 0), committed_density(mcqm, 1)
    assert abs(trace_distance(r0, r1) - ORACLE["mcqm_trace_distance"]) < 1e-9
    assert abs(helstrom_success(r0, r1) - ORACLE["helstrom_mcqm"]) < 1e-9
    s = stats(COMPUTATIONAL_USD_AMBAINIS, r0, r1)
    assert abs(s.p_inconclusive - ORACLE["mcqm_inconclusive"]) < 1e-9
    assert abs(s.confidence - ORACLE["mcqm_confidence"]) < 1e-9

    ket0 = np.array([1.0, 0.0])
    plus = np.array([1 / math.sqrt(2), 1 / math.sqrt(2)])
    usd = stats(usd_pure_pair(ket0, plus), mix((1.0,), [ket0]), mix((1.0,), [plus]))
    assert abs((1.0 - usd.p_inconclusive) - ORACLE["usd_0_plus"]) < 1e-9

    amb = StateFamily(Family.AMBAINIS)
    s = stats(COMPUTATIONAL_USD_AMBAINIS,
              committed_density(amb, 0), committed_density(amb, 1))
    assert abs((1.0 - s.p_inconclusive) - ORACLE["ambainis_usd_conclusive"]) < 1e-9


@announce("criterion 7", "matched honest-looking pair agreement rate")
def test_criterion_7_cunning_game():
    est = experiment(protocol=ProtocolId.LOSS_TOLERANT_CF, bob="cunning_son")
    assert_metric(est, "p_hat", ORACLE["cunning_agreement"])


@announce("criterion 8", "two-photon side channel conclusive rates")
def test_criterion_8_side_channel():
    est = experiment(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="honest_pulse",
                     bob="twophoton_usd", target=1, photon_count=2)
    assert_metric(est, "conclusive_rate", ORACLE["twophoton_usd_rate"])
    assert_metric(est, "p_hat", ORACLE["twophoton_usd_correct"])

    est = experiment(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="honest_pulse",
                     bob="twophoton_honest_apparatus", target=1, photon_count=2)
    assert_metric(est, "conclusive_rate", ORACLE["twophoton_honest_rate"])
    assert est.successes == est.trials


@announce("criterion 9", "structural property suites")
def test_criterion_9_property_suites():
    # --- density / measurement invariants over the whole catalog -----------
    families = [StateFamily(Family.BB84), StateFamily(Family.AMBAINIS),
                StateFamily(Family.MCQM_EXAMPLE)]
    families += [StateFamily(Family.LOSS_TOLERANT, t) for t in (0.55, 0.7, 0.9, 0.95)]
    for fam in families:
        for m in basis_pair(fam):
            assert np.allclose(m.conj() @ m.T, np.eye(fam.dim), atol=1e-9)
        for commit in (0, 1):
            rho = committed_density(fam, commit)
            assert np.allclose(rho, rho.conj().T, atol=1e-9)
            assert abs(np.trace(rho) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-9
    assert np.allclose(sum(COMPUTATIONAL_USD_AMBAINIS), np.eye(3), atol=1e-9)

    # --- Born-rule normalization over 10^3 random states -------------------
    gen = np.random.Generator(np.random.PCG64(SEED))
    for _ in range(1000):
        dim = int(gen.integers(2, 4))
        vec = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        s = vec / np.linalg.norm(vec)
        fam = (StateFamily(Family.LOSS_TOLERANT, 0.9) if dim == 2
               else StateFamily(Family.AMBAINIS))
        probs = np.abs(basis_pair(fam)[int(gen.integers(0, 2))] @ s) ** 2
        assert all(p >= -1e-12 for p in probs)
        assert abs(sum(probs) - 1.0) < 1e-9

    # --- honest runs never abort, across all protocols and loss rates ------
    for protocol in ProtocolId:
        for eta in (1.0, 0.5, 0.1):
            est = experiment(protocol=protocol, eta=eta, trials=10_000)
            assert est.aborts == 0, (protocol, eta)
            assert_metric(est, "p_hat", 0.5, f"{protocol.name} eta {eta}:")

    # --- sender bound respected across the parameter grid ------------------
    n = 20_000
    for i in range(9):
        alpha2 = 0.55 + 0.05 * i
        est = experiment(protocol=ProtocolId.LOSS_TOLERANT_CF,
                         alice="lt_optimal", alpha2=alpha2, trials=n,
                         seed=SEED + i)
        bound = 0.5 + alice_bias_bound(alpha2)
        assert est.p_hat <= bound + 3.0 * sigma("p_hat", bound, n), (alpha2, est.p_hat)

    # --- no measurement guesses the commitment better than minimum error,
    # even one that may claim loss ---------------------------------------
    for alpha2 in (0.6, 0.75, 0.9):
        fam = StateFamily(Family.LOSS_TOLERANT, alpha2)
        assert max_confidence(committed_density(fam, 0), committed_density(fam, 1)) \
            == pytest.approx(0.5 + bob_bias(alpha2), abs=1e-12)
