"""Cheating strategies: reveal tables, compatibility, and attack mechanics."""
import math

import pytest

from coinflip.catalog import Family, StateFamily, StateLabel, state
from coinflip.errors import IncompatibleProtocol
from coinflip.harness import ExperimentConfig, run_experiment
from coinflip.protocols import ProtocolId
from coinflip.rng import RandomStream
from coinflip.strategies import (ALICE_STRATEGIES, BOB_STRATEGIES,
                                 AmbainisOptimalAlice, LossTolerantOptimalAlice,
                                 RotatedStateAlice, Side, StrategyId, make)

from conftest import assert_close_5sigma

BB84 = StateFamily(Family.BB84)
AMB = StateFamily(Family.AMBAINIS)
LT9 = StateFamily(Family.LOSS_TOLERANT, 0.9)


# ---------------------------------------------------------------------------
# factory

def test_factory_rejects_unknown_strategy():
    with pytest.raises(IncompatibleProtocol):
        make(StrategyId(Side.ALICE, "nonsense"), ProtocolId.BB84_CF, BB84)


def test_factory_rejects_wrong_protocol():
    with pytest.raises(IncompatibleProtocol):
        make(StrategyId(Side.ALICE, "lt_optimal"), ProtocolId.BB84_CF, BB84)
    with pytest.raises(IncompatibleProtocol):
        make(StrategyId(Side.BOB, "lt_helstrom"), ProtocolId.AMBAINIS_CF, AMB)


def test_every_listed_strategy_builds():
    targets = {
        "bb84_postpone_lie": (ProtocolId.BB84_CF, BB84),
        "bb84_rotated": (ProtocolId.BB84_CF, BB84),
        "bb84_epr": (ProtocolId.BB84_CF, BB84),
        "ambainis_optimal": (ProtocolId.AMBAINIS_CF, AMB),
        "lt_optimal": (ProtocolId.LOSS_TOLERANT_CF, LT9),
        "send_nothing": (ProtocolId.AMBAINIS_CF, AMB),
        "cunning_mother": (ProtocolId.LOSS_TOLERANT_CF, LT9),
        "honest_pulse": (ProtocolId.LOSS_TOLERANT_CF, LT9),
    }
    for name in ALICE_STRATEGIES:
        protocol, fam = targets[name]
        assert make(StrategyId(Side.ALICE, name), protocol, fam) is not None
    bob_targets = {
        "ambainis_restart_abuse": (ProtocolId.AMBAINIS_CF_VARIANT, AMB),
        "ambainis_conclusive": (ProtocolId.AMBAINIS_CF_VARIANT, AMB),
        "lt_helstrom": (ProtocolId.LOSS_TOLERANT_CF, LT9),
        "mcqm_restart": (ProtocolId.MCQM_CONTRIVED_CF,
                         StateFamily(Family.MCQM_EXAMPLE)),
        "cunning_son": (ProtocolId.LOSS_TOLERANT_CF, LT9),
        "twophoton_usd": (ProtocolId.LOSS_TOLERANT_CF, LT9),
        "twophoton_honest_apparatus": (ProtocolId.LOSS_TOLERANT_CF, LT9),
    }
    for name in BOB_STRATEGIES:
        protocol, fam = bob_targets[name]
        assert make(StrategyId(Side.BOB, name), protocol, fam) is not None


# ---------------------------------------------------------------------------
# reveal tables verified by direct overlap computation

def test_rotated_alice_picks_the_closest_bit():
    alice = RotatedStateAlice(BB84, 0)
    rng = RandomStream(5)
    for _ in range(200):
        alice.prepare(rng)
        b = rng.bit()
        a, x = alice.reveal(b, rng)
        assert a == b  # she forces a xor b = 0
        fids = [alice.sent.fidelity_with(state(BB84, StateLabel(a, xx)))
                for xx in (0, 1)]
        assert fids[x] == max(fids)
        # no ties at odd multiples of pi/8: the gap is always 1/sqrt(2)
        assert abs(fids[x] - fids[1 - x]) == pytest.approx(1.0 / math.sqrt(2.0))


def test_ambainis_alice_reveal_maximizes_overlap():
    alice = AmbainisOptimalAlice(AMB, 0)
    rng = RandomStream(6)
    for _ in range(200):
        alice.prepare(rng)
        for b in (0, 1):
            a, x = alice.reveal(b, rng)
            assert a == b
            fids = [alice.sent_state().fidelity_with(
                state(AMB, StateLabel(a, xx))) for xx in (0, 1)]
            assert fids[x] == max(fids)
            assert fids[x] == pytest.approx(0.75)  # (2 + s_a)^2 / 12 with s_a = +/-1


def test_lt_alice_reveal_maximizes_overlap():
    ab = math.sqrt(0.9 * 0.1)
    alice = LossTolerantOptimalAlice(LT9, 0)
    rng = RandomStream(7)
    for _ in range(200):
        emission = alice.prepare(rng)
        for b in (0, 1):
            a, x = alice.reveal(b, rng)
            assert x == b  # forces x xor b = 0
            fids = {
                (aa, x): emission.state.fidelity_with(
                    state(LT9, StateLabel(aa, x)))
                for aa in (0, 1)
            }
            assert fids[(a, x)] == max(fids.values())
            assert fids[(a, x)] == pytest.approx(0.5 + ab)


# sent_state helper used above: reconstruct from the stored signs
def _ambainis_sent(self):
    s1, s2 = self.signs
    r6 = math.sqrt(6.0)
    from coinflip.quantum import QuantumState
    return QuantumState((2.0 / r6, s1 / r6, s2 / r6))


AmbainisOptimalAlice.sent_state = _ambainis_sent


# ---------------------------------------------------------------------------
# attack mechanics via the harness

def _run(**kw):
    defaults = dict(trials=20_000, seed=424242)
    defaults.update(kw)
    return run_experiment(ExperimentConfig(**defaults))


def test_restart_abuse_always_wins():
    est = _run(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
               variant=None, bob="ambainis_restart_abuse", target=1,
               trials=5000)
    assert est.successes == est.trials
    assert est.aborts == 0


def test_conclusive_receiver_restart_rate():
    """The shared-support outcome fires half the time, so terminating trials
    need one extra round on average."""
    est = _run(protocol=ProtocolId.AMBAINIS_CF_VARIANT, bob="ambainis_conclusive",
               target=1, trials=20_000)
    assert est.successes == est.trials
    assert est.restarts_per_trial == pytest.approx(1.0, abs=0.05)


def test_measuring_receiver_sends_uniform_looking_b():
    """Against an honest sender the guess-based b of the measuring receiver
    is marginally uniform, so the attack is invisible upstream."""
    bs = []
    cfg = ExperimentConfig(protocol=ProtocolId.LOSS_TOLERANT_CF,
                           bob="lt_helstrom", target=1, trials=20_000,
                           seed=424242)
    run_experiment(cfg, transcript_sink=lambda t: bs.append(t.b))
    assert_close_5sigma(sum(bs) / len(bs), 0.5, len(bs))


def test_double_cheat_with_shared_target_always_wins():
    """A forcing sender against a never-verifying receiver aiming at the same
    bit cannot lose: x = b forces outcome 0 and nobody aborts."""
    est = _run(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="lt_optimal",
               bob="lt_helstrom", target=0, trials=5000)
    assert est.successes == est.trials
    assert est.aborts == 0


def test_cunning_pair_always_agree_on_zero():
    est = _run(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="cunning_mother",
               bob="cunning_son", target=0, trials=10_000)
    assert est.successes == est.trials
    assert est.aborts == 0


def test_twophoton_conclusive_verdicts_are_always_correct():
    est = _run(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="honest_pulse",
               bob="twophoton_usd", target=1, photon_count=2, trials=10_000)
    assert est.successes == est.trials
    est = _run(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="honest_pulse",
               bob="twophoton_honest_apparatus", target=1, photon_count=2,
               trials=10_000)
    assert est.successes == est.trials


def test_postpone_lie_abort_rate():
    """The lie survives verification 3/4 of the time, so 1/8 of all trials
    abort."""
    est = _run(protocol=ProtocolId.BB84_CF, alice="bb84_postpone_lie",
               target=0, trials=40_000)
    assert est.abort_rate == pytest.approx(0.125, abs=0.01)


def test_sender_bias_bound_across_parameter_grid():
    """Measured optimal-sender success never exceeds 3/4 + alpha*beta/2 by
    more than 3 sigma, for alpha^2 in {0.55, ..., 0.95}."""
    trials = 20_000
    for i in range(9):
        alpha2 = 0.55 + 0.05 * i
        est = _run(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="lt_optimal",
                   alpha2=alpha2, trials=trials, seed=1000 + i)
        bound = 0.75 + 0.5 * math.sqrt(alpha2 * (1.0 - alpha2))
        sigma = math.sqrt(bound * (1.0 - bound) / trials)
        assert est.p_hat <= bound + 3.0 * sigma, (alpha2, est.p_hat, bound)
        # the attack also saturates the bound (it is optimal)
        assert est.p_hat == pytest.approx(bound, abs=0.015)
