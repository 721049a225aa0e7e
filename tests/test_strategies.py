"""Cheating strategies: reveal tables, compatibility, and attack mechanics."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinflip.catalog import Family, StateFamily, basis_pair
from coinflip.channel import transmit
from coinflip.errors import IncompatibleProtocol
from coinflip.analytics import alice_bias_bound, reference_table
from coinflip.harness import (VARIANT_NAMES, ExperimentConfig, build_hooks,
                              run_experiment)
from coinflip.protocols import (Decision, HonestBob, ProtocolId, SingleState,
                                run_chunk)
from coinflip.rng import (CHOOSE_B, PREPARE, RECEIVE, REVEAL, SLOTS, TRANSMIT,
                          VERIFY, bit)
from coinflip.strategies import (ALICE_STRATEGIES, BOB_STRATEGIES, REGISTRY,
                                 AmbainisOptimalAlice, LossTolerantOptimalAlice,
                                 RotatedStateAlice, Side, lookup)

from conftest import assert_metric, assert_z, sigma, valid_configs

BB84 = StateFamily(Family.BB84)
AMB = StateFamily(Family.AMBAINIS)
LT9 = StateFamily(Family.LOSS_TOLERANT, 0.9)
ORACLE = dict(reference_table())


# ---------------------------------------------------------------------------
# registry

def test_factory_rejects_unknown_strategy():
    with pytest.raises(IncompatibleProtocol):
        lookup(Side.ALICE, "nonsense", ProtocolId.BB84_CF)


def test_factory_rejects_wrong_protocol():
    with pytest.raises(IncompatibleProtocol):
        lookup(Side.ALICE, "lt_optimal", ProtocolId.BB84_CF)
    with pytest.raises(IncompatibleProtocol):
        lookup(Side.BOB, "lt_helstrom", ProtocolId.AMBAINIS_CF)


def run_one_step(alice, bob, u, anything_arrives):
    """Call one step's hooks in engine order on every round of a batch in
    which no round arrives, or about half do, check that each returns one
    entry per round, and return how each round ends."""
    emission = alice.prepare(u[PREPARE])
    delivered = transmit(emission, 0.5, u[TRANSMIT])
    delivered &= anything_arrives
    restart = bob.receive(emission, delivered, u[RECEIVE])
    b = bob.choose_b(u[CHOOSE_B])
    a, x = alice.reveal(b, u[REVEAL])
    decision = bob.verify(a, x, u[VERIFY])
    for out in (restart, b, a, x, decision):
        assert np.shape(out) == delivered.shape
    return np.where(restart, Decision.REQUEST_RESTART, decision)


def test_every_listed_strategy_builds(rng):
    """Each registry entry is its hooks class and builds on every protocol it
    applies to, under a variant it plays, and its pair's hooks run on every
    round of a step, restarted rounds included, without raising."""
    assert ALICE_STRATEGIES == tuple(REGISTRY[Side.ALICE])
    assert BOB_STRATEGIES == tuple(REGISTRY[Side.BOB])
    for side, entries in REGISTRY.items():
        for name, spec in entries.items():
            assert spec.protocols
            assert isinstance(spec.build, type), name
            for protocol in spec.protocols:
                cfg = ExperimentConfig(protocol=protocol,
                                       variant=(spec.variants or (None,))[0],
                                       photon_count=spec.min_photons,
                                       **{side.value: name})
                alice, bob = build_hooks(cfg)
                assert type((alice, bob)[side is Side.BOB]) is spec.build
                for anything_arrives in (False, True):
                    run_one_step(alice, bob, rng(SLOTS, 64), anything_arrives)


def test_restarts_on_loss_is_declared_truly(rng):
    """Every round of a step in which nothing arrives ends in REQUEST_RESTART
    exactly when the pair's Bob declares restarts_on_loss, for every valid
    pairing; the engine draws such a Bob's runs of losses as one count."""
    for cfg in valid_configs():
        alice, bob = build_hooks(cfg)
        decision = run_one_step(alice, bob, rng(SLOTS, 64), False)
        assert (decision == Decision.REQUEST_RESTART).all() == bob.restarts_on_loss, cfg


# ---------------------------------------------------------------------------
# reveal tables verified by direct overlap computation

def sent_states(emission):
    """The emission's states, one amplitude vector per round."""
    return list(emission.states[:, emission.index].T)


def fidelity(s, family, a, x) -> float:
    """|<a, x|s>|^2, with |a, x> row x of the family's basis a."""
    return abs(np.vdot(basis_pair(family)[a, x], s)) ** 2


def test_rotated_alice_picks_the_closest_bit(rng):
    alice = RotatedStateAlice(ExperimentConfig(protocol=ProtocolId.BB84_CF), BB84)
    sent = sent_states(alice.prepare(rng(2, 200)))
    b = bit(rng(200))
    a, x = alice.reveal(b, rng(200))
    assert (a == b).all()  # she forces a xor b = 0
    for s, aa, xx in zip(sent, a.tolist(), x.tolist()):
        fids = [fidelity(s, BB84, aa, k) for k in (0, 1)]
        assert fids[xx] == max(fids)
        # no ties at odd multiples of pi/8: the gap is always 1/sqrt(2)
        assert abs(fids[xx] - fids[1 - xx]) == pytest.approx(1.0 / math.sqrt(2.0))


def test_ambainis_alice_reveal_maximizes_overlap(rng):
    alice = AmbainisOptimalAlice(ExperimentConfig(protocol=ProtocolId.AMBAINIS_CF), AMB)
    sent = sent_states(alice.prepare(rng(2, 200)))
    for b in (0, 1):
        a, x = alice.reveal(np.full(200, b), rng(200))
        assert (a == b).all()
        for s, xx in zip(sent, x.tolist()):
            fids = [fidelity(s, AMB, b, k) for k in (0, 1)]
            assert fids[xx] == max(fids)
            assert fids[xx] == pytest.approx(0.75)  # (2 + s_a)^2 / 12 with s_a = +/-1


def test_lt_alice_reveal_maximizes_overlap(rng):
    ab = math.sqrt(0.9 * 0.1)
    alice = LossTolerantOptimalAlice(ExperimentConfig(), LT9)
    sent = sent_states(alice.prepare(rng(2, 200)))
    for b in (0, 1):
        a, x = alice.reveal(np.full(200, b), rng(200))
        assert (x == b).all()  # forces x xor b = 0
        for s, aa in zip(sent, a.tolist()):
            fids = {(k, b): fidelity(s, LT9, k, b) for k in (0, 1)}
            assert fids[(aa, b)] == max(fids.values())
            assert fids[(aa, b)] == pytest.approx(0.5 + ab)


def test_hook_state_tables_are_read_only_and_unit_norm(rng):
    """Every registered Alice that sends a state table sends a read-only one
    with unit-norm columns, on every protocol she plays and across an alpha2
    grid; every Bob's measurement bases are read-only too. Born tables are
    kept by content, so a table changed in place would be read stale. An
    Alice's draw table (cdf, total) is built once per weight tuple: every
    experiment on the family holds the same two read-only arrays."""
    senders, drawers = set(), set()
    for alpha2 in (0.55, 0.7, 0.9, 0.95):
        for cfg in valid_configs(alpha2=alpha2):
            alice, bob = build_hooks(cfg)
            again, _ = build_hooks(cfg)
            for name in ("x_cdf", "k_cdf"):
                if hasattr(alice, name):
                    drawers.add(cfg.alice)
                    table = getattr(alice, name)
                    assert table is getattr(again, name), cfg
                    for column in table:
                        with pytest.raises(ValueError):
                            column[...] = 0.0
            states = getattr(alice.prepare(rng(SLOTS, 8)[PREPARE]), "states", None)
            if states is not None:
                senders.add(cfg.alice)
                assert not states.flags.writeable, cfg
                assert (np.abs(states) ** 2).sum(0) == pytest.approx(1.0, abs=1e-12)
            bras = getattr(bob, "bras", None)  # restart abuse never measures
            assert bras is None or not bras.flags.writeable, cfg
    # vacuum and an EPR half carry no table
    assert senders == set(ALICE_STRATEGIES) - {"send_nothing", "bb84_epr"}
    assert drawers == {"honest", "bb84_postpone_lie", "bb84_rotated",
                       "cunning_mother", "honest_pulse"}


def test_every_state_sender_draws_an_in_range_index_on_every_round(rng):
    """A receiver measures every round of a step, lost ones too, so every
    Alice whose emission is a SingleState draws an integer index naming a
    column of her state table on every round, at random uniforms and at the
    ends of [0, 1), on every valid pairing and across an alpha2 grid."""
    top = np.nextafter(1.0, 0.0)
    u = np.hstack([rng(2, 256), [[0.0, top, 0.0, top], [0.0, top, top, 0.0]]])
    senders = set()
    for alpha2 in (0.55, 0.7, 0.9, 0.95):
        for cfg in valid_configs(alpha2=alpha2):
            alice, _ = build_hooks(cfg)
            emission = alice.prepare(u)
            if not isinstance(emission, SingleState):
                continue
            senders.add(cfg.alice)
            index = emission.index
            assert index.shape == (u.shape[1],) and index.dtype.kind == "i", cfg
            assert 0 <= index.min() and index.max() < emission.states.shape[1], cfg
    assert senders == set(ALICE_STRATEGIES) - {"send_nothing", "bb84_epr"}


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
    est = _run(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
               variant=VARIANT_NAMES["restart_measure"], bob="ambainis_conclusive",
               target=1, trials=20_000)
    assert est.successes == est.trials
    assert_metric(est, "restarts_per_trial", ORACLE["ambainis_conclusive_restarts"])


def test_measuring_receiver_sends_uniform_looking_b():
    """Against an honest sender the guess-based b of the measuring receiver
    is marginally uniform, so the attack is invisible upstream."""
    bs = []
    cfg = ExperimentConfig(protocol=ProtocolId.LOSS_TOLERANT_CF,
                           bob="lt_helstrom", target=1, trials=20_000,
                           seed=424242)
    run_experiment(cfg, transcript_sink=lambda t: bs.append(t.b))
    assert_z(sum(bs) / len(bs), 0.5, sigma("frequency", 0.5, len(bs)))


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
    # every trial the lie loses aborts
    assert_metric(est, "abort_rate", 1.0 - ORACLE["bb84_postpone_lie_success"])


def test_sender_bias_bound_across_parameter_grid():
    """Measured optimal-sender success meets 3/4 + alpha*beta/2 within 5 sigma,
    and exceeds it by at most 3 sigma, for alpha^2 in {0.55, ..., 0.95}."""
    trials = 20_000
    for i in range(9):
        alpha2 = 0.55 + 0.05 * i
        est = _run(protocol=ProtocolId.LOSS_TOLERANT_CF, alice="lt_optimal",
                   alpha2=alpha2, trials=trials, seed=1000 + i)
        bound = 0.5 + alice_bias_bound(alpha2)
        assert est.p_hat <= bound + 3.0 * sigma("p_hat", bound, trials), alpha2
        assert_metric(est, "p_hat", bound, f"alpha2 {alpha2}:")


# ---------------------------------------------------------------------------
# a certificate against prepare-and-measure Alices: a pure state psi and a
# reveal table (a_b, x_b) for each b; a mixed strategy is a convex combination
# of these, so the pure ones cover it

def alice_win(family, psi, table, target):
    """Her closed-form success against honest Bob: a b in {0, 1} counts when
    x_b xor b is the target, and then she passes unless Bob measured in a_b
    (probability 1/2) and found another bit than x_b, with probability
    1 - |<a_b, x_b|psi>|^2."""
    pair = basis_pair(family)
    return 0.5 * sum(0.5 + 0.5 * abs(np.vdot(pair[a, x], psi)) ** 2
                     for b, (a, x) in enumerate(table) if x ^ b == target)


def qubit(theta, phi):
    return np.array([math.cos(theta), np.exp(1j * phi) * math.sin(theta)])


BITS = st.integers(0, 1)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.51, 0.99), st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi),
       BITS, st.tuples(st.tuples(BITS, BITS), st.tuples(BITS, BITS)))
# power check: lt_optimal's |+> with a_b = x_b = b reaches the bound for
# target 0, so a bound below her optimum would fail here
@example(0.9, math.pi / 4.0, 0.0, 0, ((0, 0), (1, 1)))
def test_no_prepare_and_measure_alice_beats_her_bound(alpha2, theta, phi, target,
                                                      table):
    family = StateFamily(Family.LOSS_TOLERANT, alpha2)
    win = alice_win(family, qubit(theta, phi), table, target)
    assert win <= 0.5 + alice_bias_bound(alpha2) + 1e-12


@pytest.mark.parametrize("alpha2", (0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95))
@pytest.mark.parametrize("target", (0, 1))
def test_lt_optimal_reaches_the_alice_bound(alpha2, target):
    """Averaged over the two (state, table) pairs lt_optimal sends with equal
    probability, |+> and |->, her closed-form success is the bound."""
    family = StateFamily(Family.LOSS_TOLERANT, alpha2)
    alice = LossTolerantOptimalAlice(ExperimentConfig(target=target), family)
    emission = alice.prepare(np.array([[0.25, 0.75]]))  # sends |-> then |+>
    reveals = [alice.reveal(np.full(2, b), None) for b in (0, 1)]  # (a, x) per b
    win = np.mean([alice_win(family, emission.states[:, emission.index[j]],
                             [(a[j], x[j]) for a, x in reveals], target)
                   for j in (0, 1)])
    assert win == pytest.approx(0.5 + alice_bias_bound(alpha2), abs=1e-12)


class FixedStateAlice:
    """Sends one state psi every round and reveals table[b] = (a, x)."""

    def __init__(self, psi, table):
        self.states = psi.reshape(2, 1)
        self.a, self.x = np.array(table).T

    def prepare(self, u):
        return SingleState(self.states, np.zeros(u.shape[1], dtype=np.intp))

    def reveal(self, b, u):
        return self.a[b], self.x[b]


@pytest.mark.parametrize("eta", (1.0, 0.5))
def test_engine_meets_the_alice_closed_form(rng, eta):
    """One drawn psi with a fixed table, run by the engine against the honest
    loss-tolerant Bob, wins as often as alice_win says, lost rounds and all."""
    trials, target, table = 20_000, 1, ((1, 1), (0, 0))
    theta, phi = rng(2) * (math.pi, 2.0 * math.pi)
    cfg = ExperimentConfig(alpha2=0.8, eta=eta, target=target)
    family, psi = StateFamily(Family.LOSS_TOLERANT, cfg.alpha2), qubit(theta, phi)
    verdict, coin, _ = run_chunk(cfg, FixedStateAlice(psi, table),
                                 HonestBob(cfg, family), 0, trials)
    wins = np.count_nonzero((verdict == Decision.ACCEPTED) & (coin == target))
    expected = alice_win(family, psi, table, target)
    assert_z(wins / trials, expected, sigma("p_hat", expected, trials), f"eta {eta}:")
