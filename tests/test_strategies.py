"""Cheating strategies: reveal tables, compatibility, and attack mechanics."""
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coinflip import strategies
from coinflip.catalog import Family, StateFamily, basis_pair
from coinflip.errors import IncompatibleProtocol
from coinflip.analytics import alice_bias_bound, bob_bias, reference_table
from coinflip.harness import ExperimentConfig, build_hooks, run_experiment
from coinflip.protocols import (PROTOCOLS, VARIANT_NAMES, Decision, ProtocolId,
                                attempt, family_for, run_chunk)
from coinflip.rng import (PREPARE, RECEIVE, SLOTS, TRANSMIT, cumulative,
                          inverse_cdf)
from coinflip.strategies import (ALICE_STRATEGIES, BOB_STRATEGIES, REGISTRY,
                                 CunningSonBob, EprSteeringAlice, GuessingBob,
                                 HonestBob, RestartAbuseBob, Side, TableAlice,
                                 lookup)

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


def run_one_step(cfg, alice, bob, u, anything_arrives):
    """Run one attempt of cfg's round (protocols.attempt) on every round of
    the block columns u, in which rounds arrive at cfg.eta, or none does
    (cfg at eta = 1, where transmit draws every round, and every TRANSMIT
    uniform 1); check that each hook returns one entry per round (verify
    one Decision per round, restarts included), and return how each round
    ends."""
    if not anything_arrives:
        assert cfg.eta == 1.0  # below it, lost_rounds delivers what can arrive
        u[TRANSMIT] = 1.0
    _, delivered, *_, b, a, x, decision, coin = attempt(cfg, alice, bob, u)
    for out in (b, a, x, decision, coin):
        assert np.shape(out) == delivered.shape
    return decision


def test_every_listed_strategy_builds(rng):
    """Each registry entry's builder builds its hooks on every protocol it
    applies to, under a variant it plays, and its pair's hooks run on every
    round of a step, restarted rounds included, without raising, at
    eta = 0.5 and at eta = 1 with none delivered. Every Alice is a
    TableAlice but the EPR one, and the Bobs are four hooks classes."""
    assert ALICE_STRATEGIES == tuple(REGISTRY[Side.ALICE])
    assert BOB_STRATEGIES == tuple(REGISTRY[Side.BOB])
    classes = {Side.ALICE: set(), Side.BOB: set()}
    for side, entries in REGISTRY.items():
        for name, spec in entries.items():
            assert spec.protocols
            assert callable(spec.build), name
            for protocol, (eta, anything_arrives) in itertools.product(
                    spec.protocols, ((0.5, True), (1.0, False))):
                cfg = ExperimentConfig(protocol=protocol,
                                       variant=(spec.variants or (None,))[0],
                                       photon_count=spec.min_photons, eta=eta,
                                       **{side.value: name})
                alice, bob = build_hooks(cfg)
                classes[side].add(type(alice if side is Side.ALICE else bob))
                if side is Side.ALICE:
                    assert isinstance(alice, TableAlice) == (name != "bb84_epr")
                run_one_step(cfg, alice, bob, rng(SLOTS, 64), anything_arrives)
    assert classes[Side.ALICE] == {TableAlice, EprSteeringAlice}
    assert classes[Side.BOB] == {HonestBob, CunningSonBob, RestartAbuseBob,
                                 GuessingBob}


def test_restarts_on_loss_is_declared_truly(rng):
    """Every round of a step in which nothing arrives ends in REQUEST_RESTART
    exactly when the pair's Bob declares restarts_on_loss, for every valid
    pairing; the engine draws such a Bob's runs of losses as one count."""
    for cfg in valid_configs():
        alice, bob = build_hooks(cfg)
        decision = run_one_step(cfg, alice, bob, rng(SLOTS, 64), False)
        assert (decision == Decision.REQUEST_RESTART).all() == bob.restarts_on_loss, cfg


# ---------------------------------------------------------------------------
# reveal tables verified by direct overlap computation, entry by entry

def alice_of(name, protocol=ProtocolId.LOSS_TOLERANT_CF, **kw):
    """The registry's Alice `name`, built as an experiment builds her."""
    return build_hooks(ExperimentConfig(protocol=protocol, alice=name, **kw))[0]


def fidelity(s, family, a, x) -> float:
    """|<a, x|s>|^2, with |a, x> row x of the family's basis a."""
    return abs(np.vdot(basis_pair(family)[a, x], s)) ** 2


def reveals(name, protocol=ProtocolId.LOSS_TOLERANT_CF, **kw):
    """Every (target, sent state, b, a, x) of the tables of the registry's
    Alice `name`, for each target: each column of her states, each b and
    each entry r of her reveal table."""
    for target in (0, 1):
        alice = alice_of(name, protocol, target=target, **kw)
        for i, s in enumerate(alice.states.T):
            for b in (0, 1):
                for a, x in alice.table[i, b].tolist():
                    yield target, s, b, a, x


def test_rotated_alice_picks_the_closest_bit():
    for target, s, b, a, x in reveals("bb84_rotated", ProtocolId.BB84_CF):
        assert a ^ b == target  # she forces a xor b
        fids = [fidelity(s, BB84, a, k) for k in (0, 1)]
        assert fids[x] == max(fids)
        # no ties at odd multiples of pi/8: the gap is always 1/sqrt(2)
        assert abs(fids[x] - fids[1 - x]) == pytest.approx(1.0 / math.sqrt(2.0))


def test_ambainis_alice_reveal_maximizes_overlap():
    for target, s, b, a, x in reveals("ambainis_optimal", ProtocolId.AMBAINIS_CF):
        assert a ^ b == target
        fids = [fidelity(s, AMB, a, k) for k in (0, 1)]
        assert fids[x] == max(fids)
        assert fids[x] == pytest.approx(0.75)  # (2 + s_a)^2 / 12 with s_a = +/-1


def test_lt_alice_reveal_maximizes_overlap():
    ab = math.sqrt(0.9 * 0.1)
    for target, s, b, a, x in reveals("lt_optimal", alpha2=0.9):
        assert x ^ b == target  # forces x xor b
        fids = {(k, x): fidelity(s, LT9, k, x) for k in (0, 1)}
        assert fids[(a, x)] == max(fids.values())
        assert fids[(a, x)] == pytest.approx(0.5 + ab)


def test_hook_state_tables_are_read_only_and_unit_norm(rng):
    """Every registered Alice sends a read-only table with unit-norm columns,
    on every protocol she plays and across an alpha2 grid, but the vacuum
    sender; for the EPR Alice it is the far table Bob's measurement steers
    her halves onto. Every Bob's measurement bases are read-only too. A
    TableAlice's tables (states, digit thresholds and reveals) and a
    GuessingBob's (bases and b, decision and outcome tables) are built once per
    (strategy, family, target), and an Alice's photon count: every experiment
    that plays one gets the same player, whose hooks write nothing to it."""
    senders, drawers, guessers = set(), set(), set()
    for alpha2 in (0.55, 0.7, 0.9, 0.95):
        for cfg in valid_configs(alpha2=alpha2):
            alice, bob = build_hooks(cfg)
            again, bob_again = build_hooks(cfg)
            if isinstance(alice, TableAlice):
                assert again is alice, cfg
                if alice.thr.size:
                    drawers.add(cfg.alice)
                for array in (alice.thr, alice.tot, alice.col, alice.radix,
                              alice.table, alice.a, alice.x):
                    with pytest.raises(ValueError):
                        array[...] = 0
            if isinstance(bob, GuessingBob):
                guessers.add(cfg.bob)
                assert bob_again is bob, cfg
                for name in ("bras", "b", "decisions", "outcome"):
                    with pytest.raises(ValueError):
                        getattr(bob, name)[...] = 0
            u = rng(SLOTS, 8)
            emission = alice.prepare(u[PREPARE])
            if emission.entangled:  # Bob's measurement steers it
                bob.receive(emission, np.ones(8, bool), u[RECEIVE])
            states = emission.states
            if states is not None:
                senders.add(cfg.alice)
                assert not states.flags.writeable, cfg
                assert (np.abs(states) ** 2).sum(0) == pytest.approx(1.0, abs=1e-12)
            bras = getattr(bob, "bras", None)  # restart abuse never measures
            assert bras is None or not bras.flags.writeable, cfg
    # vacuum carries no table
    assert senders == set(ALICE_STRATEGIES) - {"send_nothing"}
    assert drawers == senders - {"bb84_epr"}
    assert guessers == {"ambainis_conclusive", "lt_helstrom", "mcqm_restart",
                        "twophoton_usd", "twophoton_honest_apparatus"}


def test_an_alices_photon_count_is_in_her_shared_key():
    """The one cache of players keys an Alice by her photon count too:
    honest loss-tolerant Alice run at 2, then 1, then 2 photons, on one
    family and target, tags every round she sends by that run's count. Only
    the channel's vacuum test and this tag read her count, so no tally would
    show a key that dropped it."""
    strategies._built.cache_clear()
    sent = []
    for photons in (2, 1, 2):
        transcripts = []
        run_experiment(ExperimentConfig(photon_count=photons, eta=0.5, trials=50),
                       transcripts.append)
        sent.append({r["sent"] for t in transcripts for r in t.rounds})
    assert sent == [{"pulse:2"}, {"state"}, {"pulse:2"}]


def ogrid_reveals(m, reveal):
    """The reveal table as it was first built: reveal(index, b, r) on
    np.ogrid, each of a and x broadcast to (m, 2, 2), stacked last."""
    return np.stack([np.broadcast_to(v, (m, 2, 2))
                     for v in reveal(*np.ogrid[:m, :2, :2])], -1)


def test_reveal_tables_equal_the_ogrid_construction(monkeypatch):
    """Every registered TableAlice, on every family she plays (two alpha2
    for the loss-tolerant one) and for both targets, holds byte-equal
    arrays, of one dtype and shape, whether her reveal table is built from
    flat index arrays or on np.ogrid."""
    arrays = ("table", "a", "x", "thr", "tot", "col", "radix")
    cases = {}
    for alpha2, target in itertools.product((0.55, 0.9), (0, 1)):
        for cfg in valid_configs(alpha2=alpha2, target=target):
            if isinstance(REGISTRY[Side.ALICE][cfg.alice].build, type):
                continue  # her own hooks, not a TableAlice
            cases.setdefault((cfg.alice, family_for(cfg.protocol, cfg.alpha2),
                              cfg.target), cfg)
    built = {key: build_hooks(cfg)[0] for key, cfg in cases.items()}
    assert {name for name, _, _ in built} == set(ALICE_STRATEGIES) - {"bb84_epr"}
    assert len({family for _, family, _ in built}) == 5
    assert {target for _, _, target in built} == {0, 1}
    strategies._built.cache_clear()
    monkeypatch.setattr(strategies, "_reveals", ogrid_reveals)
    try:
        for key, cfg in cases.items():
            reference = build_hooks(cfg)[0]
            assert isinstance(reference, TableAlice), key
            for name in arrays:
                new, old = getattr(built[key], name), getattr(reference, name)
                assert (new.dtype, new.shape) == (old.dtype, old.shape), (key, name)
                assert new.tobytes() == old.tobytes(), (key, name)
    finally:
        strategies._built.cache_clear()


def _loop_index(alice, u):
    """The index a TableAlice sends, digit by digit: inverse_cdf over each
    column's cumulative weights, read as one mixed-radix number."""
    index = 0
    for column, weights in zip(u, alice.weights):
        cdf, total = cumulative(weights)
        index = index * (len(cdf) + 1) + inverse_cdf(cdf, total, column)
    return index


def test_one_comparison_draw_equals_the_per_column_loop(rng):
    """prepare's one comparison, radix @ (thr <= u[col] * tot), sends the
    index of the per-column inverse_cdf loop, for every registry Alice on
    every family and target across an alpha2 grid, a drawn-psi Alice of one
    fixed state and MCQM's three-outcome column, at random uniforms, at
    uniforms on each threshold (cdf = u * total) and its neighbours, at 0
    and at 1 - 2**-53."""
    top = np.nextafter(1.0, 0.0)
    alices = {}
    for alpha2 in (0.55, 0.7, 0.9, 0.95):
        for cfg in valid_configs(alpha2=alpha2):
            alice, _ = build_hooks(cfg)
            if isinstance(alice, TableAlice) and alice.states is not None:
                alices[cfg.alice, cfg.protocol, cfg.alpha2, cfg.target] = alice
    alices["psi"] = TableAlice(qubit(0.3, 1.1).reshape(2, 1), ((1.0,),),
                               np.zeros((1, 2, 2, 2), int))
    assert {key[0] for key in alices if key != "psi"} == (
        set(ALICE_STRATEGIES) - {"send_nothing", "bb84_epr"})
    assert any(len(w) == 3 for a in alices.values() for w in a.weights)  # MCQM
    for key, alice in alices.items():
        edges = (alice.thr / alice.tot).ravel()
        on = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0),
                             [0.0, top]])
        on = on[(on >= 0.0) & (on < 1.0)]
        # every edge value in every column, against every edge in the others
        grid = np.stack(np.meshgrid(*[on] * 2)).reshape(2, -1)
        u = np.hstack([rng(2, 512), grid])
        assert np.array_equal(alice.prepare(u).index, _loop_index(alice, u)), key
def test_every_state_sender_draws_an_in_range_index_on_every_round(rng):
    """A receiver measures every round of a step, lost ones too, so every
    Alice who sends unentangled photons draws an integer index naming a
    column of her state table on every round, at random uniforms and at the
    ends of [0, 1), on every valid pairing and across an alpha2 grid."""
    top = np.nextafter(1.0, 0.0)
    u = np.hstack([rng(2, 256), [[0.0, top, 0.0, top], [0.0, top, top, 0.0]]])
    senders = set()
    for alpha2 in (0.55, 0.7, 0.9, 0.95):
        for cfg in valid_configs(alpha2=alpha2):
            alice, _ = build_hooks(cfg)
            emission = alice.prepare(u)
            if emission.entangled or not emission.photon_count:
                continue
            senders.add(cfg.alice)
            index = emission.index
            assert index.shape == (u.shape[1],) and index.dtype.kind == "i", cfg
            assert 0 <= index.min() and index.max() < emission.states.shape[1], cfg
    assert senders == set(ALICE_STRATEGIES) - {"send_nothing", "bb84_epr"}


# ---------------------------------------------------------------------------
# each guessing Bob's exact values, from his tables and honest Alice's

def guessing_exact(name, alpha2):
    """(P(conclusive), P(win | conclusive)) per delivered round of the
    registry's guessing Bob `name` against honest Alice (honest_pulse for a
    two-photon Bob), exactly: each state she sends, by her weights, each
    basis he draws, at 1/2, and each outcome of each photon he measures, by
    the Born rule, give a key of his tables; unless his decision there is a
    restart, he wins when the coin that his b there (target xor his guess)
    makes with her reveal (read at b & 1, as she reads it) is the target."""
    spec = REGISTRY[Side.BOB][name]
    cfg = ExperimentConfig(protocol=spec.protocols[0],
                           variant=(spec.variants or (None,))[0],
                           alice="honest_pulse" if spec.min_photons > 1 else "honest",
                           bob=name, target=1, alpha2=alpha2,
                           photon_count=spec.min_photons)
    alice, bob = build_hooks(cfg)
    assert isinstance(bob, GuessingBob), name
    coin = int(PROTOCOLS[cfg.protocol].coin_from_x)  # the coin reads a or x
    weights = functools.reduce(np.multiply.outer, alice.weights, np.ones(())).ravel()
    born = np.abs(bob.bras @ alice.states) ** 2  # [basis, outcome, state]
    draws = bob.bases.count(None)
    conclusive = win = 0.0
    for i, p in enumerate(weights):
        for drawn in itertools.product((0, 1), repeat=draws):
            which = iter(drawn)
            bases = [next(which) if basis is None else basis for basis in bob.bases]
            for outcomes in itertools.product(range(born.shape[1]), repeat=len(bases)):
                q = p * 0.5 ** draws * math.prod(born[k, o, i]
                                                 for k, o in zip(bases, outcomes))
                key = (*drawn, *(o + 1 for o in outcomes))
                if bob.decisions[key] == Decision.REQUEST_RESTART:
                    continue
                b = int(bob.b[key])
                conclusive += q
                win += q * np.mean([alice.table[i, b & 1, r, coin] ^ b == cfg.target
                                    for r in (0, 1)])
    return conclusive, win / conclusive


def test_guessing_bobs_exact_values_come_from_their_tables():
    """At the fair point each guessing Bob's tables give the closed-form
    conclusive rate and success of the reference table, and across an alpha2
    grid the optimal loss-tolerant Bob's success is 1/2 + bob_bias."""
    expected = {
        "lt_helstrom": (1.0, ORACLE["lt_bob_success"]),
        "ambainis_conclusive": (ORACLE["ambainis_usd_conclusive"],
                                ORACLE["ambainis_conclusive_success"]),
        "mcqm_restart": (1.0 - ORACLE["mcqm_inconclusive"], ORACLE["mcqm_confidence"]),
        "twophoton_usd": (ORACLE["twophoton_usd_rate"], ORACLE["twophoton_usd_correct"]),
        "twophoton_honest_apparatus": (ORACLE["twophoton_honest_rate"], 1.0),
    }
    for name, values in expected.items():
        assert guessing_exact(name, ORACLE["lt_fair_alpha2"]) == pytest.approx(
            values, abs=1e-12), name
    for alpha2 in (0.55, 0.6, 0.7, 0.8, 0.95):
        assert guessing_exact("lt_helstrom", alpha2) == pytest.approx(
            (1.0, 0.5 + bob_bias(alpha2)), abs=1e-12), alpha2


# ---------------------------------------------------------------------------
# attack mechanics via the harness

def _run(**kw):
    defaults = dict(trials=20_000, seed=424242)
    defaults.update(kw)
    return run_experiment(ExperimentConfig(**defaults))


def test_restart_abuse_always_wins():
    """He claims loss when a xor b misses the target, half the time, and
    otherwise as camouflage at rate max(0, 1 - 2 eta): in all at rate
    c = max(1/2, 1 - eta). Every trial he accepts wins, and a trial's claims
    before it are geometric, c / (1 - c) on average."""
    for eta in (0.05, 0.2, 0.5, 1.0):
        est = _run(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                   variant=None, bob="ambainis_restart_abuse", target=1, eta=eta)
        assert est.successes == est.trials, eta
        assert est.aborts == 0, eta
        c = max(0.5, 1.0 - eta)
        assert_metric(est, "restarts_per_trial", c / (1.0 - c), eta)


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
    """Averaged over the (state, table) pairs of lt_optimal's tables, |-> and
    |+> with the weights she draws them by, her closed-form success is the
    bound."""
    family = StateFamily(Family.LOSS_TOLERANT, alpha2)
    alice = alice_of("lt_optimal", alpha2=alpha2, target=target)
    (weights,), table = alice.weights, alice.table
    assert not alice.fresh  # her reveal reads no fresh bit, so r = 0 is every r
    win = sum(p * alice_win(family, alice.states[:, i], table[i, :, 0], target)
              for i, p in enumerate(weights))
    assert win == pytest.approx(0.5 + alice_bias_bound(alpha2), abs=1e-12)


@pytest.mark.parametrize("eta", (1.0, 0.5))
def test_engine_meets_the_alice_closed_form(rng, eta):
    """One drawn psi with a fixed table, run by the engine as a TableAlice
    against the honest loss-tolerant Bob, wins as often as alice_win says,
    lost rounds and all."""
    trials, target, table = 20_000, 1, ((1, 1), (0, 0))
    theta, phi = rng(2) * (math.pi, 2.0 * math.pi)
    cfg = ExperimentConfig(alpha2=0.8, eta=eta, target=target)
    family, psi = StateFamily(Family.LOSS_TOLERANT, cfg.alpha2), qubit(theta, phi)
    # one state, drawn as digit 0 every round; table[b] = (a, x) whatever r
    alice = TableAlice(psi.reshape(2, 1), ((1.0,),),
                       np.repeat(np.reshape(table, (1, 2, 1, 2)), 2, axis=2))
    verdict, coin, _ = run_chunk(cfg, alice, HonestBob(cfg, family), 0, trials)
    wins = np.count_nonzero((verdict == Decision.ACCEPTED) & (coin == target))
    expected = alice_win(family, psi, table, target)
    assert_z(wins / trials, expected, sigma("p_hat", expected, trials), f"eta {eta}:")


# ---------------------------------------------------------------------------
# the same bounds against entangled Alices. Bob holds rho and Alice its
# purification; once b is known she measures her half, splitting rho into
# sigma_0 + sigma_1 (Hughston, Jozsa & Wootters, Phys. Lett. A 183, 14), one
# part per reveal that can win. Her best split is Helstrom's: V_b(rho) =
# Tr(P_1 rho) + the positive eigenvalues of rho^1/2 (P_0 - P_1) rho^1/2, with
# P_0 and P_1 the projectors Bob checks for those two reveals. MCQM is left
# out: its three reveals make the split a semidefinite program.

def split_value(rho, p0, p1) -> float:
    """V_b(rho) for the rank-one projectors onto the vectors p0 and p1."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(w.clip(0.0))) @ v.conj().T
    diff = np.outer(p0, p0.conj()) - np.outer(p1, p1.conj())
    gain = np.linalg.eigvalsh(root @ diff @ root).clip(0.0).sum()
    return float(np.vdot(p1, rho @ p1).real + gain)


def entangled_win(family, rho, target) -> float:
    """Her best success against honest Bob holding rho: each b has two
    winning reveals. Loss-tolerant (coin x xor b): a in {0, 1} with
    x = c xor b. BB84 and Ambainis (coin a xor b): x in {0, 1} with
    a = c xor b. A Bob who measures on reception (loss-tolerant, BB84)
    checks half the time, so she wins 1/2 + 1/4 sum_b V_b; the storing
    Ambainis Bob always checks, so she wins 1/2 sum_b V_b."""
    pair = basis_pair(family)
    if family.family is Family.LOSS_TOLERANT:
        return 0.5 + 0.25 * sum(split_value(rho, *pair[:, target ^ b]) for b in (0, 1))
    values = [split_value(rho, *pair[target ^ b, :2]) for b in (0, 1)]
    return 0.5 * sum(values) if family.family is Family.AMBAINIS else 0.5 + 0.25 * sum(values)


def densities(dim):
    """Random density matrices G G^dagger / Tr for a complex G of dim rows
    and 1 (pure) to dim columns."""
    def density(k):
        entries = st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * k,
                           max_size=2 * dim * k)
        return entries.map(lambda v: np.reshape(v, (2, dim, k))).map(
            lambda g: (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T)
    return (st.integers(1, dim).flatmap(density)
            .filter(lambda rho: np.trace(rho).real > 1e-3)
            .map(lambda rho: rho / np.trace(rho).real))


def mean_density(alice) -> np.ndarray:
    """The density of the ensemble a TableAlice sends: her states mixed by
    the weights of their indices, each a product of its digits' weights."""
    p = functools.reduce(np.multiply.outer, alice.weights, np.ones(())).ravel()
    return (p * alice.states) @ alice.states.conj().T


LT_PLUS = alice_of("lt_optimal").states[:, 1]  # her |+>
AMB_MIX = mean_density(alice_of("ambainis_optimal", ProtocolId.AMBAINIS_CF))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.51, 0.99), densities(2), BITS)
@example(0.9, np.outer(LT_PLUS, LT_PLUS), 0)  # reaches the bound
def test_no_entangled_alice_beats_the_loss_tolerant_bound(alpha2, rho, target):
    family = StateFamily(Family.LOSS_TOLERANT, alpha2)
    assert entangled_win(family, rho, target) <= 0.5 + alice_bias_bound(alpha2) + 1e-12


@settings(max_examples=100, deadline=None)
@given(densities(2), BITS)
@example(np.eye(2) / 2.0, 0)  # bb84_epr's half of a singlet reaches it
def test_no_entangled_alice_beats_bb84_epr(rho, target):
    assert entangled_win(BB84, rho, target) <= ORACLE["bb84_epr_success"] + 1e-12


@settings(max_examples=100, deadline=None)
@given(densities(3), BITS)
@example(AMB_MIX, 0)  # reaches the bound
def test_no_entangled_alice_beats_ambainis_optimal(rho, target):
    assert entangled_win(AMB, rho, target) <= ORACLE["ambainis_alice_success"] + 1e-12


@pytest.mark.parametrize("target", (0, 1))
def test_the_registry_optima_are_reached_by_entangled_alices(target):
    """Each bound above is reached, so none could be lowered unseen: by
    lt_optimal's |+>, by the maximally mixed qubit (bb84_epr), which beats
    every pure state, bb84_rotated's among them, and by the ensemble
    ambainis_optimal sends."""
    rotated = alice_of("bb84_rotated", ProtocolId.BB84_CF).states[:, 0]
    assert entangled_win(LT9, np.outer(LT_PLUS, LT_PLUS), target) == pytest.approx(
        0.5 + alice_bias_bound(0.9), abs=1e-12)
    epr = entangled_win(BB84, np.eye(2) / 2.0, target)
    assert epr == pytest.approx(ORACLE["bb84_epr_success"], abs=1e-12)
    assert entangled_win(BB84, np.outer(rotated, rotated), target) == pytest.approx(
        ORACLE["bb84_rotated_success"], abs=1e-12)
    assert epr > ORACLE["bb84_rotated_success"]  # what entanglement adds
    assert entangled_win(AMB, AMB_MIX, target) == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# the same optima proved for every rho at once, by dual certificates. Any Y_b
# with Y_b >= 0 and Y_b >= D_b = P_0 - P_1 gives, for 0 <= M <= rho,
# tr(M D_b) <= tr(M Y_b) <= tr(rho Y_b), so V_b(rho) <= tr(rho (P_1 + Y_b)),
# and the largest eigenvalue of sum_b (P_1 + Y_b) bounds sum_b V_b over every
# rho: the duality behind Kitaev's coin-flipping bounds (A. Kitaev, "Quantum
# coin-flipping", QIP 2003), here in closed form, so eigvalsh checks it and
# no solver runs.

def positive_part(d, a):
    """(D_b)_+, the loss-tolerant and BB84 certificate (a unread)."""
    w, v = np.linalg.eigh(d)
    return (v * w.clip(0.0)) @ v.conj().T


def ambainis_certificate(d, a):
    """v v^T with v = |0>/2 + |a + 1>, a = c xor b: against the storing
    Ambainis Bob, (D_b)_+ proves only 1."""
    v = np.eye(3)[0] / 2.0 + np.eye(3)[a + 1]
    return np.outer(v, v)


def certified_win(family, target, certificate) -> float:
    """The bound on entangled_win over every rho that the certificates
    Y_b = certificate(D_b, c xor b) prove, each checked feasible by
    eigvalsh: Y_b >= 0 and Y_b - D_b >= 0. P_0 and P_1 project onto the two
    winning reveals entangled_win chooses."""
    pair, total = basis_pair(family), 0.0
    for b in (0, 1):
        a = target ^ b
        p0, p1 = pair[:, a] if family.family is Family.LOSS_TOLERANT else pair[a, :2]
        d = np.outer(p0, p0.conj()) - np.outer(p1, p1.conj())
        y = certificate(d, a)
        assert np.linalg.eigvalsh(y).min() >= -1e-12, (family, b)
        assert np.linalg.eigvalsh(y - d).min() >= -1e-12, (family, b)
        total = total + np.outer(p1, p1.conj()) + y
    top = np.linalg.eigvalsh(total).max()
    return 0.5 * top if family.family is Family.AMBAINIS else 0.5 + 0.25 * top


@pytest.mark.parametrize("target", (0, 1))
def test_dual_certificates_prove_the_registry_optima(target):
    """No entangled Alice beats the registry optimum, for any rho: the
    certified bound equals it on 50 alpha2 in (1/2, 1), on BB84 (bb84_epr's
    1) and on Ambainis (0.75). The Alices of the test above reach each
    bound, so each optimum is proved from both sides."""
    for alpha2 in np.linspace(0.5, 1.0, 52)[1:-1].tolist():
        family = StateFamily(Family.LOSS_TOLERANT, alpha2)
        assert certified_win(family, target, positive_part) == pytest.approx(
            0.5 + alice_bias_bound(alpha2), abs=1e-12), alpha2
    assert certified_win(BB84, target, positive_part) == pytest.approx(
        ORACLE["bb84_epr_success"], abs=1e-12)
    assert certified_win(AMB, target, ambainis_certificate) == pytest.approx(
        ORACLE["ambainis_alice_success"], abs=1e-12)
