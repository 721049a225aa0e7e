"""Protocol engine: honest runs, restarts, variants and transcripts."""
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from coinflip import protocols
from coinflip.catalog import basis_pair
from coinflip.errors import IncompatibleProtocol
from coinflip.harness import ExperimentConfig, build_hooks, run_experiment
from coinflip.matrix import check_matrix
from coinflip.protocols import (PROTOCOLS, ROUND_FIELDS, VARIANT_NAMES, Decision,
                                Emission, LossPolicy, ProtocolId, Transcript,
                                VariantFlags, attempt, check_flags, default_flags,
                                family_for, measure_delivery, run_chunk)
from coinflip.quantum import measure_projective, steer_epr
from coinflip.rng import SLOTS, bit, rows
from coinflip.strategies import REGISTRY, HonestBob, Side

from conftest import assert_z, sigma, valid_configs

ALL_PROTOCOLS = list(ProtocolId)


def run_many(protocol, n, seed=7, eta=1.0, flags=None, alpha2=0.9,
             max_restarts=10_000):
    """Transcripts of n honest runs, in trial order."""
    out = []
    run_experiment(ExperimentConfig(protocol=protocol, variant=flags, trials=n,
                                    seed=seed, eta=eta, alpha2=alpha2,
                                    max_restarts=max_restarts),
                   transcript_sink=out.append)
    assert len(out) == n
    return out


# ---------------------------------------------------------------------------
# flags and compatibility

def test_default_flags():
    assert default_flags(ProtocolId.LOSS_TOLERANT_CF) == VariantFlags(
        LossPolicy.RESTART_ON_LOSS, True)
    assert default_flags(ProtocolId.AMBAINIS_CF) == VariantFlags(
        LossPolicy.RESTART_ON_LOSS, False)


def test_check_flags_rejects_mismatches():
    with pytest.raises(IncompatibleProtocol):
        check_flags(ProtocolId.LOSS_TOLERANT_CF,
                    VariantFlags(LossPolicy.RESTART_ON_LOSS, False))
    with pytest.raises(IncompatibleProtocol):
        check_flags(ProtocolId.AMBAINIS_CF,
                    VariantFlags(LossPolicy.RESTART_ON_LOSS, True))
    # the variant protocol accepts either measurement timing
    check_flags(ProtocolId.AMBAINIS_CF_VARIANT,
                VariantFlags(LossPolicy.RESTART_ON_LOSS, True))
    check_flags(ProtocolId.AMBAINIS_CF_VARIANT,
                VariantFlags(LossPolicy.BELIEVE_ON_FAITH, False))


# ---------------------------------------------------------------------------
# honest executions

@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_honest_runs_never_abort(protocol):
    for t in run_many(protocol, 2000):
        assert t.verdict == "accepted"
        assert t.outcome in (0, 1)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_honest_outcome_is_roughly_uniform(protocol):
    n = 20_000
    ones = sum(t.outcome for t in run_many(protocol, n))
    assert_z(ones / n, 0.5, sigma("frequency", 0.5, n))


def test_outcome_formula_per_protocol():
    """x xor b for the loss-tolerant template, a xor b otherwise."""
    for protocol in ALL_PROTOCOLS:
        for t in run_many(protocol, 500):
            a, x = t.revealed
            if protocol is ProtocolId.LOSS_TOLERANT_CF:
                assert t.outcome == x ^ t.b
            else:
                assert t.outcome == a ^ t.b


def test_honest_verification_is_exact():
    """When Bob happens to pick the declared basis his outcome must equal x
    with certainty, for every state in every family."""
    for protocol in ALL_PROTOCOLS:
        fam = family_for(protocol,
                         0.9 if protocol is ProtocolId.LOSS_TOLERANT_CF else None)
        for a in (0, 1):
            m = basis_pair(fam)[a]
            for x in range(len(fam.x_weights)):
                probs = np.abs(m @ m[x]) ** 2  # |a, x> measured in basis a
                assert probs[x] == pytest.approx(1.0)


def test_ambainis_honest_never_hits_reject():
    for t in run_many(ProtocolId.AMBAINIS_CF, 3000):
        assert t.rounds[-1]["bob_outcome"] != 2  # the Ambainis reject outcome


# ---------------------------------------------------------------------------
# loss handling

def test_restart_count_is_geometric():
    """With survival eta each honest trial restarts (1-eta)/eta times on
    average under RESTART_ON_LOSS."""
    eta = 0.25
    n = 5000
    transcripts = run_many(ProtocolId.LOSS_TOLERANT_CF, n, eta=eta)
    mean = sum(t.restart_count for t in transcripts) / n
    expected = (1.0 - eta) / eta
    assert_z(mean, expected, sigma("restarts_per_trial", expected, n))
    for t in transcripts:
        assert t.verdict == "accepted"
        # every recorded round except the last must be a restart
        assert all(r["restart_requested"] for r in t.rounds[:-1])
        assert not t.rounds[-1]["restart_requested"]
        assert t.restart_count == sum(r["restart_requested"] for r in t.rounds)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("eta", [1.0, 0.5, 0.1])
def test_lossy_honest_runs_still_never_abort(protocol, eta):
    """Under every variant the protocol allows, honest runs end accepted
    with a fair coin; a Bob who restarts on loss restarts (1 - eta)/eta
    times per trial, and one who believes losses on faith never does."""
    n = 2000
    for flags in PROTOCOLS[protocol].variants:
        transcripts = run_many(protocol, n, eta=eta, flags=flags)
        assert all(t.verdict == "accepted" for t in transcripts), flags
        ones = sum(t.outcome for t in transcripts)
        assert_z(ones / n, 0.5, sigma("frequency", 0.5, n), flags)
        restarts = sum(t.restart_count for t in transcripts) / n
        if flags.loss_policy is LossPolicy.BELIEVE_ON_FAITH:
            assert restarts == 0, flags
        else:
            expected = (1.0 - eta) / eta
            assert_z(restarts, expected, sigma("restarts_per_trial", expected, n),
                     flags)


def test_outcome_distribution_is_loss_invariant():
    """The honest outcome frequency at eta=0.1 matches eta=1 within joint
    5 sigma."""
    n = 20_000
    p1 = sum(t.outcome for t in run_many(
        ProtocolId.LOSS_TOLERANT_CF, n, seed=11, eta=1.0)) / n
    p2 = sum(t.outcome for t in run_many(
        ProtocolId.LOSS_TOLERANT_CF, n, seed=12, eta=0.1)) / n
    assert_z(p1, p2, math.sqrt(2) * sigma("frequency", 0.5, n))  # two samples


def test_believe_on_faith_accepts_missing_qutrit():
    """Under BELIEVE_ON_FAITH a stored-measurement Bob accepts the declared
    values when nothing ever arrived."""
    protocol = ProtocolId.AMBAINIS_CF_VARIANT
    fam = family_for(protocol)
    cfg = ExperimentConfig(protocol=protocol, alice="send_nothing",
                           variant=VariantFlags(LossPolicy.BELIEVE_ON_FAITH, False),
                           seed=3, max_restarts=10)
    out = []
    send_nothing = REGISTRY[Side.ALICE]["send_nothing"].build(cfg, fam)
    run_chunk(cfg, send_nothing, HonestBob(cfg, fam), 0, 1, out.append)
    t, = out
    assert t.verdict == "accepted"
    assert t.restart_count == 0


def test_restart_limit_is_enforced():
    """A sender who never delivers anything exhausts the restart budget."""
    protocol = ProtocolId.LOSS_TOLERANT_CF
    fam = family_for(protocol, 0.9)
    # send_nothing's builder reads only target and photon_count
    cfg = ExperimentConfig(protocol=protocol, seed=4, max_restarts=50)
    out = []
    send_nothing = REGISTRY[Side.ALICE]["send_nothing"].build(cfg, fam)
    verdict, _, _ = run_chunk(cfg, send_nothing, HonestBob(cfg, fam), 0, 1,
                              out.append)
    assert verdict.tolist() == [Decision.REQUEST_RESTART]
    assert out == []  # no transcript for a trial over the limit


def test_limit_hits_inside_a_chunk_drop_only_their_transcripts():
    """Trials over the restart limit leave no transcript, and the others keep
    theirs: at max_restarts=2 a chunk runs the same two steps as at 1000, so
    its transcripts are those of the longer run that restarted at most twice.
    This holds for an honest Bob, whose losses are drawn as one count per
    attempt, and for restart abuse, whose losses are drawn round by round."""
    for protocol, bob in ((ProtocolId.LOSS_TOLERANT_CF, "honest"),
                          (ProtocolId.AMBAINIS_CF_VARIANT, "ambainis_restart_abuse")):
        cfg = ExperimentConfig(protocol=protocol, bob=bob, target=1, eta=0.3)
        assert build_hooks(cfg)[1].restarts_on_loss == (bob == "honest")

        def chunk(max_restarts):
            out = []
            capped = dataclasses.replace(cfg, seed=5, max_restarts=max_restarts)
            verdict, _, _ = run_chunk(capped, *build_hooks(capped), 0, 200, out.append)
            return verdict, out

        verdict, limited = chunk(2)
        _, full = chunk(1000)
        hits = (verdict == Decision.REQUEST_RESTART).sum()
        assert 0 < hits < 200
        assert len(limited) == 200 - hits
        assert limited == [t for t in full if t.restart_count <= 2]


@pytest.mark.parametrize("kw", [
    dict(protocol=ProtocolId.MCQM_CONTRIVED_CF, bob="mcqm_restart", target=1,
         seed=2),  # eta = 1: inconclusive restarts, one round per attempt
    dict(alice="honest_pulse", bob="twophoton_honest_apparatus", target=1,
         photon_count=2, eta=0.5, seed=6),  # lost_rounds: inconclusive restarts
    dict(eta=0.3, max_restarts=3, seed=3),  # lost_rounds: a trial past the cap
], ids=["eta=1", "lost_rounds_restart", "lost_rounds_cap"])
def test_a_run_ending_at_step_0_is_a_prefix_of_one_that_does_not(monkeypatch, kw):
    """When step 0 ends every trial, the engine writes each result as a
    whole column; a longer run, where a trial restarts or passes the cap,
    keeps its trials pending through the general path. Runs are prefixes of
    longer runs, so the first k trials get the same verdict, coin and
    restarts either way, and the same with a sink as without."""
    cfg = ExperimentConfig(**kw)
    steps = []  # the steps of the last run
    rows = protocols.rows
    monkeypatch.setattr(protocols, "rows", lambda *a: steps.append(a[2]) or rows(*a))

    def run(n, sink=None):
        steps.clear()
        verdict, coin, restarts = run_chunk(cfg, *build_hooks(cfg), 0, n, sink)
        at_step_0 = steps == [0] and (verdict != Decision.REQUEST_RESTART).all()
        return at_step_0, (verdict, coin, restarts)

    k = 0
    while run(k + 1)[0]:
        k += 1
    assert k >= 3  # the trials the whole-column step covers
    at_step_0, short = run(k)
    assert at_step_0
    if cfg.eta < 1.0:  # what step 0 writes under lost_rounds: lost rounds
        assert short[2].any()
    for n, sink in ((k, []), (k + 20, None), (k + 20, [])):
        at_step_0, got = run(n, sink if sink is None else sink.append)
        assert not at_step_0 or n == k
        for s, g in zip(short, got):
            assert np.array_equal(s, g[:k])


# ---------------------------------------------------------------------------
# the round: protocols.attempt, the engine's step and the hook contract

@pytest.mark.parametrize("cfg", [
    *dict.fromkeys(row.cfg for row in check_matrix(512, 12345)),
    ExperimentConfig(bob="lt_helstrom", target=1, eta=0.2, trials=512),
], ids=lambda cfg: f"{cfg.alice}-{cfg.bob}-{cfg.eta}")
def test_attempt_is_the_engines_step(cfg):
    """attempt on step 0's rows, one attempt of every trial, gives each
    trial that ends there (whose decision ends it, with its lost rounds
    inside the cap) the verdict, coin and restarts run_chunk returns; every
    other trial restarts past it or passes the cap. Covers every config of
    `coinflip table`, all at eta = 1, and the optimal Bob under lost_rounds."""
    alice, bob = build_hooks(cfg)
    n = cfg.trials
    verdict, coin, restarts = run_chunk(cfg, alice, bob, 0, n)
    u = rows(cfg.seed, 0, 0, np.arange(n), 1).reshape(n, SLOTS).T
    _, _, lost, *_, decision, coins = attempt(cfg, alice, bob, u)
    assert (lost is None) == (cfg.eta == 1.0)  # lost_rounds at eta 0.2
    lost = np.zeros(n, np.int64) if lost is None else lost
    ends = (decision <= Decision.ABORT_CHEATER) & (lost < cfg.max_restarts + 1)
    assert ends.any()
    for engine, step in ((verdict, decision), (coin, coins), (restarts, lost)):
        assert np.array_equal(engine[ends], step[ends]), cfg
    assert ((restarts > lost) | (verdict == Decision.REQUEST_RESTART))[~ends].all()


def test_every_pairing_plays_its_rows_independently(rng):
    """The hook contract (see protocols): hooks write nothing to their
    players, so the rows of a batch are independent draws. Every valid
    pairing at eta 1, 0.5 and 0.2 (where the restart-abuse camouflage is
    drawn), on 512 random rows under the engine's loss rule: attempt leaves
    every attribute of both players the same object, and run again on the
    same rows returns equal outputs; attempt on the rows permuted gives
    every decision, and every coin of a row that ends, permuted; and attempt
    on a third of the rows, then on the rest, gives those of all the rows
    at once."""
    n = 512
    u, order = rng(SLOTS, n), np.argsort(rng(n))

    def unwritten(cfg, alice, bob, u):  # attempt writes no player, and repeats
        before = [dict(vars(player)) for player in (alice, bob)]
        first, again = (attempt(cfg, alice, bob, u) for _ in range(2))
        kept = all(vars(player).keys() == was.keys()
                   and all(vars(player)[k] is v for k, v in was.items())
                   for player, was in zip((alice, bob), before))
        sent = [(e.states, e.index, e.photon_count, e.entangled)
                for e in (first[0], again[0])]
        return kept and all(map(np.array_equal, (*sent[0], *first[1:]),
                                (*sent[1], *again[1:])))

    def play(cfg, alice, bob, u):  # each row's decision and ending coin (-1: none)
        *_, decision, coin = attempt(cfg, alice, bob, u)
        return decision, np.where(decision <= Decision.ABORT_CHEATER, coin, -1)

    failed = []
    for eta in (1.0, 0.5, 0.2):
        for cfg in valid_configs(eta=eta):
            hooks = build_hooks(cfg)
            if not unwritten(cfg, *hooks, u):
                failed.append(("written", cfg))
            whole = play(cfg, *hooks, u)
            permuted = play(cfg, *hooks, u[:, order])
            parts = zip(play(cfg, *hooks, u[:, :n // 3]), play(cfg, *hooks, u[:, n // 3:]))
            if not all(np.array_equal(w[order], p) for w, p in zip(whole, permuted)):
                failed.append(("permuted", cfg))
            if not all(np.array_equal(w, np.concatenate(p)) for w, p in zip(whole, parts)):
                failed.append(("split", cfg))
    assert not failed


# ---------------------------------------------------------------------------
# transcripts

def test_transcript_serialization_round_trip():
    t = run_many(ProtocolId.BB84_CF, 1, eta=0.5, seed=99)[0]
    d = t.to_dict()
    assert d["verdict"] == "accepted"
    assert d["outcome"] == t.outcome
    assert d["revealed"] == {"a": t.revealed[0], "x": t.revealed[1]}
    assert len(d["rounds"]) == len(t.rounds)
    assert d["restart_count"] == t.restart_count


def test_round_dict_keys_follow_the_round_fields():
    """A field added to ROUND_FIELDS must reach the serialized record, in
    field order: every round, lost rows too, holds the fields and nothing
    else, in memory and in to_dict."""
    out = run_many(ProtocolId.LOSS_TOLERANT_CF, 50, eta=0.5, seed=99)
    rounds = [r for t in out for r in t.rounds]
    assert {r["delivered"] for r in rounds} == {True, False}
    assert all(list(r) == list(ROUND_FIELDS) for r in rounds)
    assert all(list(r) == list(ROUND_FIELDS)
               for t in out for r in t.to_dict()["rounds"])


def test_transcript_dict_is_a_copy():
    """Editing a serialized transcript leaves the transcript unchanged."""
    t = run_many(ProtocolId.LOSS_TOLERANT_CF, 1, eta=0.5, seed=99)[0]
    d = t.to_dict()
    d["rounds"][0]["delivered"] = "MUTATED"
    assert t.rounds[0]["delivered"] in (True, False)
    assert t.to_dict()["rounds"][0]["delivered"] in (True, False)


def test_shared_rounds_are_frozen_and_serialize_as_fresh_copies():
    """The transcripts of one engine call share each distinct round: the
    shared round cannot change, and each to_dict hands out its own plain
    dict copies of the rounds."""
    out = run_many(ProtocolId.LOSS_TOLERANT_CF, 200, eta=0.5)
    held = {}  # id of a round -> (transcript, index) of its first holder
    (t1, i1), (t2, i2) = next(
        (held[id(r)], (t, i)) for t in out for i, r in enumerate(t.rounds)
        if held.setdefault(id(r), (t, i))[0] is not t)
    shared = t1.rounds[i1]
    assert t2.rounds[i2] is shared
    with pytest.raises(TypeError):
        shared["delivered"] = not shared["delivered"]
    first, second = t1.to_dict(), t2.to_dict()
    mutated = t1.to_dict()
    mutated["rounds"][i1].update(dict.fromkeys(mutated["rounds"][i1], "MUTATED"))
    assert t2.to_dict() == second
    assert t1.to_dict() == first
    for t in out:
        records = t.to_dict()["rounds"]
        assert all(type(r) is dict for r in records)
        assert [list(r.items()) for r in records] == [list(r.items()) for r in t.rounds]


def test_a_round_can_be_neither_assigned_nor_deleted():
    """Every field and any new key: setting or deleting the item raises
    TypeError, the round has no method that changes it, and it is
    unchanged."""
    r = run_many(ProtocolId.LOSS_TOLERANT_CF, 1, eta=0.5, seed=99)[0].rounds[-1]
    before = list(r.items())
    for name in (*ROUND_FIELDS, "unknown"):
        with pytest.raises(TypeError):
            r[name] = None
        with pytest.raises(TypeError):
            del r[name]
    for method in ("update", "pop", "popitem", "clear", "setdefault"):
        assert not hasattr(r, method), method
    assert list(r.items()) == before


def test_rounds_and_transcripts_with_equal_fields_are_equal():
    """Equality is field by field, for rounds and transcripts alike: two
    engine calls build distinct rounds, equal where their fields are."""
    t = run_many(ProtocolId.LOSS_TOLERANT_CF, 1, eta=0.5, seed=99)[0]
    again = run_many(ProtocolId.LOSS_TOLERANT_CF, 1, eta=0.5, seed=99)[0]
    a, b = t.rounds[-1], again.rounds[-1]
    assert a is not b and a == b
    assert a != {**a, "false_claim": not a["false_claim"]}
    values = [getattr(t, name) for name in Transcript._fields]
    copy = Transcript(*values)
    assert copy is not t and copy == t
    for i, name in enumerate(Transcript._fields):
        other = values[:i] + [object()] + values[i + 1:]
        assert Transcript(*other) != t, name
    assert t != tuple(values)


def test_stored_measurement_is_recorded_after_the_reveal():
    """A stored-measurement Bob measures in the revealed basis once Alice
    reveals, and the round records that basis and outcome; a lost round
    records none and restarts."""
    for t in run_many(ProtocolId.AMBAINIS_CF, 500, eta=0.5):
        a, x = t.revealed
        last = t.rounds[-1]
        assert (last["bob_basis"], last["bob_outcome"]) == (str(a), x)
        for r in t.rounds[:-1]:
            assert not r["delivered"] and r["restart_requested"]
            assert (r["bob_basis"], r["bob_outcome"]) == (None, None)


def test_transcript_records_bob_measurement():
    for t in run_many(ProtocolId.LOSS_TOLERANT_CF, 200):
        last = t.rounds[-1]
        assert last["delivered"]
        assert last["bob_basis"] in ("0", "1")
        assert last["bob_outcome"] in (0, 1)


# ---------------------------------------------------------------------------
# measure_delivery: the one place a delivery mask becomes outcome indices

def test_measure_delivery_reads_minus_one_where_nothing_arrived(rng):
    """With one basis index per round, and with one for all rounds: -1
    on every lost round, the Born-rule outcome on every delivered one, and,
    when every round arrives, the same outcome per round as the mixed mask
    gives on its delivered rows. When no round arrives, from vacuum or from
    a state, every round reads -1."""
    n = 400
    pair = basis_pair(family_for(ProtocolId.BB84_CF))
    delivered = rng(n) < 0.6
    theta = 2.0 * np.pi * rng(n)
    amplitudes = np.array([np.cos(theta), np.sin(theta)])
    emission = Emission(amplitudes, np.arange(n), 1)
    for bras, which in ((pair, bit(rng(n))), (pair, 1)):
        u = rng(n)
        outcome = measure_delivery(emission, delivered, bras, u, which)
        assert (outcome[~delivered] == -1).all()
        picked = np.broadcast_to(which, n)[delivered]
        assert (outcome[delivered] == measure_projective(
            amplitudes[:, delivered], bras, u[delivered], picked)).all()
        everything = measure_delivery(emission, np.ones(n, bool), bras, u, which)
        assert np.array_equal(everything[delivered], outcome[delivered])
        assert np.array_equal(everything, measure_projective(amplitudes, bras, u, which))
        for nothing in (Emission(None, 0, 0), emission):
            assert (measure_delivery(nothing, np.zeros(n, bool), bras, u, which)
                    == -1).all()


def test_measure_delivery_steers_the_epr_halves(rng):
    """-1 on every lost half, the steered outcome and far column on every
    delivered one, a far column on every lost one too; when every half
    arrives, each round's outcome and far column equal the mixed mask's on
    its delivered rows. When nothing arrives the halves stay unsteered."""
    n = 400
    bras = basis_pair(family_for(ProtocolId.BB84_CF))
    delivered = rng(n) < 0.6
    which, u = bit(rng(n)), rng(n)
    unsteered = np.array([[1.0], [0.0]])
    link = Emission(unsteered, np.full(n, 7), 1, entangled=True)
    outcome = measure_delivery(link, delivered, bras, u, which)
    expected, far, index = steer_epr(bras, u[delivered], which[delivered])
    assert (outcome[~delivered] == -1).all()
    assert (outcome[delivered] == expected).all()
    assert link.states is far  # one far table per frozen stack
    assert np.array_equal(link.index[delivered], index)
    assert ((link.index >= 0) & (link.index < 4)).all()  # lost halves steered too
    every = Emission(unsteered, np.full(n, 7), 1, entangled=True)
    everything = measure_delivery(every, np.ones(n, bool), bras, u, which)
    assert np.array_equal(everything[delivered], outcome[delivered])
    assert every.states is link.states
    assert np.array_equal(every.index, link.index)
    nothing = Emission(unsteered, np.zeros(n, np.intp), 1, entangled=True)
    assert (measure_delivery(nothing, np.zeros(n, bool), bras, u, which) == -1).all()
    assert nothing.states is unsteered and not nothing.index.any()


_SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2.0)  # amplitudes [mine, far]


@pytest.mark.parametrize("stack", (1, 2))
@pytest.mark.parametrize("arrive", ("all", "some", "none"))
def test_epr_alice_draws_as_measure_projective_on_her_far_halves(rng, stack, arrive):
    """The bb84_epr Alice's table draw equals measure_projective on the far
    columns she gathers, bit for bit, for a Bob measuring in a stack of one
    or two bases; each column is the singlet contracted with the bra of
    Bob's outcome, normalized, lost halves included, or |0> where nothing
    arrived."""
    n = 500
    cfg = ExperimentConfig(protocol=ProtocolId.BB84_CF, alice="bb84_epr", target=1)
    alice, _ = build_hooks(cfg)
    bras = basis_pair(family_for(ProtocolId.BB84_CF))[:stack]
    delivered = {"all": np.ones(n, bool), "some": rng(n) < 0.5,
                 "none": np.zeros(n, bool)}[arrive]
    which, u, b, v = (rng(n) * stack).astype(np.intp), rng(n), bit(rng(n)), rng(n)
    link = alice.prepare(rng(2, n))
    seen = measure_delivery(link, delivered, bras, u, which)
    a, x = alice.reveal(link, b, v)
    halves = link.states[:, link.index]
    assert np.array_equal(1 ^ x, measure_projective(halves, alice.bras, v, a))
    if arrive == "none":
        assert np.array_equal(halves, np.tile([[1.0], [0.0]], n))
    else:  # Bob's outcome of every half, lost ones too, as the table drew it
        drawn = np.where(delivered, seen, link.index - 2 * which)
        assert ((drawn == 0) | (drawn == 1)).all()
        expected = np.einsum("ni,ij->jn", bras[which, drawn], _SINGLET)
        expected /= np.linalg.norm(expected, axis=0)
        assert halves == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# pinned transcripts

LT, AMBAINIS = ProtocolId.LOSS_TOLERANT_CF, ProtocolId.AMBAINIS_CF
VARIANT = ProtocolId.AMBAINIS_CF_VARIANT
PULSES = dict(alice="honest_pulse", target=1, photon_count=2, eta=0.5)

# sha256 of the to_dict JSONL of 1,000 trials at seed 7, one config per kind
# of receiver; a change that reorders random draws or what a round records
# must update these on purpose.
GOLDEN_TRANSCRIPTS = {
    "honest_lt@0.05": (
        dict(eta=0.05),
        "a6d3b51af0504f0fe699772175e0aa85df5225b16f9655295097cf216d840acf"),
    "ambainis_stored@0.5": (
        dict(protocol=AMBAINIS, eta=0.5),
        "6d9d27245d203d3ab37be821fffe17789ff203226a921d791140a4449ab713a0"),
    "send_nothing_on_faith": (
        dict(protocol=VARIANT, variant=VARIANT_NAMES["believe_on_faith"],
             alice="send_nothing", target=1),
        "9c75fe032b35a0725b6631495c44038eee66d40859ed7cebd9fc403434d9b406"),
    "restart_abuse": (
        dict(protocol=VARIANT, bob="ambainis_restart_abuse", target=1, eta=0.5),
        "f6845ae6885931b330e7295228b4f4029cc543b10070ce23109a832b255431ea"),
    "bb84_epr": (
        dict(protocol=ProtocolId.BB84_CF, alice="bb84_epr", target=1, eta=0.5),
        "a097746a1d34499055c49fc1cab5bafe0212e00e498ecceb98371d17cde203c2"),
    "lt_helstrom": (
        dict(bob="lt_helstrom", target=1, eta=0.5),
        "e19ea03800b4f027ca8d2766e58fbf1e969efcd0845a259ce713be684fc07222"),
    "ambainis_conclusive": (
        dict(protocol=VARIANT, variant=VARIANT_NAMES["restart_measure"],
             bob="ambainis_conclusive", target=1, eta=0.5),
        "44cdae21367cf0c60621b7201171fea58f77ea667ae4c4b993f4529e35aee041"),
    "mcqm_restart": (
        dict(protocol=ProtocolId.MCQM_CONTRIVED_CF, bob="mcqm_restart",
             target=1, eta=0.5),
        "cfa2bab9da8dfe8ee1d0ffe69e8db2a6207f44b08eded490c583f58977683c37"),
    "cunning_son": (
        dict(bob="cunning_son", eta=0.5),
        "de9497728b37d46d4cfcb2180febec08c0f78cf0deb82ed3e51ae752a163337f"),
    "twophoton_usd": (
        dict(bob="twophoton_usd", **PULSES),
        "0136deb952b1ef5668021d92d27542f19e9da837b142842dc920178d7a6b6982"),
    "twophoton_honest_apparatus": (
        dict(bob="twophoton_honest_apparatus", **PULSES),
        "b38c91a4d5ef90f091429a1bfd6977d4082e8d56468ca50bcf2968f274be63ae"),
}


@pytest.mark.parametrize("label", list(GOLDEN_TRANSCRIPTS))
def test_transcripts_are_pinned(label):
    kw, expected = GOLDEN_TRANSCRIPTS[label]
    digest = hashlib.sha256()
    kept = []

    def sink(t):
        kept.append(t)
        digest.update((json.dumps(t.to_dict()) + "\n").encode())

    run_experiment(ExperimentConfig(trials=1000, seed=7, **kw),
                   transcript_sink=sink)
    assert len(kept) == 1000
    assert all(len(t.rounds) == t.restart_count + 1 for t in kept)
    assert all((r["bob_basis"], r["bob_outcome"]) == (None, None)
               for t in kept for r in t.rounds if not r["delivered"])
    assert digest.hexdigest() == expected


def test_lost_runs_expand_to_restart_rows():
    """A Bob who restarts on every loss gets, at eta < 1, the transcripts of
    eta = 1 with each attempt preceded by its run of lost rounds: rows that
    were not delivered, record no basis or outcome, and request a restart."""
    lost = dict(delivered=False, bob_basis=None, bob_outcome=None,
                restart_requested=True, false_claim=False)

    def records(**kw):
        out = []
        run_experiment(ExperimentConfig(trials=300, seed=7, **kw),
                       transcript_sink=lambda t: out.append(t.to_dict()))
        return out

    for kw in (dict(), dict(protocol=AMBAINIS),
               dict(bob="twophoton_usd", alice="honest_pulse", target=1,
                    photon_count=2)):
        for t, ideal in zip(records(eta=0.3, **kw), records(**kw), strict=True):
            rounds = [r for r in t["rounds"] if r["delivered"]]
            assert rounds == ideal["rounds"]
            sent = rounds[0]["sent"]
            assert all(r == dict(sent=sent, **lost)
                       for r in t["rounds"] if not r["delivered"])
            assert t["restart_count"] == (ideal["restart_count"]
                                          + len(t["rounds"]) - len(rounds))
            assert {**t, "rounds": rounds, "restart_count": ideal["restart_count"]} == ideal
