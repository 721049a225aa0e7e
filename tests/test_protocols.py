"""Protocol engine: honest runs, restarts, variants and transcripts."""
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from coinflip.catalog import StateLabel, basis, basis_pair, state
from coinflip.channel import ChannelParams
from coinflip.errors import IncompatibleProtocol
from coinflip.harness import VARIANT_NAMES, ExperimentConfig, run_experiment
from coinflip.protocols import (Decision, EprHalf, HonestAlice, HonestBob,
                                LossPolicy, ProtocolId, QuantumRound, SingleState,
                                VariantFlags, Vacuum, Verdict, check_flags,
                                default_flags, family_for, measure_delivery,
                                run_chunk)
from coinflip.quantum import measure_projective, steer_epr
from coinflip.rng import ChunkStream, bit
from coinflip.strategies import SendNothingAlice

from conftest import assert_close_5sigma

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
        assert t.verdict is Verdict.ACCEPTED
        assert t.outcome in (0, 1)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_honest_outcome_is_roughly_uniform(protocol):
    n = 20_000
    ones = sum(t.outcome for t in run_many(protocol, n))
    assert_close_5sigma(ones / n, 0.5, n)


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
            m = basis(fam, a)
            for x in fam.x_values:
                probs = m.probabilities(state(fam, StateLabel(a, x)))
                assert probs[x] == pytest.approx(1.0)


def test_ambainis_honest_never_hits_reject():
    for t in run_many(ProtocolId.AMBAINIS_CF, 3000):
        assert t.rounds[-1].bob_outcome != 2  # the Ambainis reject outcome


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
    sigma = math.sqrt((1.0 - eta) / eta ** 2 / n)
    assert abs(mean - expected) <= 5.0 * sigma
    for t in transcripts:
        assert t.verdict is Verdict.ACCEPTED
        # every recorded round except the last must be a restart
        assert all(r.restart_requested for r in t.rounds[:-1])
        assert not t.rounds[-1].restart_requested
        assert t.restart_count == sum(r.restart_requested for r in t.rounds)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("eta", [1.0, 0.5, 0.1])
def test_lossy_honest_runs_still_never_abort(protocol, eta):
    n = 2000
    ones = 0
    for t in run_many(protocol, n, eta=eta):
        assert t.verdict is Verdict.ACCEPTED
        ones += t.outcome
    assert_close_5sigma(ones / n, 0.5, n)


def test_outcome_distribution_is_loss_invariant():
    """The honest outcome frequency at eta=0.1 matches eta=1 within joint
    5 sigma."""
    n = 20_000
    p1 = sum(t.outcome for t in run_many(
        ProtocolId.LOSS_TOLERANT_CF, n, seed=11, eta=1.0)) / n
    p2 = sum(t.outcome for t in run_many(
        ProtocolId.LOSS_TOLERANT_CF, n, seed=12, eta=0.1)) / n
    sigma_diff = math.sqrt(2.0 * 0.25 / n)
    assert abs(p1 - p2) <= 5.0 * sigma_diff


def test_believe_on_faith_accepts_missing_qutrit():
    """Under BELIEVE_ON_FAITH a stored-measurement Bob accepts the declared
    values when nothing ever arrived."""
    protocol = ProtocolId.AMBAINIS_CF_VARIANT
    fam = family_for(protocol)
    flags = VariantFlags(LossPolicy.BELIEVE_ON_FAITH, False)
    out = []
    run_chunk(protocol, SendNothingAlice(fam, 0), HonestBob(fam, flags),
              ChannelParams(1.0), 10, ChunkStream(3), 1, out.append)
    t, = out
    assert t.verdict is Verdict.ACCEPTED
    assert t.restart_count == 0


def test_restart_limit_is_enforced():
    """A sender who never delivers anything exhausts the restart budget."""
    protocol = ProtocolId.LOSS_TOLERANT_CF
    fam = family_for(protocol, 0.9)
    flags = default_flags(protocol)
    out = []
    verdict, _, _ = run_chunk(protocol, SendNothingAlice(fam, 0),
                              HonestBob(fam, flags), ChannelParams(1.0), 50,
                              ChunkStream(4), 1, out.append)
    assert verdict.tolist() == [Decision.REQUEST_RESTART]
    assert out == []  # no transcript for a trial over the limit


def test_limit_hits_inside_a_chunk_drop_only_their_transcripts():
    """Trials over the restart limit leave no transcript, and the others keep
    theirs: at max_restarts=2 a chunk runs the same two steps as at 1000, so
    its transcripts are those of the longer run that restarted at most twice."""
    protocol = ProtocolId.LOSS_TOLERANT_CF
    fam = family_for(protocol, 0.9)

    def chunk(max_restarts):
        out = []
        verdict, _, _ = run_chunk(protocol, HonestAlice(fam),
                                  HonestBob(fam, default_flags(protocol)),
                                  ChannelParams(0.3), max_restarts, ChunkStream(5),
                                  200, out.append)
        return verdict, out

    verdict, limited = chunk(2)
    _, full = chunk(1000)
    hits = (verdict == Decision.REQUEST_RESTART).sum()
    assert 0 < hits < 200
    assert len(limited) == 200 - hits
    assert limited == [t for t in full if t.restart_count <= 2]


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
    """A field added to QuantumRound must reach the serialized record."""
    t = run_many(ProtocolId.LOSS_TOLERANT_CF, 1, eta=0.5, seed=99)[0]
    names = [f.name for f in dataclasses.fields(QuantumRound)]
    assert all(list(r) == names for r in t.to_dict()["rounds"])


def test_transcript_dict_is_a_copy():
    """Editing a serialized transcript leaves the transcript unchanged."""
    t = run_many(ProtocolId.LOSS_TOLERANT_CF, 1, eta=0.5, seed=99)[0]
    d = t.to_dict()
    d["rounds"][0]["delivered"] = "MUTATED"
    assert t.rounds[0].delivered in (True, False)
    assert t.to_dict()["rounds"][0]["delivered"] in (True, False)


def test_stored_measurement_is_recorded_after_the_reveal():
    """A stored-measurement Bob measures in the revealed basis once Alice
    reveals, and the round records that basis and outcome; a lost round
    records none and restarts."""
    for t in run_many(ProtocolId.AMBAINIS_CF, 500, eta=0.5):
        a, x = t.revealed
        last = t.rounds[-1]
        assert (last.bob_basis, last.bob_outcome) == (str(a), x)
        for r in t.rounds[:-1]:
            assert not r.delivered and r.restart_requested
            assert (r.bob_basis, r.bob_outcome) == (None, None)


def test_transcript_records_bob_measurement():
    for t in run_many(ProtocolId.LOSS_TOLERANT_CF, 200):
        last = t.rounds[-1]
        assert last.delivered
        assert last.bob_basis in ("0", "1")
        assert last.bob_outcome in (0, 1)


# ---------------------------------------------------------------------------
# measure_delivery: the one place a delivery mask becomes outcome indices

def test_measure_delivery_reads_minus_one_where_nothing_arrived(rng):
    n = 400
    bras = basis_pair(family_for(ProtocolId.BB84_CF))
    delivered = rng(n) < 0.6
    which, u = bit(rng(n)), rng(n)
    theta = 2.0 * np.pi * rng(n)
    amplitudes = np.array([np.cos(theta), np.sin(theta)])
    outcome = measure_delivery(SingleState(amplitudes), delivered, bras, u, which)
    assert (outcome[~delivered] == -1).all()
    assert (outcome[delivered] == measure_projective(
        amplitudes[:, delivered], bras, u[delivered], which[delivered])).all()
    assert (measure_delivery(Vacuum(), np.zeros(n, bool), bras, u, which)
            == -1).all()


def test_measure_delivery_steers_only_the_delivered_epr_halves(rng):
    n = 400
    bras = basis_pair(family_for(ProtocolId.BB84_CF))
    delivered = rng(n) < 0.6
    which, u = bit(rng(n)), rng(n)
    link = EprHalf(np.full((2, n), 7.0 + 0j))
    outcome = measure_delivery(link, delivered, bras, u, which)
    expected, far = steer_epr(bras, u[delivered], which[delivered])
    assert (outcome[~delivered] == -1).all()
    assert (outcome[delivered] == expected).all()
    assert (link.far[:, ~delivered] == 7.0).all()
    assert np.array_equal(link.far[:, delivered], far)


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
        "796c6f22a3a67a5a949e7f04ac805a7d27e634035c62437b85485f1ed0a42437"),
    "ambainis_stored@0.5": (
        dict(protocol=AMBAINIS, eta=0.5),
        "aa78c2250ef4872ea6a2b5f13ba82a7af0dfe0a826d4766c8590423051377bac"),
    "send_nothing_on_faith": (
        dict(protocol=VARIANT, variant=VARIANT_NAMES["believe_on_faith"],
             alice="send_nothing", target=1),
        "71097f9cb97c0c9c2d0d2474308ad0403b51a6d7931f7af373a5caa43eeabec6"),
    "restart_abuse": (
        dict(protocol=VARIANT, bob="ambainis_restart_abuse", target=1, eta=0.5),
        "82efa7838dafc8efba6b363c1245f3c8b6bfd2a66df3ee512583b37ac72cfe1c"),
    "bb84_epr": (
        dict(protocol=ProtocolId.BB84_CF, alice="bb84_epr", target=1, eta=0.5),
        "16151d913340a52e4caae7dd47a73bd98f64774b72de20839ff0a8ca7f3547f8"),
    "lt_helstrom": (
        dict(bob="lt_helstrom", target=1, eta=0.5),
        "aa3bdd26d3c158be37e6f548def200b710361abf084bb3d1533bb55de2265abf"),
    "ambainis_conclusive": (
        dict(protocol=VARIANT, variant=VARIANT_NAMES["restart_measure"],
             bob="ambainis_conclusive", target=1, eta=0.5),
        "7c037b7773d7f02002a30edf6405fab3a4c5671210f02739017b8b6c5d47d7f1"),
    "mcqm_restart": (
        dict(protocol=ProtocolId.MCQM_CONTRIVED_CF, bob="mcqm_restart",
             target=1, eta=0.5),
        "723598d77accb2e328830982a96afb95d9b51c96edbf501a87dff59e845f1e7a"),
    "cunning_son": (
        dict(bob="cunning_son", eta=0.5),
        "cc1cf9b11f7b88c8c843b3e058f0087967d4b3988f2aaafc8eb079c461df83a3"),
    "twophoton_usd": (
        dict(bob="twophoton_usd", **PULSES),
        "367da4060e216524e889f24374e893557265d76ed0a55d67ec166e3935b69c9e"),
    "twophoton_honest_apparatus": (
        dict(bob="twophoton_honest_apparatus", **PULSES),
        "6a76d50923842421403bfe8f5facd66a7086715c8d143cd35bdc41e7e982469c"),
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
    assert all((r.bob_basis, r.bob_outcome) == (None, None)
               for t in kept for r in t.rounds if not r.delivered)
    assert digest.hexdigest() == expected
