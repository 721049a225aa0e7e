"""Protocol engine: honest runs, restarts, variants and transcripts."""
import math

import pytest

from coinflip.catalog import StateLabel, basis, state
from coinflip.channel import ChannelParams
from coinflip.errors import IncompatibleProtocol, RestartLimitExceeded
from coinflip.protocols import (HonestBob, LossPolicy, PlayerHooks,
                                ProtocolId, VariantFlags, Verdict,
                                check_flags, default_flags, family_for,
                                honest_hooks, run)
from coinflip.rng import RandomStream
from coinflip.strategies import SendNothingAlice

from conftest import assert_close_5sigma

ALL_PROTOCOLS = list(ProtocolId)


def run_many(protocol, n, seed=7, eta=1.0, flags=None, alpha2=0.9,
             max_restarts=10_000):
    fam = family_for(protocol,
                     alpha2 if protocol is ProtocolId.LOSS_TOLERANT_CF else None)
    flags = flags or default_flags(protocol)
    ch = ChannelParams(eta)
    rng = RandomStream(seed)
    return [run(protocol, flags, honest_hooks(protocol, fam, flags), ch, fam,
                max_restarts, rng)
            for _ in range(n)]


# ---------------------------------------------------------------------------
# flags and compatibility

def test_default_flags():
    assert default_flags(ProtocolId.LOSS_TOLERANT_CF) == VariantFlags(
        LossPolicy.RESTART_ON_LOSS, True)
    assert default_flags(ProtocolId.AMBAINIS_CF) == VariantFlags(
        LossPolicy.NONE, False)


def test_check_flags_rejects_mismatches():
    with pytest.raises(IncompatibleProtocol):
        check_flags(ProtocolId.LOSS_TOLERANT_CF,
                    VariantFlags(LossPolicy.NONE, False))
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
                assert probs[m.labels.index(str(x))] == pytest.approx(1.0)


def test_ambainis_honest_never_hits_reject():
    for t in run_many(ProtocolId.AMBAINIS_CF, 3000):
        assert t.rounds[-1].bob_outcome != "reject"


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
    rng = RandomStream(3)
    hooks = PlayerHooks(SendNothingAlice(fam, 0), HonestBob(fam, flags))
    t = run(protocol, flags, hooks, ChannelParams(1.0), fam, 10, rng)
    assert t.verdict is Verdict.ACCEPTED
    assert t.restart_count == 0


def test_restart_limit_is_enforced():
    """A sender who never delivers anything exhausts the restart budget."""
    protocol = ProtocolId.LOSS_TOLERANT_CF
    fam = family_for(protocol, 0.9)
    flags = default_flags(protocol)
    rng = RandomStream(4)
    hooks = PlayerHooks(SendNothingAlice(fam, 0), HonestBob(fam, flags))
    with pytest.raises(RestartLimitExceeded):
        run(protocol, flags, hooks, ChannelParams(1.0), fam, 50, rng)


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


def test_transcript_records_bob_measurement():
    for t in run_many(ProtocolId.LOSS_TOLERANT_CF, 200):
        last = t.rounds[-1]
        assert last.delivered
        assert last.bob_basis in ("0", "1")
        assert last.bob_outcome in ("0", "1")
