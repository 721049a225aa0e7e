"""Erasure channel and multi-photon pulses."""
import math

import pytest

from coinflip.channel import ChannelParams, transmit
from coinflip.errors import OutOfRange
from coinflip.protocols import SingleState, Vacuum
from coinflip.quantum import QuantumState
from coinflip.rng import RandomStream

from conftest import assert_close_5sigma

SQ2 = 1.0 / math.sqrt(2.0)
PLUS = QuantumState((SQ2, SQ2))
SENT_KET0 = SingleState(QuantumState((1.0, 0.0)))
SENT_PLUS = SingleState(PLUS)


def test_eta_range_enforced():
    with pytest.raises(OutOfRange):
        ChannelParams(0.0)
    with pytest.raises(OutOfRange):
        ChannelParams(1.5)
    ChannelParams(1.0)  # boundary is allowed


def test_perfect_channel_always_delivers(rng):
    ch = ChannelParams(1.0)
    for _ in range(100):
        assert transmit(SENT_PLUS, ch, rng) is SENT_PLUS


def test_delivered_state_is_unmodified(rng):
    ch = ChannelParams(0.5)
    for _ in range(200):
        out = transmit(SENT_PLUS, ch, rng)
        assert out is None or out is SENT_PLUS


def test_loss_rate_matches_eta(rng):
    ch = ChannelParams(0.3)
    n = 100_000
    delivered = sum(transmit(SENT_KET0, ch, rng) is not None for _ in range(n))
    assert_close_5sigma(delivered / n, 0.3, n)


def test_loss_is_independent_of_the_state(rng):
    """Erasure may not depend on what is sent (within 5 sigma of equality)."""
    ch = ChannelParams(0.5)
    n = 100_000
    d0 = sum(transmit(SENT_KET0, ch, rng) is not None for _ in range(n))
    d1 = sum(transmit(SENT_PLUS, ch, rng) is not None for _ in range(n))
    sigma_diff = math.sqrt(2.0 * 0.25 / n)
    assert abs(d0 - d1) / n <= 5.0 * sigma_diff


def test_pulse_construction():
    """A pulse is a state emission carrying its photon count."""
    single = SingleState(PLUS)
    assert single.photon_count == 1 and single.tag == "state"
    pulse = SingleState(PLUS, 3)
    assert pulse.photon_count == 3 and pulse.state is PLUS
    assert pulse.tag == "pulse:3"
    assert Vacuum().photon_count == 0 and Vacuum().tag == "vacuum"


def test_pulse_invariants():
    """A pulse crosses as one signal: one bernoulli(eta) draw, and it arrives
    whole or not at all. Vacuum never arrives and draws nothing, so the
    stream stays in step with a reference drawing once per pulse."""
    ch = ChannelParams(0.5)
    rng, reference = RandomStream(11), RandomStream(11)
    pulse = SingleState(PLUS, 3)
    for _ in range(200):
        assert transmit(Vacuum(), ch, rng) is None
        out = transmit(pulse, ch, rng)
        assert out is None or out is pulse
        assert (out is pulse) == reference.bernoulli(0.5)
