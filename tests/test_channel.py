"""Erasure channel and multi-photon pulses."""
import math

import numpy as np
import pytest

from coinflip.channel import lost_rounds, transmit
from coinflip.protocols import Emission

from conftest import assert_z, edge_uniforms, sigma

SQ2 = 1.0 / math.sqrt(2.0)
PLUS = np.array([[SQ2], [SQ2]])  # a table of one state
ONE = np.zeros(1, dtype=np.intp)  # a batch of one round, sending column 0
SENT_KET0 = Emission(np.array([[1.0], [0.0]]), ONE, 1)
SENT_PLUS = Emission(PLUS, ONE, 1)
VACUUM = Emission(None, 0, 0)


def test_perfect_channel_always_delivers(rng):
    assert transmit(SENT_PLUS, 1.0, rng(100)).all()


def test_delivered_state_is_unmodified(rng):
    before = SENT_PLUS.states.copy()
    delivered = transmit(SENT_PLUS, 0.5, rng(200))
    assert delivered.dtype == bool and delivered.shape == (200,)
    assert np.array_equal(SENT_PLUS.states, before)
    assert SENT_PLUS.states is PLUS


def test_loss_rate_matches_eta(rng):
    n = 100_000
    delivered = transmit(SENT_KET0, 0.3, rng(n)).sum()
    assert_z(delivered / n, 0.3, sigma("frequency", 0.3, n))


def test_loss_is_independent_of_the_state(rng):
    """Erasure may not depend on what is sent (within 5 sigma of equality)."""
    n = 100_000
    d0 = transmit(SENT_KET0, 0.5, rng(n)).sum()
    d1 = transmit(SENT_PLUS, 0.5, rng(n)).sum()
    assert_z(d0 / n, d1 / n, math.sqrt(2) * sigma("frequency", 0.5, n))  # two samples


def test_pulse_construction():
    """A pulse is a state emission carrying its photon count; the tag is
    worked out from the photon count and whether the emission is entangled."""
    single = Emission(PLUS, ONE, 1)
    assert single.photon_count == 1 and single.tag == "state"
    pulse = Emission(PLUS, ONE, 3)
    assert pulse.photon_count == 3 and pulse.states is PLUS
    assert pulse.tag == "pulse:3"
    assert VACUUM.photon_count == 0 and VACUUM.tag == "vacuum"
    assert Emission(PLUS, ONE, 1, entangled=True).tag == "epr_half"


def test_pulse_invariants(rng):
    """A pulse crosses as one signal: one bernoulli(eta) draw on its uniform,
    and it arrives whole or not at all. Vacuum never arrives, whatever its
    uniform."""
    u = rng(200)
    assert not transmit(VACUUM, 0.5, u).any()
    delivered = transmit(Emission(PLUS, ONE, 3), 0.5, u)
    assert np.array_equal(delivered, u < 0.5)


# ---------------------------------------------------------------------------
# lost_rounds: the number of rounds lost before an attempt arrives

@pytest.mark.parametrize("eta, ks", [(0.05, (1, 5, 20, 60)), (0.5, (1, 2, 4, 8))])
def test_lost_rounds_is_geometric(rng, eta, ks):
    """P(K >= k) = (1 - eta)**k within 5 sigma."""
    n = 100_000
    k = lost_rounds(eta, rng(n), 10 ** 6)
    assert k.dtype == np.int64 and k.min() == 0
    for at_least in ks:
        p = (1.0 - eta) ** at_least
        assert_z((k >= at_least).sum() / n, p, sigma("frequency", p, n),
                 f"K >= {at_least}:")


def test_lost_rounds_clamps_at_cap(rng):
    """Counts past cap read cap, the infinite count of a vanishing eta
    included; counts below it are untouched."""
    u = np.concatenate([rng(10_000), [np.nextafter(1.0, 0.0)]])
    free = lost_rounds(0.05, u, 10 ** 6)
    capped = lost_rounds(0.05, u, 3)
    assert free.max() > 3
    assert np.array_equal(capped, np.minimum(free, 3))
    tiny = 5e-324  # log(1 - u) / log(1 - eta) overflows
    assert lost_rounds(tiny, u, 7).tolist() == [0 if x == 0 else 7 for x in u]


def test_lost_rounds_is_zero_without_loss(rng):
    assert not lost_rounds(1.0, edge_uniforms(rng), 10).any()


def test_lost_rounds_reads_one_uniform_per_count(rng):
    u = rng(200)
    whole = lost_rounds(0.3, u, 50)
    assert whole.shape == u.shape
    assert whole.tolist() == [lost_rounds(0.3, u[k:k + 1], 50)[0]
                              for k in range(len(u))]
