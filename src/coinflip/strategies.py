"""The player registry: every named player, honest or cheating, one hooks
class per attack.

REGISTRY[side][name] is the one place a player is built. Each side has an
honest entry that applies to every protocol; the other entries are attacks
built around a target bit c, the coin value the cheater wants to force.
Alice-side hooks implement prepare/reveal, Bob-side hooks the
receive/choose_b/verify trio, all on batches of rounds as the protocols
module describes. Every Bob also declares restarts_on_loss, whether each
round that does not arrive ends in REQUEST_RESTART, which picks the
channel's loss rule for him. Reveal tables were verified by direct overlap
computation (see tests) rather than taken on trust. Strategies never see the
honest party's private randomness; everything they learn flows through the
hook arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import catalog
from .catalog import StateFamily
from .errors import IncompatibleProtocol
from .protocols import (MEASURE, STORE, Decision, EprHalf, HonestAlice,
                        HonestBob, ProtocolId, SingleState, Vacuum, VariantFlags,
                        measure_delivery)
from .quantum import measure_projective
from .rng import bernoulli, bit, inverse_cdf, weights_cdf


class Side(Enum):
    ALICE = "alice"
    BOB = "bob"


# ---------------------------------------------------------------------------
# Alice-side strategies

class PostponeLieAlice(HonestAlice):
    """Honest send; lies about the basis when unhappy with a xor b."""

    def __init__(self, cfg, family: StateFamily):
        super().__init__(cfg, family)
        self.target = cfg.target

    def reveal(self, b, u):
        a, x = self.a, self.x
        happy = (a ^ b) == self.target
        return np.where(happy, a, 1 ^ a), np.where(happy, x, bit(u))


class RotatedStateAlice:
    """Sends (cos k*pi/8, sin k*pi/8) for odd k, then declares the basis that
    suits her with the nearest bit in that basis."""

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        self.k_cdf = weights_cdf((0.25,) * 4)  # k uniform in 0..3
        angles = [k * math.pi / 8.0 for k in (1, 3, 5, 7)]
        self.states = np.array([[f(t) for t in angles] for f in (math.cos, math.sin)])
        self.states.flags.writeable = False
        # nearest[i, a]: the bit x whose |a, x> overlaps column i the most, 0 on a tie
        overlap = (catalog.basis_pair(family) @ self.states) ** 2  # [a, x, i]
        self.nearest = (overlap[:, 1] > overlap[:, 0]).T.astype(int)

    def prepare(self, u) -> SingleState:
        self.k = inverse_cdf(*self.k_cdf, u[0])
        return SingleState(self.states, self.k)

    def reveal(self, b, u):
        a = self.target ^ b
        return a, self.nearest[self.k, a]


class EprSteeringAlice:
    """Keeps half a singlet and steers it into the basis a = c xor b after
    learning b; the reveal is then guaranteed to match Bob's outcome."""

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        self.bras = catalog.basis_pair(family)

    def prepare(self, u) -> EprHalf:
        # |0> until Bob's measurement steers it (every half, lost ones too,
        # unless nothing arrived), so reveal can measure every round
        self.link = EprHalf(np.tile([[1 + 0j], [0j]], u.shape[1]))
        return self.link

    def reveal(self, b, u):
        a = self.target ^ b
        x_mine = measure_projective(self.link.far, self.bras, u, a)
        # singlet anticorrelation: Bob's same-basis outcome is 1 xor x_mine
        return a, 1 ^ x_mine


class AmbainisOptimalAlice:
    """Sends (2|0> + s1|1> + s2|2>)/sqrt(6) with random signs; the declared x
    is the sign-matched bit for whichever basis she claims."""

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        signs = [(1, 1, -1, -1), (1, -1, 1, -1)]  # column 2 * (s1 < 0) + (s2 < 0)
        self.states = np.array([(2, 2, 2, 2), *signs]) / math.sqrt(6.0)
        self.states.flags.writeable = False

    def prepare(self, u) -> SingleState:
        self.negative = 1 - bit(u)  # per basis a, per round
        return SingleState(self.states, 2 * self.negative[0] + self.negative[1])

    def reveal(self, b, u):
        a = self.target ^ b  # not a bit where a guessing Bob restarts
        return a, np.where(a == 1, self.negative[1], self.negative[0])


class LossTolerantOptimalAlice:
    """Sends |+> or |-> and declares the phi_{x,x} (or phi_{1-x,x}) state
    with the largest overlap once x = c xor b is forced."""

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        s = 1.0 / math.sqrt(2.0)
        self.states = np.array([[s, s], [s, -s]])  # columns |+>, |->
        self.states.flags.writeable = False

    def prepare(self, u) -> SingleState:
        self.sent_minus = bit(u[0])
        return SingleState(self.states, self.sent_minus)

    def reveal(self, b, u):
        x = self.target ^ b
        return np.where(self.sent_minus, 1 ^ x, x), x


class SendNothingAlice:
    """Emits vacuum and 'reveals' whatever produces the desired outcome."""

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target

    def prepare(self, u) -> Vacuum:
        return Vacuum()

    def reveal(self, b, u):
        return self.target ^ b, bit(u)


class CunningMotherAlice(HonestAlice):
    """Honest send; if b != x she knows Bob measured the wrong basis and
    relabels x to b so that her son wins x xor b = 0."""

    def reveal(self, b, u):
        return self.a, b  # x where b == x, else relabelled to b


# ---------------------------------------------------------------------------
# Bob-side strategies

class RestartAbuseBob:
    """Never measures; claims loss whenever the revealed a xor b is wrong,
    plus camouflage claims at rate 1 - 2*eta so Alice sees a plausible
    detection rate. A lost round can end in a false claim or be accepted, so
    he does not restart on every loss."""

    last_basis = last_outcome = -1
    restarts_on_loss = False

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        self.camouflage = max(0.0, 1.0 - 2.0 * cfg.eta)

    def receive(self, delivery, delivered, u):
        return np.zeros(len(delivered), dtype=bool)  # stores, never measures

    def choose_b(self, u):
        self.b = bit(u)
        return self.b

    def verify(self, a, x, u):
        claim = ((a ^ self.b) != self.target) | bernoulli(self.camouflage, u)
        return np.where(claim, Decision.CLAIM_LOSS_FALSELY, Decision.ACCEPTED)


class GuessingBob:
    """A receiver that never verifies: receive() measures to guess a bit,
    then b = target xor guess forces the coin and any reveal is accepted.
    guess is the outcome index less offset; a round with guess < 0 restarts,
    a lost round included (restarts_on_loss)."""

    basis_tags = ("computational",)
    restarts_on_loss = True
    last_basis = 0
    offset = 0

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        self.bras = np.eye(family.dim)[None]
        self.bras.flags.writeable = False

    def receive(self, delivery, delivered, u):
        self.last_outcome = measure_delivery(delivery, delivered, self.bras,
                                             u[0], self.last_basis)
        self.guess = self.last_outcome - self.offset
        return self.guess < 0

    def choose_b(self, u):
        return self.target ^ self.guess

    def verify(self, a, x, u):
        return np.full(len(u), Decision.ACCEPTED)


class HelstromBob(GuessingBob):
    """Computational-basis measurement: the optimal x guess on the
    loss-tolerant states; gives up the ability to verify."""


class ComputationalRestartBob(GuessingBob):
    """Qutrit computational-basis measurement: restart on the shared-support
    outcome |0>, otherwise guess a = outcome - 1 and force a xor b = c. On the
    Ambainis states |1> and |2> reveal a with certainty; on the contrived
    protocol the guess is a high-confidence one."""

    offset = 1


class CunningSonBob(HonestBob):
    """Honest measurement, but sends b = x_hat instead of a random bit."""

    def choose_b(self, u):
        return self.x_hat


class TwoPhotonUsdBob(GuessingBob):
    """Measures the two photons of a pulse in both bases; agreement reveals x
    with certainty, disagreement triggers a feigned loss."""

    basis_tags = ("both",)

    def __init__(self, cfg, family: StateFamily):
        super().__init__(cfg, family)
        self.bras = catalog.basis_pair(family)

    def receive(self, delivery, delivered, u):
        pairs = delivered & (delivery.photon_count >= 2)  # else all restart
        conclusive, guess = self.measure_pair(delivery, pairs, u)
        self.guess = self.last_outcome = np.where(conclusive, guess, -1)
        return self.guess < 0

    def measure_pair(self, delivery, delivered, u):
        """(conclusive, guess) per round, guess -1 where nothing arrived: the
        first photon is measured in basis 0, the second in basis 1."""
        o0 = measure_delivery(delivery, delivered, self.bras, u[0], 0)
        o1 = measure_delivery(delivery, delivered, self.bras, u[1], 1)
        return o0 == o1, o0


class TwoPhotonHonestApparatusBob(TwoPhotonUsdBob):
    """Passive apparatus: each photon lands in a uniformly random basis;
    conclusive only when the bases happen to differ and the outcomes agree."""

    basis_tags = ("random_pair",)

    def measure_pair(self, delivery, delivered, u):
        r0, r1 = bit(u[0]), bit(u[1])
        o0 = measure_delivery(delivery, delivered, self.bras, u[2], r0)
        o1 = measure_delivery(delivery, delivered, self.bras, u[3], r1)
        return (r0 != r1) & (o0 == o1), o0


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Strategy:
    """A named player: the protocols it applies to, its hooks class, the
    fewest photons per emission it needs, whether (for an Alice) it sends
    cfg.photon_count photons per emission rather than one, and the variants
    it plays (None: every variant the protocol allows). A Bob's hooks
    declare restarts_on_loss (see protocols).

    build(cfg, family), called only by harness.build_hooks, constructs the
    hooks; each class reads from the ExperimentConfig cfg only what it needs:
    target, eta (the restart-abuse camouflage rate), photon_count or flags.
    """

    protocols: tuple[ProtocolId, ...]
    build: type
    min_photons: int = 1
    pulses: bool = False
    variants: Optional[tuple[VariantFlags, ...]] = None


HONEST = "honest"
_ALL = tuple(ProtocolId)
_BB84 = (ProtocolId.BB84_CF,)
_AMBAINIS = (ProtocolId.AMBAINIS_CF, ProtocolId.AMBAINIS_CF_VARIANT)
_VARIANT = (ProtocolId.AMBAINIS_CF_VARIANT,)
_LT = (ProtocolId.LOSS_TOLERANT_CF,)

REGISTRY = {
    Side.ALICE: {
        HONEST: Strategy(_ALL, HonestAlice, pulses=True),
        "bb84_postpone_lie": Strategy(_BB84, PostponeLieAlice),
        "bb84_rotated": Strategy(_BB84, RotatedStateAlice),
        "bb84_epr": Strategy(_BB84, EprSteeringAlice),
        "ambainis_optimal": Strategy(_AMBAINIS, AmbainisOptimalAlice),
        "lt_optimal": Strategy(_LT, LossTolerantOptimalAlice),
        "send_nothing": Strategy(_AMBAINIS, SendNothingAlice),
        "cunning_mother": Strategy(_LT, CunningMotherAlice),
        # honest choices, leaking cfg.photon_count photons per pulse
        "honest_pulse": Strategy(_LT, HonestAlice, pulses=True),
    },
    Side.BOB: {
        HONEST: Strategy(_ALL, HonestBob),
        # stores, then claims loss after the reveal: restarting on loss only
        "ambainis_restart_abuse": Strategy(_VARIANT, RestartAbuseBob,
                                           variants=(STORE,)),
        # measures on reception, so restarts on loss
        "ambainis_conclusive": Strategy(_VARIANT, ComputationalRestartBob,
                                        variants=(MEASURE,)),
        "lt_helstrom": Strategy(_LT, HelstromBob),
        "mcqm_restart": Strategy((ProtocolId.MCQM_CONTRIVED_CF,),
                                 ComputationalRestartBob),
        "cunning_son": Strategy(_LT, CunningSonBob),
        "twophoton_usd": Strategy(_LT, TwoPhotonUsdBob, min_photons=2),
        "twophoton_honest_apparatus": Strategy(
            _LT, TwoPhotonHonestApparatusBob, min_photons=2),
    },
}

ALICE_STRATEGIES = tuple(REGISTRY[Side.ALICE])
BOB_STRATEGIES = tuple(REGISTRY[Side.BOB])


def lookup(side: Side, name: str, protocol: ProtocolId) -> Strategy:
    """The registered player, checked against its side and protocol."""
    spec = REGISTRY[side].get(name)
    if spec is None:
        raise IncompatibleProtocol(f"unknown {side.value} strategy {name!r}")
    if protocol not in spec.protocols:
        raise IncompatibleProtocol(f"{name} does not apply to {protocol.value}")
    return spec
