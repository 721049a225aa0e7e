"""Catalog of named cheating strategies, one hooks class per attack.

Each factory builds a single-side hooks object (Alice-side objects implement
prepare/reveal, Bob-side objects the receive/choose_b/verify trio) around a
target bit c: the coin value the cheater wants to force. Reveal tables were
verified by direct overlap computation (see tests) rather than taken on
trust. Strategies never see the honest party's private randomness; everything
they learn flows through the hook arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from . import catalog
from .catalog import StateFamily, StateLabel, computational_basis
from .errors import IncompatibleProtocol
from .protocols import (Action, Delivery, EprHalf, EprLink, HonestAlice,
                        HonestBob, ProtocolId, SingleState, Vacuum,
                        VariantFlags, Verdict, measure_delivery)
from .quantum import QuantumState, measure_projective
from .rng import RandomStream


class Side(Enum):
    ALICE = "alice"
    BOB = "bob"


# ---------------------------------------------------------------------------
# Alice-side strategies

class PostponeLieAlice(HonestAlice):
    """Honest send; lies about the basis when unhappy with a xor b."""

    def __init__(self, family: StateFamily, target: int):
        super().__init__(family)
        self.target = target

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        if self.a ^ b == self.target:
            return self.a, self.x
        return 1 ^ self.a, rng.bit()


class RotatedStateAlice:
    """Sends (cos k*pi/8, sin k*pi/8) for odd k, then declares the basis that
    suits her with the nearest bit in that basis."""

    def __init__(self, family: StateFamily, target: int):
        self.family = family
        self.target = target
        self.sent: Optional[QuantumState] = None

    def prepare(self, rng: RandomStream) -> SingleState:
        k = (1, 3, 5, 7)[rng.randint(4)]
        theta = k * math.pi / 8.0
        self.sent = QuantumState((math.cos(theta), math.sin(theta)))
        return SingleState(self.sent)

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        a = self.target ^ b
        overlaps = [
            self.sent.fidelity_with(catalog.state(self.family, StateLabel(a, x)))
            for x in (0, 1)
        ]
        return a, (0 if overlaps[0] >= overlaps[1] else 1)


class EprSteeringAlice:
    """Keeps half a singlet and steers it into the basis a = c xor b after
    learning b; the reveal is then guaranteed to match Bob's outcome."""

    def __init__(self, family: StateFamily, target: int):
        self.family = family
        self.target = target
        self.link: Optional[EprLink] = None

    def prepare(self, rng: RandomStream) -> EprHalf:
        self.link = EprLink()
        return EprHalf(self.link)

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        a = self.target ^ b
        m = catalog.basis(self.family, a)
        x_mine = self.link.measure(EprLink.ALICE, m, rng)
        # singlet anticorrelation: Bob's same-basis outcome is 1 xor x_mine
        return a, 1 ^ x_mine


class AmbainisOptimalAlice:
    """Sends (2|0> + s1|1> + s2|2>)/sqrt(6) with random signs; the declared x
    is the sign-matched bit for whichever basis she claims."""

    def __init__(self, family: StateFamily, target: int):
        self.family = family
        self.target = target
        self.signs: Optional[tuple[int, int]] = None

    def prepare(self, rng: RandomStream) -> SingleState:
        self.signs = (rng.sign(), rng.sign())
        s1, s2 = self.signs
        r6 = math.sqrt(6.0)
        return SingleState(QuantumState((2.0 / r6, s1 / r6, s2 / r6)))

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        a = self.target ^ b
        sign = self.signs[a]
        return a, (0 if sign > 0 else 1)


class LossTolerantOptimalAlice:
    """Sends |+> or |-> and declares the phi_{x,x} (or phi_{1-x,x}) state
    with the largest overlap once x = c xor b is forced."""

    def __init__(self, family: StateFamily, target: int):
        self.family = family
        self.target = target
        self.sent_minus: Optional[bool] = None

    def prepare(self, rng: RandomStream) -> SingleState:
        self.sent_minus = bool(rng.bit())
        s = 1.0 / math.sqrt(2.0)
        return SingleState(QuantumState((s, -s if self.sent_minus else s)))

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        x = self.target ^ b
        a = (1 ^ x) if self.sent_minus else x
        return a, x


class SendNothingAlice:
    """Emits vacuum and 'reveals' whatever produces the desired outcome."""

    def __init__(self, family: StateFamily, target: int):
        self.family = family
        self.target = target

    def prepare(self, rng: RandomStream) -> Vacuum:
        return Vacuum()

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        return self.target ^ b, rng.bit()


class CunningMotherAlice(HonestAlice):
    """Honest send; if b != x she knows Bob measured the wrong basis and
    relabels x to b so that her son wins x xor b = 0."""

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        if b == self.x:
            return self.a, self.x
        return self.a, b


# ---------------------------------------------------------------------------
# Bob-side strategies

class RestartAbuseBob:
    """Never measures; claims loss whenever the revealed a xor b is wrong,
    plus camouflage claims at rate 1-2*p_honest so Alice sees a plausible
    detection rate."""

    def __init__(self, target: int, p_honest: float):
        self.target = target
        self.camouflage = max(0.0, 1.0 - 2.0 * p_honest)
        self.b: Optional[int] = None
        self.last_basis = None
        self.last_outcome = None

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        return Action.STORED

    def choose_b(self, rng: RandomStream) -> int:
        self.b = rng.bit()
        return self.b

    def verify(self, a: int, x: int, rng: RandomStream):
        if a ^ self.b != self.target:
            return Action.CLAIM_LOSS_FALSELY
        if rng.bernoulli(self.camouflage):
            return Action.CLAIM_LOSS_FALSELY
        return Verdict.ACCEPTED


class GuessingBob:
    """A receiver that never verifies: receive() measures to guess a bit,
    then b = target xor guess forces the coin and any reveal is accepted."""

    def __init__(self, family: StateFamily, target: int):
        self.target = target
        self.basis = computational_basis(family.dim)
        self.guess: Optional[int] = None
        self.last_basis = None
        self.last_outcome = None

    def choose_b(self, rng: RandomStream) -> int:
        return self.target ^ self.guess

    def verify(self, a: int, x: int, rng: RandomStream):
        return Verdict.ACCEPTED


class HelstromBob(GuessingBob):
    """Computational-basis measurement: the optimal x guess on the
    loss-tolerant states; gives up the ability to verify."""

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "computational"
        self.last_outcome = None
        if delivery is None:
            return Action.REQUEST_RESTART
        self.guess = measure_delivery(delivery, self.basis, rng)
        self.last_outcome = self.guess
        return Action.MEASURED


class ComputationalRestartBob(GuessingBob):
    """Qutrit computational-basis measurement: restart on the shared-support
    outcome |0>, otherwise guess a = outcome - 1 and force a xor b = c. On the
    Ambainis states |1> and |2> reveal a with certainty; on the contrived
    protocol the guess is a high-confidence one."""

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "computational"
        self.last_outcome = None
        if delivery is None:
            return Action.REQUEST_RESTART
        self.last_outcome = measure_delivery(delivery, self.basis, rng)
        if self.last_outcome == 0:
            return Action.REQUEST_RESTART
        self.guess = self.last_outcome - 1
        return Action.MEASURED


class CunningSonBob(HonestBob):
    """Honest measurement, but sends b = x_hat instead of a random bit."""

    def __init__(self, family: StateFamily, flags: VariantFlags, target: int = 0):
        super().__init__(family, flags)
        self.target = target

    def choose_b(self, rng: RandomStream) -> int:
        return self.x_hat


class TwoPhotonUsdBob(GuessingBob):
    """Measures the two photons of a pulse in both bases; agreement reveals x
    with certainty, disagreement triggers a feigned loss."""

    def __init__(self, family: StateFamily, target: int):
        super().__init__(family, target)
        self.bases = (catalog.basis(family, 0), catalog.basis(family, 1))

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "both"
        self.last_outcome = None
        if delivery is None or delivery.photon_count < 2:
            return Action.REQUEST_RESTART
        o0, o1 = (measure_projective(delivery.state, m, rng) for m in self.bases)
        if o0 != o1:
            return Action.REQUEST_RESTART
        self.guess = o0
        self.last_outcome = o0
        return Action.MEASURED


class TwoPhotonHonestApparatusBob(TwoPhotonUsdBob):
    """Passive apparatus: each photon lands in a uniformly random basis;
    conclusive only when the bases happen to differ and the outcomes agree."""

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "random_pair"
        self.last_outcome = None
        if delivery is None or delivery.photon_count < 2:
            return Action.REQUEST_RESTART
        r0, r1 = rng.bit(), rng.bit()
        o0 = measure_projective(delivery.state, self.bases[r0], rng)
        o1 = measure_projective(delivery.state, self.bases[r1], rng)
        if r0 == r1 or o0 != o1:
            return Action.REQUEST_RESTART
        self.guess = o0
        self.last_outcome = o0
        return Action.MEASURED


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Strategy:
    """A named attack: the side that plays it, the protocols it applies to,
    the fewest photons per emission it needs, and a factory of fresh hooks.

    build(cfg, family, flags), called only by harness.build_hooks, reads
    cfg.target, cfg.eta and cfg.photon_count of an ExperimentConfig; eta feeds
    the restart-abuse camouflage rate.
    """

    side: Side
    protocols: tuple[ProtocolId, ...]
    build: Callable[..., object]
    min_photons: int = 1


def _targeted(cls) -> Callable[..., object]:
    """Factory of cls(family, target)."""
    return lambda cfg, family, flags: cls(family, cfg.target)


_BB84 = (ProtocolId.BB84_CF,)
_AMBAINIS = (ProtocolId.AMBAINIS_CF, ProtocolId.AMBAINIS_CF_VARIANT)
_LT = (ProtocolId.LOSS_TOLERANT_CF,)

REGISTRY = {
    "bb84_postpone_lie": Strategy(Side.ALICE, _BB84, _targeted(PostponeLieAlice)),
    "bb84_rotated": Strategy(Side.ALICE, _BB84, _targeted(RotatedStateAlice)),
    "bb84_epr": Strategy(Side.ALICE, _BB84, _targeted(EprSteeringAlice)),
    "ambainis_optimal": Strategy(Side.ALICE, _AMBAINIS,
                                 _targeted(AmbainisOptimalAlice)),
    "lt_optimal": Strategy(Side.ALICE, _LT, _targeted(LossTolerantOptimalAlice)),
    "send_nothing": Strategy(Side.ALICE, _AMBAINIS, _targeted(SendNothingAlice)),
    "cunning_mother": Strategy(
        Side.ALICE, _LT, lambda cfg, family, flags: CunningMotherAlice(family)),
    # honest choices, leaking cfg.photon_count photons per pulse
    "honest_pulse": Strategy(
        Side.ALICE, _LT,
        lambda cfg, family, flags: HonestAlice(family, cfg.photon_count)),
    "ambainis_restart_abuse": Strategy(
        Side.BOB, (ProtocolId.AMBAINIS_CF_VARIANT,),
        lambda cfg, family, flags: RestartAbuseBob(cfg.target, cfg.eta)),
    "ambainis_conclusive": Strategy(Side.BOB, (ProtocolId.AMBAINIS_CF_VARIANT,),
                                    _targeted(ComputationalRestartBob)),
    "lt_helstrom": Strategy(Side.BOB, _LT, _targeted(HelstromBob)),
    "mcqm_restart": Strategy(Side.BOB, (ProtocolId.MCQM_CONTRIVED_CF,),
                             _targeted(ComputationalRestartBob)),
    "cunning_son": Strategy(
        Side.BOB, _LT,
        lambda cfg, family, flags: CunningSonBob(family, flags, cfg.target)),
    "twophoton_usd": Strategy(Side.BOB, _LT, _targeted(TwoPhotonUsdBob),
                              min_photons=2),
    "twophoton_honest_apparatus": Strategy(
        Side.BOB, _LT, _targeted(TwoPhotonHonestApparatusBob), min_photons=2),
}

ALICE_STRATEGIES = tuple(n for n, s in REGISTRY.items() if s.side is Side.ALICE)
BOB_STRATEGIES = tuple(n for n, s in REGISTRY.items() if s.side is Side.BOB)


def lookup(side: Side, name: str, protocol: ProtocolId) -> Strategy:
    """The registered strategy, checked against its side and protocol."""
    spec = REGISTRY.get(name)
    if spec is None or spec.side is not side:
        raise IncompatibleProtocol(f"unknown {side.value} strategy {name!r}")
    if protocol not in spec.protocols:
        raise IncompatibleProtocol(f"{name} does not apply to {protocol.value}")
    return spec
