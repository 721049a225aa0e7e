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
from typing import Optional

from . import catalog
from .catalog import Family, StateFamily, StateLabel, computational_basis
from .channel import emit_pulse
from .discrimination import INCONCLUSIVE, computational_usd_ambainis
from .errors import IncompatibleProtocol
from .protocols import (Action, Delivery, EprHalf, EprLink, HonestAlice,
                        HonestBob, MultiPhoton, ProtocolId, SingleState,
                        Vacuum, VariantFlags, Verdict, measure_delivery)
from .quantum import QuantumState, density_of, measure_povm, measure_projective
from .rng import RandomStream


class Side(Enum):
    ALICE = "alice"
    BOB = "bob"


@dataclass(frozen=True)
class StrategyId:
    side: Side
    name: str
    target: int = 0


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


class HonestPulseAlice(HonestAlice):
    """Honest choices, but leaks extra photons per pulse (the side channel)."""

    def __init__(self, family: StateFamily, photon_count: int = 2):
        super().__init__(family, photon_count=photon_count)


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
        if rng.random() < self.camouflage:
            return Action.CLAIM_LOSS_FALSELY
        return Verdict.ACCEPTED


class ConclusiveAmbainisBob:
    """Measures immediately in the computational basis; restarts until the
    outcome reveals a, then forces a xor b = c."""

    povm = computational_usd_ambainis()

    def __init__(self, target: int):
        self.target = target
        self.a_guess: Optional[int] = None
        self.last_basis = None
        self.last_outcome = None

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "computational"
        self.last_outcome = None
        if delivery is None:
            return Action.REQUEST_RESTART
        out = measure_povm(density_of(delivery), self.povm, rng)
        self.last_outcome = out.label
        if out.label == INCONCLUSIVE:
            return Action.REQUEST_RESTART
        self.a_guess = 0 if out.label == "a=0" else 1
        return Action.MEASURED

    def choose_b(self, rng: RandomStream) -> int:
        return self.target ^ self.a_guess

    def verify(self, a: int, x: int, rng: RandomStream):
        return Verdict.ACCEPTED  # pretends to be satisfied; cannot verify


class HelstromBob:
    """Computational-basis measurement: the optimal x guess on the
    loss-tolerant states; gives up the ability to verify."""

    def __init__(self, target: int):
        self.target = target
        self.basis = computational_basis(2)
        self.x_guess: Optional[int] = None
        self.last_basis = None
        self.last_outcome = None

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "computational"
        self.last_outcome = None
        if delivery is None:
            return Action.REQUEST_RESTART
        label = measure_delivery(delivery, self.basis, rng)
        self.last_outcome = label
        self.x_guess = int(label)
        return Action.MEASURED

    def choose_b(self, rng: RandomStream) -> int:
        return self.target ^ self.x_guess

    def verify(self, a: int, x: int, rng: RandomStream):
        return Verdict.ACCEPTED


class McqmRestartBob:
    """On the contrived protocol: computational measurement, restart on the
    shared-support outcome |0>, otherwise a high-confidence guess of a."""

    def __init__(self, target: int):
        self.target = target
        self.basis = computational_basis(3)
        self.a_guess: Optional[int] = None
        self.last_basis = None
        self.last_outcome = None

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "computational"
        self.last_outcome = None
        if delivery is None:
            return Action.REQUEST_RESTART
        label = measure_delivery(delivery, self.basis, rng)
        self.last_outcome = label
        if label == "0":
            return Action.REQUEST_RESTART
        self.a_guess = 0 if label == "1" else 1
        return Action.MEASURED

    def choose_b(self, rng: RandomStream) -> int:
        return self.target ^ self.a_guess

    def verify(self, a: int, x: int, rng: RandomStream):
        return Verdict.ACCEPTED


class CunningSonBob(HonestBob):
    """Honest measurement, but sends b = x_hat instead of a random bit."""

    def __init__(self, family: StateFamily, flags: VariantFlags, target: int = 0):
        super().__init__(family, flags)
        self.target = target

    def choose_b(self, rng: RandomStream) -> int:
        return int(self.x_hat_label)


class TwoPhotonUsdBob:
    """Measures the two photons of a pulse in both bases; agreement reveals x
    with certainty, disagreement triggers a feigned loss."""

    def __init__(self, family: StateFamily, target: int):
        self.target = target
        self.bases = (catalog.basis(family, 0), catalog.basis(family, 1))
        self.x_guess: Optional[int] = None
        self.last_basis = None
        self.last_outcome = None

    def _photon_outcomes(self, pulse, rng, basis_pair):
        return tuple(
            measure_projective(pulse.state, m, rng).label for m in basis_pair)

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "both"
        self.last_outcome = None
        if delivery is None or delivery.photon_count < 2:
            return Action.REQUEST_RESTART
        o0, o1 = self._photon_outcomes(delivery, rng, self.bases)
        if o0 != o1:
            return Action.REQUEST_RESTART
        self.last_outcome = o0
        self.x_guess = int(o0)
        return Action.MEASURED

    def choose_b(self, rng: RandomStream) -> int:
        return self.target ^ self.x_guess

    def verify(self, a: int, x: int, rng: RandomStream):
        return Verdict.ACCEPTED


class TwoPhotonHonestApparatusBob(TwoPhotonUsdBob):
    """Passive apparatus: each photon lands in a uniformly random basis;
    conclusive only when the bases happen to differ and the outcomes agree."""

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = "random_pair"
        self.last_outcome = None
        if delivery is None or delivery.photon_count < 2:
            return Action.REQUEST_RESTART
        r0, r1 = rng.bit(), rng.bit()
        o0 = measure_projective(delivery.state, self.bases[r0], rng).label
        o1 = measure_projective(delivery.state, self.bases[r1], rng).label
        if r0 == r1 or o0 != o1:
            return Action.REQUEST_RESTART
        self.last_outcome = o0
        self.x_guess = int(o0)
        return Action.MEASURED


# ---------------------------------------------------------------------------
# factory

_ALICE_PROTOCOLS = {
    "bb84_postpone_lie": (ProtocolId.BB84_CF,),
    "bb84_rotated": (ProtocolId.BB84_CF,),
    "bb84_epr": (ProtocolId.BB84_CF,),
    "ambainis_optimal": (ProtocolId.AMBAINIS_CF, ProtocolId.AMBAINIS_CF_VARIANT),
    "lt_optimal": (ProtocolId.LOSS_TOLERANT_CF,),
    "send_nothing": (ProtocolId.AMBAINIS_CF, ProtocolId.AMBAINIS_CF_VARIANT),
    "cunning_mother": (ProtocolId.LOSS_TOLERANT_CF,),
    "honest_pulse": (ProtocolId.LOSS_TOLERANT_CF,),
}

_BOB_PROTOCOLS = {
    "ambainis_restart_abuse": (ProtocolId.AMBAINIS_CF_VARIANT,),
    "ambainis_conclusive": (ProtocolId.AMBAINIS_CF_VARIANT,),
    "lt_helstrom": (ProtocolId.LOSS_TOLERANT_CF,),
    "mcqm_restart": (ProtocolId.MCQM_CONTRIVED_CF,),
    "cunning_son": (ProtocolId.LOSS_TOLERANT_CF,),
    "twophoton_usd": (ProtocolId.LOSS_TOLERANT_CF,),
    "twophoton_honest_apparatus": (ProtocolId.LOSS_TOLERANT_CF,),
}

ALICE_STRATEGIES = tuple(_ALICE_PROTOCOLS)
BOB_STRATEGIES = tuple(_BOB_PROTOCOLS)


def make(strategy: StrategyId, protocol: ProtocolId, params: StateFamily,
         flags: Optional[VariantFlags] = None, eta: float = 1.0,
         photon_count: int = 2):
    """Build the hooks object for one side's named strategy.

    eta feeds the restart-abuse camouflage rate; photon_count sizes the
    pulses of the leaky honest Alice used in the side-channel analysis.
    """
    table = _ALICE_PROTOCOLS if strategy.side is Side.ALICE else _BOB_PROTOCOLS
    if strategy.name not in table:
        raise IncompatibleProtocol(f"unknown {strategy.side.value} strategy "
                                   f"{strategy.name!r}")
    if protocol not in table[strategy.name]:
        raise IncompatibleProtocol(
            f"{strategy.name} does not apply to {protocol.value}")
    c = strategy.target
    if strategy.side is Side.ALICE:
        builders = {
            "bb84_postpone_lie": lambda: PostponeLieAlice(params, c),
            "bb84_rotated": lambda: RotatedStateAlice(params, c),
            "bb84_epr": lambda: EprSteeringAlice(params, c),
            "ambainis_optimal": lambda: AmbainisOptimalAlice(params, c),
            "lt_optimal": lambda: LossTolerantOptimalAlice(params, c),
            "send_nothing": lambda: SendNothingAlice(params, c),
            "cunning_mother": lambda: CunningMotherAlice(params),
            "honest_pulse": lambda: HonestPulseAlice(params, photon_count),
        }
        return builders[strategy.name]()
    from .protocols import default_flags
    flags = flags or default_flags(protocol)
    builders = {
        "ambainis_restart_abuse": lambda: RestartAbuseBob(c, eta),
        "ambainis_conclusive": lambda: ConclusiveAmbainisBob(c),
        "lt_helstrom": lambda: HelstromBob(c),
        "mcqm_restart": lambda: McqmRestartBob(c),
        "cunning_son": lambda: CunningSonBob(params, flags, c),
        "twophoton_usd": lambda: TwoPhotonUsdBob(params, c),
        "twophoton_honest_apparatus": lambda: TwoPhotonHonestApparatusBob(params, c),
    }
    return builders[strategy.name]()
