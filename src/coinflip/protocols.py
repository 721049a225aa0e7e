"""Executable state machines for the coin-flipping protocols.

A run is an ordered exchange:

1. Alice emits a quantum signal which crosses the lossy channel. There are
   three kinds of emission: SingleState (one pure state carried by
   photon_count identical photons; more than one is a multi-photon pulse,
   tagged "pulse:N" in transcripts instead of "state"), EprHalf (half of a
   singlet, "epr_half") and Vacuum (nothing, "vacuum").
2. Bob reacts to the delivery: measures immediately, stores it, or requests
   a restart (honestly on loss, or dishonestly).
3. Bob sends a random-looking bit b.
4. Alice reveals a basis bit a and a bit x.
5. Bob verifies if he can, and either accepts or calls Alice a cheater
   (or, in stored-measurement variants, claims loss and forces a restart).
6. On acceptance the coin is x xor b (loss-tolerant template) or a xor b
   (BB84/Ambainis templates).

Player behavior is injected through hooks so cheating strategies can replace
any step; the engine only moves messages, applies channel loss, enforces the
restart bound and records the transcript. Hooks are stateful within a single
run (restarts included) and must never be shared across runs.

Alice's hooks are prepare(rng) -> Emission and reveal(b, rng) -> (a, x).
Bob's are receive(delivery, rng) -> Action, choose_b(rng) -> b and
verify(a, x, rng) -> Verdict or a restart Action. After receive and again
after verify the engine copies Bob's optional last_basis (a string tag) and
last_outcome (the index of his measurement outcome, or None) into the round's
transcript. In an honest basis outcome index i is the state |a, i>, so it is
compared with the revealed x directly (see catalog.basis). What differs
between protocols (state family, default variant flags, allowed measurement
timing, coin rule) is one row of the PROTOCOLS table.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from . import catalog
from .catalog import Family, StateFamily
from .channel import ChannelParams, transmit
from .errors import IncompatibleProtocol, RestartLimitExceeded
from .quantum import (ProjectiveMeasurement, QuantumState,
                      measure_projective, steer_epr)
from .rng import RandomStream


class ProtocolId(Enum):
    BB84_CF = "bb84"
    AMBAINIS_CF = "ambainis"
    AMBAINIS_CF_VARIANT = "ambainis_variant"
    LOSS_TOLERANT_CF = "loss_tolerant"
    MCQM_CONTRIVED_CF = "mcqm_contrived"


class LossPolicy(Enum):
    NONE = "none"
    BELIEVE_ON_FAITH = "believe_on_faith"
    RESTART_ON_LOSS = "restart_on_loss"


@dataclass(frozen=True)
class VariantFlags:
    loss_policy: LossPolicy = LossPolicy.NONE
    bob_measures_on_reception: bool = True


@dataclass(frozen=True)
class ProtocolSpec:
    """What one protocol fixes: its state family, its default loss handling,
    the measurement timings it allows Bob, and whether the coin is x xor b
    (loss-tolerant template) or a xor b (BB84/Ambainis templates)."""

    family: Family
    default_flags: VariantFlags
    measure_on_reception: tuple[bool, ...]
    coin_from_x: bool = False


_MEASURE = VariantFlags(LossPolicy.RESTART_ON_LOSS, True)
_STORE = VariantFlags(LossPolicy.NONE, False)  # measure only after the reveal

PROTOCOLS = {
    ProtocolId.BB84_CF: ProtocolSpec(Family.BB84, _MEASURE, (True,)),
    ProtocolId.AMBAINIS_CF: ProtocolSpec(Family.AMBAINIS, _STORE, (False,)),
    ProtocolId.AMBAINIS_CF_VARIANT: ProtocolSpec(Family.AMBAINIS, _STORE,
                                                 (True, False)),
    ProtocolId.LOSS_TOLERANT_CF: ProtocolSpec(Family.LOSS_TOLERANT, _MEASURE,
                                              (True,), coin_from_x=True),
    ProtocolId.MCQM_CONTRIVED_CF: ProtocolSpec(Family.MCQM_EXAMPLE, _MEASURE,
                                               (True,)),
}


def default_flags(protocol: ProtocolId) -> VariantFlags:
    return PROTOCOLS[protocol].default_flags


def check_flags(protocol: ProtocolId, flags: VariantFlags) -> None:
    on_reception = flags.bob_measures_on_reception
    if on_reception not in PROTOCOLS[protocol].measure_on_reception:
        when = "on reception" if on_reception else "after the reveal"
        raise IncompatibleProtocol(f"{protocol.value} forbids measuring {when}")


def family_for(protocol: ProtocolId, alpha2: Optional[float] = None) -> StateFamily:
    """The protocol's state family; alpha2 is read only by the loss-tolerant
    family."""
    family = PROTOCOLS[protocol].family
    return StateFamily(family, alpha2 if family is Family.LOSS_TOLERANT else None)


class Verdict(Enum):
    ACCEPTED = "accepted"
    ABORT_CHEATER = "abort_cheater"


class Action(Enum):
    MEASURED = "measured"
    STORED = "stored"
    REQUEST_RESTART = "request_restart"
    CLAIM_LOSS_FALSELY = "claim_loss_falsely"


# ---------------------------------------------------------------------------
# emissions

@dataclass
class SingleState:
    """photon_count identical copies of one pure state; more than one is a
    multi-photon pulse, whose extra copies are the side channel."""

    state: QuantumState
    photon_count: int = 1

    @property
    def tag(self) -> str:
        return "state" if self.photon_count == 1 else f"pulse:{self.photon_count}"


@dataclass
class Vacuum:
    tag: str = "vacuum"
    photon_count: int = 0


class EprLink:
    """One shared singlet; whichever party measures first steers the other."""

    ALICE = "alice"
    BOB = "bob"

    def __init__(self):
        self._collapsed: dict[str, Optional[QuantumState]] = {
            self.ALICE: None, self.BOB: None}
        self._measured: set[str] = set()

    def measure(self, side: str, m: ProjectiveMeasurement,
                rng: RandomStream) -> int:
        """Measure this side's half in basis m; returns the outcome index."""
        if side in self._measured:
            raise RuntimeError(f"{side} already measured its half")
        self._measured.add(side)
        other = self.ALICE if side == self.BOB else self.BOB
        local = self._collapsed[side]
        if local is None:
            i, far = steer_epr(m, rng)
            self._collapsed[other] = far
            return i
        return rng.choice(m.probabilities(local))


@dataclass
class EprHalf:
    link: EprLink
    tag: str = "epr_half"
    photon_count: int = 1


Emission = Union[SingleState, Vacuum, EprHalf]
Delivery = Union[SingleState, EprHalf, None]  # what survives the channel


def measure_delivery(delivery: Delivery, m: ProjectiveMeasurement,
                     rng: RandomStream) -> int:
    """Measure whatever reached Bob in basis m and return the outcome index.

    A pulse is measured on its first photon only (remaining photons are the
    side channel, exploited explicitly by the pulse-aware strategies).
    """
    if isinstance(delivery, EprHalf):
        return delivery.link.measure(EprLink.BOB, m, rng)
    return measure_projective(delivery.state, m, rng)


# ---------------------------------------------------------------------------
# transcripts

@dataclass
class QuantumRound:
    sent: str
    delivered: bool
    bob_basis: Optional[str] = None
    bob_outcome: Optional[int] = None
    restart_requested: bool = False
    false_claim: bool = False


@dataclass
class Transcript:
    rounds: list[QuantumRound]
    b: int
    revealed: tuple[int, int]
    verdict: Verdict
    outcome: Optional[int]
    restart_count: int

    def to_dict(self) -> dict:
        return {
            "rounds": [vars(r) for r in self.rounds],
            "b": self.b,
            "revealed": {"a": self.revealed[0], "x": self.revealed[1]},
            "verdict": self.verdict.value,
            "outcome": self.outcome,
            "restart_count": self.restart_count,
        }


# ---------------------------------------------------------------------------
# honest hooks

class HonestAlice:
    """Follows the numbered steps: fresh uniform a, family-weighted x.
    photon_count > 1 sends each state as a multi-photon pulse."""

    def __init__(self, family: StateFamily, photon_count: int = 1):
        self.family = family
        self.photon_count = photon_count
        self.a: Optional[int] = None
        self.x: Optional[int] = None

    def prepare(self, rng: RandomStream) -> Emission:
        self.a = rng.bit()
        self.x = self.family.x_values[rng.choice(self.family.x_weights)]
        psi = catalog.state(self.family, catalog.StateLabel(self.a, self.x))
        return SingleState(psi, self.photon_count)

    def reveal(self, b: int, rng: RandomStream) -> tuple[int, int]:
        return self.a, self.x


class HonestBob:
    """Measures per the variant flags, sends a fresh random b, verifies
    whenever the declared basis lets him."""

    def __init__(self, family: StateFamily, flags: VariantFlags):
        self.family = family
        self.flags = flags
        self.a_hat: Optional[int] = None
        self.x_hat: Optional[int] = None
        self.stored: Delivery = None
        self.last_basis: Optional[str] = None
        self.last_outcome: Optional[int] = None

    def receive(self, delivery: Delivery, rng: RandomStream) -> Action:
        self.last_basis = None
        self.last_outcome = None
        if not self.flags.bob_measures_on_reception:
            self.stored = delivery
            return Action.STORED
        if delivery is None:
            return Action.REQUEST_RESTART
        self.a_hat = rng.bit()
        m = catalog.basis(self.family, self.a_hat)
        self.x_hat = measure_delivery(delivery, m, rng)
        self.last_basis = str(self.a_hat)
        self.last_outcome = self.x_hat
        return Action.MEASURED

    def choose_b(self, rng: RandomStream) -> int:
        return rng.bit()

    def verify(self, a: int, x: int, rng: RandomStream):
        if self.flags.bob_measures_on_reception:
            if a == self.a_hat and self.x_hat != x:
                return Verdict.ABORT_CHEATER
            return Verdict.ACCEPTED
        if self.stored is None:
            if self.flags.loss_policy is LossPolicy.BELIEVE_ON_FAITH:
                return Verdict.ACCEPTED
            # no loss handling defined, or restart agreed: replay from step 1
            return Action.REQUEST_RESTART
        m = catalog.basis(self.family, a)
        x_hat = measure_delivery(self.stored, m, rng)
        self.last_basis = str(a)
        self.last_outcome = x_hat
        return Verdict.ABORT_CHEATER if x_hat != x else Verdict.ACCEPTED


@dataclass
class PlayerHooks:
    alice: object
    bob: object


# ---------------------------------------------------------------------------
# engine

def _outcome_bit(protocol: ProtocolId, a: int, x: int, b: int) -> int:
    return (x if PROTOCOLS[protocol].coin_from_x else a) ^ b


def run(protocol: ProtocolId, flags: VariantFlags, hooks: PlayerHooks,
        ch: ChannelParams, params: StateFamily, max_restarts: int,
        randomness: RandomStream) -> Transcript:
    """Execute one full protocol run, looping back to step 1 on restarts."""
    check_flags(protocol, flags)
    rounds: list[QuantumRound] = []
    restart_count = 0

    def restart(rnd: QuantumRound, false_claim: bool) -> None:
        nonlocal restart_count
        rnd.restart_requested = True
        rnd.false_claim = false_claim
        rounds.append(rnd)
        restart_count += 1
        if restart_count > max_restarts:
            raise RestartLimitExceeded(
                f"{protocol.value}: more than {max_restarts} restarts")

    while True:
        emission = hooks.alice.prepare(randomness)
        delivery = transmit(emission, ch, randomness)
        action = hooks.bob.receive(delivery, randomness)
        rnd = QuantumRound(
            sent=emission.tag,
            delivered=delivery is not None,
            bob_basis=getattr(hooks.bob, "last_basis", None),
            bob_outcome=getattr(hooks.bob, "last_outcome", None),
        )
        if action in (Action.REQUEST_RESTART, Action.CLAIM_LOSS_FALSELY):
            restart(rnd, action is Action.CLAIM_LOSS_FALSELY)
            continue
        b = hooks.bob.choose_b(randomness)
        a, x = hooks.alice.reveal(b, randomness)
        decision = hooks.bob.verify(a, x, randomness)
        rnd.bob_basis = getattr(hooks.bob, "last_basis", None)
        rnd.bob_outcome = getattr(hooks.bob, "last_outcome", None)
        if decision in (Action.REQUEST_RESTART, Action.CLAIM_LOSS_FALSELY):
            restart(rnd, decision is Action.CLAIM_LOSS_FALSELY)
            continue
        rounds.append(rnd)
        verdict = decision
        outcome = (_outcome_bit(protocol, a, x, b)
                   if verdict is Verdict.ACCEPTED else None)
        return Transcript(rounds, b, (a, x), verdict, outcome, restart_count)
