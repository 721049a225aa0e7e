"""Executable state machines for the coin-flipping protocols, and the batch
engine that runs them.

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

Steps 1-5 make one round; a restart replays them from step 1. Player
behavior is injected through hooks so cheating strategies can replace any
step; the engine only moves messages, applies channel loss, enforces the
restart bound and records transcripts.

The engine (run_chunk) runs every round of a step as one flat batch of
(trial, round) pairs, so hooks take and return arrays with one entry per
round. u holds the uniforms of the hook's own draw site (see rng), one entry
per round of the batch: prepare gets u[0] and u[1], receive u[0] to u[3],
and choose_b, reveal and verify one column each.

  Alice: prepare(u) -> emission batch; reveal(b, u) -> (a, x)
  Bob:   receive(delivery, delivered, u) -> restart mask;
         choose_b(u) -> b; verify(a, x, u) -> Decision codes

Every hook runs once per step, in the order prepare, receive, choose_b,
reveal, verify, on every round of the step (delivered says which deliveries
arrived). The engine discards what choose_b, reveal and verify give on the
rounds receive restarted, so there a hook may see any value (b need not be
a bit) but must not raise. A hook may keep per-round arrays from one call
to the next within a step, but no state across rounds: rounds are
independent draws, which is what lets a step run a trial's next rounds all
at once. Receivers measure through measure_delivery, which gives one
outcome index per round of the batch and -1 where nothing arrived.

For transcripts Bob exposes last_basis (an index into his basis_tags, -1 for
none) and last_outcome (the index of his measurement outcome, -1 for none),
per round or as one value for all; both are read once verify has run. Each
step logs the rounds its trials keep as arrays, and the chunk's transcripts
are built from that log in one pass at its end. The engine records no basis
for a round where nothing arrived. In an honest basis
outcome index i is the state |a, i>, so it is compared with the revealed x
directly (see catalog.basis). What differs between protocols (state family,
default variant flags, allowed measurement timing, coin rule) is one row
of the PROTOCOLS table.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from . import catalog
from .catalog import Family, StateFamily
from .channel import ChannelParams, transmit
from .errors import IncompatibleProtocol
from .quantum import measure_projective, steer_epr
from .rng import (CHOOSE_B, PREPARE, RECEIVE, REVEAL, SLOTS, TRANSMIT, VERIFY,
                  ChunkStream, bit, choice)

DEPTH = 64  # the most rounds per trial in one step


class ProtocolId(Enum):
    BB84_CF = "bb84"
    AMBAINIS_CF = "ambainis"
    AMBAINIS_CF_VARIANT = "ambainis_variant"
    LOSS_TOLERANT_CF = "loss_tolerant"
    MCQM_CONTRIVED_CF = "mcqm_contrived"


class LossPolicy(Enum):
    BELIEVE_ON_FAITH = "believe_on_faith"
    RESTART_ON_LOSS = "restart_on_loss"


@dataclass(frozen=True)
class VariantFlags:
    loss_policy: LossPolicy = LossPolicy.RESTART_ON_LOSS
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
_STORE = VariantFlags(LossPolicy.RESTART_ON_LOSS, False)  # measure only after the reveal

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
    """Only a Bob who measures after the reveal can believe on faith; one who
    measures on reception knows a loss at once and restarts."""
    on_reception = flags.bob_measures_on_reception
    if on_reception not in PROTOCOLS[protocol].measure_on_reception:
        when = "on reception" if on_reception else "after the reveal"
        raise IncompatibleProtocol(f"{protocol.value} forbids measuring {when}")
    if on_reception and flags.loss_policy is LossPolicy.BELIEVE_ON_FAITH:
        raise IncompatibleProtocol("believe_on_faith needs Bob to measure "
                                   "after the reveal")


def family_for(protocol: ProtocolId, alpha2: Optional[float] = None) -> StateFamily:
    """The protocol's state family; alpha2 is read only by the loss-tolerant
    family."""
    family = PROTOCOLS[protocol].family
    return StateFamily(family, alpha2 if family is Family.LOSS_TOLERANT else None)


class Verdict(Enum):
    ACCEPTED = "accepted"
    ABORT_CHEATER = "abort_cheater"


class Decision:
    """How a round ends, as verify returns it per round (int codes, for
    arrays); the first two end the trial."""

    ACCEPTED, ABORT_CHEATER, REQUEST_RESTART, CLAIM_LOSS_FALSELY = range(4)


# ---------------------------------------------------------------------------
# emissions: one per round of a batch

@dataclass
class SingleState:
    """One pure state per round, as the columns of amplitudes (dim, n), each
    carried by photon_count identical photons; more than one is a
    multi-photon pulse, whose extra copies are the side channel."""

    amplitudes: np.ndarray
    photon_count: int = 1

    @property
    def tag(self) -> str:
        return "state" if self.photon_count == 1 else f"pulse:{self.photon_count}"


@dataclass
class Vacuum:
    tag: str = "vacuum"
    photon_count: int = 0


@dataclass
class EprHalf:
    """Half of a singlet per round; Alice keeps the other halves. Whoever
    measures first steers the other half: once Bob has measured his half of
    a round, column j of far holds the collapsed state of Alice's half."""

    far: np.ndarray
    tag: str = "epr_half"
    photon_count: int = 1


Emission = Union[SingleState, Vacuum, EprHalf]


def measure_delivery(delivery: Emission, delivered: np.ndarray, bras: np.ndarray,
                     u: np.ndarray, which: Optional[np.ndarray] = None) -> np.ndarray:
    """Measure what reached Bob and return one outcome index per round of the
    batch, -1 where nothing arrived; u (and which, if given) hold one entry
    per round, and bras and which choose the basis as in measure_projective.

    A pulse is measured on its first photon only (remaining photons are the
    side channel, exploited explicitly by the pulse-aware strategies). An EPR
    half steers Alice's half of the same round, in the delivered rounds only.
    """
    outcome = np.full(len(delivered), -1)
    rows = np.flatnonzero(delivered)
    if rows.size:  # nothing arrives from vacuum
        which = None if which is None else which[rows]
        if isinstance(delivery, EprHalf):
            outcome[rows], delivery.far[:, rows] = steer_epr(bras, u[rows], which)
        else:
            outcome[rows] = measure_projective(delivery.amplitudes[:, rows], bras,
                                               u[rows], which)
    return outcome


# ---------------------------------------------------------------------------
# transcripts

@dataclass(slots=True)
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
            "rounds": [{"sent": r.sent, "delivered": r.delivered,
                        "bob_basis": r.bob_basis, "bob_outcome": r.bob_outcome,
                        "restart_requested": r.restart_requested,
                        "false_claim": r.false_claim} for r in self.rounds],
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
        self.kets = catalog.basis_pair(family).conj()  # kets[a, x] is |a, x>

    def prepare(self, u: np.ndarray) -> Emission:
        self.a = bit(u[0])
        self.x = choice(self.family.x_weights, u[1])  # x_values are 0, 1(, 2)
        return SingleState(self.kets[self.a, self.x].T, self.photon_count)

    def reveal(self, b: np.ndarray, u: np.ndarray):
        return self.a, self.x


class HonestBob:
    """Measures per the variant flags, sends a fresh random b, verifies
    whenever the declared basis lets him."""

    basis_tags = ("0", "1")

    def __init__(self, family: StateFamily, flags: VariantFlags):
        self.flags = flags
        self.bras = catalog.basis_pair(family)

    def receive(self, delivery: Emission, delivered: np.ndarray,
                u: np.ndarray) -> np.ndarray:
        if not self.flags.bob_measures_on_reception:
            self.stored, self.delivered = delivery, delivered
            return np.zeros(len(delivered), dtype=bool)
        self.a_hat = self.last_basis = bit(u[0])
        self.x_hat = self.last_outcome = measure_delivery(
            delivery, delivered, self.bras, u[1], self.a_hat)
        return ~delivered

    def choose_b(self, u: np.ndarray) -> np.ndarray:
        return bit(u)

    def verify(self, a: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.flags.bob_measures_on_reception:
            caught = (a == self.a_hat) & (self.x_hat != x)
            return np.where(caught, Decision.ABORT_CHEATER, Decision.ACCEPTED)
        # a lost round is believed on faith or replayed from step 1
        self.last_basis = a
        self.last_outcome = measure_delivery(self.stored, self.delivered,
                                             self.bras, u, a)
        lost = (Decision.ACCEPTED
                if self.flags.loss_policy is LossPolicy.BELIEVE_ON_FAITH
                else Decision.REQUEST_RESTART)
        caught = np.where(self.last_outcome != x, Decision.ABORT_CHEATER,
                          Decision.ACCEPTED)
        return np.where(self.delivered, caught, lost)


# ---------------------------------------------------------------------------
# engine

def run_chunk(protocol: ProtocolId, alice, bob, ch: ChannelParams,
              max_restarts: int, stream: ChunkStream, trials: int,
              sink=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run `trials` independent protocol runs on the uniforms of one chunk.

    Step s runs the next min(2**s, DEPTH) rounds of every trial still
    pending (never more than max_restarts + 1 rounds in all) on the block
    stream.block(s, (pending, depth, SLOTS)), and each trial keeps its first
    round that does not end in a restart. Returns, per trial, the Decision
    of that round (REQUEST_RESTART for a trial that restarted more than
    max_restarts times), the coin it produced and the restarts before it.
    With a sink, each step logs its trials' rounds up to the kept one as
    arrays; at the end the log is sorted by trial, the trials over the limit
    are dropped, and each other trial's Transcript goes to the sink, in
    trial order.
    """
    coin_from_x = PROTOCOLS[protocol].coin_from_x
    verdict = np.full(trials, Decision.REQUEST_RESTART, dtype=np.int8)
    coin = np.zeros(trials, dtype=np.int8)
    restarts = np.zeros(trials, dtype=np.int64)
    final = np.zeros((3, trials), dtype=np.int8)  # b, a, x, kept with a sink
    log, sent = (None, None) if sink is None else ([], [])  # per step: rounds, tag
    pending = np.arange(trials)
    rounds_before = 0  # rounds each pending trial has run, all restarts
    step = 0
    while pending.size and rounds_before <= max_restarts:
        depth = min(1 << step, DEPTH, max_restarts + 1 - rounds_before)
        # u[c] is column c of the block: one uniform per (trial, round)
        u = stream.block(step, (pending.size, depth, SLOTS)).reshape(-1, SLOTS).T
        emission = alice.prepare(u[PREPARE])
        delivered = transmit(emission, ch, u[TRANSMIT])
        restart = bob.receive(emission, delivered, u[RECEIVE])
        b = bob.choose_b(u[CHOOSE_B])
        a, x = alice.reveal(b, u[REVEAL])
        decision = np.where(restart, Decision.REQUEST_RESTART,
                            bob.verify(a, x, u[VERIFY]))

        ends = (decision <= Decision.ABORT_CHEATER).reshape(-1, depth)
        done = ends.any(1)
        first = ends.argmax(1)  # the first round that ends each finished trial
        last = np.flatnonzero(done) * depth + first[done]
        finished = pending[done]
        verdict[finished] = decision[last]
        coin[finished] = (x[last] if coin_from_x else a[last]) ^ b[last]
        restarts[finished] = rounds_before + first[done]
        if log is not None:  # each trial's rounds up to the one it keeps
            final[:, finished] = b[last], a[last], x[last]
            stop = np.where(done, first + 1, depth)
            kept = (np.arange(depth) < stop[:, None]).ravel()
            basis = np.where(delivered, bob.last_basis, -1)
            outcome = np.broadcast_to(bob.last_outcome, delivered.shape)
            log.append((np.repeat(pending, stop), np.full(kept.sum(), len(sent)),
                        delivered[kept], basis[kept], outcome[kept], decision[kept]))
            sent.append(emission.tag)
        pending = pending[~done]
        rounds_before += depth
        step += 1
    if log is not None:  # every kept round, in trial order, then a slice per trial
        trial, tag, arrived, basis, outcome, decided = map(np.concatenate, zip(*log))
        rows = np.argsort(trial, kind="stable")
        rows = rows[verdict[trial[rows]] != Decision.REQUEST_RESTART]
        outcome, decided = outcome[rows], decided[rows]
        measured = outcome.astype(object)
        measured[outcome < 0] = None
        tags = np.array((*getattr(bob, "basis_tags", ()), None), dtype=object)
        made = list(map(QuantumRound, np.array(sent, dtype=object)[tag[rows]].tolist(),
                        arrived[rows].tolist(), tags[basis[rows]].tolist(),  # -1: None
                        measured.tolist(),
                        (decided >= Decision.REQUEST_RESTART).tolist(),
                        (decided == Decision.CLAIM_LOSS_FALSELY).tolist()))
        ok = verdict != Decision.REQUEST_RESTART
        for end, v, c, r, b, a, x in zip(np.cumsum(restarts[ok] + 1).tolist(),
                                         verdict[ok].tolist(), coin[ok].tolist(),
                                         restarts[ok].tolist(), *final[:, ok].tolist()):
            accepted = v == Decision.ACCEPTED
            sink(Transcript(made[end - r - 1:end], b, (a, x),
                            Verdict.ACCEPTED if accepted else Verdict.ABORT_CHEATER,
                            c if accepted else None, r))
    return verdict, coin, restarts
