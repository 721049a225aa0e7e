"""Executable state machines for the coin-flipping protocols, and the batch
engine that runs them.

A run is an ordered exchange:

1. Alice emits a quantum signal which crosses the lossy channel. Every
   emission is one Emission: per round, one column of the sender's fixed
   state table, carried by photon_count identical photons. Transcripts tag
   it by what the channel and receivers read of it: "vacuum" for no photon,
   "state" for one, "pulse:N" for a multi-photon pulse of N, and "epr_half"
   for an entangled emission, half of a singlet whose far half is likewise
   one column of a fixed table per round.
2. Bob measures the delivery at once or stores it, and answers with a
   random-looking bit b.
3. Alice reveals a basis bit a and a bit x.
4. Bob verifies if he can, and accepts, calls Alice a cheater or requests
   a restart: honestly on loss, or dishonestly (an inconclusive guess, or
   in stored-measurement variants a false claim of loss).
5. On acceptance the coin is x xor b (loss-tolerant template) or a xor b
   (BB84/Ambainis templates).

Steps 1-4 make one round; a restart replays them from step 1. Player
behavior is injected through hooks so cheating strategies can replace any
step. attempt is the round's one home, and the one place the hooks and the
channel run: it plays steps 1-5 on a batch of block rows. The engine calls
it once per step and only keeps the books: it enforces the restart bound,
finds each trial's ending attempt and records transcripts. Every player,
honest or cheating, is in strategies; this module holds the round, the
engine, the emissions, the transcripts and the protocol table.

The engine (run_chunk) runs every round of a step, over all the chunks of
one call, as one flat batch of (trial, round) pairs, so hooks take and
return arrays with one entry per round. u holds the uniforms of the hook's
own draw site (see rng), one entry per round of the batch: prepare gets
u[0] and u[1], receive u[0] to u[4], the last b's, and reveal and verify
one column each.

  Alice: prepare(u) -> emission batch; reveal(b, u) -> (a, x)
  Bob:   receive(delivery, delivered, u) -> b;
         verify(a, x, u) -> one Decision per round, restarts included

Every hook runs once per step, in attempt, in the order prepare, receive,
reveal, verify, on every round of the step (delivered says which deliveries
arrived). The engine discards b, a and x on the rounds verify restarts, so
there a hook may see any value (b need not be a bit) but must not raise. A
hook may keep per-round arrays from one call to the next within a step, but
no state across rounds: rounds are independent draws, which is what lets a
step run a trial's next rounds all at once. Receivers measure through
measure_delivery, in a stack of at most two bases with a basis index per
round, and get one outcome index per round, -1 where nothing arrived. An
unentangled emission's table holds at most 2 * dim states, so each round is
drawn from the Born table of that table in that stack (quantum.born_table,
built once and shared): one gather by basis and column and one comparison
with the uniform, the same outcome measure_projective gives. A pulse is
measured on its first photon, from the same table; an EPR half is steered
instead, from weights built once per stack, and its far half becomes a
column of the stack's far table, so the sender measures it from a Born table
too.

A block row is an attempt, and the channel has two rules for it. Every Bob
declares restarts_on_loss: true when every round that does not arrive ends
in REQUEST_RESTART. For such a Bob a run of losses carries nothing but its
length, so when the signal can arrive (not vacuum) and eta < 1 the engine
draws the length K with channel.lost_rounds, runs the hooks once, on a
delivered round, and charges the trial K + 1 rounds. Otherwise an attempt
is one round and channel.transmit draws whether it arrives.

When Bob restarts no delivered round, every trial ends at its first
attempt at eta = 1, and under lost_rounds too unless its K + 1 rounds pass
the cap. Step 0, which runs one attempt of every trial in trial order, then
has nothing to gather or scatter: without a sink the engine writes the
step's decisions, coins and restarts (K under lost_rounds, 0 otherwise) as
whole columns and stops. Every other step, and a step 0 in which a trial
restarts or passes the cap, takes the one general path, whatever its number
of attempts per trial.

For transcripts every Bob declares basis_tags (the name of each of his bases,
() if he never measures) and exposes last_basis (an index into basis_tags, -1
for none) and last_outcome (the index of his measurement outcome, -1 for
none), per round or as one value for all; both are read once verify has run.
Each step logs the attempts its trials keep as arrays, and the call's
transcripts are built from that log in one pass at its end; an attempt after K
lost rounds expands to K lost rows before its own, each not delivered, with no
basis or outcome and a restart requested. Alice sends one kind of emission all
experiment, so her last step's tag is every round's. The engine records no
basis for a round where nothing arrived. A round is its record: a read-only
dict (types.MappingProxyType) of ROUND_FIELDS in order, built once per call
for each distinct round and shared by every transcript that holds it;
Transcript.to_dict returns fresh plain copies, and a transcript's verdict is
its record's string. Emission and Transcript are plain classes with
hand-written methods, so that importing this module generates no code. In an
honest basis outcome index i is the state |a, i>, so it is compared with the
revealed x directly (see catalog.basis_pair). What differs between protocols
is one row of the PROTOCOLS table: the state family, the variants Bob may play
(its default first) and the coin rule.
"""
from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .catalog import Family, StateFamily
from .channel import lost_rounds, transmit
from .errors import IncompatibleProtocol
from .quantum import measure_table, steer_epr
from .rng import PREPARE, RECEIVE, REVEAL, SLOTS, TRANSMIT, VERIFY, rows

DEPTH = 64  # the most rounds per trial in one step


class ProtocolId(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity
    BB84_CF = "bb84"
    AMBAINIS_CF = "ambainis"
    AMBAINIS_CF_VARIANT = "ambainis_variant"
    LOSS_TOLERANT_CF = "loss_tolerant"
    MCQM_CONTRIVED_CF = "mcqm_contrived"


class LossPolicy(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity
    BELIEVE_ON_FAITH = "believe_on_faith"
    RESTART_ON_LOSS = "restart_on_loss"


class VariantFlags(NamedTuple):
    loss_policy: LossPolicy = LossPolicy.RESTART_ON_LOSS
    bob_measures_on_reception: bool = True


# The three variants a Bob can play: measure on reception and restart on loss,
# or store the delivery, measure it after the reveal, and either restart on a
# loss or believe it on faith. One who measures on reception knows a loss at
# once, so he cannot believe it on faith.
MEASURE = VariantFlags(LossPolicy.RESTART_ON_LOSS, True)
STORE = VariantFlags(LossPolicy.RESTART_ON_LOSS, False)
ON_FAITH = VariantFlags(LossPolicy.BELIEVE_ON_FAITH, False)
VARIANT_NAMES = {  # the --variant names; None -> the protocol default
    "default": None,
    "believe_on_faith": ON_FAITH,
    "restart_on_loss": STORE,
    "restart_measure": MEASURE,
}


def variant_name(variant: Optional[VariantFlags]) -> str:
    """The --variant name of variant in VARIANT_NAMES, or its repr if it
    has none."""
    return next((name for name, v in VARIANT_NAMES.items() if v == variant),
                str(variant))


class ProtocolSpec(NamedTuple):
    """What one protocol fixes: its state family, the variants it allows Bob
    (its default first), and whether the coin is x xor b (loss-tolerant
    template) or a xor b (BB84/Ambainis templates)."""

    family: Family
    variants: tuple[VariantFlags, ...]
    coin_from_x: bool = False


PROTOCOLS = {
    ProtocolId.BB84_CF: ProtocolSpec(Family.BB84, (MEASURE,)),
    ProtocolId.AMBAINIS_CF: ProtocolSpec(Family.AMBAINIS, (STORE, ON_FAITH)),
    ProtocolId.AMBAINIS_CF_VARIANT: ProtocolSpec(Family.AMBAINIS,
                                                 (STORE, ON_FAITH, MEASURE)),
    ProtocolId.LOSS_TOLERANT_CF: ProtocolSpec(Family.LOSS_TOLERANT, (MEASURE,),
                                              coin_from_x=True),
    ProtocolId.MCQM_CONTRIVED_CF: ProtocolSpec(Family.MCQM_EXAMPLE, (MEASURE,)),
}


def default_flags(protocol: ProtocolId) -> VariantFlags:
    return PROTOCOLS[protocol].variants[0]


def check_flags(protocol: ProtocolId, flags: VariantFlags) -> None:
    if flags not in PROTOCOLS[protocol].variants:
        raise IncompatibleProtocol(
            f"{protocol.value} does not allow variant {variant_name(flags)}")


def family_for(protocol: ProtocolId, alpha2: Optional[float] = None) -> StateFamily:
    """The protocol's state family; alpha2 is read only by the loss-tolerant
    family."""
    family = PROTOCOLS[protocol].family
    return StateFamily(family, alpha2 if family is Family.LOSS_TOLERANT else None)


class Decision:
    """How a round ends, as verify returns it per round (int codes, for
    arrays); the first two end the trial."""

    ACCEPTED, ABORT_CHEATER, REQUEST_RESTART, CLAIM_LOSS_FALSELY = range(4)


VERDICTS = ("accepted", "abort_cheater")  # by Decision code


# ---------------------------------------------------------------------------
# emissions: one per round of a batch

class Emission:
    """What crosses the channel in one step: round j sends column index[j]
    of the fixed state table states (dim, m), lost rounds too, carried by
    photon_count identical photons (0: vacuum, states None; more than one: a
    pulse, whose extra copies are the side channel). The channel and the
    receivers read only photon_count and entangled; tag names the emission
    in transcripts. An entangled emission is half of a singlet per round,
    whose other half Alice keeps: Bob's measurement steers it, making states
    the far table of his stack of bases and index[j] round j's collapsed
    column (quantum.steer_epr), lost rounds included; until then, and when
    nothing arrives, they are the sender's (|0>, unsteered). Its fields can
    be rebound, as measure_delivery rebinds an entangled one's states and
    index."""

    def __init__(self, states: Optional[np.ndarray], index: np.ndarray | int,
                 photon_count: int, entangled: bool = False):
        self.states, self.index = states, index
        self.photon_count, self.entangled = photon_count, entangled

    @property
    def tag(self) -> str:
        if self.entangled:
            return "epr_half"
        return {0: "vacuum", 1: "state"}.get(self.photon_count,
                                             f"pulse:{self.photon_count}")


def measure_delivery(delivery: Emission, delivered: np.ndarray, bras: np.ndarray,
                     u: np.ndarray, which: int | np.ndarray) -> np.ndarray:
    """Measure what reached Bob and return one outcome index per round of the
    batch, -1 where nothing arrived; u holds one uniform per round, and round
    j is measured in basis bras[which[j]] of the stack bras (k, dim, dim), or
    bras[which] for an int which, checked as in measure_projective.

    A pulse is measured on its first photon only (remaining photons are the
    side channel, exploited explicitly by the pulse-aware strategies). An
    entangled delivery, an EPR half, is not measured from its table but
    steers Alice's half of the same round: the delivery's states and index
    become the far table and far columns steer_epr gives. Unless
    nothing arrived (as from vacuum), the whole batch is measured, lost
    rounds too, and the lost rounds' outcomes are masked to -1; a lost round
    tells no one anything, so what its measurement drew is never read.
    """
    every = np.logical_and.reduce(delivered)  # ufuncs: no method wrapper
    if not (every or np.logical_or.reduce(delivered)):  # nothing arrives from vacuum
        return np.full(len(delivered), -1)
    if delivery.entangled:
        outcome, delivery.states, delivery.index = steer_epr(bras, u, which)
    else:
        outcome = measure_table(delivery.states, delivery.index, bras, u, which)
    return outcome if every else np.where(delivered, outcome, -1)


# ---------------------------------------------------------------------------
# transcripts

ROUND_FIELDS = ("sent", "delivered", "bob_basis", "bob_outcome",
                "restart_requested", "false_claim")


class Transcript:
    """One trial's rounds, in order, and how it ended: each round a read-only
    dict of ROUND_FIELDS, shared with the other transcripts of its engine
    call, and the verdict a string of VERDICTS. Slotted, not a NamedTuple,
    which builds and writes it slower per trial; transcripts with equal
    fields are equal."""

    __slots__ = _fields = ("rounds", "b", "revealed", "verdict", "outcome",
                           "restart_count")

    def __init__(self, rounds: list[MappingProxyType], b: int, revealed: tuple[int, int],
                 verdict: str, outcome: Optional[int], restart_count: int):
        self.rounds, self.b, self.revealed = rounds, b, revealed
        self.verdict, self.outcome, self.restart_count = verdict, outcome, restart_count

    def __eq__(self, other):
        if type(other) is not Transcript:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"Transcript({shown})"

    def to_dict(self) -> dict:
        return {
            "rounds": [r.copy() for r in self.rounds],
            "b": self.b,
            "revealed": {"a": self.revealed[0], "x": self.revealed[1]},
            "verdict": self.verdict,
            "outcome": self.outcome,
            "restart_count": self.restart_count,
        }


# ---------------------------------------------------------------------------
# engine

def attempt(cfg, alice, bob, u: np.ndarray) -> tuple:
    """Play the round once per column of u (SLOTS, n), cfg's block columns:
    prepare, the channel, receive, reveal, verify and cfg's coin rule (a
    coin counts only where the decision ends the trial). For a Bob who
    restarts on loss at eta < 1, an emission that can arrive arrives after
    lost_rounds(eta, ., max_restarts + 1) lost rounds; otherwise transmit
    draws it and lost is None. Returns
    (emission, delivered, lost, b, a, x, decision, coin)."""
    emission = alice.prepare(u[PREPARE])
    # vacuum never arrives
    if bob.restarts_on_loss and cfg.eta < 1.0 and emission.photon_count:
        lost = lost_rounds(cfg.eta, u[TRANSMIT], cfg.max_restarts + 1)
        delivered = np.ones(lost.size, dtype=bool)
    else:
        lost = None
        delivered = transmit(emission, cfg.eta, u[TRANSMIT])
    b = bob.receive(emission, delivered, u[RECEIVE])
    a, x = alice.reveal(b, u[REVEAL])
    decision = bob.verify(a, x, u[VERIFY])
    coin = (x if PROTOCOLS[cfg.protocol].coin_from_x else a) ^ b
    return emission, delivered, lost, b, a, x, decision, coin


def run_chunk(cfg, alice, bob, chunk: int, trials: int,
              sink=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run `trials` independent protocol runs of the experiment cfg (its
    coin rule, eta, max_restarts and seed) on the uniforms of the chunks
    from `chunk` on: one chunk, or several consecutive ones run as one batch.

    Step s runs the next min(2**s, DEPTH) attempts of every trial still
    pending (never more than max_restarts + 1 attempts in all) on the rows
    rng.rows(seed, chunk, s, pending, depth): each chunk's own block for its
    pending trials, so the counts do not depend on how many chunks one call
    runs. Each step calls attempt once, on the rows of all of them, and
    calls no hook or channel function itself. An attempt costs one round,
    or K + 1 under channel.lost_rounds (see above), and each trial keeps its
    first attempt that does not end in a restart if its rounds up to it
    number at most max_restarts + 1. Every
    step, of one attempt per trial or more, finds each trial's first ending
    attempt the same way; under lost_rounds step 0 charges each attempt K + 1
    rounds with no running sum. When step 0 ends every trial and there is no
    sink, its columns are the results, written whole (restarts: K under
    lost_rounds, else 0).
    Returns, per trial, the Decision of that attempt (REQUEST_RESTART for a
    trial over the limit), the coin it produced and the restarts before it
    (0 for a trial over the limit).
    With a sink, each step logs its trials' attempts up to the kept one as
    arrays; at the end the log is sorted by trial, the trials over the limit
    are dropped, each attempt expands to its lost rows and its own, equal
    rows share one read-only round dict, and each other trial's Transcript
    goes to the sink, in trial order.
    """
    cap = cfg.max_restarts + 1  # the most rounds a trial may run
    verdict = np.full(trials, Decision.REQUEST_RESTART, dtype=np.int8)
    coin = np.zeros(trials, dtype=np.int8)
    restarts = np.zeros(trials, dtype=np.int64)
    if sink is not None:  # per trial its kept b, a and x; per step the attempts kept
        final, log = np.zeros((3, trials), dtype=np.int8), []
    pending = np.arange(trials)
    attempts = 0  # attempts each pending trial has run, all restarts
    rounds = 0  # under lost_rounds, a column of each pending trial's rounds
    step = 0
    while pending.size and attempts < cap:
        depth = min(1 << step, DEPTH, cap - attempts)
        # u[c] is column c of the block: one uniform per (trial, attempt)
        u = rows(cfg.seed, chunk, step, pending, depth).reshape(-1, SLOTS).T
        emission, delivered, lost, b, a, x, decision, coins = attempt(cfg, alice, bob, u)
        ends = (decision <= Decision.ABORT_CHEATER).reshape(-1, depth)
        if lost is not None:  # rounds run up to each attempt; past cap, none ends
            spent = (lost + 1).reshape(-1, depth)
            if step:
                spent = rounds + spent.cumsum(1)
            over = spent > cap
            ends &= ~over
        if not step and sink is None and np.logical_and.reduce(ends, None):
            # whole columns, in trial order
            verdict[:] = decision
            coin[:] = coins
            if lost is not None:
                restarts[:] = lost
            break
        done = np.logical_or.reduce(ends, 1)
        at = ends.argmax(1)[done]  # each finished trial's first ending attempt
        last = done.nonzero()[0] * depth + at
        finished = pending[done]
        verdict[finished] = decision[last]
        coin[finished] = coins[last]
        if sink is not None:  # each trial's attempts up to the one it keeps
            final[:, finished] = b[last], a[last], x[last]
            stop = np.full(done.size, depth)
            stop[done] = at + 1
            kept = (np.arange(depth) < stop[:, None]).ravel()
            basis = np.where(delivered, bob.last_basis, -1)
            outcome = np.broadcast_to(bob.last_outcome, delivered.shape)
            ids = np.repeat(pending, stop)
            log.append((ids, delivered[kept], basis[kept], outcome[kept],
                        decision[kept],
                        np.zeros_like(ids) if lost is None else lost[kept]))
        if lost is None:
            restarts[finished] = attempts + at
            pending = pending[~done]
        else:  # a trial past cap is a limit hit and leaves
            restarts[finished] = spent[done, at] - 1
            keep = ~done & ~over[:, -1]
            pending, rounds = pending[keep], spent[keep, -1:]
        attempts += depth
        step += 1
    if sink is not None:  # every kept attempt, in trial order, then a slice per trial
        trial, arrived, basis, outcome, decided, lost = map(np.concatenate, zip(*log))
        order = np.argsort(trial, kind="stable")
        order = order[verdict[trial[order]] != Decision.REQUEST_RESTART]
        # each attempt as one code of its columns: delivered, basis + 1 and
        # outcome + 1 (0: none), and 0 for a round that ends, 1 for a restart,
        # 2 for a false claim of loss
        tags = (*bob.basis_tags, None)  # tags[-1]: no basis
        columns = (arrived[order], basis[order] + 1, outcome[order] + 1,
                   (decided[order] - 1).clip(0))
        code = np.ravel_multi_index(columns, [int(c.max(initial=0)) + 1 for c in columns])
        # one shared round per distinct code, then one lost round
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        sent = emission.tag
        values = [(sent, d, tags[b - 1], o - 1 if o else None, f > 0, f > 1)
                  for d, b, o, f in zip(*(c[first].tolist() for c in columns))]
        values.append((sent, False, None, None, True, False))
        table = [MappingProxyType(dict(zip(ROUND_FIELDS, v))) for v in values]
        # K lost rounds before an attempt: the lost round K times, then its own
        copies = lost[order] + 1
        index = np.full(int(copies.sum()), len(table) - 1)
        index[np.cumsum(copies) - 1] = inverse
        made = np.array(table, dtype=object)[index].tolist()
        ok = verdict != Decision.REQUEST_RESTART
        for end, v, c, r, b, a, x in zip(np.cumsum(restarts[ok] + 1).tolist(),
                                         verdict[ok].tolist(), coin[ok].tolist(),
                                         restarts[ok].tolist(), *final[:, ok].tolist()):
            sink(Transcript(made[end - r - 1:end], b, (a, x), VERDICTS[v],
                            c if v == Decision.ACCEPTED else None, r))
    return verdict, coin, restarts
