"""The player registry: every named player, honest or cheating.

REGISTRY[side][name] is the one place a player is built. Each side has an
honest entry that applies to every protocol; the other entries are attacks
built around a target bit c, the coin value the cheater wants to force.
Alice-side hooks implement prepare/reveal, Bob-side hooks receive, which
returns b, and verify, which decides every round, all on batches of rounds
as the protocols module describes; the protocols module holds no player.
Every Alice but the EPR one is a TableAlice, and every Bob who only measures
to guess a bit (the optimal loss-tolerant Bob, the qutrit conclusive
receivers and both two-photon receivers) is a GuessingBob: a function of
(family, target) fills the tables of each, and one cache keeps them for both
sides (see _from_tables). Every Bob declares restarts_on_loss, whether each
round that does not arrive ends in REQUEST_RESTART, which picks the
channel's loss rule for him, and basis_tags, the names of his bases in
transcripts. Reveal tables were verified by direct overlap computation (see
tests) rather than taken on trust. Strategies never see the honest party's
private randomness; everything they learn flows through the hook arguments.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import catalog
from .catalog import StateFamily
from .errors import IncompatibleProtocol
from .protocols import (MEASURE, STORE, Decision, Emission, LossPolicy,
                        ProtocolId, VariantFlags, measure_delivery)
from .quantum import measure_table
from .rng import bernoulli, bit, cumulative, steps


class Side(Enum):
    __hash__ = object.__hash__  # members are singletons: hash by identity
    ALICE = "alice"
    BOB = "bob"


# ---------------------------------------------------------------------------
# Alice-side strategies

class TableAlice:
    """An Alice who is her tables. states (dim, m) holds the states she
    sends, or is None for vacuum. Each PREPARE column c she reads draws a
    digit from weights[c] (weights ((1.0,),) is one fixed state), and the
    digits, read as one mixed-radix number, column 0 the most significant,
    index the state she sends. Each cdf step of each column's checked
    cumulative form (rng.cumulative) is one entry of four arrays: its
    threshold thr, its column's total tot, its column col and the radix
    weight of that column's digit, so she draws every digit at once as
    radix @ steps(thr, tot, u[col]), the comparisons inverse_cdf makes. She
    reveals (a, x) = table[index, b & 1, r], with r = bit(u[REVEAL]) drawn
    only if her table reads it (b need not be a bit on rounds the engine
    discards). Her arrays are read-only, to share, and states is her own
    copy, so that its Born tables are bound to it (quantum.born_table)."""

    index = 0  # vacuum's one index
    photon_count = 1  # per state; _from_tables sets her experiment's

    def __init__(self, states, weights, table):
        self.weights = weights
        self.states = None if states is None else np.array(states)
        draws = [cumulative(w) for w in weights]
        size = [len(cdf) + 1 for cdf, _ in draws]  # each digit's radix
        entries = np.array([(t, total[0], c, math.prod(size[c + 1:]))
                            for c, (cdf, total) in enumerate(draws)
                            for t in cdf[:, 0]]).reshape(-1, 4).T
        self.thr, self.tot = entries[:2, :, None]
        self.col, self.radix = entries[2:].astype(np.intp)
        self.table = np.asarray(table)
        self.fresh = bool((self.table[:, :, 0] != self.table[:, :, 1]).any())
        # a and x flat at 2 * index + b, then 2 * that + r if she reads r
        self.a, self.x = self.table[:, :, :1 + self.fresh].reshape(-1, 2).T.copy()
        for array in (self.states, self.thr, self.tot, self.col, self.radix,
                      self.table, self.a, self.x):
            if array is not None:
                array.flags.writeable = False

    def prepare(self, u) -> Emission:
        if self.states is None:
            return Emission(None, 0, 0)
        self.index = self.radix @ steps(self.thr, self.tot, u[self.col])
        return Emission(self.states, self.index, self.photon_count)

    def reveal(self, b, u):
        i = 2 * self.index + (b & 1)
        i = 2 * i + bit(u) if self.fresh else i
        return self.a[i], self.x[i]


@lru_cache(maxsize=catalog.FAMILIES)
def _built(cls, tables, family: StateFamily, target: int):
    return cls(*tables(family, target))


def _from_tables(cls, tables):
    """The registry builder (cfg, family) -> cls(*tables(family, target)),
    for a TableAlice or a GuessingBob. Its arrays are built once per
    (cls, tables, family, target), in one cache as large as basis_pair's,
    and each experiment gets its own copy for its per-step state; an Alice's
    copy sends cfg.photon_count photons per state."""
    def build(cfg, family: StateFamily):
        hooks = object.__new__(cls)  # a copy, at a third of copy.copy's cost
        hooks.__dict__.update(vars(_built(cls, tables, family, cfg.target)))
        if cls is TableAlice:
            hooks.photon_count = cfg.photon_count
        return hooks
    return build


def _reveals(m: int, reveal) -> np.ndarray:
    """The table (m, 2, 2, 2) of reveal(index, b, r) -> (a, x), called once
    on flat arrays of index, b and r, one entry per (index, b, r) row."""
    table = np.empty((m, 2, 2, 2), dtype=np.intp)
    k = np.arange(4 * m)
    rows = table.reshape(-1, 2)  # a view: filling it fills the table
    rows[:, 0], rows[:, 1] = reveal(k >> 2, k >> 1 & 1, k & 1)
    return table


_HALVES = (0.5, 0.5)


def _honest(family: StateFamily, target: int) -> tuple:
    """A uniform a and a family-weighted x: |a, x> sent, (a, x) revealed.
    The a digit is d = 1 - a, so column d * n + x of n x values is |a, x>."""
    n = len(family.x_weights)
    states = catalog.basis_pair(family)[::-1, :n].reshape(2 * n, -1).T
    return (states, (_HALVES, family.x_weights),
            _reveals(2 * n, lambda i, b, r: (1 - i // n, i % n)))


def _postpone_lie(family: StateFamily, target: int) -> tuple:
    """Honest send; if unhappy with a xor b, lies about a with a fresh x."""
    def reveal(i, b, r):
        a, happy = 1 - i // 2, (1 - i // 2) ^ b == target
        return np.where(happy, a, 1 ^ a), np.where(happy, i % 2, r)
    return *_honest(family, target)[:2], _reveals(4, reveal)


def _rotated(family: StateFamily, target: int) -> tuple:
    """Sends (cos k*pi/8, sin k*pi/8) for odd k, uniformly, then declares the
    basis that suits her with the nearest bit in that basis."""
    angles = [k * math.pi / 8.0 for k in (1, 3, 5, 7)]
    states = np.array([[f(t) for t in angles] for f in (math.cos, math.sin)])
    # nearest[a, i]: the bit x whose |a, x> overlaps column i the most, 0 on a tie
    overlap = (catalog.basis_pair(family) @ states) ** 2  # [a, x, i]
    nearest = (overlap[:, 1] > overlap[:, 0]).astype(int)
    return (states, ((0.25,) * 4,),
            _reveals(4, lambda i, b, r: (target ^ b, nearest[target ^ b, i])))


def _ambainis(family: StateFamily, target: int) -> tuple:
    """Sends (2|0> + s1|1> + s2|2>)/sqrt(6) with random signs, column
    2 * (s1 < 0) + (s2 < 0); the declared x is the sign-matched bit for
    whichever basis she claims."""
    states = np.array([(2, 2, 2, 2), (1, 1, -1, -1), (1, -1, 1, -1)]) / math.sqrt(6.0)
    return (states, (_HALVES, _HALVES),
            _reveals(4, lambda i, b, r: (target ^ b, i >> (1 ^ target ^ b) & 1)))


def _lt_optimal(family: StateFamily, target: int) -> tuple:
    """Sends |-> or |+> and declares the phi_{x,x} (or phi_{1-x,x}) state
    with the largest overlap once x = c xor b is forced."""
    states = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)  # columns |->, |+>
    return (states, (_HALVES,),
            _reveals(2, lambda i, b, r: (target ^ b ^ 1 ^ i, target ^ b)))


def _send_nothing(family: StateFamily, target: int) -> tuple:
    """Emits vacuum and 'reveals' whatever produces the desired outcome."""
    return None, (), _reveals(1, lambda i, b, r: (target ^ b, r))


def _cunning_mother(family: StateFamily, target: int) -> tuple:
    """Honest send; if b != x she knows Bob measured the wrong basis and
    relabels x to b so that her son wins x xor b = 0."""
    return *_honest(family, target)[:2], _reveals(4, lambda i, b, r: (1 - i // 2, b))


_UNSTEERED = np.array([[1.0], [0.0]])  # |0>, the one column of an unsteered half
_UNSTEERED.flags.writeable = False


class EprSteeringAlice:
    """Keeps half a singlet and steers it into the basis a = c xor b after
    learning b; the reveal is then guaranteed to match Bob's outcome. Her
    halves are the entangled Emission she sends (unsteered: column 0 of the
    |0> table), steered by Bob's measurement onto columns of his stack's far
    table, so she measures them by measure_table, from a Born table bound
    once."""

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        self.bras = catalog.basis_pair(family)

    def prepare(self, u) -> Emission:
        # |0> until Bob's measurement steers it (every half, lost ones too,
        # unless nothing arrived), so reveal can measure every round
        self.link = Emission(_UNSTEERED, np.zeros(u.shape[1], np.intp), 1,
                             entangled=True)
        return self.link

    def reveal(self, b, u):
        a = self.target ^ b
        x_mine = measure_table(self.link.states, self.link.index, self.bras, u, a)
        # singlet anticorrelation: Bob's same-basis outcome is 1 xor x_mine
        return a, 1 ^ x_mine


# ---------------------------------------------------------------------------
# Bob-side strategies

class HonestBob:
    """Measures per the variant flags cfg.flags, sends a fresh random b,
    verifies whenever the declared basis lets him. He restarts on every lost
    round (restarts_on_loss) unless he believes losses on faith: a lost
    round ends in self.lost."""

    basis_tags = ("0", "1")

    def __init__(self, cfg, family: StateFamily):
        self.flags = cfg.flags
        self.bras = catalog.basis_pair(family)
        self.restarts_on_loss = self.flags.loss_policy is LossPolicy.RESTART_ON_LOSS
        self.lost = (Decision.REQUEST_RESTART if self.restarts_on_loss
                     else Decision.ACCEPTED)

    def receive(self, delivery: Emission, delivered: np.ndarray,
                u: np.ndarray) -> np.ndarray:
        self.stored, self.delivered = delivery, delivered
        if self.flags.bob_measures_on_reception:
            self.a_hat = self.last_basis = bit(u[0])
            self.x_hat = self.last_outcome = measure_delivery(
                delivery, delivered, self.bras, u[1], self.a_hat)
        return bit(u[-1])

    def verify(self, a: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        if self.flags.bob_measures_on_reception:
            caught = (a == self.a_hat) & (self.x_hat != x)
        else:
            self.last_basis = a
            self.last_outcome = measure_delivery(self.stored, self.delivered,
                                                 self.bras, u, a)
            caught = self.last_outcome != x
        # ABORT_CHEATER is 1, ACCEPTED 0
        return np.where(self.delivered, caught.view(np.int8), self.lost)


class CunningSonBob(HonestBob):
    """Honest measurement, but sends b = x_hat instead of a random bit."""

    def receive(self, delivery, delivered, u):
        super().receive(delivery, delivered, u)
        return self.x_hat


class RestartAbuseBob:
    """Never measures; claims loss whenever the revealed a xor b is wrong,
    plus camouflage claims at rate 1 - 2*eta so Alice sees a plausible
    detection rate. A lost round can end in a false claim or be accepted, so
    he does not restart on every loss."""

    basis_tags = ()
    last_basis = last_outcome = -1
    restarts_on_loss = False

    def __init__(self, cfg, family: StateFamily):
        self.target = cfg.target
        self.camouflage = max(0.0, 1.0 - 2.0 * cfg.eta)

    def receive(self, delivery, delivered, u):
        self.b = bit(u[-1])  # stores, never measures
        return self.b

    def verify(self, a, x, u):
        claim = ((a ^ self.b) != self.target) | bernoulli(self.camouflage, u)
        return np.where(claim, Decision.CLAIM_LOSS_FALSELY, Decision.ACCEPTED)


class GuessingBob:
    """A Bob who is his tables: he measures what arrives to guess a bit,
    forces the coin with b = target xor guess and accepts any reveal. Photon
    p is measured in basis bases[p] of his stack bras, or, for None, in one
    drawn by bit; drawn bases read his first RECEIVE columns, outcomes the
    next. The drawn bases and each outcome + 1 (0: nothing arrived), as one
    flat index, index a guess table (the bit he guesses, or -1 to restart,
    as every lost round does), from which he builds two more once: b, the
    target xor the guess, and his decision, REQUEST_RESTART where the guess
    is -1 and ACCEPTED elsewhere. The same index reads outcome, what his
    transcript records. His arrays are read-only, to share, and bras is his
    own copy, so that its Born tables are bound to it (quantum.born_table)."""

    restarts_on_loss = True
    last_basis = 0  # his one basis tag

    def __init__(self, target: int, tag: str, bras, bases: tuple, guess, outcome):
        self.basis_tags, self.bras = (tag,), np.array(bras)
        self.bases, self.draws = bases, bases.count(None)
        guess = np.asarray(guess)
        self.b, self.outcome = target ^ guess, np.asarray(outcome)
        self.decisions = np.where(guess < 0, Decision.REQUEST_RESTART,
                                  Decision.ACCEPTED)
        for array in (self.bras, self.b, self.outcome, self.decisions):
            array.flags.writeable = False

    def receive(self, delivery, delivered, u):
        key = [bit(column) for column in u[:self.draws]]
        drawn = 0  # the drawn bases read so far
        for column, basis in zip(u[self.draws:], self.bases):
            if basis is None:
                basis, drawn = key[drawn], drawn + 1
            key.append(1 + measure_delivery(delivery, delivered, self.bras,
                                            column, basis))
        # one flat index: ravel_multi_index raises on an index out of range,
        # where an index tuple would wrap a negative one; one index is flat
        flat = key[0] if len(key) == 1 else np.ravel_multi_index(key, self.b.shape)
        self.last_outcome = self.outcome.take(flat)
        self.decision = self.decisions.take(flat)
        return self.b.take(flat)

    def verify(self, a, x, u):
        return self.decision  # any reveal is accepted


def _helstrom(family: StateFamily, target: int) -> tuple:
    """Computational-basis measurement, guessing the outcome: the optimal x
    guess on the loss-tolerant states; gives up the ability to verify."""
    outcome = np.arange(-1, family.dim)  # at outcome + 1: -1 for nothing
    return target, "computational", np.eye(family.dim)[None], (0,), outcome, outcome


def _conclusive(family: StateFamily, target: int) -> tuple:
    """Qutrit computational-basis measurement: restart on the shared-support
    outcome |0>, otherwise guess a = outcome - 1 and force a xor b = c. On the
    Ambainis states |1> and |2> reveal a with certainty; on the contrived
    protocol the guess is a high-confidence one."""
    target, tag, bras, bases, outcome, _ = _helstrom(family, target)
    return target, tag, bras, bases, np.maximum(outcome - 1, -1), outcome


def _usd(family: StateFamily, target: int) -> tuple:
    """Measures the first photon of a pulse in basis 0 and the second in
    basis 1; agreement reveals x with certainty, disagreement triggers a
    feigned loss. He records the guess."""
    o0, o1 = np.ogrid[-1:family.dim, -1:family.dim]
    guess = np.where(o0 == o1, o0, -1)  # -1 too where nothing arrived
    return target, "both", catalog.basis_pair(family), (0, 1), guess, guess


def _apparatus(family: StateFamily, target: int) -> tuple:
    """Passive apparatus: each photon lands in a uniformly random basis;
    conclusive only when the bases happen to differ and the outcomes agree.
    He records the guess."""
    r0, r1, o0, o1 = np.ogrid[:2, :2, -1:family.dim, -1:family.dim]
    guess = np.where((r0 != r1) & (o0 == o1), o0, -1)
    return target, "random_pair", catalog.basis_pair(family), (None, None), guess, guess


# ---------------------------------------------------------------------------
# registry

class Strategy(NamedTuple):
    """A named player: the protocols it applies to, its builder, the fewest
    photons per emission it needs, whether (for an Alice) it sends
    cfg.photon_count photons per emission rather than one, and the variants
    it plays (None: every variant the protocol allows). A Bob's hooks
    declare restarts_on_loss and basis_tags (see protocols).

    build(cfg, family), called only by harness.build_hooks, may be any
    callable that returns the hooks (a hooks class, or the builder
    _from_tables makes for a TableAlice or a GuessingBob from a table
    function); each reads from the ExperimentConfig cfg only what it needs:
    target, eta (the restart-abuse camouflage rate), photon_count or flags.
    """

    protocols: tuple[ProtocolId, ...]
    build: Callable
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
        HONEST: Strategy(_ALL, _from_tables(TableAlice, _honest), pulses=True),
        "bb84_postpone_lie": Strategy(_BB84, _from_tables(TableAlice, _postpone_lie)),
        "bb84_rotated": Strategy(_BB84, _from_tables(TableAlice, _rotated)),
        "bb84_epr": Strategy(_BB84, EprSteeringAlice),
        "ambainis_optimal": Strategy(_AMBAINIS, _from_tables(TableAlice, _ambainis)),
        "lt_optimal": Strategy(_LT, _from_tables(TableAlice, _lt_optimal)),
        "send_nothing": Strategy(_AMBAINIS, _from_tables(TableAlice, _send_nothing)),
        "cunning_mother": Strategy(_LT, _from_tables(TableAlice, _cunning_mother)),
        # honest choices, leaking cfg.photon_count photons per pulse
        "honest_pulse": Strategy(_LT, _from_tables(TableAlice, _honest), pulses=True),
    },
    Side.BOB: {
        HONEST: Strategy(_ALL, HonestBob),
        # stores, then claims loss after the reveal: restarting on loss only
        "ambainis_restart_abuse": Strategy(_VARIANT, RestartAbuseBob,
                                           variants=(STORE,)),
        # measures on reception, so restarts on loss
        "ambainis_conclusive": Strategy(
            _VARIANT, _from_tables(GuessingBob, _conclusive), variants=(MEASURE,)),
        "lt_helstrom": Strategy(_LT, _from_tables(GuessingBob, _helstrom)),
        "mcqm_restart": Strategy((ProtocolId.MCQM_CONTRIVED_CF,),
                                 _from_tables(GuessingBob, _conclusive)),
        "cunning_son": Strategy(_LT, CunningSonBob),
        "twophoton_usd": Strategy(_LT, _from_tables(GuessingBob, _usd), min_photons=2),
        "twophoton_honest_apparatus": Strategy(
            _LT, _from_tables(GuessingBob, _apparatus), min_photons=2),
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
