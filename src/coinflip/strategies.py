"""The player registry: every named player, honest or cheating.

REGISTRY[side][name] is the one place a player is built. Each side has an
honest entry that applies to every protocol; the other entries are attacks
built around a target bit c, the coin value the cheater wants to force.
Alice-side hooks implement prepare/reveal, Bob-side hooks the
receive/choose_b/verify trio, all on batches of rounds as the protocols
module describes. Every Alice but the EPR one is a TableAlice, whose
tables a function of (family, target) fills. Every Bob declares
restarts_on_loss, whether each round that does not arrive ends in
REQUEST_RESTART, which picks the channel's loss rule for him. Reveal tables
were verified by direct overlap computation (see tests) rather than taken on
trust. Strategies never see the honest party's private randomness;
everything they learn flows through the hook arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import catalog
from .catalog import StateFamily
from .errors import IncompatibleProtocol
from .protocols import (MEASURE, STORE, Decision, EprHalf, HonestBob,
                        ProtocolId, SingleState, Vacuum, VariantFlags,
                        measure_delivery)
from .quantum import measure_projective
from .rng import bernoulli, bit, cumulative, inverse_cdf


class Side(Enum):
    ALICE = "alice"
    BOB = "bob"


# ---------------------------------------------------------------------------
# Alice-side strategies

class TableAlice:
    """An Alice who is her tables. states (dim, m) holds the states she
    sends, or is None for vacuum. Each PREPARE column c she reads draws a
    digit from weights[c] by inverse_cdf (the digit of (1/2, 1/2) is
    1 - bit(u); weights ((1.0,),) is one fixed state), and the digits, read
    as one mixed-radix number, column 0 the most significant, index the state
    she sends. She reveals (a, x) = table[index, b & 1, r], with r =
    bit(u[REVEAL]) drawn only if her table reads it (b need not be a bit on
    rounds the engine discards). Her arrays are made read-only, to share."""

    index = 0  # vacuum's one index

    def __init__(self, states, weights, table, photon_count: int = 1):
        self.states, self.weights, self.photon_count = states, weights, photon_count
        self.draws = tuple(cumulative(w) for w in weights)
        self.table = np.asarray(table)
        self.fresh = bool((self.table[:, :, 0] != self.table[:, :, 1]).any())
        # a and x flat at 2 * index + b, then 2 * that + r if she reads r
        self.a, self.x = self.table[:, :, :1 + self.fresh].reshape(-1, 2).T.copy()
        for array in (states, *sum(self.draws, ()), self.table, self.a, self.x):
            if array is not None:
                array.flags.writeable = False

    def prepare(self, u) -> SingleState | Vacuum:
        if self.states is None:
            return Vacuum()
        index = 0
        for column, (cdf, total) in zip(u, self.draws):
            index = index * (len(cdf) + 1) + inverse_cdf(cdf, total, column)
        self.index = index
        return SingleState(self.states, index, self.photon_count)

    def reveal(self, b, u):
        i = 2 * self.index + (b & 1)
        i = 2 * i + bit(u) if self.fresh else i
        return self.a[i], self.x[i]


@lru_cache(maxsize=catalog.FAMILIES)
def _built(tables, family: StateFamily, target: int) -> TableAlice:
    return TableAlice(*tables(family, target))


def _table_alice(tables):
    """The registry builder (cfg, family) -> TableAlice of tables(family,
    target), sending cfg.photon_count photons per state. Her arrays are built
    once per (tables, family, target), as many as basis_pair keeps families,
    and each experiment gets its own copy for its per-step state."""
    def build(cfg, family: StateFamily) -> TableAlice:
        alice = object.__new__(TableAlice)  # a copy, at a third of copy.copy's cost
        alice.__dict__.update(vars(_built(tables, family, cfg.target)),
                              photon_count=cfg.photon_count)
        return alice
    return build


def _reveals(m: int, reveal) -> np.ndarray:
    """The table (m, 2, 2, 2) of reveal(index, b, r) -> (a, x) on np.ogrid."""
    return np.stack([np.broadcast_to(v, (m, 2, 2))
                     for v in reveal(*np.ogrid[:m, :2, :2])], -1)


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
    """A named player: the protocols it applies to, its builder, the fewest
    photons per emission it needs, whether (for an Alice) it sends
    cfg.photon_count photons per emission rather than one, and the variants
    it plays (None: every variant the protocol allows). A Bob's hooks
    declare restarts_on_loss (see protocols).

    build(cfg, family), called only by harness.build_hooks, may be any
    callable that returns the hooks (a hooks class, or _table_alice's
    builder); each reads from the ExperimentConfig cfg only what it needs:
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
        HONEST: Strategy(_ALL, _table_alice(_honest), pulses=True),
        "bb84_postpone_lie": Strategy(_BB84, _table_alice(_postpone_lie)),
        "bb84_rotated": Strategy(_BB84, _table_alice(_rotated)),
        "bb84_epr": Strategy(_BB84, EprSteeringAlice),
        "ambainis_optimal": Strategy(_AMBAINIS, _table_alice(_ambainis)),
        "lt_optimal": Strategy(_LT, _table_alice(_lt_optimal)),
        "send_nothing": Strategy(_AMBAINIS, _table_alice(_send_nothing)),
        "cunning_mother": Strategy(_LT, _table_alice(_cunning_mother)),
        # honest choices, leaking cfg.photon_count photons per pulse
        "honest_pulse": Strategy(_LT, _table_alice(_honest), pulses=True),
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
