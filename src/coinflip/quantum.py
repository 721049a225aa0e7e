"""Born-rule measurement of batches of states in dimensions 2-4.

States and bases are plain ndarrays, which no class wraps: each function
checks the states it is given for unit norm with an absolute tolerance of
1e-9 (ATOL). Dimensions never exceed 4, so everything is kept dense. The
closed-form side of the quantum layer (mixtures, trace distance, Helstrom,
density-matrix checks) is coinflip.discrimination, which no run path loads.

Measurements run on batches: a batch of n pure states is a (dim, n) array
whose column j holds the amplitudes of state j. Every measurement takes a
stack (k, dim, dim) of bases, row i of basis b the bra <b_i|, and a basis
index per state or one int for all. One Born arithmetic (_born: the
cumulative Born probabilities |<b_i|psi>|^2 of each state in each basis) and
one draw (_draw: check the basis indices, gather each state's column, inverse
CDF of one uniform) serve every measurement: measure_projective on its own
batch, measure_table on a fixed state table (born_table), steer_epr on the
outcome weights of a singlet's measured half. A two-outcome table (every
qubit's, and a singlet's weights) draws by rng.steps on the two gathered
rows; three outcomes and more by inverse_cdf. What a fixed table yields is
built once: a Born table per (states, bases) pair and a singlet's weights
and far table per stack of bases are bound to read-only arrays that own
their memory, by identity, so a step's measurement is one gather and one
comparison. Any other arrays get new tables on each call.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch
from .rng import cumulative, inverse_cdf, steps

ATOL = 1e-9
BORN_TABLES = 64  # tables bound at once; the map is emptied when full


def _abs2(a: np.ndarray) -> np.ndarray:
    return a.real ** 2 + a.imag ** 2 if a.dtype.kind == "c" else a * a


def _check_normalized(amplitudes: np.ndarray) -> None:
    norm2 = _abs2(amplitudes).sum(0)
    off = np.abs(norm2 - 1.0) > ATOL
    if off.any():
        raise ValueError(
            f"state not normalized: |psi|^2 = {np.extract(off, norm2)[0]}")


def _born(states: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """The Born table of the columns of states (dim, m), each normalized
    within ATOL (ValueError), in each basis of the stack bras (k, dim, dim)
    (DimensionMismatch). Column c * k + b belongs to column c in basis b: its
    rows are the cumulative sums and then the total that rng.cumulative gives
    for the Born probabilities. The table is read-only."""
    if bras.ndim != 3:
        raise DimensionMismatch(f"bases {bras.shape} are not a (k, dim, dim) stack")
    _check_normalized(states)
    probs = _abs2(bras @ states).transpose(1, 2, 0).reshape(bras.shape[1], -1)
    table = np.vstack(cumulative(probs))
    table.flags.writeable = False
    return table


def _draw(table: np.ndarray, index: np.ndarray, bras: np.ndarray, u: np.ndarray,
          which: int | np.ndarray) -> np.ndarray:
    """One outcome index (intp) per uniform u[j], drawn from column
    index[j] * k + which[j] (or + which, for an int; True is basis 1, as
    numpy reads it) of a table laid out as _born's for m states in the k
    bases of bras. ValueError unless every basis index lies in [0, k), and
    IndexError unless every state index lies in [0, m), negatives included.
    A two-outcome table (rows cdf, total) is one rng.steps on the gathered
    entries; a longer one is inverse_cdf on the gathered columns."""
    k = len(bras)
    m = table.shape[1] // k
    try:  # the flat index checks both indices, and names neither
        flat = np.ravel_multi_index((index, which), (m, k))
    except ValueError:  # which one is out
        which, index = np.asarray(which), np.asarray(index)
        if ((which < 0) | (which >= k)).any():
            raise ValueError(f"basis index not in [0, {k})") from None
        if ((index < 0) | (index >= m)).any():
            raise IndexError(f"state index not in [0, {m})") from None
        raise
    if len(table) == 2:
        return steps(table[0].take(flat), table[1].take(flat), u).astype(np.intp)
    drawn = table.take(flat, 1)
    return inverse_cdf(drawn[:-1], drawn[-1], u)


def measure_projective(amplitudes: np.ndarray, bras: np.ndarray, u: np.ndarray,
                       which: int | np.ndarray) -> np.ndarray:
    """Born-rule measurement of a batch of states (dim, n), one per column,
    each normalized within ATOL (ValueError): state j is measured in basis
    bras[which[j]] of the stack bras (k, dim, dim), or bras[which] for an int
    which, drawn by u[j] from the batch's own Born table. Returns one outcome
    index per state."""
    index = np.arange(amplitudes.shape[-1])
    return _draw(_born(amplitudes, bras), index, bras, u, which)


def measure_table(states: np.ndarray, index: np.ndarray, bras: np.ndarray,
                  u: np.ndarray, which: int | np.ndarray) -> np.ndarray:
    """measure_projective(states[:, index], bras, u, which), bit for bit, by
    the same _draw from the shared born_table of states: one gather and one
    comparison per state. A state index past the table raises IndexError."""
    return _draw(born_table(states, bras), index, bras, u, which)


_BOUND: dict = {}  # (make, id of each array) -> (the arrays, what make gave)


def _bind(make, *arrays: np.ndarray):
    """make(*arrays), made once if every array is read-only and owns its
    memory (no view, whose base may change): kept by the arrays' identity,
    with the arrays, so no other array takes their ids, at most BORN_TABLES
    results, emptied when full. For any other arrays it is made anew."""
    key = (make, *map(id, arrays))
    kept = _BOUND.get(key)
    if kept is None:
        kept = arrays, make(*arrays)
        if not any(a.flags.writeable or not a.flags.owndata for a in arrays):
            if len(_BOUND) >= BORN_TABLES:
                _BOUND.clear()
            _BOUND[key] = kept
    return kept[1]


def born_table(states: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """The Born table of the columns of states (dim, m) in each basis of the
    stack bras (k, dim, dim), checked and laid out as _born gives it, and
    read-only. A pair of read-only arrays that own their memory is bound to
    its table by identity, once (the package's own tables are such arrays,
    and it never makes them writeable again); any other pair, views
    included, gets a new table on each call, so an array changed in place is
    read anew."""
    return _bind(_born, states, bras)


# Singlet (|01> - |10>)/sqrt(2), the only entangled state the package needs.
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def steer_epr(bras: np.ndarray, u: np.ndarray,
              which: int | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure one half of a singlet per uniform; steer the far halves.

    bras is a stack (k, 2, 2) of qubit bases (DimensionMismatch otherwise),
    and pair j is measured in bras[which[j]], checked as in measure_projective.
    The outcome weights and the 2k collapsed far halves depend on the stack
    alone, so they are built once per stack that born_table would bind;
    _draw picks the outcomes. Returns (outcome indices, far table, far
    index): the far table (2, 2k) is read-only and owns its memory, and
    round j's far half is its column 2 * which[j] + outcome[j]. The outcome
    is uniform; the far qubit collapses onto the state orthogonal to the
    observed basis vector, so a later measurement of it in the same basis is
    guaranteed to give the complementary outcome. The singlet is symmetric
    under swapping the two parties, so either party may be taken as the
    measuring one.
    """
    weights, far = _bind(_steering, bras)
    i = _draw(weights, np.zeros(len(u), np.intp), bras, u, which)
    return i, far, 2 * which + i


def _steering(bras: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcome weights of a singlet's half measured in each basis of
    bras, as _born lays out one state's table, and the far table."""
    if bras.ndim != 3 or bras.shape[1:] != (2, 2):
        raise DimensionMismatch(f"steer_epr needs a (k, 2, 2) stack, got {bras.shape}")
    # far[b, i] contracts <b_i| on the measured side: the far half, unnormalized
    far = bras @ _SINGLET.reshape(2, 2)
    probs = _abs2(far).sum(-1)
    weights = np.vstack(cumulative(probs.T))
    far = (far / np.sqrt(probs)[..., None]).reshape(-1, 2).T.copy()
    weights.flags.writeable = far.flags.writeable = False
    return weights, far
