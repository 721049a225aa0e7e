"""Random streams: draw frequencies, distribution validation, the step layout and
the per-chunk determinism of experiments."""
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from coinflip import rng as rng_module
from coinflip.catalog import Family, StateFamily, basis_pair
from coinflip.errors import ProbabilityMismatch
from coinflip.harness import CHUNK, ExperimentConfig, run_experiment
from coinflip.protocols import DEPTH, ProtocolId
from coinflip.quantum import born_table
from coinflip.rng import (PREPARE, RECEIVE, REVEAL, SEEDS, SLOTS, TRANSMIT,
                          VERIFY, bernoulli, bit, block, cumulative,
                          inverse_cdf, rows)

from conftest import assert_z, edge_uniforms, sigma

N = 100_000


def frequencies(draws):
    counts = Counter(draws.tolist())
    return {k: v / len(draws) for k, v in counts.items()}


def test_bit_frequency(rng):
    f = frequencies(bit(rng(N)))
    assert set(f) == {0, 1}
    assert_z(f[1], 0.5, sigma("frequency", 0.5, N))


def test_bernoulli_frequency(rng):
    f = frequencies(bernoulli(0.3, rng(N)))
    assert_z(f[True], 0.3, sigma("frequency", 0.3, N))


def test_choice_frequency(rng):
    probs = (0.2, 0.5, 0.0, 0.3)
    f = frequencies(inverse_cdf(*cumulative(probs), rng(N)))
    assert 2 not in f
    for k in (0, 1, 3):
        assert_z(f[k], probs[k], sigma("frequency", probs[k], N), f"outcome {k}:")


def test_one_minus_bit_is_the_negative_sign(rng):
    """1 - bit(u) is the old sign(u) < 0 draw, u >= 0.5, bit for bit."""
    u = edge_uniforms(rng)
    assert np.array_equal(1 - bit(u), (u >= 0.5).astype(np.intp))


def test_four_quarter_inverse_cdf_is_floor_4u(rng):
    """inverse_cdf over four weights 0.25 is the old randint(4, u),
    floor(4u), bit for bit: its steps are exactly 0.25, 0.5, 0.75 and its
    total exactly 1."""
    cdf, total = cumulative((0.25,) * 4)
    assert cdf.ravel().tolist() == [0.25, 0.5, 0.75]
    assert total.tolist() == [1.0]
    u = edge_uniforms(rng)
    assert np.array_equal(inverse_cdf(cdf, total, u),
                          np.floor(4.0 * u).astype(np.intp))


def steps_and_neighbours(cdf, total):
    """Every step cdf / total of each column of a table and both float
    neighbours of it, as far as they lie in [0, 1): (the column of each,
    the uniforms)."""
    steps = (cdf / total).ravel()
    cols = np.tile(np.broadcast_to(np.arange(cdf.shape[1]), cdf.shape).ravel(), 3)
    u = np.concatenate([np.nextafter(steps, -1.0), steps, np.nextafter(steps, 2.0)])
    keep = (u >= 0.0) & (u < 1.0)
    return cols[keep], u[keep]


def born_table_draw(rng):
    """A (1, n) gather from the loss-tolerant Born table in Bob's two bases,
    one column per uniform, as measure_table draws."""
    family = StateFamily(Family.LOSS_TOLERANT, 0.9)
    bras = basis_pair(family)
    table = born_table(bras.conj().reshape(-1, family.dim).T, bras)
    cols, edges = steps_and_neighbours(table[:-1], table[-1])
    col = np.concatenate([cols, (rng(N) * table.shape[1]).astype(np.intp)])
    drawn = table.take(col, 1)
    return drawn[:-1], drawn[-1], np.concatenate([edges, rng(N)])


def weights_draw(weights):
    """One weight column (k - 1, 1), broadcast over every uniform."""
    def draw(rng):
        cdf, total = cumulative(weights)
        _, edges = steps_and_neighbours(cdf, total)
        return cdf, total, np.concatenate([edges, rng(N)])
    return draw


@pytest.mark.parametrize("draw", [
    born_table_draw,
    weights_draw((0.3, 0.7)),
    weights_draw(StateFamily(Family.MCQM_EXAMPLE).x_weights),  # three weights
], ids=["born_table", "weight_column", "mcqm_three_weights"])
def test_inverse_cdf_is_the_first_step_above_u(rng, draw):
    """inverse_cdf gives the first i with u * total < cdf[i], or the last
    index if none is, bit for bit, on and next to every step as well as at
    random uniforms, for two outcomes and three."""
    cdf, total, u = draw(rng)
    above = np.vstack([cdf > u * total, np.ones_like(u, bool)])
    got, want = inverse_cdf(cdf, total, u), above.argmax(0)
    assert got.dtype == want.dtype == np.intp
    assert np.array_equal(got, want)
    assert set(got.tolist()) == set(range(len(cdf) + 1))


def test_random_is_a_unit_uniform(rng):
    us = rng(N)
    assert ((0.0 <= us) & (us < 1.0)).all()
    assert_z((us < 0.25).sum() / N, 0.25, sigma("frequency", 0.25, N))


@pytest.mark.parametrize("probs", [(1.2, -0.2), (-0.01, 1.01), (0.5, 0.4),
                                   (0.6, 0.6), ()])
def test_choice_rejects_invalid_vectors(rng, probs):
    with pytest.raises(ProbabilityMismatch):
        inverse_cdf(*cumulative(probs), rng(5))


def test_choice_checks_every_row(rng):
    """One bad probability vector among valid ones is rejected."""
    good = np.full((2, 1000), 0.5)
    inverse_cdf(*cumulative(good), rng(1000))
    for bad in ((0.5, 0.4), (1.01, -0.01)):
        probs = good.copy()
        probs[:, 637] = bad
        with pytest.raises(ProbabilityMismatch):
            inverse_cdf(*cumulative(probs), rng(1000))


def test_same_key_same_draws():
    first = block(99, 3, 2, (1000,))
    block(99, 3, 7, (50,))  # another step does not shift this one
    assert np.array_equal(block(99, 3, 2, (1000,)), first)


def test_every_draw_consumes_one_uniform(rng):
    """Draw k of a batch reads uniform k alone, whatever the other uniforms
    are, so every draw site can own a fixed column."""
    u = rng(200)
    quarters = cumulative((0.25,) * 4)
    for draw in (bit, lambda v: bernoulli(0.3, v),
                 lambda v: inverse_cdf(*cumulative((0.5, 0.5)), v),
                 lambda v: inverse_cdf(*quarters, v)):
        whole = draw(u)
        assert whole.shape == u.shape
        assert whole.tolist() == [draw(u[k:k + 1])[0] for k in range(len(u))]


def test_chunks_share_no_value():
    """Chunk k starts its steps (k << 32) jumps into the seed's stream, so
    the first draws of neighbouring chunks are disjoint."""
    n = 4096
    first = set(block(12345, 0, 0, (n,)).tolist())
    second = set(block(12345, 1, 0, (n,)).tolist())
    assert len(first) == len(second) == n
    assert first.isdisjoint(second)


def test_seeds_give_distinct_streams():
    a = block(1, 0, 0, (1000,)).tolist()
    b = block(2, 0, 0, (1000,)).tolist()
    assert set(a).isdisjoint(b)


def reference_block(seed, k, s, shape):
    """Step s of chunk k, drawn from a new generator jumped into place."""
    return np.random.Generator(
        np.random.PCG64DXSM(seed).jumped((k << 32) | s)).random(shape)


def test_interleaved_seeds_and_chunks_give_the_reference_blocks():
    """One generator per seed serves every chunk and step: blocks of two
    seeds and several chunks, drawn in turn, are the jumped streams."""
    shape = (3, 2, SLOTS)
    for step in range(3):
        for chunk in (0, 5, 2):
            for seed in (11, 2 ** 64 - 1):
                assert np.array_equal(block(seed, chunk, step, shape),
                                      reference_block(seed, chunk, step, shape))


def test_more_seeds_than_the_cache_holds_give_the_reference_blocks():
    seeds = range(100, 100 + 3 * SEEDS)
    for _ in range(2):  # the second pass finds none of the early seeds cached
        for seed in seeds:
            assert np.array_equal(block(seed, 1, 2, (16,)),
                                  reference_block(seed, 1, 2, (16,)))
    info = rng_module._seeded.cache_info()
    assert info.maxsize == SEEDS
    assert info.currsize == SEEDS


def test_two_threads_drawing_one_seed_get_the_reference_blocks():
    """The advance from the tracked offset, the draw and the new offset of
    a block are one step under the module lock, so two threads sharing a
    seed's generator never draw from a position the other one set."""
    keys = [(chunk, step) for chunk in range(4) for step in range(30)]
    shape = (20_000,)  # long draws, which release the GIL
    wrong = {}
    start = threading.Barrier(2, timeout=60)

    def draw(name, order):
        start.wait()
        wrong[name] = [key for key in order if not np.array_equal(
            block(4242, *key, shape), reference_block(4242, *key, shape))]

    threads = [threading.Thread(target=draw, args=("forward", keys)),
               threading.Thread(target=draw, args=("backward", keys[::-1]))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == {"forward": [], "backward": []}


def test_one_float64_uniform_consumes_one_64_bit_output():
    """The invariant the tracked offset rests on: after Generator.random(n),
    the bit generator stands where a fresh one advanced by n stands."""
    for n in (0, 1, 7, 1000):
        bits = np.random.PCG64DXSM(4243)
        np.random.Generator(bits).random(n)
        fresh = np.random.PCG64DXSM(4243)
        fresh.advance(n)
        assert bits.random_raw() == fresh.random_raw(), n


@pytest.mark.parametrize("keys", [
    [(3, 2, 40), (3, 2, 40)],  # the same block twice in a row
    [(6, 1, 25), (4, 1, 25), (2, 1, 25), (0, 1, 25)],  # chunks backwards
    [(1, 0, 0), (1, 0, 7), (1, 1, 0), (5, 3, 13), (1, 0, 7)],  # empty, odd
    [(0, 0, 9), (0, 1, 9), (0, 0, 9), (2 ** 31, 2 ** 32 - 1, 3), (0, 0, 9)],
], ids=["repeat", "backwards", "empty_and_odd", "far_and_back"])
def test_blocks_in_any_order_are_the_reference_blocks(keys):
    """Each block is positioned from the offset the last draw left: blocks
    repeated, drawn backwards, empty, odd-sized or far apart are still the
    jumped streams."""
    for chunk, step, n in keys:
        assert np.array_equal(block(4244, chunk, step, (n,)),
                              reference_block(4244, chunk, step, (n,)))


def test_rows_across_chunks_in_turn_are_the_reference_blocks():
    """rows draws several chunks' blocks in turn from the one generator,
    twice over and for two steps, each its chunk's reference block."""
    seed, depth = 4245, 3
    pending = np.concatenate([np.arange(0, 5), CHUNK + np.arange(2, 9),
                              3 * CHUNK + np.arange(0, CHUNK, 100)])
    for step in (2, 1, 2):
        got = rows(seed, 7, step, pending, depth)
        want = np.concatenate([reference_block(seed, 7 + k, step, (n, depth, SLOTS))
                               for k, n in enumerate(np.bincount(pending // CHUNK))
                               if n])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("out", [np.empty((6, 4))[:, ::2],
                                 np.empty(5, dtype=np.float32)],
                         ids=["not_contiguous", "float32"])
def test_a_refused_draw_leaves_the_offset_true(out):
    """A draw that Generator.random refuses for its out consumes nothing,
    and the offset does not drift past it: the blocks drawn right after it
    are the reference blocks."""
    seed = 4246
    assert np.array_equal(block(seed, 2, 5, (11,)), reference_block(seed, 2, 5, (11,)))
    with pytest.raises((TypeError, ValueError)):
        rng_module._fill(seed, 9, 1, out)
    for chunk, step in ((9, 1), (2, 5), (9, 2)):
        assert np.array_equal(block(seed, chunk, step, (11,)),
                              reference_block(seed, chunk, step, (11,)))


def test_steps_share_no_value():
    """Consecutive steps of one chunk, and the same step of neighbouring
    chunks, draw disjoint uniforms."""
    n = 4096
    blocks = [set(block(12345, 5, s, (n,)).tolist()) for s in (0, 1, 2)]
    blocks += [set(block(12345, k, 1, (n,)).tolist()) for k in (4, 6)]
    assert all(len(b) == n for b in blocks)
    for i, first in enumerate(blocks):
        for second in blocks[i + 1:]:
            assert first.isdisjoint(second)


def test_rows_are_each_chunks_block_in_chunk_order():
    """rows gives each chunk's block for its own pending trials,
    in chunk order, bit for bit; a chunk with none pending draws nothing."""
    seed, first, step, depth = 31, 5, 3, 4
    near, far = np.arange(3, 40), 2 * CHUNK + np.arange(0, CHUNK, 7)
    got = rows(seed, first, step, np.concatenate([near, far]), depth)
    want = np.concatenate([block(seed, first, step, (near.size, depth, SLOTS)),
                           block(seed, first + 2, step, (far.size, depth, SLOTS))])
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_draw_sites_partition_a_row():
    """The five draw sites own disjoint columns, in order, that cover
    range(SLOTS), so what one site draws never shifts another site's
    uniforms; RECEIVE ends at column 7, b's."""
    columns = [np.atleast_1d(np.arange(SLOTS)[site])
               for site in (PREPARE, TRANSMIT, RECEIVE, REVEAL, VERIFY)]
    assert np.concatenate(columns).tolist() == list(range(SLOTS))
    assert columns[2][-1] == 7


def test_step_layout_is_pinned(monkeypatch):
    """Step s of chunk k reads the start of PCG64DXSM(seed).jumped((k << 32) | s),
    one row of SLOTS uniforms per (pending trial, attempt), and step s runs
    min(2**s, DEPTH) attempts whatever the number of pending trials."""

    block(2024, 3, 0, (5, 1, SLOTS))
    assert np.array_equal(block(2024, 3, 6, (7, 4, SLOTS)),
                          reference_block(2024, 3, 6, (7, 4, SLOTS)))

    calls = []
    drawn = rng_module._fill

    def recording(seed, chunk, step, out):
        drawn(seed, chunk, step, out)
        calls.append((seed, chunk, step, out.shape))
        assert np.array_equal(out, reference_block(seed, chunk, step, out.shape))
        return out

    monkeypatch.setattr(rng_module, "_fill", recording)
    # a Bob who does not restart on every loss draws loss round by round, and
    # his false claims keep trials pending until a step reaches DEPTH
    run_experiment(ExperimentConfig(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                                    bob="ambainis_restart_abuse", target=1,
                                    eta=0.05, trials=CHUNK + 10, seed=2024))
    for chunk, trials in ((0, CHUNK), (1, 10)):
        steps = [c[2:] for c in calls if c[1] == chunk]
        assert [s for s, _ in steps] == list(range(len(steps)))
        assert steps[0][1] == (trials, 1, SLOTS)
        pending = [shape[0] for _, shape in steps]
        assert pending == sorted(pending, reverse=True)
        assert all(shape[1:] == (min(2 ** s, DEPTH), SLOTS) for s, shape in steps)
    assert max(c[3][1] for c in calls) == DEPTH


def transcripts(trials, **kw):
    out = []
    run_experiment(ExperimentConfig(trials=trials, seed=2024, **kw),
                   transcript_sink=lambda t: out.append(t.to_dict()))
    return out


@pytest.mark.parametrize("kw", [
    dict(eta=0.5),
    dict(eta=0.05),  # steps deeper than one round
    dict(protocol=ProtocolId.AMBAINIS_CF_VARIANT, bob="ambainis_restart_abuse",
         target=1, eta=0.5),  # false claims of loss
    dict(alice="honest_pulse", bob="twophoton_honest_apparatus", target=1,
         photon_count=2, eta=0.5),  # restarts on inconclusive pairs
], ids=["honest@0.5", "honest@0.05", "restart_abuse", "twophoton_apparatus"])
def test_shorter_run_is_a_prefix_across_a_chunk_boundary(kw):
    assert 1000 < CHUNK < 1100
    short = transcripts(1000, **kw)
    long = transcripts(1100, **kw)
    assert len(short) == 1000 and len(long) == 1100
    assert short == long[:1000]
