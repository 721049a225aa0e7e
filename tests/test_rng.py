"""Random streams: draw frequencies, choice validation, the step layout and
the per-chunk determinism of experiments."""
from collections import Counter

import numpy as np
import pytest

from coinflip import harness
from coinflip.errors import ProbabilityMismatch
from coinflip.harness import CHUNK, ExperimentConfig, run_experiment
from coinflip.protocols import DEPTH, ProtocolId
from coinflip.rng import (SLOTS, ChunkStream, bernoulli, bit, choice, randint,
                          sign)

from conftest import assert_close_5sigma

N = 100_000


def frequencies(draws):
    counts = Counter(draws.tolist())
    return {k: v / len(draws) for k, v in counts.items()}


def test_bit_frequency(rng):
    f = frequencies(bit(rng(N)))
    assert set(f) == {0, 1}
    assert_close_5sigma(f[1], 0.5, N)


def test_sign_frequency(rng):
    f = frequencies(sign(rng(N)))
    assert set(f) == {-1, 1}
    assert_close_5sigma(f[1], 0.5, N)


def test_randint_frequency(rng):
    f = frequencies(randint(4, rng(N)))
    assert set(f) == {0, 1, 2, 3}
    for k in range(4):
        assert_close_5sigma(f[k], 0.25, N)


def test_bernoulli_frequency(rng):
    f = frequencies(bernoulli(0.3, rng(N)))
    assert_close_5sigma(f[True], 0.3, N)


def test_choice_frequency(rng):
    probs = (0.2, 0.5, 0.0, 0.3)
    f = frequencies(choice(probs, rng(N)))
    assert 2 not in f
    for k in (0, 1, 3):
        assert_close_5sigma(f[k], probs[k], N)


def test_random_is_a_unit_uniform(rng):
    us = rng(N)
    assert ((0.0 <= us) & (us < 1.0)).all()
    assert_close_5sigma((us < 0.25).sum() / N, 0.25, N)


@pytest.mark.parametrize("probs", [(1.2, -0.2), (-0.01, 1.01), (0.5, 0.4),
                                   (0.6, 0.6), ()])
def test_choice_rejects_invalid_vectors(rng, probs):
    with pytest.raises(ProbabilityMismatch):
        choice(probs, rng(5))


def test_choice_checks_every_row(rng):
    """One bad probability vector among valid ones is rejected."""
    good = np.full((2, 1000), 0.5)
    choice(good, rng(1000))
    for bad in ((0.5, 0.4), (1.01, -0.01)):
        probs = good.copy()
        probs[:, 637] = bad
        with pytest.raises(ProbabilityMismatch):
            choice(probs, rng(1000))


def test_same_key_same_draws():
    a, b = ChunkStream(99, 3), ChunkStream(99, 3)
    a.block(7, (50,))  # an earlier step does not shift a later one
    assert np.array_equal(a.block(2, (1000,)), b.block(2, (1000,)))


def test_every_draw_consumes_one_uniform(rng):
    """Draw k of a batch reads uniform k alone, whatever the other uniforms
    are, so every draw site can own a fixed column."""
    u = rng(200)
    for draw in (bit, sign, lambda v: randint(4, v), lambda v: bernoulli(0.3, v),
                 lambda v: choice((0.5, 0.5), v)):
        whole = draw(u)
        assert whole.shape == u.shape
        assert whole.tolist() == [draw(u[k:k + 1])[0] for k in range(len(u))]


def test_chunks_share_no_value():
    """Chunk k starts its steps (k << 32) jumps into the seed's stream, so
    the first draws of neighbouring chunks are disjoint."""
    n = 4096
    first = set(ChunkStream(12345, 0).block(0, (n,)).tolist())
    second = set(ChunkStream(12345, 1).block(0, (n,)).tolist())
    assert len(first) == len(second) == n
    assert first.isdisjoint(second)


def test_seeds_give_distinct_streams():
    a = ChunkStream(1).block(0, (1000,)).tolist()
    b = ChunkStream(2).block(0, (1000,)).tolist()
    assert set(a).isdisjoint(b)


def reference_block(seed, k, s, shape):
    """Step s of chunk k, drawn from a new generator jumped into place."""
    return np.random.Generator(
        np.random.PCG64DXSM(seed).jumped((k << 32) | s)).random(shape)


def test_steps_share_no_value():
    """Consecutive steps of one chunk, and the same step of neighbouring
    chunks, draw disjoint uniforms."""
    n = 4096
    stream = ChunkStream(12345, 5)
    blocks = [set(stream.block(s, (n,)).tolist()) for s in (0, 1, 2)]
    blocks += [set(ChunkStream(12345, k).block(1, (n,)).tolist()) for k in (4, 6)]
    assert all(len(b) == n for b in blocks)
    for i, first in enumerate(blocks):
        for second in blocks[i + 1:]:
            assert first.isdisjoint(second)


def test_step_layout_is_pinned(monkeypatch):
    """Step s of chunk k reads the start of PCG64DXSM(seed).jumped((k << 32) | s),
    one row of SLOTS uniforms per (pending trial, attempt), and step s runs
    min(2**s, DEPTH) attempts whatever the number of pending trials."""

    stream = ChunkStream(2024, 3)
    stream.block(0, (5, 1, SLOTS))
    assert np.array_equal(stream.block(6, (7, 4, SLOTS)),
                          reference_block(2024, 3, 6, (7, 4, SLOTS)))

    calls = []

    class Recording(ChunkStream):
        def __init__(self, seed, chunk=0):
            super().__init__(seed, chunk)
            self.key = (seed, chunk)

        def block(self, step, shape):
            out = super().block(step, shape)
            calls.append((*self.key, step, shape))
            assert np.array_equal(out, reference_block(*self.key, step, shape))
            return out

    monkeypatch.setattr(harness, "ChunkStream", Recording)
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
         target=1, eta=0.5),  # restarts from verify
    dict(alice="honest_pulse", bob="twophoton_honest_apparatus", target=1,
         photon_count=2, eta=0.5),  # restarts from receive
], ids=["honest@0.5", "honest@0.05", "restart_abuse", "twophoton_apparatus"])
def test_shorter_run_is_a_prefix_across_a_chunk_boundary(kw):
    assert 1000 < CHUNK < 1100
    short = transcripts(1000, **kw)
    long = transcripts(1100, **kw)
    assert len(short) == 1000 and len(long) == 1100
    assert short == long[:1000]
