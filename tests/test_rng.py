"""Random streams: draw frequencies, choice validation, chunk keying and the
per-chunk determinism of experiments."""
from collections import Counter

import pytest

from coinflip.errors import ProbabilityMismatch
from coinflip.harness import CHUNK, ExperimentConfig, run_experiment
from coinflip.rng import RandomStream

from conftest import assert_close_5sigma

N = 100_000


def frequencies(draw, n=N):
    counts = Counter(draw() for _ in range(n))
    return {k: v / n for k, v in counts.items()}


def test_bit_frequency(rng):
    f = frequencies(rng.bit)
    assert set(f) == {0, 1}
    assert_close_5sigma(f[1], 0.5, N)


def test_sign_frequency(rng):
    f = frequencies(rng.sign)
    assert set(f) == {-1, 1}
    assert_close_5sigma(f[1], 0.5, N)


def test_randint_frequency(rng):
    f = frequencies(lambda: rng.randint(4))
    assert set(f) == {0, 1, 2, 3}
    for k in range(4):
        assert_close_5sigma(f[k], 0.25, N)


def test_bernoulli_frequency(rng):
    f = frequencies(lambda: rng.bernoulli(0.3))
    assert_close_5sigma(f[True], 0.3, N)


def test_choice_frequency(rng):
    probs = (0.2, 0.5, 0.0, 0.3)
    f = frequencies(lambda: rng.choice(probs))
    assert 2 not in f
    for k in (0, 1, 3):
        assert_close_5sigma(f[k], probs[k], N)


def test_random_is_a_unit_uniform(rng):
    us = [rng.random() for _ in range(N)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert_close_5sigma(sum(u < 0.25 for u in us) / N, 0.25, N)


@pytest.mark.parametrize("probs", [(1.2, -0.2), (-0.01, 1.01), (0.5, 0.4),
                                   (0.6, 0.6), ()])
def test_choice_rejects_invalid_vectors(rng, probs):
    with pytest.raises(ProbabilityMismatch):
        rng.choice(probs)


def test_same_key_same_draws():
    a, b = RandomStream(99, 3), RandomStream(99, 3)
    assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]


def test_every_draw_consumes_one_uniform():
    """The k-th draw sees the k-th uniform, whatever the methods before it."""
    mixed = RandomStream(5)
    plain = RandomStream(5)
    for draw in (mixed.bit, mixed.sign, lambda: mixed.randint(4),
                 lambda: mixed.bernoulli(0.3),
                 lambda: mixed.choice((0.5, 0.5))) * 200:
        draw()
        plain.random()
    assert ([mixed.random() for _ in range(10)]
            == [plain.random() for _ in range(10)])


def test_chunks_share_no_value():
    """Chunk k sits in the high counter words, so the first draws of
    neighbouring chunks are disjoint (a chunk in the low counter word would
    share most of them)."""
    n = 4096
    c0 = RandomStream(12345, 0)
    c1 = RandomStream(12345, 1)
    first = {c0.random() for _ in range(n)}
    second = {c1.random() for _ in range(n)}
    assert len(first) == len(second) == n
    assert first.isdisjoint(second)


def test_seeds_give_distinct_streams():
    a, b = RandomStream(1), RandomStream(2)
    assert {a.random() for _ in range(1000)}.isdisjoint(
        b.random() for _ in range(1000))


def transcripts(trials):
    out = []
    run_experiment(ExperimentConfig(trials=trials, seed=2024, eta=0.5),
                   transcript_sink=lambda t: out.append(t.to_dict()))
    return out


def test_shorter_run_is_a_prefix_across_a_chunk_boundary():
    assert 1000 < CHUNK < 1100
    short = transcripts(1000)
    long = transcripts(1100)
    assert len(short) == 1000 and len(long) == 1100
    assert short == long[:1000]
