"""Shared fixtures and statistical helpers for the test suite."""
import itertools
import math

import numpy as np
import pytest

from coinflip.errors import IncompatibleProtocol, OutOfRange
from coinflip.harness import ExperimentConfig
from coinflip.protocols import VARIANT_NAMES, ProtocolId
from coinflip.rng import block
from coinflip.strategies import ALICE_STRATEGIES, BOB_STRATEGIES


# One pass/fail line per acceptance criterion, filled in by
# tests/test_acceptance.py and echoed after the run (pytest captures stdout
# during the tests themselves).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


class Uniforms:
    """Fresh uniforms on demand: rng(*shape) returns the next step's block
    of chunk 0 of one seed, so no two calls share a value."""

    def __init__(self, seed: int):
        self.seed = seed
        self.step = 0

    def __call__(self, *shape):
        self.step += 1
        return block(self.seed, 0, self.step - 1, shape)


@pytest.fixture
def rng():
    return Uniforms(20240817)


def sigma(metric: str, expected: float, n: int) -> float:
    """Standard error of a BiasEstimate metric, or of a draw frequency
    ("frequency"), over n trials (or draws) whose true value is expected."""
    if metric in ("p_hat", "abort_rate", "frequency"):  # binomial
        return math.sqrt(expected * (1.0 - expected) / n)
    if metric == "restarts_per_trial":  # geometric, per-round success 1/(1+r)
        return math.sqrt(expected * (1.0 + expected) / n)
    if metric == "conclusive_rate":  # delta method on trials / rounds
        return expected * math.sqrt((1.0 - expected) / n)
    raise KeyError(metric)


def assert_z(observed: float, expected: float, sigma: float, case=""):
    """|observed - expected| <= 5 sigma (equal if sigma is 0); case labels a failure."""
    delta = abs(observed - expected)
    assert delta <= 5.0 * sigma, (f"{case} observed {observed} vs expected {expected}: "
                                  f"{delta / sigma if sigma else math.inf:.2f} sigma")


def assert_metric(est, metric: str, expected: float, case=""):
    assert_z(getattr(est, metric), expected, sigma(metric, expected, est.trials), case)


def edge_uniforms(rng):
    """10**6 random uniforms, plus every k/4 and both of its float neighbours,
    as far as they lie in [0, 1)."""
    k4 = np.arange(5) / 4.0
    edges = np.concatenate([np.nextafter(k4, -1.0), k4, np.nextafter(k4, 2.0)])
    return np.concatenate([rng(10 ** 6), edges[(edges >= 0.0) & (edges < 1.0)]])


def valid_configs(**kw):
    """Every (protocol, variant name, Alice, Bob, photon count in {1, 2})
    that constructs, as ExperimentConfigs with the other fields from kw."""
    for protocol, variant, alice, bob, photons in itertools.product(
            ProtocolId, VARIANT_NAMES, ALICE_STRATEGIES, BOB_STRATEGIES, (1, 2)):
        try:
            yield ExperimentConfig(protocol=protocol, variant=VARIANT_NAMES[variant],
                                   alice=alice, bob=bob, photon_count=photons, **kw)
        except (OutOfRange, IncompatibleProtocol):
            continue
