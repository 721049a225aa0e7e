"""Shared fixtures and statistical helpers for the test suite."""
import math

import pytest

from coinflip.rng import RandomStream


# One pass/fail line per acceptance criterion, filled in by
# tests/test_acceptance.py and echoed after the run (pytest captures stdout
# during the tests themselves).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return RandomStream(20240817)


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def assert_close_5sigma(observed: float, expected: float, n: int):
    """Assert an empirical frequency is within 5 sigma of its expectation."""
    sigma = binomial_sigma(expected, n)
    assert abs(observed - expected) <= 5.0 * sigma, (
        f"observed {observed} vs expected {expected} "
        f"({abs(observed - expected) / sigma:.1f} sigma, n={n})")
