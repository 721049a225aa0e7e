"""Monte Carlo harness: determinism, intervals and the check matrix."""
import numpy as np
import pytest

from coinflip.errors import OutOfRange, RestartBudgetExceeded
from coinflip.harness import (ExperimentConfig, check_matrix, estimate_to_dict,
                              evaluate_matrix, run_experiment, wilson_interval)
from coinflip.protocols import ProtocolId


def test_identical_configs_give_identical_counts():
    cfg = ExperimentConfig(trials=3000, seed=77, eta=0.6)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b


def test_different_seeds_differ():
    a = run_experiment(ExperimentConfig(trials=3000, seed=1))
    b = run_experiment(ExperimentConfig(trials=3000, seed=2))
    assert a.successes != b.successes


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(target=2)


@pytest.mark.parametrize("bad", [
    dict(seed=-1), dict(seed=2 ** 64), dict(eta=0.0), dict(eta=1.5),
    dict(eta=float("nan")), dict(photon_count=0), dict(max_restarts=-1)])
def test_config_out_of_range_fails_at_construction(bad):
    with pytest.raises(OutOfRange):
        ExperimentConfig(**bad)


def test_config_range_edges_are_accepted():
    ExperimentConfig(seed=0, eta=1.0, photon_count=1, max_restarts=0)
    ExperimentConfig(seed=2 ** 64 - 1, eta=1e-9)


def test_honest_fair_coin():
    est = run_experiment(ExperimentConfig(trials=20_000, seed=5))
    assert 0.48 <= est.p_hat <= 0.52
    assert est.aborts == 0
    assert est.ci95[0] <= est.p_hat <= est.ci95[1]
    assert est.bias_hat == pytest.approx(est.p_hat - 0.5)
    assert est.successes + est.failures == est.trials


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.404, abs=0.005)
    assert hi == pytest.approx(0.596, abs=0.005)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0)


def test_wilson_interval_coverage():
    """For p = 0.9, repeated 1000-trial experiments should cover the truth in
    95% +/- 2% of repetitions."""
    p = 0.9
    reps, n = 1000, 1000
    gen = np.random.Generator(np.random.PCG64(42))
    covered = 0
    for _ in range(reps):
        k = int(gen.binomial(n, p))
        lo, hi = wilson_interval(k, n)
        covered += lo <= p <= hi
    assert 0.93 <= covered / reps <= 0.97


def test_restart_budget_exceeded_raises():
    """An almost-opaque channel with a tiny per-run limit blows the 0.1%
    budget of a stored-measurement honest run."""
    cfg = ExperimentConfig(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                           variant=None, trials=200, seed=9, eta=0.01,
                           max_restarts=10)
    with pytest.raises(RestartBudgetExceeded):
        run_experiment(cfg)


def test_estimate_to_dict_field_order():
    cfg = ExperimentConfig(trials=100, seed=3)
    est = run_experiment(cfg)
    d = estimate_to_dict(cfg, est)
    assert list(d) == ["protocol", "variant", "alice", "bob", "target",
                       "trials", "seed", "alpha2", "eta", "successes",
                       "failures", "aborts", "restart_total", "p_hat", "ci95",
                       "bias_hat"]
    assert d["protocol"] == "loss_tolerant"
    assert d["variant"] == "restart_measure"
    assert d["successes"] + d["failures"] == d["trials"]


def test_check_matrix_covers_every_attack():
    rows = check_matrix(trials=100, seed=1)
    labels = {r.label for r in rows}
    assert len(rows) == 15
    expected = {"bb84_postpone_lie", "bb84_rotated", "bb84_rotated_caught",
                "bb84_epr", "ambainis_alice_optimal", "ambainis_bob_conclusive",
                "ambainis_bob_conclusive_restarts", "ambainis_send_nothing",
                "lt_alice_optimal", "lt_bob_helstrom", "mcqm_bob_restart",
                "cunning_son_agreement", "twophoton_usd_rate",
                "twophoton_usd_correct", "twophoton_honest_rate"}
    assert labels == expected


def test_evaluate_matrix_small_run_structure():
    results = evaluate_matrix(trials=2000, seed=8, tolerance=0.1)
    assert len(results) == 15
    for r in results:
        assert set(r) == {"label", "metric", "measured", "expected", "ok"}
        assert r["ok"], r
