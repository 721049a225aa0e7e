"""Monte Carlo harness: determinism, intervals and the check matrix."""
import dataclasses
import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from coinflip import harness
from coinflip.analytics import reference_table
from coinflip.errors import IncompatibleProtocol, OutOfRange, RestartBudgetExceeded
from coinflip.harness import (CHUNK, BiasEstimate, ExperimentConfig, build_hooks,
                              estimate_to_dict, run_experiment, wilson_interval)
from coinflip.matrix import check_matrix, evaluate_matrix
from coinflip.protocols import (VARIANT_NAMES, Decision, LossPolicy, ProtocolId,
                                VariantFlags, run_chunk)
from coinflip.strategies import REGISTRY

from conftest import assert_metric, assert_z, sigma, valid_configs


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
    dict(eta=float("nan")), dict(photon_count=0), dict(max_restarts=-1),
    dict(max_restarts=2 ** 53),
    dict(bob="twophoton_usd", photon_count=1),
    dict(bob="twophoton_honest_apparatus", photon_count=1),
    dict(alpha2=0.5), dict(alpha2=1.0),
    dict(protocol=ProtocolId.BB84_CF, alpha2=5.0),
    dict(alice="lt_optimal", photon_count=3),
    dict(alice="lt_optimal", bob="twophoton_usd", photon_count=2, target=1),
    # counts must be integers, not coerced floats
    dict(trials=2000, eta=0.5, max_restarts=1.5),
    dict(alice="honest_pulse", bob="twophoton_usd", photon_count=2.5, target=1),
    dict(trials=10.5), dict(seed=3.5),
    # target is an integer too, and eta and alpha2 real numbers, not coerced
    dict(target=1.0), dict(target=np.True_), dict(eta="0.5"), dict(alpha2=None),
    # a real number that no float holds
    dict(eta=10 ** 400), dict(alpha2=10 ** 400),
    # protocol and variant are enums, not names to convert
    dict(protocol="bb84"), dict(protocol=None),
    dict(protocol=ProtocolId.AMBAINIS_CF, variant="believe_on_faith"),
    # and alice and bob are names, not looked up as whatever they are
    dict(alice=["x"]), dict(bob={}), dict(alice=1)])
def test_config_out_of_range_fails_at_construction(bad):
    with pytest.raises(OutOfRange):
        ExperimentConfig(**bad)


@pytest.mark.parametrize("bad", [
    dict(alice="nonsense"), dict(bob="nonsense"), dict(bob="lt_optimal"),
    dict(protocol=ProtocolId.BB84_CF, alice="lt_optimal"),
    dict(protocol=ProtocolId.AMBAINIS_CF, bob="lt_helstrom"),
    dict(variant=VariantFlags(LossPolicy.BELIEVE_ON_FAITH, False)),
    dict(protocol=ProtocolId.AMBAINIS_CF,
         variant=VariantFlags(LossPolicy.RESTART_ON_LOSS, True)),
    dict(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
         variant=VariantFlags(LossPolicy.BELIEVE_ON_FAITH, True)),
    # the conclusive receiver measures on reception; restart abuse claims
    # loss after the reveal, which only a storing, restarting Bob may do
    *(dict(protocol=ProtocolId.AMBAINIS_CF_VARIANT, variant=VARIANT_NAMES[v],
           bob="ambainis_conclusive")
      for v in ("default", "believe_on_faith", "restart_on_loss")),
    *(dict(protocol=ProtocolId.AMBAINIS_CF_VARIANT, variant=VARIANT_NAMES[v],
           bob="ambainis_restart_abuse")
      for v in ("believe_on_faith", "restart_measure"))])
def test_config_unknown_or_misapplied_strategy_fails_at_construction(bad):
    with pytest.raises(IncompatibleProtocol):
        ExperimentConfig(**bad)


def test_config_range_edges_are_accepted():
    ExperimentConfig(seed=0, eta=1.0, photon_count=1, max_restarts=0)
    ExperimentConfig(seed=2 ** 64 - 1, eta=1e-9, max_restarts=2 ** 53 - 1)
    ExperimentConfig(alice="honest_pulse", bob="twophoton_usd", photon_count=2)


def test_config_accepts_numpy_integer_counts():
    """Counts that operator.index accepts are integers, numpy's included; they
    are kept as Python ints, so the largest int32 cap does not wrap, and run
    as the same Python ints do. target is kept as an int, bool included, and
    eta and alpha2 as floats, numpy's included, so every record is JSON with
    the same values as the CLI's."""
    counts = dict(trials=1500, seed=3, max_restarts=2 ** 31 - 1, photon_count=1)
    given = ExperimentConfig(eta=0.5, trials=np.int64(1500), seed=np.uint64(3),
                             max_restarts=np.int32(2 ** 31 - 1), photon_count=np.int8(1))
    assert {name: getattr(given, name) for name in counts} == counts
    assert all(type(getattr(given, name)) is int for name in counts)
    assert run_experiment(given) == run_experiment(ExperimentConfig(eta=0.5, **counts))
    types = dict(target=int, eta=float, alpha2=float)
    for kw in (dict(target=True), dict(target=np.int64(1), eta=np.float32(0.5),
                                       alpha2=np.float32(0.9)), dict(eta=1)):
        cfg = ExperimentConfig(trials=100, **kw)
        record = json.loads(json.dumps(estimate_to_dict(cfg, run_experiment(cfg))))
        assert {name: type(record[name]) for name in types} == types, kw
        assert all(record[name] == kw[name] for name in kw), kw


def test_honest_fair_coin():
    est = run_experiment(ExperimentConfig(trials=20_000, seed=5))
    assert_metric(est, "p_hat", 0.5)
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


@pytest.mark.parametrize("eta", [1e-300, 5e-324])
def test_vanishing_eta_exhausts_the_budget_without_overflow(eta):
    """A Bob who restarts on every loss facing a channel that delivers
    almost never: every trial passes the cap, no float overflows or warns,
    and the experiment fails on its restart budget."""
    cfg = ExperimentConfig(trials=200, seed=9, eta=eta, max_restarts=10)
    alice, bob = build_hooks(cfg)
    assert bob.restarts_on_loss
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict, _, _ = run_chunk(cfg, alice, bob, 0, cfg.trials)
        assert (verdict == Decision.REQUEST_RESTART).all()
        with pytest.raises(RestartBudgetExceeded):
            run_experiment(cfg)


def test_a_run_where_no_trial_finishes_fails_after_one_chunk(monkeypatch):
    """Vacuum against a Bob who restarts on every loss: the first engine
    call runs one chunk, every trial of it hits the restart cap, and the run
    fails there instead of running GROUP_ROWS trials to the cap first."""
    calls = []

    def counted(cfg, alice, bob, chunk, trials, sink):
        calls.append(trials)
        return run_chunk(cfg, alice, bob, chunk, trials, sink)

    monkeypatch.setattr(harness, "run_chunk", counted)
    with pytest.raises(RestartBudgetExceeded):
        run_experiment(ExperimentConfig(protocol=ProtocolId.AMBAINIS_CF,
                                        alice="send_nothing", trials=20_000))
    assert calls == [CHUNK]


def _scripted_calls(trials, hits, seed):
    """One (verdict, coin, restarts) per engine call of a run of `trials`:
    one chunk, then the rest in one call, as int8, int8 and int64 arrays.
    Decisions end a trial or put it over the limit (hits[i] of them in call
    i, 0 restarts each); coins are bits, and restarts run up to 40."""
    r = np.random.default_rng(seed)
    calls = []
    for n, over in zip((CHUNK, trials - CHUNK), hits):
        verdict = r.integers(0, 2, n).astype(np.int8)  # ACCEPTED or ABORT_CHEATER
        verdict[r.choice(n, over, replace=False)] = Decision.REQUEST_RESTART
        restarts = np.where(verdict == Decision.REQUEST_RESTART, 0,
                            r.integers(0, 41, n))
        calls.append((verdict, r.integers(0, 2, n).astype(np.int8), restarts))
    return calls


@pytest.mark.parametrize("target", [0, 1])
@pytest.mark.parametrize("hits", [(0, 0), (1, 2), (3, 0)],
                         ids=["no_hits", "hits_in_both_calls", "hits_at_budget"])
def test_the_tally_follows_its_definitions(monkeypatch, target, hits):
    """run_experiment tallies what the engine returns: a success is an
    ACCEPTED trial whose coin is the target, an abort an ABORT_CHEATER trial,
    a limit hit a trial left at REQUEST_RESTART, and restart_total the sum
    of the restarts; up to 0.1% of the trials (3 of 3,000) may hit the
    limit."""
    trials = 3000
    calls = _scripted_calls(trials, hits, seed=target)
    script = iter(calls)
    monkeypatch.setattr(harness, "run_chunk", lambda *args: next(script))
    est = run_experiment(ExperimentConfig(trials=trials, target=target))
    verdict, coin, restarts = map(np.concatenate, zip(*calls))
    assert est == BiasEstimate(
        successes=int(((verdict == Decision.ACCEPTED) & (coin == target)).sum()),
        aborts=int((verdict == Decision.ABORT_CHEATER).sum()),
        restart_total=int(restarts.sum()), trials=trials, limit_hits=sum(hits))
    assert 0 < est.successes < est.trials - est.aborts
    assert next(script, None) is None


@pytest.mark.parametrize("hits, calls", [((4, 0), 1), ((2, 2), 2)],
                         ids=["first_call", "second_call"])
def test_the_budget_fails_at_the_call_that_passes_it(monkeypatch, hits, calls):
    """With 3 of 3,000 trials allowed over the limit, RestartBudgetExceeded
    is raised by the first engine call that takes the running count past 3,
    and no later call is made."""
    script = iter(_scripted_calls(3000, hits, seed=5))
    made = []

    def engine(*args):
        made.append(args[4])  # the call's trials
        return next(script)

    monkeypatch.setattr(harness, "run_chunk", engine)
    with pytest.raises(RestartBudgetExceeded, match="4 of 3000"):
        run_experiment(ExperimentConfig(trials=3000))
    assert made == [CHUNK, 3000 - CHUNK][:calls]


@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_vacuum_facing_a_restarting_bob_exceeds_the_budget(eta):
    """Vacuum never arrives, whichever loss rule Bob's declaration picks."""
    cfg = ExperimentConfig(protocol=ProtocolId.AMBAINIS_CF, alice="send_nothing",
                           trials=200, seed=9, eta=eta)
    assert build_hooks(cfg)[1].restarts_on_loss
    with pytest.raises(RestartBudgetExceeded):
        run_experiment(cfg)


def test_restart_on_loss_counts_are_eta_invariant():
    """Structural, not evidence for the paper's loss-tolerance claim: a Bob
    who restarts on every loss sees each attempt delivered, and the channel
    only adds a Geometric(eta) count of lost rounds before it. So for every
    such pairing (successes, aborts) at one seed equal the eta = 1 counts
    exactly, and restart_total lies within 5 sigma of A/eta - n, where A is
    the eta = 1 count of attempts, n + its restart_total, and sigma is
    sqrt(A (1 - eta)) / eta."""
    n = 2000
    checked = 0
    for cfg in valid_configs(seed=7, trials=n):
        if cfg.alice == "send_nothing" or not build_hooks(cfg)[1].restarts_on_loss:
            continue
        ideal = run_experiment(cfg)
        attempts = n + ideal.restart_total
        for eta in (0.5, 0.05):
            est = run_experiment(dataclasses.replace(cfg, eta=eta))
            assert (est.successes, est.aborts, est.limit_hits) == (
                ideal.successes, ideal.aborts, 0), (cfg, eta)
            assert_z(est.restart_total, attempts / eta - n,
                     math.sqrt(attempts * (1.0 - eta)) / eta, f"{cfg} eta {eta}:")
        checked += 1
    assert checked == 80


def test_estimate_to_dict_field_order():
    cfg = ExperimentConfig(trials=100, seed=3)
    est = run_experiment(cfg)
    d = estimate_to_dict(cfg, est)
    assert list(d) == ["protocol", "variant", "alice", "bob", "target",
                       "trials", "seed", "alpha2", "eta", "successes",
                       "failures", "aborts", "restart_total", "p_hat", "ci95",
                       "bias_hat", "limit_hits", "max_restarts",
                       "photon_count"]
    assert d["protocol"] == "loss_tolerant"
    assert d["variant"] == "default"
    assert d["successes"] + d["failures"] == d["trials"]
    # both inputs that change the counts without naming the strategies
    given = ExperimentConfig(max_restarts=7, photon_count=2)
    d = estimate_to_dict(given, est)
    assert (d["max_restarts"], d["photon_count"]) == (7, 2)
    # the record names the variant the config was given, not its resolved
    # flags, and alpha2 only where the protocol's family reads it
    for protocol in ProtocolId:
        given = ExperimentConfig(protocol=protocol)
        assert estimate_to_dict(given, est)["variant"] == "default"
        assert estimate_to_dict(given, est)["alpha2"] == (
            0.9 if protocol is ProtocolId.LOSS_TOLERANT_CF else None)
    given = ExperimentConfig(variant=VARIANT_NAMES["restart_measure"])
    assert estimate_to_dict(given, est)["variant"] == "restart_measure"


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


def test_matrix_expectations_come_from_the_reference_table():
    oracle = dict(reference_table())
    rows = check_matrix(trials=100, seed=1)
    for row in rows:
        assert row.expected == oracle[row.reference], row.label
    assert {"bb84_epr_success", "ambainis_conclusive_success",
            "send_nothing_success"} <= {row.reference for row in rows}
    # exact rows are the certain successes, matched to the last count
    assert [row.label for row in rows if row.exact] == [
        "bb84_epr", "ambainis_bob_conclusive", "ambainis_send_nothing",
        "twophoton_usd_correct"]


def test_limit_hits_are_counted():
    """Honest loss-tolerant trials at eta = 0.5 exceed 10 restarts with
    probability 2**-11 (about 49 of 100,000, under the budget of 100); each
    is counted and gets no transcript."""
    cfg = ExperimentConfig(trials=100_000, seed=12345, eta=0.5, max_restarts=10)
    kept = []
    est = run_experiment(cfg, transcript_sink=kept.append)
    assert est.limit_hits == cfg.trials - len(kept)
    p = 2.0 ** -11
    assert_z(est.limit_hits / cfg.trials, p, sigma("frequency", p, cfg.trials))
    assert all(t.restart_count <= 10 for t in kept)
    assert estimate_to_dict(cfg, est)["limit_hits"] == est.limit_hits


# (successes, aborts, restart_total) of each distinct matrix config at 2,000
# trials and seed 7, keyed by the first row that uses it. A change that
# reorders random draws must update these on purpose.
GOLDEN_COUNTS = {
    "bb84_postpone_lie": (1762, 238, 0),
    "bb84_rotated": (1861, 139, 0),
    "bb84_epr": (2000, 0, 0),
    "ambainis_alice_optimal": (1490, 510, 0),
    "ambainis_bob_conclusive": (2000, 0, 2063),
    "ambainis_send_nothing": (2000, 0, 0),
    "lt_alice_optimal": (1785, 215, 0),
    "lt_bob_helstrom": (1805, 0, 0),
    "mcqm_bob_restart": (1923, 0, 1970),
    "cunning_son_agreement": (1642, 0, 0),
    "twophoton_usd_rate": (2000, 0, 1096),
    "twophoton_honest_rate": (2000, 0, 4344),
}


def _matrix_counts() -> dict:
    labels = {}
    for row in check_matrix(2000, 7):
        labels.setdefault(row.cfg, row.label)
    counts = {}
    for cfg, label in labels.items():
        est = run_experiment(cfg)
        counts[label] = (est.successes, est.aborts, est.restart_total)
    return counts


def test_matrix_counts_are_pinned():
    assert _matrix_counts() == GOLDEN_COUNTS


def test_pinned_counts_meet_their_matrix_rows():
    """Each pinned tuple is within 5 sigma of the closed form of every check
    row of its config; exact rows (sigma 0) hold to the count."""
    n = 2000
    labels = {}
    for row in check_matrix(n, 7):
        label = labels.setdefault(row.cfg, row.label)
        est = BiasEstimate(*GOLDEN_COUNTS[label], n, 0)
        assert_metric(est, row.metric, row.expected, f"{row.label} {row.metric}:")


def test_evaluate_matrix_small_run_structure():
    results = evaluate_matrix(trials=2000, seed=8, tolerance=0.1)
    assert len(results) == 15
    for r in results:
        assert set(r) == {"label", "metric", "measured", "expected", "ok"}
        assert r["ok"], r


# The counts of every (protocol, variant name, Alice, Bob, photon count) that
# constructs, at eta 0.5, seed 7 and 200 trials: 102 configs, including
# pairings no other pin covers, one JSON row per line. A change that reorders
# random draws must update the file on purpose, and its diff shows each
# pairing that moved.
PAIRINGS = 102
GOLDEN_PAIRINGS = pathlib.Path(__file__).parent / "golden" / "pairings.json"


def test_every_valid_pairing_is_pinned():
    """Each pairing's row: protocol, variant, Alice, Bob and photons, then
    successes, aborts, restarts and limit hits, or "budget"."""
    variant = {flags: name for name, flags in VARIANT_NAMES.items()}
    counts = []
    for cfg in valid_configs(eta=0.5, seed=7, trials=200):
        try:
            est = run_experiment(cfg)
            got = [est.successes, est.aborts, est.restart_total, est.limit_hits]
        except RestartBudgetExceeded:
            got = "budget"
        counts.append([cfg.protocol.value, variant[cfg.variant], cfg.alice, cfg.bob,
                       cfg.photon_count, got])
    assert len(counts) == PAIRINGS
    rows = "[\n" + ",\n".join(map(json.dumps, counts)) + "\n]\n"
    assert GOLDEN_PAIRINGS.read_text() == rows


def test_a_transcript_sink_changes_no_count():
    """Every pinned pairing that concludes gives the same estimate with a
    transcript sink as without, and one transcript per finished trial."""
    for cfg in valid_configs(eta=0.5, seed=7, trials=200):
        try:
            est = run_experiment(cfg)
        except RestartBudgetExceeded:
            continue
        kept = []
        assert run_experiment(cfg, transcript_sink=kept.append) == est, cfg
        assert len(kept) == cfg.trials - est.limit_hits


def _tallies(verdict, coin, restarts, target):
    finished = verdict != Decision.REQUEST_RESTART
    return np.array([np.count_nonzero((verdict == Decision.ACCEPTED) & (coin == target)),
                     np.count_nonzero(verdict == Decision.ABORT_CHEATER),
                     restarts[finished].sum(), len(verdict) - finished.sum()])


# one config per registry entry, over three chunks, the last one partial;
# send_nothing believes on faith, as every round restarts under restart on loss
ENTRY_CONFIGS = {
    f"{side.value}:{name}": ExperimentConfig(
        protocol=spec.protocols[0], photon_count=spec.min_photons, target=1,
        variant=(VARIANT_NAMES["believe_on_faith"] if name == "send_nothing"
                 else (spec.variants or (None,))[0]),
        eta=0.5, seed=7, trials=2100, **{side.value: name})
    for side, entries in REGISTRY.items() for name, spec in entries.items()}


@pytest.mark.parametrize("cfg", ENTRY_CONFIGS.values(), ids=ENTRY_CONFIGS.keys())
def test_hooks_built_once_count_as_fresh_hooks_per_chunk(cfg):
    """run_experiment builds its hooks once; its tallies equal those of the
    same chunks run on fresh hooks each, so no hook keeps state across steps."""
    assert cfg.trials % CHUNK and cfg.trials // CHUNK == 2
    est = run_experiment(cfg)
    fresh = sum(_tallies(*run_chunk(cfg, *build_hooks(cfg), start // CHUNK,
                                    min(CHUNK, cfg.trials - start)), cfg.target)
                for start in range(0, cfg.trials, CHUNK))
    assert fresh.tolist() == [est.successes, est.aborts, est.restart_total,
                              est.limit_hits]


# chunks per engine call after the first, which runs one chunk: one, two,
# seven, and every other chunk in one call (one chunk, then all the rest)
GROUPS = {"1": 1, "2": 2, "7": 7, "all": 1 << 20}
MANY_CHUNKS = 9 * CHUNK + 300  # ten chunks, the last one partial


@pytest.fixture(params=GROUPS.values(), ids=GROUPS.keys())
def engine_calls(request, monkeypatch):
    """Sets the chunks per engine call and records, per call, its trials
    over the restart limit."""
    monkeypatch.setattr(harness, "GROUP_ROWS", request.param * CHUNK)
    hits = []

    def counted(*args, **kw):
        verdict, coin, restarts = run_chunk(*args, **kw)
        hits.append(int(np.count_nonzero(verdict == Decision.REQUEST_RESTART)))
        return verdict, coin, restarts

    monkeypatch.setattr(harness, "run_chunk", counted)
    return request.param, hits


def test_matrix_counts_are_pinned_for_every_group(engine_calls):
    assert _matrix_counts() == GOLDEN_COUNTS


# Runs over MANY_CHUNKS trials, whose counts and transcript bytes every group
# size must give exactly. limit_hits: honest trials at eta = 0.5 past 10
# restarts (2**-11 each) on the geometric loss rule; restart abuse claims
# loss falsely on the Bernoulli rule, and the two-photon apparatus restarts
# on inconclusive pairs.
GROUPED_RUNS = {
    "limit_hits": dict(eta=0.5, max_restarts=10),
    "restart_abuse": dict(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                          bob="ambainis_restart_abuse", target=1, eta=0.5),
    "twophoton_apparatus": dict(alice="honest_pulse", photon_count=2, eta=0.5,
                                bob="twophoton_honest_apparatus", target=1),
}


def test_group_size_changes_no_count_or_transcript_byte(monkeypatch):
    runs = {}
    for chunks in GROUPS.values():
        monkeypatch.setattr(harness, "GROUP_ROWS", chunks * CHUNK)
        for label, kw in GROUPED_RUNS.items():
            digest = hashlib.sha256()
            est = run_experiment(
                ExperimentConfig(trials=MANY_CHUNKS, seed=2025, **kw),
                transcript_sink=lambda t: digest.update(
                    (json.dumps(t.to_dict()) + "\n").encode()))
            runs.setdefault(label, []).append((est, digest.hexdigest()))
    for label, results in runs.items():
        assert results == results[:1] * len(GROUPS), label
    assert runs["limit_hits"][0][0].limit_hits > 0


def test_limit_hits_fall_in_several_engine_calls(engine_calls):
    chunks, hits = engine_calls
    est = run_experiment(ExperimentConfig(trials=MANY_CHUNKS, seed=2025,
                                          **GROUPED_RUNS["limit_hits"]))
    assert len(hits) == 1 + -(-9 // chunks)  # one chunk, then the other nine
    assert sum(hits) == est.limit_hits
    if len(hits) > 1:
        assert sum(h > 0 for h in hits) > 1


def test_restart_budget_fails_after_the_first_group_over_it(engine_calls):
    """Honest trials at eta = 0.5 pass 7 restarts with probability 2**-8,
    about four per chunk against a budget of 0.1% of all trials (9.5): the run
    fails right after the first engine call that takes the tally over."""
    chunks, hits = engine_calls
    cfg = ExperimentConfig(trials=MANY_CHUNKS, seed=2025, eta=0.5, max_restarts=7)
    with pytest.raises(RestartBudgetExceeded):
        run_experiment(cfg)
    tally = np.cumsum(hits)
    assert tally[-1] > 0.001 * cfg.trials >= tally[:-1].max(initial=0)
    if chunks == 1:
        assert len(hits) > 1
