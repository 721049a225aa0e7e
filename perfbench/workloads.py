"""The benchmark's workloads: their experiment configs, one timed pass each,
and the correctness gates that every pass must meet.

Configs are built only from the package's stable public names
(ExperimentConfig, ProtocolId, VariantFlags, LossPolicy), and passes call
only cli_main, run_experiment with its transcript_sink, and Transcript.to_dict,
so the numbers stay comparable when the engine behind them is replaced.

Every expected value below is a closed form written out here, independent of
the package's own reference table. Statistical gates are |measured - expected|
<= 5 sigma at the pass's trial count; sigma is zero for expectations of 0 or
1, which makes those gates exact.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Callable

FAIR = 0.9  # alpha^2 at which both optimal biases equal 0.4
Z = 5.0


def lt_alice_success(alpha2: float) -> float:
    return (3.0 + 2.0 * math.sqrt(alpha2 * (1.0 - alpha2))) / 4.0


def restarts(eta: float) -> float:
    """Mean restarts per trial when only channel loss forces them."""
    return (1.0 - eta) / eta


def sigma(metric: str, expected: float, n: int) -> float:
    if metric in ("p_hat", "abort_rate"):
        return math.sqrt(expected * (1.0 - expected) / n)
    if metric == "restarts_per_trial":  # geometric, per-round success 1/(1+r)
        return math.sqrt(expected * (1.0 + expected) / n)
    if metric == "conclusive_rate":  # delta method on trials / rounds
        return expected * math.sqrt((1.0 - expected) / n)
    raise KeyError(metric)


def measured(metric: str, counts: tuple[int, int, int], n: int) -> float:
    successes, aborts, restart_total = counts
    return {
        "p_hat": successes / n,
        "abort_rate": aborts / n,
        "restarts_per_trial": restart_total / n,
        "conclusive_rate": n / (n + restart_total),
    }[metric]


def gate(metric: str, value: float, expected: float, n: int) -> bool:
    return abs(value - expected) <= Z * sigma(metric, expected, n) + 1e-12


@dataclass(frozen=True)
class Case:
    """One experiment config and the (metric, expected) pairs it must meet."""
    label: str
    cfg: object
    expect: tuple[tuple[str, float], ...]


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", flush=True)


def digest(obj) -> str:
    """Short digest of a JSON-serialisable value, e.g. the per-config counts
    (successes, aborts, restart_total)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def make_cfg(cf, seed: int, trials: int, protocol: str = "loss_tolerant",
             variant: tuple[str, bool] | None = None, **kw):
    flags = None if variant is None else cf.VariantFlags(cf.LossPolicy(variant[0]),
                                                         variant[1])
    return cf.ExperimentConfig(protocol=cf.ProtocolId(protocol), variant=flags,
                               trials=trials, seed=seed, **kw)


# ---------------------------------------------------------------------------
# plans: the configs of each workload

_HONEST = (("p_hat", 0.5), ("abort_rate", 0.0))


def matrix_plan(cf, seed: int, n: int) -> list[Case]:
    """The twelve distinct configs behind `coinflip table`, keyed by the label
    of their first check row; `expect` holds every row of that config."""
    def c(**kw):
        return make_cfg(cf, seed, n, alpha2=FAIR, **kw)
    r2 = math.sqrt(2.0)
    usd = dict(alice="honest_pulse", target=1, photon_count=2)
    return [
        Case("bb84_postpone_lie", c(protocol="bb84", alice="bb84_postpone_lie"),
             (("p_hat", 0.875),)),
        Case("bb84_rotated", c(protocol="bb84", alice="bb84_rotated"),
             (("p_hat", (6.0 + r2) / 8.0), ("abort_rate", (2.0 - r2) / 8.0))),
        Case("bb84_epr", c(protocol="bb84", alice="bb84_epr", target=1),
             (("p_hat", 1.0),)),
        Case("ambainis_alice_optimal",
             c(protocol="ambainis", alice="ambainis_optimal"), (("p_hat", 0.75),)),
        Case("ambainis_bob_conclusive",
             c(protocol="ambainis_variant", variant=("restart_on_loss", True),
               bob="ambainis_conclusive", target=1),
             (("p_hat", 1.0), ("restarts_per_trial", 1.0))),
        Case("ambainis_send_nothing",
             c(protocol="ambainis_variant", variant=("believe_on_faith", False),
               alice="send_nothing", target=1), (("p_hat", 1.0),)),
        Case("lt_alice_optimal", c(alice="lt_optimal"),
             (("p_hat", lt_alice_success(FAIR)),)),
        Case("lt_bob_helstrom", c(bob="lt_helstrom", target=1), (("p_hat", FAIR),)),
        Case("mcqm_bob_restart",
             c(protocol="mcqm_contrived", bob="mcqm_restart", target=1),
             (("p_hat", 0.49 / 0.51),)),
        Case("cunning_son_agreement", c(bob="cunning_son", target=0),
             (("p_hat", 0.5 + 0.5 * (2.0 * FAIR - 1.0) ** 2),)),
        Case("twophoton_usd_rate", c(bob="twophoton_usd", **usd),
             (("conclusive_rate", (2.0 * FAIR - 1.0) ** 2), ("p_hat", 1.0))),
        Case("twophoton_honest_rate", c(bob="twophoton_honest_apparatus", **usd),
             (("conclusive_rate", 0.5 * (2.0 * FAIR - 1.0) ** 2),)),
    ]


# The check rows `coinflip table` prints: row label -> (config label, metric).
MATRIX_ROWS = {
    "bb84_postpone_lie": ("bb84_postpone_lie", "p_hat"),
    "bb84_rotated": ("bb84_rotated", "p_hat"),
    "bb84_rotated_caught": ("bb84_rotated", "abort_rate"),
    "bb84_epr": ("bb84_epr", "p_hat"),
    "ambainis_alice_optimal": ("ambainis_alice_optimal", "p_hat"),
    "ambainis_bob_conclusive": ("ambainis_bob_conclusive", "p_hat"),
    "ambainis_bob_conclusive_restarts": ("ambainis_bob_conclusive",
                                         "restarts_per_trial"),
    "ambainis_send_nothing": ("ambainis_send_nothing", "p_hat"),
    "lt_alice_optimal": ("lt_alice_optimal", "p_hat"),
    "lt_bob_helstrom": ("lt_bob_helstrom", "p_hat"),
    "mcqm_bob_restart": ("mcqm_bob_restart", "p_hat"),
    "cunning_son_agreement": ("cunning_son_agreement", "p_hat"),
    "twophoton_usd_rate": ("twophoton_usd_rate", "conclusive_rate"),
    "twophoton_usd_correct": ("twophoton_usd_rate", "p_hat"),
    "twophoton_honest_rate": ("twophoton_honest_rate", "conclusive_rate"),
}

MATRIX_CONFIGS = tuple(dict.fromkeys(config for config, _ in MATRIX_ROWS.values()))

LOSSY_ETAS = (0.05, 0.1, 0.2)


def lossy_plan(cf, seed: int, n: int) -> list[Case]:
    cases = []
    for eta in LOSSY_ETAS:
        r = (("restarts_per_trial", restarts(eta)),)
        cases += [
            Case(f"honest@{eta}", make_cfg(cf, seed, n, eta=eta), _HONEST + r),
            Case(f"lt_optimal@{eta}", make_cfg(cf, seed, n, eta=eta, alice="lt_optimal"),
                 (("p_hat", lt_alice_success(FAIR)),) + r),
            Case(f"lt_helstrom@{eta}",
                 make_cfg(cf, seed, n, eta=eta, bob="lt_helstrom", target=1),
                 (("p_hat", FAIR),) + r),
        ]
    return cases


LOSSLESS_PROTOCOLS = ("bb84", "ambainis", "ambainis_variant", "loss_tolerant",
                      "mcqm_contrived")
LOSSLESS_ALPHA2 = (0.55, 0.65, 0.75, 0.85, 0.95)


def lossless_plan(cf, seed: int, n: int) -> list[Case]:
    none = (("restarts_per_trial", 0.0),)
    cases = [Case(f"honest:{p}", make_cfg(cf, seed, n, protocol=p), _HONEST + none)
             for p in LOSSLESS_PROTOCOLS]
    cases += [Case(f"lt_optimal@a2={a2}", make_cfg(cf, seed, n, alpha2=a2,
                                                   alice="lt_optimal"),
                   (("p_hat", lt_alice_success(a2)),) + none)
              for a2 in LOSSLESS_ALPHA2]
    return cases


TRANSCRIPT_ETA = 0.5


def transcripts_plan(cf, seed: int, n: int) -> list[Case]:
    r = (("restarts_per_trial", restarts(TRANSCRIPT_ETA)),)
    return [
        Case("honest", make_cfg(cf, seed, n, eta=TRANSCRIPT_ETA), _HONEST + r),
        Case("lt_helstrom", make_cfg(cf, seed, n, eta=TRANSCRIPT_ETA,
                                     bob="lt_helstrom", target=1),
             (("p_hat", FAIR),) + r),
    ]


# ---------------------------------------------------------------------------
# passes: `steps` lists the timed sections of a pass, each (label, thunk),
# run in order; the pass's output maps every label to its thunk's result.
# `check` validates that output untimed.


def _counts(est) -> tuple[int, int, int]:
    return (est.successes, est.aborts, est.restart_total)


def check_cases(plan: list[Case], counts: dict, checks: Checks) -> None:
    for case in plan:
        n = case.cfg.trials
        for metric, expected in case.expect:
            value = measured(metric, counts[case.label], n)
            checks.add(gate(metric, value, expected, n),
                       f"{case.label} {metric}={value} expected {expected}")


def experiment_steps(cf, cli, plan):
    return [(case.label, functools.partial(cf.harness.run_experiment, case.cfg))
            for case in plan]


def check_experiments(plan, out, checks):
    counts = {label: _counts(est) for label, est in out.items()}
    check_cases(plan, counts, checks)
    return counts, counts


def run_with_sink(cf, cfg):
    buf = io.StringIO()
    est = cf.harness.run_experiment(
        cfg, transcript_sink=lambda t: buf.write(json.dumps(t.to_dict()) + "\n"))
    return est, buf.getvalue()


def transcript_steps(cf, cli, plan):
    return [(case.label, functools.partial(run_with_sink, cf, case.cfg))
            for case in plan]


def check_transcripts(plan, out, checks):
    counts, observed = {}, {}
    for case in plan:
        est, text = out[case.label]
        observed[case.label] = hashlib.sha256(text.encode()).hexdigest()
        records = [json.loads(line) for line in text.splitlines()]
        target = case.cfg.target
        rebuilt = (
            sum(r["verdict"] == "accepted" and r["outcome"] == target for r in records),
            sum(r["verdict"] == "abort_cheater" for r in records),
            sum(r["restart_count"] for r in records),
        )
        counts[case.label] = _counts(est)
        checks.add(len(records) == case.cfg.trials,
                   f"{case.label}: {len(records)} transcripts for {case.cfg.trials} trials")
        checks.add(all(len(r["rounds"]) == r["restart_count"] + 1 for r in records),
                   f"{case.label}: a transcript has len(rounds) != restart_count + 1")
        checks.add(rebuilt == counts[case.label],
                   f"{case.label}: tallies from transcripts {rebuilt} != {counts[case.label]}")
    check_cases(plan, counts, checks)
    return counts, observed


def matrix_argv(seed: int, n: int) -> list[str]:
    # The CLI applies one tolerance to every row; the widest 5-sigma band
    # (restarts_per_trial, sigma = sqrt(2/n)) keeps its exit code meaningful
    # at small n. Each row is gated at its own 5 sigma in check_matrix.
    tol = Z * math.sqrt(2.0 / n)
    return ["table", "--trials", str(n), "--seed", str(seed), "--check",
            "--tol", repr(tol)]


def run_table(cli, plan):
    buf = io.StringIO()
    code = cli.cli_main(matrix_argv(plan[0].cfg.seed, plan[0].cfg.trials), out=buf)
    return code, buf.getvalue()


def matrix_steps(cf, cli, plan):
    return [("table", functools.partial(run_table, cli, plan))]


def check_matrix(plan, out, checks):
    code, text = out["table"]
    checks.add(code == 0, f"coinflip table exited {code}")
    expected = {case.label: dict(case.expect) for case in plan}
    rows = {r["label"]: r for r in map(json.loads, text.splitlines())}
    checks.add(set(rows) == set(MATRIX_ROWS),
               f"table rows {sorted(rows)} differ from {sorted(MATRIX_ROWS)}")
    n = plan[0].cfg.trials
    for label, (config, metric) in MATRIX_ROWS.items():
        if label in rows:
            e = expected[config][metric]
            checks.add(gate(metric, rows[label]["measured"], e, n),
                       f"table row {label}: {rows[label]['measured']} expected {e}")
    return None, text  # per-config counts come from verify_matrix


def verify_matrix(cf, plan, text: str, checks: Checks) -> dict:
    """Per-config counts of the table's configs, run through run_experiment;
    every table row must equal the value those counts give."""
    counts = {case.label: _counts(cf.harness.run_experiment(case.cfg)) for case in plan}
    rows = {r["label"]: r for r in map(json.loads, text.splitlines())}
    n = plan[0].cfg.trials
    for label, (config, metric) in MATRIX_ROWS.items():
        value = measured(metric, counts[config], n)
        checks.add(label in rows and rows[label]["measured"] == value,
                   f"table row {label} does not match run_experiment ({value})")
    return counts


def warm_experiments(cf, cli, plan):
    for case in plan:
        cf.harness.run_experiment(replace(case.cfg, trials=1))


def warm_matrix(cf, cli, plan):
    cli.cli_main(["table", "--trials", "1", "--seed", str(plan[0].cfg.seed)],
                 out=io.StringIO())


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int  # per config, at the committed settings
    plan: Callable
    steps: Callable
    check: Callable
    warm: Callable


WORKLOADS = {w.name: w for w in (
    Workload("matrix", 200, matrix_plan, matrix_steps, check_matrix, warm_matrix),
    Workload("lossy", 800, lossy_plan, experiment_steps, check_experiments,
             warm_experiments),
    Workload("lossless", 400, lossless_plan, experiment_steps, check_experiments,
             warm_experiments),
    Workload("transcripts", 1500, transcripts_plan, transcript_steps,
             check_transcripts, warm_experiments),
)}
