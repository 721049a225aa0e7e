"""coinflip benchmark: one workload per run, correctness-checked.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics: the workload's pass repeats on the
same inputs for --seconds, with fresh set-ups (import of the package, config
construction and a warm-up trial per config) timed between passes; every
section is timed between two runs of a fixed reference work (reference.py)
and the median pass and set-up are reported in reference seconds, which the
host's speed does not move. --trace 1 runs one
untraced and one traced pass and prints the per-layer metrics. --smoke runs
every workload in both modes at a tiny trial count and checks the metric
names and units against BENCHMARK.json.

The package is imported from src/ next to this directory; the run refuses to
start without it. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import os

# One process and no worker threads: pin numerical libraries before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from reference import ReferenceClock
from tracer import Tracer
from workloads import MATRIX_CONFIGS, WORKLOADS, Checks, digest, verify_matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUPS = 30
SMOKE_TRIALS = 12


# ---------------------------------------------------------------------------
# set-up and passes

def load_package():
    """Import coinflip afresh from SRC (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "coinflip" or n.startswith("coinflip.")]:
        del sys.modules[name]
    cf = importlib.import_module("coinflip")
    cli = importlib.import_module("coinflip.cli")
    if not Path(cf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"coinflip imported from {cf.__file__}, not from {SRC}")
    return cf, cli


def setup(wl, seed: int, trials: int):
    cf, cli = load_package()
    plan = wl.plan(cf, seed, trials)
    wl.warm(cf, cli, plan)
    return cf, cli, plan


def guarded_pass(wl, cf, cli, plan, checks: Checks, run_step=None):
    """Output of one pass ({step label: result}), or None if a step raised.
    run_step(thunk), if given, runs each step and returns its result."""
    out = {}
    try:
        for label, thunk in wl.steps(cf, cli, plan):
            out[label] = run_step(thunk) if run_step else thunk()
    except Exception:  # a raised error is a failed check, not a crash
        traceback.print_exc()
        checks.add(False, f"{wl.name} pass raised")
        return None
    return out


def clocked_pass(clock: ReferenceClock, wl, cf, cli, plan, checks: Checks):
    """(wall seconds, reference seconds, output) of one pass. Each step is
    timed on its own between reference runs, so that a change of host speed
    within a long pass is tracked."""
    wall = ref = 0.0

    def run_step(thunk):
        nonlocal wall, ref
        w, r, result = clock.time(thunk)
        wall += w
        ref += r
        return result

    out = guarded_pass(wl, cf, cli, plan, checks, run_step)
    return wall, ref, out


def timed_pass(wl, cf, cli, plan, checks: Checks):
    """(wall seconds, output) of one pass."""
    t0 = time.perf_counter()
    out = guarded_pass(wl, cf, cli, plan, checks)
    return time.perf_counter() - t0, out


def finish_counts(wl, cf, plan, out, counts, checks):
    """Per-config counts; the matrix pass prints rows, so its counts come
    from verify_matrix, which also ties every row to them."""
    if wl.name == "matrix" and out is not None:
        return verify_matrix(cf, plan, out["table"][1], checks)
    return counts or {}


def rounds_of(plan, counts) -> int:
    return sum(c.cfg.trials + counts.get(c.label, (0, 0, 0))[2] for c in plan)


# ---------------------------------------------------------------------------
# the two modes

def spread(v: list[float]) -> str:
    q = statistics.quantiles(v, n=4) if len(v) >= 2 else v * 3
    return f"median {q[1]:.4f} s, quartiles {q[0]:.4f}..{q[2]:.4f} s"


def run_untraced(wl, seed: int, seconds: float, trials: int):
    """Passes until `seconds` have passed; SETUPS fresh set-ups are spread
    evenly over that time, between passes, so both are sampled across the
    whole run. (Each fresh import leaves one module generation behind, so
    every run makes exactly SETUPS of them to keep peak_rss_mb comparable.)
    Every set-up and pass is timed by a ReferenceClock, in wall and in
    reference seconds."""
    checks = Checks()
    clock = ReferenceClock()
    wall = {"setup": [], "pass": []}
    ref = {"setup": [], "pass": []}

    def timed_setup():
        w, r, loaded = clock.time(lambda: setup(wl, seed, trials))
        wall["setup"].append(w)
        ref["setup"].append(r)
        return loaded

    first, counts, out = None, None, None
    start = time.perf_counter()
    while len(ref["pass"]) < MIN_PASSES or time.perf_counter() < start + seconds:
        while (len(ref["setup"]) < SETUPS and time.perf_counter()
               >= start + seconds * len(ref["setup"]) / SETUPS):
            cf, cli, plan = timed_setup()
        w, r, out = clocked_pass(clock, wl, cf, cli, plan, checks)
        wall["pass"].append(w)
        ref["pass"].append(r)
        if out is None:
            break
        counts, observed = wl.check(plan, out, checks)
        fp = digest(observed)
        if first is None:
            first = fp
        else:
            checks.add(fp == first,
                       f"pass {len(ref['pass'])} output differs from pass 1")
    while len(ref["setup"]) < SETUPS:
        timed_setup()
    counts = finish_counts(wl, cf, plan, out, counts, checks)
    n_trials = sum(c.cfg.trials for c in plan)
    n_rounds = rounds_of(plan, counts)
    for name in ("setup", "pass"):
        print(f"{name}: {len(ref[name])} samples; wall {spread(wall[name])}; "
              f"reference {spread(ref[name])}", flush=True)
    print(f"{n_trials} trials, {n_rounds} rounds per pass", flush=True)
    print(f"output_digest {first}  counts_digest {digest(counts)}", flush=True)
    pass_s = statistics.median(ref["pass"])
    metrics = {
        "setup_s": statistics.median(ref["setup"]),
        "wall_s": pass_s,
        "trials_per_s": n_trials / pass_s,
        "rounds_per_s": n_rounds / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, checks


def install_layers(tr: Tracer, counters) -> None:
    """Spans at every layer the per-layer metrics name."""
    def on_split(args):
        if getattr(args[0], "_key", None) == ():  # root stream: trial i = split(i)
            tr.set_trial(int(args[1]))

    def on_experiment(args, est, seconds):
        counters.update(trials=est.trials, restarts=est.restart_total)

    def on_run(args, transcript, seconds):
        counters.update(runs=1, rounds=len(transcript.rounds))

    def on_transmit(args, delivered, seconds):
        counters.update(transmitted=1, delivered=delivered is not None)

    rng = ("coinflip.rng",)
    tr.patch_methods(rng, "split", "rng.split", before=on_split)
    for draw in ("random", "bit", "randint", "bernoulli", "sign", "choice"):
        tr.patch_methods(rng, draw, "rng.draw")
    tr.patch_function("coinflip.harness", "build_hooks", "harness.build_hooks")
    tr.patch_function("coinflip.harness", "run_experiment",
                      "harness.run_experiment", after=on_experiment)
    tr.patch_function("coinflip.discrimination", "computational_usd_ambainis",
                      "discrimination.computational_usd_ambainis")
    tr.patch_function("coinflip.protocols", "run", "protocols.run", after=on_run)
    tr.patch_methods(("coinflip.protocols",), "to_dict",
                     "protocols.Transcript.to_dict", classes=("Transcript",))
    hooks = ("coinflip.protocols", "coinflip.strategies")
    for side, methods in (("alice", ("prepare", "reveal")),
                          ("bob", ("receive", "choose_b", "verify"))):
        for method in methods:
            tr.patch_methods(hooks, method, f"strategies.{side}.{method}")
    for fn in ("measure_projective", "measure_povm", "density_of", "steer_epr"):
        tr.patch_function("coinflip.quantum", fn, f"quantum.{fn}")
    tr.patch_function("coinflip.channel", "transmit", "channel.transmit",
                      after=on_transmit)
    tr.patch_function("coinflip.cli", "cli_main", "cli.cli_main")


SPANS = ("rng.split", "rng.draw", "harness.build_hooks",
         "discrimination.computational_usd_ambainis", "protocols.run",
         "protocols.Transcript.to_dict",
         *(f"strategies.{m}" for m in ("alice.prepare", "alice.reveal",
                                       "bob.receive", "bob.choose_b", "bob.verify")),
         *(f"quantum.{f}" for f in ("measure_projective", "measure_povm",
                                    "density_of", "steer_epr")),
         "channel.transmit")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(wl, seed: int, trials: int):
    cf, cli, plan = setup(wl, seed, trials)
    checks = Checks()

    # Untraced pass, with run_experiment timed per config (a dozen calls).
    labels = {case.cfg: case.label for case in plan}
    config_rate = {}
    timer = Tracer()
    timer.patch_function("coinflip.harness", "run_experiment", "config",
                         after=lambda a, est, s: config_rate.__setitem__(
                             labels.get(a[0]), a[0].trials / s))
    try:
        wall_u, out_u = timed_pass(wl, cf, cli, plan, checks)
    finally:
        timer.uninstall()
    observed_u = wl.check(plan, out_u, checks)[1] if out_u is not None else None

    caches = [getattr(cf.catalog, fn, None) for fn in ("state", "basis")]
    for cache in caches:
        if hasattr(cache, "cache_clear"):
            cache.cache_clear()
    counters = Counter()
    tr = Tracer()
    install_layers(tr, counters)
    try:
        wall_t, out_t = timed_pass(wl, cf, cli, plan, checks)
    finally:
        tr.uninstall()
    counts = None
    if out_t is not None:
        counts, observed_t = wl.check(plan, out_t, checks)
        checks.add(digest(observed_t) == digest(observed_u),
                   "traced pass output differs from the untraced pass")
        print(f"output_digest {digest(observed_t)}", flush=True)
    counts = finish_counts(wl, cf, plan, out_t, counts, checks)
    print(f"counts_digest {digest(counts)}", flush=True)
    print(f"trace: {len(tr.start)} spans over {tr.trials_seen()} trial keys; "
          f"untraced {wall_u:.4f} s, traced {wall_t:.4f} s", flush=True)
    if tr.absent or timer.absent:
        print(f"absent (reported as 0): {tr.absent + timer.absent}", flush=True)

    totals = tr.totals()
    metrics = {}
    for span in SPANS:
        calls, self_s = totals.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
    metrics["harness.run_experiment.self_s"] = totals.get(
        "harness.run_experiment", (0, 0.0))[1]
    metrics["harness.restarts_per_trial"] = _share(counters["restarts"],
                                                   counters["trials"])
    for label in MATRIX_CONFIGS:
        metrics[f"harness.config.{label}.trials_per_s"] = config_rate.get(label, 0.0)
    metrics["protocols.rounds"] = counters["rounds"]
    metrics["protocols.conclusive_share"] = _share(counters["runs"], counters["rounds"])
    metrics["channel.delivered_share"] = _share(counters["delivered"],
                                                counters["transmitted"])
    for fn, cache in zip(("state", "basis"), caches):
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        metrics[f"catalog.{fn}.hit_share"] = (
            _share(info.hits, info.hits + info.misses) if info else 0.0)
    metrics["cli.cli_main.self_s"] = totals.get("cli.cli_main", (0, 0.0))[1]
    metrics["trace.overhead_s"] = wall_t - wall_u
    return metrics, checks


# ---------------------------------------------------------------------------
# output

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s",
                    "rounds_per_s": "1/s", "peak_rss_mb": "MB"}


UNIT_SUFFIXES = (("trials_per_s", "1/s"), (".calls", "count"), (".rounds", "count"),
                 ("_share", "ratio"), ("restarts_per_trial", "1/trial"), ("_s", "s"))


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return next(u for suffix, u in UNIT_SUFFIXES if name.endswith(suffix))


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def measure(name: str, seed: int, seconds: float, trace: bool, trials=None):
    wl = WORKLOADS[name]
    trials = trials or wl.trials
    print(f"workload {name}: seed {seed}, {trials} trials per config, "
          f"{'traced' if trace else 'untraced'}", flush=True)
    if trace:
        metrics, checks = run_traced(wl, seed, trials)
    else:
        metrics, checks = run_untraced(wl, seed, seconds, trials)
    print(f"failed_share {checks.failed / max(checks.attempted, 1)} "
          f"({checks.failed} of {checks.attempted} checks)", flush=True)
    for key, value in metrics.items():
        print(f"  {key} {value} {unit(key)}", flush=True)
    return metrics, checks


def result(metrics: dict, checks: Checks) -> dict:
    return {"correct": checks.failed == 0, "attempted": max(checks.attempted, 1),
            "failed": checks.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


def smoke() -> int:
    """Every workload at a tiny trial count, both modes; names and units
    must match BENCHMARK.json exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            metrics, checks = measure(name, 12345, 0.0, trace, SMOKE_TRIALS)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: unit(k) for k in metrics}
            if got != want or checks.failed:
                ok = False
                print(f"smoke {name} {section}: {checks.failed} failed checks; "
                      f"missing {sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}, unit mismatches "
                      f"{sorted(k for k in got if k in want and got[k] != want[k])}",
                      flush=True)
    print("smoke ok" if ok else "smoke FAILED", flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "coinflip" / "__init__.py").is_file():
        print(f"no coinflip source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"machine {json.dumps(machine())}", flush=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    metrics, checks = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result(metrics, checks)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
