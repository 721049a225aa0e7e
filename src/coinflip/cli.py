"""Command-line front end.

Subcommands:
  run    one experiment, JSON to stdout
  table  the full check matrix, measured vs closed-form values
  sweep  bias estimates across an alpha2 or eta grid (a run at each point)
  fair   the fair parameter point and both bias formulas

build_parser is the one table of subcommands: each names its options and
its handler there, and cli_main calls the handler the parsed subcommand
names. Run as `coinflip` or `python -m coinflip`.

Exit codes: 0 ok, 1 bad arguments, 2 table check mismatch, 3 restart budget
exceeded.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Optional, Sequence

from .catalog import Family
from .errors import CoinFlipError, IncompatibleProtocol, RestartBudgetExceeded
from .harness import ExperimentConfig, estimate_to_dict, run_experiment
from .protocols import PROTOCOLS, VARIANT_NAMES, ProtocolId
from .strategies import ALICE_STRATEGIES, BOB_STRATEGIES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_RESTART_BUDGET = 3


class _UsageError(CoinFlipError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    d = ExperimentConfig  # its field defaults
    p.add_argument("--protocol", choices=sorted(m.value for m in ProtocolId),
                   default=d.protocol.value)
    p.add_argument("--variant", choices=sorted(VARIANT_NAMES), default="default")
    p.add_argument("--alice", default=d.alice, choices=ALICE_STRATEGIES)
    p.add_argument("--bob", default=d.bob, choices=BOB_STRATEGIES)
    p.add_argument("--target", type=int, choices=(0, 1), default=d.target)
    p.add_argument("--trials", type=int, default=d.trials)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--alpha2", type=float, default=None,
                   help=f"loss-tolerant protocol only (default {d.alpha2})")
    p.add_argument("--eta", type=float, default=None, help=f"(default {d.eta})")
    p.add_argument("--max-restarts", type=int, default=d.max_restarts)
    p.add_argument("--photons", type=int, default=d.photon_count)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _config_from_args(args, **swept) -> ExperimentConfig:
    """The config of the run options, with --alpha2 and --eta where given and
    the swept parameter's value, if any; the config's defaults elsewhere."""
    protocol = ProtocolId(args.protocol)
    given = {k: v for k in ("alpha2", "eta") if (v := getattr(args, k)) is not None}
    given.update(swept)
    if "alpha2" in given and PROTOCOLS[protocol].family is not Family.LOSS_TOLERANT:
        raise IncompatibleProtocol(f"{protocol.value} does not read alpha2")
    return ExperimentConfig(
        protocol=protocol, variant=VARIANT_NAMES[args.variant], alice=args.alice,
        bob=args.bob, target=args.target, trials=args.trials, seed=args.seed,
        max_restarts=args.max_restarts, photon_count=args.photons, **given)


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
        return
    writer = csv.DictWriter(out, fieldnames=list(records[0].keys()))
    writer.writeheader()
    for rec in records:
        writer.writerow(rec)


def _cmd_run(args, out, points=({},)) -> int:
    """One record per point, each the run options with that point's swept
    value: a run is a sweep of one point, with nothing swept."""
    records = []
    for swept in points:
        cfg = _config_from_args(args, **swept)
        records.append(estimate_to_dict(cfg, run_experiment(cfg)))
    _emit(records, args.format, out)
    return EXIT_OK


def _cmd_table(args, out) -> int:
    from .matrix import evaluate_matrix  # the only reader of the check matrix
    results = evaluate_matrix(args.trials, args.seed, args.tol)
    _emit(results, args.format, out)
    if args.check and not all(r["ok"] for r in results):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_sweep(args, out) -> int:
    if getattr(args, args.param) is not None:
        raise _UsageError(f"--{args.param} is swept by --grid; do not give it too")
    lo, hi, n = args.grid
    # the last point is hi itself, which rounding can make the formula miss
    values = [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]
    return _cmd_run(args, out, [{args.param: value} for value in values])


def _cmd_fair(args, out) -> int:
    # the closed forms, off the run path: only `coinflip fair` reads them here
    from .analytics import alice_bias_bound, bob_bias, fair_alpha2, reference_table
    t = fair_alpha2()
    record = {
        "fair_alpha2": t,
        "alice_bias_bound": alice_bias_bound(t),
        "bob_bias": bob_bias(t),
        "reference": dict(reference_table()),
    }
    out.write(json.dumps(record, indent=2) + "\n")
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if n > 1 or (n == 1 and lo == hi):  # one point is both lo and hi
            return lo, hi, n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"grid must be lo:hi:n, n >= 1 points (lo == hi if n is 1), got {text!r}")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coinflip",
                     description="Loss-tolerant quantum coin flipping simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_run_options(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_table = sub.add_parser("table", help="measured vs closed-form matrix")
    # the one copy of the table's defaults: the check matrix takes every
    # argument, and building the parser does not import it
    p_table.add_argument("--trials", type=int, default=100_000)
    p_table.add_argument("--seed", type=int, default=12345)
    p_table.add_argument("--tol", type=float, default=0.01)
    p_table.add_argument("--check", action="store_true",
                         help="exit 2 if any row misses its expectation")
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.set_defaults(handler=_cmd_table)

    p_sweep = sub.add_parser("sweep", help="bias estimates across a grid")
    p_sweep.add_argument("--param", choices=("alpha2", "eta"), required=True)
    p_sweep.add_argument("--grid", type=_parse_grid, required=True,
                         metavar="LO:HI:N")
    _add_run_options(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fair = sub.add_parser("fair", help="print the fair parameter point")
    p_fair.set_defaults(handler=_cmd_fair)
    return parser


def cli_main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"coinflip: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args, out)
    except RestartBudgetExceeded as exc:
        print(f"coinflip: restart budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESTART_BUDGET
    except CoinFlipError as exc:
        print(f"coinflip: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())
