"""Command-line interface, exercised in this process through cli_main, and
through real processes for each exit code, for python -m coinflip itself and
for the usage errors whose point is that no traceback reaches stderr."""
import contextlib
import csv
import io
import json
import subprocess
import sys

import pytest

from coinflip.catalog import Family
from coinflip.cli import _config_from_args, build_parser, cli_main
from coinflip.harness import ExperimentConfig
from coinflip.protocols import PROTOCOLS

CLI = [sys.executable, "-m", "coinflip"]


def run_process(*args, check=False):
    """The CLI as a fresh process: its exit code, stdout and stderr."""
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def run_cli(*args, check=False):
    """The CLI called in this process through cli_main, with the exit code,
    stdout and stderr a process would give, as run_process returns them
    (test_one_process_answers_each_call_as_a_fresh_process checks that they
    agree)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(list(args), out=out)
    proc = subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_fair_subcommand():
    proc = run_cli("fair", check=True)
    record = json.loads(proc.stdout)
    assert record["fair_alpha2"] == pytest.approx(0.9, abs=1e-12)
    assert record["alice_bias_bound"] == pytest.approx(0.4, abs=1e-12)
    assert record["bob_bias"] == pytest.approx(0.4, abs=1e-12)
    assert record["reference"]["lt_fair_bias"] == pytest.approx(0.4)


def test_run_is_byte_identical_across_invocations():
    args = ("run", "--trials", "2000", "--seed", "31337")
    assert run_process(*args, check=True).stdout == run_process(*args, check=True).stdout


def test_run_json_schema():
    proc = run_cli("run", "--trials", "500", "--seed", "1", check=True)
    record = json.loads(proc.stdout)
    assert list(record) == ["protocol", "variant", "alice", "bob", "target",
                            "trials", "seed", "alpha2", "eta", "successes",
                            "failures", "aborts", "restart_total", "p_hat",
                            "ci95", "bias_hat", "limit_hits", "max_restarts",
                            "photon_count"]
    assert record["trials"] == 500
    assert (record["max_restarts"], record["photon_count"]) == (10_000, 1)


def test_run_csv_format():
    proc = run_cli("run", "--trials", "500", "--seed", "1", "--format", "csv",
                   check=True)
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 1
    assert rows[0]["protocol"] == "loss_tolerant"
    assert int(rows[0]["successes"]) + int(rows[0]["failures"]) == 500


def test_run_with_attack():
    proc = run_cli("run", "--protocol", "bb84", "--alice", "bb84_epr",
                   "--target", "1", "--trials", "1000", check=True)
    record = json.loads(proc.stdout)
    assert record["successes"] == 1000
    assert record["aborts"] == 0


def test_sweep_eta_grid():
    proc = run_cli("sweep", "--param", "eta", "--grid", "0.25:1.0:4",
                   "--trials", "500", check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["eta"] for r in records] == [0.25, 0.5, 0.75, 1.0]


def test_sweep_alpha2_grid():
    proc = run_cli("sweep", "--param", "alpha2", "--grid", "0.6:0.9:3",
                   "--alice", "lt_optimal", "--trials", "500", check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["alpha2"] for r in records] == [0.6, 0.75, 0.9]


@pytest.mark.parametrize("param, grid, values", [
    ("eta", "0.05:1:4", [0.05, 0.36666666666666664, 0.6833333333333333, 1.0]),
    ("alpha2", "0.51:0.85:4", [0.51, 0.6233333333333333, 0.7366666666666667, 0.85])])
def test_sweep_ends_exactly_on_hi(param, grid, values):
    """The last grid point is hi itself, where lo + (hi - lo) * i / (n - 1)
    gives 0.9999999999999999 and 0.8500000000000001; the points before it
    are that formula's."""
    out = io.StringIO()
    assert cli_main(["sweep", "--param", param, "--grid", grid,
                     "--trials", "10"], out=out) == 0
    assert [json.loads(line)[param] for line in out.getvalue().splitlines()] == values


@pytest.mark.parametrize("grid", ["0.1:0.9:2.5", "0.1:x:2"])
def test_a_malformed_grid_is_refused_in_its_own_words(grid, capsys):
    """A grid that does not parse is refused as a grid, and no private
    function name reaches the message."""
    out = io.StringIO()
    assert cli_main(["sweep", "--param", "eta", "--grid", grid, "--trials", "10"],
                    out=out) == 1
    err = capsys.readouterr().err
    assert (out.getvalue(), err) == ("", "coinflip: error: argument --grid: grid must be "
                                     f"lo:hi:n, n >= 1 points (lo == hi if n is 1), got {grid!r}\n")


def test_a_one_point_grid_needs_lo_equal_to_hi(capsys):
    """One point cannot both start on lo and end on hi, so a one-point grid
    with lo != hi is refused rather than run at lo alone."""
    out = io.StringIO()
    assert cli_main(["sweep", "--param", "eta", "--grid", "0.5:0.9:1",
                     "--trials", "10"], out=out) == 1
    assert (out.getvalue(), capsys.readouterr().err) == (
        "", "coinflip: error: argument --grid: grid must be lo:hi:n, n >= 1 points "
        "(lo == hi if n is 1), got '0.5:0.9:1'\n")
    assert cli_main(["sweep", "--param", "eta", "--grid", "0.5:0.5:1",
                     "--trials", "10"], out=out) == 0
    assert [json.loads(line)["eta"] for line in out.getvalue().splitlines()] == [0.5]


def test_table_json_and_csv():
    proc = run_cli("table", "--trials", "1000", "--seed", "2", check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 15
    proc_csv = run_cli("table", "--trials", "1000", "--seed", "2",
                       "--format", "csv", check=True)
    rows = list(csv.DictReader(io.StringIO(proc_csv.stdout)))
    assert [r["label"] for r in rows] == [r["label"] for r in records]


def test_table_check_passes_at_moderate_trials():
    proc = run_cli("table", "--trials", "4000", "--seed", "3", "--check",
                   "--tol", "0.05")
    assert proc.returncode == 0, proc.stdout


def test_table_check_failure_exits_2():
    # an absurdly tight tolerance cannot be met by a short run
    proc = run_process("table", "--trials", "200", "--seed", "3", "--check",
                       "--tol", "1e-9")
    assert proc.returncode == 2


def test_usage_errors_exit_1():
    assert run_cli("run", "--protocol", "nonsense").returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("sweep", "--param", "eta", "--grid", "bad").returncode == 1
    assert run_cli("run", "--alice", "lt_optimal",
                   "--protocol", "bb84").returncode == 1
    assert run_cli("run", "--protocol", "ambainis_variant",
                   "--bob", "ambainis_conclusive", "--trials", "10").returncode == 1


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_one_process_answers_each_call_as_a_fresh_process(capsys):
    """Calls that share the one parser, a usage error among them, each give
    the exit code, output and error output of their own process."""
    calls = [("table", "--trials", "40", "--format", "csv"),
             ("run", "--protocol", "nonsense"),
             ("run", "--trials", "500", "--seed", "3"),
             ("table", "--trials", "40")]
    codes = []
    for args in calls:
        out = io.StringIO()
        codes.append(cli_main(list(args), out=out))
        # as bytes, as csv ends its rows in \r\n
        fresh = subprocess.run(CLI + list(args), capture_output=True)
        assert (codes[-1], out.getvalue(), capsys.readouterr().err) == (
            fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()), args
    assert codes == [0, 1, 0, 0]


def test_run_defaults_are_the_config_defaults():
    assert _config_from_args(build_parser().parse_args(["run"])) == ExperimentConfig()


def test_table_defaults_are_the_matrix_defaults():
    args = build_parser().parse_args(["table"])
    assert (args.trials, args.seed, args.tol) == (100_000, 12345, 0.01)


@pytest.mark.parametrize("args", [
    ("run", "--trials", "0"), ("run", "--seed", "-1"), ("run", "--photons", "0"),
    ("run", "--max-restarts", "-1"), ("run", "--eta", "0"),
    ("run", "--max-restarts", "9223372036854775807"),
    ("table", "--trials", "0"),
    ("run", "--alice", "honest_pulse", "--bob", "twophoton_usd", "--photons", "1",
     "--target", "1", "--trials", "300"),
    ("run", "--protocol", "bb84", "--alpha2", "5", "--trials", "10"),
    ("sweep", "--param", "alpha2", "--grid", "0.6:0.9:3", "--protocol", "bb84",
     "--trials", "500"),
    ("run", "--alice", "lt_optimal", "--photons", "3", "--trials", "2000"),
    ("run", "--alice", "lt_optimal", "--bob", "twophoton_usd", "--photons", "2",
     "--target", "1", "--trials", "200"),
    ("table", "--tol", "-1"), ("table", "--tol", "nan")])
def test_out_of_range_options_exit_1_without_traceback(args):
    proc = run_process(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("coinflip: error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("protocol", [p.value for p, spec in PROTOCOLS.items()
                                      if spec.family is not Family.LOSS_TOLERANT])
def test_alpha2_is_refused_where_nothing_reads_it(protocol, capsys):
    """Only the loss-tolerant family reads alpha2, so run and an eta sweep
    refuse --alpha2 for every other protocol; without it they run, and
    every record they write holds alpha2 null."""
    for command in (("run",), ("sweep", "--param", "eta", "--grid", "0.5:1:2")):
        args = [*command, "--protocol", protocol, "--trials", "10"]
        out = io.StringIO()
        assert cli_main([*args, "--alpha2", "0.7"], out=out) == 1
        assert (out.getvalue(), capsys.readouterr().err) == (
            "", f"coinflip: error: {protocol} does not read alpha2\n")
        assert cli_main(args, out=out) == 0
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert records and all(r["alpha2"] is None for r in records)


@pytest.mark.parametrize("args", [
    ("--param", "eta", "--grid", "0.5:1:2", "--eta", "0.3"),
    ("--protocol", "loss_tolerant", "--param", "alpha2", "--grid", "0.6:0.9:2",
     "--alpha2", "0.7")])
def test_sweep_refuses_a_value_of_the_swept_parameter(args, capsys):
    """The grid sets the swept parameter, so an explicit value of it would be
    ignored: the sweep refuses it and runs nothing."""
    out = io.StringIO()
    assert cli_main(["sweep", *args, "--trials", "10"], out=out) == 1
    param = args[args.index("--param") + 1]
    assert (out.getvalue(), capsys.readouterr().err) == (
        "", f"coinflip: error: --{param} is swept by --grid; do not give it too\n")


def test_sweep_keeps_an_explicit_value_of_the_other_parameter():
    out = io.StringIO()
    assert cli_main(["sweep", "--param", "alpha2", "--grid", "0.6:0.9:2",
                     "--eta", "0.5", "--trials", "10"], out=out) == 0
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [(r["alpha2"], r["eta"]) for r in records] == [(0.6, 0.5), (0.9, 0.5)]


def test_alpha2_reaches_the_loss_tolerant_record():
    out = io.StringIO()
    assert cli_main(["run", "--alpha2", "0.7", "--trials", "10"], out=out) == 0
    assert json.loads(out.getvalue())["alpha2"] == 0.7


@pytest.mark.parametrize("args, refused", [
    (("--protocol", "ambainis"), "ambainis does not allow"),
    (("--protocol", "ambainis_variant", "--bob", "ambainis_restart_abuse"),
     "ambainis_restart_abuse does not play")])
def test_a_refused_variant_is_named_as_given(args, refused, capsys):
    """A variant refused by the protocol or by a strategy is named by its
    --variant value, not by another value's."""
    out = io.StringIO()
    argv = ["run", *args, "--variant", "restart_measure", "--trials", "10"]
    assert cli_main(argv, out=out) == 1
    err = capsys.readouterr().err
    assert err == f"coinflip: error: {refused} variant restart_measure\n"
    assert "restart_on_loss" not in err


def test_restart_budget_exits_3():
    proc = run_process("run", "--protocol", "ambainis_variant", "--eta", "0.01",
                       "--max-restarts", "10", "--trials", "100")
    assert proc.returncode == 3
