"""Command-line interface, exercised through real subprocesses."""
import csv
import io
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "coinflip"]


def run_cli(*args, check=False):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
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
    assert run_cli(*args, check=True).stdout == run_cli(*args, check=True).stdout


def test_run_json_schema():
    proc = run_cli("run", "--trials", "500", "--seed", "1", check=True)
    record = json.loads(proc.stdout)
    assert list(record) == ["protocol", "variant", "alice", "bob", "target",
                            "trials", "seed", "alpha2", "eta", "successes",
                            "failures", "aborts", "restart_total", "p_hat",
                            "ci95", "bias_hat"]
    assert record["trials"] == 500


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
    assert [r["alpha2"] for r in records] == pytest.approx([0.6, 0.75, 0.9])


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
    proc = run_cli("table", "--trials", "200", "--seed", "3", "--check",
                   "--tol", "1e-9")
    assert proc.returncode == 2


def test_usage_errors_exit_1():
    assert run_cli("run", "--protocol", "nonsense").returncode == 1
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("sweep", "--param", "eta", "--grid", "bad").returncode == 1
    assert run_cli("run", "--alice", "lt_optimal",
                   "--protocol", "bb84").returncode == 1


@pytest.mark.parametrize("args", [
    ("run", "--trials", "0"), ("run", "--seed", "-1"), ("run", "--photons", "0"),
    ("run", "--max-restarts", "-1"), ("run", "--eta", "0"),
    ("table", "--trials", "0")])
def test_out_of_range_options_exit_1_without_traceback(args):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("coinflip: error: ")
    assert "Traceback" not in proc.stderr


def test_restart_budget_exits_3():
    proc = run_cli("run", "--protocol", "ambainis_variant", "--eta", "0.01",
                   "--max-restarts", "10", "--trials", "100")
    assert proc.returncode == 3
