import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from paritysat.ir import ParityMatrix, ParityTable, PhasePolyRep

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_random_suite():
    spec = importlib.util.spec_from_file_location("random_suite", SCRIPTS / "random_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


def test_random_suite_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "random_suite.py"),
                           "--count", "3", "--max-qubits", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "3/3 matched" in proc.stdout
    summary = proc.stdout.strip().splitlines()[-1]
    found = re.search(r"; exact search states [1-9]\d*; "
                      r"SAT conflicts (\d+) \(phase 1 (\d+), descent (\d+)\), "
                      r"decisions [1-9]\d*$", summary)
    assert found, summary
    total, primary, descent = map(int, found.groups())
    assert total == primary + descent
    assert "c_lb" in proc.stdout and "d_lb" in proc.stdout


def test_random_suite_fails_on_a_floor_above_an_optimum(monkeypatch, capsys):
    suite = load_random_suite()
    monkeypatch.setattr(suite, "lower_bound", lambda rep, mode: 99)
    monkeypatch.setattr(sys, "argv", ["random_suite.py", "--count", "1", "--max-qubits", "2"])
    assert suite.main() == 1
    assert "FLOOR>OPT" in capsys.readouterr().out


def test_random_suite_runs_under_the_reference_solver():
    # an external backend reports no solver counters
    env = dict(os.environ, HOPPS_SOLVER=str(SCRIPTS / "ref_solver.py"))
    proc = subprocess.run([sys.executable, str(SCRIPTS / "random_suite.py"),
                           "--count", "1", "--max-qubits", "3"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert "1/1 matched" in summary
    assert summary.endswith("no SAT counters (the solver backend reported none)")


def test_random_suite_floors_read_the_merged_rep(monkeypatch, capsys):
    # the two rotations cancel, so no CNOT is needed, but the raw table has a term
    eye = ParityMatrix.identity(2)
    cancelled = PhasePolyRep(eye, eye, ParityTable(2, (3, 3), (0.3, -0.3)))
    suite = load_random_suite()
    monkeypatch.setattr(suite, "random_rep", lambda *args: cancelled)
    monkeypatch.setattr(sys, "argv", ["random_suite.py", "--count", "1", "--max-qubits", "2"])
    assert suite.main() == 0
    header, _, line = capsys.readouterr().out.splitlines()[:3]
    row = dict(zip(header.split(), line.split()))
    assert row["verdict"] == "ok"
    assert row["c_min"] == row["c_lb"] == row["d_min"] == row["d_lb"] == "0"
