import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_random_suite_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "random_suite.py"),
                           "--count", "3", "--max-qubits", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "3/3 matched" in proc.stdout
    summary = proc.stdout.strip().splitlines()[-1]
    found = re.search(r"SAT conflicts (\d+) \(phase 1 (\d+), descent (\d+)\), "
                      r"decisions [1-9]\d*$", summary)
    assert found, summary
    total, primary, descent = map(int, found.groups())
    assert total == primary + descent
    assert "c_lb" in proc.stdout and "d_lb" in proc.stdout


def test_random_suite_fails_on_a_floor_above_an_optimum(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("random_suite", SCRIPTS / "random_suite.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    monkeypatch.setattr(suite, "lower_bound", lambda rep, mode: 99)
    monkeypatch.setattr(sys, "argv", ["random_suite.py", "--count", "1", "--max-qubits", "2"])
    assert suite.main() == 1
    assert "FLOOR>OPT" in capsys.readouterr().out
