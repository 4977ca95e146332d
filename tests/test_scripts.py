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
