"""External solver backend speaking DIMACS over a subprocess.

The executable receives one argument (a CNF file path) and must print
``s SATISFIABLE`` or ``s UNSATISFIABLE`` plus ``v`` value lines, the
convention used by SAT-competition solvers.  Assumptions are written as
extra unit clauses.  A claimed model is checked against every clause and
every assumption before it is returned.
"""
from __future__ import annotations

import subprocess
import tempfile
import time
from pathlib import Path
from typing import Sequence

from .core import SatInstance, export_dimacs
from .solver import SatModel, SolverTimeout


class ExternalSolverError(RuntimeError):
    pass


class ExternalSolver:
    def __init__(self, path: str):
        self.path = path

    def solve(self, inst: SatInstance, timeout_s: float = 600.0,
              stats_out: dict | None = None,
              assumptions: Sequence[int] = ()) -> SatModel | None:
        """Solve ``inst`` with the ``assumptions`` as extra unit clauses;
        the instance itself is not changed."""
        start = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="paritysat-") as tmp:
            cnf = Path(tmp) / "problem.cnf"
            cnf.write_text(export_dimacs(inst, assumptions))
            try:
                proc = subprocess.run(
                    [self.path, str(cnf)],
                    capture_output=True, text=True, timeout=timeout_s,
                )
            except subprocess.TimeoutExpired as exc:
                raise SolverTimeout(f"external solver exceeded {timeout_s} s") from exc
            except OSError as exc:
                raise ExternalSolverError(f"cannot run {self.path!r}: {exc}") from exc
            finally:
                if stats_out is not None:
                    stats_out.update(seconds=time.monotonic() - start)
        status = None
        model_lits: list[int] = []
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                status = line[2:].strip()
            elif line.startswith("v"):
                model_lits.extend(int(tok) for tok in line[1:].split())
        if status == "UNSATISFIABLE":
            return None
        if status != "SATISFIABLE":
            raise ExternalSolverError(
                f"no solution line from {self.path!r} (exit {proc.returncode}): "
                f"{proc.stdout[:200]!r}")
        values = [False] * (inst.num_vars + 1)
        for lit in model_lits:
            if lit == 0:
                continue
            if abs(lit) <= inst.num_vars:
                values[abs(lit)] = lit > 0
        model = SatModel(tuple(values))
        for clause in [*inst.clauses, *([lit] for lit in assumptions)]:
            if not any(model.truth(lit) for lit in clause):
                raise ExternalSolverError(
                    f"model from {self.path!r} falsifies clause {clause}")
        return model


__all__ = ["ExternalSolver", "ExternalSolverError"]
