"""Complete internal SAT search: CDCL with unit propagation and watched literals.

Conflict-driven clause learning with first-UIP analysis and backjumping;
the learned clauses are what make the unsatisfiable side of optimality
proofs tractable.

The search is deterministic: decisions pick the lowest-numbered
unassigned variable and try False first, and there are no restarts or
randomized heuristics.  Determinism is part of the synthesis contract
(identical inputs reproduce identical circuits).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .core import SatInstance


class SolverTimeout(Exception):
    """Per-call time budget exhausted; distinct from UNSAT."""


@dataclass(frozen=True)
class SatModel:
    """Total truth assignment over the instance variables."""

    values: tuple[bool, ...]  # index 0 unused

    def __getitem__(self, var: int) -> bool:
        return self.values[var]

    def truth(self, lit: int) -> bool:
        value = self.values[abs(lit)]
        return value if lit > 0 else not value

    @property
    def assignment(self) -> dict[int, bool]:
        return {v: self.values[v] for v in range(1, len(self.values))}


def _preprocess(inst: SatInstance) -> tuple[list[int], list[list[int]]]:
    """Split the clause database into root units and watchable clauses,
    dropping tautologies and duplicate literals."""
    units: list[int] = []
    db: list[list[int]] = []
    for clause in inst.clauses:
        seen = set(clause)
        if any(-lit in seen for lit in seen):
            continue
        lits = sorted(seen)
        if len(lits) == 1:
            units.append(lits[0])
        else:
            db.append(lits)
    return units, db


def _finish_stats(stats_out, start, decisions, conflicts, props, learned=0):
    if stats_out is not None:
        stats_out.update(decisions=decisions, conflicts=conflicts,
                         propagations=props, learned=learned,
                         seconds=time.monotonic() - start)


def solve(inst: SatInstance, timeout_s: float = 600.0,
          stats_out: dict | None = None) -> SatModel | None:
    """Solve the instance; returns a model or None (UNSAT).

    Re-solving after further add_clause calls is supported by simply calling
    again: construction cost is linear in the clause database.
    """
    start = time.monotonic()
    deadline = start + timeout_s
    nv = inst.num_vars
    units, db = _preprocess(inst)

    assign = [0] * (nv + 1)        # 0 unknown, 1 true, -1 false
    level = [0] * (nv + 1)
    reason: list[int] = [-1] * (nv + 1)   # clause index forcing the var, -1 = decision/root
    watches: dict[int, list[int]] = {l: [] for v in range(1, nv + 1) for l in (v, -v)}
    for ci, clause in enumerate(db):
        watches[clause[0]].append(ci)
        watches[clause[1]].append(ci)

    trail: list[int] = []
    trail_lim: list[int] = []      # trail position where each decision level starts
    cursor_lim: list[int] = []     # decision cursor snapshot per level
    qhead = 0
    n_decisions = n_conflicts = n_props = n_learned = 0

    def enqueue(lit: int, why: int) -> bool:
        var = abs(lit)
        val = 1 if lit > 0 else -1
        cur = assign[var]
        if cur != 0:
            return cur == val
        assign[var] = val
        level[var] = len(trail_lim)
        reason[var] = why
        trail.append(lit)
        return True

    def propagate() -> int:
        """Exhaust unit propagation; returns a conflicting clause index or -1."""
        nonlocal qhead, n_props
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            falsified = -lit
            ws = watches[falsified]
            new_ws: list[int] = []
            i = 0
            n_ws = len(ws)
            while i < n_ws:
                ci = ws[i]
                i += 1
                c = db[ci]
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                v0 = assign[first] if first > 0 else -assign[-first]
                if v0 == 1:
                    new_ws.append(ci)
                    continue
                moved = False
                for j in range(2, len(c)):
                    lj = c[j]
                    vj = assign[lj] if lj > 0 else -assign[-lj]
                    if vj != -1:
                        c[1], c[j] = c[j], c[1]
                        watches[c[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                new_ws.append(ci)
                if v0 == -1:
                    new_ws.extend(ws[i:])
                    watches[falsified] = new_ws
                    return ci
                n_props += 1
                var = first if first > 0 else -first
                assign[var] = 1 if first > 0 else -1
                level[var] = len(trail_lim)
                reason[var] = ci
                trail.append(first)
            watches[falsified] = new_ws
        return -1

    seen = [False] * (nv + 1)

    def analyze(conflict_ci: int) -> tuple[list[int], int]:
        """First-UIP resolution: learned clause (asserting literal first)
        plus the level to backjump to."""
        current = len(trail_lim)
        learned: list[int] = []
        marked: list[int] = []
        pending = 0
        p = 0
        clause = db[conflict_ci]
        idx = len(trail) - 1
        while True:
            for q in clause:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    marked.append(v)
                    if level[v] == current:
                        pending += 1
                    else:
                        learned.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[abs(p)] = False
            pending -= 1
            if pending == 0:
                break
            clause = db[reason[abs(p)]]
        for v in marked:
            seen[v] = False
        if not learned:
            return [-p], 0
        # watch position 1 must hold a literal from the backjump level
        top = max(range(len(learned)), key=lambda i: level[abs(learned[i])])
        back_level = level[abs(learned[top])]
        learned[0], learned[top] = learned[top], learned[0]
        return [-p] + learned, back_level

    def backjump(to_level: int) -> None:
        nonlocal qhead
        limit = trail_lim[to_level]
        for lit in trail[limit:]:
            assign[abs(lit)] = 0
        del trail[limit:]
        del trail_lim[to_level:]
        del cursor_lim[to_level:]
        qhead = limit

    for u in units:
        if not enqueue(u, -1):
            _finish_stats(stats_out, start, 0, 0, n_props)
            return None

    cursor = 1
    while True:
        if (n_decisions + n_conflicts) % 256 == 0 and time.monotonic() > deadline:
            raise SolverTimeout(f"solve exceeded {timeout_s} s")
        conflict = propagate()
        if conflict < 0:
            while cursor <= nv and assign[cursor] != 0:
                cursor += 1
            if cursor > nv:
                break  # SAT
            n_decisions += 1
            trail_lim.append(len(trail))
            cursor_lim.append(cursor)
            enqueue(-cursor, -1)  # polarity: try False first
            continue
        n_conflicts += 1
        if not trail_lim:
            _finish_stats(stats_out, start, n_decisions, n_conflicts, n_props, n_learned)
            return None
        learned, back_level = analyze(conflict)
        new_cursor = cursor_lim[back_level]
        backjump(back_level)
        cursor = new_cursor
        if len(learned) == 1:
            enqueue(learned[0], -1)  # root-level fact
            continue
        db.append(learned)
        ci = len(db) - 1
        watches[learned[0]].append(ci)
        watches[learned[1]].append(ci)
        n_learned += 1
        enqueue(learned[0], ci)

    _finish_stats(stats_out, start, n_decisions, n_conflicts, n_props, n_learned)
    return SatModel(tuple([False] + [assign[v] == 1 for v in range(1, nv + 1)]))


def backend_from_env() -> str | None:
    """Solver backend selected by HOPPS_SOLVER (path to a DIMACS solver)."""
    value = os.environ.get("HOPPS_SOLVER", "").strip()
    if not value or value == "internal":
        return None
    return value


def solve_instance(inst: SatInstance, timeout_s: float = 600.0,
                   backend: str | None = None,
                   stats_out: dict | None = None) -> SatModel | None:
    """Dispatch to the internal solver or an external DIMACS executable.

    Without an explicit ``backend`` the one named by HOPPS_SOLVER is used.
    """
    if backend is None:
        backend = backend_from_env()
    if backend is None:
        return solve(inst, timeout_s, stats_out)
    from .external import ExternalSolver

    return ExternalSolver(backend).solve(inst, timeout_s, stats_out)


__all__ = ["SatModel", "SolverTimeout", "solve", "solve_instance", "backend_from_env"]
