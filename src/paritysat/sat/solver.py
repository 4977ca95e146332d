"""Complete internal SAT search: CDCL with unit propagation and watched literals.

Conflict-driven clause learning with first-UIP analysis and backjumping;
the learned clauses are what make the unsatisfiable side of optimality
proofs tractable.

The search is incremental over one growing instance, in the manner of
MiniSat (Een & Sorensson, SAT 2003).  A ``Solver`` is built on one
``SatInstance``; each ``solve`` call first takes in the variables and
clauses added to the instance since the previous call, then searches,
and returns to decision level 0 whatever the outcome: SAT, UNSAT or
timeout.  Between calls it keeps its clause database, its learned
clauses, its watch lists and its root-level facts, so a later call
resumes from what earlier calls proved.  Clauses are only ever added,
so everything learned stays implied.  The instance itself is read, never
mutated.

The search is deterministic: decisions pick the lowest-numbered
unassigned variable and try False first, and there are no restarts or
randomized heuristics.  Determinism is part of the synthesis contract
(identical inputs reproduce identical circuits).  The first call on a
new instance makes the same decisions, and finds the same model, as a
one-shot ``solve``.
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


class Solver:
    """Incremental CDCL search over one growing ``SatInstance``."""

    def __init__(self, inst: SatInstance) -> None:
        self.inst = inst
        self.num_vars = 0
        self.taken = 0                  # clauses of the instance taken in so far
        self.unsat = False              # the clauses taken in have no model
        self.db: list[list[int]] = []   # watched clauses, given and learned
        self.watches: dict[int, list[int]] = {}
        self.assign = [0]               # 0 unknown, 1 true, -1 false
        self.level = [0]
        self.reason = [-1]              # clause index forcing the var, -1 = decision/root
        self.seen = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail position where each decision level starts
        self.qhead = 0
        self.propagations = 0           # of the current call

    def solve(self, timeout_s: float = 600.0,
              stats_out: dict | None = None) -> SatModel | None:
        """Search the instance as it stands; returns a model or None (UNSAT).

        ``stats_out`` receives this call's counters.  On ``SolverTimeout``
        the solver is back at level 0 and may be called again.
        """
        start = time.monotonic()
        deadline = start + timeout_s
        self.propagations = 0
        n_decisions = n_conflicts = n_learned = 0
        model = None
        assign = self.assign
        trail_lim = self.trail_lim
        cursor_lim: list[int] = []      # decision cursor snapshot per level
        cursor = 1
        try:
            self._take_in()
            nv = self.num_vars
            while not self.unsat:
                if (n_decisions + n_conflicts) % 256 == 0 and time.monotonic() > deadline:
                    raise SolverTimeout(f"solve exceeded {timeout_s} s")
                conflict = self._propagate()
                if conflict < 0:
                    while cursor <= nv and assign[cursor] != 0:
                        cursor += 1
                    if cursor > nv:
                        model = SatModel(tuple([False] + [assign[v] == 1
                                                          for v in range(1, nv + 1)]))
                        break
                    n_decisions += 1
                    trail_lim.append(len(self.trail))
                    cursor_lim.append(cursor)
                    self._enqueue(-cursor, -1)  # polarity: try False first
                    continue
                n_conflicts += 1
                if not trail_lim:
                    self.unsat = True
                    break
                learned, back_level = self._analyze(conflict)
                cursor = cursor_lim[back_level]
                del cursor_lim[back_level:]
                self._backjump(back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], -1)  # root-level fact
                    continue
                self._watch(learned)
                n_learned += 1
                self._enqueue(learned[0], len(self.db) - 1)
        finally:
            self._backjump(0)
        if stats_out is not None:
            stats_out.update(decisions=n_decisions, conflicts=n_conflicts,
                             propagations=self.propagations, learned=n_learned,
                             seconds=time.monotonic() - start)
        return model

    def _take_in(self) -> None:
        """Take in the variables and clauses added since the last call.

        Runs at level 0.  Tautologies and duplicate literals are dropped,
        and so is a clause a root fact satisfies; root-false literals are
        removed before the two watches are chosen.  A clause left with one
        literal becomes a root fact, one left with none makes the solver
        UNSAT for good.
        """
        inst = self.inst
        grow = inst.num_vars - self.num_vars
        for v in range(self.num_vars + 1, inst.num_vars + 1):
            self.watches[v] = []
            self.watches[-v] = []
        self.assign.extend([0] * grow)
        self.level.extend([0] * grow)
        self.reason.extend([-1] * grow)
        self.seen.extend([False] * grow)
        self.num_vars = inst.num_vars

        assign = self.assign
        units: list[int] = []
        for clause in inst.clauses[self.taken:]:
            seen = set(clause)
            if any(-lit in seen for lit in seen):
                continue
            lits = sorted(seen)
            if self.trail:
                values = [assign[lit] if lit > 0 else -assign[-lit] for lit in lits]
                if 1 in values:
                    continue
                lits = [lit for lit, value in zip(lits, values) if value == 0]
                if not lits:
                    self.unsat = True
            if len(lits) == 1:
                units.append(lits[0])
            elif lits:
                self._watch(lits)
        self.taken = len(inst.clauses)
        for u in units:
            if not self._enqueue(u, -1):
                self.unsat = True

    def _watch(self, clause: list[int]) -> None:
        ci = len(self.db)
        self.db.append(clause)
        self.watches[clause[0]].append(ci)
        self.watches[clause[1]].append(ci)

    def _enqueue(self, lit: int, why: int) -> bool:
        var = abs(lit)
        val = 1 if lit > 0 else -1
        cur = self.assign[var]
        if cur != 0:
            return cur == val
        self.assign[var] = val
        self.level[var] = len(self.trail_lim)
        self.reason[var] = why
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Exhaust unit propagation; returns a conflicting clause index or -1."""
        assign = self.assign
        level = self.level
        reason = self.reason
        watches = self.watches
        db = self.db
        trail = self.trail
        current = len(self.trail_lim)
        qhead = self.qhead
        n_props = 0
        conflict = -1
        while qhead < len(trail) and conflict < 0:
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
                    conflict = ci
                    break
                n_props += 1
                var = first if first > 0 else -first
                assign[var] = 1 if first > 0 else -1
                level[var] = current
                reason[var] = ci
                trail.append(first)
            watches[falsified] = new_ws
        self.qhead = qhead
        self.propagations += n_props
        return conflict

    def _analyze(self, conflict_ci: int) -> tuple[list[int], int]:
        """First-UIP resolution: learned clause (asserting literal first)
        plus the level to backjump to."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        db = self.db
        current = len(self.trail_lim)
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

    def _backjump(self, to_level: int) -> None:
        if len(self.trail_lim) <= to_level:
            return
        limit = self.trail_lim[to_level]
        assign = self.assign
        for lit in self.trail[limit:]:
            assign[abs(lit)] = 0
        del self.trail[limit:]
        del self.trail_lim[to_level:]
        self.qhead = limit


def solve(inst: SatInstance, timeout_s: float = 600.0,
          stats_out: dict | None = None) -> SatModel | None:
    """Solve the instance once; returns a model or None (UNSAT).

    The same as ``Solver(inst).solve(timeout_s, stats_out)``.  To solve
    again after adding clauses, keep the ``Solver``: its next call takes
    in only what was added and resumes from what it learned.
    """
    return Solver(inst).solve(timeout_s, stats_out)


def solve_instance(inst: SatInstance, timeout_s: float = 600.0,
                   stats_out: dict | None = None,
                   solver: Solver | None = None) -> SatModel | None:
    """Dispatch to the internal solver or to the external DIMACS executable
    named by HOPPS_SOLVER (unset or ``internal`` selects the internal one).

    The internal search resumes ``solver`` (built on ``inst``) when one is
    given; an external backend is handed the whole instance every call.
    """
    backend = os.environ.get("HOPPS_SOLVER", "").strip()
    if not backend or backend == "internal":
        return (solver if solver is not None else Solver(inst)).solve(timeout_s, stats_out)
    from .external import ExternalSolver

    return ExternalSolver(backend).solve(inst, timeout_s, stats_out)


__all__ = ["SatModel", "SolverTimeout", "Solver", "solve", "solve_instance"]
