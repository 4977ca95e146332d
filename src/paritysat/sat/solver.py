"""Complete internal SAT search: CDCL with unit propagation and watched literals.

Conflict-driven clause learning with first-UIP analysis and backjumping;
the learned clauses are what make the unsatisfiable side of optimality
proofs tractable.

The search is incremental over one growing instance, in the manner of
MiniSat (Een & Sorensson, SAT 2003).  A ``Solver`` is built on one
``SatInstance``; each ``solve`` call first takes in the variables and
clauses added to the instance since the previous call, then searches,
and returns to decision level 0 whatever the outcome: SAT, UNSAT or
timeout.  Between calls it keeps its clauses, given and learned, in
its watch lists, with its root-level facts and its heuristic state
(activities, saved phases, the position in the restart sequence), so a
later call resumes from what earlier calls proved.  Clauses are only
ever added, so everything learned stays implied.  The instance itself is
read, never mutated.

A call may assume literals: they are decided first, one per decision
level, and a model sets them all.  Learned clauses follow from the
clauses alone, never from the assumptions, so they stay valid once the
assumptions are dropped.  An assumption found false ends the call
without a model, but the instance stays open; only a conflict at level
0 makes it UNSAT for good.  A synthesis guards the goal of each step
budget with an activation literal and assumes it, so one solver serves
every budget.

The state is indexed by literal, in the MiniSat manner: one ``value``
list holds +1, -1 or 0 for every literal, -v at the position that
Python's negative index gives it, and ``watches`` holds the clauses that
watch each literal.  Watch lists and the reason of each forced variable
hold the clause lists themselves, given and learned.

Decisions follow EVSIDS (Chaff, DAC 2001; MiniSat): every variable that
conflict analysis touches has its activity bumped, the bump grows by
1/0.95 per conflict, and a decision takes the unassigned variable of
highest activity, the lowest-numbered one on ties.  It is set to the
value it last held (phase saving, Pipatsrisawat & Darwiche, SAT 2007).
A variable that never held one is tried as the instance prefers
(``SatInstance.preferred``, MiniSat's ``setPolarity``), else False; a
synthesis prefers each step's CNOT variables True, so one decision picks
a step's CNOT.  The search restarts at level 0 after 100 conflicts times
the next term of the Luby sequence.  Nothing is randomized, so the
search is deterministic; determinism is part of the synthesis contract
(identical inputs reproduce identical circuits).  Activities start at 0,
so until its first conflict a fresh ``Solver`` decides as the plain rule
did: lowest-numbered variable, preferred value or False first.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Sequence

from .core import SatInstance

VAR_DECAY = 0.95        # the bump grows by 1 / VAR_DECAY per conflict
RESCALE_ABOVE = 1e100   # activities and the bump are scaled down past this
RESTART_UNIT = 100      # conflicts per unit of the Luby sequence
HEAP_SLACK = 2          # the heap is rebuilt past this many entries per variable


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


def _luby(i: int) -> int:
    """Term ``i`` (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    size, power = 1, 0
    while size < i + 1:
        power += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        power -= 1
        i %= size
    return 1 << power


class Solver:
    """Incremental CDCL search over one growing ``SatInstance``."""

    def __init__(self, inst: SatInstance) -> None:
        self.inst = inst
        self.num_vars = 0
        self.taken = 0                  # clauses of the instance taken in so far
        self.unsat = False              # the clauses taken in have no model
        # indexed by literal, -v at 2 * num_vars + 1 - v: the clauses that
        # watch the literal, and its value (0 unknown, 1 true, -1 false)
        self.watches: list[list[list[int]]] = [[]]
        self.value = [0]
        self.level = [0]
        self.reason: list[list[int] | None] = [None]  # clause forcing the var; None = decision/root
        self.seen = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail position where each decision level starts
        self.qhead = 0
        self.propagations = 0           # of the current call
        self.activity = [0.0]
        self.var_inc = 1.0
        self.saved = [0]                # literal a decision on the var assigns
        # (-activity, var) entries; an entry is stale once the var's activity
        # moved past it.  Every unassigned var has its one current entry
        # (in_heap), so the top current entry of an unassigned var is the
        # decision; assigned vars are dropped lazily as they surface.
        self.heap: list[tuple[float, int]] = []
        self.in_heap = [False]
        self.restarts = 0               # over all calls: the Luby index

    def solve(self, timeout_s: float = 600.0, stats_out: dict | None = None,
              assumptions: Sequence[int] = ()) -> SatModel | None:
        """Search the instance as it stands; returns a model or None (UNSAT).

        ``assumptions`` are literals decided first, one per decision level,
        in order; a model sets them all true.  None then means no model sets
        them all true: the instance itself is UNSAT for good (``unsat``)
        only when a conflict reaches level 0.  ``stats_out`` receives this
        call's counters, also those reached before a ``SolverTimeout``;
        the solver is then back at level 0 and may be called again.
        """
        start = time.monotonic()
        deadline = start + timeout_s
        self.propagations = 0
        n_decisions = n_conflicts = n_learned = n_restarts = 0
        model = None
        activity = self.activity
        in_heap = self.in_heap
        heap = self.heap
        saved = self.saved
        trail_lim = self.trail_lim
        n_assumed = len(assumptions)
        refuted = False
        try:
            self._take_in()
            value = self.value      # both lists are rebuilt as the instance grows
            watches = self.watches
            if any(abs(lit) > self.num_vars or lit == 0 for lit in assumptions):
                raise ValueError("assumption on an unallocated variable")
            # each call starts at level 0, as a restart would: the conflict
            # count toward the next restart starts afresh
            conflicts_left = RESTART_UNIT * _luby(self.restarts)
            while not self.unsat:
                if (n_decisions + n_conflicts) % 256 == 0 and time.monotonic() > deadline:
                    raise SolverTimeout(f"solve exceeded {timeout_s} s")
                conflict = self._propagate()
                if conflict is None:
                    if conflicts_left <= 0:
                        self._backjump(0)
                        self.restarts += 1
                        n_restarts += 1
                        conflicts_left = RESTART_UNIT * _luby(self.restarts)
                    # an assumption already true gets an empty level, so
                    # that level i + 1 always belongs to assumptions[i]
                    while len(trail_lim) < n_assumed:
                        lit = assumptions[len(trail_lim)]
                        if value[lit] == 0:
                            break
                        if value[lit] < 0:
                            refuted = True
                            break
                        trail_lim.append(len(self.trail))
                    if refuted:
                        break
                    if len(trail_lim) < n_assumed:
                        n_decisions += 1
                        trail_lim.append(len(self.trail))
                        self._enqueue(assumptions[len(trail_lim) - 1], None)
                        continue
                    var = 0
                    while heap:
                        neg_act, v = heappop(heap)
                        if neg_act == -activity[v]:
                            in_heap[v] = False
                            if value[v] == 0:
                                var = v
                                break
                    if not var:
                        model = SatModel(tuple([False] + [value[v] == 1
                                                          for v in range(1, self.num_vars + 1)]))
                        break
                    n_decisions += 1
                    trail_lim.append(len(self.trail))
                    self._enqueue(saved[var], None)
                    continue
                n_conflicts += 1
                conflicts_left -= 1
                if not trail_lim:
                    self.unsat = True
                    break
                learned, back_level = self._analyze(conflict)
                self._backjump(back_level)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)  # root-level fact
                    continue
                watches[learned[0]].append(learned)
                watches[learned[1]].append(learned)
                n_learned += 1
                self._enqueue(learned[0], learned)
        finally:
            self._backjump(0)
            if stats_out is not None:
                stats_out.update(decisions=n_decisions, conflicts=n_conflicts,
                                 propagations=self.propagations, learned=n_learned,
                                 restarts=n_restarts, seconds=time.monotonic() - start)
        return model

    def _take_in(self) -> None:
        """Take in the variables and clauses added since the last call.

        Runs at level 0.  Tautologies and duplicate literals are dropped,
        and so is a clause a root fact satisfies; root-false literals are
        removed before the two watches are chosen.  A clause left with one
        literal becomes a root fact, one left with none makes the solver
        UNSAT for good.  New variables rebuild the two literal-indexed
        lists, whose negative half moves up; at level 0 the values they
        carry over are the root facts.  A new variable's first decision
        sets the literal the instance prefers for it, else False; a
        preference for a variable already taken in is ignored.
        """
        inst = self.inst
        old, nv = self.num_vars, inst.num_vars
        if nv > old:
            grow = nv - old
            self.watches = (self.watches[:old + 1] + [[] for _ in range(2 * grow)]
                            + self.watches[old + 1:])
            self.value = self.value[:old + 1] + [0] * (2 * grow) + self.value[old + 1:]
            self.level.extend([0] * grow)
            self.reason.extend([None] * grow)
            self.seen.extend([False] * grow)
            self.activity.extend([0.0] * grow)
            self.saved.extend(range(-old - 1, -nv - 1, -1))
            for lit in inst.preferred:
                if abs(lit) > old:
                    self.saved[abs(lit)] = lit
            self.in_heap.extend([True] * grow)
            # no entry sorts after (0.0, v) for a var v above every var in
            # the heap, so appending the new vars in order keeps it a heap
            self.heap.extend([(0.0, v) for v in range(old + 1, nv + 1)])
            self.num_vars = nv

        watches = self.watches
        # at level 0 the trail holds exactly the root facts
        root_true = set(self.trail)
        root_false = set(map(neg, root_true))
        units: list[int] = []
        for clause in inst.clauses[self.taken:]:
            seen = set(clause)
            lits = sorted(seen)
            if lits[0] < 0 < lits[-1] and not seen.isdisjoint(map(neg, lits)):
                continue
            if root_true:
                if not root_true.isdisjoint(seen):
                    continue
                if not root_false.isdisjoint(seen):
                    lits = [lit for lit in lits if lit not in root_false]
                    if not lits:
                        self.unsat = True
                        continue
            if len(lits) == 1:
                units.append(lits[0])
            else:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
        self.taken = len(inst.clauses)
        for u in units:
            if not self._enqueue(u, None):
                self.unsat = True

    def _enqueue(self, lit: int, why: list[int] | None) -> bool:
        value = self.value
        cur = value[lit]
        if cur != 0:
            return cur == 1
        value[lit] = 1
        value[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = why
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Exhaust unit propagation; returns a conflicting clause or None."""
        value = self.value
        level = self.level
        reason = self.reason
        watches = self.watches
        trail = self.trail
        current = len(self.trail_lim)
        qhead = self.qhead
        n_props = 0
        conflict = None
        while qhead < len(trail) and conflict is None:
            falsified = -trail[qhead]
            qhead += 1
            it = iter(watches[falsified])
            new_ws: list[list[int]] = []
            for c in it:
                if c[0] == falsified:
                    c[0] = c[1]
                    c[1] = falsified
                first = c[0]
                v0 = value[first]
                if v0 == 1:
                    new_ws.append(c)
                    continue
                n = len(c)
                if n > 2:
                    j = 2
                    while j < n and value[c[j]] == -1:
                        j += 1
                    if j < n:
                        lj = c[j]
                        c[1] = lj
                        c[j] = falsified
                        watches[lj].append(c)
                        continue
                new_ws.append(c)
                if v0 == -1:
                    new_ws.extend(it)
                    conflict = c
                    break
                n_props += 1
                value[first] = 1
                value[-first] = -1
                var = first if first > 0 else -first
                level[var] = current
                reason[var] = c
                trail.append(first)
            watches[falsified] = new_ws
        self.qhead = qhead
        self.propagations += n_props
        return conflict

    def _analyze(self, clause: list[int]) -> tuple[list[int], int]:
        """First-UIP resolution: learned clause (asserting literal first)
        plus the level to backjump to.  Bumps every variable it marks."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        current = len(self.trail_lim)
        learned: list[int] = []
        marked: list[int] = []
        pending = 0
        p = 0
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
            clause = reason[abs(p)]
        activity = self.activity
        in_heap = self.in_heap
        inc = self.var_inc
        top_activity = 0.0
        for v in marked:
            seen[v] = False
            in_heap[v] = False  # the var's heap entry, if any, is now stale
            a = activity[v] + inc
            activity[v] = a
            if a > top_activity:
                top_activity = a
        if top_activity > RESCALE_ABOVE:
            activity[:] = [a / RESCALE_ABOVE for a in activity]
            inc /= RESCALE_ABOVE
            self._rebuild_heap()
        self.var_inc = inc / VAR_DECAY
        if not learned:
            return [-p], 0
        # watch position 1 must hold a literal from the backjump level
        top = max(range(len(learned)), key=lambda i: level[abs(learned[i])])
        back_level = level[abs(learned[top])]
        learned[0], learned[top] = learned[top], learned[0]
        return [-p] + learned, back_level

    def _backjump(self, to_level: int) -> None:
        """Undo the levels above ``to_level``; each var undone keeps its
        value as its saved phase and gets its current heap entry back."""
        if len(self.trail_lim) <= to_level:
            return
        limit = self.trail_lim[to_level]
        value = self.value
        saved = self.saved
        in_heap = self.in_heap
        activity = self.activity
        heap = self.heap
        for lit in self.trail[limit:]:
            value[lit] = 0
            value[-lit] = 0
            v = lit if lit > 0 else -lit
            saved[v] = lit
            if not in_heap[v]:
                in_heap[v] = True
                heappush(heap, (-activity[v], v))
        del self.trail[limit:]
        del self.trail_lim[to_level:]
        self.qhead = limit
        if len(heap) > HEAP_SLACK * self.num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Drop the stale entries: one current entry per var in the heap."""
        activity = self.activity
        in_heap = self.in_heap
        self.heap[:] = [(-activity[v], v) for v in range(1, self.num_vars + 1) if in_heap[v]]
        heapify(self.heap)


def solver_backend() -> str:
    """The backend ``solve_instance`` uses now: ``internal``, or the
    external DIMACS executable that HOPPS_SOLVER names (unset, empty or
    ``internal`` selects the internal one)."""
    return os.environ.get("HOPPS_SOLVER", "").strip() or "internal"


def solve_instance(inst: SatInstance, timeout_s: float = 600.0,
                   stats_out: dict | None = None, *, solver: Solver,
                   assumptions: Sequence[int] = ()) -> SatModel | None:
    """Dispatch to the backend that ``solver_backend`` names.

    The internal search resumes ``solver``, built on ``inst``; an external
    backend is handed the whole instance every call, with the
    ``assumptions`` as extra unit clauses.
    """
    backend = solver_backend()
    if backend == "internal":
        return solver.solve(timeout_s, stats_out, assumptions)
    from .external import ExternalSolver

    return ExternalSolver(backend).solve(inst, timeout_s, stats_out, assumptions)


__all__ = ["SatModel", "SolverTimeout", "Solver", "solve_instance", "solver_backend"]
