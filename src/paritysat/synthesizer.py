"""Optimal and doubly optimal circuits: an exact search, checked by SAT.

``hopps`` runs two engines.  The exact bidirectional search of ``exact``
answers every request it can finish under its state cap, and one SAT call
checks its witness: a chain of as many steps as the witness (count mode
for a plain count request, depth mode otherwise) is solved under its goal
literal and every CNOT literal, true on the witness's edges and false on
all others.  The circuit is decoded from that model, as from any other.
A witness the encoding refuses is an encoder or search fault, and raises
``InternalConsistencyError``.  Past the cap, the SAT chain below runs from
the larger of ``lower_bound`` and the floor the search proved.  The search
counts against the request's one deadline and never goes above ``k_max``;
it leaves one stats record, of phase ``exact``.  ``sat_chain`` runs the
SAT chain alone, from ``lower_bound``.

The SAT chain grows, in the style of incremental bounded model
checking (Een & Sorensson, 2003): ``encode_chain`` encodes the steps up to
the first budget, ``add_goal`` states the goal of the current budget
(final parities, term coverage) under a fresh activation literal, and the
call assumes that literal.  On UNSAT the negated literal becomes a unit
and ``extend_chain`` appends one step in place; on SAT the literal
becomes a unit.  One ``Solver`` serves the whole chain, so every later
call resumes from what earlier budgets learned.

Phase 1 grows a chain from a provable floor (``lower_bound``, or the
search's, when higher); its first satisfiable budget is the optimal primary metric (count in count mode,
depth in depth mode).

Phase 2, when requested, fixes the primary optimum and optimizes the
secondary metric:

* depth mode puts one sequential counter on the CNOT count of phase 1's
  instance, at the first model's count, and states each lower count as a
  fresh goal literal on it, so each descent resumes the same ``Solver``;
  the last satisfiable model wins.  The counter counts excess literals
  (``encoder.add_cnot_budget``): at depth d, c CNOTs are d plus at most
  c - d excess.  It stops once the model meets the count floor, the
  larger of ``lower_bound`` and d (every layer holds a CNOT), below which
  every budget is unsatisfiable;
* count mode grows a second chain, in depth mode, and at each depth d
  caps its CNOT count at the optimal count c*, for good, as at most
  c* - d excess literals.  It starts at the floor ``ceil(c* / (n // 2))``,
  since a layer holds at most ``n // 2`` CNOTs, and stops below the depth
  of phase 1's circuit; its first satisfiable depth is the least, and if
  there is none, phase 1's circuit has it.  On 2 and 3 qubits the floor
  equals the count, so no call is made.

Every SAT call goes through one helper: it assumes one goal literal (the
witness check also assumes the CNOT literals) and appends its stats entry before it solves, with status ``timeout`` until
the call returns ``sat`` or ``unsat``, so a timed-out call keeps its
record.  A budget below a floor is never handed to the solver: its
answer is known to be UNSAT.  Each such cut in phase 1 and in the
depth-mode descent leaves one ``bound`` stats entry, whose ``k`` is the
largest budget ruled out and whose counters are 0.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .encoder import (
    Mode,
    VarLayout,
    add_cnot_budget,
    add_goal,
    encode_chain,
    extend_chain,
)
from .exact import exact_search
from .ir import (
    Circuit,
    Cnot,
    CouplingMap,
    PhasePolyRep,
    Rz,
    cnot_count,
    cnot_depth,
    induced_coupling,
)
from .phasepoly import merged_table
from .sat.core import export_dimacs
from .sat.solver import SatModel, Solver, SolverTimeout, solve_instance


# bench/layertrace.py wraps these names by attribute; nothing here calls them
encode_common = add_cnot_mode = add_depth_mode = add_layer_assignment = add_depth_limit = None


class NoSolutionWithinKmax(RuntimeError):
    """Every step budget up to the ceiling was unsatisfiable."""


class SynthesisTimeout(RuntimeError):
    """Solve budget exhausted before any model was found.  ``stats`` holds
    the synthesis's records so far; the last is the call that timed out."""

    def __init__(self, message: str, stats: list[dict] | None = None) -> None:
        super().__init__(message)
        self.stats = [] if stats is None else stats


class InternalConsistencyError(RuntimeError):
    """Replayed parity disagrees with the model's parity variables."""


@dataclass
class SynthesisRequest:
    rep: PhasePolyRep
    coupling: CouplingMap
    mode: Mode = Mode.CNOT
    doubly: bool = False
    k_max: int | None = None
    timeout_s: float = 600.0  # one deadline for the whole synthesis
    dimacs_path: str | None = None

    def __post_init__(self) -> None:
        check_timeout(self.timeout_s)
        if self.k_max is not None and self.k_max < 0:
            raise ValueError(f"k_max must be nonnegative, got {self.k_max}")


def check_timeout(timeout_s: float) -> None:
    """Refuse a timeout that is NaN or negative: a NaN deadline never
    passes, and a negative one is no budget at all."""
    if not timeout_s >= 0:
        raise ValueError(f"timeout must be a nonnegative number of seconds, got {timeout_s}")


# CNOT steps: per step, the (control, target) pairs of its CNOTs
Steps = tuple[tuple[tuple[int, int], ...], ...]


@dataclass
class SynthesisResult:
    circuit: Circuit
    cnot_count: int
    cnot_depth: int
    optimal: bool
    stats: list[dict] = field(default_factory=list)
    # the CNOT steps the rotations were placed on: ``place_rotations(steps,
    # rep)`` with the merged table gives ``circuit`` again
    steps: Steps = ()


def lower_bound(rep: PhasePolyRep, mode: Mode) -> int:
    """Cheap provable floor on the step budget of a merged rep
    (``merged_rep``): a raw rep still counts a term whose rotations cancel.

    Count mode: ``|(terms | final rows) - initial rows|`` plus the number
    of rows ``i`` with ``final_i != initial_i`` and ``final_i`` among the
    initial rows, plus one if some value of the first set is not the XOR
    of two values of ``S = initial rows | first set``.  Each CNOT writes
    one new value into one row.  Every value of the first set appears in
    some slice without being an initial row, so some CNOT wrote it: one
    distinct CNOT per value.  Each row of the second term changes, so its
    last CNOT writes ``final_i``; that value is not in the first set, and
    each such row is a different target, so these CNOTs are distinct from
    the others and each other.  A CNOT writes the XOR of two values held
    at the time; if every CNOT wrote a value of ``S``, every value held
    would be in ``S``, so each value of the first set would be the XOR of
    two of ``S``.  Otherwise one more CNOT writes a value outside ``S``,
    distinct from all those counted.

    Depth mode: ``depth_floor`` of the count floor.
    """
    initial_rows = set(rep.initial.rows)
    written = (set(rep.table.terms) | set(rep.final.rows)) - initial_rows
    restored = sum(1 for a, b in zip(rep.initial.rows, rep.final.rows)
                   if a != b and b in initial_rows)
    held = initial_rows | written
    needs_other = any(all(v ^ a not in held for a in held) for v in written)
    count = len(written) + restored + needs_other
    if mode is Mode.CNOT:
        return count
    return depth_floor(count, rep.n)


def depth_floor(count: int, n: int) -> int:
    """Least depth of ``count`` CNOTs on ``n`` qubits.

    A layer holds at most ``n // 2`` CNOTs, so the depth is at least
    ``ceil(count / (n // 2))`` (divisor at least 1 on one qubit).  This is
    0 exactly when ``count`` is 0, and at least 1 otherwise.
    """
    return -(-count // max(n // 2, 1))


def default_k_max(n: int, num_terms: int) -> int:
    return 2 * n * n + num_terms * n


def _selected_steps(model: SatModel, layout: VarLayout) -> Steps:
    """Per step of ``layout``, the edges whose CNOT variable ``model`` sets."""
    edges = layout.edges
    return tuple(tuple(edges[e] for e, var in enumerate(step_vars) if model[var])
                 for step_vars in layout.cnot)


def place_rotations(steps: Sequence[Sequence[tuple[int, int]]],
                    rep: PhasePolyRep) -> Circuit:
    """Build the circuit: CNOT steps with each table entry's Rz inserted
    immediately after the earliest slice (then lowest row) matching its term."""
    n = rep.n
    rows = list(rep.initial.rows)
    slices = [tuple(rows)]
    for step in steps:
        for c, t in step:
            rows[t] ^= rows[c]
        slices.append(tuple(rows))

    slots: list[list[Rz]] = [[] for _ in range(len(slices))]
    for term, angle in zip(rep.table.terms, rep.table.angles):
        placed = False
        for k, state in enumerate(slices):
            for q in range(n):
                if state[q] == term:
                    slots[k].append(Rz(angle, q))
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise InternalConsistencyError(f"term {term:#x} never appears in any parity slice")

    gates = []
    for k, step in enumerate(steps):
        gates.extend(slots[k])
        gates.extend(Cnot(c, t) for c, t in step)
    gates.extend(slots[len(steps)])
    return Circuit(n, tuple(gates))


def decode_circuit(model: SatModel, layout: VarLayout,
                   rep: PhasePolyRep) -> tuple[Steps, Circuit]:
    """Read the CNOT steps off a model, replay them, and place rotations:
    the steps and the circuit.

    Every replayed parity slice, the last included, is checked bit-for-bit
    against the model's parity variables; a mismatch means the encoding is
    wrong, not the input.
    """
    steps = _selected_steps(model, layout)
    rows = list(rep.initial.rows)
    for k, (slice_vars, step) in enumerate(zip(layout.parity, steps + ((),))):
        for i, bits in enumerate(slice_vars):
            for j, var in enumerate(bits):
                if model[var] != bool((rows[i] >> j) & 1):
                    raise InternalConsistencyError(f"parity mismatch at step {k}, row {i}")
        for c, t in step:
            rows[t] ^= rows[c]
    return steps, place_rotations(steps, rep)


def merged_rep(rep: PhasePolyRep) -> PhasePolyRep:
    """``rep`` with its merged table (``merged_table``): duplicate terms
    summed, cancelled ones dropped."""
    return PhasePolyRep(rep.initial, rep.final, merged_table(rep))


def synthesis_problem(rep: PhasePolyRep,
                      coupling: CouplingMap) -> tuple[PhasePolyRep, CouplingMap]:
    """The problem ``hopps`` solves for ``rep`` on ``coupling``: the merged
    rep and the map induced on qubits ``0 .. n - 1``.  A map with fewer
    qubits, or not connected on those, is refused."""
    n = rep.n
    if coupling.num_qubits < n:
        raise ValueError("coupling map has fewer qubits than the representation")
    if coupling.num_qubits > n:
        coupling = induced_coupling(coupling, range(n))
    if not coupling.is_connected():
        raise ValueError("coupling map must be connected on the used qubits")
    return merged_rep(rep), coupling


def synthesis_key(rep: PhasePolyRep, coupling: CouplingMap) -> tuple:
    """What ``hopps`` reads of a problem ``synthesis_problem`` prepared.

    Requests with equal keys and equal settings get the same CNOT steps;
    only the angles that ``place_rotations`` puts on them differ.  The
    terms are ``ParityTable.unique_terms``, in table order, which is the
    order the encoder numbers its variables in (``VarLayout.terms``).
    """
    return (rep.initial.rows, rep.final.rows, rep.table.unique_terms, coupling.edges)


class _Synthesis:
    """One request under way: its problem, its ceiling, its one deadline
    and the stats records its engines append."""

    def __init__(self, req: SynthesisRequest) -> None:
        self.req = req
        self.rep, self.cm = synthesis_problem(req.rep, req.coupling)
        self.k_max = (req.k_max if req.k_max is not None
                      else default_k_max(self.rep.n, len(self.rep.table.unique_terms)))
        self.stats: list[dict] = []
        self.deadline = time.monotonic() + req.timeout_s

    def attempt(self, solver: Solver, phase: str, k: int, encoded_at: float,
                goal: int, fixed: Sequence[int] = ()) -> SatModel | None:
        """One SAT call under the activation literal ``goal``, and the
        literals ``fixed`` with it.  Its stats entry, appended before the
        call, also records the CNF handed over and the seconds spent
        encoding since ``encoded_at``.  The goal of a satisfiable call is
        kept as a unit, that of an unsatisfiable one dropped by its
        negation.  A timed-out call raises ``SynthesisTimeout`` that
        carries the records, and its entry keeps status ``timeout``."""
        inst = solver.inst
        entry: dict = {"phase": phase, "k": k, "vars": inst.num_vars,
                       "clauses": inst.num_clauses,
                       "encode_s": time.monotonic() - encoded_at, "status": "timeout"}
        self.stats.append(entry)
        remaining = max(self.deadline - time.monotonic(), 0.0)
        try:
            model = solve_instance(inst, remaining, stats_out=entry, solver=solver,
                                   assumptions=(goal, *fixed))
        except SolverTimeout as exc:
            raise SynthesisTimeout(f"no {phase} model within {self.req.timeout_s} s "
                                   f"at budget {k}", self.stats) from exc
        entry["status"] = "sat" if model is not None else "unsat"
        inst.add_clause([goal if model is not None else -goal])
        if model is not None and self.req.dimacs_path:
            # the last satisfiable call is the one whose model is returned
            with open(self.req.dimacs_path, "w") as fh:
                fh.write(export_dimacs(inst))
        return model

    def ruled_out(self, k: int) -> None:
        """Record that every budget up to ``k`` is UNSAT by a floor."""
        self.stats.append({"phase": "bound", "k": k, "vars": 0, "clauses": 0,
                           "encode_s": 0.0, "status": "unsat", "seconds": 0.0,
                           "decisions": 0, "conflicts": 0, "propagations": 0,
                           "learned": 0, "restarts": 0})

    def finish(self, model: SatModel, layout: VarLayout, optimal: bool) -> SynthesisResult:
        """The result decoded from ``model``; its ``stats`` is the list
        that later calls still append to."""
        steps, circuit = decode_circuit(model, layout, self.rep)
        return SynthesisResult(circuit, cnot_count(circuit), cnot_depth(circuit),
                               optimal, self.stats, steps)

    def check(self, steps: Steps, primary: int) -> SynthesisResult:
        """The result on the search's witness ``steps``, of primary metric
        ``primary``, decoded from one SAT call: a chain of as many steps, in
        count mode for a plain count request and in depth mode otherwise,
        solved under its goal and every CNOT literal, true on the witness's
        edges and false elsewhere.  Its record, of phase ``primary``, has
        ``k`` the primary metric, as phase 1's records do.  A refusal is an
        encoder or search fault, and a model off the witness a solver
        fault."""
        req = self.req
        mode = Mode.CNOT if req.mode is Mode.CNOT and not req.doubly else Mode.DEPTH
        encoded_at = time.monotonic()
        inst, layout = encode_chain(self.rep, self.cm, mode, len(steps))
        fixed = [var if edge in step else -var
                 for step, step_vars in zip(map(set, steps), layout.cnot)
                 for edge, var in zip(layout.edges, step_vars)]
        model = self.attempt(Solver(inst), "primary", primary, encoded_at,
                             add_goal(inst, layout), fixed)
        if model is None:
            raise InternalConsistencyError(
                f"the encoding refuses the search's {len(steps)}-step witness")
        result = self.finish(model, layout, True)
        if result.steps != steps:
            raise InternalConsistencyError("a model of the witness check leaves the witness")
        return result

    def grow(self, mode: Mode, lo: int, hi: int, phase: str,
             cap: int | None = None) -> tuple[int, SatModel, VarLayout, Solver] | None:
        """Grow one chain in ``mode`` from budget ``lo`` on one ``Solver``,
        and solve each budget under its goal literal: the first satisfiable
        budget up to ``hi``, with its model, layout and solver (whose
        ``inst`` is the instance), or None.  ``cap`` bounds the CNOT count
        of every budget: at ``k`` steps, by at most ``cap - k`` excess
        literals, stated for good."""
        for k in range(lo, hi + 1):
            encoded_at = time.monotonic()
            if k == lo:
                inst, layout = encode_chain(self.rep, self.cm, mode, k)
                solver = Solver(inst)
            else:
                extend_chain(inst, layout)
            if cap is not None:
                add_cnot_budget(inst, layout, cap)
            model = self.attempt(solver, phase, k, encoded_at, add_goal(inst, layout))
            if model is not None:
                return k, model, layout, solver
        return None

    def chain(self, floor: int) -> SynthesisResult:
        """The SAT chain from budget ``floor``, a proven floor on the
        primary metric: phase 1, then phase 2 when asked for."""
        req, rep, n = self.req, self.rep, self.rep.n
        if floor:
            self.ruled_out(floor - 1)
        found = self.grow(req.mode, floor, self.k_max, "primary")
        if found is None:
            raise NoSolutionWithinKmax(f"no solution with step budget up to {self.k_max}")
        k, model, layout, solver = found
        if not req.doubly or k == 0:
            return self.finish(model, layout, True)

        # phase 2: optimize the secondary metric at the optimal primary one
        if req.mode is Mode.DEPTH:
            inst = solver.inst
            optimal = True
            count = sum(map(len, _selected_steps(model, layout)))
            # every one of the k layers holds a CNOT
            count_floor = max(lower_bound(rep, Mode.CNOT), k)
            encoded_at = time.monotonic()
            if count > count_floor:
                # one counter at phase 1's count: a layer holds at most n // 2
                # CNOTs, so 1 <= count - k <= k * (n // 2 - 1), the number of
                # excess literals, and the cap is always a counter
                counter = add_cnot_budget(inst, layout, count)
            while count > count_floor:
                try:
                    nxt = self.attempt(solver, "descent", count - 1, encoded_at,
                                       counter.at_most(inst, count - 1 - k))
                except SynthesisTimeout:
                    optimal = False
                    break
                if nxt is None:
                    break
                fewer = sum(map(len, _selected_steps(nxt, layout)))
                if fewer >= count:
                    # a cap that does not bind would make the descent loop forever
                    raise InternalConsistencyError(
                        f"a model of {fewer} CNOTs under a cap of {count - 1}")
                model, count = nxt, fewer
                encoded_at = time.monotonic()
            else:  # the model meets the count floor: every lower budget is UNSAT
                self.ruled_out(count_floor - 1)
            return self.finish(model, layout, optimal)

        # count mode: the least depth of a depth-mode chain capped at k CNOTs,
        # from the floor up to just below phase 1's circuit; a layer holds at
        # most n // 2 CNOTs
        first = self.finish(model, layout, True)
        try:
            found = self.grow(Mode.DEPTH, depth_floor(k, n), first.cnot_depth - 1,
                              "descent", cap=k)
        except SynthesisTimeout:
            first.optimal = False
            return first
        if found is None:
            return first
        _, model, layout, _ = found
        return self.finish(model, layout, True)


def hopps(req: SynthesisRequest) -> SynthesisResult:
    """Optimal (and optionally doubly optimal) hardware-aware synthesis.

    The exact search answers, and one SAT call checks its witness; past
    the search's state cap, the SAT chain runs from the floor it proved."""
    run = _Synthesis(req)
    found = exact_search(run.rep, run.cm, req.mode, req.doubly, run.k_max, run.deadline)
    run.stats.append(found.record())
    if found.status == "timeout":
        raise SynthesisTimeout(f"no circuit found within {req.timeout_s} s", run.stats)
    if found.status == "unsat":
        raise NoSolutionWithinKmax(f"no solution with step budget up to {run.k_max}")
    if found.status == "capped":
        return run.chain(max(lower_bound(run.rep, req.mode), found.floor))
    return run.check(found.steps, found.floor)


def sat_chain(req: SynthesisRequest) -> SynthesisResult:
    """The SAT engine alone: the chain from ``lower_bound`` up, as
    ``hopps`` runs it past the search's cap."""
    run = _Synthesis(req)
    return run.chain(lower_bound(run.rep, req.mode))


__all__ = [
    "Mode", "SynthesisRequest", "SynthesisResult",
    "NoSolutionWithinKmax", "SynthesisTimeout", "InternalConsistencyError",
    "check_timeout", "lower_bound", "depth_floor", "default_k_max",
    "merged_rep", "synthesis_problem", "synthesis_key", "hopps", "sat_chain",
    "decode_circuit", "place_rotations",
]
