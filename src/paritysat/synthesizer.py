"""Incremental SAT search for optimal and doubly optimal circuits.

Phase 1 grows the step budget from the provable floor ``lower_bound``
until the first satisfiable budget; that budget is the optimal primary
metric (count in count mode, depth in depth mode).  It runs on one
growing instance and one ``Solver``, in the style of incremental bounded
model checking (Een & Sorensson, 2003): ``encode_chain`` encodes the
steps up to the floor, ``add_goal`` states the goal of the current budget
(final parities, term coverage) under a fresh activation literal, and the
call assumes that literal.  On UNSAT the negated literal becomes a unit
and ``extend_chain`` appends one step in place; on SAT the literal
becomes a unit.  Every later call resumes from what earlier budgets
learned.

Phase 2, when requested, fixes the primary optimum and descends on the
secondary metric; the last satisfiable model wins.  Both descents run on
the depth-mode encoding:

* depth mode puts one sequential counter on the CNOT count of the
  optimal budget's instance, just below the first model's count, and
  tightens it in place for each lower count, so each descent resumes the
  same ``Solver``; it stops once the model meets the count floor, below
  which every budget is unsatisfiable;
* count mode pins the budget to the optimal count and tries depths below
  the best circuit's, one fresh depth-mode instance and ``Solver`` per
  depth, down to the floor ``ceil(count / (n // 2))``, since a layer
  holds at most ``n // 2`` CNOTs.  On 2 and 3 qubits the floor equals the
  count, so no call is made.

A budget below a floor is never handed to the solver: its answer is known
to be UNSAT.  Each such cut in phase 1 and in the depth-mode descent
leaves one ``bound`` stats entry, whose ``k`` is the largest budget ruled
out and whose counters are 0.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .encoder import (
    EncodingConfig,
    Mode,
    VarLayout,
    add_cnot_budget,
    add_cnot_mode,
    add_depth_mode,
    add_goal,
    encode_chain,
    encode_common,
    extend_chain,
)
from .ir import (
    Circuit,
    Cnot,
    CouplingMap,
    ParityTable,
    PhasePolyRep,
    Rz,
    cnot_count,
    cnot_depth,
    induced_coupling,
)
from .phasepoly import merged_table
from .sat.core import export_dimacs
from .sat.solver import SatModel, Solver, SolverTimeout, solve_instance


# bench/layertrace.py wraps these names and ``add_cnot_mode`` by attribute;
# nothing here calls them
add_layer_assignment = add_depth_limit = None


class NoSolutionWithinKmax(RuntimeError):
    """Every step budget up to the ceiling was unsatisfiable."""


class SynthesisTimeout(RuntimeError):
    """Solve budget exhausted before any model was found."""


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


@dataclass
class SynthesisResult:
    circuit: Circuit
    cnot_count: int
    cnot_depth: int
    optimal: bool
    stats: list[dict] = field(default_factory=list)
    # the CNOT steps the rotations were placed on: ``place_rotations(steps,
    # rep)`` with the merged table gives ``circuit`` again
    steps: list[list[tuple[int, int]]] = field(default_factory=list)


def lower_bound(rep: PhasePolyRep, mode: Mode) -> int:
    """Cheap provable floor on the step budget.

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


def _selected_steps(model: SatModel, layout: VarLayout) -> list[list[tuple[int, int]]]:
    edges = layout.cfg.directed_edges
    steps = []
    for step_vars in layout.cnot:
        steps.append([edges[e] for e, var in enumerate(step_vars) if model[var]])
    return steps


def _count_gates(model: SatModel, layout: VarLayout) -> int:
    return sum(1 for step_vars in layout.cnot for var in step_vars if model[var])


def _greedy_layers(circuit: Circuit) -> list[list[tuple[int, int]]]:
    """The CNOTs of ``circuit`` grouped into the layers ``cnot_depth`` counts."""
    level = [0] * circuit.num_qubits
    layers: list[list[tuple[int, int]]] = []
    for g in circuit.gates:
        if isinstance(g, Cnot):
            lv = max(level[g.control], level[g.target])
            level[g.control] = level[g.target] = lv + 1
            if lv == len(layers):
                layers.append([])
            layers[lv].append((g.control, g.target))
    return layers


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


def decode_circuit(model: SatModel, layout: VarLayout, rep: PhasePolyRep) -> Circuit:
    """Read the gate sequence off a model, replay it, and place rotations.

    The replayed parity slices are checked bit-for-bit against the model's
    parity variables; a mismatch means the encoding is wrong, not the input.
    """
    steps = _selected_steps(model, layout)
    n = layout.cfg.num_qubits
    rows = list(rep.initial.rows)
    for k, step in enumerate(steps):
        for i in range(n):
            for j in range(n):
                if model[layout.parity[k][i][j]] != bool((rows[i] >> j) & 1):
                    raise InternalConsistencyError(f"parity mismatch at step {k}, row {i}")
        for c, t in step:
            rows[t] ^= rows[c]
    for i in range(n):
        for j in range(n):
            if model[layout.parity[len(steps)][i][j]] != bool((rows[i] >> j) & 1):
                raise InternalConsistencyError(f"parity mismatch at final step, row {i}")
    return place_rotations(steps, rep)


def _angle_free(rep: PhasePolyRep, table: ParityTable) -> PhasePolyRep:
    """``rep`` with the unique terms of its merged ``table``, in order, at
    angle 0: all that the search reads of the phase polynomial."""
    terms = tuple(dict.fromkeys(table.terms))
    return PhasePolyRep(rep.initial, rep.final,
                        ParityTable(rep.n, terms, tuple(0.0 for _ in terms)))


def _used_coupling(coupling: CouplingMap, n: int) -> CouplingMap:
    return induced_coupling(coupling, range(n)) if coupling.num_qubits > n else coupling


def synthesis_key(rep: PhasePolyRep, coupling: CouplingMap,
                  table: ParityTable | None = None) -> tuple:
    """What ``hopps`` reads of a request's rep and coupling map.

    Requests with equal keys and equal settings get the same CNOT steps;
    only the angles that ``place_rotations`` puts on them differ.  The
    terms keep their order, because the encoder numbers its variables in
    term order.  ``table`` is ``merged_table(rep)``, when the caller has
    already worked it out.
    """
    bound = _angle_free(rep, merged_table(rep) if table is None else table)
    return (bound.initial.rows, bound.final.rows, bound.table.terms,
            _used_coupling(coupling, rep.n).edges)


def hopps(req: SynthesisRequest) -> SynthesisResult:
    """Optimal (and optionally doubly optimal) hardware-aware synthesis."""
    rep = req.rep
    n = rep.n
    if req.coupling.num_qubits < n:
        raise ValueError("coupling map has fewer qubits than the representation")
    cm = _used_coupling(req.coupling, n)
    if not cm.is_connected():
        raise ValueError("coupling map must be connected on the used qubits")

    table = merged_table(rep)
    decode_rep = PhasePolyRep(rep.initial, rep.final, table)
    bound_rep = _angle_free(rep, table)
    unique_terms = list(bound_rep.table.terms)

    edges = cm.directed_edges()
    k_max = req.k_max if req.k_max is not None else default_k_max(n, len(unique_terms))
    k_top = k_max if edges else 0
    stats: list[dict] = []
    deadline = time.monotonic() + req.timeout_s

    def timed_solve(solver: Solver, phase: str, k: int, encoded_at: float,
                    assumptions: tuple[int, ...] = ()) -> SatModel | None:
        """One SAT call; its stats entry also records the CNF handed over
        and the seconds spent encoding since ``encoded_at``."""
        inst = solver.inst
        entry: dict = {"phase": phase, "k": k, "vars": inst.num_vars,
                       "clauses": inst.num_clauses,
                       "encode_s": time.monotonic() - encoded_at}
        remaining = max(deadline - time.monotonic(), 0.0)
        model = solve_instance(inst, remaining, stats_out=entry, solver=solver,
                               assumptions=assumptions)
        entry["status"] = "sat" if model is not None else "unsat"
        stats.append(entry)
        if model is not None and req.dimacs_path:
            # the last satisfiable call is the one whose model is returned
            with open(req.dimacs_path, "w") as fh:
                fh.write(export_dimacs(inst, assumptions))
        return model

    def ruled_out(k: int) -> None:
        """Record that every budget up to ``k`` is UNSAT by a floor."""
        stats.append({"phase": "bound", "k": k, "vars": 0, "clauses": 0,
                      "encode_s": 0.0, "status": "unsat", "seconds": 0.0,
                      "decisions": 0, "conflicts": 0, "propagations": 0,
                      "learned": 0, "restarts": 0})

    def finish(circuit: Circuit, optimal: bool,
               steps: list[list[tuple[int, int]]]) -> SynthesisResult:
        return SynthesisResult(circuit, cnot_count(circuit), cnot_depth(circuit),
                               optimal, stats, steps)

    floor = lower_bound(bound_rep, req.mode)
    if floor:
        ruled_out(floor - 1)
    for k in range(floor, k_top + 1):
        encoded_at = time.monotonic()
        if k == floor:
            inst, layout = encode_chain(rep.initial, unique_terms,
                                        EncodingConfig(req.mode, k, n, edges))
            solver = Solver(inst)
        else:
            extend_chain(inst, layout)
        goal = add_goal(inst, layout, rep.final)
        try:
            model = timed_solve(solver, "primary", k, encoded_at, (goal,))
        except SolverTimeout as exc:
            raise SynthesisTimeout(f"no model within {req.timeout_s} s at budget {k}") from exc
        inst.add_clause([goal if model is not None else -goal])
        if model is None:
            continue

        if not req.doubly or k == 0:
            return finish(decode_circuit(model, layout, decode_rep), optimal=True,
                          steps=_selected_steps(model, layout))

        # phase 2: descend on the secondary metric, keeping the last model
        optimal = True
        if req.mode is Mode.DEPTH:
            count = _count_gates(model, layout)
            count_floor = lower_bound(bound_rep, Mode.CNOT)
            budget = None  # one counter, tightened in place by each step down
            while count > count_floor:
                encoded_at = time.monotonic()
                if budget is None:
                    budget = add_cnot_budget(inst, layout, count - 1)
                else:
                    budget.tighten(inst, count - 1)
                try:
                    nxt = timed_solve(solver, "descent", count - 1, encoded_at)
                except SolverTimeout:
                    optimal = False
                    break
                if nxt is None:
                    break
                model = nxt
                count = _count_gates(model, layout)
            else:  # the model meets the count floor: every lower budget is UNSAT
                if count_floor:
                    ruled_out(count_floor - 1)
            return finish(decode_circuit(model, layout, decode_rep), optimal,
                          _selected_steps(model, layout))

        # count mode: a fresh depth-mode instance per depth, with k CNOTs at
        # most; a layer holds at most n // 2 of them
        steps = _selected_steps(model, layout)
        best = decode_circuit(model, layout, decode_rep)
        depth = cnot_depth(best) - 1
        while depth >= depth_floor(k, n):
            encoded_at = time.monotonic()
            inst, layout = encode_common(rep.initial, rep.final, unique_terms,
                                         EncodingConfig(Mode.DEPTH, depth, n, edges))
            add_depth_mode(inst, layout)
            add_cnot_budget(inst, layout, k)
            try:
                model = timed_solve(Solver(inst), "descent", depth, encoded_at)
            except SolverTimeout:
                optimal = False
                break
            if model is None:
                break
            steps = _selected_steps(model, layout)
            best = decode_circuit(model, layout, decode_rep)
            depth = cnot_depth(best) - 1
        return finish(best, optimal, steps)

    raise NoSolutionWithinKmax(f"no solution with step budget up to {k_top}")


__all__ = [
    "Mode", "SynthesisRequest", "SynthesisResult",
    "NoSolutionWithinKmax", "SynthesisTimeout", "InternalConsistencyError",
    "lower_bound", "depth_floor", "default_k_max", "synthesis_key", "hopps",
    "decode_circuit", "place_rotations",
]
