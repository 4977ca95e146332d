"""Incremental SAT search for optimal and doubly optimal circuits.

Phase 1 grows the step budget from a lower bound until the first
satisfiable encoding; that budget is the optimal primary metric (count in
count mode, depth in depth mode).  Phase 2, when requested, fixes the
primary optimum and descends on the secondary metric by monotonically
adding constraints to the same instance: a layer assignment plus
shrinking depth limits in count mode, or shrinking CNOT budgets in depth
mode.  The last satisfiable model wins.

Each budget gets one encoding and one incremental ``Solver``: the
layering call and every descent resume from what the primary call (and
the calls after it) learned.  The solver is dropped when the budget
grows, so at most one budget's solver is alive at a time.
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
    add_depth_limit,
    add_depth_mode,
    add_layer_assignment,
    encode_common,
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
from .sat.core import SatInstance, export_dimacs
from .sat.solver import SatModel, Solver, SolverTimeout, solve_instance


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
    layers: list[list[tuple[int, int]]] | None = None
    stats: list[dict] = field(default_factory=list)


def lower_bound(rep: PhasePolyRep, mode: Mode) -> int:
    """Cheap provable floor on the step budget.

    Count mode: each CNOT rewrites exactly one row to one new value, so
    every distinct term absent from the initial rows needs its own step.
    Depth mode: a single nonempty layer suffices as floor unless nothing
    needs to change at all.
    """
    initial_rows = set(rep.initial.rows)
    missing = {t for t in rep.table.terms if t not in initial_rows}
    if mode is Mode.CNOT:
        return len(missing)
    done = not missing and rep.initial.rows == rep.final.rows
    return 0 if done else 1


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


def _realized_depth(model: SatModel, layout: VarLayout) -> int:
    assert layout.gate_layer is not None
    top = -1
    for k, row in enumerate(layout.gate_layer):
        for l, var in enumerate(row):
            if model[var] and l > top:
                top = l
    return top + 1


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


def _layered_steps(model: SatModel, layout: VarLayout) -> list[list[tuple[int, int]]]:
    """Group the count-mode gate sequence by its assigned layer labels."""
    assert layout.gate_layer is not None
    edges = layout.cfg.directed_edges
    by_label: dict[int, list[tuple[int, int]]] = {}
    for k, step_vars in enumerate(layout.cnot):
        gate = next(edges[e] for e, var in enumerate(step_vars) if model[var])
        label = next(l for l, var in enumerate(layout.gate_layer[k]) if model[var])
        by_label.setdefault(label, []).append(gate)
    return [by_label[l] for l in sorted(by_label)]


def _angle_free(rep: PhasePolyRep, table: ParityTable) -> PhasePolyRep:
    """``rep`` with the unique terms of its merged ``table``, in order, at
    angle 0: all that the search reads of the phase polynomial."""
    terms = tuple(dict.fromkeys(table.terms))
    return PhasePolyRep(rep.initial, rep.final,
                        ParityTable(rep.n, terms, tuple(0.0 for _ in terms)))


def _used_coupling(coupling: CouplingMap, n: int) -> CouplingMap:
    return induced_coupling(coupling, range(n)) if coupling.num_qubits > n else coupling


def synthesis_key(rep: PhasePolyRep, coupling: CouplingMap) -> tuple:
    """What ``hopps`` reads of a request's rep and coupling map.

    Requests with equal keys and equal settings get the same CNOT steps;
    only the angles that ``place_rotations`` puts on them differ.  The
    terms keep their order, because the encoder numbers its variables in
    term order.
    """
    bound = _angle_free(rep, merged_table(rep))
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

    def timed_solve(solver: Solver, phase: str, k: int,
                    encoded_at: float) -> SatModel | None:
        """One SAT call; its stats entry also records the CNF handed over
        and the seconds spent encoding since ``encoded_at``."""
        inst = solver.inst
        entry: dict = {"phase": phase, "k": k, "vars": inst.num_vars,
                       "clauses": inst.num_clauses,
                       "encode_s": time.monotonic() - encoded_at}
        remaining = max(deadline - time.monotonic(), 0.0)
        model = solve_instance(inst, remaining, stats_out=entry, solver=solver)
        entry["status"] = "sat" if model is not None else "unsat"
        stats.append(entry)
        return model

    def finish(model: SatModel, layout: VarLayout, inst: SatInstance,
               layers: list[list[tuple[int, int]]] | None, optimal: bool) -> SynthesisResult:
        if req.dimacs_path:
            with open(req.dimacs_path, "w") as fh:
                fh.write(export_dimacs(inst))
        circuit = decode_circuit(model, layout, decode_rep)
        return SynthesisResult(circuit, cnot_count(circuit), cnot_depth(circuit),
                               optimal, layers, stats)

    for k in range(lower_bound(bound_rep, req.mode), k_top + 1):
        encoded_at = time.monotonic()
        cfg = EncodingConfig(req.mode, k, n, edges)
        inst, layout = encode_common(rep.initial, rep.final, unique_terms, cfg)
        if req.mode is Mode.CNOT:
            add_cnot_mode(inst, layout)
        else:
            add_depth_mode(inst, layout)
        solver = Solver(inst)  # one per budget: rebinding drops the last one
        try:
            model = timed_solve(solver, "primary", k, encoded_at)
        except SolverTimeout as exc:
            raise SynthesisTimeout(f"no model within {req.timeout_s} s at budget {k}") from exc
        if model is None:
            continue

        if not req.doubly or k == 0:
            layers = _selected_steps(model, layout) if req.mode is Mode.DEPTH else None
            if k == 0:
                layers = []
            return finish(model, layout, inst, layers, optimal=True)

        # phase 2: descend on the secondary metric, keeping the last model
        if req.mode is Mode.CNOT:
            encoded_at = time.monotonic()
            add_layer_assignment(inst, layout)
            try:
                best = timed_solve(solver, "layering", k, encoded_at)
            except SolverTimeout:
                return finish(model, layout, inst, None, optimal=False)
            assert best is not None  # any gate sequence admits one-gate-per-layer
            measure, tighten, steps_of, floor = (
                _realized_depth, add_depth_limit, _layered_steps, 1)
        else:
            best = model
            measure, tighten, steps_of, floor = (
                _count_gates, add_cnot_budget, _selected_steps, 0)
        value = measure(best, layout)
        optimal = True
        while value > floor:
            encoded_at = time.monotonic()
            tighten(inst, layout, value - 1)
            try:
                nxt = timed_solve(solver, "descent", value - 1, encoded_at)
            except SolverTimeout:
                optimal = False
                break
            if nxt is None:
                break
            best = nxt
            value = measure(best, layout)
        return finish(best, layout, inst, steps_of(best, layout), optimal)

    raise NoSolutionWithinKmax(f"no solution with step budget up to {k_top}")


__all__ = [
    "Mode", "SynthesisRequest", "SynthesisResult",
    "NoSolutionWithinKmax", "SynthesisTimeout", "InternalConsistencyError",
    "lower_bound", "default_k_max", "synthesis_key", "hopps", "decode_circuit",
    "place_rotations",
]
