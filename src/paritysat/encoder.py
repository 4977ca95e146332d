"""Translate a synthesis problem into CNF.

The problem is what ``synthesizer.synthesis_problem`` prepares, a merged
``PhasePolyRep`` and the ``CouplingMap`` on its qubits.  The encoder reads
their parity matrices, unique terms in table order and directed edges,
never the angles; both checked their own inputs when they were built.

Variable families:

* ``cnot[k][e]``   -- a CNOT acts on directed edge ``e`` at step ``k``
* ``P[k][i][j]``   -- bit ``j`` of parity row ``i`` after ``k`` steps

In count mode each step holds exactly one CNOT, so the step budget equals
the CNOT count.  In depth mode each step is a nonempty layer of
qubit-disjoint CNOTs, so the step budget equals the CNOT depth; a CNOT
budget on top of it bounds the count, which serves both doubly searches.

Every layer holds at least one CNOT, so the count of ``s`` steps is ``s``
plus the excess ``sum_k (|layer k| - 1)``.  ``add_cnot_budget`` gives each
step ``excess[k][m - 1]`` literals, for ``m = 1 .. n // 2 - 1``, each
forced true by every set of ``m + 1`` qubit-disjoint CNOT variables of the
step, and caps their number: a budget of ``c`` CNOTs is at most ``c - s``
excess literals, on one counter over ``s * (n // 2 - 1)`` literals rather
than over every CNOT variable.  On 4 and 5 qubits that is one literal per
step, implied by each pair of disjoint CNOTs; on 3 or fewer a layer holds
one CNOT and there is none.

There is one encoding, a chain: ``encode_chain`` and ``extend_chain`` grow
one instance a step at a time, and ``add_goal`` states the goal of its
current budget (final parities, term coverage) under an activation
literal, so one solver can try every budget in turn.

Each step's CNOT variables go to ``SatInstance.preferred``, in both
modes, so the solver tries them True first: in count mode one decision
picks the step's CNOT and the at-most-one clauses clear the rest, where
False first would take one decision per edge until the at-least-one
clause forces the last; in depth mode a layer fills greedily with
disjoint CNOTs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .ir import CouplingMap, ParityMatrix, PhasePolyRep
from .sat.core import SatInstance, SequentialCounter, at_least_k, at_most_k, sequential_at_most


class Mode(str, Enum):
    CNOT = "cnot"
    DEPTH = "depth"


@dataclass
class VarLayout:
    # the problem encoded: its mode, directed edges, final matrix and
    # ``ParityTable.unique_terms`` (whose order numbers the coverage variables)
    mode: Mode
    edges: tuple[tuple[int, int], ...]
    final: ParityMatrix
    terms: tuple[int, ...]
    parity: list[list[list[int]]]          # [k][i][j] for k in 0..steps
    cnot: list[list[int]]                  # [k][e] for k in 0..steps-1
    # term coverage: per term, one indicator per (slice, row) encoded so far
    matches: list[list[int]] = field(default_factory=list)
    # depth mode: per step, the literals that a CNOT budget counts
    excess: list[list[int]] = field(default_factory=list)


def _value_lit(var: int, bit: int) -> int:
    return var if bit else -var


def _pin(inst: SatInstance, slice_vars: list[list[int]], matrix: ParityMatrix,
         guard: int | None = None) -> None:
    """Fix a parity slice to ``matrix``; under ``guard`` only, if given."""
    for row, bits in zip(matrix.rows, slice_vars):
        for j, var in enumerate(bits):
            lit = _value_lit(var, (row >> j) & 1)
            inst.add_clause([lit] if guard is None else [-guard, lit])


def _row_matches(inst: SatInstance, slice_vars: list[list[int]], term: int) -> list[int]:
    """One fresh indicator per row of a slice, each implying a bitwise
    match of its row with ``term``."""
    indicators = []
    for bits in slice_vars:
        m = inst.new_var()
        for j, var in enumerate(bits):
            inst.add_clause([-m, _value_lit(var, (term >> j) & 1)])
        indicators.append(m)
    return indicators


def _append_step(inst: SatInstance, layout: VarLayout) -> list[int]:
    """Add step ``k`` (its CNOTs) and parity slice ``k + 1``, and return
    the step's CNOT variables.

    A selected CNOT on edge (c, t) flips target-row bits wherever the
    control row holds a 1, and rows targeted by no selected gate carry over
    unchanged.
    """
    n = layout.final.n
    edges = layout.edges
    k = len(layout.cnot)
    step_vars = [inst.name_var("cnot", k, a, b) for a, b in edges]
    inst.preferred.extend(step_vars)
    layout.cnot.append(step_vars)
    # auxiliary "row i is targeted at step k" indicators; with no edge into
    # row i the last clause is [-aux], and the row carries over
    targeted = []
    for i in range(n):
        targeting = [step_vars[e] for e, (a, b) in enumerate(edges) if b == i]
        aux = inst.new_var()
        for v in targeting:
            inst.add_clause([-v, aux])
        inst.add_clause([-aux] + targeting)
        targeted.append(aux)

    nxt = [[inst.name_var("P", k + 1, i, j) for j in range(n)] for i in range(n)]
    cur = layout.parity[k]
    layout.parity.append(nxt)

    for e, (c, t) in enumerate(edges):
        gate = step_vars[e]
        for j in range(n):
            pc, pt, qt = cur[c][j], cur[t][j], nxt[t][j]
            # control bit 1: target bit flips
            inst.add_clause([-gate, -pc, qt, pt])
            inst.add_clause([-gate, -pc, -qt, -pt])
            # control bit 0: target bit carries over
            inst.add_clause([-gate, pc, qt, -pt])
            inst.add_clause([-gate, pc, -qt, pt])
    for i in range(n):
        aux = targeted[i]
        for j in range(n):
            p, q = cur[i][j], nxt[i][j]
            inst.add_clause([aux, -p, q])
            inst.add_clause([aux, p, -q])
    return step_vars


def _step_mode(inst: SatInstance, layout: VarLayout, step_vars: list[int]) -> None:
    """Count mode: exactly one CNOT.  Depth mode: a nonempty layer of
    qubit-disjoint CNOTs."""
    at_least_k(inst, step_vars, 1)
    if layout.mode is Mode.CNOT:
        at_most_k(inst, step_vars, 1)
        return
    for q in range(layout.final.n):
        incident = [step_vars[e] for e, (a, b) in enumerate(layout.edges) if q in (a, b)]
        at_most_k(inst, incident, 1)


def encode_chain(rep: PhasePolyRep, coupling: CouplingMap, mode: Mode,
                 steps: int) -> tuple[SatInstance, VarLayout]:
    """Encode ``rep`` on ``coupling`` in ``mode``: the initial and final
    matrices, the unique terms of the table and the directed edges of the
    map, which must have the rep's qubit count.  Parity slice 0 is pinned
    to ``rep.initial``, then come ``steps`` steps, each with its transition
    and mode constraints and the coverage indicators of its slice, but no
    goal: ``extend_chain`` grows it by one step, and ``add_goal`` states
    the goal of its current budget.  The chain's budget is
    ``len(layout.cnot)``."""
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    n = rep.n
    if coupling.num_qubits != n:
        raise ValueError(f"a coupling map on {coupling.num_qubits} qubits "
                         f"for a rep on {n}")
    inst = SatInstance()
    parity = [[[inst.name_var("P", 0, i, j) for j in range(n)] for i in range(n)]]
    _pin(inst, parity[0], rep.initial)
    layout = VarLayout(mode, coupling.directed_edges(), rep.final,
                       rep.table.unique_terms, parity, [])
    layout.matches.extend(_row_matches(inst, parity[0], t) for t in layout.terms)
    for _ in range(steps):
        extend_chain(inst, layout)
    return inst, layout


def extend_chain(inst: SatInstance, layout: VarLayout) -> None:
    """Append one step to a chain of ``encode_chain``, in place: its CNOTs,
    the next parity slice, the transition and mode constraints of the step
    and the coverage indicators of the slice."""
    step_vars = _append_step(inst, layout)
    _step_mode(inst, layout, step_vars)
    for t, indicators in zip(layout.terms, layout.matches):
        indicators.extend(_row_matches(inst, layout.parity[-1], t))


def add_goal(inst: SatInstance, layout: VarLayout) -> int:
    """Guard the goal of a chain's current budget with a fresh activation
    literal, and return it: under it the last slice is ``layout.final`` and
    every term appears in some slice.  Solve under the literal to try the
    budget; add its negation as a unit to drop the goal, or the literal
    itself to keep it for good."""
    goal = inst.new_var()
    _pin(inst, layout.parity[-1], layout.final, guard=goal)
    for indicators in layout.matches:
        inst.add_clause([-goal] + indicators)
    return goal


def disjoint_sets(edges: Sequence[tuple[int, int]], smallest: int = 2) -> list[tuple[int, ...]]:
    """Index tuples of ``smallest`` or more pairwise qubit-disjoint edges,
    each ascending, in lexicographic order."""
    found: list[tuple[int, ...]] = []

    def grow(start: int, used: frozenset, chosen: tuple[int, ...]) -> None:
        if len(chosen) >= smallest:
            found.append(chosen)
        for e in range(start, len(edges)):
            a, b = edges[e]
            if a not in used and b not in used:
                grow(e + 1, used | {a, b}, chosen + (e,))

    grow(0, frozenset(), ())
    return found


def _add_excess(inst: SatInstance, layout: VarLayout) -> None:
    """Give every step of a depth-mode chain that has none its excess
    literals: ``excess[k][m - 1]``, for ``m = 1 .. n // 2 - 1``, is forced
    true by each set of ``m + 1`` qubit-disjoint CNOT variables of step
    ``k``, so whenever layer ``k`` holds at least ``m + 1`` CNOTs."""
    sets = disjoint_sets(layout.edges)
    for step_vars in layout.cnot[len(layout.excess):]:
        excess = inst.new_vars(layout.final.n // 2 - 1)
        for chosen in sets:
            inst.add_clause([-step_vars[e] for e in chosen] + [excess[len(chosen) - 2]])
        layout.excess.append(excess)


def add_cnot_budget(inst: SatInstance, layout: VarLayout,
                    budget: int) -> SequentialCounter | None:
    """Cap the total CNOT count across all steps of a depth-mode instance,
    for good.

    Every layer is nonempty, so ``budget`` CNOTs over ``s`` steps is at most
    ``budget - s`` excess literals (see the module notes), which the steps
    get here if they have none.  The cap is exact: a model can set each
    step's excess literals to its layer's size.  A budget below ``s`` is
    refused, since every chain of ``s`` steps holds ``s`` CNOTs.

    When ``1 <= budget - s <=`` the number of excess literals, the cap is a
    sequential counter and its handle is returned: ``at_most(inst, c - s)``
    states a lower count ``c`` under a fresh goal literal.  Otherwise the
    cap is all excess literals false, or nothing, and None is returned.
    Caps stated at fewer steps stay sound as the chain grows: the excess of
    the first steps is at most that of all.
    """
    if layout.mode is not Mode.DEPTH:
        raise ValueError("CNOT budget applies to depth-mode instances only")
    room = budget - len(layout.cnot)
    if room < 0:
        raise ValueError(f"a CNOT budget of {budget} is below the {len(layout.cnot)} "
                         "nonempty layers of the chain")
    _add_excess(inst, layout)
    excess = [lit for step in layout.excess for lit in step]
    if not 1 <= room <= len(excess):
        at_most_k(inst, excess, room)
        return None
    # the counter's last literal is fixed false, so that its registers cover
    # every excess literal: a cap that every full layer meets, or that one
    # literal meets, still states each lower one
    pad = inst.new_var()
    inst.add_clause([-pad])
    return sequential_at_most(inst, excess + [pad], room)


__all__ = [
    "Mode", "VarLayout",
    "encode_chain", "extend_chain", "add_goal", "add_cnot_budget", "disjoint_sets",
]
