"""Translate a synthesis problem into CNF.

Variable families:

* ``cnot[k][e]``   -- a CNOT acts on directed edge ``e`` at step ``k``
* ``P[k][i][j]``   -- bit ``j`` of parity row ``i`` after ``k`` steps

In count mode each step holds exactly one CNOT, so the step budget equals
the CNOT count.  In depth mode each step is a nonempty layer of
qubit-disjoint CNOTs, so the step budget equals the CNOT depth; a CNOT
budget on top of it bounds the count, which serves both doubly searches.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .ir import ParityMatrix
from .sat.core import SatInstance, at_least_k, at_most_k


class Mode(str, Enum):
    CNOT = "cnot"
    DEPTH = "depth"


@dataclass(frozen=True)
class EncodingConfig:
    mode: Mode
    steps: int
    num_qubits: int
    directed_edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("step count must be nonnegative")
        edge_set = set(self.directed_edges)
        if len(edge_set) != len(self.directed_edges):
            raise ValueError("duplicate directed edge")
        for a, b in self.directed_edges:
            if a == b:
                raise ValueError(f"self-loop edge ({a},{b})")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a},{b}) out of range")
            if (b, a) not in edge_set:
                raise ValueError(f"missing reverse orientation of ({a},{b})")


@dataclass
class VarLayout:
    cfg: EncodingConfig
    parity: list[list[list[int]]]          # [k][i][j] for k in 0..steps
    cnot: list[list[int]]                  # [k][e] for k in 0..steps-1


def _value_lit(var: int, bit: int) -> int:
    return var if bit else -var


def encode_common(initial: ParityMatrix, final: ParityMatrix,
                  terms: Sequence[int], cfg: EncodingConfig) -> tuple[SatInstance, VarLayout]:
    """Parity evolution, endpoint, and term-coverage constraints.

    The parity state is pinned to ``initial`` at step 0 and to ``final``
    after the last step; a selected CNOT on edge (c, t) flips target-row
    bits wherever the control row holds a 1, and rows targeted by no
    selected gate carry over unchanged.  Every term must equal some row
    of some parity slice, endpoints included.
    """
    n = cfg.num_qubits
    K = cfg.steps
    if initial.n != n or final.n != n:
        raise ValueError("matrix size does not match the encoding config")
    for t in terms:
        if t == 0:
            raise ValueError("term parity vectors must be nonzero")
        if t < 0 or t >> n:
            raise ValueError(f"term {t:#x} out of range for n={n}")

    inst = SatInstance()
    edges = cfg.directed_edges

    parity = [[[inst.name_var("P", 0, i, j) for j in range(n)] for i in range(n)]]
    for i in range(n):
        row = initial.rows[i]
        for j in range(n):
            inst.add_clause([_value_lit(parity[0][i][j], (row >> j) & 1)])

    cnot: list[list[int]] = []
    for k in range(K):
        step_vars = [inst.name_var("cnot", k, a, b) for a, b in edges]
        cnot.append(step_vars)
        # auxiliary "row i is targeted at step k" indicators
        targeted: list[int | None] = []
        for i in range(n):
            targeting = [step_vars[e] for e, (a, b) in enumerate(edges) if b == i]
            if not targeting:
                targeted.append(None)
                continue
            aux = inst.new_var()
            for v in targeting:
                inst.add_clause([-v, aux])
            inst.add_clause([-aux] + targeting)
            targeted.append(aux)

        nxt = [[inst.name_var("P", k + 1, i, j) for j in range(n)] for i in range(n)]
        parity.append(nxt)
        cur = parity[k]

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
                if aux is None:
                    inst.add_clause([-p, q])
                    inst.add_clause([p, -q])
                else:
                    inst.add_clause([aux, -p, q])
                    inst.add_clause([aux, p, -q])

    for i in range(n):
        row = final.rows[i]
        for j in range(n):
            inst.add_clause([_value_lit(parity[K][i][j], (row >> j) & 1)])

    # term coverage: a fresh indicator per (term, slice, row) implies a
    # bitwise row match; at least one indicator fires per term
    for t in terms:
        indicators = []
        for k in range(K + 1):
            for i in range(n):
                m = inst.new_var()
                for j in range(n):
                    inst.add_clause([-m, _value_lit(parity[k][i][j], (t >> j) & 1)])
                indicators.append(m)
        at_least_k(inst, indicators, 1)

    return inst, VarLayout(cfg, parity, cnot)


def add_cnot_mode(inst: SatInstance, layout: VarLayout) -> None:
    """Exactly one CNOT per step: the step budget is the CNOT count."""
    if layout.cfg.mode is not Mode.CNOT:
        raise ValueError("count-mode constraints on a non-count config")
    for step_vars in layout.cnot:
        at_least_k(inst, step_vars, 1)
        at_most_k(inst, step_vars, 1)


def add_depth_mode(inst: SatInstance, layout: VarLayout) -> None:
    """Nonempty qubit-disjoint layer per step: the budget is the depth."""
    if layout.cfg.mode is not Mode.DEPTH:
        raise ValueError("depth-mode constraints on a non-depth config")
    edges = layout.cfg.directed_edges
    for step_vars in layout.cnot:
        at_least_k(inst, step_vars, 1)
        for q in range(layout.cfg.num_qubits):
            incident = [step_vars[e] for e, (a, b) in enumerate(edges) if q in (a, b)]
            at_most_k(inst, incident, 1)


def add_cnot_budget(inst: SatInstance, layout: VarLayout, budget: int) -> None:
    """Cap the total CNOT count across all steps of a depth-mode instance."""
    if budget < 0:
        raise ValueError("CNOT budget must be nonnegative")
    if layout.cfg.mode is not Mode.DEPTH:
        raise ValueError("CNOT budget applies to depth-mode instances only")
    everything = [v for step_vars in layout.cnot for v in step_vars]
    at_most_k(inst, everything, budget)


__all__ = [
    "Mode", "EncodingConfig", "VarLayout",
    "encode_common", "add_cnot_mode", "add_depth_mode", "add_cnot_budget",
]
