"""Exhaustive breadth-first search for ground-truth optimal circuits.

States are (parity rows, matched-terms mask) pairs; a move is one CNOT on
a directed edge (count search) or a nonempty set of qubit-disjoint edges
(depth search).  The search returns the optimal budget together with every
optimal circuit, which is what the doubly-optimal dominance checks need.
Correctness over speed: no pruning beyond visited-state deduplication.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from .ir import Circuit, CouplingMap, PhasePolyRep
from .synthesizer import place_rotations, synthesis_problem


class OracleCapError(RuntimeError):
    """Search frontier exceeded the configured node cap."""


State = tuple[tuple[int, ...], int]


def _initial_mask(rows: Sequence[int], terms: Sequence[int]) -> int:
    row_set = set(rows)
    mask = 0
    for b, t in enumerate(terms):
        if t in row_set:
            mask |= 1 << b
    return mask


def _mask_with_rows(mask: int, changed_rows: Sequence[int], terms: Sequence[int]) -> int:
    for b, t in enumerate(terms):
        if not (mask >> b) & 1 and t in changed_rows:
            mask |= 1 << b
    return mask


def _disjoint_layers(edges: Sequence[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
    """All nonempty sets of pairwise qubit-disjoint directed edges."""
    out: list[tuple[tuple[int, int], ...]] = []

    def extend(start: int, used: frozenset[int], chosen: tuple) -> None:
        for e in range(start, len(edges)):
            a, b = edges[e]
            if a in used or b in used:
                continue
            layer = chosen + (edges[e],)
            out.append(layer)
            extend(e + 1, used | {a, b}, layer)

    extend(0, frozenset(), ())
    return out


def _all_paths(state: State, start: State,
               parents: dict[State, list[tuple[State, tuple]]]) -> Iterator[list[tuple]]:
    if state == start:
        yield []
        return
    for prev, move in parents[state]:
        for path in _all_paths(prev, start, parents):
            yield path + [move]


def _search(rep: PhasePolyRep, cm: CouplingMap, moves_of, node_cap: int):
    rep, cm = synthesis_problem(rep, cm)
    terms = rep.table.unique_terms
    start_rows = rep.initial.rows
    goal_rows = rep.final.rows
    full = (1 << len(terms)) - 1
    start: State = (start_rows, _initial_mask(start_rows, terms))
    goal: State = (goal_rows, full)
    moves = moves_of(cm.directed_edges())

    if start == goal:
        return 0, [[]], rep

    dist: dict[State, int] = {start: 0}
    parents: dict[State, list[tuple[State, tuple]]] = {}
    frontier: list[State] = [start]
    depth = 0
    # on a connected map every invertible matrix and every term is
    # reachable, so the goal is found before the frontier runs dry
    while True:
        depth += 1
        nxt: list[State] = []
        for state in frontier:
            rows, mask = state
            for move in moves:
                new_rows = list(rows)
                for c, t in move:
                    new_rows[t] ^= new_rows[c]
                changed = [new_rows[t] for _, t in move]
                new_state: State = (tuple(new_rows), _mask_with_rows(mask, changed, terms))
                known = dist.get(new_state)
                if known is None:
                    dist[new_state] = depth
                    parents[new_state] = [(state, move)]
                    nxt.append(new_state)
                elif known == depth:
                    parents[new_state].append((state, move))
            if len(dist) > node_cap:
                raise OracleCapError(f"visited more than {node_cap} states")
        if goal in dist:
            return depth, list(_all_paths(goal, start, parents)), rep
        frontier = nxt


def oracle_min_count(rep: PhasePolyRep, cm: CouplingMap,
                     node_cap: int = 2_000_000) -> tuple[int, list[Circuit]]:
    """Minimal CNOT count and the complete set of count-optimal circuits."""
    def single_moves(edges):
        return [((c, t),) for c, t in edges]

    count, paths, rep = _search(rep, cm, single_moves, node_cap)
    return count, [place_rotations(path, rep) for path in paths]


def oracle_min_depth(rep: PhasePolyRep, cm: CouplingMap,
                     node_cap: int = 2_000_000) -> tuple[int, list[Circuit]]:
    """Minimal CNOT depth and the complete set of depth-optimal circuits."""
    depth, paths, rep = _search(rep, cm, _disjoint_layers, node_cap)
    return depth, [place_rotations(path, rep) for path in paths]


__all__ = ["OracleCapError", "oracle_min_count", "oracle_min_depth"]
