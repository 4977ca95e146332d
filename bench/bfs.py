#!/usr/bin/env python3
"""Breadth-first CNOT-count optima for the synth pool, apart from the program.

A state is the packed parity rows plus the set of terms already seen as a
row; a move is one CNOT on a directed coupling edge.  The first level that
reaches the target rows with every term seen is the optimal CNOT count,
and the circuit found there bounds the CNOT depth a doubly optimal
synthesis may have.

    python3 bench/bfs.py    # recompute bench/synth_optima.json

``python3 -m pytest bench`` recomputes the optima and compares them with
the stored file.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checks
import inputs

OPTIMA_PATH = Path(__file__).resolve().parent / "synth_optima.json"


def bfs_optimum(n: int, edges: list[tuple[int, int]],
                gates: list[tuple]) -> tuple[int, list[tuple[int, int]]]:
    """Minimal CNOT count for the skeleton's parity map and terms, with a
    circuit that reaches it.  Rz slots count as terms (any angle will do:
    seeded angles never cancel)."""
    rows, slots = checks.parity_terms(n, gates)
    terms = list(dict.fromkeys(term for term, _ in slots))
    width = n * n
    row_mask = (1 << n) - 1
    term_bit = {t: 1 << i for i, t in enumerate(terms)}

    def pack(rs) -> int:
        return sum(r << (i * n) for i, r in enumerate(rs))

    identity = [1 << i for i in range(n)]
    start = pack(identity) | sum(term_bit.get(r, 0) for r in identity) << width
    goal = pack(rows) | ((1 << len(terms)) - 1) << width
    moves = inputs.directed(edges)
    parent: dict[int, tuple[int, int] | None] = {start: None}
    frontier = [start]
    level = 0
    while start != goal:
        level += 1
        nxt = []
        for state in frontier:
            for m, (c, t) in enumerate(moves):
                rc = (state >> (c * n)) & row_mask
                new_rt = ((state >> (t * n)) & row_mask) ^ rc
                succ = (state ^ (rc << (t * n))) | term_bit.get(new_rt, 0) << width
                if succ not in parent:
                    parent[succ] = (state, m)
                    nxt.append(succ)
        if goal in parent:
            break
        if not nxt:
            raise RuntimeError("target unreachable on this coupling map")
        frontier = nxt
    path = []
    state = goal
    while parent[state] is not None:
        state, m = parent[state]
        path.append(moves[m])
    return level, path[::-1]


def compute_optima() -> dict:
    entries = []
    for entry in inputs.synth_pool():
        n = entry["n"]
        count, path = bfs_optimum(n, inputs.coupling_edges(entry["topology"], n),
                                  entry["gates"])
        depth = checks.cnot_depth(n, [("cx", c, t) for c, t in path])
        entries.append({"key": inputs.skeleton_key(entry), "cnot_count": count,
                        "bfs_depth": depth})
    return {"pool_seed": inputs.POOL_SEED, "entries": entries}


def load_optima() -> list[dict]:
    """Stored optima, one per pool entry; refuses a store that does not
    match the pool the generator makes today."""
    stored = json.loads(OPTIMA_PATH.read_text())
    pool = inputs.synth_pool()
    keys = [inputs.skeleton_key(e) for e in pool]
    if stored.get("pool_seed") != inputs.POOL_SEED or \
            [e["key"] for e in stored["entries"]] != keys:
        raise RuntimeError(f"{OPTIMA_PATH.name} does not match the synth pool; "
                           "recompute it with: python3 bench/bfs.py")
    return stored["entries"]


def main() -> int:
    start = time.perf_counter()
    fresh = compute_optima()
    took = time.perf_counter() - start
    OPTIMA_PATH.write_text(json.dumps(fresh, indent=1) + "\n")
    print(f"wrote {len(fresh['entries'])} optima to {OPTIMA_PATH} in {took:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
