"""Seeded inputs for the three workloads, built without calling the program.

Every generator here returns plain data (gate tuples, edge lists, QASM
text); ``run.py`` turns it into the program's types.  Gates are tuples:
``("cx", control, target)``, ``("rz", angle, qubit)`` and ``("h", qubit)``.

The circuit skeletons (which gates act on which qubits) are pinned by
``POOL_SEED``; the run seed draws every rotation angle and the order of
the items.  Solver time is set by the skeleton and spans three orders of
magnitude between items, so a seed that redrew skeletons moved a round of
120 peephole circuits between 5.4 s and 10.2 s; pinning them keeps two
sets of runs comparable.  The synth checks also need the skeletons pinned,
because they compare against BFS optima stored in ``synth_optima.json``.
"""
from __future__ import annotations

import math
import random
from collections import deque

POOL_SEED = 20251118

# (topology, qubits, CNOTs in the source circuit, Rz gates, instances).
# Wider CNOT ranges gave single instances of 6-10 s (K4 with a 5-CNOT
# optimum, 4-qubit rings and grids with 7-CNOT optima); the two 7-CNOT
# strata keep a few of the slower ring and grid instances for the tail.
SYNTH_STRATA = (
    ("line", 3, (3, 5), (2, 4), 10),
    ("complete", 3, (3, 5), (2, 4), 10),
    ("line", 4, (4, 7), (2, 4), 14),
    ("ring", 4, (4, 6), (2, 4), 12),
    ("grid", 4, (4, 6), (2, 4), 12),
    ("ring", 4, (7, 7), (3, 4), 5),
    ("grid", 4, (7, 7), (3, 4), 5),
    ("complete", 4, (3, 4), (2, 4), 14),
    ("line", 5, (3, 6), (2, 4), 14),
    ("ring", 5, (3, 5), (2, 4), 14),
    ("complete", 5, (2, 3), (2, 3), 10),
)

# peephole: mixed circuits cycle through these (topology, qubits, gates)
# maps.  K4 stops at 14 gates: one 18-gate K4 circuit took 21 s in depth
# mode, four fifths of a 200-circuit round.
PEEPHOLE_MAPS = (("line", 5, (10, 20)), ("ring", 5, (10, 20)), ("grid", 4, (10, 20)),
                 ("complete", 4, (10, 14)))
PEEPHOLE_CIRCUITS = 400
PEEPHOLE_H_SHARE = 1 / 3
PEEPHOLE_CX_SHARE = 0.4

# blockwise-qaoa: random 3-regular graphs, routed onto a grid; the number
# of cost layers alternates over QAOA_LAYERS so every run has the same mix
QAOA_CIRCUITS = 3
QAOA_NODES = 16
QAOA_GRID = (4, 4)
QAOA_LAYERS = (2, 3)


def coupling_edges(topology: str, n: int) -> list[tuple[int, int]]:
    """Undirected edges (a < b) of a named coupling map on ``n`` qubits."""
    if topology == "line":
        return [(i, i + 1) for i in range(n - 1)]
    if topology == "ring":
        if n < 3:
            return coupling_edges("line", n)
        return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))
    if topology == "grid":
        if n % 2:
            raise ValueError("a 2-by-k grid needs an even qubit count")
        return grid_edges(2, n // 2)
    if topology == "complete":
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    raise ValueError(f"unknown topology {topology!r}")


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return sorted(edges)


def directed(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted([e for a, b in edges for e in ((a, b), (b, a))])


def draw_angle(rng: random.Random) -> float:
    return rng.uniform(0.05, 2 * math.pi - 0.05)


def fill_angles(rng: random.Random, gates: list[tuple]) -> list[tuple]:
    """Give every ``("rz", None, q)`` slot of a skeleton a fresh angle."""
    return [("rz", draw_angle(rng), g[2]) if g[0] == "rz" else g for g in gates]


def to_qasm(n: int, gates: list[tuple]) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for g in gates:
        if g[0] == "cx":
            lines.append(f"cx q[{g[1]}],q[{g[2]}];")
        elif g[0] == "rz":
            lines.append(f"rz({g[1]!r}) q[{g[2]}];")
        else:
            lines.append(f"h q[{g[1]}];")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def synth_pool() -> list[dict]:
    """The pinned skeletons of random map-legal {CNOT, Rz} circuits."""
    rng = random.Random(POOL_SEED)
    pool = []
    for topology, n, cx_range, rz_range, size in SYNTH_STRATA:
        pairs = directed(coupling_edges(topology, n))
        for _ in range(size):
            kinds = ["cx"] * rng.randint(*cx_range) + ["rz"] * rng.randint(*rz_range)
            rng.shuffle(kinds)
            gates = [("cx", *rng.choice(pairs)) if kind == "cx"
                     else ("rz", None, rng.randrange(n)) for kind in kinds]
            pool.append({"topology": topology, "n": n, "gates": gates})
    return pool


def skeleton_key(entry: dict) -> str:
    """Stable text form of a skeleton; ties it to its stored BFS optimum."""
    body = " ".join(f"cx{g[1]}{g[2]}" if g[0] == "cx" else f"rz{g[2]}"
                    for g in entry["gates"])
    return f"{entry['topology']}{entry['n']}: {body}"


def synth_items(seed: int, pool: list[dict]) -> list[dict]:
    """Every pool entry with seeded angles, in seeded order."""
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    return [{"pool_index": i, "topology": pool[i]["topology"], "n": pool[i]["n"],
             "gates": fill_angles(rng, pool[i]["gates"])} for i in order]


# ---------------------------------------------------------------------------
# peephole
# ---------------------------------------------------------------------------


def mixed_skeleton(rng: random.Random, n: int, edges: list[tuple[int, int]],
                   num_gates: int) -> list[tuple]:
    """Map-legal CNOTs, Rz slots and opaque ``h``; about a third are ``h``."""
    pairs = directed(edges)
    gates: list[tuple] = []
    for _ in range(num_gates):
        roll = rng.random()
        if roll < PEEPHOLE_H_SHARE:
            gates.append(("h", rng.randrange(n)))
        elif roll < PEEPHOLE_H_SHARE + PEEPHOLE_CX_SHARE:
            gates.append(("cx", *rng.choice(pairs)))
        else:
            gates.append(("rz", None, rng.randrange(n)))
    return gates


def peephole_pool(count: int = PEEPHOLE_CIRCUITS) -> list[dict]:
    """Pinned skeletons, cycling through the maps so each gets its share."""
    rng = random.Random(POOL_SEED + 1)
    pool = []
    for i in range(count):
        topology, n, num_gates = PEEPHOLE_MAPS[i % len(PEEPHOLE_MAPS)]
        gates = mixed_skeleton(rng, n, coupling_edges(topology, n),
                               rng.randint(*num_gates))
        pool.append({"topology": topology, "n": n, "gates": gates})
    return pool


def peephole_items(seed: int, pool: list[dict]) -> list[dict]:
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    items = []
    for i in order:
        n = pool[i]["n"]
        gates = fill_angles(rng, pool[i]["gates"])
        items.append({"pool_index": i, "topology": pool[i]["topology"], "n": n,
                      "gates": gates, "qasm": to_qasm(n, gates)})
    return items


# ---------------------------------------------------------------------------
# blockwise-qaoa
# ---------------------------------------------------------------------------


def random_regular_graph(rng: random.Random, nodes: int, degree: int) -> list[tuple[int, int]]:
    """Uniform pairing model, redrawn until the multigraph is simple."""
    while True:
        stubs = [v for v in range(nodes) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == nodes * degree // 2:
            return sorted(edges)


def _shortest_path(adj: dict[int, list[int]], src: int, dst: int) -> list[int]:
    prev = {src: src}
    queue = deque([src])
    while queue:
        q = queue.popleft()
        if q == dst:
            break
        for r in adj[q]:
            if r not in prev:
                prev[r] = q
                queue.append(r)
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def route_qaoa(graph: list[tuple[int, int]], num_layers: int, rows: int,
               cols: int) -> list[tuple]:
    """QAOA cost layers routed onto a grid, one ``CNOT Rz CNOT`` per edge.

    Logical qubit ``v`` starts on physical ``v``.  A non-adjacent pair is
    brought together by swapping the first qubit along a shortest path
    (each SWAP three CNOTs); the moved layout is kept for later gates.
    Rz gates are angle slots.
    """
    adj: dict[int, list[int]] = {q: [] for q in range(rows * cols)}
    for a, b in grid_edges(rows, cols):
        adj[a].append(b)
        adj[b].append(a)
    phys = list(range(rows * cols))        # logical -> physical
    logical = list(range(rows * cols))     # physical -> logical
    gates: list[tuple] = []
    for _ in range(num_layers):
        for u, v in graph:
            path = _shortest_path(adj, phys[u], phys[v])
            for a, b in zip(path[:-2], path[1:-1]):
                gates.extend((("cx", a, b), ("cx", b, a), ("cx", a, b)))
                la, lb = logical[a], logical[b]
                logical[a], logical[b] = lb, la
                phys[la], phys[lb] = b, a
            pu, pv = phys[u], phys[v]
            gates.extend((("cx", pu, pv), ("rz", None, pv), ("cx", pu, pv)))
    return gates


def qaoa_pool(count: int = QAOA_CIRCUITS) -> list[dict]:
    rng = random.Random(POOL_SEED + 2)
    pool = []
    for i in range(count):
        graph = random_regular_graph(rng, QAOA_NODES, 3)
        rng.shuffle(graph)
        layers = QAOA_LAYERS[i % len(QAOA_LAYERS)]
        pool.append({"n": QAOA_NODES, "layers": layers,
                     "gates": route_qaoa(graph, layers, *QAOA_GRID)})
    return pool


def qaoa_items(seed: int, pool: list[dict]) -> list[dict]:
    """Seeded circuit order and one seeded angle per cost layer, as in QAOA."""
    rng = random.Random(seed)
    order = list(range(len(pool)))
    rng.shuffle(order)
    items = []
    for i in order:
        entry = pool[i]
        per_layer = len([g for g in entry["gates"] if g[0] == "rz"]) // entry["layers"]
        gammas = [draw_angle(rng) for _ in range(entry["layers"])]
        gates, slot = [], 0
        for g in entry["gates"]:
            if g[0] == "rz":
                gates.append(("rz", gammas[slot // per_layer], g[2]))
                slot += 1
            else:
                gates.append(g)
        items.append({"pool_index": i, "n": entry["n"], "gates": gates})
    return items
