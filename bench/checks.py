"""Output checks computed apart from the program.

Nothing here imports ``paritysat``: circuits arrive as gate tuples
(``("cx", c, t)``, ``("rz", angle, q)``, ``("h", q)``) or as QASM text
read by ``read_qasm``.  Each ``check_*`` function returns a list of
problems; an empty list means the output passed.
"""
from __future__ import annotations

import cmath
import math
import random
import re

TWO_PI = 2 * math.pi
ANGLE_TOL = 1e-7
STATE_TOL = 1e-7


def parity_terms(n: int, gates: list[tuple]) -> tuple[tuple[int, ...], list[tuple[int, object]]]:
    """Parity rows after the circuit, and (parity term, angle) per Rz in order.

    Row ``i`` is a bitmask over the inputs; a CNOT XORs the control row
    into the target row and an Rz acts on the current row of its qubit.
    """
    rows = [1 << i for i in range(n)]
    terms = []
    for g in gates:
        if g[0] == "cx":
            rows[g[2]] ^= rows[g[1]]
        elif g[0] == "rz":
            terms.append((rows[g[2]], g[1]))
        else:
            raise ValueError(f"gate {g[0]!r} has no parity form")
    return tuple(rows), terms


def replay(n: int, gates: list[tuple]) -> tuple[tuple[int, ...], dict[int, float]]:
    """Parity rows after the circuit, and each parity term's total angle.

    Two {CNOT, Rz} circuits are equal up to global phase exactly when both
    parts agree (angles mod 2 pi).
    """
    rows, terms = parity_terms(n, gates)
    phase: dict[int, float] = {}
    for term, angle in terms:
        phase[term] = phase.get(term, 0.0) + angle
    return rows, phase


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def phase_poly_equal(n: int, a: list[tuple], b: list[tuple]) -> bool:
    rows_a, phase_a = replay(n, a)
    rows_b, phase_b = replay(n, b)
    if rows_a != rows_b:
        return False
    return all(_angle_gap(phase_a.get(t, 0.0), phase_b.get(t, 0.0)) < ANGLE_TOL
               for t in set(phase_a) | set(phase_b))


def _apply(state: list[complex], g: tuple) -> None:
    size = len(state)
    if g[0] == "cx":
        cbit, tbit = 1 << g[1], 1 << g[2]
        for i in range(size):
            if i & cbit and not i & tbit:
                j = i | tbit
                state[i], state[j] = state[j], state[i]
    elif g[0] == "rz":
        qbit = 1 << g[2]
        lo, hi = cmath.exp(-0.5j * g[1]), cmath.exp(0.5j * g[1])
        for i in range(size):
            state[i] *= hi if i & qbit else lo
    elif g[0] == "h":
        qbit = 1 << g[1]
        r = 1 / math.sqrt(2)
        for i in range(size):
            if not i & qbit:
                a, b = state[i], state[i | qbit]
                state[i], state[i | qbit] = (a + b) * r, (a - b) * r
    else:
        raise ValueError(f"unknown gate {g[0]!r}")


def evolve(n: int, gates: list[tuple], state: list[complex]) -> list[complex]:
    state = list(state)
    for g in gates:
        _apply(state, g)
    return state


def random_state(n: int, rng: random.Random) -> list[complex]:
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return [a / norm for a in amps]


def states_equal(n: int, a: list[tuple], b: list[tuple], probes: int = 2) -> bool:
    """Equal up to one global phase on random input states.

    |<A psi, B psi>| = 1 only when psi is an eigenvector of A^-1 B, which a
    random psi is not unless A^-1 B is a global phase.
    """
    rng = random.Random(n)
    overlaps = []
    for _ in range(probes):
        psi = random_state(n, rng)
        pa, pb = evolve(n, a, psi), evolve(n, b, psi)
        overlaps.append(sum(x.conjugate() * y for x, y in zip(pa, pb)))
    return all(abs(z - overlaps[0]) < STATE_TOL for z in overlaps) and \
        abs(abs(overlaps[0]) - 1) < STATE_TOL


def off_map(gates: list[tuple], edges: list[tuple[int, int]]) -> list[tuple]:
    allowed = {e for a, b in edges for e in ((a, b), (b, a))}
    return [g for g in gates if g[0] == "cx" and (g[1], g[2]) not in allowed]


def cnot_count(gates: list[tuple]) -> int:
    return sum(1 for g in gates if g[0] == "cx")


def cnot_depth(n: int, gates: list[tuple]) -> int:
    """Depth of the CNOTs alone, each placed in the earliest free layer."""
    level = [0] * n
    for g in gates:
        if g[0] == "cx":
            level[g[1]] = level[g[2]] = 1 + max(level[g[1]], level[g[2]])
    return max(level, default=0)


_QREG = re.compile(r"qreg\s+q\[(\d+)\]$")
_CX = re.compile(r"cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]$")
_RZ = re.compile(r"rz\(([^)]*)\)\s+q\[(\d+)\]$")
_H = re.compile(r"h\s+q\[(\d+)\]$")


def read_qasm(text: str) -> tuple[int, list[tuple]]:
    """Read the one-register cx/rz/h QASM the workloads use."""
    n = None
    gates: list[tuple] = []
    for stmt in (s.strip() for s in text.split(";")):
        if not stmt or stmt.startswith(("OPENQASM", "include")):
            continue
        if m := _QREG.match(stmt):
            n = int(m.group(1))
        elif m := _CX.match(stmt):
            gates.append(("cx", int(m.group(1)), int(m.group(2))))
        elif m := _RZ.match(stmt):
            gates.append(("rz", float(m.group(1)), int(m.group(2))))
        elif m := _H.match(stmt):
            gates.append(("h", int(m.group(1))))
        else:
            raise ValueError(f"unexpected QASM statement {stmt!r}")
    if n is None:
        raise ValueError("no qreg in QASM text")
    return n, gates


def check_synth(item: dict, edges: list[tuple[int, int]], out: list[tuple],
                optimum: dict) -> list[str]:
    """Equivalent, on the map, BFS-optimal count, depth within the BFS circuit's."""
    n = item["n"]
    problems = []
    if not phase_poly_equal(n, item["gates"], out):
        problems.append("output is not equivalent to the input")
    if off_map(out, edges):
        problems.append(f"CNOTs off the map: {off_map(out, edges)}")
    if cnot_count(out) != optimum["cnot_count"]:
        problems.append(f"{cnot_count(out)} CNOTs, BFS optimum {optimum['cnot_count']}")
    if cnot_depth(n, out) > optimum["bfs_depth"]:
        problems.append(f"depth {cnot_depth(n, out)} exceeds the BFS circuit's "
                        f"{optimum['bfs_depth']}")
    return problems


def check_peephole(item: dict, edges: list[tuple[int, int]], out_qasm: str,
                   blocks: list[tuple[int, list[tuple], list[tuple]]]) -> list[str]:
    """Equivalent (state vectors), on the map, no replaced block deeper.

    ``blocks`` holds (qubits, original gates, replacement gates) per block.
    """
    n, out = read_qasm(out_qasm)
    problems = []
    if n != item["n"]:
        problems.append(f"output has {n} qubits, input {item['n']}")
    elif not states_equal(n, item["gates"], out):
        problems.append("output is not equivalent to the input")
    if off_map(out, edges):
        problems.append(f"CNOTs off the map: {off_map(out, edges)}")
    for width, old, new in blocks:
        if cnot_depth(width, new) > cnot_depth(width, old):
            problems.append(f"a block went from depth {cnot_depth(width, old)} "
                            f"to {cnot_depth(width, new)}")
    return problems


def check_blockwise(item: dict, edges: list[tuple[int, int]], out: list[tuple],
                    trace_counts: list[int]) -> list[str]:
    """Equivalent, on the map, no more CNOTs, and a non-increasing trace."""
    n = item["n"]
    problems = []
    if not phase_poly_equal(n, item["gates"], out):
        problems.append("output is not equivalent to the input")
    if off_map(out, edges):
        problems.append(f"CNOTs off the map: {off_map(out, edges)[:3]}")
    if cnot_count(out) > cnot_count(item["gates"]):
        problems.append(f"{cnot_count(out)} CNOTs out, {cnot_count(item['gates'])} in")
    counts = [cnot_count(item["gates"])] + trace_counts
    if any(b > a for a, b in zip(counts, counts[1:])):
        problems.append(f"trace CNOT counts increase: {counts}")
    return problems
