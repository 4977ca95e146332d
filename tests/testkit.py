"""Shared test helpers: topology constructors and random instance generators.

Imported by name (``from testkit import ...``); ``conftest.py`` holds only
fixtures and the hypothesis profile, so this directory and ``bench/`` can
be collected in one pytest run.
"""
import random

from paritysat.ir import Circuit, Cnot, CouplingMap, Opaque, PhasePolyRep, Rz
from paritysat.phasepoly import extract_rep

TOPOLOGIES = {
    "line": CouplingMap.line,
    "ring": CouplingMap.ring,
    "complete": CouplingMap.complete,
}


def random_cnot_rz_circuit(rng: random.Random, n: int, n_cnots: int, n_rz: int,
                           cm: CouplingMap | None = None) -> Circuit:
    """Random {CNOT, Rz} circuit; CNOTs restricted to ``cm`` edges if given."""
    if cm is None:
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    else:
        pairs = list(cm.directed_edges())
    kinds = ["c"] * n_cnots + ["r"] * n_rz
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "c":
            gates.append(Cnot(*rng.choice(pairs)))
        else:
            gates.append(Rz(rng.uniform(0.05, 3.0), rng.randrange(n)))
    return Circuit(n, tuple(gates))


def random_mixed_circuit(rng: random.Random, n: int, n_gates: int) -> Circuit:
    """Random circuit with opaque gates sprinkled between CNOTs and Rz's."""
    gates = []
    for _ in range(n_gates):
        roll = rng.random()
        if roll < 0.45 and n >= 2:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            gates.append(Cnot(a, b if b < a else b + 1))
        elif roll < 0.75:
            gates.append(Rz(rng.uniform(0.05, 3.0), rng.randrange(n)))
        elif roll < 0.9 or n < 2:
            gates.append(Opaque("h", (rng.randrange(n),)))
        else:
            a = rng.randrange(n)
            b = rng.randrange(n - 1)
            gates.append(Opaque("cz", (a, b if b < a else b + 1)))
    return Circuit(n, tuple(gates))


def random_instance(rng: random.Random, n: int, cm: CouplingMap,
                    n_cnots: int, n_rz: int) -> PhasePolyRep:
    """Representation extracted from a random topology-legal circuit."""
    return extract_rep(random_cnot_rz_circuit(rng, n, n_cnots, n_rz, cm))


def greedy_layers(circuit: Circuit) -> list[list[tuple[int, int]]]:
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
