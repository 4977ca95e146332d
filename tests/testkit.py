"""Shared test helpers: topology constructors, random instance generators
and reference implementations that faster code is checked against.

Imported by name (``from testkit import ...``); ``conftest.py`` holds only
fixtures and the hypothesis profile, so this directory and ``bench/`` can
be collected in one pytest run.
"""
import random

from paritysat.ir import Circuit, Cnot, CouplingMap, Opaque, PhasePolyRep, Rz, gate_qubits
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


def random_mixed_circuit(rng: random.Random, n: int, n_gates: int,
                         cm: CouplingMap | None = None) -> Circuit:
    """Random circuit with opaque gates sprinkled between CNOTs and Rz's;
    two-qubit gates restricted to ``cm`` edges if given."""

    def pair() -> tuple[int, int]:
        if cm is not None:
            return rng.choice(cm.directed_edges())
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        return a, b if b < a else b + 1

    gates = []
    for _ in range(n_gates):
        roll = rng.random()
        if roll < 0.45 and n >= 2:
            gates.append(Cnot(*pair()))
        elif roll < 0.75:
            gates.append(Rz(rng.uniform(0.05, 3.0), rng.randrange(n)))
        elif roll < 0.9 or n < 2:
            gates.append(Opaque("h", (rng.randrange(n),)))
        else:
            gates.append(Opaque("cz", pair()))
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


def reference_scan_blocks(circuit: Circuit, max_qubits: int | None = None,
                          max_depth: int | None = None,
                          flush_at: int | None = None) -> list[tuple[list[int], list[int]]]:
    """A plain restatement of ``peephole._scan_blocks``, the reference
    that scan is checked against: every gate gathers the open blocks on
    its qubits and merges them or seals them, with each block's qubits,
    indices, layers and depth in separate dicts."""
    open_of: dict[int, int] = {}
    qubits_of: dict[int, set[int]] = {}
    indices_of: dict[int, list[int]] = {}
    layer_of: dict[int, dict[int, int]] = {}
    depth_of: dict[int, int] = {}
    sealed: list[int] = []
    next_id = 0

    def seal(block_id):
        for q in qubits_of[block_id]:
            if open_of.get(q) == block_id:
                del open_of[q]
        sealed.append(block_id)

    def open_new(qs, index, gate):
        nonlocal next_id
        bid = next_id
        next_id += 1
        qubits_of[bid] = set(qs)
        indices_of[bid] = [index]
        layer_of[bid] = {}
        depth_of[bid] = 0
        track_depth(bid, gate)
        for q in qs:
            open_of[q] = bid

    def track_depth(bid, gate):
        if isinstance(gate, Cnot):
            lm = layer_of[bid]
            lv = 1 + max(lm.get(gate.control, 0), lm.get(gate.target, 0))
            lm[gate.control] = lm[gate.target] = lv
            if lv > depth_of[bid]:
                depth_of[bid] = lv

    for index, gate in enumerate(circuit.gates):
        if flush_at is not None and index == flush_at:
            for bid in list(dict.fromkeys(open_of.values())):
                seal(bid)
        qs = gate_qubits(gate)
        if isinstance(gate, Opaque):
            for bid in list(dict.fromkeys(open_of.get(q) for q in qs)):
                if bid is not None:
                    seal(bid)
            continue

        cands = list(dict.fromkeys(open_of[q] for q in qs if q in open_of))
        if not cands:
            open_new(qs, index, gate)
            continue

        union_qubits = set(qs)
        for bid in cands:
            union_qubits |= qubits_of[bid]
        merged_depth = max(depth_of[bid] for bid in cands)
        if isinstance(gate, Cnot):
            lv = 1 + max(max((layer_of[bid].get(q, 0) for bid in cands), default=0)
                         for q in qs)
            merged_depth = max(merged_depth, lv)
        if (max_qubits is not None and len(union_qubits) > max_qubits) or \
           (max_depth is not None and merged_depth > max_depth):
            for bid in cands:
                seal(bid)
            open_new(qs, index, gate)
            continue

        home = cands[0]
        for bid in cands[1:]:
            qubits_of[home] |= qubits_of[bid]
            indices_of[home].extend(indices_of[bid])
            layer_of[home].update(layer_of[bid])
            depth_of[home] = max(depth_of[home], depth_of[bid])
            del qubits_of[bid], indices_of[bid], layer_of[bid], depth_of[bid]
        qubits_of[home] |= set(qs)
        indices_of[home].append(index)
        track_depth(home, gate)
        for q in qubits_of[home]:
            open_of[q] = home

    emitted = sealed + list(dict.fromkeys(open_of.values()))
    out = [(sorted(qubits_of[bid]), sorted(indices_of[bid])) for bid in emitted]
    out.sort(key=lambda pair: pair[1][-1])
    return out
