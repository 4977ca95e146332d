"""Core circuit, parity-matrix, and coupling-map data model.

Parity matrices are stored as packed bit rows: row ``i`` is a Python int
whose bit ``j`` holds the coefficient of input ``x_j`` in the Boolean
function currently carried by qubit ``i``.  A CNOT is then a single
word-wise XOR of two rows, which keeps extraction and exhaustive search
cheap.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

Angle = Union[float, str]  # radians, or a symbolic parameter label


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a collection of bitmask row vectors."""
    basis: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            h = v.bit_length() - 1
            if h in basis:
                v ^= basis[h]
            else:
                basis[h] = v
                rank += 1
                break
    return rank


def bits_to_mask(bits: Sequence[int]) -> int:
    mask = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit entries must be 0 or 1, got {b!r}")
        mask |= b << j
    return mask


def mask_to_bits(mask: int, n: int) -> list[int]:
    return [(mask >> j) & 1 for j in range(n)]


@dataclass(frozen=True)
class ParityMatrix:
    """Invertible n-by-n matrix over GF(2), one packed int per row."""

    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))
        for r in self.rows:
            if r < 0 or r >> n:
                raise ValueError(f"row {r:#x} out of range for {n} qubits")
        if gf2_rank(self.rows) != n:
            raise ValueError("parity matrix is singular over GF(2)")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "ParityMatrix":
        return cls(tuple(1 << i for i in range(n)))

    def to_bits(self) -> list[list[int]]:
        return [mask_to_bits(r, self.n) for r in self.rows]

    def __str__(self) -> str:
        return "\n".join("".join(str(b) for b in row) for row in self.to_bits())


def apply_cnot(matrix: ParityMatrix, control: int, target: int) -> ParityMatrix:
    """Row update of a CNOT: target row becomes target XOR control."""
    n = matrix.n
    if not (0 <= control < n and 0 <= target < n):
        raise ValueError(f"qubit index out of range for n={n}")
    if control == target:
        raise ValueError("control and target must differ")
    rows = list(matrix.rows)
    rows[target] ^= rows[control]
    return ParityMatrix(tuple(rows))


@dataclass(frozen=True)
class ParityTable:
    """Ordered rotation terms: parity vectors paired with angles."""

    n: int
    terms: tuple[int, ...]
    angles: tuple[Angle, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))
        object.__setattr__(self, "angles", tuple(self.angles))
        if len(self.terms) != len(self.angles):
            raise ValueError("terms and angles must have equal length")
        for t in self.terms:
            if t == 0:
                raise ValueError("term parity vectors must be nonzero")
            if t < 0 or t >> self.n:
                raise ValueError(f"term {t:#x} out of range for n={self.n}")
        for a in self.angles:
            if not isinstance(a, (int, float, str)):
                raise ValueError(f"angle must be a number or label, got {a!r}")

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def unique_terms(self) -> tuple[int, ...]:
        """Each term once, in table order."""
        return tuple(dict.fromkeys(self.terms))


@dataclass(frozen=True)
class PhasePolyRep:
    """Phase-polynomial form of a {CNOT, Rz} circuit: (initial, final, table)."""

    initial: ParityMatrix
    final: ParityMatrix
    table: ParityTable

    def __post_init__(self) -> None:
        if not (self.initial.n == self.final.n == self.table.n):
            raise ValueError("initial, final, and table must share one qubit count")

    @property
    def n(self) -> int:
        return self.initial.n


# ---------------------------------------------------------------------------
# Gates and circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cnot:
    control: int
    target: int


@dataclass(frozen=True)
class Rz:
    angle: Angle
    qubit: int


@dataclass(frozen=True)
class Opaque:
    """Pass-through gate the optimizer must not touch (includes barriers)."""

    name: str
    qubits: tuple[int, ...]
    params: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "params", tuple(self.params))


Gate = Union[Cnot, Rz, Opaque]


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, Cnot):
        return (gate.control, gate.target)
    if isinstance(gate, Rz):
        return (gate.qubit,)
    return gate.qubits


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            qs = gate_qubits(g)
            if len(set(qs)) != len(qs):
                raise ValueError(f"repeated qubit in gate {g!r}")
            for q in qs:
                if not 0 <= q < self.num_qubits:
                    raise ValueError(f"qubit {q} out of range in gate {g!r}")

    def __len__(self) -> int:
        return len(self.gates)


def bind_angles(circuit: Circuit, values: dict[str, float]) -> Circuit:
    """Substitute symbolic rotation labels with concrete radians.

    A synthesized circuit with labeled angles can be re-bound to fresh
    parameter values without resynthesis; labels missing from ``values``
    stay symbolic.
    """
    gates: list[Gate] = []
    for g in circuit.gates:
        if isinstance(g, Rz) and isinstance(g.angle, str) and g.angle in values:
            gates.append(Rz(float(values[g.angle]), g.qubit))
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


def cnot_count(circuit: Circuit) -> int:
    """Number of CNOT gates; Rz and opaque gates are ignored."""
    return sum(1 for g in circuit.gates if isinstance(g, Cnot))


def cnot_depth(circuit: Circuit) -> int:
    """Greedy per-qubit layering that counts only CNOT gates."""
    layer = [0] * circuit.num_qubits
    depth = 0
    for g in circuit.gates:
        if isinstance(g, Cnot):
            lv = 1 + max(layer[g.control], layer[g.target])
            layer[g.control] = layer[g.target] = lv
            if lv > depth:
                depth = lv
    return depth


# ---------------------------------------------------------------------------
# Coupling maps
# ---------------------------------------------------------------------------


def count_from_json(value, name: str) -> int:
    """``value`` read as a qubit count: a nonnegative JSON integer, not a
    fraction, a negative number, a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, not {value!r}")
    return value


def field_from_json(obj, name: str):
    """Field ``name`` of a JSON object, refused by name when missing."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"expected a JSON object with field {name!r}")
    return obj[name]


def list_from_json(value, name: str, length: int | None = None) -> list:
    """``value`` read as a JSON list, of exactly ``length`` entries when given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = "" if length is None else f" of {length} entries"
        raise ValueError(f"{name} must be a list{size}, not {value!r}")
    return value


@dataclass(frozen=True)
class CouplingMap:
    """Undirected qubit-connectivity graph over physical qubits."""

    num_qubits: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        norm = set()
        for e in self.edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-loop edge {e!r}")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge {e!r} out of range for {self.num_qubits} qubits")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(norm))

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """Both orientations of every edge, in a fixed sorted order."""
        out = []
        for a, b in self.edges:
            out.append((a, b))
            out.append((b, a))
        return tuple(sorted(out))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def is_connected(self) -> bool:
        """Whether every qubit is reachable from every other."""
        if self.num_qubits <= 1:
            return True
        adjacent: list[list[int]] = [[] for _ in range(self.num_qubits)]
        for a, b in self.edges:
            adjacent[a].append(b)
            adjacent[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for r in adjacent[stack.pop()]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return len(seen) == self.num_qubits

    @classmethod
    def line(cls, n: int) -> "CouplingMap":
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def ring(cls, n: int) -> "CouplingMap":
        edges = {(i, (i + 1) % n) for i in range(n)} if n > 2 else {(0, 1)} if n == 2 else set()
        return cls(n, frozenset(edges))

    @classmethod
    def complete(cls, n: int) -> "CouplingMap":
        return cls(n, frozenset(itertools.combinations(range(n), 2)))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        edges = set()
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.add((q, q + 1))
                if r + 1 < rows:
                    edges.add((q, q + cols))
        return cls(rows * cols, frozenset(edges))

    @classmethod
    def from_json(cls, obj: dict) -> "CouplingMap":
        n = count_from_json(field_from_json(obj, "num_qubits"), "num_qubits")
        edges = list_from_json(field_from_json(obj, "edges"), "edges")
        return cls(n, frozenset(tuple(count_from_json(q, f"edges[{i}] endpoint")
                                      for q in list_from_json(edge, f"edges[{i}]", 2))
                                for i, edge in enumerate(edges)))

    def to_json(self) -> dict:
        return {"num_qubits": self.num_qubits, "edges": sorted(list(e) for e in self.edges)}


def induced_coupling(cm: CouplingMap, qubits: Sequence[int]) -> CouplingMap:
    """Coupling map on a relabeled qubit subset, keeping internal edges only."""
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubit subset must be distinct")
    for q in qubits:
        if not 0 <= q < cm.num_qubits:
            raise ValueError(f"qubit {q} out of range")
    index = {q: i for i, q in enumerate(qubits)}
    edges = {(index[a], index[b]) for a, b in cm.edges if a in index and b in index}
    return CouplingMap(len(qubits), frozenset(edges))


def validate_topology(circuit: Circuit, cm: CouplingMap) -> bool:
    """True iff every multi-qubit gate sits on coupling-map edges.

    Barriers are virtual and exempt; other opaque gates with two or more
    qubits must have all qubit pairs connected.
    """
    if circuit.num_qubits != cm.num_qubits:
        raise ValueError("circuit and coupling map qubit counts differ")
    for g in circuit.gates:
        if isinstance(g, Cnot):
            if not cm.has_edge(g.control, g.target):
                return False
        elif isinstance(g, Opaque) and g.name != "barrier" and len(g.qubits) >= 2:
            for a, b in itertools.combinations(g.qubits, 2):
                if not cm.has_edge(a, b):
                    return False
    return True


__all__ = [
    "Angle", "ParityMatrix", "ParityTable", "PhasePolyRep",
    "Cnot", "Rz", "Opaque", "Gate", "Circuit",
    "gf2_rank", "bits_to_mask", "mask_to_bits", "gate_qubits",
    "apply_cnot", "bind_angles", "cnot_count", "cnot_depth",
    "CouplingMap", "count_from_json", "field_from_json", "list_from_json",
    "induced_coupling", "validate_topology",
]
