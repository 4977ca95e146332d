"""Phase-polynomial extraction, canonicalization, and equivalence checking."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .ir import (
    Angle,
    Circuit,
    Cnot,
    ParityMatrix,
    ParityTable,
    PhasePolyRep,
    Rz,
    mask_to_bits,
    bits_to_mask,
    count_from_json,
    field_from_json,
    list_from_json,
)

EPS_ANGLE = 1e-9
TWO_PI = 2.0 * math.pi


class UnsupportedGateError(ValueError):
    """Raised when a gate outside {CNOT, Rz} reaches a phase-poly operation."""


def _near_zero(angle: float) -> bool:
    """Whether ``angle`` is 0 modulo 2 pi, within ``EPS_ANGLE``."""
    d = angle % TWO_PI
    return min(d, TWO_PI - d) < EPS_ANGLE


def extract_rep(circuit: Circuit, initial: ParityMatrix | None = None) -> PhasePolyRep:
    """Walk a {CNOT, Rz} circuit and read off its phase-polynomial form.

    Each CNOT XORs the control row into the target row of the running
    parity state; each Rz records (current row of its qubit, angle) in
    encounter order.
    """
    if initial is None:
        initial = ParityMatrix.identity(circuit.num_qubits)
    if initial.n != circuit.num_qubits:
        raise ValueError("initial parity size does not match circuit")
    rows = list(initial.rows)
    terms: list[int] = []
    angles: list[Angle] = []
    for g in circuit.gates:
        if isinstance(g, Cnot):
            rows[g.target] ^= rows[g.control]
        elif isinstance(g, Rz):
            terms.append(rows[g.qubit])
            angles.append(g.angle)
        else:
            raise UnsupportedGateError(f"unsupported gate {g.name!r} in phase-poly extraction")
    final = ParityMatrix(tuple(rows))
    return PhasePolyRep(initial, final, ParityTable(circuit.num_qubits, tuple(terms), tuple(angles)))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergedAngle:
    """Total rotation of one parity term: numeric part plus label multiset."""

    numeric: float
    labels: tuple[tuple[str, int], ...] = ()

    def is_zero(self) -> bool:
        return not self.labels and _near_zero(self.numeric)


def _angles_close(a: MergedAngle, b: MergedAngle) -> bool:
    return a.labels == b.labels and _near_zero(a.numeric - b.numeric)


@dataclass
class CanonicalRep:
    """Equivalence-ready form: final parity plus term -> merged angle."""

    final: ParityMatrix
    phase_map: dict[int, MergedAngle] = field(default_factory=dict)


def canonicalize(rep: PhasePolyRep) -> CanonicalRep:
    """Merge duplicate terms by angle summation and drop numeric zeros.

    Symbolic labels never cancel numerically: a term carrying labels is
    kept even when its numeric part vanishes, since the parameter may be
    bound nonzero later.
    """
    numeric: dict[int, float] = {}
    labels: dict[int, Counter] = {}
    order: list[int] = []
    for term, angle in zip(rep.table.terms, rep.table.angles):
        if term not in numeric:
            numeric[term] = 0.0
            labels[term] = Counter()
            order.append(term)
        if isinstance(angle, str):
            labels[term][angle] += 1
        else:
            numeric[term] += float(angle)
    phase_map: dict[int, MergedAngle] = {}
    for term in order:
        merged = MergedAngle(numeric[term] % TWO_PI, tuple(sorted(labels[term].items())))
        if not merged.is_zero():
            phase_map[term] = merged
    return CanonicalRep(rep.final, phase_map)


def canonical_equal(a: CanonicalRep, b: CanonicalRep) -> bool:
    if a.final.rows != b.final.rows:
        return False
    if set(a.phase_map) != set(b.phase_map):
        return False
    return all(_angles_close(a.phase_map[t], b.phase_map[t]) for t in a.phase_map)


def equivalent(c1: Circuit, c2: Circuit) -> bool:
    """Phase-polynomial equivalence of two {CNOT, Rz} circuits."""
    if c1.num_qubits != c2.num_qubits:
        raise ValueError("circuits must have the same qubit count")
    return canonical_equal(canonicalize(extract_rep(c1)), canonicalize(extract_rep(c2)))


def angle_components(angle: MergedAngle) -> tuple[Angle, ...]:
    """Expand a merged angle into individually placeable Rz angles."""
    out: list[Angle] = []
    if not _near_zero(angle.numeric):
        out.append(angle.numeric)
    for label, count in angle.labels:
        out.extend([label] * count)
    return tuple(out)


def merged_table(rep: PhasePolyRep) -> ParityTable:
    """Synthesis-ready table: unique terms, duplicate angles merged.

    Entries stay in first-appearance order; a merged composite angle is
    expanded back into consecutive per-component entries so every angle
    remains a plain number or label.
    """
    canon = canonicalize(rep)
    terms: list[int] = []
    angles: list[Angle] = []
    for term, merged in canon.phase_map.items():
        for comp in angle_components(merged):
            terms.append(term)
            angles.append(comp)
    return ParityTable(rep.n, tuple(terms), tuple(angles))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def rep_to_json(rep: PhasePolyRep) -> dict:
    return {
        "n": rep.n,
        "initial": rep.initial.to_bits(),
        "final": rep.final.to_bits(),
        "terms": [mask_to_bits(t, rep.n) for t in rep.table.terms],
        "angles": list(rep.table.angles),
    }


def _angle_from_json(a) -> Angle:
    """A label, or a finite number: a NaN or infinite angle is refused."""
    if isinstance(a, str):
        return a
    if isinstance(a, bool) or not isinstance(a, (int, float)):
        raise ValueError(f"angle {a!r} is neither a number nor a label")
    if not math.isfinite(a):
        raise ValueError(f"angle {a!r} is not finite")
    return float(a)


def _rows_from_json(obj: dict, name: str, n: int,
                    length: int | None = None) -> tuple[int, ...]:
    """Field ``name``: rows of exactly ``n`` bits, each the JSON integer 0 or 1."""
    rows = list_from_json(field_from_json(obj, name), name, length)
    for i, row in enumerate(rows):
        where = f"{name}[{i}]"
        if any(type(b) is not int or b not in (0, 1) for b in list_from_json(row, where, n)):
            raise ValueError(f"{where} entries must be the integer 0 or 1, not {row!r}")
    return tuple(map(bits_to_mask, rows))


def rep_from_json(obj: dict) -> PhasePolyRep:
    """The rep ``rep_to_json`` wrote; a malformed field is refused by name."""
    n = count_from_json(field_from_json(obj, "n"), "n")
    initial = ParityMatrix(_rows_from_json(obj, "initial", n, n))
    final = ParityMatrix(_rows_from_json(obj, "final", n, n))
    angles = list_from_json(field_from_json(obj, "angles"), "angles")
    return PhasePolyRep(initial, final, ParityTable(
        n, _rows_from_json(obj, "terms", n), tuple(map(_angle_from_json, angles))))


__all__ = [
    "EPS_ANGLE", "UnsupportedGateError", "MergedAngle", "CanonicalRep",
    "extract_rep", "canonicalize", "canonical_equal", "equivalent",
    "angle_components", "merged_table", "rep_to_json", "rep_from_json",
]
