import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritysat.ir import Circuit, Cnot, Opaque, ParityMatrix, ParityTable, PhasePolyRep, Rz
from paritysat.phasepoly import (
    UnsupportedGateError,
    angle_components,
    canonical_equal,
    canonicalize,
    equivalent,
    extract_rep,
    merged_table,
    rep_from_json,
    rep_to_json,
)

from testkit import random_cnot_rz_circuit


def test_extract_triangle_instance(triangle_circuit):
    rep = extract_rep(triangle_circuit)
    assert set(rep.table.terms) == {0b101, 0b011, 0b110}
    assert rep.final.to_bits() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_extract_empty_circuit():
    rep = extract_rep(Circuit(2, ()))
    assert rep.final.rows == ParityMatrix.identity(2).rows
    assert len(rep.table) == 0


def test_extract_single_term():
    rep = extract_rep(Circuit(3, (Cnot(1, 2), Rz(0.7, 2))))
    assert rep.table.terms == (0b110,)
    assert rep.final.rows[2] == 0b110


def test_extract_rejects_opaque():
    with pytest.raises(UnsupportedGateError):
        extract_rep(Circuit(2, (Opaque("h", (0,)),)))


def test_canonicalize_cancellation():
    rep = extract_rep(Circuit(2, (Cnot(0, 1), Rz(0.4, 1), Rz(-0.4, 1), Cnot(0, 1))))
    assert canonicalize(rep).phase_map == {}


def test_canonicalize_merges_in_order():
    table = ParityTable(2, (0b11, 0b01, 0b11), (0.25, 0.5, 0.75))
    rep = PhasePolyRep(ParityMatrix.identity(2), ParityMatrix.identity(2), table)
    canon = canonicalize(rep)
    assert list(canon.phase_map) == [0b11, 0b01]
    assert math.isclose(canon.phase_map[0b11].numeric, 1.0)
    assert math.isclose(canon.phase_map[0b01].numeric, 0.5)


def test_canonicalize_wraps_two_pi():
    table = ParityTable(1, (1, 1), (math.pi, math.pi))
    rep = PhasePolyRep(ParityMatrix.identity(1), ParityMatrix.identity(1), table)
    assert canonicalize(rep).phase_map == {}


def test_symbolic_labels_survive_zero_numeric():
    table = ParityTable(1, (1, 1, 1), ("theta", 0.4, -0.4))
    rep = PhasePolyRep(ParityMatrix.identity(1), ParityMatrix.identity(1), table)
    canon = canonicalize(rep)
    assert 1 in canon.phase_map
    assert canon.phase_map[1].labels == (("theta", 1),)
    assert angle_components(canon.phase_map[1]) == ("theta",)


def test_symbolic_labels_compare_by_label():
    a = Circuit(1, (Rz("alpha", 0),))
    b = Circuit(1, (Rz("beta", 0),))
    assert not equivalent(a, b)
    assert equivalent(a, Circuit(1, (Rz("alpha", 0),)))


def test_equivalent_ignores_zero_rotation():
    c = Circuit(2, (Cnot(0, 1), Rz(0.3, 0)))
    padded = Circuit(2, (Cnot(0, 1), Rz(0.3, 0), Rz(0.0, 1)))
    assert equivalent(c, padded)


def test_equivalent_triangle_solutions(triangle_circuit, triangle_rep, line3):
    # a hand-built line-legal realization of the same instance
    other = Circuit(3, (
        Cnot(1, 2), Rz(0.3, 2),
        Cnot(0, 1), Rz(0.2, 1),
        Cnot(2, 1), Rz(0.1, 1),
        Cnot(0, 1), Cnot(1, 2),
    ))
    assert equivalent(triangle_circuit, other)
    got = canonicalize(extract_rep(other))
    assert canonical_equal(got, canonicalize(triangle_rep))


def test_deleting_a_cnot_breaks_equivalence():
    rng = random.Random(11)
    found = 0
    for _ in range(20):
        c = random_cnot_rz_circuit(rng, 3, 4, 2)
        gates = list(c.gates)
        idx = next(i for i, g in enumerate(gates) if isinstance(g, Cnot))
        del gates[idx]
        if extract_rep(Circuit(3, tuple(gates))).final.rows != extract_rep(c).final.rows:
            found += 1
            assert not equivalent(c, Circuit(3, tuple(gates)))
    assert found > 0


@given(st.integers(0, 2 ** 31 - 1))
def test_equivalence_is_reflexive_and_symmetric(seed):
    rng = random.Random(seed)
    c1 = random_cnot_rz_circuit(rng, 3, 3, 2)
    c2 = random_cnot_rz_circuit(rng, 3, 3, 2)
    assert equivalent(c1, c1)
    assert equivalent(c1, c2) == equivalent(c2, c1)


def test_extract_final_matches_row_op_product():
    rng = random.Random(5)
    for _ in range(20):
        c = random_cnot_rz_circuit(rng, 4, 6, 2)
        rep = extract_rep(c)
        rows = list(ParityMatrix.identity(4).rows)
        for g in c.gates:
            if isinstance(g, Cnot):
                rows[g.target] ^= rows[g.control]
        assert rep.final.rows == tuple(rows)


def test_merged_table_drops_and_expands():
    table = ParityTable(2, (0b11, 0b11, 0b01), (0.4, -0.4, "phi"))
    rep = PhasePolyRep(ParityMatrix.identity(2), ParityMatrix.identity(2), table)
    merged = merged_table(rep)
    assert merged.terms == (0b01,)
    assert merged.angles == ("phi",)


def test_rep_json_round_trip(triangle_rep):
    obj = rep_to_json(triangle_rep)
    back = rep_from_json(obj)
    assert back.initial.rows == triangle_rep.initial.rows
    assert back.final.rows == triangle_rep.final.rows
    assert back.table.terms == triangle_rep.table.terms
    assert back.table.angles == triangle_rep.table.angles
    assert obj["terms"][0] == [1, 0, 1]


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_rep_json_refuses_a_non_finite_angle(triangle_rep, angle):
    obj = rep_to_json(triangle_rep)
    obj["angles"][1] = angle
    with pytest.raises(ValueError, match="not finite"):
        rep_from_json(obj)
    # a label is kept as it is, whatever it reads
    obj["angles"][1] = "nan"
    assert rep_from_json(obj).table.angles[1] == "nan"


@pytest.mark.parametrize("field, value, message", [
    ("n", 3.7, "n must be a nonnegative integer"),
    ("n", "3", "n must be a nonnegative integer"),
    ("angles", [0.1, True, 0.3], "neither a number nor a label"),
    ("angles", [0.1, None, 0.3], "neither a number nor a label"),
])
def test_rep_json_refuses_a_bad_qubit_count_or_angle(triangle_rep, field, value, message):
    obj = rep_to_json(triangle_rep)
    obj[field] = value
    with pytest.raises(ValueError, match=message):
        rep_from_json(obj)
