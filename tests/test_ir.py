import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritysat.ir import (
    Circuit,
    Cnot,
    CouplingMap,
    Opaque,
    ParityMatrix,
    ParityTable,
    Rz,
    apply_cnot,
    cnot_count,
    cnot_depth,
    gf2_rank,
    induced_coupling,
    validate_topology,
)


def test_apply_cnot_updates_target_row():
    m = apply_cnot(ParityMatrix.identity(3), control=1, target=2)
    assert m.to_bits()[2] == [0, 1, 1]
    assert m.to_bits()[0] == [1, 0, 0]
    assert m.to_bits()[1] == [0, 1, 0]


def test_three_cnots_swap_rows():
    m = ParityMatrix.identity(2)
    m = apply_cnot(m, 0, 1)
    m = apply_cnot(m, 1, 0)
    m = apply_cnot(m, 0, 1)
    assert m.to_bits() == [[0, 1], [1, 0]]


def test_apply_cnot_rejects_bad_indices():
    m = ParityMatrix.identity(2)
    with pytest.raises(ValueError):
        apply_cnot(m, 0, 0)
    with pytest.raises(ValueError):
        apply_cnot(m, 0, 2)


@st.composite
def invertible_matrices(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    m = ParityMatrix.identity(n)
    for _ in range(draw(st.integers(0, 12))):
        c = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 2))
        if t >= c:
            t += 1
        m = apply_cnot(m, c, t)
    return m


@given(invertible_matrices(), st.data())
def test_apply_cnot_is_involution_and_preserves_rank(m, data):
    n = m.n
    c = data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0, n - 2))
    if t >= c:
        t += 1
    once = apply_cnot(m, c, t)
    assert gf2_rank(once.rows) == n
    assert apply_cnot(once, c, t).rows == m.rows


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        ParityMatrix((1, 1))
    with pytest.raises(ValueError):
        ParityMatrix((3, 3))


def test_parity_table_validation():
    with pytest.raises(ValueError):
        ParityTable(2, (0,), (0.5,))
    with pytest.raises(ValueError):
        ParityTable(2, (1, 2), (0.5,))
    with pytest.raises(ValueError):
        ParityTable(2, (4,), (0.5,))


def test_cnot_count_examples():
    assert cnot_count(Circuit(2, ())) == 0
    c = Circuit(2, (Cnot(0, 1), Rz(0.3, 1), Cnot(0, 1)))
    assert cnot_count(c) == 2


def test_cnot_depth_examples():
    assert cnot_depth(Circuit(3, (Cnot(0, 1), Cnot(1, 2)))) == 2
    assert cnot_depth(Circuit(4, (Cnot(0, 1), Cnot(2, 3)))) == 1
    assert cnot_depth(Circuit(2, (Cnot(0, 1), Rz(0.3, 1), Cnot(0, 1)))) == 2


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=20),
       st.data())
def test_depth_at_most_count_and_rz_invariant(pairs, data):
    gates = [Cnot(a, b) for a, b in pairs if a != b]
    c = Circuit(5, tuple(gates))
    assert cnot_depth(c) <= cnot_count(c)
    # inserting Rz gates anywhere leaves the depth unchanged
    with_rz = []
    for g in gates:
        if data.draw(st.booleans()):
            with_rz.append(Rz(0.7, data.draw(st.integers(0, 4))))
        with_rz.append(g)
    assert cnot_depth(Circuit(5, tuple(with_rz))) == cnot_depth(c)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (Cnot(0, 0),))
    with pytest.raises(ValueError):
        Circuit(2, (Rz(0.1, 2),))


def test_induced_coupling_examples():
    line4 = CouplingMap.line(4)
    sub = induced_coupling(line4, [1, 2])
    assert sub.num_qubits == 2 and sub.edges == frozenset({(0, 1)})
    empty = induced_coupling(line4, [0, 2])
    assert empty.edges == frozenset()
    line3 = CouplingMap.line(3)
    assert induced_coupling(line3, [0, 1, 2]).edges == line3.edges


def test_directed_edges_have_both_orientations():
    cm = CouplingMap.ring(4)
    directed = set(cm.directed_edges())
    for a, b in cm.edges:
        assert (a, b) in directed and (b, a) in directed
    assert len(directed) == 2 * len(cm.edges)


def test_coupling_validation():
    with pytest.raises(ValueError):
        CouplingMap(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        CouplingMap(3, frozenset({(0, 3)}))


def test_connectivity():
    assert CouplingMap.line(5).is_connected()
    assert not CouplingMap(4, frozenset({(0, 1), (2, 3)})).is_connected()
    assert induced_coupling(CouplingMap.line(4), [1, 2]).is_connected()
    assert not induced_coupling(CouplingMap.line(4), [0, 2]).is_connected()
    assert CouplingMap(1, frozenset()).is_connected()


def test_validate_topology():
    line3 = CouplingMap.line(3)
    assert not validate_topology(Circuit(3, (Cnot(0, 2),)), line3)
    assert validate_topology(Circuit(3, (Cnot(0, 1),)), line3)
    assert validate_topology(Circuit(3, ()), line3)
    # barriers are virtual, other multi-qubit opaques are checked
    assert validate_topology(Circuit(3, (Opaque("barrier", (0, 1, 2)),)), line3)
    assert not validate_topology(Circuit(3, (Opaque("cz", (0, 2)),)), line3)
    with pytest.raises(ValueError):
        validate_topology(Circuit(2, ()), line3)


def test_grid_map():
    grid = CouplingMap.grid(2, 4)
    assert grid.num_qubits == 8
    assert grid.has_edge(0, 1) and grid.has_edge(0, 4) and not grid.has_edge(3, 4)


def test_coupling_json_round_trip():
    cm = CouplingMap.grid(2, 3)
    assert CouplingMap.from_json(cm.to_json()) == cm
