import random

import pytest

from paritysat.ir import (
    CouplingMap,
    ParityMatrix,
    ParityTable,
    PhasePolyRep,
    apply_cnot,
    cnot_count,
    cnot_depth,
    validate_topology,
)
from paritysat.oracle import OracleCapError, oracle_min_count, oracle_min_depth
from paritysat.phasepoly import canonical_equal, canonicalize, extract_rep

from testkit import TOPOLOGIES, random_instance


def trivial_rep(n):
    eye = ParityMatrix.identity(n)
    return PhasePolyRep(eye, eye, ParityTable(n, (), ()))


def test_empty_instance():
    count, circuits = oracle_min_count(trivial_rep(2), CouplingMap.line(2))
    assert count == 0 and len(circuits) == 1 and circuits[0].gates == ()
    depth, circuits = oracle_min_depth(trivial_rep(2), CouplingMap.line(2))
    assert depth == 0 and len(circuits) == 1


def test_swap_needs_three_cnots():
    eye = ParityMatrix.identity(2)
    rep = PhasePolyRep(eye, ParityMatrix((2, 1)), ParityTable(2, (), ()))
    count, circuits = oracle_min_count(rep, CouplingMap.complete(2))
    assert count == 3
    assert len(circuits) == 2  # starting with either orientation
    for c in circuits:
        assert extract_rep(c).final.rows == (2, 1)


def test_depth_one_despite_count_two():
    eye = ParityMatrix.identity(4)
    final = apply_cnot(apply_cnot(eye, 0, 1), 2, 3)
    rep = PhasePolyRep(eye, final, ParityTable(4, (0b0011, 0b1100), (0.1, 0.2)))
    cm = CouplingMap.line(4)
    count, _ = oracle_min_count(rep, cm)
    depth, circuits = oracle_min_depth(rep, cm)
    assert count == 2 and depth == 1
    assert all(cnot_depth(c) == 1 for c in circuits)


def test_triangle_pins(triangle_rep, line3):
    count, count_circs = oracle_min_count(triangle_rep, line3)
    depth, depth_circs = oracle_min_depth(triangle_rep, line3)
    assert count == 5 and depth == 5
    assert min(cnot_depth(c) for c in count_circs) == 5
    assert min(cnot_count(c) for c in depth_circs) == 5


def test_returned_circuits_valid_and_equivalent():
    rng = random.Random(55)
    for _ in range(6):
        n = rng.choice([2, 3])
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        rep = random_instance(rng, n, cm, rng.randint(0, 3), rng.randint(0, 2))
        want = canonicalize(rep)
        for _, circuits in (oracle_min_count(rep, cm), oracle_min_depth(rep, cm)):
            for c in circuits:
                assert validate_topology(c, cm)
                assert canonical_equal(canonicalize(extract_rep(c)), want)


def test_depth_never_exceeds_count():
    rng = random.Random(56)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        rep = random_instance(rng, n, cm, rng.randint(0, 4), rng.randint(0, 2))
        count, _ = oracle_min_count(rep, cm)
        depth, _ = oracle_min_depth(rep, cm)
        assert depth <= count


def test_term_permutation_invariance(triangle_rep, line3):
    table = triangle_rep.table
    shuffled = ParityTable(3, tuple(reversed(table.terms)), tuple(reversed(table.angles)))
    other = PhasePolyRep(triangle_rep.initial, triangle_rep.final, shuffled)
    assert oracle_min_count(triangle_rep, line3)[0] == oracle_min_count(other, line3)[0]
    assert oracle_min_depth(triangle_rep, line3)[0] == oracle_min_depth(other, line3)[0]


def test_disconnected_map_is_rejected():
    eye = ParityMatrix.identity(3)
    rep = PhasePolyRep(eye, eye, ParityTable(3, (4,), (0.5,)))
    for oracle in (oracle_min_count, oracle_min_depth):
        with pytest.raises(ValueError, match="must be connected"):
            oracle(rep, CouplingMap(3, frozenset({(0, 1)})))


def test_node_cap():
    eye = ParityMatrix.identity(2)
    rep = PhasePolyRep(eye, ParityMatrix((2, 1)), ParityTable(2, (), ()))
    with pytest.raises(OracleCapError):
        oracle_min_count(rep, CouplingMap.complete(2), node_cap=1)
