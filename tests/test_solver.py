import random
import sys
from pathlib import Path

import pytest

from paritysat.sat.brute import brute_is_sat
from paritysat.sat.core import SatInstance, at_most_k
from paritysat.sat.external import ExternalSolver, ExternalSolverError
from paritysat.sat.solver import SolverTimeout, solve, solve_instance

REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"


def random_instance(rng, max_vars=12, max_clauses=40):
    inst = SatInstance()
    n = rng.randint(1, max_vars)
    lits = inst.new_vars(n)
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(4, n))
        clause = [rng.choice(lits) * rng.choice([-1, 1]) for _ in range(width)]
        inst.add_clause(clause)
    return inst


def test_empty_instance_sat():
    model = solve(SatInstance())
    assert model is not None
    assert model.assignment == {}


def test_model_is_total():
    inst = SatInstance()
    x, y, z = inst.new_vars(3)
    inst.add_clause([x, y])
    model = solve(inst)
    assert set(model.assignment) == {x, y, z}
    assert model.truth(x) or model.truth(y)


def test_pigeonhole_3_in_2_unsat():
    inst = SatInstance()
    holes = 2
    pigeon = [[inst.new_var() for _ in range(holes)] for _ in range(3)]
    for row in pigeon:
        inst.add_clause(row)
    for h in range(holes):
        at_most_k(inst, [pigeon[p][h] for p in range(3)], 1)
    assert solve(inst) is None


def test_agrees_with_truth_table_enumeration():
    rng = random.Random(99)
    for _ in range(120):
        inst = random_instance(rng)
        expected = brute_is_sat(inst.num_vars, inst.clauses)
        model = solve(inst)
        assert (model is not None) == expected
        if model is not None:
            for clause in inst.clauses:
                assert any(model.truth(lit) for lit in clause)


def test_agrees_with_truth_tables_on_wider_instances():
    rng = random.Random(310)
    for _ in range(150):
        inst = random_instance(rng, max_vars=14, max_clauses=60)
        model = solve(inst)
        assert (model is not None) == brute_is_sat(inst.num_vars, inst.clauses)
        if model is not None:
            for clause in inst.clauses:
                assert any(model.truth(lit) for lit in clause)


def test_cdcl_handles_pigeonhole_quickly():
    inst = SatInstance()
    holes = 5
    pigeon = [[inst.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for row in pigeon:
        inst.add_clause(row)
    for h in range(holes):
        at_most_k(inst, [row[h] for row in pigeon], 1)
    stats = {}
    assert solve(inst, timeout_s=60, stats_out=stats) is None
    assert stats["learned"] > 0


def test_monotone_resolve_after_adding_clauses():
    inst = SatInstance()
    x, y = inst.new_vars(2)
    inst.add_clause([x, y])
    first = solve(inst)
    assert first is not None
    inst.add_clause([-x])
    second = solve(inst)
    assert second is not None and not second[x] and second[y]
    inst.add_clause([-y])
    assert solve(inst) is None


def test_determinism():
    rng = random.Random(4)
    inst = random_instance(rng, max_vars=14, max_clauses=50)
    a = solve(inst)
    b = solve(inst)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.values == b.values


def test_timeout_raises():
    inst = SatInstance()
    holes = 6
    pigeon = [[inst.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for row in pigeon:
        inst.add_clause(row)
    for h in range(holes):
        at_most_k(inst, [row[h] for row in pigeon], 1)
    with pytest.raises(SolverTimeout):
        solve(inst, timeout_s=0.0)


def test_stats_populated():
    inst = SatInstance()
    x, y = inst.new_vars(2)
    inst.add_clause([x, y])
    stats = {}
    solve(inst, stats_out=stats)
    assert "seconds" in stats and "decisions" in stats


@pytest.mark.skipif(not REF_SOLVER.exists(), reason="reference solver not found")
def test_external_backend_differential():
    rng = random.Random(123)
    backend = str(REF_SOLVER)
    for _ in range(10):
        inst = random_instance(rng, max_vars=10, max_clauses=30)
        internal = solve(inst)
        external = solve_instance(inst, backend=backend)
        assert (internal is None) == (external is None)
        if external is not None:
            for clause in inst.clauses:
                assert any(external.truth(lit) for lit in clause)


def test_external_solver_protocol_smoke(tmp_path):
    inst = SatInstance()
    x = inst.new_var()
    inst.add_clause([-x])
    model = ExternalSolver(str(REF_SOLVER)).solve(inst)
    assert model is not None and not model[x]


def test_external_model_is_checked_against_clauses(tmp_path):
    liar = tmp_path / "liar.py"
    liar.write_text(f"#!{sys.executable}\nprint('s SATISFIABLE')\nprint('v -1 0')\n")
    liar.chmod(0o755)
    inst = SatInstance()
    x = inst.new_var()
    inst.add_clause([x])
    with pytest.raises(ExternalSolverError):
        ExternalSolver(str(liar)).solve(inst)
