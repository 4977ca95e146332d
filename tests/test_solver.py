import itertools
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import paritysat.sat.solver as solver_module
from paritysat.sat.core import SatInstance, at_most_k, parse_dimacs
from paritysat.sat.external import ExternalSolver, ExternalSolverError
from paritysat.sat.solver import HEAP_SLACK, Solver, SolverTimeout, solve

from brute import brute_is_sat

REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"
GOLDEN = Path(__file__).parent / "golden"


def _pigeonhole(holes):
    inst = SatInstance()
    pigeon = [[inst.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for row in pigeon:
        inst.add_clause(row)
    for h in range(holes):
        at_most_k(inst, [row[h] for row in pigeon], 1)
    return inst


def _random_3sat(seed, n=30, m=120):
    rng = random.Random(seed)
    inst = SatInstance()
    lits = inst.new_vars(n)
    for _ in range(m):
        inst.add_clause([rng.choice(lits) * rng.choice([-1, 1]) for _ in range(3)])
    return inst


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
    stats = {}
    assert solve(_pigeonhole(5), timeout_s=60, stats_out=stats) is None
    assert stats["learned"] > 0


def test_monotone_resolve_after_adding_clauses():
    for resumed in (False, True):
        inst = SatInstance()
        solver = Solver(inst)
        again = solver.solve if resumed else (lambda: solve(inst))
        x, y = inst.new_vars(2)
        inst.add_clause([x, y])
        first = again()
        assert first is not None
        inst.add_clause([-x])
        second = again()
        assert second is not None and not second[x] and second[y]
        inst.add_clause([-y])
        assert again() is None


def test_resumed_solver_agrees_with_fresh_solves_and_truth_tables():
    rng = random.Random(2024)
    for _ in range(150):
        inst = SatInstance()
        solver = Solver(inst)
        for _ in range(rng.randint(3, 5)):
            inst.new_vars(rng.randint(0 if inst.num_vars else 1, 4))
            for _ in range(rng.randint(1, 8)):
                width = min(rng.choice([1, 2, 3, 3, 4, 4]), inst.num_vars)
                inst.add_clause([rng.randint(1, inst.num_vars) * rng.choice([-1, 1])
                                 for _ in range(width)])
            resumed = solver.solve()
            fresh = solve(inst)
            expected = brute_is_sat(inst.num_vars, inst.clauses)
            assert (resumed is not None) == (fresh is not None) == expected
            for model in (resumed, fresh):
                if model is not None:
                    assert len(model.values) == inst.num_vars + 1
                    for clause in inst.clauses:
                        assert any(model.truth(lit) for lit in clause)


def _assert_model(model, inst, assumptions=()):
    assert len(model.values) == inst.num_vars + 1
    assert all(any(model.truth(lit) for lit in clause) for clause in inst.clauses)
    assert all(model.truth(lit) for lit in assumptions)


def test_assumptions_agree_with_truth_tables_on_growing_instances():
    rng = random.Random(4096)
    refuted = 0
    for _ in range(150):
        inst = SatInstance()
        solver = Solver(inst)
        for _ in range(rng.randint(3, 5)):
            inst.new_vars(rng.randint(0 if inst.num_vars else 1, 4))
            for _ in range(rng.randint(1, 8)):
                width = min(rng.choice([1, 2, 3, 3, 4, 4]), inst.num_vars)
                inst.add_clause([rng.randint(1, inst.num_vars) * rng.choice([-1, 1])
                                 for _ in range(width)])
            assumed = [rng.randint(1, inst.num_vars) * rng.choice([-1, 1])
                       for _ in range(rng.randint(0, 4))]
            model = solver.solve(assumptions=assumed)
            expected = brute_is_sat(inst.num_vars, inst.clauses + [[lit] for lit in assumed])
            assert (model is not None) == expected
            if model is not None:
                _assert_model(model, inst, assumed)
            # the same solver, without the assumptions, still answers the instance
            satisfiable = brute_is_sat(inst.num_vars, inst.clauses)
            refuted += satisfiable and not expected
            plain = solver.solve()
            assert (plain is not None) == satisfiable and solver.unsat != satisfiable
            if plain is not None:
                _assert_model(plain, inst)
    assert refuted > 20


def test_unsat_under_an_activation_literal_leaves_the_instance_open():
    # a pigeonhole instance whose "every pigeon sits" clauses hold only
    # under the activation literal: a real search refutes it, yet dropping
    # the literal leaves a satisfiable instance, as phase 1 does per budget
    inst = _pigeonhole(5)
    active = inst.new_var()
    inst.clauses[:6] = [[-active] + clause for clause in inst.clauses[:6]]
    solver = Solver(inst)
    stats = {}
    assert solver.solve(stats_out=stats, assumptions=[active]) is None
    assert stats["conflicts"] > 50 and not solver.unsat
    assert solver.trail_lim == []
    model = solver.solve(assumptions=[-active])
    assert model is not None and not model[active]
    _assert_model(model, inst)
    inst.add_clause([active])
    assert solver.solve() is None and solver.unsat


def test_an_assumption_false_at_the_root_refutes_without_search():
    inst = SatInstance()
    x, y = inst.new_vars(2)
    inst.add_clause([-x])
    solver = Solver(inst)
    stats = {}
    assert solver.solve(stats_out=stats, assumptions=[y, x]) is None
    assert stats["conflicts"] == 0 and not solver.unsat
    model = solver.solve(assumptions=[y])
    assert model is not None and model[y] and not model[x]
    with pytest.raises(ValueError):
        solver.solve(assumptions=[3])


def _planted_3sat_rounds(seed, n, sizes):
    """Random 3-SAT that a hidden assignment satisfies, grown to each of
    ``sizes`` clauses in turn; yields the instance and its truth per round."""
    rng = random.Random(seed)
    inst = SatInstance()
    lits = inst.new_vars(n)
    hidden = [None] + [rng.random() < 0.5 for _ in lits]
    for size in sizes:
        while inst.num_clauses < size:
            clause = [rng.choice(lits) * rng.choice([-1, 1]) for _ in range(3)]
            if any((lit > 0) == hidden[abs(lit)] for lit in clause):
                inst.add_clause(clause)
        yield inst, True


def _pigeonhole_rounds(holes):
    """The pigeonhole instance, its holes constrained two at a time: it has
    a model until the last hole is constrained."""
    inst = SatInstance()
    pigeon = [[inst.new_var() for _ in range(holes)] for _ in range(holes + 1)]
    for row in pigeon:
        inst.add_clause(row)
    for h in range(holes):
        at_most_k(inst, [row[h] for row in pigeon], 1)
        if h % 2 == 1 or h == holes - 1:
            yield inst, h < holes - 1


def _assert_heap_sound(solver):
    """Within its bound, ordered, and one current entry per var it holds,
    which covers every unassigned var."""
    heap = solver.heap
    assert len(heap) <= HEAP_SLACK * solver.num_vars
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
    current = [v for neg_act, v in heap if neg_act == -solver.activity[v]]
    assert len(current) == len(set(current))
    assert set(current) == {v for v in range(1, solver.num_vars + 1) if solver.in_heap[v]}
    assert all(solver.in_heap[v] for v in range(1, solver.num_vars + 1) if solver.value[v] == 0)


@pytest.mark.parametrize("rounds", [
    lambda: _planted_3sat_rounds(0, 150, (600, 620, 640, 660)),
    lambda: _planted_3sat_rounds(3, 150, (600, 620, 640, 660)),
    lambda: _pigeonhole_rounds(6),
], ids=["planted-0", "planted-3", "pigeonhole6"])
def test_restarting_search_agrees_with_the_truth_fresh_and_resumed(rounds, monkeypatch):
    rebuilds = []
    rebuild = Solver._rebuild_heap

    def counted_rebuild(self):
        rebuilds.append(len(self.heap))
        rebuild(self)

    monkeypatch.setattr(Solver, "_rebuild_heap", counted_rebuild)
    restarts = {"resumed": 0, "fresh": 0}
    resumed = None
    for inst, satisfiable in rounds():
        if resumed is None:
            resumed = Solver(inst)
        for kind, solver in (("resumed", resumed), ("fresh", Solver(inst))):
            stats = {}
            model = solver.solve(stats_out=stats)
            assert (model is not None) == satisfiable
            if model is not None:
                assert all(any(model.truth(lit) for lit in clause) for clause in inst.clauses)
            restarts[kind] += stats["restarts"]
            _assert_heap_sound(solver)
    assert restarts["resumed"] >= 1 and restarts["fresh"] >= 1
    assert rebuilds  # the heap was compacted along the way


def test_decision_heap_stays_bounded_over_a_long_solve(monkeypatch):
    inst = _pigeonhole(7)
    solver = Solver(inst)
    longest = [0]
    backjump = Solver._backjump

    def measured_backjump(self, to_level):
        backjump(self, to_level)
        longest[0] = max(longest[0], len(self.heap))

    monkeypatch.setattr(Solver, "_backjump", measured_backjump)
    stats = {}
    assert solver.solve(stats_out=stats) is None
    assert stats["conflicts"] > 1000 and stats["restarts"] >= 1
    assert longest[0] <= HEAP_SLACK * inst.num_vars
    _assert_heap_sound(solver)


def test_clause_contradicting_a_root_fact_is_unsat_for_good():
    inst = SatInstance()
    x, y, z = inst.new_vars(3)
    inst.add_clause([x])
    inst.add_clause([-x, y])
    solver = Solver(inst)
    assert solver.solve() is not None
    assert solver.trail == [x, y]  # root facts kept between calls
    inst.add_clause([-y, -x])      # every literal is root-false
    stats = {}
    assert solver.solve(stats_out=stats) is None
    assert stats["decisions"] == 0
    inst.add_clause([z])
    assert solver.solve() is None
    assert solve(inst) is None


def test_root_satisfied_and_root_false_literals_on_take_in():
    inst = SatInstance()
    a, b, c, d = inst.new_vars(4)
    inst.add_clause([a])
    solver = Solver(inst)
    assert solver.solve() is not None
    inst.add_clause([a, b])          # satisfied by a root fact: dropped
    inst.add_clause([-a, c])         # one literal left: a root fact
    inst.add_clause([-a, b, d])      # watched on b and d
    before = len(solver.db)
    model = solver.solve()
    assert model is not None and model[c] and (model[b] or model[d])
    assert [sorted(clause) for clause in solver.db[before:]] == [[b, d]]
    assert c in solver.trail and solver.trail_lim == []
    assert inst.clauses == [[a], [a, b], [-a, c], [-a, b, d]]


@pytest.mark.parametrize("make, satisfiable", [
    (lambda: _random_3sat(2, n=120, m=500), True),
    (lambda: _pigeonhole(6), False),
], ids=["3sat-120-sat", "pigeonhole6-unsat"])
def test_solver_is_back_at_level_zero_after_a_timeout(make, satisfiable, monkeypatch):
    inst = make()
    stats = {}
    solve(inst, stats_out=stats)
    # the instance must still be searching at the second clock check below
    assert stats["decisions"] + stats["conflicts"] > 512
    solver = Solver(inst)
    # each reading of this clock is one second later: the deadline passes at
    # the second check, 256 decisions and conflicts into the search
    ticks = itertools.count()
    monkeypatch.setattr(solver_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(SolverTimeout):
        solver.solve(timeout_s=1.5)
    monkeypatch.undo()
    assert solver.trail_lim == [] and solver.qhead <= len(solver.trail)
    assigned = [v for v in range(1, inst.num_vars + 1) if solver.value[v] != 0]
    assert assigned == sorted(abs(lit) for lit in solver.trail)
    assert all(solver.level[v] == 0 for v in assigned)
    model = solver.solve()
    assert (model is not None) == satisfiable == (solve(inst) is not None)
    if model is not None:
        assert all(any(model.truth(lit) for lit in clause) for clause in inst.clauses)


def _triangle_count(k):
    """The golden triangle's count-mode CNF at ``k`` steps, with its goal
    stated for good, as a fixed-size encoding used to build it."""
    return parse_dimacs((GOLDEN / f"triangle_count_k{k}.cnf").read_text())


# counters and models of a first solve, recorded with the EVSIDS, phase-saving
# and Luby-restart search: a fresh solve must search exactly as it did
FIRST_SOLVE_PINS = [
    (lambda: _pigeonhole(5), (183, 145, 1737, 137), None),
    (lambda: _random_3sat(2), (14, 12, 111, 7), None),
    (lambda: _random_3sat(3), (18, 15, 201, 13),
     [1, 2, 3, 7, 8, 9, 10, 12, 13, 14, 15, 17, 18, 22, 26, 27, 28, 30]),
    (lambda: _triangle_count(4), (68, 37, 1390, 27), None),
    (lambda: _triangle_count(5), (200, 107, 3240, 100),
     [1, 5, 9, 12, 16, 17, 21, 24, 25, 26, 31, 33, 36, 37, 40, 41, 45, 47, 49, 52,
      54, 56, 57, 58, 63, 65, 70, 72, 73, 76, 80, 81, 86, 88, 100, 115, 140]),
]


@pytest.mark.parametrize("make, counters, true_vars", FIRST_SOLVE_PINS,
                         ids=["pigeonhole5", "3sat-2", "3sat-3", "triangle-k4", "triangle-k5"])
def test_first_solve_searches_as_before(make, counters, true_vars):
    inst = make()
    stats = {}
    model = Solver(inst).solve(stats_out=stats)
    assert (stats["decisions"], stats["conflicts"], stats["propagations"],
            stats["learned"]) == counters
    got = None if model is None else [v for v in range(1, inst.num_vars + 1) if model[v]]
    assert got == true_vars


def test_first_decisions_set_the_preferred_literals_and_the_rest_false():
    inst = SatInstance()
    a, b, c, d, e = inst.new_vars(5)
    inst.preferred.extend([b, -c, e])
    solver = Solver(inst)
    model = solver.solve()
    assert model.values == (False, False, True, False, False, True)
    # a preference takes effect when the solver first takes its variable in
    f, g = inst.new_vars(2)
    inst.preferred.extend([g, a])
    assert solver.solve().values[1:] == model.values[1:] + (False, True)
    assert Solver(inst).solve().values == (False, True, True, False, False, True, False, True)


def test_determinism():
    rng = random.Random(4)
    inst = random_instance(rng, max_vars=14, max_clauses=50)
    a = solve(inst)
    b = solve(inst)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.values == b.values


def test_timeout_raises():
    with pytest.raises(SolverTimeout):
        solve(_pigeonhole(6), timeout_s=0.0)


def test_timed_out_call_still_fills_its_stats():
    stats = {}
    with pytest.raises(SolverTimeout):
        Solver(_pigeonhole(6)).solve(timeout_s=0.0, stats_out=stats)
    assert set(stats) == {"decisions", "conflicts", "propagations", "learned",
                          "restarts", "seconds"}
    assert stats["seconds"] >= 0.0


def test_timed_out_external_call_records_its_seconds(tmp_path):
    sleeper = tmp_path / "sleeper.py"
    sleeper.write_text(f"#!{sys.executable}\nimport time\ntime.sleep(30)\n")
    sleeper.chmod(0o755)
    inst = SatInstance()
    inst.add_clause([inst.new_var()])
    stats = {}
    with pytest.raises(SolverTimeout):
        ExternalSolver(str(sleeper)).solve(inst, timeout_s=0.2, stats_out=stats)
    assert stats["seconds"] >= 0.2


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
        external = ExternalSolver(backend).solve(inst)
        assert (internal is None) == (external is None)
        if external is not None:
            for clause in inst.clauses:
                assert any(external.truth(lit) for lit in clause)
        # assumptions reach the external solver as unit clauses
        assumed = [rng.randint(1, inst.num_vars) * rng.choice([-1, 1]) for _ in range(2)]
        clauses = [list(clause) for clause in inst.clauses]
        internal = Solver(inst).solve(assumptions=assumed)
        external = ExternalSolver(backend).solve(inst, assumptions=assumed)
        assert (internal is None) == (external is None)
        assert inst.clauses == clauses
        if external is not None:
            _assert_model(external, inst, assumed)


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
    # and against the assumptions
    inst = SatInstance()
    x = inst.new_var()
    inst.add_clause([x, -x])
    assert not ExternalSolver(str(liar)).solve(inst)[x]
    with pytest.raises(ExternalSolverError):
        ExternalSolver(str(liar)).solve(inst, assumptions=[x])
