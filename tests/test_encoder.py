import itertools
import random
from collections import Counter

import pytest

from paritysat.encoder import (
    Mode,
    add_cnot_budget,
    add_goal,
    encode_chain,
    extend_chain,
)
from paritysat.ir import CouplingMap, ParityMatrix, ParityTable, PhasePolyRep, apply_cnot
from paritysat.oracle import oracle_min_count, oracle_min_depth
from paritysat.sat.solver import Solver
from paritysat.synthesizer import synthesis_key

from testkit import random_instance


def make_rep(initial, final, terms):
    """The rep of ``terms`` at zero angles: the encoder reads no angle."""
    return PhasePolyRep(initial, final, ParityTable(initial.n, terms, (0.0,) * len(terms)))


def encode_for(mode, steps, cm, initial, final, terms):
    """A chain of ``steps`` steps whose goal holds for good."""
    inst, layout = encode_chain(make_rep(initial, final, terms), cm, mode, steps)
    inst.add_clause([add_goal(inst, layout)])
    return inst, layout


def selected_steps(model, layout):
    edges = layout.edges
    return [[edges[e] for e, v in enumerate(step) if model[v]] for step in layout.cnot]


def test_zero_steps_identity_sat():
    cm = CouplingMap.line(2)
    eye = ParityMatrix.identity(2)
    inst, _ = encode_for(Mode.CNOT, 0, cm, eye, eye, [])
    assert Solver(inst).solve() is not None


def test_zero_steps_unreachable_term_unsat():
    cm = CouplingMap.line(2)
    eye = ParityMatrix.identity(2)
    inst, _ = encode_for(Mode.CNOT, 0, cm, eye, eye, [0b11])
    assert Solver(inst).solve() is None


def test_config_validation():
    eye = ParityMatrix.identity(2)
    with pytest.raises(ValueError):
        encode_chain(make_rep(eye, eye, []), CouplingMap.line(2), Mode.CNOT, -1)
    with pytest.raises(ValueError, match="coupling map on 3 qubits"):
        encode_chain(make_rep(eye, eye, []), CouplingMap.line(3), Mode.CNOT, 1)


def test_repeated_terms_get_one_coverage_family_each_in_table_order():
    eye = ParityMatrix.identity(3)
    table = ParityTable(3, (0b110, 0b011, 0b110, 0b011), (0.25, "theta", "phi", 0.5))
    rep = PhasePolyRep(eye, eye, table)
    inst, layout = encode_chain(rep, CouplingMap.line(3), Mode.CNOT, 2)
    assert layout.terms == (0b110, 0b011)
    assert layout.terms == table.unique_terms == synthesis_key(rep, CouplingMap.line(3))[2]
    # one indicator per row of each of the three slices, per unique term
    assert [len(family) for family in layout.matches] == [9, 9]
    inst.add_clause([add_goal(inst, layout)])
    # the same CNF as the table of the unique terms alone
    fresh, _ = encode_for(Mode.CNOT, 2, CouplingMap.line(3), eye, eye, [0b110, 0b011])
    assert (inst.num_vars, inst.num_clauses) == (fresh.num_vars, fresh.num_clauses)


def test_mode_guards():
    eye = ParityMatrix.identity(2)
    inst, layout = encode_chain(make_rep(eye, eye, []), CouplingMap.line(2), Mode.CNOT, 1)
    with pytest.raises(ValueError):
        add_cnot_budget(inst, layout, 1)  # count-mode instance


def test_cnot_mode_forces_exactly_k_gates():
    cm = CouplingMap.line(3)
    eye = ParityMatrix.identity(3)
    target = apply_cnot(apply_cnot(eye, 0, 1), 1, 2)
    inst, layout = encode_for(Mode.CNOT, 2, cm, eye, target, [])
    model = Solver(inst).solve()
    assert model is not None
    steps = selected_steps(model, layout)
    assert all(len(step) == 1 for step in steps)


def _replay_and_check(model, layout, initial, terms):
    n = layout.final.n
    rows = list(initial.rows)
    matched = {t: t in rows for t in terms}
    for k, step in enumerate(selected_steps(model, layout)):
        for i in range(n):
            for j in range(n):
                assert model[layout.parity[k][i][j]] == bool((rows[i] >> j) & 1)
        used = [q for c, t in step for q in (c, t)]
        assert len(used) == len(set(used)), "same-step gates share a qubit"
        for c, t in step:
            rows[t] ^= rows[c]
        for t in terms:
            if rows.count(t):
                matched[t] = True
    for i in range(n):
        for j in range(n):
            assert model[layout.parity[len(layout.cnot)][i][j]] == bool((rows[i] >> j) & 1)
    return rows, matched


def test_model_replay_reproduces_parity_and_terms():
    rng = random.Random(21)
    for _ in range(12):
        n = rng.choice([2, 3])
        cm = CouplingMap.complete(n)
        rep = random_instance(rng, n, cm, rng.randint(1, 4), rng.randint(0, 2))
        terms = sorted(set(rep.table.terms))
        for mode in (Mode.CNOT, Mode.DEPTH):
            for k in range(0, 5):
                inst, layout = encode_for(mode, k, cm, rep.initial, rep.final, terms)
                model = Solver(inst).solve()
                if model is None:
                    continue
                rows, matched = _replay_and_check(model, layout, rep.initial, terms)
                assert tuple(rows) == rep.final.rows
                assert all(matched.values())
                break


def test_grown_chain_answers_each_budget_as_a_fresh_encoding():
    # each budget of a grown chain answers as a fresh chain of that budget
    # does, and the first satisfiable one is the exhaustive oracle's optimum
    rng = random.Random(58)
    unsat_budgets = 0
    for _ in range(8):
        n = rng.choice([2, 3])
        cm = rng.choice([CouplingMap.line, CouplingMap.complete])(n)
        rep = random_instance(rng, n, cm, rng.randint(1, 4), rng.randint(0, 2))
        terms = sorted(set(rep.table.terms))
        for mode, oracle in ((Mode.CNOT, oracle_min_count), (Mode.DEPTH, oracle_min_depth)):
            inst, layout = encode_chain(make_rep(rep.initial, rep.final, terms), cm, mode, 0)
            solver = Solver(inst)
            for k in range(6):
                if k:
                    extend_chain(inst, layout)
                assert len(layout.parity) - 1 == len(layout.cnot) == k
                goal = add_goal(inst, layout)
                model = solver.solve(assumptions=[goal])
                fresh, _ = encode_for(mode, k, cm, rep.initial, rep.final, terms)
                assert (model is None) == (Solver(fresh).solve() is None)
                if model is None:
                    inst.add_clause([-goal])
                    unsat_budgets += 1
                    continue
                rows, matched = _replay_and_check(model, layout, rep.initial, terms)
                assert tuple(rows) == rep.final.rows and all(matched.values())
                break
            assert model is not None and k == oracle(rep, cm)[0]
    assert unsat_budgets > 0


def test_model_enumeration_matches_sequence_count():
    # every ordered pair of directed edges whose replay lands on G
    # corresponds to exactly one model projection, and vice versa; on the
    # one-edge map, qubit 2 is never targeted and its row carries over
    eye = ParityMatrix.identity(3)

    def replay(pair):
        rows = list(eye.rows)
        for c, t in pair:
            rows[t] ^= rows[c]
        return tuple(rows)

    for cm, target in [(CouplingMap.line(3), eye),
                       (CouplingMap.line(3), apply_cnot(apply_cnot(eye, 0, 1), 1, 2)),
                       (CouplingMap(3, frozenset({(0, 1)})), eye),
                       (CouplingMap(3, frozenset({(0, 1)})), apply_cnot(eye, 1, 0))]:
        edges = cm.directed_edges()
        want = sum(1 for e1 in edges for e2 in edges
                   if replay((e1, e2)) == target.rows)
        inst, layout = encode_for(Mode.CNOT, 2, cm, eye, target, [])
        got = 0
        while True:
            model = Solver(inst).solve()
            if model is None:
                break
            got += 1
            chosen = [v for step in layout.cnot for v in step if model[v]]
            inst.add_clause([-v for v in chosen])
        assert got == want


def test_monotone_unsat_in_cnot_mode():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.choice([2, 3])
        cm = CouplingMap.line(n)
        rep = random_instance(rng, n, cm, rng.randint(1, 4), 1)
        terms = sorted(set(rep.table.terms))
        statuses = []
        for k in range(0, 6):
            inst, _ = encode_for(Mode.CNOT, k, cm, rep.initial, rep.final, terms)
            statuses.append(Solver(inst).solve() is not None)
        first_sat = statuses.index(True) if True in statuses else len(statuses)
        assert all(not s for s in statuses[:first_sat])


def test_disjoint_gates_reach_depth_one():
    cm = CouplingMap.line(4)
    eye = ParityMatrix.identity(4)
    target = apply_cnot(apply_cnot(eye, 0, 1), 2, 3)
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert Solver(inst).solve() is not None


def test_shared_qubit_gates_need_depth_two():
    cm = CouplingMap.line(3)
    eye = ParityMatrix.identity(3)
    target = apply_cnot(apply_cnot(eye, 0, 1), 1, 2)
    inst, layout = encode_for(Mode.DEPTH, 2, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert Solver(inst).solve() is not None
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert Solver(inst).solve() is None


def test_depth_mode_qubit_disjoint_steps():
    cm = CouplingMap.line(4)
    eye = ParityMatrix.identity(4)
    target = apply_cnot(apply_cnot(eye, 0, 1), 2, 3)
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    model = Solver(inst).solve()
    assert model is not None
    (step,) = selected_steps(model, layout)
    assert sorted(step) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("mode", [Mode.CNOT, Mode.DEPTH])
def test_each_step_prefers_its_cnot_variables_true(mode):
    cm = CouplingMap.line(3)
    eye = ParityMatrix.identity(3)
    inst, layout = encode_chain(make_rep(eye, eye, [0b011]), cm, mode, 2)
    extend_chain(inst, layout)
    add_goal(inst, layout)
    cnots = [var for (family, _), var in inst.named.items() if family == "cnot"]
    assert len(cnots) == 3 * len(cm.directed_edges())
    assert inst.preferred == cnots == [var for step in layout.cnot for var in step]


def test_cnot_budget():
    cm = CouplingMap.line(4)
    eye = ParityMatrix.identity(4)
    target = apply_cnot(apply_cnot(eye, 0, 1), 2, 3)
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert Solver(inst).solve() is not None
    add_cnot_budget(inst, layout, 1)
    assert Solver(inst).solve() is None
    with pytest.raises(ValueError):
        add_cnot_budget(inst, layout, -1)


def _layer_sizes(cm, steps):
    """How many step assignments of nonempty qubit-disjoint layers hold
    each total CNOT count."""
    edges = cm.directed_edges()
    layers = [layer for size in range(1, cm.num_qubits // 2 + 1)
              for layer in itertools.combinations(edges, size)
              if len({q for edge in layer for q in edge}) == 2 * size]
    return Counter(sum(map(len, chosen)) for chosen in itertools.product(layers, repeat=steps))


def _count_models(inst, layout, goal=None):
    """Models of ``inst`` (under ``goal``, if given) told apart by their CNOT
    variables; blocks each one in ``inst``."""
    cnots = [v for step in layout.cnot for v in step]
    solver = Solver(inst)
    found = 0
    while (model := solver.solve(assumptions=() if goal is None else (goal,))) is not None:
        found += 1
        inst.add_clause([-v if model[v] else v for v in cnots])
    return found


@pytest.mark.parametrize("cm, steps", [
    (CouplingMap.line(3), 2),
    (CouplingMap.ring(4), 2),
    (CouplingMap.line(6), 1),
    # three CNOTs fit in one layer only from 6 qubits on
    (CouplingMap(6, frozenset({(0, 1), (2, 3), (4, 5)})), 2),
])
def test_cnot_budget_admits_exactly_the_layers_within_it(cm, steps):
    # with no goal, every sequence of nonempty qubit-disjoint layers is a
    # model; a cap, stated for good or by the counter under a goal, keeps
    # exactly those of at most that many CNOTs
    sizes = _layer_sizes(cm, steps)
    within = lambda cap: sum(count for size, count in sizes.items() if size <= cap)
    eye = ParityMatrix.identity(cm.num_qubits)
    top = steps * (cm.num_qubits // 2)
    for budget in range(steps, top + 1):
        inst, layout = encode_chain(make_rep(eye, eye, []), cm, Mode.DEPTH, steps)
        add_cnot_budget(inst, layout, budget)
        assert _count_models(inst, layout) == within(budget)
    for lower in range(steps, top):
        inst, layout = encode_chain(make_rep(eye, eye, []), cm, Mode.DEPTH, steps)
        counter = add_cnot_budget(inst, layout, top)
        assert _count_models(inst, layout, counter.at_most(inst, lower - steps)) == within(lower)
    with pytest.raises(ValueError):
        add_cnot_budget(inst, layout, steps - 1)
