import random

import pytest

from paritysat.encoder import (
    EncodingConfig,
    Mode,
    add_cnot_budget,
    add_cnot_mode,
    add_depth_mode,
    encode_common,
)
from paritysat.ir import CouplingMap, ParityMatrix, apply_cnot
from paritysat.sat.solver import solve

from testkit import random_instance


def make_cfg(mode, steps, cm):
    return EncodingConfig(mode, steps, cm.num_qubits, cm.directed_edges())


def encode_for(mode, steps, cm, initial, final, terms):
    cfg = make_cfg(mode, steps, cm)
    inst, layout = encode_common(initial, final, terms, cfg)
    if mode is Mode.CNOT:
        add_cnot_mode(inst, layout)
    else:
        add_depth_mode(inst, layout)
    return inst, layout


def selected_steps(model, layout):
    edges = layout.cfg.directed_edges
    return [[edges[e] for e, v in enumerate(step) if model[v]] for step in layout.cnot]


def test_zero_steps_identity_sat():
    cm = CouplingMap.line(2)
    eye = ParityMatrix.identity(2)
    inst, _ = encode_for(Mode.CNOT, 0, cm, eye, eye, [])
    assert solve(inst) is not None


def test_zero_steps_unreachable_term_unsat():
    cm = CouplingMap.line(2)
    eye = ParityMatrix.identity(2)
    inst, _ = encode_for(Mode.CNOT, 0, cm, eye, eye, [0b11])
    assert solve(inst) is None


def test_config_validation():
    with pytest.raises(ValueError):
        EncodingConfig(Mode.CNOT, -1, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        EncodingConfig(Mode.CNOT, 1, 2, ((0, 1),))  # missing reverse orientation
    with pytest.raises(ValueError):
        encode_common(ParityMatrix.identity(2), ParityMatrix.identity(2), [0],
                      EncodingConfig(Mode.CNOT, 1, 2, ((0, 1), (1, 0))))


def test_mode_guards():
    cm = CouplingMap.line(2)
    eye = ParityMatrix.identity(2)
    cfg = make_cfg(Mode.CNOT, 1, cm)
    inst, layout = encode_common(eye, eye, [], cfg)
    with pytest.raises(ValueError):
        add_depth_mode(inst, layout)
    dcfg = make_cfg(Mode.DEPTH, 1, cm)
    dinst, dlayout = encode_common(eye, eye, [], dcfg)
    with pytest.raises(ValueError):
        add_cnot_mode(dinst, dlayout)
    with pytest.raises(ValueError):
        add_cnot_budget(inst, layout, 1)  # count-mode instance


def test_cnot_mode_forces_exactly_k_gates():
    cm = CouplingMap.line(3)
    eye = ParityMatrix.identity(3)
    target = apply_cnot(apply_cnot(eye, 0, 1), 1, 2)
    inst, layout = encode_for(Mode.CNOT, 2, cm, eye, target, [])
    model = solve(inst)
    assert model is not None
    steps = selected_steps(model, layout)
    assert all(len(step) == 1 for step in steps)


def _replay_and_check(model, layout, initial, terms):
    n = layout.cfg.num_qubits
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
                model = solve(inst)
                if model is None:
                    continue
                rows, matched = _replay_and_check(model, layout, rep.initial, terms)
                assert tuple(rows) == rep.final.rows
                assert all(matched.values())
                break


def test_model_enumeration_matches_sequence_count():
    # every ordered pair of directed line-3 edges whose replay lands on G
    # corresponds to exactly one model projection, and vice versa
    cm = CouplingMap.line(3)
    edges = cm.directed_edges()
    eye = ParityMatrix.identity(3)

    def replay(pair):
        rows = list(eye.rows)
        for c, t in pair:
            rows[t] ^= rows[c]
        return tuple(rows)

    for target in (eye, apply_cnot(apply_cnot(eye, 0, 1), 1, 2)):
        want = sum(1 for e1 in edges for e2 in edges
                   if replay((e1, e2)) == target.rows)
        inst, layout = encode_for(Mode.CNOT, 2, cm, eye, target, [])
        got = 0
        while True:
            model = solve(inst)
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
            statuses.append(solve(inst) is not None)
        first_sat = statuses.index(True) if True in statuses else len(statuses)
        assert all(not s for s in statuses[:first_sat])


def test_disjoint_gates_reach_depth_one():
    cm = CouplingMap.line(4)
    eye = ParityMatrix.identity(4)
    target = apply_cnot(apply_cnot(eye, 0, 1), 2, 3)
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert solve(inst) is not None


def test_shared_qubit_gates_need_depth_two():
    cm = CouplingMap.line(3)
    eye = ParityMatrix.identity(3)
    target = apply_cnot(apply_cnot(eye, 0, 1), 1, 2)
    inst, layout = encode_for(Mode.DEPTH, 2, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert solve(inst) is not None
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert solve(inst) is None


def test_depth_mode_qubit_disjoint_steps():
    cm = CouplingMap.line(4)
    eye = ParityMatrix.identity(4)
    target = apply_cnot(apply_cnot(eye, 0, 1), 2, 3)
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    model = solve(inst)
    assert model is not None
    (step,) = selected_steps(model, layout)
    assert sorted(step) == [(0, 1), (2, 3)]


def test_cnot_budget():
    cm = CouplingMap.line(4)
    eye = ParityMatrix.identity(4)
    target = apply_cnot(apply_cnot(eye, 0, 1), 2, 3)
    inst, layout = encode_for(Mode.DEPTH, 1, cm, eye, target, [])
    add_cnot_budget(inst, layout, 2)
    assert solve(inst) is not None
    add_cnot_budget(inst, layout, 1)
    assert solve(inst) is None
    with pytest.raises(ValueError):
        add_cnot_budget(inst, layout, -1)
