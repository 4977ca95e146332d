"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines (pytest hides stdout of passing tests by default).
"""
import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from paritysat.blockwise import BlockwiseConfig, iterate_optimize
from paritysat.cli import main as cli_main
from paritysat.encoder import Mode
from paritysat.ir import (
    Circuit,
    Cnot,
    CouplingMap,
    ParityMatrix,
    ParityTable,
    PhasePolyRep,
    Rz,
    cnot_count,
    cnot_depth,
    validate_topology,
)
from paritysat.oracle import oracle_min_count, oracle_min_depth
from paritysat.peephole import peephole_with_report
from paritysat.phasepoly import canonical_equal, canonicalize, equivalent, extract_rep
from paritysat.qasm import write_qasm
from paritysat.sat.core import SatInstance, at_least_k, at_most_k, export_dimacs, parse_dimacs
from paritysat.sat.solver import Solver
from paritysat.synthesizer import SynthesisRequest, hopps, sat_chain

from brute import brute_is_sat, brute_projections
from testkit import TOPOLOGIES, greedy_layers, random_instance, random_mixed_circuit

GOLDEN = Path(__file__).parent / "golden" / "triangle_line3.json"
REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"

mark = pytest.mark.acceptance

ALL_MODES = [(Mode.CNOT, False), (Mode.DEPTH, False), (Mode.CNOT, True), (Mode.DEPTH, True)]


def report(criterion: int, text: str) -> None:
    print(f"\nPASS criterion {criterion}: {text}")


def triangle_instance():
    return PhasePolyRep(ParityMatrix.identity(3), ParityMatrix((1, 4, 2)),
                        ParityTable(3, (5, 3, 6), (0.1, 0.2, 0.3)))


@pytest.fixture(scope="session")
def optimality_suite():
    """60 random instances with all four synthesis runs plus both oracles."""
    rng = random.Random(20250808)
    cases = []
    start = time.monotonic()
    for index in range(60):
        n = [2, 3, 4][index % 3]
        topo = ["line", "ring", "complete"][(index // 3) % 3]
        cm = TOPOLOGIES[topo](n)
        n_terms = index % 4
        n_cnots = rng.randint(0, 5)
        rep = random_instance(rng, n, cm, n_cnots, n_terms)
        best_count, count_circs = oracle_min_count(rep, cm)
        best_depth, depth_circs = oracle_min_depth(rep, cm)
        # both engines: the exact search (checked by one SAT call) and the
        # SAT chain alone
        runs, sat_runs = ({(mode, doubly): engine(SynthesisRequest(rep, cm, mode=mode,
                                                                   doubly=doubly))
                           for mode, doubly in ALL_MODES} for engine in (hopps, sat_chain))
        cases.append({
            "rep": rep, "cm": cm, "topo": topo,
            "best_count": best_count, "best_depth": best_depth,
            "count_circuits": count_circs, "depth_circuits": depth_circs,
            "runs": runs, "sat_runs": sat_runs,
        })
    return cases, time.monotonic() - start


@mark
def test_criterion_1_oracle_optimality(optimality_suite):
    cases, elapsed = optimality_suite
    for case in cases:
        for runs in (case["runs"], case["sat_runs"]):
            assert runs[(Mode.CNOT, False)].cnot_count == case["best_count"]
            assert runs[(Mode.DEPTH, False)].cnot_depth == case["best_depth"]
    assert elapsed < 600.0, f"suite took {elapsed:.1f} s"
    report(1, f"60/60 instances count- and depth-optimal vs oracle "
              f"({elapsed:.1f} s total)")


@mark
def test_criterion_2_doubly_optimal_dominance(optimality_suite):
    cases, _ = optimality_suite
    for case in cases:
        for runs in (case["runs"], case["sat_runs"]):
            cnot_run = runs[(Mode.CNOT, True)]
            depth_run = runs[(Mode.DEPTH, True)]
            assert cnot_run.cnot_count == case["best_count"]
            assert cnot_run.cnot_depth == min(cnot_depth(c) for c in case["count_circuits"])
            assert depth_run.cnot_depth == case["best_depth"]
            assert depth_run.cnot_count == min(cnot_count(c) for c in case["depth_circuits"])
    report(2, "60/60 instances doubly optimal on both orderings")


@mark
def test_criterion_3_triangle_instance_pins():
    golden = json.loads(GOLDEN.read_text())
    rep = triangle_instance()
    line3 = CouplingMap.line(3)
    start = time.monotonic()
    for engine in (hopps, sat_chain):
        runs = {(mode, doubly): engine(SynthesisRequest(rep, line3, mode=mode, doubly=doubly))
                for mode, doubly in ALL_MODES}
        for run in runs.values():
            assert validate_topology(run.circuit, line3)
            assert canonical_equal(canonicalize(extract_rep(run.circuit)),
                                   canonicalize(rep))
        assert runs[(Mode.CNOT, False)].cnot_count == golden["min_count"]
        assert runs[(Mode.DEPTH, False)].cnot_depth == golden["min_depth"]
        count_run, depth_run = runs[(Mode.CNOT, True)], runs[(Mode.DEPTH, True)]
        assert count_run.cnot_count == golden["min_count"]
        assert count_run.cnot_depth == golden["min_depth_among_count_optimal"]
        assert depth_run.cnot_depth == golden["min_depth"]
        assert depth_run.cnot_count == golden["min_count_among_depth_optimal"]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    report(3, f"pinned instance matches committed oracle goldens ({elapsed:.2f} s)")


@mark
def test_criterion_4_round_trip_property():
    rng = random.Random(424242)
    cnot_cap = {2: 6, 3: 6, 4: 5, 5: 4, 6: 4}
    for _ in range(200):
        n = rng.randint(2, 6)
        cm = CouplingMap.complete(n)
        n_cnots = rng.randint(0, cnot_cap[n])
        n_rz = rng.randint(0, min(30 - n_cnots, 10))
        rep = random_instance(rng, n, cm, n_cnots, n_rz)
        result = hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT))
        assert canonical_equal(canonicalize(extract_rep(result.circuit)),
                               canonicalize(rep))
    report(4, "200/200 synthesized circuits canonicalize back to their input")


def _gadget_projection_check(rng) -> None:
    n = rng.randint(1, 8)
    k = rng.randint(0, n)
    most = rng.random() < 0.5
    inst = SatInstance()
    lits = inst.new_vars(n)
    (at_most_k if most else at_least_k)(inst, lits, k)
    predicate = (lambda s: s <= k) if most else (lambda s: s >= k)
    if inst.num_vars <= 16:
        got = brute_projections(inst.num_vars, inst.clauses, lits)
        want = {bits for bits in itertools.product([False, True], repeat=n)
                if predicate(sum(bits))}
        assert got == want
    else:
        for bits in itertools.product([False, True], repeat=n):
            probe = SatInstance(num_vars=inst.num_vars,
                                clauses=[list(c) for c in inst.clauses])
            for lit, bit in zip(lits, bits):
                probe.add_clause([lit if bit else -lit])
            assert (Solver(probe).solve() is not None) == predicate(sum(bits))


@mark
def test_criterion_5_encoding_and_solver_soundness():
    rng = random.Random(55555)
    for _ in range(100):
        _gadget_projection_check(rng)

    for _ in range(100):
        inst = SatInstance()
        n = rng.randint(1, 18)
        lits = inst.new_vars(n)
        for _ in range(rng.randint(0, 3 * n)):
            width = rng.randint(1, min(4, n))
            inst.add_clause([rng.choice(lits) * rng.choice([-1, 1])
                             for _ in range(width)])
        assert (Solver(inst).solve() is not None) == brute_is_sat(inst.num_vars, inst.clauses)

    agreements = 0
    for _ in range(20):
        inst = SatInstance()
        n = rng.randint(1, 14)
        lits = inst.new_vars(n)
        for _ in range(rng.randint(0, 3 * n)):
            width = rng.randint(1, min(4, n))
            inst.add_clause([rng.choice(lits) * rng.choice([-1, 1])
                             for _ in range(width)])
        internal = Solver(inst).solve() is not None
        cnf = export_dimacs(inst)
        reparsed = parse_dimacs(cnf)
        assert sorted(map(tuple, reparsed.clauses)) == sorted(map(tuple, inst.clauses))
        proc = subprocess.run([sys.executable, str(REF_SOLVER), "/dev/stdin"],
                              input=cnf, capture_output=True, text=True, timeout=120)
        external = proc.stdout.splitlines()[0] == "s SATISFIABLE"
        assert internal == external
        agreements += 1
    report(5, f"100 cardinality gadgets exact, 100 truth-table agreements, "
              f"{agreements} external differential agreements")


@mark
def test_criterion_6_layering_legality(optimality_suite):
    cases, _ = optimality_suite
    checked = 0
    runs = []
    for case in cases:
        runs.append((Mode.DEPTH, case["runs"][(Mode.DEPTH, False)]))
        runs.append((Mode.DEPTH, case["runs"][(Mode.DEPTH, True)]))
        runs.append((Mode.CNOT, case["runs"][(Mode.CNOT, True)]))
    rep = triangle_instance()
    line3 = CouplingMap.line(3)
    runs.append((Mode.DEPTH, hopps(SynthesisRequest(rep, line3, mode=Mode.DEPTH,
                                                    doubly=True))))
    runs.append((Mode.CNOT, hopps(SynthesisRequest(rep, line3, mode=Mode.CNOT,
                                                   doubly=True))))
    for mode, run in runs:
        # a depth-mode model's steps are its layers; a count-doubly result
        # is layered greedily
        layers = run.steps if mode is Mode.DEPTH else greedy_layers(run.circuit)
        for layer in layers:
            used = [q for edge in layer for q in edge]
            assert len(used) == len(set(used)), "same-layer CNOTs share a qubit"
        assert len(layers) == run.cnot_depth
        assert cnot_depth(run.circuit) == run.cnot_depth
        checked += 1
    report(6, f"{checked} layered results all legal and depth-consistent")


def _ring8_grid_circuit():
    grid = CouplingMap.grid(2, 4)
    ring = [(0, 1), (1, 2), (2, 3), (3, 7), (7, 6), (6, 5), (5, 4), (4, 0)]
    gates = []
    for i, (a, b) in enumerate(ring):
        gates += [Cnot(a, b), Rz(0.3 + 0.05 * i, b), Cnot(a, b)]
    swap12 = [Cnot(1, 2), Cnot(2, 1), Cnot(1, 2)]
    swap56 = [Cnot(5, 6), Cnot(6, 5), Cnot(5, 6)]
    gates[9:9] = swap12 + swap12
    gates[3:3] = swap56 + swap56
    return Circuit(8, tuple(gates)), grid


@mark
def test_criterion_7_blockwise_monotone_convergence():
    circuit, grid = _ring8_grid_circuit()
    assert validate_topology(circuit, grid)
    start = time.monotonic()
    outputs = {}
    for jobs in (1, 8):
        cfg = BlockwiseConfig(max_block_qubits=3, max_block_depth=20,
                              iters_full=5, iters_sample=5, sample_fraction=0.5,
                              seed=99, jobs=jobs, per_block_timeout=60)
        out, trace = iterate_optimize(circuit, grid, cfg)
        outputs[jobs] = out
        counts = [r.cnot_count for r in trace]
        assert counts[0] < cnot_count(circuit), "no strict decrease in iteration 1"
        assert all(a >= b for a, b in zip(counts, counts[1:])), "count not monotone"
        assert len(trace) <= 10
        full = [r for r in trace if r.stage == "full"]
        if len(full) > 1:  # reached a fixpoint before the iteration cap
            assert full[-1].cnot_count == full[-2].cnot_count
        assert equivalent(out, circuit)
        assert validate_topology(out, grid)
    elapsed = time.monotonic() - start
    assert outputs[1].gates == outputs[8].gates, "jobs=1 and jobs=8 differ"
    assert elapsed < 300.0, f"took {elapsed:.1f} s"
    report(7, f"monotone convergence with fixpoint, identical at jobs 1 and 8 "
              f"({elapsed:.1f} s)")


@mark
def test_criterion_8_improvement_ratio(tmp_path, capsys):
    base = Circuit(4, tuple([Cnot(0, 1)] * 7 + [Cnot(2, 3)]))
    ours = Circuit(4, tuple([Cnot(0, 1)] * 5 + [Cnot(2, 3)]))
    assert (cnot_count(base), cnot_depth(base)) == (8, 7)
    assert (cnot_count(ours), cnot_depth(ours)) == (6, 5)
    base_f, ours_f = tmp_path / "base.qasm", tmp_path / "ours.qasm"
    base_f.write_text(write_qasm(base))
    ours_f.write_text(write_qasm(ours))
    code = cli_main(["metrics", str(ours_f), "--baseline", str(base_f)])
    out = capsys.readouterr().out
    assert code == 0
    got = json.loads(out)
    assert math.isclose(got["cnot_count_improvement"], 0.25, abs_tol=1e-9)
    assert math.isclose(got["cnot_depth_improvement"], 2.0 / 7.0, abs_tol=1e-9)
    report(8, "8->6 CNOTs = 25.0% and 7->5 depth = 28.57% reductions reproduced")


@mark
def test_criterion_9_peephole_safety():
    rng = random.Random(99999)
    for trial in range(50):
        n = rng.randint(3, 5)
        cm = CouplingMap.complete(n)
        circuit = random_mixed_circuit(rng, n, rng.randint(4, 14))
        once, pairs = peephole_with_report(circuit, cm, Mode.CNOT, doubly=True,
                                           timeout_s=30)
        for old, new in pairs:
            assert canonical_equal(canonicalize(new.rep), canonicalize(old.rep)), \
                "replaced block not equivalent"
            assert cnot_count(new.circuit) <= cnot_count(old.circuit), \
                "block target metric increased"
        twice, _ = peephole_with_report(once, cm, Mode.CNOT, doubly=True,
                                        timeout_s=30)
        assert cnot_count(twice) == cnot_count(once)
        assert cnot_depth(twice) == cnot_depth(once)
    report(9, "50/50 mixed circuits: per-block equivalence, metric safety, "
              "idempotent second pass")
