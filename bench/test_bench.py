"""Tests of the benchmark itself: generators, BFS optima and output checks.

    python3 -m pytest bench
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bfs
import checks
import inputs
import layertrace
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def prog():
    return workloads.import_program()


@pytest.fixture(scope="module")
def optima():
    return bfs.load_optima()


def small_synth_items(seed):
    """The 3-qubit line instances of the pool: milliseconds each."""
    pool = inputs.synth_pool()
    return [it for it in inputs.synth_items(seed, pool) if it["topology"] == "line" and it["n"] == 3]


def test_generators_are_seeded():
    pool = inputs.synth_pool()
    assert inputs.synth_items(3, pool) == inputs.synth_items(3, pool)
    assert inputs.synth_items(3, pool) != inputs.synth_items(4, pool)
    peep = inputs.peephole_pool(8)
    assert inputs.peephole_items(3, peep) == inputs.peephole_items(3, peep)
    qaoa = inputs.qaoa_pool(1)
    first, second = inputs.qaoa_items(3, qaoa), inputs.qaoa_items(4, qaoa)
    assert [g[:1] + g[2:] for g in first[0]["gates"]] == \
        [g[:1] + g[2:] for g in second[0]["gates"]]
    assert first != second


def test_regular_graph_and_routing_are_legal():
    graph = inputs.random_regular_graph(random.Random(1), 16, 3)
    degree = [0] * 16
    for a, b in graph:
        degree[a] += 1
        degree[b] += 1
    assert len(set(graph)) == 24 and set(degree) == {3}
    gates = inputs.route_qaoa(graph, 1, 4, 4)
    assert not checks.off_map(gates, inputs.grid_edges(4, 4))
    assert sum(1 for g in gates if g[0] == "rz") == len(graph)


def test_stored_optima_match_a_fresh_bfs():
    stored = json.loads(bfs.OPTIMA_PATH.read_text())
    assert bfs.compute_optima() == stored


def test_bfs_on_the_triangle_instance():
    # QAOA cost layer of a triangle with one off-line CNOT; 5 CNOTs on a line
    gates = [("cx", 0, 2), ("rz", None, 2), ("cx", 0, 1), ("rz", None, 1),
             ("cx", 1, 2), ("rz", None, 2), ("cx", 2, 1), ("cx", 0, 1), ("cx", 1, 2)]
    count, path = bfs.bfs_optimum(3, inputs.coupling_edges("line", 3), gates)
    assert count == 5 and len(path) == 5
    assert not checks.off_map([("cx", c, t) for c, t in path], inputs.coupling_edges("line", 3))


def test_synth_outputs_pass(prog, optima):
    work = workloads.Synth(prog)
    for item in small_synth_items(1):
        result = work.run(work.request(item["n"], item["topology"], item["gates"]))
        problems, out, _ = work.check(item, result)
        assert problems == []


def test_peephole_outputs_pass(prog):
    work = workloads.Peephole(prog)
    for item in inputs.peephole_items(2, inputs.peephole_pool(8)):
        problems, out, budget = work.check(item, work.run((item["qasm"], work.coupling(item))))
        assert problems == [] and not budget


def small_qaoa_item(prog):
    graph = [(0, 5), (5, 10), (10, 15), (0, 15), (3, 12)]
    gates = inputs.fill_angles(random.Random(5), inputs.route_qaoa(graph, 2, 4, 4))
    return {"n": 16, "gates": gates}, workloads.program_circuit(prog, 16, gates)


def test_blockwise_outputs_pass(prog):
    work = workloads.BlockwiseQaoa(prog, jobs=1)
    item, circuit = small_qaoa_item(prog)
    problems, out, block_failed = work.check(item, work.run(circuit))
    assert problems == [] and not block_failed
    assert checks.cnot_count(out) <= checks.cnot_count(item["gates"])


def test_a_raising_block_worker_fails_the_item(prog, monkeypatch):
    # run_parallel swallows the worker's exception and hands back the input
    # block, whose output then passes every check: only its status tells
    def broken(block, **kwargs):
        raise prog.synthesizer.InternalConsistencyError("injected")

    monkeypatch.setattr(prog.blockwise, "resynth_block", broken)
    work = workloads.BlockwiseQaoa(prog, jobs=1)
    items = [small_qaoa_item(prog)]
    *_, results = workloads.run_round(work, items)
    assert results[0][1] is None
    assert workloads.judge(work, items, results)[:2] == (1, 0)


def _with_angle_changed(gates):
    i = next(i for i, g in enumerate(gates) if g[0] == "rz")
    return gates[:i] + [("rz", gates[i][1] + 0.25, gates[i][2])] + gates[i + 1:]


def _with_cnot_off_map(gates, n, edges):
    allowed = {e for a, b in edges for e in ((a, b), (b, a))}
    off = next((a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in allowed)
    i = next(i for i, g in enumerate(gates) if g[0] == "cx")
    return gates[:i] + [("cx", *off)] + gates[i + 1:]


def _synth_output(prog, item):
    work = workloads.Synth(prog)
    result = work.run(work.request(item["n"], item["topology"], item["gates"]))
    return workloads.as_tuples(prog, result.circuit.gates)


def test_checks_reject_a_changed_angle(prog, optima):
    item = next(it for it in small_synth_items(1) if optima[it["pool_index"]]["cnot_count"])
    edges = inputs.coupling_edges(item["topology"], item["n"])
    out = _with_angle_changed(_synth_output(prog, item))
    assert "output is not equivalent to the input" in \
        checks.check_synth(item, edges, out, optima[item["pool_index"]])
    assert "output is not equivalent to the input" in \
        checks.check_blockwise(item, edges, out, [])
    mixed = [("h", 0)] + item["gates"]
    text = inputs.to_qasm(item["n"], [("h", 0)] + _with_angle_changed(item["gates"]))
    assert "output is not equivalent to the input" in \
        checks.check_peephole({"n": item["n"], "gates": mixed}, edges, text, [])


def test_checks_reject_a_cnot_off_the_map(prog, optima):
    pool = inputs.synth_pool()
    item = next(it for it in inputs.synth_items(1, pool)
                if it["topology"] == "line" and it["n"] == 5
                and optima[it["pool_index"]]["cnot_count"])
    edges = inputs.coupling_edges("line", 5)
    out = _with_cnot_off_map(_synth_output(prog, item), 5, edges)
    assert any(p.startswith("CNOTs off the map") for p in
               checks.check_synth(item, edges, out, optima[item["pool_index"]]))
    assert any(p.startswith("CNOTs off the map") for p in
               checks.check_peephole(item, edges, inputs.to_qasm(5, out), []))


def test_checks_reject_one_cnot_above_the_optimum(optima):
    # a source circuit one CNOT above its optimum, and no deeper than the
    # BFS circuit, is equivalent and on the map: only the count check fails
    pool = inputs.synth_pool()
    item = next(it for it in inputs.synth_items(1, pool)
                if checks.cnot_count(it["gates"]) == optima[it["pool_index"]]["cnot_count"] + 1
                and checks.cnot_depth(it["n"], it["gates"]) <= optima[it["pool_index"]]["bfs_depth"])
    edges = inputs.coupling_edges(item["topology"], item["n"])
    problems = checks.check_synth(item, edges, item["gates"], optima[item["pool_index"]])
    assert len(problems) == 1 and "BFS optimum" in problems[0]


def test_checks_reject_a_deeper_block_and_a_rising_trace():
    old = [("cx", 0, 1), ("cx", 2, 3)]
    new = [("cx", 0, 1), ("cx", 1, 2)]
    item = {"n": 4, "gates": old}
    text = inputs.to_qasm(4, old)
    edges = inputs.coupling_edges("complete", 4)
    assert any("block went from depth 1 to 2" in p
               for p in checks.check_peephole(item, edges, text, [(4, old, new)]))
    assert any("trace CNOT counts increase" in p
               for p in checks.check_blockwise(item, edges, old, [3, 2]))


def test_tracer_counts_and_restores(prog):
    original = prog.synthesizer.solve_instance
    tracer = layertrace.Tracer()
    layertrace.install(tracer, prog)
    try:
        work = workloads.Synth(prog)
        item = small_synth_items(2)[0]
        work.run(work.request(item["n"], item["topology"], item["gates"]))
    finally:
        tracer.uninstall()
    assert prog.synthesizer.solve_instance is original
    metrics = layertrace.solver_metrics(tracer)
    assert metrics["synth.calls"][0] == 1 and metrics["sat.calls"][0] >= 1
    assert metrics["synth.distinct_keys"][0] == 1
    assert metrics["sat.seconds"][0] <= metrics["synth.seconds"][0]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "synth",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
