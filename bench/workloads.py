#!/usr/bin/env python3
"""The three workloads, and one round of one of them in a fresh interpreter.

    python3 bench/workloads.py --workload synth --seed 1 --jobs 2 --trace 0

Each call imports the program, makes the inputs, runs one untimed warm-up
item, then runs every item once (the round), checks the outputs with
``checks.py`` and prints one JSON object.  ``run.py`` starts one such
process per round, so nothing the program keeps in memory outlives a
round.  ``--setup-only`` stops after the warm-up; ``--trace 1`` installs
the layer wrappers of ``layertrace.py`` for the round and adds the
per-layer numbers.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import bfs
import checks
import inputs
import layertrace

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("synth", "peephole", "blockwise-qaoa")
# a block comes back with "original" only when its worker raised: run_parallel
# swallows the exception, and resynth_block never returns that status
FAILED_BLOCK = ("failed_budget", "original")


def import_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    names = ("ir", "qasm", "phasepoly", "encoder", "synthesizer", "peephole", "blockwise")
    prog = SimpleNamespace(**{n: importlib.import_module(f"paritysat.{n}") for n in names})
    if not Path(prog.ir.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"paritysat was imported from {prog.ir.__file__}, not {SRC}")
    return prog


def as_tuples(prog, gates) -> list[tuple]:
    out = []
    for g in gates:
        if isinstance(g, prog.ir.Cnot):
            out.append(("cx", g.control, g.target))
        elif isinstance(g, prog.ir.Rz):
            out.append(("rz", g.angle, g.qubit))
        else:
            out.append((g.name, *g.qubits))
    return out


def program_circuit(prog, n: int, gates: list[tuple]):
    ir = prog.ir
    return ir.Circuit(n, tuple(ir.Cnot(g[1], g[2]) if g[0] == "cx" else ir.Rz(g[1], g[2])
                               for g in gates))


class Synth:
    """One item: one count-mode, doubly optimal ``hopps`` request."""

    def __init__(self, prog) -> None:
        self.prog = prog
        self.pool = inputs.synth_pool()
        self.optima = bfs.load_optima()

    def request(self, n: int, topology: str, gates: list[tuple]):
        ir = self.prog.ir
        rows, terms = checks.parity_terms(n, gates)
        rep = ir.PhasePolyRep(ir.ParityMatrix.identity(n), ir.ParityMatrix(rows),
                              ir.ParityTable(n, tuple(t for t, _ in terms),
                                             tuple(a for _, a in terms)))
        cm = ir.CouplingMap(n, frozenset(inputs.coupling_edges(topology, n)))
        return self.prog.synthesizer.SynthesisRequest(
            rep, cm, mode=self.prog.encoder.Mode.CNOT, doubly=True)

    def items(self, seed: int) -> list[tuple[dict, object]]:
        return [(item, self.request(item["n"], item["topology"], item["gates"]))
                for item in inputs.synth_items(seed, self.pool)]

    def warmup(self):
        return self.request(3, "line", [("cx", 0, 1), ("rz", 0.3, 1), ("cx", 1, 2),
                                        ("rz", 0.7, 2), ("cx", 0, 1)])

    def run(self, req):
        return self.prog.synthesizer.hopps(req)

    def check(self, item: dict, result) -> tuple[list[str], list[tuple], bool]:
        out = as_tuples(self.prog, result.circuit.gates)
        edges = inputs.coupling_edges(item["topology"], item["n"])
        return checks.check_synth(item, edges, out, self.optima[item["pool_index"]]), out, False


class Peephole:
    """One item: QASM text -> ``parse_qasm`` -> depth-mode doubly peephole -> QASM."""

    def __init__(self, prog) -> None:
        self.prog = prog
        self.pool = inputs.peephole_pool()

    def coupling(self, item: dict):
        n = item["n"]
        return self.prog.ir.CouplingMap(n, frozenset(inputs.coupling_edges(item["topology"], n)))

    def items(self, seed: int) -> list[tuple[dict, object]]:
        return [(item, (item["qasm"], self.coupling(item)))
                for item in inputs.peephole_items(seed, self.pool)]

    def warmup(self):
        gates = [("h", 0), ("cx", 0, 1), ("rz", 0.4, 1), ("cx", 1, 2), ("h", 3),
                 ("cx", 2, 3), ("rz", 0.9, 3), ("cx", 0, 1)]
        return inputs.to_qasm(4, gates), self.coupling({"topology": "complete", "n": 4})

    def run(self, arg):
        text, cm = arg
        p = self.prog
        circuit = p.qasm.parse_qasm(text)
        out, report = p.peephole.peephole_with_report(circuit, cm, p.encoder.Mode.DEPTH,
                                                      doubly=True)
        return p.qasm.write_qasm(out), report

    def check(self, item: dict, output) -> tuple[list[str], list[tuple], bool]:
        text, report = output
        blocks = [(len(old.qubits), as_tuples(self.prog, old.gates),
                   as_tuples(self.prog, new.gates)) for old, new in report]
        edges = inputs.coupling_edges(item["topology"], item["n"])
        problems = checks.check_peephole(item, edges, text, blocks)
        block_failed = any(new.status in FAILED_BLOCK for _, new in report)
        return problems, checks.read_qasm(text)[1], block_failed


class BlockwiseQaoa:
    """One item: ``iterate_optimize`` of one routed QAOA circuit, default caps.

    ``iterate_optimize`` calls ``blockwise.run_parallel`` by module
    attribute, so a wrapper there sees the status of every block that comes
    back, including the blocks whose worker raised."""

    def __init__(self, prog, jobs: int) -> None:
        self.prog = prog
        self.jobs = jobs
        self.pool = inputs.qaoa_pool()
        self.edges = inputs.grid_edges(*inputs.QAOA_GRID)
        self.cm = prog.ir.CouplingMap(inputs.QAOA_NODES, frozenset(self.edges))

    def items(self, seed: int) -> list[tuple[dict, object]]:
        return [(item, program_circuit(self.prog, item["n"], item["gates"]))
                for item in inputs.qaoa_items(seed, self.pool)]

    def warmup(self):
        ring = [(i, i + 1) for i in range(7)]
        gates = inputs.route_qaoa(ring, 1, *inputs.QAOA_GRID)
        return program_circuit(self.prog, inputs.QAOA_NODES,
                               [("rz", 0.6, g[2]) if g[0] == "rz" else g for g in gates])

    def run(self, circuit):
        bw = self.prog.blockwise
        statuses: Counter = Counter()
        run_parallel = bw.run_parallel

        def watched(blocks, worker_fn, jobs):
            out = run_parallel(blocks, worker_fn, jobs)
            statuses.update(block.status for block in out)
            return out

        bw.run_parallel = watched
        try:
            circuit, trace = bw.iterate_optimize(circuit, self.cm,
                                                 bw.BlockwiseConfig(jobs=self.jobs))
        finally:
            bw.run_parallel = run_parallel
        return circuit, trace, statuses

    def check(self, item: dict, output) -> tuple[list[str], list[tuple], bool]:
        circuit, trace, statuses = output
        out = as_tuples(self.prog, circuit.gates)
        problems = checks.check_blockwise(item, self.edges, out,
                                          [r.cnot_count for r in trace])
        return problems, out, any(statuses[s] for s in FAILED_BLOCK)


def make_work(prog, workload: str, jobs: int):
    if workload == "blockwise-qaoa":
        return BlockwiseQaoa(prog, jobs)
    return {"synth": Synth, "peephole": Peephole}[workload](prog)


def cpu_seconds() -> float:
    """CPU time of this process and of every worker it has reaped."""
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + workers.ru_utime + workers.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def run_round(work, items) -> tuple[float, float, list[float], list]:
    """Every item once; returns the round's wall and CPU seconds, each
    item's wall seconds and each item's (output, error)."""
    item_s, results = [], []
    cpu = cpu_seconds()
    start = time.perf_counter()
    for _, arg in items:
        t = time.perf_counter()
        try:
            results.append((work.run(arg), None))
        except Exception as exc:  # an item that raises is counted as failed
            results.append((None, "".join(traceback.format_exception(exc))))
        item_s.append(time.perf_counter() - t)
    return time.perf_counter() - start, cpu_seconds() - cpu, item_s, results


def judge(work, items, results) -> tuple[int, int, tuple[int, int]]:
    """Check one round's outputs: failed items, wrong outputs, and the
    CNOT count and depth summed over the outputs."""
    failed = wrong = count = depth = 0
    for (item, _), (output, error) in zip(items, results):
        if error is not None:
            failed += 1
            print(f"item raised: {error}", file=sys.stderr)
            continue
        problems, out, block_failed = work.check(item, output)
        if problems:
            wrong += 1
            print(f"check failed: {problems}", file=sys.stderr)
        if block_failed:
            print("a block came back failed_budget or from a raising worker",
                  file=sys.stderr)
        if problems or block_failed:
            failed += 1
        count += checks.cnot_count(out)
        depth += checks.cnot_depth(item["n"], out)
    return failed, wrong, (count, depth)


def layer_metrics(workload: str, tracer: layertrace.Tracer, results, wall: float) -> dict:
    outputs = [out for out, err in results if err is None]
    metrics = layertrace.solver_metrics(tracer)
    metrics.update(layertrace.peephole_metrics(
        tracer, [out[1] for out in outputs] if workload == "peephole" else []))
    metrics.update(layertrace.blockwise_metrics(
        tracer, [out[1] for out in outputs] if workload == "blockwise-qaoa" else []))
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.overhead_share": (layertrace.overhead_s(tracer) / wall, "share"),
        "trace.attributed_share": (tracer.top_level_s / wall, "share"),
    })
    return metrics


def one_round(workload: str, seed: int, jobs: int, trace: bool, setup_only: bool) -> dict:
    start = time.perf_counter()
    prog = import_program()
    work = make_work(prog, workload, jobs)
    items = work.items(seed)
    work.run(work.warmup())
    setup_s = time.perf_counter() - start
    if setup_only:
        return {"setup_s": setup_s}
    tracer = layertrace.Tracer() if trace else None
    if tracer:
        layertrace.install(tracer, prog)
    try:
        wall, cpu, item_s, results = run_round(work, items)
    finally:
        if tracer:
            tracer.uninstall()
    failed, wrong, totals = judge(work, items, results)
    out = {"setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "item_s": item_s,
           "attempted": len(items), "failed": failed, "wrong": wrong, "totals": totals,
           "peak_rss_mb": peak_rss_mb()}
    if tracer:
        out["layers"] = layer_metrics(workload, tracer, results, wall)
        out["run_parallel_s"] = tracer.seconds["blockwise.run_parallel"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True,
                        help="worker processes of blockwise-qaoa")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    print(json.dumps(one_round(args.workload, args.seed, args.jobs, bool(args.trace),
                               args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
