"""Command-line front end.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit
codes: 0 success, 1 usage, 2 parse/validation, 3 infeasible, 4 timeout or
the oracle's node cap.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

from .blockwise import BlockwiseConfig, IterationRecord, iterate_optimize
from .encoder import Mode
from .ir import Circuit, CouplingMap, cnot_count, cnot_depth
from .oracle import OracleCapError, oracle_min_count, oracle_min_depth
from .peephole import peephole_with_report
from .phasepoly import (
    UnsupportedGateError,
    equivalent,
    extract_rep,
    rep_from_json,
    rep_to_json,
)
from .qasm import QasmError, parse_qasm, write_qasm
from .synthesizer import (
    NoSolutionWithinKmax,
    SynthesisRequest,
    SynthesisTimeout,
    hopps,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_TIMEOUT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(obj: dict, path: str | None = None) -> None:
    text = json.dumps(obj, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _load_circuit(path: str) -> Circuit:
    return parse_qasm(Path(path).read_text())


def _load_coupling(path: str) -> CouplingMap:
    return CouplingMap.from_json(json.loads(Path(path).read_text()))


def _load_rep(path: str):
    return rep_from_json(json.loads(Path(path).read_text()))


def build_parser() -> _Parser:
    parser = _Parser(prog="paritysat",
                     description="optimal synthesis and optimization of "
                                 "{CNOT, Rz} circuits under hardware topology")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_synth_flags(p):
        p.add_argument("--coupling-map", required=True, metavar="FILE")
        p.add_argument("--mode", choices=["cnot", "depth"], default="cnot")
        p.add_argument("--doubly", action="store_true")
        p.add_argument("--timeout", type=float, default=600.0, metavar="SECS")

    p = sub.add_parser("extract", help="circuit QASM -> phase-polynomial JSON")
    p.add_argument("input", metavar="CIRCUIT.qasm")
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("synth", help="phase-polynomial JSON -> optimal circuit")
    p.add_argument("input", metavar="REP.json")
    common_synth_flags(p)
    p.add_argument("--kmax", type=int, default=None, metavar="N")
    p.add_argument("--dimacs-out", metavar="FILE")
    p.add_argument("-o", "--output", required=True, metavar="CIRCUIT.qasm")

    p = sub.add_parser("peephole", help="resynthesize {CNOT, Rz} blocks in place")
    p.add_argument("input", metavar="CIRCUIT.qasm")
    common_synth_flags(p)
    p.add_argument("-o", "--output", required=True, metavar="CIRCUIT.qasm")

    p = sub.add_parser("blockwise", help="iterative capped-block optimization")
    p.add_argument("input", metavar="CIRCUIT.qasm")
    common_synth_flags(p)
    p.add_argument("--block-qubits", type=int, default=3, metavar="N")
    p.add_argument("--block-depth", type=int, default=20, metavar="N")
    p.add_argument("--iters-full", type=int, default=5, metavar="N")
    p.add_argument("--iters-sample", type=int, default=5, metavar="N")
    p.add_argument("--sample-fraction", type=float, default=0.5, metavar="F")
    p.add_argument("--jobs", type=int, default=1, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument("--trace-out", metavar="FILE")
    p.add_argument("-o", "--output", required=True, metavar="CIRCUIT.qasm")

    p = sub.add_parser("oracle", help="exhaustive ground-truth optima (small n)")
    p.add_argument("input", metavar="REP.json")
    p.add_argument("--coupling-map", required=True, metavar="FILE")
    p.add_argument("--mode", choices=["cnot", "depth", "both"], default="both")

    p = sub.add_parser("verify", help="phase-polynomial equivalence of two circuits")
    p.add_argument("left", metavar="A.qasm")
    p.add_argument("right", metavar="B.qasm")

    p = sub.add_parser("metrics", help="CNOT count/depth, plus improvement vs baseline")
    p.add_argument("input", metavar="CIRCUIT.qasm")
    p.add_argument("--baseline", metavar="CIRCUIT.qasm")
    p.add_argument("-o", "--output", metavar="FILE")
    return parser


def _cmd_extract(args) -> int:
    circuit = _load_circuit(args.input)
    rep = extract_rep(circuit)
    _emit(rep_to_json(rep), args.output)
    _say(f"extracted: n={rep.n}, {len(rep.table)} rotation terms")
    return EXIT_OK


def _cmd_synth(args) -> int:
    rep = _load_rep(args.input)
    cm = _load_coupling(args.coupling_map)
    request = SynthesisRequest(rep, cm, mode=Mode(args.mode), doubly=args.doubly,
                               k_max=args.kmax, timeout_s=args.timeout,
                               dimacs_path=args.dimacs_out)
    t0 = time.monotonic()
    result = hopps(request)
    elapsed = time.monotonic() - t0
    Path(args.output).write_text(write_qasm(result.circuit))
    _emit({
        "cnot_count": result.cnot_count,
        "cnot_depth": result.cnot_depth,
        "solve_time_s": elapsed,
        "optimal": result.optimal,
    })
    _say(f"synthesized {result.cnot_count} CNOTs at depth {result.cnot_depth} "
         f"in {elapsed:.2f} s -> {args.output}")
    return EXIT_OK


def _metrics_report(before: Circuit, after: Circuit) -> dict:
    report = {
        "cnot_count": cnot_count(after),
        "cnot_depth": cnot_depth(after),
        "baseline_cnot_count": cnot_count(before),
        "baseline_cnot_depth": cnot_depth(before),
    }
    for key in ("cnot_count", "cnot_depth"):
        base = report[f"baseline_{key}"]
        report[f"{key}_improvement"] = (base - report[key]) / base if base else 0.0
    return report


def _cmd_peephole(args) -> int:
    circuit = _load_circuit(args.input)
    cm = _load_coupling(args.coupling_map)
    out, pairs = peephole_with_report(circuit, cm, mode=Mode(args.mode),
                                      doubly=args.doubly, timeout_s=args.timeout)
    Path(args.output).write_text(write_qasm(out))
    report = _metrics_report(circuit, out)
    report["blocks"] = len(pairs)
    statuses = Counter(new.status for _, new in pairs)
    for status in ("resynthesized", "kept_original", "failed_budget"):
        report[f"blocks_{status}"] = statuses[status]
    _emit(report)
    _say(f"peephole: {report['baseline_cnot_count']} -> {report['cnot_count']} CNOTs, "
         f"depth {report['baseline_cnot_depth']} -> {report['cnot_depth']}")
    return EXIT_OK


def _write_trace(path: str, trace) -> None:
    records = [asdict(r) for r in trace]
    if path.endswith(".csv"):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(IterationRecord)])
            writer.writeheader()
            writer.writerows(records)
    else:
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")


def _cmd_blockwise(args) -> int:
    circuit = _load_circuit(args.input)
    cm = _load_coupling(args.coupling_map)
    cfg = BlockwiseConfig(
        max_block_qubits=args.block_qubits, max_block_depth=args.block_depth,
        iters_full=args.iters_full, iters_sample=args.iters_sample,
        sample_fraction=args.sample_fraction, seed=args.seed, jobs=args.jobs,
        per_block_timeout=args.timeout, mode=Mode(args.mode), doubly=args.doubly)
    out, trace = iterate_optimize(circuit, cm, cfg)
    Path(args.output).write_text(write_qasm(out))
    if args.trace_out:
        _write_trace(args.trace_out, trace)
    report = _metrics_report(circuit, out)
    report["iterations"] = len(trace)
    _emit(report)
    _say(f"blockwise: {report['baseline_cnot_count']} -> {report['cnot_count']} CNOTs "
         f"in {len(trace)} iterations")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    rep = _load_rep(args.input)
    cm = _load_coupling(args.coupling_map)
    report: dict = {}
    if args.mode in ("cnot", "both"):
        count, circuits = oracle_min_count(rep, cm)
        report["min_count"] = count
        report["count_optimal_solutions"] = len(circuits)
        report["min_depth_among_count_optimal"] = min(cnot_depth(c) for c in circuits)
    if args.mode in ("depth", "both"):
        depth, circuits = oracle_min_depth(rep, cm)
        report["min_depth"] = depth
        report["depth_optimal_solutions"] = len(circuits)
        report["min_count_among_depth_optimal"] = min(cnot_count(c) for c in circuits)
    _emit(report)
    return EXIT_OK


def _cmd_verify(args) -> int:
    left = _load_circuit(args.left)
    right = _load_circuit(args.right)
    same = equivalent(left, right)
    _emit({"equivalent": same})
    _say("equivalent" if same else "NOT equivalent")
    return EXIT_OK if same else EXIT_INFEASIBLE


def _cmd_metrics(args) -> int:
    circuit = _load_circuit(args.input)
    if args.baseline:
        report = _metrics_report(_load_circuit(args.baseline), circuit)
    else:
        report = {"cnot_count": cnot_count(circuit), "cnot_depth": cnot_depth(circuit)}
    _emit(report, args.output)
    return EXIT_OK


_HANDLERS = {
    "extract": _cmd_extract,
    "synth": _cmd_synth,
    "peephole": _cmd_peephole,
    "blockwise": _cmd_blockwise,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (QasmError, UnsupportedGateError, ValueError, json.JSONDecodeError,
            OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_PARSE
    except NoSolutionWithinKmax as exc:
        _say(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    except SynthesisTimeout as exc:
        _say(f"timeout: {exc}")
        return EXIT_TIMEOUT
    except OracleCapError as exc:
        _say(f"node cap: {exc}")
        return EXIT_TIMEOUT


if __name__ == "__main__":
    sys.exit(main())
