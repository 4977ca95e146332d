import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paritysat
from paritysat.blockwise import IterationRecord
from paritysat.cli import main
from paritysat.ir import (
    Circuit,
    Cnot,
    CouplingMap,
    Opaque,
    ParityMatrix,
    ParityTable,
    PhasePolyRep,
    Rz,
)
from paritysat.phasepoly import equivalent, rep_to_json
from paritysat.qasm import parse_qasm, write_qasm

REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"

TRIANGLE_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
cx q[0],q[2];
rz(0.1) q[2];
cx q[0],q[1];
rz(0.2) q[1];
cx q[1],q[2];
rz(0.3) q[2];
cx q[2],q[1];
cx q[0],q[1];
cx q[1],q[2];
"""


@pytest.fixture
def triangle_files(tmp_path):
    qasm = tmp_path / "tri.qasm"
    qasm.write_text(TRIANGLE_QASM)
    rep = PhasePolyRep(ParityMatrix.identity(3), ParityMatrix((1, 4, 2)),
                       ParityTable(3, (5, 3, 6), (0.1, 0.2, 0.3)))
    rep_file = tmp_path / "tri.json"
    rep_file.write_text(json.dumps(rep_to_json(rep)))
    cm_file = tmp_path / "line3.json"
    cm_file.write_text(json.dumps(CouplingMap.line(3).to_json()))
    return qasm, rep_file, cm_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_triangle(triangle_files, capsys):
    qasm, _, _ = triangle_files
    code, out, _ = run_cli(capsys, "extract", str(qasm))
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert sorted(obj["terms"]) == sorted([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    assert obj["final"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_extract_empty_register(tmp_path, capsys):
    qasm = tmp_path / "empty.qasm"
    qasm.write_text("qreg q[2];\n")
    code, out, _ = run_cli(capsys, "extract", str(qasm))
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [] and obj["final"] == [[1, 0], [0, 1]]


def test_extract_unsupported_gate(tmp_path, capsys):
    qasm = tmp_path / "h.qasm"
    qasm.write_text("qreg q[1];\nh q[0];\n")
    code, _, err = run_cli(capsys, "extract", str(qasm))
    assert code == 2
    assert "unsupported gate" in err


def test_synth_matches_oracle_pins(triangle_files, tmp_path, capsys):
    _, rep_file, cm_file = triangle_files
    out_file = tmp_path / "out.qasm"
    code, out, _ = run_cli(capsys, "synth", str(rep_file),
                           "--coupling-map", str(cm_file), "--doubly",
                           "-o", str(out_file))
    assert code == 0
    metrics = json.loads(out)
    golden = json.loads((Path(__file__).parent / "golden" / "triangle_line3.json").read_text())
    assert metrics["cnot_count"] == golden["min_count"]
    assert metrics["cnot_depth"] == golden["min_depth_among_count_optimal"]
    assert metrics["optimal"] is True
    assert parse_qasm(out_file.read_text()).num_qubits == 3


def test_synth_empty_rep(tmp_path, capsys):
    rep = PhasePolyRep(ParityMatrix.identity(2), ParityMatrix.identity(2),
                       ParityTable(2, (), ()))
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(rep_to_json(rep)))
    cm_file = tmp_path / "cm.json"
    cm_file.write_text(json.dumps(CouplingMap.line(2).to_json()))
    out_file = tmp_path / "out.qasm"
    code, out, _ = run_cli(capsys, "synth", str(rep_file), "--coupling-map",
                           str(cm_file), "-o", str(out_file))
    assert code == 0
    metrics = json.loads(out)
    assert metrics["cnot_count"] == 0 and metrics["cnot_depth"] == 0


def test_synth_infeasible_exit_code(triangle_files, tmp_path, capsys):
    _, rep_file, cm_file = triangle_files
    code, _, err = run_cli(capsys, "synth", str(rep_file), "--coupling-map",
                           str(cm_file), "--kmax", "2",
                           "-o", str(tmp_path / "x.qasm"))
    assert code == 3


def test_synth_timeout_exit_code(triangle_files, tmp_path, capsys):
    _, rep_file, cm_file = triangle_files
    code, _, _ = run_cli(capsys, "synth", str(rep_file), "--coupling-map",
                         str(cm_file), "--timeout", "0.0",
                         "-o", str(tmp_path / "x.qasm"))
    assert code == 4


@pytest.mark.parametrize("command, flag, message", [
    ("synth", "--timeout=nan", "timeout must be a nonnegative"),
    ("synth", "--timeout=-1", "timeout must be a nonnegative"),
    ("synth", "--kmax=-2", "k_max must be nonnegative"),
    ("peephole", "--timeout=nan", "timeout must be a nonnegative"),
    ("peephole", "--timeout=-1", "timeout must be a nonnegative"),
    ("blockwise", "--timeout=nan", "timeout must be a nonnegative"),
])
def test_bad_timeout_or_kmax_exits_two(command, flag, message, triangle_files, tmp_path,
                                       capsys):
    # a NaN deadline never passes, and a negative budget is bad input, not a
    # timeout (exit 4) or an infeasible instance (exit 3)
    qasm, rep_file, cm_file = triangle_files
    source = rep_file if command == "synth" else qasm
    code, out, err = run_cli(capsys, command, str(source), "--coupling-map", str(cm_file),
                             flag, "-o", str(tmp_path / "out.qasm"))
    assert code == 2 and out == ""
    assert message in err
    assert not (tmp_path / "out.qasm").exists()


def test_synth_dimacs_differential(triangle_files, tmp_path, capsys):
    _, rep_file, cm_file = triangle_files
    cnf = tmp_path / "dump.cnf"
    code, _, _ = run_cli(capsys, "synth", str(rep_file), "--coupling-map",
                         str(cm_file), "--dimacs-out", str(cnf),
                         "-o", str(tmp_path / "out.qasm"))
    assert code == 0
    from paritysat.sat.core import parse_dimacs
    from paritysat.sat.solver import Solver

    inst = parse_dimacs(cnf.read_text())
    internal = Solver(inst).solve() is not None
    proc = subprocess.run([sys.executable, str(REF_SOLVER), str(cnf)],
                          capture_output=True, text=True, timeout=300)
    external = proc.stdout.splitlines()[0] == "s SATISFIABLE"
    assert internal == external


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["synth"])  # missing required arguments
    assert err.value.code == 1


def test_bad_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cm = tmp_path / "cm.json"
    cm.write_text(json.dumps(CouplingMap.line(2).to_json()))
    code, _, _ = run_cli(capsys, "synth", str(bad), "--coupling-map", str(cm),
                         "-o", str(tmp_path / "o.qasm"))
    assert code == 2


@pytest.mark.parametrize("angle", ["1e999", "1e999-1e999"])
def test_peephole_refuses_a_non_finite_angle(angle, triangle_files, tmp_path, capsys):
    _, _, cm_file = triangle_files
    src = tmp_path / "in.qasm"
    src.write_text(TRIANGLE_QASM.replace("rz(0.2)", f"rz({angle})"))
    out_file = tmp_path / "out.qasm"
    code, _, err = run_cli(capsys, "peephole", str(src), "--coupling-map", str(cm_file),
                           "-o", str(out_file))
    assert code == 2 and "not finite" in err
    assert not out_file.exists()


def test_synth_refuses_a_non_finite_angle(triangle_files, tmp_path, capsys):
    _, rep_file, cm_file = triangle_files
    # the json module reads and writes NaN, as Python does
    rep_file.write_text(rep_file.read_text().replace("0.2", "NaN"))
    out_file = tmp_path / "out.qasm"
    code, _, err = run_cli(capsys, "synth", str(rep_file), "--coupling-map", str(cm_file),
                           "-o", str(out_file))
    assert code == 2 and "not finite" in err
    assert not out_file.exists()


@pytest.mark.parametrize("num_qubits", [2.5, -1, "3", True])
def test_a_coupling_map_with_a_bad_qubit_count_exits_two(num_qubits, triangle_files,
                                                         tmp_path, capsys):
    _, rep_file, cm_file = triangle_files
    cm_file.write_text(json.dumps({"num_qubits": num_qubits, "edges": []}))
    code, _, err = run_cli(capsys, "synth", str(rep_file), "--coupling-map", str(cm_file),
                           "-o", str(tmp_path / "out.qasm"))
    assert code == 2 and "num_qubits must be a nonnegative integer" in err


@pytest.mark.parametrize("target, malform, message", [
    ("cm", lambda cm: {**cm, "edges": [[0.5, 2]]},
     "edges[0] endpoint must be a nonnegative integer, not 0.5"),
    ("cm", lambda cm: {**cm, "edges": [["1", 2]]},
     "edges[0] endpoint must be a nonnegative integer, not '1'"),
    ("cm", lambda cm: {**cm, "edges": [[0, 1, 2]]}, "edges[0] must be a list of 2 entries"),
    ("cm", lambda cm: {**cm, "edges": 5}, "edges must be a list, not 5"),
    ("cm", lambda cm: {"num_qubits": 3}, "expected a JSON object with field 'edges'"),
    ("cm", lambda cm: [cm], "expected a JSON object with field 'num_qubits'"),
    ("rep", lambda rep: [rep], "expected a JSON object with field 'n'"),
    ("rep", lambda rep: {k: v for k, v in rep.items() if k != "angles"},
     "expected a JSON object with field 'angles'"),
    ("rep", lambda rep: {**rep, "terms": [[1, 0, 1, 0], *rep["terms"][1:]]},
     "terms[0] must be a list of 3 entries"),
    ("rep", lambda rep: {**rep, "initial": [[1, 0], [0, 1], [0, 0, 1]]},
     "initial[0] must be a list of 3 entries"),
    ("rep", lambda rep: {**rep, "final": rep["final"][:2]}, "final must be a list of 3 entries"),
    ("rep", lambda rep: {**rep, "terms": [[True, False, True], *rep["terms"][1:]]},
     "terms[0] entries must be the integer 0 or 1, not [True, False, True]"),
    ("rep", lambda rep: {**rep, "terms": [[1.0, 0, 1], *rep["terms"][1:]]},
     "terms[0] entries must be the integer 0 or 1, not [1.0, 0, 1]"),
])
def test_a_malformed_input_file_exits_two_naming_the_field(target, malform, message,
                                                          triangle_files, tmp_path, capsys):
    _, rep_file, cm_file = triangle_files
    bad = rep_file if target == "rep" else cm_file
    bad.write_text(json.dumps(malform(json.loads(bad.read_text()))))
    out_file = tmp_path / "out.qasm"
    code, _, err = run_cli(capsys, "synth", str(rep_file), "--coupling-map", str(cm_file),
                           "-o", str(out_file))
    assert code == 2 and message in err
    assert not out_file.exists()


@pytest.mark.parametrize("paths, message", [
    (lambda qasm, tmp: [str(tmp / "absent.qasm")], "No such file"),
    (lambda qasm, tmp: [str(tmp)], "Is a directory"),
    (lambda qasm, tmp: [str(qasm), "-o", str(tmp)], "Is a directory"),
], ids=["missing-input", "directory-input", "directory-output"])
def test_a_path_that_cannot_be_read_or_written_exits_two(paths, message, triangle_files,
                                                         tmp_path, capsys):
    # a directory, not permission bits: the tests may run as root
    qasm, _, _ = triangle_files
    code, out, err = run_cli(capsys, "metrics", *paths(qasm, tmp_path))
    assert code == 2 and out == ""
    assert message in err


def test_a_deeply_nested_angle_exits_two(tmp_path, capsys):
    src = tmp_path / "deep.qasm"
    src.write_text("qreg q[1];\nrz(" + "(" * 1500 + "1" + ")" * 1500 + ") q[0];\n")
    code, out, err = run_cli(capsys, "metrics", str(src))
    assert code == 2 and out == ""
    assert "nested deeper than 100" in err and "(line 2)" in err


def test_verify_equivalent_and_not(triangle_files, tmp_path, capsys):
    qasm, _, _ = triangle_files
    code, out, _ = run_cli(capsys, "verify", str(qasm), str(qasm))
    assert code == 0 and json.loads(out)["equivalent"] is True
    other = tmp_path / "other.qasm"
    other.write_text("qreg q[3];\ncx q[0],q[1];\n")
    code, out, _ = run_cli(capsys, "verify", str(qasm), str(other))
    assert code == 3 and json.loads(out)["equivalent"] is False


def test_metrics_simple(tmp_path, capsys):
    qasm = tmp_path / "c.qasm"
    qasm.write_text(write_qasm(Circuit(3, (Cnot(0, 1), Cnot(1, 2)))))
    code, out, _ = run_cli(capsys, "metrics", str(qasm))
    assert code == 0
    assert json.loads(out) == {"cnot_count": 2, "cnot_depth": 2}


def test_metrics_improvement_ratio(tmp_path, capsys):
    # 8 CNOTs at depth 7 versus 6 CNOTs at depth 5
    base = Circuit(4, tuple([Cnot(0, 1)] * 7 + [Cnot(2, 3)]))
    ours = Circuit(4, tuple([Cnot(0, 1)] * 5 + [Cnot(2, 3)]))
    base_f = tmp_path / "base.qasm"
    ours_f = tmp_path / "ours.qasm"
    base_f.write_text(write_qasm(base))
    ours_f.write_text(write_qasm(ours))
    code, out, _ = run_cli(capsys, "metrics", str(ours_f), "--baseline", str(base_f))
    assert code == 0
    report = json.loads(out)
    assert math.isclose(report["cnot_count_improvement"], 0.25, abs_tol=1e-9)
    assert math.isclose(report["cnot_depth_improvement"], 2.0 / 7.0, abs_tol=1e-9)


def test_peephole_command(triangle_files, tmp_path, capsys):
    _, _, cm_file = triangle_files
    legal = Circuit(3, (Cnot(0, 1), Cnot(0, 1), Rz(0.5, 1)))
    src = tmp_path / "in.qasm"
    src.write_text(write_qasm(legal))
    out_file = tmp_path / "out.qasm"
    code, out, _ = run_cli(capsys, "peephole", str(src), "--coupling-map",
                           str(cm_file), "--doubly", "-o", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["cnot_count"] == 0 and report["baseline_cnot_count"] == 2
    assert equivalent(parse_qasm(out_file.read_text()), legal)


def test_peephole_report_counts_each_block_status(triangle_files, tmp_path, capsys):
    _, _, cm_file = triangle_files
    # a redundant pair, then a block already at its floors
    circuit = Circuit(3, (Cnot(0, 1), Cnot(0, 1), Rz(0.5, 1), Opaque("h", (1,)),
                          Cnot(1, 2), Rz(0.2, 2)))
    src = tmp_path / "in.qasm"
    src.write_text(write_qasm(circuit))
    code, out, _ = run_cli(capsys, "peephole", str(src), "--coupling-map",
                           str(cm_file), "-o", str(tmp_path / "out.qasm"))
    assert code == 0
    report = json.loads(out)
    counts = {key: value for key, value in report.items()
              if key.startswith("blocks_")}
    assert counts == {"blocks_resynthesized": 1, "blocks_kept_original": 1,
                      "blocks_failed_budget": 0}
    assert sum(counts.values()) == report["blocks"] == 2


def test_blockwise_command_with_trace(triangle_files, tmp_path, capsys):
    _, _, cm_file = triangle_files
    circuit = Circuit(3, (Cnot(0, 1), Cnot(0, 1), Cnot(1, 2), Rz(0.3, 2)))
    src = tmp_path / "in.qasm"
    src.write_text(write_qasm(circuit))
    out_file = tmp_path / "out.qasm"
    trace_file = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "blockwise", str(src), "--coupling-map",
                           str(cm_file), "--block-qubits", "3", "--iters-full", "3",
                           "--iters-sample", "1", "--seed", "3",
                           "--trace-out", str(trace_file), "-o", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["cnot_count"] <= report["baseline_cnot_count"]
    records = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert records and all("cnot_count" in r for r in records)
    emitted = parse_qasm(out_file.read_text())
    assert equivalent(emitted, circuit)


@pytest.mark.parametrize("iters", [3, 0])
def test_blockwise_trace_as_csv(iters, triangle_files, tmp_path, capsys):
    _, _, cm_file = triangle_files
    src = tmp_path / "in.qasm"
    src.write_text(write_qasm(Circuit(3, (Cnot(0, 1), Cnot(0, 1), Cnot(1, 2), Rz(0.3, 2)))))
    trace_file = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "blockwise", str(src), "--coupling-map",
                           str(cm_file), "--iters-full", str(iters),
                           "--iters-sample", str(iters), "--trace-out", str(trace_file),
                           "-o", str(tmp_path / "out.qasm"))
    assert code == 0
    with open(trace_file, newline="") as fh:
        rows = list(csv.reader(fh))
    # the header holds every field, also when no iteration ran
    assert rows[0] == [f.name for f in dataclasses.fields(IterationRecord)]
    assert len(rows) - 1 == json.loads(out)["iterations"]
    assert (len(rows) > 1) == (iters > 0)


@pytest.mark.parametrize("command", ["peephole", "blockwise"])
def test_off_map_circuit_exits_two(command, triangle_files, tmp_path, capsys):
    _, _, cm_file = triangle_files
    src = tmp_path / "in.qasm"
    src.write_text(write_qasm(Circuit(3, (Cnot(0, 2),))))
    code, out, err = run_cli(capsys, command, str(src), "--coupling-map", str(cm_file),
                             "-o", str(tmp_path / "out.qasm"))
    assert code == 2 and out == ""
    assert "violates the coupling map" in err


def test_blockwise_with_no_jobs_exits_two(triangle_files, tmp_path, capsys):
    qasm, _, cm_file = triangle_files
    code, out, err = run_cli(capsys, "blockwise", str(qasm), "--coupling-map", str(cm_file),
                             "-o", str(tmp_path / "out.qasm"), "--jobs", "0")
    assert code == 2 and out == ""
    assert "job count must be at least 1" in err


def test_oracle_command(triangle_files, capsys):
    _, rep_file, cm_file = triangle_files
    code, out, _ = run_cli(capsys, "oracle", str(rep_file), "--coupling-map",
                           str(cm_file))
    assert code == 0
    golden = json.loads((Path(__file__).parent / "golden" / "triangle_line3.json").read_text())
    assert json.loads(out) == golden


def test_oracle_on_a_disconnected_map_exits_two(triangle_files, tmp_path, capsys):
    _, rep_file, _ = triangle_files
    cm_file = tmp_path / "split.json"
    cm_file.write_text(json.dumps(CouplingMap(3, frozenset({(0, 1)})).to_json()))
    code, out, err = run_cli(capsys, "oracle", str(rep_file), "--coupling-map", str(cm_file))
    assert code == 2 and out == ""
    assert "must be connected" in err


def test_oracle_node_cap_exits_four(triangle_files, capsys, monkeypatch):
    _, rep_file, cm_file = triangle_files
    real = paritysat.cli.oracle_min_count
    monkeypatch.setattr(paritysat.cli, "oracle_min_count",
                        lambda rep, cm: real(rep, cm, node_cap=10))
    code, out, err = run_cli(capsys, "oracle", str(rep_file), "--coupling-map",
                             str(cm_file))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "more than 10 states" in err


def test_console_script_entry_point(triangle_files):
    qasm, _, _ = triangle_files
    # the child imports the same paritysat as this test, installed or not
    src = str(Path(paritysat.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "paritysat.cli", "extract", str(qasm)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3
