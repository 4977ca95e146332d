import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritysat.ir import Circuit, Cnot, Opaque, Rz
from paritysat.qasm import MAX_PAREN_DEPTH, QasmError, parse_param, parse_qasm, write_qasm

from testkit import random_mixed_circuit


HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


def test_parse_basic_gates():
    c = parse_qasm(HEADER + "cx q[0],q[1];\nrz(0.5) q[2];\n")
    assert c.num_qubits == 3
    assert c.gates == (Cnot(0, 1), Rz(0.5, 2))


def test_parse_pi_expressions():
    c = parse_qasm(HEADER + "rz(pi/4) q[0]; rz(-pi) q[1]; rz(2*pi/8) q[2]; rz(0.25e1) q[0];")
    angles = [g.angle for g in c.gates]
    assert math.isclose(angles[0], math.pi / 4)
    assert math.isclose(angles[1], -math.pi)
    assert math.isclose(angles[2], math.pi / 4)
    assert math.isclose(angles[3], 2.5)


def test_parse_symbolic_label():
    c = parse_qasm(HEADER + "rz(gamma0) q[1];")
    assert c.gates == (Rz("gamma0", 1),)


@pytest.mark.parametrize("text", ["1e999", "-1e999", "1e999-1e999", "1e200*1e200"])
def test_a_non_finite_angle_is_refused(text):
    with pytest.raises(QasmError, match="not finite"):
        parse_param(text)
    with pytest.raises(QasmError, match=r"not finite .*\(line 4\)"):
        parse_qasm(HEADER + f"rz({text}) q[0];")


def test_a_long_run_of_signs_is_read_without_recursion():
    assert parse_param("-" * 5000 + "1") == 1.0
    assert parse_param("-" * 5001 + "1") == -1.0
    assert parse_param("+-+-" * 1000 + "-pi") == -math.pi


def test_parentheses_nest_only_to_a_fixed_depth():
    assert parse_param("(" * MAX_PAREN_DEPTH + "2" + ")" * MAX_PAREN_DEPTH) == 2.0
    deep = "(" * 1500 + "1" + ")" * 1500
    with pytest.raises(QasmError, match=f"nested deeper than {MAX_PAREN_DEPTH}"):
        parse_param(deep)
    with pytest.raises(QasmError, match=r"nested deeper than .*\(line 4\)"):
        parse_qasm(HEADER + f"rz({deep}) q[0];")


def test_a_parameter_list_runs_to_its_matching_parenthesis():
    assert parse_qasm("qreg q[1];\nrz(-(1)) q[0];\n").gates == (Rz(-1.0, 0),)
    (u3,) = parse_qasm("qreg q[1];\nu3((pi)/2,0,(1)) q[0];\n").gates
    assert u3 == Opaque("u3", (0,), (math.pi / 2, 0.0, 1.0))
    with pytest.raises(QasmError, match=r"\(line 2\)"):
        parse_qasm("qreg q[1];\nrz((1) q[0];\n")


def test_parse_param_rejects_garbage():
    with pytest.raises(QasmError):
        parse_param("2*unknown")
    with pytest.raises(QasmError):
        parse_param("1+")


def test_unknown_gate_becomes_opaque():
    c = parse_qasm(HEADER + "h q[0];\nu3(0.1,0.2,0.3) q[1];\n")
    assert c.gates[0] == Opaque("h", (0,))
    assert c.gates[1].name == "u3" and c.gates[1].params == (0.1, 0.2, 0.3)


def test_barrier_forms():
    c = parse_qasm(HEADER + "barrier q;\nbarrier q[0],q[2];\nbarrier;\n")
    assert c.gates[0] == Opaque("barrier", (0, 1, 2))
    assert c.gates[1] == Opaque("barrier", (0, 2))
    assert c.gates[2] == Opaque("barrier", (0, 1, 2))


def test_measure_is_opaque():
    c = parse_qasm(HEADER + "creg c[3];\nmeasure q[1] -> c[1];\n")
    assert c.gates == (Opaque("measure", (1,)),)


def test_errors_carry_line_numbers():
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "cx q[0],q[9];\n")
    assert err.value.line == 4
    with pytest.raises(QasmError):
        parse_qasm("cx q[0],q[1];")  # no qreg
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "cx q[0],q[0];")
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "if (c==1) cx q[0],q[1];")


def test_multiple_registers_flatten():
    c = parse_qasm("qreg a[2];\nqreg b[2];\ncx a[1],b[0];\n")
    assert c.num_qubits == 4
    assert c.gates == (Cnot(1, 2),)


def test_comments_and_multiline_statements():
    c = parse_qasm(HEADER + "cx // trailing\n q[0],\n q[1];\n")
    assert c.gates == (Cnot(0, 1),)


def test_line_break_separates_tokens():
    c = parse_qasm("qreg\nq[2];\ncx\nq[0],q[1];\nrz(0.5)\nq[1];\n")
    assert c.num_qubits == 2
    assert c.gates == (Cnot(0, 1), Rz(0.5, 1))
    # an error names the statement's first line
    with pytest.raises(QasmError) as err:
        parse_qasm(HEADER + "cx\nq[0],\nq[9];\n")
    assert err.value.line == 4


@given(st.integers(0, 2 ** 31 - 1))
def test_write_parse_round_trip(seed):
    rng = random.Random(seed)
    c = random_mixed_circuit(rng, rng.randint(1, 5), rng.randint(0, 15))
    assert parse_qasm(write_qasm(c)).gates == c.gates


def test_round_trip_symbolic_and_floats():
    c = Circuit(2, (Rz("theta", 0), Rz(1e-17, 1), Cnot(1, 0),
                    Opaque("barrier", (0, 1)), Opaque("sx", (0,))))
    again = parse_qasm(write_qasm(c))
    assert again.gates == c.gates
