"""OpenQASM 2.0 subset: qreg, cx, rz, barrier; unknown gates become opaque.

The angle grammar accepts numeric expressions over +, -, *, /, parentheses
and ``pi``.  A bare identifier is kept as a symbolic parameter label so a
synthesized circuit can be re-bound to new angles without resynthesis.
"""
from __future__ import annotations

import math
import re

from .ir import Angle, Circuit, Cnot, Gate, Opaque, Rz


class QasmError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
                       r"|\d+(?:[eE][-+]?\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/]))")


def _tokenize_expr(text: str, line: int) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise QasmError(f"bad token in expression {text!r}", line)
        if m.group(1):
            tokens.append(("num", m.group(1)))
        elif m.group(2):
            tokens.append(("id", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


# the deepest nesting of parentheses an angle expression may have: each
# level costs the recursive-descent parser four stack frames
MAX_PAREN_DEPTH = 100


class _ExprParser:
    """Tiny recursive-descent evaluator for parameter expressions."""

    def __init__(self, tokens: list[tuple[str, str]], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0  # parentheses open at the current token

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> float:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise QasmError("trailing tokens in expression", self.line)
        return value

    def expr(self) -> float:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs == 0:
                    raise QasmError("division by zero in expression", self.line)
                value = value / rhs
        return value

    def unary(self) -> float:
        # a run of signs is read in a loop, so its length costs no stack
        negate = False
        while self.peek() in (("op", "-"), ("op", "+")):
            negate ^= self.take()[1] == "-"
        value = self.atom()
        return -value if negate else value

    def atom(self) -> float:
        kind, text = self.take()
        if kind == "num":
            return float(text)
        if kind == "id":
            if text == "pi":
                return math.pi
            raise QasmError(f"unknown identifier {text!r} in expression", self.line)
        if (kind, text) == ("op", "("):
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise QasmError(f"parentheses nested deeper than {MAX_PAREN_DEPTH} "
                                "in expression", self.line)
            value = self.expr()
            if self.take() != ("op", ")"):
                raise QasmError("missing ')' in expression", self.line)
            self.depth -= 1
            return value
        raise QasmError("malformed expression", self.line)


def parse_param(text: str, line: int | None = None) -> Angle:
    """Numeric expression -> float; bare identifier (not pi) -> label.

    An expression whose value is not finite (``1e999``, ``1e999-1e999``)
    is refused."""
    tokens = _tokenize_expr(text.strip(), line or 0)
    if not tokens:
        raise QasmError("empty parameter expression", line)
    if len(tokens) == 1 and tokens[0][0] == "id" and tokens[0][1] != "pi":
        return tokens[0][1]
    value = _ExprParser(tokens, line or 0).parse()
    if not math.isfinite(value):
        raise QasmError(f"angle {text.strip()!r} is not finite", line)
    return value


_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
# qubit arguments hold no parentheses, so a gate's parameter list runs to
# the statement's last ')': the one that matches its '(' in a balanced list
_APP_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*(.*)$")
_ARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*(\d+)\s*\])?$")


def _statements(text: str):
    """Yield (statement, line_number) pairs, comments stripped; a line
    break inside a statement separates tokens, as a space does."""
    buf = ""
    start_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("//", 1)[0]
        for ch in code:
            if not buf.strip():
                start_line = lineno
            if ch == ";":
                stmt = buf.strip()
                if stmt:
                    yield stmt, start_line
                buf = ""
            else:
                buf += ch
        buf += " "
    if buf.strip():
        raise QasmError(f"statement missing ';': {buf.strip()!r}", start_line)


def parse_qasm(text: str) -> Circuit:
    registers: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    total = 0
    gates: list[Gate] = []

    def resolve(arg: str, line: int, broadcast_ok: bool = False) -> list[int]:
        m = _ARG_RE.match(arg.strip())
        if not m:
            raise QasmError(f"bad qubit argument {arg!r}", line)
        name, idx = m.group(1), m.group(2)
        if name not in registers:
            raise QasmError(f"unknown register {name!r}", line)
        offset, size = registers[name]
        if idx is None:
            if not broadcast_ok:
                raise QasmError(f"whole-register argument {name!r} not supported here", line)
            return [offset + i for i in range(size)]
        i = int(idx)
        if i >= size:
            raise QasmError(f"index {i} out of range for register {name!r}", line)
        return [offset + i]

    for stmt, line in _statements(text):
        if stmt.startswith("OPENQASM"):
            continue
        if stmt.startswith("include"):
            continue
        m = _QREG_RE.match(stmt)
        if m:
            name, size = m.group(1), int(m.group(2))
            if name in registers:
                raise QasmError(f"register {name!r} redeclared", line)
            registers[name] = (total, size)
            total += size
            continue
        if _CREG_RE.match(stmt):
            continue
        if stmt.startswith("measure"):
            body = stmt[len("measure"):].split("->")[0].strip()
            qs = resolve(body, line)
            gates.append(Opaque("measure", tuple(qs)))
            continue
        if stmt.startswith("if"):
            raise QasmError("conditional statements are not supported", line)
        m = _APP_RE.match(stmt)
        if not m:
            raise QasmError(f"cannot parse statement {stmt!r}", line)
        name, params_text, args_text = m.group(1), m.group(2), m.group(3)
        args = [a for a in (s.strip() for s in args_text.split(",")) if a]
        params = []
        if params_text is not None:
            params = [parse_param(p, line) for p in params_text.split(",") if p.strip()]

        if name == "barrier":
            qs: list[int] = []
            if not args:
                qs = list(range(total))
            else:
                for a in args:
                    qs.extend(resolve(a, line, broadcast_ok=True))
            gates.append(Opaque("barrier", tuple(qs)))
            continue
        if name == "cx":
            if len(args) != 2 or params:
                raise QasmError("cx expects two qubit arguments and no parameters", line)
            (c,), (t,) = resolve(args[0], line), resolve(args[1], line)
            if c == t:
                raise QasmError("cx control and target must differ", line)
            gates.append(Cnot(c, t))
            continue
        if name == "rz":
            if len(args) != 1 or len(params) != 1:
                raise QasmError("rz expects one parameter and one qubit argument", line)
            (q,) = resolve(args[0], line)
            gates.append(Rz(params[0], q))
            continue
        # anything else passes through opaquely
        qs = []
        for a in args:
            qs.extend(resolve(a, line))
        gates.append(Opaque(name, tuple(qs), tuple(params)))

    if total == 0:
        raise QasmError("no qreg declaration found")
    return Circuit(total, tuple(gates))


def _fmt_angle(angle: Angle) -> str:
    if isinstance(angle, str):
        return angle
    return repr(float(angle))


def write_qasm(circuit: Circuit) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    for g in circuit.gates:
        if isinstance(g, Cnot):
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        elif isinstance(g, Rz):
            lines.append(f"rz({_fmt_angle(g.angle)}) q[{g.qubit}];")
        elif g.name == "barrier":
            args = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"barrier {args};")
        else:
            params = ""
            if g.params:
                params = "(" + ",".join(_fmt_angle(p) for p in g.params) + ")"
            args = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{g.name}{params} {args};")
    return "\n".join(lines) + "\n"


__all__ = ["QasmError", "parse_qasm", "write_qasm", "parse_param"]
