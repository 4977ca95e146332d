"""CNF construction kit: variables, clauses, cardinality encodings, DIMACS.

Literals follow the DIMACS convention: a literal is a nonzero int whose
absolute value is the variable id (ids start at 1) and whose sign marks
negation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

Lit = int


class CardinalityError(ValueError):
    """Unsatisfiable-by-construction cardinality request (k > |lits|)."""


@dataclass
class SatInstance:
    """A growing CNF problem with optionally named variable families."""

    num_vars: int = 0
    clauses: list[list[Lit]] = field(default_factory=list)
    named: dict[tuple[str, tuple[int, ...]], int] = field(default_factory=dict)
    # literals the internal solver sets first on a variable that has never
    # held a value (every other variable is tried False first); a search
    # hint, not a constraint, so DIMACS export and external solvers ignore it
    preferred: list[Lit] = field(default_factory=list)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        return [self.new_var() for _ in range(count)]

    def name_var(self, family: str, *index: int) -> int:
        """Allocate a fresh variable and register it under (family, index)."""
        key = (family, tuple(index))
        if key in self.named:
            raise ValueError(f"variable {key} already registered")
        var = self.new_var()
        self.named[key] = var
        return var

    def add_clause(self, lits: Iterable[Lit]) -> None:
        clause = list(lits)
        if not clause:
            raise ValueError("empty clause")
        for lit in clause:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unallocated variable")
        self.clauses.append(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _pairwise_at_most_one(inst: SatInstance, lits: Sequence[Lit]) -> None:
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            inst.add_clause([-lits[i], -lits[j]])


@dataclass
class SequentialCounter:
    """A Sinz counter over two or more literals, bounded by ``len(row)``.

    ``last`` is the last literal and ``row`` the registers after all the
    others: ``row[j]`` is forced true once ``j + 1`` of them are true.
    ``at_most`` states a lower bound under a goal literal.
    """

    last: Lit
    row: tuple[Lit, ...]

    def at_most(self, inst: SatInstance, k: int) -> Lit:
        """A fresh goal literal that, when true, bounds the literals counted
        so far by ``k``, below the bound: at most ``k`` of the others, and
        at most ``k - 1`` of them when the last literal is true."""
        if not 0 <= k < len(self.row):
            raise ValueError(f"a counter of bound {len(self.row)} cannot state at most {k}")
        goal = inst.new_var()
        inst.add_clause([-goal, -self.row[k]])
        inst.add_clause([-goal, -self.last, -self.row[k - 1]] if k else [-goal, -self.last])
        return goal


def sequential_at_most(inst: SatInstance, lits: Sequence[Lit], k: int) -> SequentialCounter:
    """Sinz sequential-counter encoding of AtMost-k (adds auxiliary vars),
    for ``1 <= k < len(lits)``; returns the handle that states lower bounds."""
    if not 1 <= k < len(lits):
        raise ValueError(f"a sequential counter needs 1 <= k < {len(lits)}, got {k}")
    n = len(lits)
    # registers s[i][j]: among the first i+1 literals at least j+1 are true
    s = [[inst.new_var() for _ in range(k)] for _ in range(n - 1)]
    inst.add_clause([-lits[0], s[0][0]])
    for j in range(1, k):
        inst.add_clause([-s[0][j]])
    for i in range(1, n - 1):
        inst.add_clause([-lits[i], s[i][0]])
        inst.add_clause([-s[i - 1][0], s[i][0]])
        for j in range(1, k):
            inst.add_clause([-lits[i], -s[i - 1][j - 1], s[i][j]])
            inst.add_clause([-s[i - 1][j], s[i][j]])
        inst.add_clause([-lits[i], -s[i - 1][k - 1]])
    inst.add_clause([-lits[n - 1], -s[n - 2][k - 1]])
    return SequentialCounter(lits[n - 1], tuple(s[n - 2]))


def at_most_k(inst: SatInstance, lits: Sequence[Lit], k: int) -> None:
    """Constrain at most ``k`` of ``lits`` to be true."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    lits = list(lits)
    if k >= len(lits):
        return
    if k == 0:
        for lit in lits:
            inst.add_clause([-lit])
        return
    if k == 1 and len(lits) <= 6:
        _pairwise_at_most_one(inst, lits)
        return
    sequential_at_most(inst, lits, k)


def at_least_k(inst: SatInstance, lits: Sequence[Lit], k: int) -> None:
    """Constrain at least ``k`` of ``lits`` to be true."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    lits = list(lits)
    if k == 0:
        return
    if k > len(lits):
        raise CardinalityError(f"at least {k} of {len(lits)} literals is unsatisfiable")
    if k == 1:
        inst.add_clause(lits)
        return
    at_most_k(inst, [-lit for lit in lits], len(lits) - k)


def export_dimacs(inst: SatInstance, units: Sequence[Lit] = ()) -> str:
    """Standard DIMACS CNF text plus a comment block naming variable families.

    ``units`` are appended as unit clauses, so an instance solved under
    assumptions is exported with them; ``inst`` is not changed.
    """
    lines = []
    for (family, index), var in sorted(inst.named.items(), key=lambda kv: kv[1]):
        idx = ",".join(str(i) for i in index)
        lines.append(f"c named {family}({idx}) = {var}")
    lines.append(f"p cnf {inst.num_vars} {inst.num_clauses + len(units)}")
    for clause in inst.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    lines.extend(f"{lit} 0" for lit in units)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> SatInstance:
    """Parse DIMACS CNF back into an instance (named comments are ignored)."""
    num_vars = None
    num_clauses = None
    clauses: list[list[int]] = []
    pending: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        pending.extend(line.split())
        while "0" in pending:
            cut = pending.index("0")
            clause = [int(tok) for tok in pending[:cut]]
            pending = pending[cut + 1:]
            clauses.append(clause)
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    if pending:
        raise ValueError("trailing unterminated clause")
    if num_clauses != len(clauses):
        raise ValueError(f"header declares {num_clauses} clauses, found {len(clauses)}")
    inst = SatInstance(num_vars=num_vars)
    for clause in clauses:
        inst.add_clause(clause)
    return inst


__all__ = [
    "Lit", "CardinalityError", "SatInstance", "SequentialCounter",
    "sequential_at_most", "at_most_k", "at_least_k",
    "export_dimacs", "parse_dimacs",
]
