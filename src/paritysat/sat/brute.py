"""Exhaustive truth-table checking for small CNF instances.

The 2^n assignments are packed into one big int per variable (bit ``a`` of
column ``v`` holds the value of ``v`` under assignment index ``a``), so a
clause evaluates with a handful of word-wide operations.  This is the
independent oracle the solver tests compare against.
"""
from __future__ import annotations

from typing import Iterable, Sequence

MAX_BRUTE_VARS = 22


def _columns(num_vars: int) -> tuple[int, list[int]]:
    size = 1 << num_vars
    ones = (1 << size) - 1
    cols = [0]
    for v in range(1, num_vars + 1):
        block = 1 << (v - 1)
        cols.append((ones // ((1 << block) + 1)) << block)
    return ones, cols


def truth_table_mask(num_vars: int, clauses: Iterable[Sequence[int]]) -> int:
    """Bit ``a`` set iff assignment index ``a`` satisfies every clause."""
    if num_vars > MAX_BRUTE_VARS:
        raise ValueError(f"brute enumeration capped at {MAX_BRUTE_VARS} variables")
    ones, cols = _columns(num_vars)
    mask = ones
    for clause in clauses:
        cm = 0
        for lit in clause:
            cm |= cols[lit] if lit > 0 else (~cols[-lit] & ones)
            if cm == ones:
                break
        mask &= cm
        if mask == 0:
            return 0
    return mask


def brute_is_sat(num_vars: int, clauses: Iterable[Sequence[int]]) -> bool:
    return truth_table_mask(num_vars, clauses) != 0


def brute_model_count(num_vars: int, clauses: Iterable[Sequence[int]]) -> int:
    return bin(truth_table_mask(num_vars, clauses)).count("1")


def brute_projections(num_vars: int, clauses: Iterable[Sequence[int]],
                      onto_vars: Sequence[int]) -> set[tuple[bool, ...]]:
    """Distinct restrictions of the model set to ``onto_vars``."""
    mask = truth_table_mask(num_vars, clauses)
    out: set[tuple[bool, ...]] = set()
    for a in range(1 << num_vars):
        if (mask >> a) & 1:
            out.add(tuple(bool((a >> (v - 1)) & 1) for v in onto_vars))
    return out


__all__ = [
    "MAX_BRUTE_VARS", "truth_table_mask", "brute_is_sat",
    "brute_model_count", "brute_projections",
]
