from .core import (
    CardinalityError,
    SatInstance,
    at_least_k,
    at_most_k,
    export_dimacs,
    parse_dimacs,
)
from .solver import SatModel, Solver, SolverTimeout, solve_instance
from .external import ExternalSolver, ExternalSolverError

__all__ = [
    "SatInstance", "CardinalityError", "at_most_k", "at_least_k",
    "export_dimacs", "parse_dimacs",
    "SatModel", "Solver", "SolverTimeout", "solve_instance",
    "ExternalSolver", "ExternalSolverError",
]
