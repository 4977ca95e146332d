import pytest
from hypothesis import HealthCheck, settings

from paritysat.ir import (
    Circuit,
    Cnot,
    CouplingMap,
    ParityMatrix,
    ParityTable,
    PhasePolyRep,
    Rz,
)

settings.register_profile(
    "ci", max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def triangle_rep():
    """QAOA cost layer of a triangle graph, with a qubit swap at the end."""
    initial = ParityMatrix.identity(3)
    final = ParityMatrix((1, 4, 2))
    table = ParityTable(3, (5, 3, 6), (0.1, 0.2, 0.3))
    return PhasePolyRep(initial, final, table)


@pytest.fixture
def triangle_circuit():
    """A circuit whose extraction is the triangle instance (uses a non-line edge)."""
    return Circuit(3, (
        Cnot(0, 2), Rz(0.1, 2),
        Cnot(0, 1), Rz(0.2, 1),
        Cnot(1, 2), Rz(0.3, 2),
        Cnot(2, 1), Cnot(0, 1), Cnot(1, 2),
    ))


@pytest.fixture
def line3():
    return CouplingMap.line(3)
