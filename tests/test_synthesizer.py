import random
import time
from pathlib import Path

import pytest

from paritysat import synthesizer

from paritysat.encoder import Mode
from paritysat.ir import (
    Circuit,
    Cnot,
    CouplingMap,
    ParityMatrix,
    ParityTable,
    PhasePolyRep,
    Rz,
    cnot_count,
    cnot_depth,
    validate_topology,
)
from paritysat.oracle import oracle_min_count, oracle_min_depth
from paritysat.phasepoly import canonical_equal, canonicalize, extract_rep
from paritysat.sat.core import parse_dimacs
from paritysat.sat.solver import SolverTimeout, solve
from paritysat.synthesizer import (
    NoSolutionWithinKmax,
    SynthesisRequest,
    SynthesisTimeout,
    hopps,
    lower_bound,
    place_rotations,
    synthesis_key,
)

from testkit import TOPOLOGIES, random_cnot_rz_circuit, random_instance

REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"


def trivial_rep(n):
    eye = ParityMatrix.identity(n)
    return PhasePolyRep(eye, eye, ParityTable(n, (), ()))


def test_lower_bound_examples(triangle_rep):
    assert lower_bound(trivial_rep(2), Mode.CNOT) == 0
    assert lower_bound(trivial_rep(2), Mode.DEPTH) == 0
    assert lower_bound(triangle_rep, Mode.CNOT) == 3
    # a term that is already a row of the initial matrix adds nothing
    eye = ParityMatrix.identity(2)
    rep = PhasePolyRep(eye, eye, ParityTable(2, (0b01,), (0.3,)))
    assert lower_bound(rep, Mode.CNOT) == 0
    assert lower_bound(rep, Mode.DEPTH) == 0
    swapped = PhasePolyRep(eye, ParityMatrix((2, 1)), ParityTable(2, (), ()))
    assert lower_bound(swapped, Mode.DEPTH) == 1


def test_empty_table_identity_gives_empty_circuit():
    result = hopps(SynthesisRequest(trivial_rep(3), CouplingMap.line(3)))
    assert result.circuit.gates == ()
    assert result.cnot_count == 0 and result.cnot_depth == 0 and result.optimal


def test_zero_cnot_solution_places_rotation():
    eye = ParityMatrix.identity(3)
    rep = PhasePolyRep(eye, eye, ParityTable(3, (0b100,), (0.9,)))
    result = hopps(SynthesisRequest(rep, CouplingMap.line(3)))
    assert result.circuit.gates == (Rz(0.9, 2),)


def test_triangle_matches_golden_pins(triangle_rep, line3):
    for mode in (Mode.CNOT, Mode.DEPTH):
        result = hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=True))
        assert result.cnot_count == 5 and result.cnot_depth == 5
        assert validate_topology(result.circuit, line3)
        assert canonical_equal(canonicalize(extract_rep(result.circuit)),
                               canonicalize(triangle_rep))


def test_rotation_placement_earliest_slice(triangle_rep, line3):
    result = hopps(SynthesisRequest(triangle_rep, line3))
    gates = result.circuit.gates
    # every Rz sits immediately after the earliest slice matching its term
    rows = list(triangle_rep.initial.rows)
    seen = {}
    position = 0
    for g in gates:
        if isinstance(g, Cnot):
            rows[g.target] ^= rows[g.control]
            position += 1
        else:
            seen[rows[g.qubit]] = position
    assert set(seen) == set(triangle_rep.table.terms)


def test_optimality_against_oracle_random_suite():
    rng = random.Random(1234)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        rep = random_instance(rng, n, cm, rng.randint(0, 4), rng.randint(0, 3))
        best_count, count_circs = oracle_min_count(rep, cm)
        best_depth, depth_circs = oracle_min_depth(rep, cm)
        got_c = hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT))
        got_d = hopps(SynthesisRequest(rep, cm, mode=Mode.DEPTH))
        assert got_c.cnot_count == best_count
        assert got_d.cnot_depth == best_depth


def test_doubly_optimal_dominance_small():
    rng = random.Random(4321)
    for _ in range(6):
        n = rng.choice([2, 3])
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        rep = random_instance(rng, n, cm, rng.randint(1, 4), rng.randint(0, 2))
        _, count_circs = oracle_min_count(rep, cm)
        _, depth_circs = oracle_min_depth(rep, cm)
        got_c = hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True))
        got_d = hopps(SynthesisRequest(rep, cm, mode=Mode.DEPTH, doubly=True))
        assert got_c.cnot_depth == min(cnot_depth(c) for c in count_circs)
        assert got_d.cnot_count == min(cnot_count(c) for c in depth_circs)


def record_solvers(monkeypatch):
    """Lists that fill with every ``Solver`` built and every (phase,
    solver) SAT call that ``hopps`` makes."""
    built = []
    calls = []

    class CountingSolver(synthesizer.Solver):
        def __init__(self, inst):
            super().__init__(inst)
            built.append(self)

    real_solve_instance = synthesizer.solve_instance

    def recording(inst, timeout_s, *args, solver=None, **kwargs):
        assert solver is not None and solver.inst is inst
        calls.append((kwargs["stats_out"]["phase"], solver))
        return real_solve_instance(inst, timeout_s, *args, solver=solver, **kwargs)

    monkeypatch.setattr(synthesizer, "Solver", CountingSolver)
    monkeypatch.setattr(synthesizer, "solve_instance", recording)
    return built, calls


@pytest.mark.parametrize("mode, doubly", [(Mode.CNOT, False), (Mode.DEPTH, False),
                                           (Mode.DEPTH, True)])
def test_each_budget_builds_one_solver_that_phase_two_resumes(mode, doubly, monkeypatch):
    built, calls = record_solvers(monkeypatch)
    rng = random.Random(2718)
    phase2_calls = 0
    for _ in range(5):
        n = rng.choice([2, 3])
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        rep = random_instance(rng, n, cm, rng.randint(2, 4), rng.randint(1, 2))
        built.clear()
        calls.clear()
        result = hopps(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
        primary = [solver for phase, solver in calls if phase == "primary"]
        assert primary == built  # one solver per budget tried, in budget order
        assert all(solver is built[-1] for phase, solver in calls if phase != "primary")
        phase2_calls += len(calls) - len(primary)

        best_count, _ = oracle_min_count(rep, cm)
        best_depth, depth_circs = oracle_min_depth(rep, cm)
        if mode is Mode.CNOT:
            assert result.cnot_count == best_count
        else:
            assert result.cnot_depth == best_depth
            if doubly:
                assert result.cnot_count == min(cnot_count(c) for c in depth_circs)
        assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))
    assert (phase2_calls > 0) == doubly


def test_count_doubly_builds_one_solver_per_depth_above_the_floor(monkeypatch):
    built, calls = record_solvers(monkeypatch)
    rng = random.Random(2718)
    descents = 0
    for n in (2, 3, 4, 4, 4):
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        rep = random_instance(rng, n, cm, rng.randint(3, 6), rng.randint(1, 3))
        built.clear()
        calls.clear()
        result = hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True))
        phases = [phase for phase, _ in calls]
        primary = phases.count("primary")
        assert phases == ["primary"] * primary + ["descent"] * (len(phases) - primary)
        # every budget and every depth tried gets a solver of its own
        assert [solver for _, solver in calls] == built
        depths = [entry["k"] for entry in result.stats if entry["phase"] == "descent"]
        assert depths == sorted(set(depths), reverse=True)
        # a layer holds at most n // 2 CNOTs: no call below that floor, and
        # none at all on 2 and 3 qubits, where the floor is the count
        assert all(d >= -(-result.cnot_count // (n // 2)) for d in depths)
        assert n == 4 or depths == []
        descents += len(depths)

        best_count, count_circs = oracle_min_count(rep, cm)
        assert result.cnot_count == best_count and result.optimal
        assert result.cnot_depth == min(cnot_depth(c) for c in count_circs)
        assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))
    assert descents > 0


def test_stats_record_the_cnf_and_encode_time(triangle_rep, line3):
    runs = {mode: hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=True))
            for mode in (Mode.CNOT, Mode.DEPTH)}
    for result in runs.values():
        for entry in result.stats:
            assert entry["vars"] > 0 and entry["clauses"] > 0 and entry["encode_s"] >= 0
    # count-doubly: on 3 qubits a layer holds one CNOT, so phase 2 makes no call
    assert [entry["phase"] for entry in runs[Mode.CNOT].stats] == ["primary"] * 3
    # depth-doubly: phase 2 hands over the optimal budget's, grown, instance
    stats = runs[Mode.DEPTH].stats
    phases = [entry["phase"] for entry in stats]
    first = phases.index("descent") - 1
    assert set(phases[:first]) <= {"primary"} and set(phases[first + 1:]) == {"descent"}
    sizes = [(entry["vars"], entry["clauses"]) for entry in stats[first:]]
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


def test_result_metrics_match_recomputation(triangle_rep, line3):
    result = hopps(SynthesisRequest(triangle_rep, line3, doubly=True))
    assert result.cnot_count == cnot_count(result.circuit)
    assert result.cnot_depth == cnot_depth(result.circuit)
    assert result.layers is not None
    assert sum(len(layer) for layer in result.layers) == result.cnot_count
    assert len(result.layers) == result.cnot_depth


def test_determinism(triangle_rep, line3):
    a = hopps(SynthesisRequest(triangle_rep, line3, mode=Mode.CNOT, doubly=True))
    b = hopps(SynthesisRequest(triangle_rep, line3, mode=Mode.CNOT, doubly=True))
    assert a.circuit.gates == b.circuit.gates


def test_round_trip_through_synthesis():
    rng = random.Random(777)
    for _ in range(8):
        n = rng.choice([2, 3, 4])
        cm = CouplingMap.complete(n)
        rep = random_instance(rng, n, cm, rng.randint(0, 4), rng.randint(0, 4))
        result = hopps(SynthesisRequest(rep, cm))
        assert canonical_equal(canonicalize(extract_rep(result.circuit)),
                               canonicalize(rep))


def test_no_solution_within_kmax(triangle_rep, line3):
    with pytest.raises(NoSolutionWithinKmax):
        hopps(SynthesisRequest(triangle_rep, line3, k_max=2))


def test_timeout_without_model_raises(triangle_rep, line3):
    with pytest.raises(SynthesisTimeout):
        hopps(SynthesisRequest(triangle_rep, line3, timeout_s=0.0))


def test_timeout_bounds_the_whole_synthesis(triangle_rep, line3, monkeypatch):
    # each call takes 0.1 s and proves its budget UNSAT, unless it is given
    # no more than that, so only a shrinking deadline ever ends the search
    def slow_unsat(inst, timeout_s, *args, **kwargs):
        if timeout_s <= 0.1:
            time.sleep(timeout_s)
            raise SolverTimeout("stub budget exhausted")
        time.sleep(0.1)
        return None

    monkeypatch.setattr(synthesizer, "solve_instance", slow_unsat)
    start = time.monotonic()
    with pytest.raises(SynthesisTimeout):
        hopps(SynthesisRequest(triangle_rep, line3, timeout_s=0.25))
    assert time.monotonic() - start < 0.4


def test_disconnected_map_rejected(triangle_rep):
    broken = CouplingMap(3, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        hopps(SynthesisRequest(triangle_rep, broken))


def test_rep_on_larger_map_uses_prefix_qubits(triangle_rep):
    cm = CouplingMap.line(5)
    result = hopps(SynthesisRequest(triangle_rep, cm))
    assert result.cnot_count == 5
    assert all(q < 3 for g in result.circuit.gates
               for q in ((g.control, g.target) if isinstance(g, Cnot) else (g.qubit,)))


def test_synthesis_key_ignores_angles_and_keeps_term_order(triangle_rep, line3):
    def with_table(terms, angles):
        return PhasePolyRep(triangle_rep.initial, triangle_rep.final,
                            ParityTable(3, terms, angles))

    key = synthesis_key(triangle_rep, line3)
    assert synthesis_key(with_table((5, 3, 6, 5), (0.7, 0.8, 0.9, 0.4)), line3) == key
    assert synthesis_key(triangle_rep, CouplingMap.line(5)) == key
    # cancelling rotations drop their term; a new order renumbers the encoding
    assert synthesis_key(with_table((5, 3, 6, 6), (0.1, 0.2, 0.3, -0.3)), line3) != key
    assert synthesis_key(with_table((3, 5, 6), (0.1, 0.2, 0.3)), line3) != key
    assert synthesis_key(triangle_rep, CouplingMap.ring(3)) != key


def test_stats_trail_records_unsat_then_sat(triangle_rep, line3):
    result = hopps(SynthesisRequest(triangle_rep, line3))
    primary = [s for s in result.stats if s["phase"] == "primary"]
    assert [s["status"] for s in primary] == ["unsat", "unsat", "sat"]
    assert [s["k"] for s in primary] == [3, 4, 5]


def test_place_rotations_slot_zero():
    eye = ParityMatrix.identity(2)
    rep = PhasePolyRep(eye, ParityMatrix((1, 3)),
                       ParityTable(2, (0b01, 0b11), (0.2, 0.4)))
    circuit = place_rotations([[(0, 1)]], rep)
    assert circuit.gates == (Rz(0.2, 0), Cnot(0, 1), Rz(0.4, 1))


def test_dimacs_dump_written(tmp_path, triangle_rep, line3):
    path = tmp_path / "dump.cnf"
    for mode in (Mode.CNOT, Mode.DEPTH):
        for doubly in (False, True):
            hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=doubly,
                                   dimacs_path=str(path)))
            text = path.read_text()
            assert text.splitlines()[-1].endswith(" 0")
            assert "p cnf" in text
            # the dump is the instance whose model was returned
            assert solve(parse_dimacs(text)) is not None, (mode, doubly)


def test_non_identity_initial_parity():
    rng = random.Random(66)
    from paritysat.ir import apply_cnot

    for _ in range(5):
        n = 3
        cm = CouplingMap.line(n)
        start = ParityMatrix.identity(n)
        for _ in range(rng.randint(1, 4)):
            c = rng.randrange(n)
            t = rng.randrange(n - 1)
            start = apply_cnot(start, c, t if t < c else t + 1)
        from testkit import random_cnot_rz_circuit

        circuit = random_cnot_rz_circuit(rng, n, rng.randint(1, 4), 2, cm)
        rep = extract_rep(circuit, start)
        assert rep.initial.rows == start.rows
        result = hopps(SynthesisRequest(rep, cm, doubly=True))
        got = canonicalize(extract_rep(result.circuit, start))
        assert canonical_equal(got, canonicalize(rep))
        best, _ = oracle_min_count(rep, cm)
        assert result.cnot_count == best


def test_k4_count_doubly_search_work_stays_bounded():
    cm = CouplingMap.complete(4)
    rep = extract_rep(random_cnot_rz_circuit(random.Random(5), 4, 9, 4, cm))
    result = hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True))
    assert (result.cnot_count, result.cnot_depth) == (6, 5) and result.optimal
    assert result.cnot_count == oracle_min_count(rep, cm)[0]
    assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))
    assert all("restarts" in entry for entry in result.stats)
    # the lowest-index, False-first search without restarts needed 23,607
    assert sum(entry["conflicts"] for entry in result.stats) < 8000


def test_symbolic_angles_synthesize_and_rebind(line3):
    from paritysat.ir import bind_angles

    eye = ParityMatrix.identity(3)
    rep = PhasePolyRep(eye, eye, ParityTable(3, (0b011, 0b011), ("gamma", 0.25)))
    result = hopps(SynthesisRequest(rep, line3, doubly=True))
    labels = [g.angle for g in result.circuit.gates if isinstance(g, Rz)]
    assert "gamma" in labels
    bound = bind_angles(result.circuit, {"gamma": 0.5})
    angles = [g.angle for g in bound.gates if isinstance(g, Rz)]
    assert all(isinstance(a, float) for a in angles)
    reference = Circuit(3, (Cnot(0, 1), Rz(0.5, 1), Rz(0.25, 1), Cnot(0, 1)))
    assert canonical_equal(canonicalize(extract_rep(bound)),
                           canonicalize(extract_rep(reference)))


@pytest.mark.skipif(not REF_SOLVER.exists(), reason="reference solver not found")
def test_external_backend_selected_by_env(triangle_rep, line3, monkeypatch):
    monkeypatch.delenv("HOPPS_SOLVER", raising=False)
    internal = hopps(SynthesisRequest(triangle_rep, line3, doubly=False))
    monkeypatch.setenv("HOPPS_SOLVER", str(REF_SOLVER))
    external = hopps(SynthesisRequest(triangle_rep, line3, doubly=False))
    # only the internal engine reports search counters
    assert all("conflicts" not in entry for entry in external.stats)
    assert external.cnot_count == internal.cnot_count
    assert canonical_equal(canonicalize(extract_rep(external.circuit)),
                           canonicalize(triangle_rep))
