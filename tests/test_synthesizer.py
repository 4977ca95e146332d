import random
import time
from pathlib import Path

import pytest

from paritysat import synthesizer

from paritysat.encoder import Mode, add_goal, encode_chain
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
    induced_coupling,
    validate_topology,
)
from paritysat.oracle import oracle_min_count, oracle_min_depth
from paritysat.phasepoly import canonical_equal, canonicalize, extract_rep
from paritysat.sat.core import parse_dimacs
from paritysat.sat.solver import SatModel, Solver, SolverTimeout
from paritysat.synthesizer import (
    NoSolutionWithinKmax,
    SynthesisRequest,
    SynthesisTimeout,
    hopps,
    lower_bound,
    merged_rep,
    place_rotations,
    sat_chain,
    synthesis_key,
    synthesis_problem,
)

from testkit import TOPOLOGIES, greedy_layers, random_cnot_rz_circuit, random_instance

REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"


def trivial_rep(n):
    eye = ParityMatrix.identity(n)
    return PhasePolyRep(eye, eye, ParityTable(n, (), ()))


def permutation_rep(final_rows):
    n = len(final_rows)
    return PhasePolyRep(ParityMatrix.identity(n), ParityMatrix(tuple(final_rows)),
                        ParityTable(n, (), ()))


def test_lower_bound_examples(triangle_rep):
    assert lower_bound(trivial_rep(2), Mode.CNOT) == 0
    assert lower_bound(trivial_rep(2), Mode.DEPTH) == 0
    # three new terms, plus two rows that end on another initial row
    assert lower_bound(triangle_rep, Mode.CNOT) == 5
    # five CNOTs on three qubits: a layer holds one
    assert lower_bound(triangle_rep, Mode.DEPTH) == 5
    # a term that is already a row of the initial matrix adds nothing
    eye = ParityMatrix.identity(2)
    rep = PhasePolyRep(eye, eye, ParityTable(2, (0b01,), (0.3,)))
    assert lower_bound(rep, Mode.CNOT) == 0
    assert lower_bound(rep, Mode.DEPTH) == 0
    swapped = PhasePolyRep(eye, ParityMatrix((2, 1)), ParityTable(2, (), ()))
    assert lower_bound(swapped, Mode.CNOT) == 2
    assert lower_bound(swapped, Mode.DEPTH) == 2
    # a final row that is new counts once, however many terms share it
    rep = PhasePolyRep(eye, ParityMatrix((3, 2)), ParityTable(2, (0b11, 0b11), (0.1, 0.2)))
    assert lower_bound(rep, Mode.CNOT) == 1
    # x0 ^ x1 ^ x2 is no XOR of two held values, so some CNOT writes an
    # intermediate value: one more than the term itself
    eye3 = ParityMatrix.identity(3)
    rep = PhasePolyRep(eye3, eye3, ParityTable(3, (0b111,), (0.5,)))
    assert lower_bound(rep, Mode.CNOT) == 2
    assert lower_bound(rep, Mode.DEPTH) == 2
    assert lower_bound(rep, Mode.CNOT) <= oracle_min_count(rep, CouplingMap.complete(3))[0]
    # four row changes on four qubits fit in two layers of two
    assert lower_bound(permutation_rep((2, 1, 8, 4)), Mode.CNOT) == 4
    assert lower_bound(permutation_rep((2, 1, 8, 4)), Mode.DEPTH) == 2


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_floors_never_exceed_the_oracle_optima(topology):
    rng = random.Random(f"floors-{topology}")
    tight = 0
    for _ in range(12):
        n = rng.choice([2, 3, 4])
        cm = TOPOLOGIES[topology](n)
        rep = random_instance(rng, n, cm, rng.randint(0, 6), rng.randint(0, 3))
        best_count, _ = oracle_min_count(rep, cm)
        best_depth, _ = oracle_min_depth(rep, cm)
        assert lower_bound(rep, Mode.CNOT) <= best_count
        assert lower_bound(rep, Mode.DEPTH) <= best_depth
        tight += lower_bound(rep, Mode.CNOT) == best_count
    assert tight > 0


ALL_MODES = [(Mode.CNOT, False), (Mode.CNOT, True), (Mode.DEPTH, False), (Mode.DEPTH, True)]


@pytest.mark.parametrize("mode, doubly", ALL_MODES)
@pytest.mark.parametrize("final_rows, floor, optimum", [
    ((2, 1), 2, 3),         # SWAP on line(2)
    ((2, 4, 1), 3, 6),      # a 3-cycle of rows on line(3)
])
def test_pinned_permutations_reach_the_oracle_above_their_floor(
        final_rows, floor, optimum, mode, doubly):
    rep = permutation_rep(final_rows)
    cm = CouplingMap.line(len(final_rows))
    assert lower_bound(rep, Mode.CNOT) == floor
    best_count, count_circs = oracle_min_count(rep, cm)
    best_depth, depth_circs = oracle_min_depth(rep, cm)
    assert best_count == optimum
    result = hopps(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
    assert result.optimal and validate_topology(result.circuit, cm)
    assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))
    if mode is Mode.CNOT:
        assert result.cnot_count == best_count
        if doubly:
            assert result.cnot_depth == min(cnot_depth(c) for c in count_circs)
    else:
        assert result.cnot_depth == best_depth
        if doubly:
            assert result.cnot_count == min(cnot_count(c) for c in depth_circs)


@pytest.mark.parametrize("mode, doubly", ALL_MODES)
def test_one_qubit_rep_gives_its_rotation(mode, doubly):
    eye = ParityMatrix.identity(1)
    rep = PhasePolyRep(eye, eye, ParityTable(1, (1,), (0.4,)))
    result = hopps(SynthesisRequest(rep, CouplingMap(1, frozenset()), mode=mode,
                                    doubly=doubly))
    assert result.circuit.gates == (Rz(0.4, 0),)
    assert result.optimal and (result.cnot_count, result.cnot_depth) == (0, 0)


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


def test_doubly_optima_on_six_qubits_match_the_oracle():
    # a 6-qubit layer holds up to three CNOTs, so each step has two excess
    # literals; the first three circuits have layers of three
    line6 = CouplingMap.line(6)
    three = (Cnot(0, 1), Cnot(2, 3), Cnot(4, 5))
    cases = [
        (line6, Circuit(6, three + (Rz(0.1, 1), Rz(0.2, 3), Rz(0.3, 5)))),
        (line6, Circuit(6, three + (Rz(0.1, 1), Rz(0.2, 3), Cnot(1, 2), Cnot(3, 4),
                                    Rz(0.3, 2)))),
        (line6, Circuit(6, (Cnot(1, 0), Cnot(3, 2), Cnot(5, 4), Rz(0.1, 0), Cnot(1, 2),
                            Cnot(3, 4), Rz(0.3, 4), Cnot(1, 0), Cnot(3, 2), Cnot(5, 4)))),
        (line6, random_cnot_rz_circuit(random.Random(0), 6, 4, 2, line6)),
        (CouplingMap.ring(6), random_cnot_rz_circuit(random.Random(0), 6, 3, 2,
                                                     CouplingMap.ring(6))),
    ]
    descents = 0
    for cm, circuit in cases:
        rep = extract_rep(circuit)
        best_count, count_circs = oracle_min_count(rep, cm)
        best_depth, depth_circs = oracle_min_depth(rep, cm)
        for engine in (hopps, sat_chain):
            by_count = engine(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True))
            by_depth = engine(SynthesisRequest(rep, cm, mode=Mode.DEPTH, doubly=True))
            assert (by_count.cnot_count, by_count.cnot_depth) == \
                (best_count, min(cnot_depth(c) for c in count_circs))
            assert (by_depth.cnot_depth, by_depth.cnot_count) == \
                (best_depth, min(cnot_count(c) for c in depth_circs))
            for result in (by_count, by_depth):
                assert result.optimal and validate_topology(result.circuit, cm)
                assert canonical_equal(canonicalize(extract_rep(result.circuit)),
                                       canonicalize(rep))
                if engine is sat_chain:
                    descents += sum(entry["phase"] == "descent" for entry in result.stats)
    assert descents > 0


def record_solvers(monkeypatch):
    """Lists that fill with every ``Solver`` built and every (phase,
    solver) SAT call that ``sat_chain`` makes.  Every call is made under
    exactly one goal literal."""
    built = []
    calls = []

    class CountingSolver(synthesizer.Solver):
        def __init__(self, inst):
            super().__init__(inst)
            built.append(self)

    real_solve_instance = synthesizer.solve_instance

    def recording(inst, timeout_s, *args, solver=None, **kwargs):
        assert solver is not None and solver.inst is inst
        assert len(kwargs["assumptions"]) == 1
        calls.append((kwargs["stats_out"]["phase"], solver))
        return real_solve_instance(inst, timeout_s, *args, solver=solver, **kwargs)

    monkeypatch.setattr(synthesizer, "Solver", CountingSolver)
    monkeypatch.setattr(synthesizer, "solve_instance", recording)
    return built, calls


@pytest.mark.parametrize("mode, doubly", [(Mode.CNOT, False), (Mode.DEPTH, False),
                                           (Mode.DEPTH, True)])
def test_each_synthesis_builds_one_solver_that_every_call_resumes(mode, doubly, monkeypatch):
    built, calls = record_solvers(monkeypatch)
    rng = random.Random(2718)
    cases = []
    for _ in range(5):
        n = rng.choice([2, 3])
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        cases.append((cm, random_instance(rng, n, cm, rng.randint(2, 4), rng.randint(1, 2))))
    # pinned last: on 2 and 3 qubits a layer holds one CNOT, so the count is
    # the depth and the depth-doubly descent makes no call; this one does
    line4 = CouplingMap.line(4)
    cases.append((line4, extract_rep(random_cnot_rz_circuit(random.Random(9), 4, 6, 3, line4))))
    phase2_calls = unsat_budgets = 0
    for cm, rep in cases:
        built.clear()
        calls.clear()
        result = sat_chain(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
        # one solver grows across every budget tried and every descent
        assert len(built) == 1 and all(solver is built[0] for _, solver in calls)
        primary = [phase for phase, _ in calls if phase == "primary"]
        phase2_calls += len(calls) - len(primary)
        unsat_budgets += len(primary) - 1

        best_count, _ = oracle_min_count(rep, cm)
        best_depth, depth_circs = oracle_min_depth(rep, cm)
        if mode is Mode.CNOT:
            assert result.cnot_count == best_count
        else:
            assert result.cnot_depth == best_depth
            if doubly:
                assert result.cnot_count == min(cnot_count(c) for c in depth_circs)
        assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))
    assert (phase2_calls > 0) == doubly and unsat_budgets > 0


def test_count_doubly_grows_one_depth_chain_up_from_the_floor(monkeypatch):
    built, calls = record_solvers(monkeypatch)
    rng = random.Random(2718)
    cases = []
    for n in (2, 3, 4, 4, 4):
        cm = TOPOLOGIES[rng.choice(list(TOPOLOGIES))](n)
        cases.append((cm, random_instance(rng, n, cm, rng.randint(3, 6), rng.randint(1, 3))))
    # pinned last: phase 2 finds a SAT depth after an UNSAT one
    cases.append((CouplingMap.line(4), random_instance(
        pin := random.Random(1), 4, CouplingMap.line(4), pin.randint(3, 7), pin.randint(1, 3))))
    runs = []
    for cm, rep in cases:
        n = cm.num_qubits
        built.clear()
        calls.clear()
        result = sat_chain(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True))
        phases = [phase for phase, _ in calls]
        primary = phases.count("primary")
        assert phases == ["primary"] * primary + ["descent"] * (len(phases) - primary)
        # one chain per phase, each grown on one solver of its own
        chains = [built[0]] * primary + [built[-1]] * (len(phases) - primary)
        assert [solver for _, solver in calls] == chains
        assert len(built) == (2 if len(phases) > primary else 1)
        descents = [(entry["k"], entry["status"]) for entry in result.stats
                    if entry["phase"] == "descent"]
        # depths go up one by one from the floor, since a layer holds at most
        # n // 2 CNOTs; the first SAT depth is the last tried.  On 2 and 3
        # qubits the floor is the count, and no call is made
        floor = -(-result.cnot_count // (n // 2))
        assert [k for k, _ in descents] == list(range(floor, floor + len(descents)))
        assert all(status == "unsat" for _, status in descents[:-1])
        assert n == 4 or descents == []
        if descents and descents[-1][1] == "sat":
            assert result.cnot_depth == descents[-1][0]
        else:
            assert result.cnot_depth == floor + len(descents)
        runs.append((descents, (result.cnot_count, result.cnot_depth)))

        best_count, count_circs = oracle_min_count(rep, cm)
        assert result.cnot_count == best_count and result.optimal
        assert result.cnot_depth == min(cnot_depth(c) for c in count_circs)
        assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))
    assert sum(len(descents) for descents, _ in runs[:-1]) > 0
    assert runs[-1] == ([(2, "unsat"), (3, "sat")], (4, 3))


@pytest.mark.parametrize("mode", [Mode.CNOT, Mode.DEPTH])
def test_phase2_timeout_keeps_the_phase1_circuit(mode, monkeypatch):
    real_solve_instance = synthesizer.solve_instance
    timed_out = []

    def descent_times_out(inst, timeout_s, *args, **kwargs):
        if kwargs["stats_out"]["phase"] == "descent":
            timed_out.append(kwargs["stats_out"]["k"])
            raise SolverTimeout("stub budget exhausted")
        return real_solve_instance(inst, timeout_s, *args, **kwargs)

    monkeypatch.setattr(synthesizer, "solve_instance", descent_times_out)
    cm = CouplingMap.line(4)
    rep = extract_rep(random_cnot_rz_circuit(random.Random(11), 4, 6, 3, cm))
    result = sat_chain(SynthesisRequest(rep, cm, mode=mode, doubly=True))
    assert len(timed_out) == 1 and not result.optimal
    # the timed-out call keeps its record
    assert [(entry["k"], entry["status"]) for entry in result.stats
            if entry["phase"] == "descent"] == [(timed_out[0], "timeout")]
    if mode is Mode.CNOT:
        assert result.cnot_count == oracle_min_count(rep, cm)[0]
    else:
        assert result.cnot_depth == oracle_min_depth(rep, cm)[0]
    assert validate_topology(result.circuit, cm)
    assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))


def test_stats_record_the_cnf_and_encode_time(triangle_rep, line3):
    runs = {mode: sat_chain(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=True))
            for mode in (Mode.CNOT, Mode.DEPTH)}
    for result in runs.values():
        for entry in result.stats:
            if entry["phase"] != "bound":
                assert entry["vars"] > 0 and entry["clauses"] > 0
            assert entry["encode_s"] >= 0
    # count-doubly: the floor is the optimum, and on 3 qubits a layer holds
    # one CNOT, so phase 2 makes no call
    assert [entry["phase"] for entry in runs[Mode.CNOT].stats] == ["bound", "primary"]
    # depth-doubly: every call, of phase 1 and of the descent, is handed the
    # one instance grown further; the triangle's model meets its count
    # floor, so this instance descends, twice, and ends on an UNSAT count
    # above the floor of one CNOT per layer
    cm = CouplingMap.line(4)
    descending = extract_rep(random_cnot_rz_circuit(random.Random(9), 4, 6, 3, cm))
    stats = sat_chain(SynthesisRequest(descending, cm, mode=Mode.DEPTH, doubly=True)).stats
    phases = [entry["phase"] for entry in stats]
    first = phases.index("descent") - 1
    assert phases[0] == "bound" and set(phases[1:first]) <= {"primary"} and first > 1
    assert phases.count("descent") >= 2 and set(phases[first + 1:]) == {"descent"}
    # one synthesis grows one instance, so each call is handed more clauses
    # than the last (a descent states its bound on one new goal variable);
    # the count-doubly descent grows a second chain, which starts smaller.
    # This instance makes more than two such calls in every mode.
    rep = extract_rep(random_cnot_rz_circuit(random.Random(11), 4, 6, 3, cm))
    for mode, doubly in ALL_MODES:
        result = sat_chain(SynthesisRequest(rep, cm, mode=mode, doubly=doubly)).stats
        sizes = [(entry["vars"], entry["clauses"]) for entry in result
                 if entry["phase"] == "primary" or entry["phase"] == "descent"
                 and mode is Mode.DEPTH]
        assert len(sizes) > 2
        assert all(v <= w and c < d for (v, c), (w, d) in zip(sizes, sizes[1:]))


def test_result_metrics_match_recomputation(triangle_rep, line3):
    result = hopps(SynthesisRequest(triangle_rep, line3, doubly=True))
    assert result.cnot_count == cnot_count(result.circuit)
    assert result.cnot_depth == cnot_depth(result.circuit)
    layers = greedy_layers(result.circuit)
    assert sum(len(layer) for layer in layers) == result.cnot_count
    assert len(layers) == result.cnot_depth


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


def test_bad_timeout_or_k_max_is_refused(triangle_rep, line3):
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="timeout must be a nonnegative"):
            SynthesisRequest(triangle_rep, line3, timeout_s=bad)
    with pytest.raises(ValueError, match="k_max must be nonnegative"):
        SynthesisRequest(triangle_rep, line3, k_max=-2)


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
        sat_chain(SynthesisRequest(triangle_rep, line3, timeout_s=0.25))
    assert time.monotonic() - start < 0.4


def test_phase_1_timeout_carries_its_records(monkeypatch):
    cm = CouplingMap.line(4)
    rep = extract_rep(random_cnot_rz_circuit(random.Random(11), 4, 6, 3, cm))
    real = synthesizer.solve_instance

    def times_out_from_3_steps(inst, *args, **kwargs):
        if len({index[0] for family, index in inst.named if family == "cnot"}) >= 3:
            raise SolverTimeout("stub budget exhausted")
        return real(inst, *args, **kwargs)

    monkeypatch.setattr(synthesizer, "solve_instance", times_out_from_3_steps)
    with pytest.raises(SynthesisTimeout) as caught:
        sat_chain(SynthesisRequest(rep, cm, mode=Mode.CNOT))
    last = caught.value.stats[-1]
    assert (last["phase"], last["k"], last["status"]) == ("primary", 4, "timeout")
    assert [entry["phase"] for entry in caught.value.stats] == ["bound", "primary"]


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

    def key_of(rep, cm):
        return synthesis_key(*synthesis_problem(rep, cm))

    key = key_of(triangle_rep, line3)
    assert key_of(merged_rep(triangle_rep), line3) == key
    assert key_of(with_table((5, 3, 6, 5), (0.7, 0.8, 0.9, 0.4)), line3) == key
    assert key_of(triangle_rep, CouplingMap.line(5)) == key
    # cancelling rotations drop their term; a new order renumbers the encoding
    assert key_of(with_table((5, 3, 6, 6), (0.1, 0.2, 0.3, -0.3)), line3) != key
    assert key_of(with_table((3, 5, 6), (0.1, 0.2, 0.3)), line3) != key
    assert key_of(triangle_rep, CouplingMap.ring(3)) != key



def hopps_steps(rep, cm):
    result = hopps(SynthesisRequest(rep, cm, doubly=True))
    return result.circuit, result.steps


@pytest.mark.parametrize("search", [hopps_steps, oracle_min_count, oracle_min_depth])
def test_every_search_prepares_the_same_problem(search, triangle_rep):
    with pytest.raises(ValueError,
                       match=r"^coupling map has fewer qubits than the representation$"):
        search(triangle_rep, CouplingMap.line(2))
    # qubits 0..2 are joined only through qubit 3
    star = CouplingMap(4, frozenset({(0, 3), (1, 3), (2, 3)}))
    with pytest.raises(ValueError,
                       match=r"^coupling map must be connected on the used qubits$"):
        search(triangle_rep, star)
    # a larger map connected on 0..2 is read as the map it induces there
    ring = CouplingMap.ring(5)
    assert search(triangle_rep, ring) == search(triangle_rep, induced_coupling(ring, range(3)))


def test_floors_read_the_merged_rep():
    # two rotations that cancel on one term: the raw table still counts it
    eye = ParityMatrix.identity(2)
    rep = PhasePolyRep(eye, eye, ParityTable(2, (3, 3), (0.3, -0.3)))
    line = CouplingMap.line(2)
    assert lower_bound(rep, Mode.CNOT) == 1
    assert lower_bound(merged_rep(rep), Mode.CNOT) == 0
    assert lower_bound(merged_rep(rep), Mode.DEPTH) == 0
    assert oracle_min_count(rep, line)[0] == oracle_min_depth(rep, line)[0] == 0
    assert hopps(SynthesisRequest(rep, line, doubly=True)).circuit.gates == ()



def test_stats_trail_records_unsat_then_sat():
    # SWAP on line(2): the floor rules out budgets 0 and 1, budget 2 is
    # UNSAT and the optimum is 3
    result = sat_chain(SynthesisRequest(permutation_rep((2, 1)), CouplingMap.line(2)))
    assert [(s["phase"], s["k"], s["status"]) for s in result.stats] == \
        [("bound", 1, "unsat"), ("primary", 2, "unsat"), ("primary", 3, "sat")]
    # a cut carries every counter of a SAT call, at zero
    bound, call = result.stats[0], result.stats[1]
    assert set(bound) == set(call)
    assert all(bound[key] == 0 for key in bound if key not in ("phase", "k", "status"))


def test_depth_doubly_descent_stops_at_the_count_floor(triangle_rep, line3, monkeypatch):
    _, calls = record_solvers(monkeypatch)
    result = sat_chain(SynthesisRequest(triangle_rep, line3, mode=Mode.DEPTH, doubly=True))
    assert result.cnot_count == lower_bound(triangle_rep, Mode.CNOT) == 5
    # the model meets the floor, so no descent is handed to the solver
    assert [phase for phase, _ in calls] == ["primary"]
    assert [(s["phase"], s["k"]) for s in result.stats] == \
        [("bound", 4), ("primary", 5), ("bound", 4)]
    # on 3 qubits a layer holds one CNOT: the 3-cycle's model, 6 CNOTs at
    # depth 6, is far above the count floor of 3 but meets the floor of one
    # CNOT per layer
    calls.clear()
    cycle = permutation_rep((2, 4, 1))
    result = sat_chain(SynthesisRequest(cycle, line3, mode=Mode.DEPTH, doubly=True))
    assert lower_bound(cycle, Mode.CNOT) == 3
    assert (result.cnot_count, result.cnot_depth) == (6, 6)
    assert "descent" not in [phase for phase, _ in calls]
    assert [(s["phase"], s["k"]) for s in result.stats][-2:] == [("primary", 6), ("bound", 5)]


def test_a_descent_cap_that_does_not_bind_raises(monkeypatch):
    # a model at or above the count it was capped below is an encoder bug,
    # and the descent would otherwise ask for the same count forever
    class Unbound:
        def at_most(self, inst, k):
            return inst.new_var()

    monkeypatch.setattr(synthesizer, "add_cnot_budget", lambda inst, layout, budget: Unbound())
    cm = CouplingMap.line(4)
    rep = extract_rep(random_cnot_rz_circuit(random.Random(9), 4, 6, 3, cm))
    with pytest.raises(synthesizer.InternalConsistencyError, match="under a cap of"):
        sat_chain(SynthesisRequest(rep, cm, mode=Mode.DEPTH, doubly=True))


def test_decode_checks_every_parity_slice_against_the_replay(triangle_rep, line3):
    rep, cm = synthesis_problem(triangle_rep, line3)
    inst, layout = encode_chain(rep, cm, Mode.CNOT, 5)
    model = Solver(inst).solve(assumptions=(add_goal(inst, layout),))
    result = hopps(SynthesisRequest(triangle_rep, line3))
    assert synthesizer.decode_circuit(model, layout, rep) == (result.steps, result.circuit)
    # a parity bit the replay disagrees with: slice 0, a middle slice, the last
    for k in (0, 2, 5):
        values = list(model.values)
        values[layout.parity[k][1][0]] ^= True
        with pytest.raises(synthesizer.InternalConsistencyError,
                           match=f"parity mismatch at step {k}, row 1"):
            synthesizer.decode_circuit(SatModel(tuple(values)), layout, rep)


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
            assert Solver(parse_dimacs(text)).solve() is not None, (mode, doubly)


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
    result = sat_chain(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True))
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
    # the SWAP and the 3-cycle have UNSAT budgets above their floors, which
    # reach the external solver as the negated activation literals
    cases = [(triangle_rep, line3, Mode.CNOT, False),
             (permutation_rep((2, 4, 1)), CouplingMap.line(3), Mode.DEPTH, False)]
    cases += [(permutation_rep((2, 1)), CouplingMap.line(2), mode, doubly)
              for mode, doubly in ALL_MODES]
    for rep, cm, mode, doubly in cases:
        monkeypatch.delenv("HOPPS_SOLVER", raising=False)
        internal = sat_chain(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
        monkeypatch.setenv("HOPPS_SOLVER", str(REF_SOLVER))
        external = sat_chain(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
        # only the internal engine reports search counters; a floor's cut is no call
        assert all("conflicts" not in entry for entry in external.stats
                   if entry["phase"] != "bound")
        assert [(e["phase"], e["k"], e["status"]) for e in external.stats] == \
            [(e["phase"], e["k"], e["status"]) for e in internal.stats]
        assert (external.cnot_count, external.cnot_depth) == \
            (internal.cnot_count, internal.cnot_depth)
        assert canonical_equal(canonicalize(extract_rep(external.circuit)), canonicalize(rep))
        unsat_budgets = [e for e in external.stats if e["phase"] == "primary"][:-1]
        assert all(e["status"] == "unsat" for e in unsat_budgets)
        assert (len(unsat_budgets) > 0) == (rep is not triangle_rep)


def test_tail_block_of_the_peephole_workload_stays_cheap():
    # a 4-qubit block of the peephole benchmark on a 2x2 grid (a 4-ring),
    # its slowest at seed 1: most of its work is the descent's one UNSAT
    # proof, that count 6 is impossible at depth 6.  Stacked counters made
    # it cost 2,235 conflicts (3,160 in all); one counter over every CNOT
    # variable, 735; one counter over the excess of each layer beyond its
    # first CNOT, 300
    rep = PhasePolyRep(ParityMatrix.identity(4), ParityMatrix((4, 3, 2, 8)),
                       ParityTable(4, (4, 6, 2, 10), (0.1, 0.2, 0.3, 0.4)))
    cm = CouplingMap(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
    result = sat_chain(SynthesisRequest(rep, cm, mode=Mode.DEPTH, doubly=True))
    assert (result.cnot_count, result.cnot_depth) == (7, 6) and result.optimal
    best_depth, depth_circs = oracle_min_depth(rep, cm)
    assert (result.cnot_count, result.cnot_depth) == \
        (min(cnot_count(c) for c in depth_circs), best_depth)
    assert validate_topology(result.circuit, cm)
    assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))
    assert sum(entry["conflicts"] for entry in result.stats) < 3160
    descent = [entry for entry in result.stats if entry["phase"] == "descent"]
    assert [(entry["k"], entry["status"]) for entry in descent] == [(6, "unsat")]
    assert descent[0]["conflicts"] < 400
