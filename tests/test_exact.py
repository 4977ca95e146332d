"""The exact search against the oracle, and ``hopps`` around it.

The small set's oracle pairs are stored in ``golden/small_set_optima.json``;
``python tests/test_exact.py`` recomputes them with the oracle (about 25 s)
and rewrites the file.
"""
import dataclasses
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from paritysat import exact, synthesizer
from paritysat.encoder import Mode
from paritysat.exact import exact_search
from paritysat.ir import CouplingMap, cnot_count, cnot_depth, validate_topology
from paritysat.oracle import oracle_min_count, oracle_min_depth
from paritysat.phasepoly import canonical_equal, canonicalize, extract_rep
from paritysat.sat.solver import SolverTimeout
from paritysat.synthesizer import (
    InternalConsistencyError,
    NoSolutionWithinKmax,
    SynthesisRequest,
    SynthesisTimeout,
    hopps,
    lower_bound,
    place_rotations,
    sat_chain,
    synthesis_problem,
)

from testkit import random_cnot_rz_circuit

GOLDEN = Path(__file__).parent / "golden" / "small_set_optima.json"
REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"

ALL_MODES = [(Mode.CNOT, False), (Mode.CNOT, True), (Mode.DEPTH, False), (Mode.DEPTH, True)]

# the small set: Random(1000..1039) circuits of (CNOTs, Rz) on each map
SMALL_SET = [("line-3", CouplingMap.line(3), 8, 4), ("K3", CouplingMap.complete(3), 10, 5),
             ("line-4", CouplingMap.line(4), 10, 4), ("ring-4", CouplingMap.ring(4), 10, 4)]


def small_set():
    for name, cm, cx, rz in SMALL_SET:
        for seed in range(1000, 1040):
            circuit = random_cnot_rz_circuit(random.Random(seed), cm.num_qubits, cx, rz, cm)
            yield name, seed, cm, extract_rep(circuit)


def oracle_optima(rep, cm) -> dict:
    count, count_circuits = oracle_min_count(rep, cm)
    depth, depth_circuits = oracle_min_depth(rep, cm)
    return {"count": count, "depth_at_count": min(map(cnot_depth, count_circuits)),
            "depth": depth, "count_at_depth": min(map(cnot_count, depth_circuits))}


def wanted_pair(optima: dict, mode: Mode, doubly: bool) -> tuple:
    """The (primary, secondary) pair a search must find; None where the
    mode leaves the secondary metric free."""
    if mode is Mode.CNOT:
        return optima["count"], optima["depth_at_count"] if doubly else None
    return optima["depth"], optima["count_at_depth"] if doubly else None


def search(rep, cm, mode, doubly, k_max=100, timeout_s=60.0):
    return exact_search(*synthesis_problem(rep, cm), mode, doubly, k_max,
                        time.monotonic() + timeout_s)


def line5(seed):
    cm = CouplingMap.line(5)
    return extract_rep(random_cnot_rz_circuit(random.Random(seed), 5, 30, 5, cm)), cm


def line4(seed):
    cm = CouplingMap.line(4)
    return extract_rep(random_cnot_rz_circuit(random.Random(seed), 4, 6, 3, cm)), cm


def test_the_small_set_matches_the_oracle_in_all_four_modes():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 160
    for (name, seed, cm, rep), optima in zip(small_set(), golden):
        assert (optima["map"], optima["seed"]) == (name, seed)
        merged, local = synthesis_problem(rep, cm)
        for mode, doubly in ALL_MODES:
            primary, secondary = wanted_pair(optima, mode, doubly)
            found = search(rep, cm, mode, doubly)
            assert found.status == "sat" and found.floor == primary
            assert found.cost[0] == primary and secondary in (None, found.cost[1])
            circuit = place_rotations(found.steps, merged)
            got = (cnot_count(circuit), cnot_depth(circuit))
            assert (got if mode is Mode.CNOT else got[::-1])[:1 + doubly] == \
                (primary, secondary)[:1 + doubly], (name, seed, mode, doubly)
            assert validate_topology(circuit, local)
            assert canonical_equal(canonicalize(extract_rep(circuit)), canonicalize(rep))


def test_the_stored_optima_match_a_fresh_oracle_run():
    # every instance but the ring-4 ones, which take the oracle about 19 s,
    # and the first two of those
    golden = json.loads(GOLDEN.read_text())
    for (name, seed, cm, rep), optima in zip(small_set(), golden):
        if name != "ring-4" or seed < 1002:
            fresh = oracle_optima(rep, cm)
            assert fresh == {key: optima[key] for key in fresh}, (name, seed)


def test_the_search_is_deterministic_and_each_step_is_one_move():
    rep, cm = line4(11)
    for mode, doubly in ALL_MODES:
        first, again = search(rep, cm, mode, doubly), search(rep, cm, mode, doubly)
        assert first.steps == again.steps and first.states == again.states
        # one CNOT in plain count mode, a layer of disjoint CNOTs otherwise
        if (mode, doubly) == (Mode.CNOT, False):
            assert all(len(step) == 1 for step in first.steps)
        for step in first.steps:
            used = [q for edge in step for q in edge]
            assert len(used) == len(set(used))


def test_hopps_checks_the_witness_in_one_sat_call(monkeypatch):
    calls = []
    real = synthesizer.solve_instance

    def recording(inst, timeout_s, *args, **kwargs):
        calls.append(kwargs["assumptions"])
        return real(inst, timeout_s, *args, **kwargs)

    monkeypatch.setattr(synthesizer, "solve_instance", recording)
    rep, cm = line4(11)
    edges = len(cm.directed_edges())
    for mode, doubly in ALL_MODES:
        calls.clear()
        result = hopps(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
        record, check = result.stats
        assert (record["phase"], record["status"], record["capped"]) == ("exact", "sat", False)
        assert (check["phase"], check["status"], check["k"]) == ("primary", "sat", record["k"])
        # the goal, and every CNOT literal of every step
        assert len(calls) == 1 and len(calls[0]) == 1 + edges * len(result.steps)
        metrics = (result.cnot_count, result.cnot_depth)
        primary = metrics if mode is Mode.CNOT else metrics[::-1]
        assert record["k"] == primary[0] and record["cost"][0] == primary[0]
        if doubly:
            assert record["cost"][1] == primary[1]
        assert all(n > 0 for n in record["states"]) and record["seconds"] >= 0
        assert result.optimal
        assert canonical_equal(canonicalize(extract_rep(result.circuit)), canonicalize(rep))


def test_a_witness_the_encoding_refuses_raises(monkeypatch, triangle_rep, line3):
    real = synthesizer.exact_search

    def one_step_short(*args):
        found = real(*args)
        return dataclasses.replace(found, steps=found.steps[:-1])

    monkeypatch.setattr(synthesizer, "exact_search", one_step_short)
    for mode, doubly in ALL_MODES:
        with pytest.raises(InternalConsistencyError, match="refuses the search's 4-step witness"):
            hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=doubly))


@pytest.mark.parametrize("mode, doubly", ALL_MODES)
def test_a_capped_search_hands_the_sat_chain_a_sound_floor(mode, doubly, monkeypatch):
    cases = [line4(11), line4(9), (extract_rep(random_cnot_rz_circuit(
        random.Random(5), 4, 9, 4, CouplingMap.complete(4))), CouplingMap.complete(4))]

    def pair(result):
        """The result's (primary, secondary) pair, cut to what the mode fixes."""
        metrics = (result.cnot_count, result.cnot_depth)
        return (metrics if mode is Mode.CNOT else metrics[::-1])[:1 + doubly]

    for rep, cm in cases:
        uncapped = hopps(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
        want, states = pair(uncapped), sum(uncapped.stats[0]["states"])
        for cap in (2, states // 3, 2 * states // 3):
            monkeypatch.setattr(exact, "STATE_CAP", cap)
            got = hopps(SynthesisRequest(rep, cm, mode=mode, doubly=doubly))
            monkeypatch.undo()
            record = got.stats[0]
            assert (record["phase"], record["status"], record["capped"]) == \
                ("exact", "capped", True)
            # the cap is read after each expansion, which stores at most
            # one state per move: K4 has 24 layers
            assert cap < sum(record["states"]) <= cap + 24
            # the SAT chain climbs from the floor to the optimum
            assert record["k"] <= want[0]
            floor = max(lower_bound(synthesis_problem(rep, cm)[0], mode), record["k"])
            budgets = [e["k"] for e in got.stats if e["phase"] == "primary"]
            assert budgets == list(range(floor, want[0] + 1))
            assert pair(got) == want and got.optimal
            assert canonical_equal(canonicalize(extract_rep(got.circuit)), canonicalize(rep))


def test_a_larger_cap_proves_a_floor_no_lower(monkeypatch):
    # line-5 Random(4): count optimum 16, about 240K states uncapped
    rep, cm = line5(4)
    floors = []
    for cap in (100, 5_000, 50_000):
        monkeypatch.setattr(exact, "STATE_CAP", cap)
        found = search(rep, cm, Mode.CNOT, False)
        assert found.status == "capped" and found.cost is None and found.steps == ()
        floors.append(found.floor)
    assert floors == sorted(floors) and floors[-1] <= 16
    assert floors[-1] > lower_bound(synthesis_problem(rep, cm)[0], Mode.CNOT)


def test_the_search_reads_its_deadline(triangle_rep, line3):
    # no time at all: nothing is expanded
    with pytest.raises(SynthesisTimeout) as caught:
        hopps(SynthesisRequest(triangle_rep, line3, timeout_s=0.0))
    (record,) = caught.value.stats
    assert (record["phase"], record["status"], record["states"]) == ("exact", "timeout", [1, 1])
    # line-5 Random(4) takes the search about 0.5 s
    rep, cm = line5(4)
    start = time.monotonic()
    with pytest.raises(SynthesisTimeout) as caught:
        hopps(SynthesisRequest(rep, cm, timeout_s=0.05))
    assert time.monotonic() - start < 0.5
    (record,) = caught.value.stats
    assert (record["phase"], record["status"]) == ("exact", "timeout")
    assert sum(record["states"]) > 2 * exact.DEADLINE_EVERY


def test_a_timed_out_witness_check_carries_both_records(monkeypatch):
    def times_out(*args, **kwargs):
        raise SolverTimeout("stub budget exhausted")

    monkeypatch.setattr(synthesizer, "solve_instance", times_out)
    rep, cm = line4(11)
    with pytest.raises(SynthesisTimeout) as caught:
        hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT))
    record, check = caught.value.stats
    assert (record["phase"], record["status"]) == ("exact", "sat")
    assert (check["phase"], check["k"], check["status"]) == ("primary", record["k"], "timeout")


@pytest.mark.parametrize("mode, doubly", ALL_MODES)
def test_k_max_bounds_the_search(mode, doubly, triangle_rep, line3):
    # the triangle takes 5 CNOTs at depth 5 in every mode
    result = hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=doubly, k_max=5))
    assert (result.cnot_count, result.cnot_depth) == (5, 5)
    with pytest.raises(NoSolutionWithinKmax):
        hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=doubly, k_max=4))
    found = search(triangle_rep, line3, mode, doubly, k_max=4)
    assert (found.status, found.floor) == ("unsat", 5)


def test_k4_count_doubly_search_stays_small():
    # the instance of the SAT chain's K4 work bound
    cm = CouplingMap.complete(4)
    rep = extract_rep(random_cnot_rz_circuit(random.Random(5), 4, 9, 4, cm))
    result = hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True))
    assert (result.cnot_count, result.cnot_depth) == (6, 5) and result.optimal
    assert sum(result.stats[0]["states"]) < 5_000


def test_bytes_per_state():
    # STATE_CAP is chosen from this: K4 Random(7) of the hard set, about
    # 8.5K states
    cm = CouplingMap.complete(4)
    rep = extract_rep(random_cnot_rz_circuit(random.Random(7), 4, 24, 5, cm))
    problem = synthesis_problem(rep, cm)
    tracemalloc.start()
    try:
        found = exact_search(*problem, Mode.CNOT, False, 100, time.monotonic() + 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.status == "sat" and found.cost == (7, 0)
    assert peak / sum(found.states) < 200


def test_many_terms_keep_the_search_within_its_cap_and_deadline(monkeypatch):
    # K5 Random(2) of 60 CNOTs and 60 Rz: 24 distinct terms, so a mask can
    # be as large as 2**24 - 1, and millions of states to the optimum
    cm = CouplingMap.complete(5)
    rep = extract_rep(random_cnot_rz_circuit(random.Random(2), 5, 60, 60, cm))
    problem = synthesis_problem(rep, cm)
    assert len(problem[0].table.unique_terms) == 24
    monkeypatch.setattr(exact, "STATE_CAP", 20_000)
    tracemalloc.start()
    try:
        found = exact_search(*problem, Mode.CNOT, False, 100, time.monotonic() + 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # K5 has 20 directed edges, one move each
    assert found.status == "capped" and 20_000 < sum(found.states) <= 20_020
    assert peak / sum(found.states) < 200
    # past the cap the SAT chain runs, and ends at the deadline
    start = time.monotonic()
    with pytest.raises(SynthesisTimeout) as caught:
        hopps(SynthesisRequest(rep, cm, timeout_s=0.5))
    assert time.monotonic() - start < 1.5
    assert caught.value.stats[0]["status"] == "capped"
    assert caught.value.stats[-1]["status"] == "timeout"
    # at the real cap, the search itself ends at the deadline
    monkeypatch.undo()
    start = time.monotonic()
    with pytest.raises(SynthesisTimeout) as caught:
        hopps(SynthesisRequest(rep, cm, timeout_s=0.3))
    assert time.monotonic() - start < 1.0
    (record,) = caught.value.stats
    assert (record["phase"], record["status"]) == ("exact", "timeout")


@pytest.mark.skipif(not REF_SOLVER.exists(), reason="reference solver not found")
def test_the_witness_gives_the_circuit_under_either_backend(monkeypatch, triangle_rep, line3):
    for mode, doubly in ALL_MODES:
        monkeypatch.delenv("HOPPS_SOLVER", raising=False)
        internal = hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=doubly))
        monkeypatch.setenv("HOPPS_SOLVER", str(REF_SOLVER))
        external = hopps(SynthesisRequest(triangle_rep, line3, mode=mode, doubly=doubly))
        assert external.circuit == internal.circuit and external.steps == internal.steps
        assert [e["phase"] for e in external.stats] == ["exact", "primary"]


def test_the_engines_agree_on_the_dense_hard_set_instances_sat_solves_quickly():
    # ROADMAP hard set: K4 and the 2x2 grid, 24 CNOTs and 5 Rz; seeds 5-7,
    # whose SAT chains each take well under a second
    for cm in (CouplingMap.complete(4), CouplingMap.grid(2, 2)):
        for seed in (5, 6, 7):
            rep = extract_rep(random_cnot_rz_circuit(random.Random(seed), 4, 24, 5, cm))
            by_search = hopps(SynthesisRequest(rep, cm))
            by_sat = sat_chain(SynthesisRequest(rep, cm))
            assert by_search.cnot_count == by_sat.cnot_count
            assert canonical_equal(canonicalize(extract_rep(by_search.circuit)),
                                   canonicalize(rep))


if __name__ == "__main__":
    rows = [dict(map=name, seed=seed, **oracle_optima(rep, cm))
            for name, seed, cm, rep in small_set()]
    GOLDEN.write_text("[\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n]\n")
    print(f"wrote {len(rows)} rows to {GOLDEN}", file=sys.stderr)
