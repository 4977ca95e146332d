#!/usr/bin/env python3
"""Randomized optimality experiment: synthesizer vs exhaustive oracle.

Generates topology-legal random {CNOT, Rz} circuits, extracts their
phase-polynomial representations, and compares count-, depth-, and doubly
optimal synthesis against the breadth-first oracle, reporting per-instance
metrics and timing.  Each instance's count and depth floors
(``lower_bound`` of the merged rep) are printed next to the oracle optima;
a floor above an optimum is a mismatch (verdict ``FLOOR>OPT``), and any
mismatch makes the exit status nonzero.  The summary line also gives two
measures of search effort that do not depend on the machine, summed over
the stats of every synthesis: the states the exact search stored, and the
SAT conflicts and decisions, split into phase 1 (the primary metric, which
includes the call that checks the search's witness) and the phase-2
descent of a SAT chain.  An external backend (``HOPPS_SOLVER``) reports no
SAT counters, and the summary line says so instead.

    python scripts/random_suite.py --count 30 --seed 7 --max-qubits 4
"""
import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from paritysat.encoder import Mode
from paritysat.ir import Circuit, Cnot, CouplingMap, Rz, cnot_count, cnot_depth, validate_topology
from paritysat.oracle import oracle_min_count, oracle_min_depth
from paritysat.phasepoly import canonical_equal, canonicalize, extract_rep
from paritysat.synthesizer import SynthesisRequest, hopps, lower_bound, merged_rep

TOPOLOGIES = {
    "line": CouplingMap.line,
    "ring": CouplingMap.ring,
    "complete": CouplingMap.complete,
}


def random_rep(rng, n, cm, n_cnots, n_rz):
    pairs = list(cm.directed_edges())
    kinds = ["c"] * n_cnots + ["r"] * n_rz
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "c":
            gates.append(Cnot(*rng.choice(pairs)))
        else:
            gates.append(Rz(rng.uniform(0.05, 3.0), rng.randrange(n)))
    return extract_rep(Circuit(n, tuple(gates)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-qubits", type=int, default=4)
    parser.add_argument("--max-cnots", type=int, default=5)
    parser.add_argument("--max-terms", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds for each whole synthesis (one per mode)")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    header = (f"{'#':>3} {'n':>2} {'topology':>9} {'gen':>4} "
              f"{'count':>5} {'depth':>5} {'d@c':>4} {'c@d':>4} "
              f"{'c_min':>5} {'c_lb':>4} {'d_min':>5} {'d_lb':>4} "
              f"{'oracle_s':>8} {'synth_s':>8} verdict")
    print(header)
    print("-" * len(header))
    mismatches = 0
    total_synth = 0.0
    conflicts = {"primary": 0, "descent": 0}
    decisions = 0
    states = 0
    reported = False
    for index in range(args.count):
        n = rng.randint(2, args.max_qubits)
        topo = rng.choice(list(TOPOLOGIES))
        cm = TOPOLOGIES[topo](n)
        gen_cnots = rng.randint(0, args.max_cnots)
        rep = random_rep(rng, n, cm, gen_cnots, rng.randint(0, args.max_terms))

        t0 = time.monotonic()
        best_count, count_circs = oracle_min_count(rep, cm)
        best_depth, depth_circs = oracle_min_depth(rep, cm)
        oracle_s = time.monotonic() - t0

        t0 = time.monotonic()
        by_count = hopps(SynthesisRequest(rep, cm, mode=Mode.CNOT, doubly=True,
                                          timeout_s=args.timeout))
        by_depth = hopps(SynthesisRequest(rep, cm, mode=Mode.DEPTH, doubly=True,
                                          timeout_s=args.timeout))
        synth_s = time.monotonic() - t0
        total_synth += synth_s
        for entry in by_count.stats + by_depth.stats:
            states += sum(entry.get("states", ()))
            if entry["phase"] in conflicts:  # neither a floor's cut nor the search calls SAT
                reported = reported or "conflicts" in entry
                conflicts[entry["phase"]] += entry.get("conflicts", 0)
            decisions += entry.get("decisions", 0)

        want_depth_at_count = min(cnot_depth(c) for c in count_circs)
        want_count_at_depth = min(cnot_count(c) for c in depth_circs)
        merged = merged_rep(rep)  # a term whose rotations cancel needs no CNOT
        count_floor = lower_bound(merged, Mode.CNOT)
        depth_floor = lower_bound(merged, Mode.DEPTH)
        floors_ok = count_floor <= best_count and depth_floor <= best_depth
        ok = (floors_ok
              and by_count.cnot_count == best_count
              and by_depth.cnot_depth == best_depth
              and by_count.cnot_depth == want_depth_at_count
              and by_depth.cnot_count == want_count_at_depth
              and validate_topology(by_count.circuit, cm)
              and canonical_equal(canonicalize(extract_rep(by_count.circuit)),
                                  canonicalize(rep)))
        if not ok:
            mismatches += 1
        verdict = "ok" if ok else "MISMATCH" if floors_ok else "FLOOR>OPT"
        print(f"{index:>3} {n:>2} {topo:>9} {gen_cnots:>4} "
              f"{by_count.cnot_count:>5} {by_depth.cnot_depth:>5} "
              f"{by_count.cnot_depth:>4} {by_depth.cnot_count:>4} "
              f"{best_count:>5} {count_floor:>4} {best_depth:>5} {depth_floor:>4} "
              f"{oracle_s:>8.2f} {synth_s:>8.2f} {verdict}")
    effort = (f"SAT conflicts {sum(conflicts.values())} (phase 1 {conflicts['primary']}, "
              f"descent {conflicts['descent']}), decisions {decisions}" if reported
              else "no SAT counters (the solver backend reported none)")
    print(f"\n{args.count - mismatches}/{args.count} matched the oracle; "
          f"synthesis time {total_synth:.1f} s; exact search states {states}; {effort}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
