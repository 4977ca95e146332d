#!/usr/bin/env python3
"""Benchmark of paritysat: optimal synthesis, peephole and blockwise runs.

    python3 bench/run.py --workload synth --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Each round runs in a fresh interpreter (``workloads.py``), which sets up,
runs every item of the workload once and checks the outputs, so nothing
the program keeps in memory carries over from one round to the next.
Rounds repeat until ``--seconds`` would be exceeded, and always at least
one runs.  Set-up (import, input generation and one warm-up item) is timed
in each of those processes and reported as the median of at least five.
With ``--trace 1`` one traced round runs instead, and per-layer numbers
are reported.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("synth", "peephole", "blockwise-qaoa")
SETUP_REPEATS = 5
QAOA_JOBS = 2
ROUND_TIMEOUT_S = 150


def child(workload: str, seed: int, jobs: int = QAOA_JOBS, trace: bool = False,
          setup_only: bool = False) -> dict:
    """One round (or one set-up) in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=ROUND_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def verdict(rounds: list[dict]) -> dict:
    """Sum per-round judgments; every round must give the same outputs."""
    totals = [tuple(r["totals"]) for r in rounds]
    wrong = sum(r["wrong"] for r in rounds)
    if len(set(totals)) > 1:
        wrong += 1
        print(f"rounds gave different outputs: {totals}", file=sys.stderr)
    return {"attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds), "wrong": wrong}


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Rounds until ``seconds`` of rounds would be exceeded; times are
    medians over rounds, and each item's time is its median over rounds."""
    rounds = []
    while True:
        rounds.append(child(workload, seed))
        walls = [r["wall_s"] for r in rounds]
        if sum(walls) + statistics.mean(walls) > seconds:
            break
    print(f"round wall seconds: {[round(w, 3) for w in walls]}", file=sys.stderr)
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_REPEATS:
        setups.append(child(workload, seed, setup_only=True)["setup_s"])
    per_item = [statistics.median(times) for times in zip(*(r["item_s"] for r in rounds))]
    count, depth = rounds[0]["totals"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "item_p50_s": (statistics.median(per_item), "s"),
        "item_p90_s": (statistics.quantiles(per_item, n=10, method="inclusive")[-1], "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
        "out_cnot_count": (count, "count"),
        "out_cnot_depth": (depth, "count"),
    }
    return metrics, verdict(rounds)


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """One traced round.  Calls inside worker processes are invisible to
    the parent, so blockwise-qaoa also traces a round at jobs=1 and takes
    the split below the blockwise layer from it."""
    main_round = child(workload, seed, trace=True)
    rounds = [main_round]
    metrics = {name: tuple(v) for name, v in main_round["layers"].items()}
    dispatch = 0.0
    if workload == "blockwise-qaoa":
        serial = child(workload, seed, jobs=1, trace=True)
        rounds.append(serial)
        metrics.update({name: tuple(v) for name, v in serial["layers"].items()
                        if not name.startswith(("blockwise.", "peephole.", "trace."))})
        # the parent's time in run_parallel beyond a perfect split of the
        # workers' compute, which is the jobs=1 time in run_parallel
        dispatch = main_round["run_parallel_s"] - serial["run_parallel_s"] / QAOA_JOBS
    metrics["blockwise.dispatch_s"] = (dispatch, "s")
    return metrics, verdict(rounds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paritysat" / "__init__.py").is_file():
        print(f"bench: {SRC}/paritysat not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    if args.trace:
        metrics, result = traced(args.workload, args.seed)
    else:
        metrics, result = measure(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15} {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
