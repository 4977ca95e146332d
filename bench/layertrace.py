"""Per-layer numbers, timed from outside the program.

A ``Tracer`` replaces module attributes of ``paritysat`` with timing
wrappers and puts the originals back on ``uninstall``.  It wraps the
attribute the caller looks up: ``synthesizer`` imports ``solve_instance``
by name, so ``paritysat.synthesizer.solve_instance`` is wrapped, not
``paritysat.sat.solver.solve_instance``.  Calls made inside worker
processes are not seen.
"""
from __future__ import annotations

import time
import timeit
from collections import Counter
from types import SimpleNamespace
from typing import Callable

ENCODER_FUNCTIONS = ("encode_common", "add_cnot_mode", "add_depth_mode",
                     "add_layer_assignment", "add_depth_limit", "add_cnot_budget")
SAT_COUNTERS = ("decisions", "conflicts", "propagations", "learned")
PHASE2 = ("layering", "descent")


class Tracer:
    """Spans per layer: calls, inclusive seconds, and named counters."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_level_s = 0.0        # time in spans with no traced caller
        self.hook_s = 0.0             # time in the before and after hooks
        self.synth_keys: set = set()
        self._open: list[float] = []  # seconds of nested spans, per open span
        self._patched: list[tuple] = []

    def wrap(self, module, name: str, layer: str,
             before: Callable | None = None, after: Callable | None = None) -> None:
        original = getattr(module, name)

        def traced(*args, **kwargs):
            if before is not None:
                t = time.perf_counter()
                before(*args, **kwargs)
                self.hook_s += time.perf_counter() - t
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._open.pop()
                self.seconds[layer] += took
                self.calls[layer] += 1
                if self._open:
                    self._open[-1] += took
                else:
                    self.top_level_s += took
            if after is not None:
                t = time.perf_counter()
                after(result, took, *args, **kwargs)
                self.hook_s += time.perf_counter() - t
            return result

        setattr(module, name, traced)
        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)


def install(tracer: Tracer, prog) -> None:
    """Wrap every layer boundary the three workloads cross.

    ``prog`` holds the imported ``paritysat`` modules by short name.
    """
    syn = prog.synthesizer

    def synth_key(req) -> None:
        # the resynthesis-cache key: angles play no part in synthesis
        table = prog.phasepoly.merged_table(req.rep)
        n = req.rep.n
        edges = frozenset(e for e in req.coupling.edges if max(e) < n)
        tracer.synth_keys.add((req.rep.initial.rows, req.rep.final.rows,
                               frozenset(table.terms), edges, req.mode, req.doubly))

    def sat_call(inst, *args, **kwargs) -> None:
        tracer.counts["encoder.vars"] += inst.num_vars
        tracer.counts["encoder.clauses"] += inst.num_clauses

    def sat_done(model, took, inst, *args, stats_out=None, **kwargs) -> None:
        tracer.counts["sat.sat_calls" if model is not None else "sat.unsat_calls"] += 1
        if stats_out is None:
            return
        for key in SAT_COUNTERS:
            tracer.counts[f"sat.{key}"] += stats_out.get(key, 0)
        if stats_out.get("phase") in PHASE2:
            tracer.counts["synth.phase2_calls"] += 1
            tracer.seconds["synth.phase2"] += took
        elif stats_out.get("phase") == "primary":
            tracer.counts["synth.primary_calls"] += 1

    tracer.wrap(prog.qasm, "parse_qasm", "qasm.parse")
    tracer.wrap(prog.qasm, "write_qasm", "qasm.write")
    tracer.wrap(prog.peephole, "extract_rep", "phasepoly.extract")
    for name in ENCODER_FUNCTIONS:
        tracer.wrap(syn, name, "encoder")
    tracer.wrap(syn, "solve_instance", "sat", before=sat_call, after=sat_done)
    tracer.wrap(syn, "hopps", "synth", before=synth_key)
    tracer.wrap(prog.peephole, "hopps", "synth", before=synth_key)
    tracer.wrap(syn, "decode_circuit", "synth.decode")
    tracer.wrap(prog.peephole, "find_blocks", "peephole.scan")
    tracer.wrap(prog.peephole, "splice_blocks", "peephole.splice")
    tracer.wrap(prog.blockwise, "partition", "blockwise.partition")
    tracer.wrap(prog.blockwise, "sample_blocks", "blockwise.partition")
    tracer.wrap(prog.blockwise, "run_parallel", "blockwise.run_parallel")
    tracer.wrap(prog.blockwise, "splice_blocks", "blockwise.splice")


def solver_metrics(t: Tracer) -> dict:
    """Metrics of the qasm, phasepoly, encoder, sat and synthesizer layers."""
    calls = t.calls["synth"]
    distinct = len(t.synth_keys)
    return {
        "qasm.parse_s": (t.seconds["qasm.parse"], "s"),
        "qasm.write_s": (t.seconds["qasm.write"], "s"),
        "phasepoly.extract_s": (t.seconds["phasepoly.extract"], "s"),
        "phasepoly.extract_calls": (t.calls["phasepoly.extract"], "count"),
        "encoder.seconds": (t.seconds["encoder"], "s"),
        "encoder.calls": (t.calls["encoder"], "count"),
        "encoder.vars": (t.counts["encoder.vars"], "count"),
        "encoder.clauses": (t.counts["encoder.clauses"], "count"),
        "sat.seconds": (t.seconds["sat"], "s"),
        "sat.calls": (t.calls["sat"], "count"),
        "sat.sat_calls": (t.counts["sat.sat_calls"], "count"),
        "sat.unsat_calls": (t.counts["sat.unsat_calls"], "count"),
        **{f"sat.{k}": (t.counts[f"sat.{k}"], "count") for k in SAT_COUNTERS},
        "synth.calls": (calls, "count"),
        "synth.seconds": (t.seconds["synth"], "s"),
        "synth.self_s": (t.seconds["synth"] - t.seconds["encoder"] - t.seconds["sat"], "s"),
        "synth.decode_s": (t.seconds["synth.decode"], "s"),
        "synth.primary_calls": (t.counts["synth.primary_calls"], "count"),
        "synth.phase2_calls": (t.counts["synth.phase2_calls"], "count"),
        "synth.phase2_s": (t.seconds["synth.phase2"], "s"),
        "synth.distinct_keys": (distinct, "count"),
        "synth.repeat_share": (1 - distinct / calls if calls else 0.0, "share"),
    }


def peephole_metrics(t: Tracer, reports: list) -> dict:
    """``reports`` holds the (original, replacement) block pairs per circuit."""
    pairs = [pair for report in reports for pair in report]
    statuses = Counter(new.status for _, new in pairs)
    return {
        "peephole.scan_s": (t.seconds["peephole.scan"], "s"),
        "peephole.splice_s": (t.seconds["peephole.splice"], "s"),
        "peephole.blocks": (len(pairs), "count"),
        "peephole.max_block_qubits": (max((len(old.qubits) for old, _ in pairs), default=0),
                                      "count"),
        **{f"peephole.{s}": (statuses[s], "count")
           for s in ("resynthesized", "kept_original", "failed_budget",
                     "skipped_disconnected")},
    }


def blockwise_metrics(t: Tracer, traces: list) -> dict:
    """``traces`` holds the iteration records per circuit.  Dispatch time
    needs a second round at jobs=1, so ``run.py`` adds it."""
    records = [r for trace in traces for r in trace]
    return {
        "blockwise.partition_s": (t.seconds["blockwise.partition"], "s"),
        "blockwise.splice_s": (t.seconds["blockwise.splice"], "s"),
        "blockwise.iterations": (len(records), "count"),
        "blockwise.rolled_back": (sum(r.rolled_back for r in records), "count"),
        "blockwise.blocks_attempted": (sum(r.blocks_attempted for r in records), "count"),
        "blockwise.blocks_improved": (sum(r.blocks_improved for r in records), "count"),
    }


def wrapper_cost_s(calls: int = 50_000) -> float:
    """Seconds one wrapped call costs beyond a bare one: a no-op, best of 3."""
    module = SimpleNamespace(noop=lambda: None)
    bare = module.noop
    Tracer().wrap(module, "noop", "noop")
    best = [min(timeit.repeat(f, number=calls, repeat=3)) for f in (module.noop, bare)]
    return max(best[0] - best[1], 0.0) / calls


def overhead_s(t: Tracer) -> float:
    """Estimated time the wrappers added: calls times the cost of one
    wrapped call, plus the time in hooks."""
    return sum(t.calls.values()) * wrapper_cost_s() + t.hook_s
