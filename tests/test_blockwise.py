import dataclasses
import json
import multiprocessing
import os
import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import pytest

import paritysat.blockwise
import paritysat.peephole
from paritysat.blockwise import (
    BlockwiseConfig,
    iterate_optimize,
    partition,
    run_parallel,
    sample_blocks,
)
from paritysat.ir import (
    Circuit,
    Cnot,
    CouplingMap,
    Opaque,
    Rz,
    cnot_count,
    cnot_depth,
    induced_coupling,
    validate_topology,
)
from paritysat.encoder import Mode
from paritysat.peephole import (
    Block,
    at_floors,
    find_blocks,
    peephole_with_report,
    resynth_block,
    splice_blocks,
)
from paritysat.phasepoly import equivalent, merged_table
from paritysat.synthesizer import SynthesisTimeout, synthesis_key

from testkit import random_cnot_rz_circuit

GOLDEN = Path(__file__).parent / "golden" / "blockwise_repeated_skeletons.json"


@pytest.fixture(autouse=True)
def no_worker_outlives_the_test():
    yield
    assert multiprocessing.active_children() == []


def ring8_with_redundancy():
    """Nearest-neighbor rotation layers on a 2x4 grid plus a SWAP*SWAP no-op."""
    grid = CouplingMap.grid(2, 4)
    gates = []
    for a, b in sorted(grid.edges):
        gates += [Cnot(a, b), Rz(0.4, b), Cnot(a, b)]
    swap = [Cnot(1, 2), Cnot(2, 1), Cnot(1, 2)]
    gates[6:6] = swap + swap
    return Circuit(8, tuple(gates)), grid


def test_config_validation():
    with pytest.raises(ValueError):
        BlockwiseConfig(sample_fraction=0.0)
    with pytest.raises(ValueError, match="iteration counts must be nonnegative"):
        BlockwiseConfig(iters_full=-1)
    with pytest.raises(ValueError, match="job count must be at least 1"):
        BlockwiseConfig(jobs=0)


def test_partition_single_small_block():
    c = random_cnot_rz_circuit(random.Random(0), 3, 5, 2)
    cfg = BlockwiseConfig(max_block_qubits=3, max_block_depth=50)
    blocks = partition(c, cfg)
    assert len(blocks) == 1


def test_partition_respects_qubit_cap():
    c = Circuit(4, (Cnot(0, 1), Cnot(1, 2), Cnot(2, 3)))
    cfg = BlockwiseConfig(max_block_qubits=3)
    blocks = partition(c, cfg)
    assert len(blocks) >= 2
    assert all(len(b.qubits) <= 3 for b in blocks)


def test_partition_respects_depth_cap():
    gates = tuple(Cnot(0, 1) if i % 2 == 0 else Cnot(1, 0) for i in range(10))
    c = Circuit(2, gates)
    cfg = BlockwiseConfig(max_block_qubits=3, max_block_depth=4)
    blocks = partition(c, cfg)
    assert all(cnot_depth(b.circuit) <= 4 for b in blocks)
    assert len(blocks) >= 3


def test_partition_reassembles_equivalently():
    rng = random.Random(9)
    for _ in range(5):
        c = random_cnot_rz_circuit(rng, 5, 10, 4)
        cfg = BlockwiseConfig(max_block_qubits=3, max_block_depth=5)
        blocks = partition(c, cfg)
        covered = sorted(i for b in blocks for i in b.span)
        cnot_rz = [i for i, g in enumerate(c.gates) if not hasattr(g, "name")]
        assert covered == cnot_rz
        assert equivalent(splice_blocks(c, blocks), c)


def test_sample_full_fraction_covers_partition():
    c = random_cnot_rz_circuit(random.Random(3), 4, 8, 3)
    cfg = BlockwiseConfig(max_block_qubits=3, sample_fraction=1.0, seed=5)
    rng = random.Random(cfg.seed)
    blocks = sample_blocks(c, cfg, rng)
    assert sorted(i for b in blocks for i in b.span) == list(range(len(c.gates)))


def test_sample_deterministic_and_seed_sensitive():
    c = random_cnot_rz_circuit(random.Random(8), 5, 40, 20)
    cfg = BlockwiseConfig(max_block_qubits=3, sample_fraction=0.5)
    pick = lambda seed: tuple(b.span for b in sample_blocks(c, cfg, random.Random(seed)))
    assert pick(1) == pick(1)
    assert any(pick(s) != pick(1) for s in range(2, 8))


def _double(block):
    return block


def _boom(block):
    raise RuntimeError("worker exploded")


def test_run_parallel_matches_sequential_and_isolates_failures():
    c = random_cnot_rz_circuit(random.Random(4), 4, 8, 2)
    cfg = BlockwiseConfig(max_block_qubits=2)
    blocks = partition(c, cfg)
    assert run_parallel(blocks, _double, 1) == list(blocks)
    assert run_parallel(blocks, _double, 4) == list(blocks)
    fallback = run_parallel(blocks, _boom, 1)
    assert fallback == list(blocks)
    with pytest.raises(ValueError):
        run_parallel(blocks, _double, 0)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_parallel_records_the_exception_type(jobs):
    c = random_cnot_rz_circuit(random.Random(4), 4, 8, 2)
    blocks = partition(c, BlockwiseConfig(max_block_qubits=2))
    assert len(blocks) >= 2
    for block in run_parallel(blocks, _boom, jobs):
        assert block.status == "original"
        assert block.error == "RuntimeError"


def test_iterate_optimize_converged_input_stops_early():
    c = Circuit(3, (Cnot(0, 1), Rz(0.7, 1)))
    cm = CouplingMap.line(3)
    cfg = BlockwiseConfig(iters_full=5, iters_sample=0, per_block_timeout=30)
    out, trace = iterate_optimize(c, cm, cfg)
    full = [r for r in trace if r.stage == "full"]
    assert len(full) == 1
    assert out.gates == c.gates or cnot_count(out) == cnot_count(c)


def test_iterate_optimize_reduces_redundant_swaps():
    c, grid = ring8_with_redundancy()
    cfg = BlockwiseConfig(max_block_qubits=3, iters_full=5, iters_sample=2,
                          seed=1, per_block_timeout=30)
    out, trace = iterate_optimize(c, grid, cfg)
    counts = [r.cnot_count for r in trace]
    assert trace[0].cnot_count < cnot_count(c)  # strict decrease in iteration 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))  # monotone
    assert equivalent(out, c)
    assert validate_topology(out, grid)


def test_iterate_optimize_identical_across_jobs():
    c, grid = ring8_with_redundancy()
    runs = []
    for jobs in (1, 8):
        cfg = BlockwiseConfig(max_block_qubits=3, iters_full=3, iters_sample=2,
                              seed=7, jobs=jobs, per_block_timeout=30)
        out, _ = iterate_optimize(c, grid, cfg)
        runs.append(out.gates)
    assert runs[0] == runs[1]


def repeated_skeletons(n: int, layers: int, seed: int) -> tuple[Circuit, CouplingMap]:
    """Layers of CNOT-Rz-CNOT on every edge of a line, each angle distinct,
    plus a redundant CNOT pair per edge so that every block can improve."""
    rng = random.Random(seed)
    line = CouplingMap.line(n)
    gates = []
    for _ in range(layers):
        for a, b in sorted(line.edges):
            gates += [Cnot(a, b), Rz(rng.uniform(0.1, 3.0), b), Cnot(a, b),
                      Cnot(b, a), Cnot(b, a)]
    return Circuit(n, tuple(gates)), line


def test_each_distinct_block_problem_is_synthesized_once(monkeypatch):
    keys = []
    hopps = paritysat.peephole.hopps

    def counted(req):
        keys.append(synthesis_key(req.rep, req.coupling))
        return hopps(req)

    monkeypatch.setattr(paritysat.peephole, "hopps", counted)
    c, line = repeated_skeletons(6, 3, seed=2)
    cfg = BlockwiseConfig(max_block_qubits=3, iters_full=3, iters_sample=3,
                          seed=4, per_block_timeout=30)
    out, trace = iterate_optimize(c, line, cfg)
    attempted = sum(r.blocks_attempted for r in trace)
    assert len(keys) < attempted
    assert sum(r.cache_hits for r in trace) == attempted - len(keys)
    assert len(set(keys)) == len(keys)
    assert all(r.blocks_failed == 0 for r in trace)
    assert equivalent(out, c)


@pytest.mark.parametrize("exc, raised", [(RuntimeError, True), (SynthesisTimeout, False)])
def test_failed_synthesis_is_inherited_and_never_cached(monkeypatch, exc, raised):
    calls = []

    def fail(req):
        calls.append(req)
        raise exc("no synthesis")

    seen = []
    engine = paritysat.blockwise.resynthesize

    def recorded(blocks, *args):
        replaced, hits = engine(blocks, *args)
        seen.append((blocks, replaced))
        return replaced, hits

    monkeypatch.setattr(paritysat.peephole, "hopps", fail)
    monkeypatch.setattr(paritysat.blockwise, "resynthesize", recorded)
    c, line = repeated_skeletons(4, 2, seed=3)
    cfg = BlockwiseConfig(max_block_qubits=2, iters_full=0, iters_sample=2,
                          sample_fraction=1.0, seed=1)
    out, trace = iterate_optimize(c, line, cfg)
    assert out.gates == c.gates
    assert len(trace) == len(seen) == 2
    floored = 0
    for record, (blocks, replaced) in zip(trace, seen):
        at_floor = [at_floors(b, merged_table(b.rep)) for b in blocks]
        floored += sum(at_floor)
        for old, new, kept in zip(blocks, replaced, at_floor):
            assert new.gates == old.gates
            if kept:  # never reaches the worker
                assert (new.status, new.error) == ("kept_original", None)
            elif raised:  # a worker that raised counts as failed
                assert (new.status, new.error) == ("original", exc.__name__)
            else:  # a timeout is failed_budget
                assert (new.status, new.error) == ("failed_budget", None)
        assert record.blocks_failed == \
            (record.blocks_attempted - sum(at_floor) if raised else 0)
        assert 0 < record.cache_hits < record.blocks_attempted
    assert 0 < floored < sum(r.blocks_attempted for r in trace)
    assert len(calls) == sum(r.blocks_attempted - r.cache_hits for r in trace)


def test_unproven_skeleton_is_shared_within_one_iteration_only(monkeypatch):
    keys = []
    hopps = paritysat.peephole.hopps

    def cut_short(req):
        keys.append(synthesis_key(req.rep, req.coupling))
        return dataclasses.replace(hopps(req), optimal=False)

    monkeypatch.setattr(paritysat.peephole, "hopps", cut_short)
    c, line = repeated_skeletons(4, 2, seed=3)
    cfg = BlockwiseConfig(max_block_qubits=2, iters_full=0, iters_sample=2,
                          sample_fraction=1.0, seed=1, per_block_timeout=30)
    out, trace = iterate_optimize(c, line, cfg)
    assert len(trace) == 2 and all(r.cache_hits > 0 for r in trace)
    assert len(keys) == sum(r.blocks_attempted - r.cache_hits for r in trace)
    assert len(set(keys)) < len(keys)  # the second iteration synthesizes again
    assert equivalent(out, c)


@pytest.mark.parametrize("mode", [Mode.CNOT, Mode.DEPTH])
@pytest.mark.parametrize("doubly", [False, True])
def test_one_iteration_equals_resynthesizing_every_block(mode, doubly):
    def reference(circuit, blocks):
        return splice_blocks(circuit, [resynth_block(b, line, mode, doubly, timeout_s=30)
                                       for b in blocks]).gates

    c, line = repeated_skeletons(5, 2, seed=6)
    cfg = BlockwiseConfig(max_block_qubits=3, iters_full=1, iters_sample=0,
                          mode=mode, doubly=doubly, per_block_timeout=30)
    out, trace = iterate_optimize(c, line, cfg)
    assert not trace[0].rolled_back and trace[0].cache_hits > 0
    assert out.gates == reference(c, partition(c, cfg))
    # a peephole pass: opaque gates cut the same circuit into 2-qubit blocks
    # that repeat one key
    gates = []
    for i, g in enumerate(c.gates):
        gates.append(g)
        if i % 5 == 4:  # the last of one edge's five gates
            gates.append(Opaque("h", (g.target,)))
    walled = Circuit(5, tuple(gates))
    out, pairs = peephole_with_report(walled, line, mode, doubly, timeout_s=30)
    keys = {synthesis_key(old.rep, induced_coupling(line, old.qubits)) for old, _ in pairs}
    assert len(keys) < len(pairs)
    assert out.gates == reference(walled, find_blocks(walled))


def test_cancelling_rotations_give_a_different_key():
    def skeleton(a, b, alpha, beta):
        return [Cnot(a, b), Rz(alpha, b), Cnot(a, b), Cnot(a, b), Rz(beta, b), Cnot(a, b)]

    # same gates on both pairs; on (2, 3) the two rotations cancel, so the
    # merged table has no term left and that block needs no CNOT at all
    c = Circuit(4, tuple(skeleton(0, 1, 0.3, 0.4) + skeleton(2, 3, 0.6, -0.6)))
    line = CouplingMap.line(4)
    cfg = BlockwiseConfig(max_block_qubits=2, iters_full=1, iters_sample=0,
                          per_block_timeout=30)
    out, trace = iterate_optimize(c, line, cfg)
    assert trace[0].cache_hits == 0
    reference = splice_blocks(c, [resynth_block(b, line, Mode.CNOT, False, timeout_s=30)
                                  for b in partition(c, cfg)])
    assert out.gates == reference.gates
    assert cnot_count(out) == 2
    assert equivalent(out, c)


def test_iterate_optimize_rejects_bad_topology():
    c = Circuit(3, (Cnot(0, 2),))
    cm = CouplingMap.line(3)
    with pytest.raises(ValueError):
        iterate_optimize(c, cm, BlockwiseConfig())


def test_single_block_timeout_leaves_it_unchanged():
    from paritysat.encoder import Mode
    from paritysat.peephole import resynth_block

    # two redundant-pair blocks separated by qubits; starve only the first
    c = Circuit(4, (Cnot(0, 1), Cnot(0, 1), Cnot(2, 3), Cnot(2, 3)))
    cm = CouplingMap.line(4)
    cfg = BlockwiseConfig(max_block_qubits=2)
    blocks = partition(c, cfg)
    assert len(blocks) == 2
    starved = blocks[0]

    def worker(block):
        timeout = 0.0 if block.span == starved.span else 30.0
        return resynth_block(block, cm, Mode.CNOT, doubly=True, timeout_s=timeout)

    results = run_parallel(blocks, worker, jobs=1)
    assert results[0].gates == starved.gates
    assert results[0].status == "failed_budget"
    assert cnot_count(results[1].circuit) == 0
    spliced = splice_blocks(c, results)
    assert cnot_count(spliced) == 2
    assert equivalent(spliced, c)


def many_block_problems() -> tuple[Circuit, CouplingMap, BlockwiseConfig]:
    """A run at jobs 2 that sends blocks to the workers in more than one
    iteration."""
    line = CouplingMap.line(6)
    c = random_cnot_rz_circuit(random.Random(1), 6, 40, 15, line)
    cfg = BlockwiseConfig(max_block_qubits=3, iters_full=2, iters_sample=2, seed=7,
                          jobs=2, per_block_timeout=30)
    return c, line, cfg


def watch_dispatches(monkeypatch, after=None) -> list[list[Block]]:
    """Record the blocks ``iterate_optimize`` hands ``run_parallel``, and
    what comes back, per dispatch."""
    seen = []
    dispatch = paritysat.blockwise.run_parallel

    def watched(blocks, worker_fn, jobs):
        out = dispatch(blocks, worker_fn, jobs)
        seen.append(out)
        if after is not None:
            after()
        return out

    monkeypatch.setattr(paritysat.blockwise, "run_parallel", watched)
    return seen


def count_pools(monkeypatch) -> list[int]:
    opened = []
    executor = paritysat.blockwise.ProcessPoolExecutor

    def counted(*args, **kwargs):
        opened.append(1)
        return executor(*args, **kwargs)

    monkeypatch.setattr(paritysat.blockwise, "ProcessPoolExecutor", counted)
    return opened


def test_one_call_opens_one_pool(monkeypatch):
    opened = count_pools(monkeypatch)
    seen = watch_dispatches(monkeypatch)
    c, line, cfg = many_block_problems()
    out, trace = iterate_optimize(c, line, cfg)
    assert sum(len(blocks) >= 2 for blocks in seen) >= 2
    assert len(opened) == 1
    assert multiprocessing.active_children() == []
    assert equivalent(out, c)


def test_a_call_that_raises_shuts_its_pool_down(monkeypatch):
    opened = count_pools(monkeypatch)
    splices = []
    splice = paritysat.blockwise.splice_blocks

    def second_raises(*args):
        splices.append(1)
        if len(splices) == 2:
            raise RuntimeError("splice exploded")
        return splice(*args)

    monkeypatch.setattr(paritysat.blockwise, "splice_blocks", second_raises)
    c, line, cfg = many_block_problems()
    with pytest.raises(RuntimeError, match="splice exploded"):
        iterate_optimize(c, line, cfg)
    assert len(opened) == 1
    assert multiprocessing.active_children() == []


def _exit_until(marker: Path, block, **kwargs):
    if not marker.exists():
        os._exit(1)
    return resynth_block(block, **kwargs)


def test_a_dead_worker_fails_its_own_dispatch_only(monkeypatch, tmp_path):
    # every worker of the first dispatch dies; the marker, written when that
    # dispatch comes back, lets the workers of every later one live
    marker = tmp_path / "first-dispatch-done"
    monkeypatch.setattr(paritysat.blockwise, "resynth_block", partial(_exit_until, marker))
    opened = count_pools(monkeypatch)
    seen = watch_dispatches(monkeypatch, after=marker.touch)
    c, line, cfg = many_block_problems()
    cfg = dataclasses.replace(cfg, iters_full=1)
    out, trace = iterate_optimize(c, line, cfg)
    assert len(seen[0]) >= 2
    assert all((b.status, b.error) == ("original", "BrokenProcessPool") for b in seen[0])
    assert trace[0].blocks_failed == len(seen[0])
    later = [b for blocks in seen[1:] for b in blocks]
    assert later and all(b.error is None for b in later)
    assert any(b.status == "resynthesized" for b in later)
    assert all(r.blocks_failed == 0 for r in trace[1:])
    assert len(opened) == 2  # the broken pool, then a fresh one
    assert equivalent(out, c)


class BreaksAtSecondSubmit:
    """An executor whose pool breaks while a dispatch is still going out."""

    def __init__(self, max_workers):
        self.submitted = 0

    def submit(self, fn, block):
        self.submitted += 1
        if self.submitted > 1:
            raise BrokenProcessPool("a worker died")
        future = Future()
        future.set_result(fn(block))
        return future

    def shutdown(self):
        pass


def test_a_pool_that_breaks_while_blocks_go_out_fails_the_rest(monkeypatch):
    monkeypatch.setattr(paritysat.blockwise, "ProcessPoolExecutor", BreaksAtSecondSubmit)
    c = random_cnot_rz_circuit(random.Random(4), 4, 8, 2)
    blocks = partition(c, BlockwiseConfig(max_block_qubits=2))
    assert len(blocks) >= 2
    out = run_parallel(blocks, _double, 2)
    assert out == list(blocks)
    assert out[0].error is None
    assert all((b.status, b.error) == ("original", "BrokenProcessPool") for b in out[1:])


def test_a_block_met_again_in_the_call_is_not_judged_again(monkeypatch):
    judged = []
    floors = paritysat.peephole.at_floors

    def counted(block, table):
        judged.append((block.qubits, block.gates))
        return floors(block, table)

    monkeypatch.setattr(paritysat.peephole, "at_floors", counted)
    c, line = repeated_skeletons(6, 3, seed=2)
    cfg = BlockwiseConfig(max_block_qubits=3, iters_full=3, iters_sample=3,
                          seed=4, per_block_timeout=30)
    out, trace = iterate_optimize(c, line, cfg)
    assert len(set(judged)) == len(judged)
    assert len(judged) < sum(r.blocks_attempted for r in trace)
    assert equivalent(out, c)


@pytest.mark.parametrize("mode", [Mode.CNOT, Mode.DEPTH])
@pytest.mark.parametrize("doubly", [False, True])
def test_repeated_skeletons_give_the_pinned_run(mode, doubly):
    # pinned from the code before blocks met again were served from the
    # call's memo; the four settings give the same run here
    golden = json.loads(GOLDEN.read_text())
    c, line = repeated_skeletons(6, 3, seed=2)
    for jobs in (1, 2):
        cfg = BlockwiseConfig(**golden["config"], jobs=jobs, mode=mode, doubly=doubly,
                              per_block_timeout=30)
        out, trace = iterate_optimize(c, line, cfg)
        gates = [["cx", g.control, g.target] if isinstance(g, Cnot) else
                 ["rz", g.angle, g.qubit] for g in out.gates]
        records = [{k: v for k, v in r.to_json().items() if k != "wall_time_s"}
                   for r in trace]
        assert gates == golden["gates"]
        assert records == golden["records"]
