"""Iterative blockwise optimization of large {CNOT, Rz}-dominated circuits.

Stage 1 repeatedly partitions the whole circuit into capped blocks and
resynthesizes every block; stage 2 resynthesizes randomly sampled blocks
from offset-randomized partitions.  Blocks are independent, so each
iteration fans out over a worker pool and merges results back in block
order, keeping the output bit-identical regardless of worker count.

Blocks go through ``peephole.resynthesize`` with one cache for the whole
``iterate_optimize`` call, so each distinct block problem is synthesized
once per call and only the first block of each uncached key goes to the
workers.
"""
from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from math import ceil
from typing import Callable, Sequence

from .encoder import Mode
from .ir import (
    Circuit,
    CouplingMap,
    cnot_count,
    cnot_depth,
    validate_topology,
)
from .peephole import (
    Block,
    Skeleton,
    _make_block,
    _scan_blocks,
    ordered_metrics,
    resynth_block,
    resynthesize,
    splice_blocks,
)


@dataclass
class BlockwiseConfig:
    max_block_qubits: int = 3
    max_block_depth: int = 20
    iters_full: int = 5
    iters_sample: int = 5
    sample_fraction: float = 0.5
    seed: int = 0
    jobs: int = 1
    per_block_timeout: float = 600.0
    mode: Mode = Mode.CNOT
    doubly: bool = False

    def __post_init__(self) -> None:
        if min(self.iters_full, self.iters_sample) < 0:
            raise ValueError("iteration counts must be nonnegative")
        if self.jobs < 1:
            raise ValueError("the job count must be at least 1")
        if self.max_block_qubits < 2 or self.max_block_depth < 1:
            raise ValueError("blocks must admit at least one CNOT "
                             "(>= 2 qubits, depth >= 1)")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")


@dataclass
class IterationRecord:
    iteration: int
    stage: str
    cnot_count: int
    cnot_depth: int
    blocks_attempted: int
    blocks_improved: int
    # blocks served without a synthesis of their own: those of a key already
    # cached or synthesized for an earlier block, and those at their floors
    cache_hits: int
    blocks_failed: int   # blocks left unchanged: the worker for their key raised
    wall_time_s: float
    rolled_back: bool = False

    def to_json(self) -> dict:
        return asdict(self)


def partition(circuit: Circuit, cfg: BlockwiseConfig) -> list[Block]:
    """Greedy scan-line partition under qubit-count and depth caps."""
    groups = _scan_blocks(circuit, max_qubits=cfg.max_block_qubits,
                          max_depth=cfg.max_block_depth)
    return [_make_block(circuit, indices) for _, indices in groups]


def sample_blocks(circuit: Circuit, cfg: BlockwiseConfig,
                  rng: random.Random) -> list[Block]:
    """Offset-randomized partition, then a uniform sample of its blocks.

    Only the sampled groups are built into blocks (and extracted)."""
    offset = rng.randrange(len(circuit.gates)) if circuit.gates else 0
    groups = _scan_blocks(circuit, max_qubits=cfg.max_block_qubits,
                          max_depth=cfg.max_block_depth, flush_at=offset)
    want = ceil(cfg.sample_fraction * len(groups))
    chosen = sorted(rng.sample(range(len(groups)), want)) if groups else []
    return [_make_block(circuit, groups[i][1]) for i in chosen]


def run_parallel(blocks: Sequence[Block], worker_fn: Callable[[Block], Block],
                 jobs: int) -> list[Block]:
    """Apply ``worker_fn`` over blocks with at most ``jobs`` concurrent tasks.

    Results come back strictly in block order; a worker failure falls back
    to that block's original, with the exception type in ``error``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1 or len(blocks) <= 1:
        out = []
        for block in blocks:
            try:
                out.append(worker_fn(block))
            except Exception as exc:
                out.append(_failed(block, exc))
        return out
    results: list[Block] = list(blocks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {i: pool.submit(worker_fn, block) for i, block in enumerate(blocks)}
        for i, future in futures.items():
            try:
                results[i] = future.result()
            except Exception as exc:
                results[i] = _failed(blocks[i], exc)
    return results


def _failed(block: Block, exc: Exception) -> Block:
    return replace(block, status="original", error=type(exc).__name__)


def iterate_optimize(circuit: Circuit, cm: CouplingMap,
                     cfg: BlockwiseConfig) -> tuple[Circuit, list[IterationRecord]]:
    """Partition / resynthesize / splice until the metrics stop moving.

    Every iteration recomputes global metrics from the spliced circuit and
    rolls the iteration back if its (target, secondary) pair got worse
    (possible in depth mode, where per-block optimality does not compose
    globally).
    """
    if not validate_topology(circuit, cm):
        raise ValueError("input circuit violates the coupling map")
    rng = random.Random(cfg.seed)
    worker = partial(resynth_block, cm=cm, mode=cfg.mode, doubly=cfg.doubly,
                     timeout_s=cfg.per_block_timeout)
    cache: dict[tuple, Skeleton] = {}
    current = circuit
    trace: list[IterationRecord] = []
    iteration = 0
    prev = (cnot_count(circuit), cnot_depth(circuit))

    def ordered(c: Circuit) -> tuple[int, int]:
        return ordered_metrics(cfg.mode, cnot_count(c), cnot_depth(c))

    for stage, iters in (("full", cfg.iters_full), ("sample", cfg.iters_sample)):
        for _ in range(iters):
            t0 = time.monotonic()
            if stage == "full":
                blocks = partition(current, cfg)
            else:
                blocks = sample_blocks(current, cfg, rng)
            replaced, hits = resynthesize(
                blocks, cm, cfg.mode, cache,
                lambda todo: run_parallel(todo, worker, cfg.jobs))
            improved = 0
            for old, new in zip(blocks, replaced):
                if new.status == "resynthesized":
                    if ordered(new.circuit)[0] < ordered(old.circuit)[0]:
                        improved += 1
            candidate = splice_blocks(current, replaced)
            # splice-order effects can regress global metrics even though no
            # block got worse; reject such iterations to keep the trace monotone
            rolled_back = ordered(candidate) > ordered(current)
            if not rolled_back:
                current = candidate
            iteration += 1
            metrics = (cnot_count(current), cnot_depth(current))
            failed = sum(1 for block in replaced if block.error is not None)
            trace.append(IterationRecord(iteration, stage, metrics[0], metrics[1],
                                         len(blocks), improved, hits, failed,
                                         time.monotonic() - t0, rolled_back))
            converged = prev == metrics
            prev = metrics
            if stage == "full" and converged:
                break
    return current, trace


__all__ = [
    "BlockwiseConfig", "IterationRecord",
    "partition", "sample_blocks", "run_parallel", "iterate_optimize",
]
