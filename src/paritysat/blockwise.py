"""Iterative blockwise optimization of large {CNOT, Rz}-dominated circuits.

Stage 1 repeatedly partitions the whole circuit into capped blocks and
resynthesizes every block; stage 2 resynthesizes randomly sampled blocks
from offset-randomized partitions.  Blocks are independent, so each
iteration fans out over a worker pool and merges results back in block
order, keeping the output bit-identical regardless of worker count.

Blocks go through ``peephole.resynthesize`` with one cache for the whole
``iterate_optimize`` call, so each distinct block problem is synthesized
once per call and only the first block of each uncached key goes to the
workers.  The call also keeps a memo of the judgments no later iteration
can change (a block kept at its floors, skipped as disconnected, or
judged on a skeleton proven optimal), keyed by the block's qubits and
gates: a block met again, as most are from one iteration to the next,
reuses its judgment without a floor, key or skeleton computed.

Each ``iterate_optimize`` call opens at most one worker pool, at its
first dispatch of two or more blocks, reuses it in every later iteration
and shuts it down when it returns or raises.  A dispatch whose pool
breaks (a worker process died) fails its own blocks only, and the next
dispatch opens a fresh pool.
"""
from __future__ import annotations

import random
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, replace
from functools import partial
from math import ceil
from typing import Callable, Iterator, Sequence

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


class _WorkerPool:
    """``jobs`` worker processes, started at the first ``map`` and again
    at the first ``map`` after one that broke them."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._executor: ProcessPoolExecutor | None = None

    def map(self, worker_fn: Callable[[Block], Block],
            blocks: Sequence[Block]) -> list[Block]:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        futures = [_submit(self._executor, worker_fn, block) for block in blocks]
        out = [_guarded(future.result, block) for block, future in zip(blocks, futures)]
        if any(isinstance(f.exception(), BrokenProcessPool) for f in futures):
            self.close()
        return out

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


# the pool of the ``iterate_optimize`` call in progress, if any: it reaches
# ``run_parallel`` here because the call keeps the signature that callers,
# and wrappers of the module attribute, rely on
_call_pool: ContextVar[_WorkerPool | None] = ContextVar("_call_pool", default=None)


@contextmanager
def _one_pool(jobs: int) -> Iterator[_WorkerPool]:
    """A pool of ``jobs`` workers for every ``run_parallel`` inside the
    ``with`` statement, shut down on the way out."""
    pool = _WorkerPool(jobs)
    token = _call_pool.set(pool)
    try:
        yield pool
    finally:
        _call_pool.reset(token)
        pool.close()


def run_parallel(blocks: Sequence[Block], worker_fn: Callable[[Block], Block],
                 jobs: int) -> list[Block]:
    """Apply ``worker_fn`` over blocks with at most ``jobs`` concurrent tasks.

    Results come back strictly in block order; a worker failure falls back
    to that block's original, with the exception type in ``error``.  One
    block, or one job, runs in this process.  Otherwise the blocks go to
    the pool of the ``iterate_optimize`` call in progress, which outlives
    this dispatch; called on its own, ``run_parallel`` opens a pool for
    this dispatch only.  When a worker process dies, every block of this
    dispatch still pending fails with ``BrokenProcessPool``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1 or len(blocks) <= 1:
        return [_guarded(partial(worker_fn, block), block) for block in blocks]
    pool = _call_pool.get()
    if pool is not None:
        return pool.map(worker_fn, blocks)
    with _one_pool(jobs) as pool:
        return pool.map(worker_fn, blocks)


def _submit(executor: ProcessPoolExecutor, worker_fn: Callable[[Block], Block],
            block: Block) -> Future:
    try:
        return executor.submit(worker_fn, block)
    except BrokenProcessPool as exc:  # a worker died while the batch went out
        future: Future = Future()
        future.set_exception(exc)
        return future


def _guarded(result: Callable[[], Block], block: Block) -> Block:
    """``result()``, or ``block`` with the exception type when it raises."""
    try:
        return result()
    except Exception as exc:
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
    judged: dict[tuple, Block] = {}
    current = circuit
    trace: list[IterationRecord] = []
    iteration = 0
    prev = (cnot_count(circuit), cnot_depth(circuit))

    def ordered(c: Circuit) -> tuple[int, int]:
        return ordered_metrics(cfg.mode, cnot_count(c), cnot_depth(c))

    with _one_pool(cfg.jobs):
        for stage, iters in (("full", cfg.iters_full), ("sample", cfg.iters_sample)):
            for _ in range(iters):
                t0 = time.monotonic()
                if stage == "full":
                    blocks = partition(current, cfg)
                else:
                    blocks = sample_blocks(current, cfg, rng)
                replaced, hits = resynthesize(
                    blocks, cm, cfg.mode, cache,
                    lambda todo: run_parallel(todo, worker, cfg.jobs), judged)
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
