"""Iterative blockwise optimization of large {CNOT, Rz}-dominated circuits.

Stage 1 repeatedly partitions the whole circuit into capped blocks and
resynthesizes every block; stage 2 resynthesizes randomly sampled blocks
from offset-randomized partitions.  Blocks are independent, so each
iteration fans out over a worker pool and merges results back in block
order, keeping the output bit-identical regardless of worker count.

Blocks go through ``peephole.resynthesize`` with the process's store of
proven-optimal skeletons (``peephole.skeleton_cache``), which outlives
the call: each distinct block problem is synthesized once per process,
and only the first block of each key not yet stored goes to the
workers.  Only this process reads and fills the store; the workers
never do.  The call also keeps a memo of the judgments no later iteration
can change (a block kept at its floors or judged on a skeleton proven
optimal), keyed by the block's qubits and gates: a block met again, as
most are from one iteration to the next, reuses its judgment without a
floor, key or skeleton computed, and without its phase polynomial
extracted.  Blocks are built without one
(``Block.rep`` is worked out at the first floor, key or synthesis that
reads it), so a partition extracts nothing itself, and neither does
splicing the replacements.  The metrics of the current circuit are
carried from one iteration to the next, so each iteration measures only
the circuit it spliced.

Each ``iterate_optimize`` call opens at most one worker pool, at its
first dispatch of two or more blocks, reuses it in every later iteration
and shuts it down when it returns or raises.  Every block runs under one
failure rule (``_guarded``), in this process or inside the worker: a
block whose worker raises comes back unchanged, with the exception type
in ``error``.  A dispatch whose pool breaks (a worker process died)
fails every one of its own blocks with ``BrokenProcessPool``, and the
next dispatch opens a fresh pool.
"""
from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, replace
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
    _make_block,
    _scan_blocks,
    ordered_metrics,
    resynth_block,
    resynthesize,
    skeleton_cache,
    splice_blocks,
)
from .synthesizer import check_timeout


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
        check_timeout(self.per_block_timeout)


@dataclass
class IterationRecord:
    iteration: int
    stage: str
    cnot_count: int
    cnot_depth: int
    blocks_attempted: int
    blocks_improved: int
    # blocks served without a synthesis of their own: those of a key already
    # stored (by this call or an earlier one in the process) or synthesized
    # for an earlier block, and those at their floors
    cache_hits: int
    blocks_failed: int   # blocks left unchanged: the worker for their key raised
    wall_time_s: float
    rolled_back: bool = False


def partition(circuit: Circuit, cfg: BlockwiseConfig) -> list[Block]:
    """Greedy scan-line partition under qubit-count and depth caps."""
    groups = _scan_blocks(circuit, max_qubits=cfg.max_block_qubits,
                          max_depth=cfg.max_block_depth)
    return [_make_block(circuit, indices) for indices in groups]


def sample_blocks(circuit: Circuit, cfg: BlockwiseConfig,
                  rng: random.Random) -> list[Block]:
    """Offset-randomized partition, then a uniform sample of its blocks.

    Only the sampled groups are built into blocks."""
    offset = rng.randrange(len(circuit.gates)) if circuit.gates else 0
    groups = _scan_blocks(circuit, max_qubits=cfg.max_block_qubits,
                          max_depth=cfg.max_block_depth, flush_at=offset)
    want = ceil(cfg.sample_fraction * len(groups))
    chosen = sorted(rng.sample(range(len(groups)), want)) if groups else []
    return [_make_block(circuit, groups[i]) for i in chosen]


# the executor slot of the ``iterate_optimize`` call in progress, if any:
# it reaches ``run_parallel`` here because the call keeps the signature
# that callers, and wrappers of the module attribute, rely on
_call_pool: ContextVar[list[ProcessPoolExecutor] | None] = ContextVar(
    "_call_pool", default=None)


@contextmanager
def _one_pool() -> Iterator[list[ProcessPoolExecutor]]:
    """One executor slot for every ``run_parallel`` inside the ``with``
    statement: empty until a dispatch of two or more blocks fills it,
    emptied when its pool breaks, and shut down on the way out."""
    slot: list[ProcessPoolExecutor] = []
    token = _call_pool.set(slot)
    try:
        yield slot
    finally:
        _call_pool.reset(token)
        for executor in slot:
            executor.shutdown()


def run_parallel(blocks: Sequence[Block], worker_fn: Callable[[Block], Block],
                 jobs: int) -> list[Block]:
    """Apply ``worker_fn`` over blocks with at most ``jobs`` concurrent tasks.

    Results come back strictly in block order.  Each block runs under
    ``_guarded``: a worker that raises falls back to that block's
    original, with the exception type in ``error``.  One block, or one
    job, runs in this process.  Otherwise the blocks go to the executor of
    the ``iterate_optimize`` call in progress, which outlives this
    dispatch; called on its own, ``run_parallel`` opens one for this
    dispatch only.  An exception out of the executor fails every block of
    this dispatch with its type: ``BrokenProcessPool`` when a worker
    process died, and then the next dispatch opens a fresh pool.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    guarded = partial(_guarded, worker_fn)
    if jobs == 1 or len(blocks) <= 1:
        return [guarded(block) for block in blocks]
    call_slot = _call_pool.get()
    with _one_pool() if call_slot is None else nullcontext(call_slot) as slot:
        if not slot:
            slot.append(ProcessPoolExecutor(max_workers=jobs))
        try:
            return list(slot[0].map(guarded, blocks))
        except Exception as exc:
            if isinstance(exc, BrokenProcessPool):
                slot.pop().shutdown()
            return [_failed(block, exc) for block in blocks]


def _guarded(worker_fn: Callable[[Block], Block], block: Block) -> Block:
    """``worker_fn(block)``, or ``block`` failed with the exception it raised."""
    try:
        return worker_fn(block)
    except Exception as exc:
        return _failed(block, exc)


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
    cache = skeleton_cache(cfg.mode, cfg.doubly)
    judged: dict[tuple, Block] = {}
    current = circuit
    metrics = (cnot_count(circuit), cnot_depth(circuit))
    trace: list[IterationRecord] = []
    iteration = 0

    with _one_pool():
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
                improved = sum(
                    1 for old, new in zip(blocks, replaced) if new.status == "resynthesized"
                    and ordered_metrics(cfg.mode, *new.metrics)[0]
                    < ordered_metrics(cfg.mode, *old.metrics)[0])
                candidate = splice_blocks(current, replaced)
                found = (cnot_count(candidate), cnot_depth(candidate))
                # splice-order effects can regress global metrics even though no
                # block got worse; reject such iterations to keep the trace monotone
                rolled_back = (ordered_metrics(cfg.mode, *found)
                               > ordered_metrics(cfg.mode, *metrics))
                converged = rolled_back or found == metrics
                if not rolled_back:
                    current, metrics = candidate, found
                iteration += 1
                failed = sum(1 for block in replaced if block.error is not None)
                trace.append(IterationRecord(iteration, stage, metrics[0], metrics[1],
                                             len(blocks), improved, hits, failed,
                                             time.monotonic() - t0, rolled_back))
                if stage == "full" and converged:
                    break
    return current, trace


__all__ = [
    "BlockwiseConfig", "IterationRecord",
    "partition", "sample_blocks", "run_parallel", "iterate_optimize",
]
