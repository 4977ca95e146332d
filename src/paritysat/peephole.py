"""Maximal {CNOT, Rz} block extraction and optimal block resynthesis.

Block discovery is a single scan over the gate list, with one rule per
gate kind.  Each qubit points at its open block.  An Rz joins the open
block on its qubit, or opens one; a CNOT merges the open blocks on its
control and target, unless the merge would cross a cap, and then seals
them and opens its own block; any other gate seals every open block it
touches.  A sealed block accepts no further gates, which guarantees that
emitting each block contiguously at the position of its last gate only
ever commutes gates across qubit-disjoint neighbors.

A block's phase polynomial (``Block.rep``) is extracted and merged
(``synthesizer.merged_rep``) at the first floor, key or synthesis that
reads it, and kept with the block: its floors, its key and the rebuild on
a skeleton all read that one merged rep.  A block served from a memo of
judgments, and a replacement that is only spliced, never extract one.

A list of blocks is resynthesized by ``resynthesize``; a peephole pass
runs it once over the maximal blocks, and ``blockwise.iterate_optimize``
runs it on every partition.  Both read and fill one store of skeletons
that lives as long as the process (``skeleton_cache``), one dict per
mode, ``doubly`` and solver backend.  Both refuse a circuit with a CNOT
off the coupling map up front, so every block they scan induces a
connected map: its qubits are joined by its own CNOTs, each on an edge.
A block whose own CNOT count and depth equal its provable floors
(``synthesizer.lower_bound`` and ``synthesizer.depth_floor``) is kept
without a synthesis: no circuit for its rep is smaller in either metric,
so none can replace it in any mode.  A block below a floor proves the
floor wrong and raises ``InternalConsistencyError``.
Angles play no part in synthesis, so each distinct block problem is
synthesized once per cache: with the store, once per process.  The
problem key is ``synthesizer.synthesis_key`` of the block's merged rep
and induced local map, the problem ``synthesizer.synthesis_problem``
prepares: the initial rows, the final rows, the merged table's
``unique_terms`` (in table order, which numbers the encoder's variables)
and the induced local edge set.  Only the first block of each key not yet cached
is synthesized; every other block is rebuilt by placing its own angles on
the CNOT steps found, and judged against its own metrics.  Only syntheses proven optimal are cached.  The blocks of a
key share the outcome of its first block: when that one hit its timeout
(``failed_budget``, or a doubly optimal search cut short), so do they.

``hopps`` is deterministic for a given key, mode, ``doubly`` and
backend, so a stored skeleton is exactly what a fresh synthesis would
return, and no circuit depends on what the process did earlier; only the
hit counts do.  The backend is part of the store's key because, past
the exact search's cap, an external solver may pick another optimal
skeleton among ties.  Timeouts
are not: a deadline never changes an optimal skeleton.  So a later call
with a shorter timeout may be served a skeleton it could not have found
itself: a timeout bounds the search, and a stored optimum needs no
search.  Each store dict keeps at most ``STORE_LIMIT`` skeletons and
drops the oldest first.  Worker processes never read it.

``resynthesize`` reads and fills a memo of the judgments no later run on
the same cache can change, by block qubits and gates, so that a block
met again under the same memo is not judged again.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

from .encoder import Mode
from .ir import (
    Circuit,
    Cnot,
    CouplingMap,
    Gate,
    Opaque,
    PhasePolyRep,
    Rz,
    cnot_count,
    cnot_depth,
    gate_qubits,
    induced_coupling,
    validate_topology,
)
from .phasepoly import extract_rep
from .sat.solver import solver_backend
from .synthesizer import (
    InternalConsistencyError,
    Steps,
    SynthesisRequest,
    SynthesisTimeout,
    check_timeout,
    depth_floor,
    hopps,
    lower_bound,
    merged_rep,
    place_rotations,
    synthesis_key,
)


@dataclass(frozen=True)
class Skeleton:
    """The CNOT steps ``hopps`` found for a block, free of angles.

    ``steps`` are the ``SynthesisResult.steps`` that ``hopps`` placed its
    rotations on: one CNOT per step from a count-mode model, one layer
    per step from a depth-mode model (which the witness check of every
    other mode, and a count-mode doubly descent, also decode).
    """

    steps: Steps
    metrics: tuple[int, int]         # (CNOT count, CNOT depth)
    optimal: bool                    # False when phase 2 hit the deadline


# the most skeletons one store dict keeps; past it the oldest is dropped
STORE_LIMIT = 4096

# the process's proven-optimal skeletons, by (mode, doubly, backend)
_stores: dict[tuple[Mode, bool, str], dict[tuple, Skeleton]] = {}


def skeleton_cache(mode: Mode, doubly: bool) -> dict[tuple, Skeleton]:
    """The process's store of proven-optimal skeletons, by synthesis key,
    for ``mode``, ``doubly`` and the backend ``solve_instance`` uses now."""
    return _stores.setdefault((mode, doubly, solver_backend()), {})


@dataclass(frozen=True)
class Block:
    """A {CNOT, Rz} subcircuit, relabeled onto local qubit indices.

    ``circuit``, ``rep`` and ``metrics`` are worked out on first read and
    kept, so a block whose phase polynomial nothing reads never extracts it.
    """

    qubits: tuple[int, ...]          # physical qubits in first-touch order
    gates: tuple[Gate, ...]          # local-index gates
    span: tuple[int, ...]            # positions in the parent circuit
    status: str = "original"
    # exception type name when the worker raised (status stays "original")
    error: str | None = field(default=None, compare=False)
    # the synthesis behind ``status``, when one was found
    skeleton: Skeleton | None = field(default=None, compare=False, repr=False)

    @cached_property
    def circuit(self) -> Circuit:
        return Circuit(len(self.qubits), self.gates)

    @cached_property
    def rep(self) -> PhasePolyRep:
        """The phase polynomial with its merged table, extracted locally
        from identity and merged once."""
        return merged_rep(extract_rep(self.circuit))

    @cached_property
    def metrics(self) -> tuple[int, int]:
        """The block's own (CNOT count, CNOT depth)."""
        return cnot_count(self.circuit), cnot_depth(self.circuit)


class _OpenBlock:
    """A block ``_scan_blocks`` may still grow: its qubits, its gate
    indices and the CNOT layer each of its qubits has reached."""

    __slots__ = ("qubits", "indices", "layer")

    def __init__(self) -> None:
        self.qubits: set[int] = set()
        self.indices: list[int] = []
        self.layer: dict[int, int] = {}


def _scan_blocks(circuit: Circuit, max_qubits: int | None = None,
                 max_depth: int | None = None,
                 flush_at: int | None = None) -> list[list[int]]:
    """Greedy scan-line grouping; returns the sorted gate indices per
    block, ordered by last index.

    ``max_qubits``/``max_depth`` seal an open block instead of letting a
    gate grow it past the cap; ``flush_at`` seals everything open before
    the given position (used for offset-randomized partitioning).  The
    caps must admit one CNOT, so no block is ever over them.

    Each qubit points at its open block.  An Rz appends to the open block
    on its qubit, or opens one.  A CNOT merges the open blocks on its
    control and target when the merged qubit count and its new layer
    ``1 + max(layer[c], layer[t])`` are within the caps (every open block
    is, so no other layer can cross one); otherwise it seals them and
    opens its own block at layer 1.  Any other gate seals the open
    blocks on its qubits.
    """
    if (max_qubits is not None and max_qubits < 2) or \
       (max_depth is not None and max_depth < 1):
        raise ValueError("caps must admit one CNOT (max_qubits >= 2, max_depth >= 1)")
    open_of: dict[int, _OpenBlock] = {}
    sealed: list[list[int]] = []

    def seal(block: _OpenBlock) -> None:
        for q in block.qubits:
            del open_of[q]
        sealed.append(block.indices)

    for index, gate in enumerate(circuit.gates):
        if index == flush_at:
            sealed.extend(block.indices for block in dict.fromkeys(open_of.values()))
            open_of.clear()
        if isinstance(gate, Rz):
            block = open_of.get(gate.qubit)
            if block is None:
                block = open_of[gate.qubit] = _OpenBlock()
                block.qubits.add(gate.qubit)
            block.indices.append(index)
        elif isinstance(gate, Cnot):
            c, t = gate.control, gate.target
            home, other = open_of.get(c), open_of.get(t)
            lc = home.layer.get(c, 0) if home else 0
            lt = other.layer.get(t, 0) if other else 0
            layer = 1 + (lc if lc > lt else lt)
            if home is None or other is home:
                home, other = home or other, None
            if home is not None:
                size = len(home.qubits) + (len(other.qubits) if other else 0) + \
                    (c not in open_of) + (t not in open_of)
                if (max_qubits is not None and size > max_qubits) or \
                   (max_depth is not None and layer > max_depth):
                    seal(home)
                    if other:
                        seal(other)
                    home = None
                elif other:
                    home.qubits |= other.qubits
                    home.indices += other.indices
                    home.layer.update(other.layer)
                    for q in other.qubits:
                        open_of[q] = home
            if home is None:
                home, layer = _OpenBlock(), 1
            home.qubits.update((c, t))
            home.indices.append(index)
            home.layer[c] = home.layer[t] = layer
            open_of[c] = open_of[t] = home
        else:
            for q in gate_qubits(gate):
                block = open_of.get(q)
                if block is not None:
                    seal(block)

    sealed.extend(block.indices for block in dict.fromkeys(open_of.values()))
    return sorted((sorted(indices) for indices in sealed), key=lambda ix: ix[-1])


def _make_block(circuit: Circuit, indices: list[int]) -> Block:
    qubit_order: list[int] = []
    for i in indices:
        for q in gate_qubits(circuit.gates[i]):
            if q not in qubit_order:
                qubit_order.append(q)
    local = {q: j for j, q in enumerate(qubit_order)}
    gates: list[Gate] = []
    for i in indices:
        g = circuit.gates[i]
        if isinstance(g, Cnot):
            gates.append(Cnot(local[g.control], local[g.target]))
        elif isinstance(g, Rz):
            gates.append(Rz(g.angle, local[g.qubit]))
        else:  # pragma: no cover - scan never places opaque gates in blocks
            raise ValueError("opaque gate inside a block")
    return Block(tuple(qubit_order), tuple(gates), tuple(indices))


def find_blocks(circuit: Circuit) -> list[Block]:
    """Maximal disjoint {CNOT, Rz} blocks in dependency-preserving order."""
    return [_make_block(circuit, indices) for indices in _scan_blocks(circuit)]


def block_to_physical(block: Block) -> list[Gate]:
    out: list[Gate] = []
    for g in block.gates:
        if isinstance(g, Cnot):
            out.append(Cnot(block.qubits[g.control], block.qubits[g.target]))
        elif isinstance(g, Rz):
            out.append(Rz(g.angle, block.qubits[g.qubit]))
        else:  # pragma: no cover
            raise ValueError("opaque gate inside a block")
    return out


def splice_blocks(circuit: Circuit, blocks: Sequence[Block]) -> Circuit:
    """Rebuild the parent circuit with each block emitted at its last position."""
    claimed: dict[int, tuple[Block, bool]] = {}
    for block in blocks:
        last = block.span[-1]
        for i in block.span:
            claimed[i] = (block, i == last)
    gates: list[Gate] = []
    for i, g in enumerate(circuit.gates):
        if i in claimed:
            block, emit_here = claimed[i]
            if emit_here:
                gates.extend(block_to_physical(block))
        else:
            gates.append(g)
    return Circuit(circuit.num_qubits, tuple(gates))


def ordered_metrics(mode: Mode, count: int, depth: int) -> tuple[int, int]:
    """The (target, secondary) pair of a CNOT count and depth in ``mode``.

    One circuit improves on another only when its pair is lexicographically
    smaller; a tie is no improvement.
    """
    return (count, depth) if mode is Mode.CNOT else (depth, count)


def apply_skeleton(block: Block, skeleton: Skeleton, mode: Mode) -> Block:
    """The block rebuilt on ``skeleton`` with its own angles, when that
    strictly improves it; otherwise the block itself, flagged ``kept_original``.
    Either way the result carries ``skeleton``."""
    if ordered_metrics(mode, *skeleton.metrics) >= ordered_metrics(mode, *block.metrics):
        return replace(block, status="kept_original", skeleton=skeleton)
    circuit = place_rotations(skeleton.steps, block.rep)
    return Block(block.qubits, circuit.gates, block.span,
                 status="resynthesized", skeleton=skeleton)


def resynth_block(block: Block, cm: CouplingMap, mode: Mode = Mode.CNOT,
                  doubly: bool = True, timeout_s: float = 600.0) -> Block:
    """Optimal resynthesis of one block on its induced topology.

    Falls back to the original block, flagged ``failed_budget``, when the
    solve does not finish in time.  A scanned block of a circuit that
    respects ``cm`` always induces a connected map (its qubits are joined
    by its own CNOTs); on any other map ``hopps`` raises ``ValueError``.
    The block's own circuit is on that map, so the search needs no budget
    above the block's own primary metric, and ``k_max`` is that metric.
    If every budget up to it is unsatisfiable, the encoder or the solver
    is wrong: ``NoSolutionWithinKmax`` propagates, so the CLI ``peephole``
    exits 3 and a blockwise worker's raise counts in ``blocks_failed``.
    The result carries the skeleton found, so that a caller can rebuild
    other blocks of the same problem with ``apply_skeleton``.
    """
    k_max = ordered_metrics(mode, *block.metrics)[0]
    try:
        result = hopps(SynthesisRequest(block.rep, induced_coupling(cm, block.qubits),
                                        mode=mode, doubly=doubly, k_max=k_max,
                                        timeout_s=timeout_s))
    except SynthesisTimeout:
        return replace(block, status="failed_budget")
    skeleton = Skeleton(result.steps, (result.cnot_count, result.cnot_depth), result.optimal)
    return apply_skeleton(block, skeleton, mode)


def at_floors(block: Block) -> bool:
    """Whether the block's own CNOT count and depth equal its provable
    floors.

    Every circuit for the block's rep has at least the floor count and
    depth, so no result of any mode can be strictly smaller.  A block
    below a floor raises ``InternalConsistencyError``: the floor is wrong.
    """
    count = lower_bound(block.rep, Mode.CNOT)
    floors = (count, depth_floor(count, block.rep.n))
    own = block.metrics
    if own[0] < floors[0] or own[1] < floors[1]:
        raise InternalConsistencyError(
            f"block of CNOT count and depth {own} is below its floors {floors}")
    return own == floors


def _settled(block: Block) -> bool:
    """Whether a replacement is final for its qubits and gates: judged on
    a skeleton proven optimal, or kept at its floors.  Failures and
    judgments on an unproven skeleton are not."""
    if block.skeleton is not None:
        return block.skeleton.optimal
    return block.status == "kept_original"


def resynthesize(blocks: Sequence[Block], cm: CouplingMap, mode: Mode,
                 cache: dict[tuple, Skeleton],
                 synthesize: Callable[[list[Block]], list[Block]],
                 judged: dict[tuple, Block]) -> tuple[list[Block], int]:
    """Resynthesize every block; returns the replacements and the number
    of blocks served without a synthesis of their own.

    A block already at its floors (``at_floors``) comes back
    ``kept_original`` without a key.  Only the first block of each other
    key missing from ``cache`` goes through ``synthesize``, which maps
    those blocks to their replacements (as ``resynth_block`` does); its
    skeleton is cached when it is proven optimal.  Every other block of
    the key gets that skeleton, or inherits the first block's failure
    (``failed_budget``, or the ``error`` that ``synthesize`` recorded)
    when there is none.  The call ends by dropping the oldest skeletons
    of ``cache`` past ``STORE_LIMIT``.

    ``judged`` maps ``(qubits, gates)`` to a replacement that no later
    call with the same ``cache`` can change (``_settled``): a block found
    there takes that judgment with its own span, and no floor, key or
    skeleton is computed for it.  Each new settled replacement is added
    to it.
    """
    out: list[Block] = list(blocks)
    keys: dict[int, tuple] = {}
    memo_keys = [(block.qubits, block.gates) for block in blocks]
    for i, block in enumerate(blocks):
        seen = judged.get(memo_keys[i])
        if seen is not None:
            out[i] = replace(seen, span=block.span)
            continue
        if at_floors(block):
            out[i] = replace(block, status="kept_original")
        else:
            keys[i] = synthesis_key(block.rep, induced_coupling(cm, block.qubits))
    first: dict[tuple, int] = {}
    for i, key in keys.items():
        if key not in cache:
            first.setdefault(key, i)
    done = dict(zip(first.values(), synthesize([blocks[i] for i in first.values()])))
    fresh = {key: done[i] for key, i in first.items()}
    for key, block in fresh.items():
        if block.skeleton is not None and block.skeleton.optimal:
            cache[key] = block.skeleton
    for i, key in keys.items():
        skeleton = cache[key] if key in cache else fresh[key].skeleton
        if i in done:
            out[i] = done[i]
        elif skeleton is not None:
            out[i] = apply_skeleton(blocks[i], skeleton, mode)
        else:
            out[i] = replace(blocks[i], status=fresh[key].status, error=fresh[key].error)
    # trimmed only now, so that every key this call read is still there
    while len(cache) > STORE_LIMIT:
        del cache[next(iter(cache))]
    for memo_key, new in zip(memo_keys, out):
        if _settled(new):
            judged.setdefault(memo_key, new)
    return out, len(blocks) - len(first)


def peephole_with_report(circuit: Circuit, cm: CouplingMap, mode: Mode = Mode.CNOT,
                         doubly: bool = True, timeout_s: float = 600.0,
                         ) -> tuple[Circuit, list[tuple[Block, Block]]]:
    """One pass of ``resynthesize`` over the maximal blocks, spliced back;
    returns the new circuit and the (original, replacement) block pairs.

    The pass reads and fills the process's store (``skeleton_cache``)."""
    # here, not in a worker, where the error would read as a failed block
    check_timeout(timeout_s)
    if not validate_topology(circuit, cm):
        raise ValueError("input circuit violates the coupling map")
    blocks = find_blocks(circuit)
    replaced, _ = resynthesize(
        blocks, cm, mode, skeleton_cache(mode, doubly),
        lambda todo: [resynth_block(b, cm, mode, doubly, timeout_s) for b in todo], {})
    return splice_blocks(circuit, replaced), list(zip(blocks, replaced))


__all__ = [
    "Block", "Skeleton", "find_blocks", "block_to_physical", "splice_blocks",
    "apply_skeleton", "resynth_block", "at_floors", "resynthesize", "peephole_with_report",
    "skeleton_cache",
]
