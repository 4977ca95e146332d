"""Maximal {CNOT, Rz} block extraction and optimal block resynthesis.

Block discovery is a single scan over the gate list.  Each qubit points at
its open block; a CNOT or Rz joins (and may merge) the open blocks on its
qubits, while an opaque gate seals every open block it touches -- a sealed
block accepts no further gates, which guarantees that emitting each block
contiguously at the position of its last gate only ever commutes gates
across qubit-disjoint neighbors.

A list of blocks is resynthesized by ``resynthesize``; a peephole pass
runs it once over the maximal blocks, and ``blockwise.iterate_optimize``
runs it on every partition with a cache that lives for the whole call.
A block whose own CNOT count and depth equal its provable floors
(``synthesizer.lower_bound`` and ``synthesizer.depth_floor``) is kept
without a synthesis: no circuit for its rep is smaller in either metric,
so none can replace it in any mode.  A block below a floor proves the
floor wrong and raises ``InternalConsistencyError``.
Angles play no part in synthesis, so each distinct block problem is
synthesized once per cache.  The problem key is
``synthesizer.synthesis_key``: the initial rows, the final rows, the
merged table's unique terms in order (the encoder numbers its variables
in term order) and the induced local edge set.  Only the first block of
each key not yet cached is synthesized; every other block is rebuilt by
placing its own angles on the CNOT steps found, and judged against its
own metrics.  Only syntheses proven optimal are cached.  The blocks of a
key share the outcome of its first block: when that one hit its timeout
(``failed_budget``, or a doubly optimal search cut short), so do they.
A caller that runs ``resynthesize`` again on the same cache can also
keep a memo of the judgments no later run can change, by block qubits
and gates, so that a block met again is not judged again.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .encoder import Mode
from .ir import (
    Circuit,
    Cnot,
    CouplingMap,
    Gate,
    Opaque,
    ParityTable,
    PhasePolyRep,
    Rz,
    cnot_count,
    cnot_depth,
    gate_qubits,
    induced_coupling,
    validate_topology,
)
from .phasepoly import extract_rep, merged_table
from .synthesizer import (
    InternalConsistencyError,
    NoSolutionWithinKmax,
    SynthesisRequest,
    SynthesisTimeout,
    depth_floor,
    hopps,
    lower_bound,
    place_rotations,
    synthesis_key,
)


@dataclass(frozen=True)
class Skeleton:
    """The CNOT steps ``hopps`` found for a block, free of angles.

    ``steps`` are the ``SynthesisResult.steps`` that ``hopps`` placed its
    rotations on: one CNOT per step from a count-mode model, one layer
    per step from a depth-mode model (which a count-mode doubly descent
    also decodes).
    """

    steps: tuple[tuple[tuple[int, int], ...], ...]
    metrics: tuple[int, int]         # (CNOT count, CNOT depth)
    optimal: bool                    # False when phase 2 hit the deadline


@dataclass(frozen=True)
class Block:
    """A {CNOT, Rz} subcircuit, relabeled onto local qubit indices."""

    qubits: tuple[int, ...]          # physical qubits in first-touch order
    gates: tuple[Gate, ...]          # local-index gates
    span: tuple[int, ...]            # positions in the parent circuit
    rep: PhasePolyRep                # extracted locally from identity
    status: str = "original"
    # exception type name when the worker raised (status stays "original")
    error: str | None = field(default=None, compare=False)
    # the synthesis behind ``status``, when one was found
    skeleton: Skeleton | None = field(default=None, compare=False, repr=False)

    @property
    def circuit(self) -> Circuit:
        return Circuit(len(self.qubits), self.gates)


def _scan_blocks(circuit: Circuit, max_qubits: int | None = None,
                 max_depth: int | None = None,
                 flush_at: int | None = None) -> list[tuple[list[int], list[int]]]:
    """Greedy scan-line grouping; returns (qubit set, gate indices) per block.

    ``max_qubits``/``max_depth`` seal an open block instead of letting a
    gate grow it past the cap; ``flush_at`` seals everything open before
    the given position (used for offset-randomized partitioning).
    """
    open_of: dict[int, int] = {}
    qubits_of: dict[int, set[int]] = {}
    indices_of: dict[int, list[int]] = {}
    layer_of: dict[int, dict[int, int]] = {}
    depth_of: dict[int, int] = {}
    sealed: list[int] = []
    next_id = 0

    def seal(block_id: int) -> None:
        for q in qubits_of[block_id]:
            if open_of.get(q) == block_id:
                del open_of[q]
        sealed.append(block_id)

    def open_new(qs: Sequence[int], index: int, gate: Gate) -> None:
        nonlocal next_id
        bid = next_id
        next_id += 1
        qubits_of[bid] = set(qs)
        indices_of[bid] = [index]
        layer_of[bid] = {}
        depth_of[bid] = 0
        _track_depth(bid, gate)
        for q in qs:
            open_of[q] = bid

    def _track_depth(bid: int, gate: Gate) -> None:
        if isinstance(gate, Cnot):
            lm = layer_of[bid]
            lv = 1 + max(lm.get(gate.control, 0), lm.get(gate.target, 0))
            lm[gate.control] = lm[gate.target] = lv
            if lv > depth_of[bid]:
                depth_of[bid] = lv

    for index, gate in enumerate(circuit.gates):
        if flush_at is not None and index == flush_at:
            for bid in list(dict.fromkeys(open_of.values())):
                seal(bid)
        qs = gate_qubits(gate)
        if isinstance(gate, Opaque):
            for bid in list(dict.fromkeys(open_of.get(q) for q in qs)):
                if bid is not None:
                    seal(bid)
            continue

        cands = list(dict.fromkeys(open_of[q] for q in qs if q in open_of))
        if not cands:
            open_new(qs, index, gate)
            continue

        union_qubits = set(qs)
        for bid in cands:
            union_qubits |= qubits_of[bid]
        merged_depth = max(depth_of[bid] for bid in cands)
        if isinstance(gate, Cnot):
            lv = 1 + max(max((layer_of[bid].get(q, 0) for bid in cands), default=0)
                         for q in qs)
            merged_depth = max(merged_depth, lv)
        if (max_qubits is not None and len(union_qubits) > max_qubits) or \
           (max_depth is not None and merged_depth > max_depth):
            for bid in cands:
                seal(bid)
            open_new(qs, index, gate)
            continue

        home = cands[0]
        for bid in cands[1:]:
            qubits_of[home] |= qubits_of[bid]
            indices_of[home].extend(indices_of[bid])
            layer_of[home].update(layer_of[bid])
            depth_of[home] = max(depth_of[home], depth_of[bid])
            del qubits_of[bid], indices_of[bid], layer_of[bid], depth_of[bid]
        qubits_of[home] |= set(qs)
        indices_of[home].append(index)
        _track_depth(home, gate)
        for q in qubits_of[home]:
            open_of[q] = home

    emitted = sealed + list(dict.fromkeys(open_of.values()))
    out = []
    for bid in emitted:
        indices = sorted(indices_of[bid])
        out.append((sorted(qubits_of[bid]), indices))
    out.sort(key=lambda pair: pair[1][-1])
    return out


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
    block_circuit = Circuit(len(qubit_order), tuple(gates))
    return Block(tuple(qubit_order), tuple(gates), tuple(indices),
                 extract_rep(block_circuit))


def find_blocks(circuit: Circuit) -> list[Block]:
    """Maximal disjoint {CNOT, Rz} blocks in dependency-preserving order."""
    return [_make_block(circuit, indices) for _, indices in _scan_blocks(circuit)]


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
    own = block.circuit
    if ordered_metrics(mode, *skeleton.metrics) >= \
            ordered_metrics(mode, cnot_count(own), cnot_depth(own)):
        return replace(block, status="kept_original", skeleton=skeleton)
    rep = block.rep
    circuit = place_rotations(skeleton.steps,
                              PhasePolyRep(rep.initial, rep.final, merged_table(rep)))
    return Block(block.qubits, circuit.gates, block.span,
                 extract_rep(circuit), status="resynthesized", skeleton=skeleton)


def resynth_block(block: Block, cm: CouplingMap, mode: Mode = Mode.CNOT,
                  doubly: bool = True, timeout_s: float = 600.0) -> Block:
    """Optimal resynthesis of one block on its induced topology.

    Falls back to the original block (flagged in ``status``) when the
    induced topology is disconnected or the solve does not finish.  The
    result carries the skeleton found, so that a caller can rebuild other
    blocks of the same problem with ``apply_skeleton``.
    """
    local_map = induced_coupling(cm, block.qubits)
    if not local_map.is_connected():
        return replace(block, status="skipped_disconnected")
    try:
        result = hopps(SynthesisRequest(block.rep, local_map, mode=mode, doubly=doubly,
                                        timeout_s=timeout_s))
    except (SynthesisTimeout, NoSolutionWithinKmax):
        return replace(block, status="failed_budget")
    steps = tuple(tuple(step) for step in result.steps)
    skeleton = Skeleton(steps, (result.cnot_count, result.cnot_depth), result.optimal)
    return apply_skeleton(block, skeleton, mode)


def at_floors(block: Block, table: ParityTable) -> bool:
    """Whether the block's own CNOT count and depth equal its provable
    floors, with ``table`` its merged table.

    Every circuit for the block's rep has at least the floor count and
    depth, so no result of any mode can be strictly smaller.  A block
    below a floor raises ``InternalConsistencyError``: the floor is wrong.
    """
    rep = block.rep
    count = lower_bound(PhasePolyRep(rep.initial, rep.final, table), Mode.CNOT)
    floors = (count, depth_floor(count, rep.n))
    circuit = block.circuit
    own = (cnot_count(circuit), cnot_depth(circuit))
    if own[0] < floors[0] or own[1] < floors[1]:
        raise InternalConsistencyError(
            f"block of CNOT count and depth {own} is below its floors {floors}")
    return own == floors


def _settled(block: Block) -> bool:
    """Whether a replacement is final for its qubits and gates: kept at
    its floors, skipped as disconnected, or judged on a skeleton proven
    optimal.  Failures and judgments on an unproven skeleton are not."""
    if block.skeleton is not None:
        return block.skeleton.optimal
    return block.status in ("kept_original", "skipped_disconnected")


def resynthesize(blocks: Sequence[Block], cm: CouplingMap, mode: Mode,
                 cache: dict[tuple, Skeleton],
                 synthesize: Callable[[list[Block]], list[Block]],
                 judged: dict[tuple, Block] | None = None,
                 ) -> tuple[list[Block], int]:
    """Resynthesize every block; returns the replacements and the number
    of blocks served without a synthesis of their own.

    A block already at its floors (``at_floors``) comes back
    ``kept_original`` without a key.  Only the first block of each other
    key missing from ``cache`` goes through ``synthesize``, which maps
    those blocks to their replacements (as ``resynth_block`` does); its
    skeleton is cached when it is proven optimal.  Every other block of
    the key gets that skeleton, or inherits the first block's failure
    when there is none.

    ``judged``, when given, maps ``(qubits, gates)`` to a replacement
    that no later call with the same ``cache`` can change (``_settled``):
    a block found there takes that judgment with its own span, and no
    floor, key or skeleton is computed for it.  Each new settled
    replacement is added to it.
    """
    out: list[Block] = list(blocks)
    keys: dict[int, tuple] = {}
    for i, block in enumerate(blocks):
        seen = None if judged is None else judged.get((block.qubits, block.gates))
        if seen is not None:
            out[i] = replace(seen, span=block.span)
            continue
        table = merged_table(block.rep)
        if at_floors(block, table):
            out[i] = replace(block, status="kept_original")
        else:
            keys[i] = synthesis_key(block.rep, induced_coupling(cm, block.qubits), table)
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
    if judged is not None:
        for block, new in zip(blocks, out):
            if _settled(new):
                judged.setdefault((block.qubits, block.gates), new)
    return out, len(blocks) - len(first)


def peephole_with_report(circuit: Circuit, cm: CouplingMap, mode: Mode = Mode.CNOT,
                         doubly: bool = True, timeout_s: float = 600.0,
                         ) -> tuple[Circuit, list[tuple[Block, Block]]]:
    """One pass of ``resynthesize`` over the maximal blocks, spliced back;
    returns the new circuit and the (original, replacement) block pairs."""
    if not validate_topology(circuit, cm):
        raise ValueError("input circuit violates the coupling map")
    blocks = find_blocks(circuit)
    replaced, _ = resynthesize(
        blocks, cm, mode, {},
        lambda todo: [resynth_block(b, cm, mode, doubly, timeout_s) for b in todo])
    return splice_blocks(circuit, replaced), list(zip(blocks, replaced))


__all__ = [
    "Block", "Skeleton", "find_blocks", "block_to_physical", "splice_blocks",
    "apply_skeleton", "resynth_block", "at_floors", "resynthesize", "peephole_with_report",
]
