"""Exact bidirectional search for optimal and doubly optimal circuits.

This is meet-in-the-middle synthesis (Amy, Maslov, Mosca & Roetteler,
IEEE TCAD 2013) with the set of terms seen added to the state.  A state is
a parity matrix and the unique terms (``ParityTable.unique_terms``) seen in
some slice so far, packed into one int: row ``i`` in bits ``T + n*i`` to
``T + n*i + n - 1``, above a mask of ``T`` bits, one per term.  A move is
one CNOT on a directed edge in count mode, and a nonempty layer of
qubit-disjoint CNOTs in the other three modes.  A CNOT and a layer are
their own inverses, so the backward search from (final rows, their terms)
makes the same moves as the forward one from (initial rows, their terms).
A forward state (M, A) and a backward state (M, B) join into a circuit
when ``A | B`` holds every term.

Every mode is a shortest path with an additive cost that packs
``(primary, secondary)`` into one int, ``primary << SECONDARY_BITS |
secondary``, so that costs add and compare lexicographically:

* count: ``(1, 0)`` per CNOT;
* depth: ``(1, 0)`` per layer;
* count-doubly: ``(|L|, 1)`` per layer ``L``;
* depth-doubly: ``(1, |L|)`` per layer ``L``.

A circuit can be cut into as many layers as its depth, so the least
(count, layers) pair over layer sequences is the least count and the
least depth among count-optimal circuits.

Each side is a uniform-cost search over one bucket of states per cost.
The search expands one bucket of the side with fewer queued states at a
time, joins every state it expands with the other side's states on the
same rows, and stops once the two lowest queued costs sum to at least the
best join (Pohl, 1971): then that join is optimal.  A state stores one
int, its cost above the index of the move that reached it, and the
parent is found again from the move (``_Moves.path``).  A move whose cost would
take the primary metric above ``k_max`` is not made.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .encoder import Mode, disjoint_sets
from .ir import CouplingMap, PhasePolyRep

# the most states one search stores, on both sides together: on a 64-bit
# CPython a state takes 130-180 bytes by ``tracemalloc``
# (``test_bytes_per_state``), whatever the number of terms, and peak RSS
# at the cap is about 370 MB
STATE_CAP = 2_000_000

SECONDARY_BITS = 20
PRIMARY = 1 << SECONDARY_BITS

# expansions between two reads of the deadline
DEADLINE_EVERY = 1024

_NEVER = float("inf")

# per step, the (control, target) pairs of its CNOTs
Layers = tuple[tuple[tuple[int, int], ...], ...]


@dataclass
class ExactOutcome:
    """What one search found.

    ``status`` is ``sat`` (``steps`` are an optimal circuit's CNOT steps,
    one move each, and ``cost`` its (primary, secondary) pair), ``unsat``
    (no circuit's primary metric is at most ``k_max``), ``capped`` (the
    search stored more than ``STATE_CAP`` states) or ``timeout``.  ``floor``
    is a proven floor on the primary metric of every circuit for the
    problem: the optimum when ``sat``, and ``k_max + 1`` when ``unsat``.
    """

    status: str
    floor: int
    states: tuple[int, int]       # states stored forward and backward
    seconds: float
    cost: tuple[int, int] | None = None
    steps: Layers = ()

    def record(self) -> dict:
        """The stats record of the search: phase ``exact``."""
        return {"phase": "exact", "k": self.floor, "status": self.status,
                "states": list(self.states),
                "cost": None if self.cost is None else list(self.cost),
                "seconds": self.seconds, "capped": self.status == "capped"}


class _Moves:
    """The moves of one problem, as shifts on its packed states.

    ``layers[m]`` are the CNOTs of move ``m``, ``costs[m]`` its packed cost,
    ``flips[m]`` the (control, target) row shifts of its CNOTs and
    ``targets[m]`` their target row shifts.  A stored value is a cost above
    ``bits`` bits of move index; the index ``start`` marks a side's start.
    """

    def __init__(self, rep: PhasePolyRep, coupling: CouplingMap, mode: Mode,
                 doubly: bool) -> None:
        n = rep.n
        terms = rep.table.unique_terms
        self.n, self.tbits = n, len(terms)
        self.full = (1 << len(terms)) - 1
        self.low = (1 << n) - 1
        # the mask bit of each row value that is a term
        self.term_bit = {term: 1 << b for b, term in enumerate(terms)}
        edges = coupling.directed_edges()
        if mode is Mode.CNOT and not doubly:
            self.layers = [((c, t),) for c, t in edges]
            self.costs = [PRIMARY] * len(edges)
        else:
            self.layers = [tuple(edges[e] for e in chosen)
                           for chosen in disjoint_sets(edges, smallest=1)]
            self.costs = [len(layer) * PRIMARY + 1 if mode is Mode.CNOT
                          else PRIMARY + (len(layer) if doubly else 0)
                          for layer in self.layers]
        shift = [self.tbits + n * q for q in range(n)]
        self.flips = [tuple((shift[c], shift[t]) for c, t in layer) for layer in self.layers]
        self.targets = [tuple(shift[t] for _, t in layer) for layer in self.layers]
        self.start = len(self.layers)
        self.bits = self.start.bit_length()

    def pack(self, rows: tuple[int, ...]) -> int:
        """The state of a matrix whose rows are all the slices seen."""
        state = 0
        for i, row in enumerate(rows):
            state |= row << (self.tbits + self.n * i) | self.term_bit.get(row, 0)
        return state

    def path(self, side: "_Side", state: int) -> list[int]:
        """The moves from ``state`` back to its side's start, nearest first.

        A move undoes itself on the rows.  The move reached ``state`` from a
        state whose mask lacks at most the bits of its target rows, so of
        those candidates, the first one stored at the cost of ``state`` less
        the move's is a parent: every stored cost is that of a path.
        """
        moves = []
        index = (1 << self.bits) - 1
        while True:
            value = side.seen[state]
            m = value & index
            if m == self.start:
                return moves
            parent = state
            for sc, st in self.flips[m]:
                parent ^= ((parent >> sc) & self.low) << st
            added = 0
            for st in self.targets[m]:
                added |= self.term_bit.get((state >> st) & self.low, 0)
            want = (value >> self.bits) - self.costs[m]
            base, subset = parent & ~added, added
            while True:
                known = side.seen.get(base | subset)
                if known is not None and known >> self.bits == want:
                    state = base | subset
                    break
                if not subset:
                    raise RuntimeError("a stored state has no parent at its cost")
                subset = (subset - 1) & added
            moves.append(m)


class _Side:
    """One direction of the search.

    ``seen`` maps each state stored to its cost above the index of the
    move that reached it; ``rows`` maps the rows of every state stored to
    the states stored on them, for the join: the one state, or a list of
    two or more (most rows hold one state, and an int costs no more
    storage, being the key of ``seen`` already); ``buckets`` holds the
    states queued at each cost, and ``costs`` those costs as a heap.  A
    queued state that was reached again more cheaply stays in its old
    bucket, and is skipped there.
    """

    __slots__ = ("seen", "rows", "buckets", "costs", "queued")

    def __init__(self, start: int, moves: _Moves) -> None:
        self.seen = {start: moves.start}
        self.rows: dict[int, int | list[int]] = {start >> moves.tbits: start}
        self.buckets = {0: [start]}
        self.costs = [0]
        self.queued = 1

    def top(self) -> float:
        return self.costs[0] if self.costs else _NEVER


def exact_search(rep: PhasePolyRep, coupling: CouplingMap, mode: Mode, doubly: bool,
                 k_max: int, deadline: float) -> ExactOutcome:
    """Search the problem ``synthesizer.synthesis_problem`` prepared: the
    merged ``rep`` on ``coupling``, its map on the rep's qubits.

    Reads ``deadline`` (a ``time.monotonic`` value) before it expands
    anything and then every ``DEADLINE_EVERY`` expansions, and stops with
    ``timeout`` once it has passed.
    """
    started = time.monotonic()
    moves = _Moves(rep, coupling, mode, doubly)
    tbits, full, low, bits = moves.tbits, moves.full, moves.low, moves.bits
    term_bit = moves.term_bit.get
    fwd = _Side(moves.pack(rep.initial.rows), moves)
    bwd = _Side(moves.pack(rep.final.rows), moves)
    limit = (k_max + 1) * PRIMARY  # a cost at or above it is out of reach
    best: float = _NEVER
    meet = (0, 0)          # the forward and backward states of the best join
    expanded = 0

    def outcome(status: str, floor: float) -> ExactOutcome:
        found = status == "sat"
        steps = moves.path(fwd, meet[0])[::-1] + moves.path(bwd, meet[1]) if found else []
        return ExactOutcome(
            status, int(floor) // PRIMARY, (len(fwd.seen), len(bwd.seen)),
            time.monotonic() - started,
            (int(best) // PRIMARY, int(best) % PRIMARY) if found else None,
            tuple(moves.layers[m] for m in steps))

    if time.monotonic() >= deadline:
        return outcome("timeout", 0)
    cap = STATE_CAP
    while True:
        tops = fwd.top() + bwd.top()
        if tops >= min(best, limit):
            return outcome("sat", best) if best < limit else outcome("unsat", limit)
        side, other = (fwd, bwd) if fwd.queued <= bwd.queued else (bwd, fwd)
        cost = heappop(side.costs)
        bucket = side.buckets.pop(cost)
        side.queued -= len(bucket)
        # each move sends every state of this bucket to one bucket, and
        # stores the same value object for each
        reach = []
        for m, step in enumerate(moves.costs):
            to = cost + step
            if to >= limit:
                continue
            queue = side.buckets.get(to)
            if queue is None:
                queue = side.buckets[to] = []
                heappush(side.costs, to)
            reach.append((moves.flips[m], moves.targets[m], to, to << bits | m, queue))
        seen, by_rows = side.seen, side.rows
        other_seen, other_rows = other.seen, other.rows
        for state in bucket:
            if seen[state] >> bits != cost:
                continue  # reached again more cheaply
            expanded += 1
            if not expanded % DEADLINE_EVERY and time.monotonic() >= deadline:
                return outcome("timeout", min(best, cost + other.top()))
            rows = state >> tbits
            same = other_rows.get(rows, ())
            if same.__class__ is int:
                same = (same,)
            need = full ^ (state & full)
            for match in same:
                if match & need == need:
                    join = cost + (other_seen[match] >> bits)
                    if join < best:
                        best = join
                        meet = (state, match) if side is fwd else (match, state)
            for flips, targets, to, value, queue in reach:
                nxt = state
                for sc, st in flips:
                    nxt ^= ((nxt >> sc) & low) << st
                for st in targets:
                    nxt |= term_bit((nxt >> st) & low, 0)
                known = seen.get(nxt)
                if known is None:
                    key = nxt >> tbits
                    same = by_rows.get(key)
                    if same is None:
                        by_rows[key] = nxt
                    elif same.__class__ is list:
                        same.append(nxt)
                    else:
                        by_rows[key] = [same, nxt]
                elif known >> bits <= to:
                    continue
                seen[nxt] = value
                queue.append(nxt)
                side.queued += 1
            if len(seen) + len(other_seen) > cap:
                return outcome("capped", min(best, cost + other.top()))


__all__ = ["STATE_CAP", "ExactOutcome", "exact_search"]
