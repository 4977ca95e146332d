import dataclasses
import random

import pytest

import paritysat.peephole
from paritysat.encoder import Mode
from paritysat.ir import (
    Circuit,
    Cnot,
    CouplingMap,
    Opaque,
    PhasePolyRep,
    Rz,
    cnot_count,
    cnot_depth,
    induced_coupling,
    validate_topology,
)
from paritysat.oracle import oracle_min_count, oracle_min_depth
from paritysat.peephole import (
    at_floors,
    find_blocks,
    ordered_metrics,
    peephole_with_report,
    resynth_block,
    resynthesize,
    splice_blocks,
)
from paritysat.phasepoly import canonical_equal, canonicalize, equivalent, merged_table
from paritysat.synthesizer import (
    InternalConsistencyError,
    SynthesisRequest,
    hopps,
    lower_bound,
    place_rotations,
)

from testkit import TOPOLOGIES, random_cnot_rz_circuit, random_mixed_circuit


def test_pure_circuit_is_one_block():
    c = random_cnot_rz_circuit(random.Random(0), 4, 6, 3)
    blocks = find_blocks(c)
    assert len(blocks) == 1
    assert blocks[0].span == tuple(range(len(c.gates)))


def test_opaque_splits_blocks():
    c = Circuit(2, (Cnot(0, 1), Opaque("h", (1,)), Cnot(0, 1)))
    blocks = find_blocks(c)
    assert [b.span for b in blocks] == [(0,), (2,)]


def test_merged_then_split_preserves_semantics():
    c = Circuit(4, (Cnot(0, 1), Cnot(2, 3), Opaque("h", (3,)), Cnot(1, 2)))
    blocks = find_blocks(c)
    spliced = splice_blocks(c, blocks)
    # identity splice: same multiset of gates and identical per-qubit order,
    # so only qubit-disjoint gates were commuted past each other
    assert sorted(map(repr, spliced.gates)) == sorted(map(repr, c.gates))

    def on_qubit(gates, q):
        out = []
        for g in gates:
            if isinstance(g, Cnot):
                if q in (g.control, g.target):
                    out.append(g)
            elif isinstance(g, Rz):
                if q == g.qubit:
                    out.append(g)
            elif q in g.qubits:
                out.append(g)
        return out

    for q in range(4):
        assert on_qubit(spliced.gates, q) == on_qubit(c.gates, q)


def test_block_rep_extracted_locally():
    c = Circuit(4, (Cnot(2, 3), Rz(0.5, 3)))
    (block,) = find_blocks(c)
    assert block.qubits == (2, 3)
    assert block.rep.table.terms == (0b11,)


def test_resynth_removes_redundant_pair(line3):
    c = Circuit(3, (Cnot(0, 1), Cnot(0, 1), Rz(0.2, 2)))
    blocks = find_blocks(c)
    assert len(blocks) == 2  # the lone rotation on qubit 2 is its own block
    block = next(b for b in blocks if len(b.qubits) == 2)
    new = resynth_block(block, line3, Mode.CNOT, doubly=True, timeout_s=30)
    assert new.status == "resynthesized"
    assert cnot_count(new.circuit) == 0


def test_resynth_skips_disconnected_block():
    cm = CouplingMap(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    c = Circuit(4, (Cnot(0, 1), Cnot(2, 3), Cnot(1, 2)))
    blocks = find_blocks(c)
    sub = CouplingMap(4, frozenset({(0, 1), (2, 3)}))  # disconnect the middle
    results = [resynth_block(b, sub, Mode.CNOT, doubly=True, timeout_s=30)
               for b in blocks]
    assert any(r.status == "skipped_disconnected" for r in results)
    assert all(r.gates == b.gates for r, b in zip(results, blocks)
               if r.status == "skipped_disconnected")


@pytest.mark.parametrize("mode", [Mode.CNOT, Mode.DEPTH])
@pytest.mark.parametrize("doubly", [False, True])
def test_skeleton_replays_the_synthesized_circuit(mode, doubly):
    # placing the angles on the skeleton again gives hopps' circuit, gate
    # for gate, including the order inside a depth-mode layer and after a
    # count-doubly descent, which places the rotations on a depth-mode
    # model's layers (the fixed seeds below each end on one)
    rng = random.Random(12)
    cm = CouplingMap.ring(4)
    circuits = [random_cnot_rz_circuit(rng, 4, 5, 4, cm) for _ in range(3)]
    circuits += [random_cnot_rz_circuit(random.Random(seed), 4, 6, 4, cm)
                 for seed in (5, 11, 14, 30, 38)]
    for circuit in circuits:
        (block,) = find_blocks(circuit)
        local = induced_coupling(cm, block.qubits)
        result = hopps(SynthesisRequest(block.rep, local, mode=mode, doubly=doubly))
        skeleton = resynth_block(block, cm, mode, doubly).skeleton
        rep = block.rep
        rebuilt = place_rotations(skeleton.steps,
                                  PhasePolyRep(rep.initial, rep.final, merged_table(rep)))
        assert rebuilt.gates == result.circuit.gates
        assert skeleton.metrics == (result.cnot_count, result.cnot_depth)
        assert skeleton.optimal


def test_already_optimal_block_keeps_metrics(line3):
    c = Circuit(3, (Cnot(0, 1), Rz(0.2, 1)))
    (block,) = find_blocks(c)
    new = resynth_block(block, line3, Mode.CNOT, doubly=True, timeout_s=30)
    assert cnot_count(new.circuit) == cnot_count(block.circuit)
    assert cnot_depth(new.circuit) == cnot_depth(block.circuit)
    # a tie is no improvement: the block keeps its own gates
    assert new.status == "kept_original"
    assert new.gates == block.gates


def test_pass_on_opaque_only_circuit():
    c = Circuit(2, (Opaque("h", (0,)), Opaque("cz", (0, 1))))
    cm = CouplingMap.complete(2)
    assert peephole_with_report(c, cm)[0].gates == c.gates


def test_pass_equivalent_to_direct_synthesis(triangle_circuit, line3):
    # a fully {CNOT, Rz} circuit resynthesizes as one block
    legal = Circuit(3, (
        Cnot(1, 2), Rz(0.3, 2), Cnot(0, 1), Rz(0.2, 1),
        Cnot(2, 1), Rz(0.1, 1), Cnot(0, 1), Cnot(1, 2),
    ))
    assert validate_topology(legal, line3)
    out = peephole_with_report(legal, line3, Mode.CNOT, doubly=True, timeout_s=60)[0]
    assert equivalent(out, legal)
    assert cnot_count(out) == 5  # golden optimum for this instance


def test_pass_metric_safety_and_block_equivalence():
    rng = random.Random(2024)
    cm = CouplingMap.complete(4)
    for _ in range(6):
        c = random_mixed_circuit(rng, 4, 12)
        out, pairs = peephole_with_report(c, cm, Mode.CNOT, doubly=True, timeout_s=30)
        assert validate_topology(out, cm)
        for old, new in pairs:
            assert cnot_count(new.circuit) <= cnot_count(old.circuit)
            assert canonical_equal(canonicalize(new.rep), canonicalize(old.rep))
        assert cnot_count(out) <= cnot_count(c)


def test_pass_soundness_on_pure_circuits():
    rng = random.Random(31)
    cm = CouplingMap.complete(3)
    for _ in range(5):
        c = random_cnot_rz_circuit(rng, 3, 4, 2, cm)
        out = peephole_with_report(c, cm, Mode.CNOT, doubly=True, timeout_s=30)[0]
        assert equivalent(out, c)
        assert cnot_count(out) <= cnot_count(c)


def test_second_pass_is_metric_noop():
    rng = random.Random(32)
    cm = CouplingMap.complete(3)
    c = random_cnot_rz_circuit(rng, 3, 5, 3, cm)
    once = peephole_with_report(c, cm, Mode.CNOT, doubly=True, timeout_s=30)[0]
    twice = peephole_with_report(once, cm, Mode.CNOT, doubly=True, timeout_s=30)[0]
    assert cnot_count(twice) == cnot_count(once)
    assert cnot_depth(twice) == cnot_depth(once)


def test_pass_synthesizes_each_distinct_block_problem_once(monkeypatch):
    calls = []
    real = paritysat.peephole.hopps

    def counted(req):
        calls.append(req)
        return real(req)

    monkeypatch.setattr(paritysat.peephole, "hopps", counted)

    def gadget(angle):
        return (Cnot(0, 1), Rz(angle, 1), Cnot(0, 1), Cnot(0, 1), Cnot(0, 1))

    # the opaque gate splits two blocks that differ only in their angle
    c = Circuit(2, gadget(0.3) + (Opaque("h", (1,)),) + gadget(0.7))
    out, pairs = peephole_with_report(c, CouplingMap.line(2), Mode.CNOT, doubly=True,
                                      timeout_s=30)
    assert len(calls) == 1
    assert [new.status for _, new in pairs] == ["resynthesized"] * 2
    assert cnot_count(out) == 4
    assert [g.angle for g in out.gates if isinstance(g, Rz)] == [0.3, 0.7]
    for old, new in pairs:
        assert canonical_equal(canonicalize(new.rep), canonicalize(old.rep))


def test_pass_rejects_an_off_map_circuit():
    c = Circuit(3, (Cnot(0, 2),))
    with pytest.raises(ValueError, match="violates the coupling map"):
        peephole_with_report(c, CouplingMap.line(3))


ALL_MODES = [(Mode.CNOT, False), (Mode.CNOT, True), (Mode.DEPTH, False), (Mode.DEPTH, True)]


def floor_blocks_circuit() -> Circuit:
    """Four blocks on line(4), each with its own CNOT count and depth at the
    provable floors: (3, 2) on four qubits, (2, 2), (1, 1) and no CNOT."""
    h = [Opaque("h", (q,)) for q in range(4)]
    return Circuit(4, (
        Cnot(0, 1), Cnot(2, 3), Cnot(1, 2), Rz(0.3, 2), *h,
        Cnot(1, 2), Cnot(2, 3), Rz(0.4, 3), h[2],
        Cnot(0, 1), Rz(0.1, 1), Rz(0.2, 3),
    ))


@pytest.mark.parametrize("mode, doubly", ALL_MODES)
def test_blocks_at_their_floors_are_kept_without_a_synthesis(monkeypatch, mode, doubly):
    def no_synthesis(req):
        raise AssertionError("a block at its floors reached hopps")

    monkeypatch.setattr(paritysat.peephole, "hopps", no_synthesis)
    c = floor_blocks_circuit()
    out, pairs = peephole_with_report(c, CouplingMap.line(4), mode, doubly)
    assert len(pairs) == 4
    assert [(cnot_count(old.circuit), cnot_depth(old.circuit)) for old, _ in pairs] == \
        [(3, 2), (2, 2), (1, 1), (0, 0)]
    for old, new in pairs:
        assert (new.status, new.error, new.skeleton) == ("kept_original", None, None)
        assert new.gates == old.gates
    assert out.gates == c.gates


@pytest.mark.parametrize("mode, doubly", ALL_MODES)
def test_no_synthesis_improves_on_a_block_at_its_floors(mode, doubly):
    rng = random.Random(f"at-floors-{mode.name}-{doubly}")
    sizes = []
    for _ in range(30):
        n = rng.choice([2, 3, 4, 4])
        cm = TOPOLOGIES[rng.choice(sorted(TOPOLOGIES))](n)
        c = random_cnot_rz_circuit(rng, n, rng.randint(1, 5), rng.randint(0, 3), cm)
        for block in find_blocks(c):
            if not at_floors(block, merged_table(block.rep)):
                continue
            own = (cnot_count(block.circuit), cnot_depth(block.circuit))
            local = induced_coupling(cm, block.qubits)
            result = hopps(SynthesisRequest(block.rep, local, mode=mode, doubly=doubly))
            assert ordered_metrics(mode, result.cnot_count, result.cnot_depth) >= \
                ordered_metrics(mode, *own)
            best, circuits = (oracle_min_count if mode is Mode.CNOT else oracle_min_depth)(
                block.rep, local)
            assert min(ordered_metrics(mode, cnot_count(o), cnot_depth(o))
                       for o in circuits) >= ordered_metrics(mode, *own)
            sizes.append(block.rep.n)
    assert len(sizes) >= 10 and {2, 4} <= set(sizes)


def test_a_floor_above_a_block_raises(monkeypatch):
    real = lower_bound
    monkeypatch.setattr(paritysat.peephole, "lower_bound",
                        lambda rep, mode: real(rep, mode) + 1)
    blocks = find_blocks(floor_blocks_circuit())
    with pytest.raises(InternalConsistencyError, match="below its floors"):
        resynthesize(blocks, CouplingMap.line(4), Mode.CNOT, {},
                     lambda todo: [resynth_block(b, CouplingMap.line(4)) for b in todo])


@pytest.mark.parametrize("optimal", [True, False])
def test_a_memo_keeps_only_judgments_no_later_call_can_change(monkeypatch, optimal):
    found = paritysat.peephole.hopps
    monkeypatch.setattr(paritysat.peephole, "hopps",
                        lambda req: dataclasses.replace(found(req), optimal=optimal))
    line = CouplingMap.line(3)
    # one block that improves to two CNOTs, then one already at its floors
    c = Circuit(3, (Cnot(0, 1), Rz(0.3, 1), Cnot(0, 1), Cnot(1, 0), Cnot(1, 0),
                    Opaque("h", (1,)), Cnot(1, 2), Rz(0.5, 2)))
    improvable, floored = find_blocks(c)
    sent = []

    def synthesize(todo):
        sent.append(len(todo))
        return [resynth_block(b, line, Mode.CNOT, doubly=False) for b in todo]

    cache, judged = {}, {}
    first, _ = resynthesize([improvable, floored], line, Mode.CNOT, cache, synthesize, judged)
    again, hits = resynthesize([improvable, floored], line, Mode.CNOT, cache, synthesize,
                               judged)
    assert [b.status for b in first] == ["resynthesized", "kept_original"]
    assert again == first
    assert sent == [1, 0 if optimal else 1]
    assert hits == (2 if optimal else 1)
    settled = [improvable, floored] if optimal else [floored]
    assert list(judged) == [(b.qubits, b.gates) for b in settled]
