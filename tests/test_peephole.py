import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import paritysat.peephole
import paritysat.phasepoly
import paritysat.synthesizer
from paritysat.blockwise import BlockwiseConfig, partition, sample_blocks
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
    _scan_blocks,
    at_floors,
    find_blocks,
    ordered_metrics,
    peephole_with_report,
    resynth_block,
    resynthesize,
    skeleton_cache,
    splice_blocks,
)
from paritysat.phasepoly import canonical_equal, canonicalize, equivalent, merged_table
from paritysat.synthesizer import (
    InternalConsistencyError,
    NoSolutionWithinKmax,
    SynthesisRequest,
    hopps,
    lower_bound,
    place_rotations,
    synthesis_key,
    synthesis_problem,
)

from testkit import (
    TOPOLOGIES,
    random_cnot_rz_circuit,
    random_mixed_circuit,
    reference_scan_blocks,
)

REF_SOLVER = Path(__file__).resolve().parent.parent / "scripts" / "ref_solver.py"


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


@st.composite
def scan_circuits(draw) -> Circuit:
    """Up to 24 CNOT, Rz and opaque gates (``barrier`` among them) on at
    most 6 qubits, CNOTs drawn most often so that blocks grow and merge."""
    n = draw(st.integers(1, 6))
    qubit = st.integers(0, n - 1)
    options = [st.builds(Rz, st.just(0.5), qubit),
               st.builds(Opaque, st.sampled_from(("h", "cz", "barrier")),
                         st.lists(qubit, unique=True, max_size=n).map(tuple))]
    if n >= 2:
        cnot = st.lists(qubit, min_size=2, max_size=2, unique=True).map(lambda p: Cnot(*p))
        options += [cnot, cnot]
    return Circuit(n, tuple(draw(st.lists(st.one_of(options), max_size=24))))


@given(scan_circuits())
def test_scan_groups_as_the_reference_scan(circuit):
    for max_qubits in (None, 2, 3, 4):
        for max_depth in (None, 1, 2, 3, 4, 5):
            for flush_at in (None, *range(len(circuit.gates) + 1)):
                reference = reference_scan_blocks(circuit, max_qubits, max_depth, flush_at)
                assert _scan_blocks(circuit, max_qubits, max_depth, flush_at) == \
                    [indices for _, indices in reference]


@pytest.mark.parametrize("seed", range(3))
def test_scan_groups_as_the_reference_scan_at_bench_scale(seed):
    """16-qubit grid circuits keep many blocks open at once, which the
    small hypothesis draws above never do."""
    grid = CouplingMap.grid(4, 4)
    circuits = (random_mixed_circuit(random.Random(seed), 16, 400, grid),
                random_cnot_rz_circuit(random.Random(seed), 16, 300, 150, grid))
    for circuit in circuits:
        for max_qubits, max_depth in ((None, None), (3, 20), (4, 5)):
            for flush_at in (None, 0, 200):
                reference = reference_scan_blocks(circuit, max_qubits, max_depth, flush_at)
                assert _scan_blocks(circuit, max_qubits, max_depth, flush_at) == \
                    [indices for _, indices in reference]


@pytest.mark.parametrize("caps", [{"max_qubits": 1}, {"max_depth": 0}])
def test_scan_caps_must_admit_one_cnot(caps):
    with pytest.raises(ValueError, match="admit one CNOT"):
        _scan_blocks(Circuit(2, (Cnot(0, 1),)), **caps)


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


def test_resynth_on_a_map_that_splits_the_block_raises():
    c = Circuit(4, (Cnot(0, 1), Cnot(2, 3), Cnot(1, 2)))
    (block,) = find_blocks(c)
    split = CouplingMap(4, frozenset({(0, 1), (2, 3)}))  # no middle edge
    with pytest.raises(ValueError, match="connected"):
        resynth_block(block, split, Mode.CNOT, doubly=True, timeout_s=30)


@pytest.mark.parametrize("mode, k_max", [(Mode.CNOT, 4), (Mode.DEPTH, 3)])
def test_resynth_searches_up_to_the_blocks_own_primary_metric(monkeypatch, mode, k_max):
    # the block's own circuit is a witness on its induced map
    c = Circuit(4, (Cnot(0, 1), Cnot(2, 3), Cnot(1, 2), Cnot(0, 1)))
    (block,) = find_blocks(c)
    assert (cnot_count(block.circuit), cnot_depth(block.circuit)) == (4, 3)
    requests = []

    def recording(req):
        requests.append(req)
        return hopps(req)

    monkeypatch.setattr(paritysat.peephole, "hopps", recording)
    resynth_block(block, CouplingMap.line(4), mode, doubly=True, timeout_s=30)
    assert [req.k_max for req in requests] == [k_max]


def test_a_block_with_no_solution_within_its_own_metric_raises(monkeypatch):
    # UNSAT at every budget up to a witness is a fault, not a budget failure
    def infeasible(req):
        raise NoSolutionWithinKmax(f"no solution with step budget up to {req.k_max}")

    monkeypatch.setattr(paritysat.peephole, "hopps", infeasible)
    (block,) = find_blocks(Circuit(2, (Cnot(0, 1), Rz(0.2, 1), Cnot(0, 1))))
    with pytest.raises(NoSolutionWithinKmax, match="up to 2"):
        resynth_block(block, CouplingMap.line(2), Mode.CNOT, doubly=True, timeout_s=30)


CONNECTED_MAPS = (CouplingMap.line(5), CouplingMap.ring(5), CouplingMap.grid(2, 3))


@given(st.sampled_from(CONNECTED_MAPS), st.randoms(use_true_random=False),
       st.integers(0, 30), st.integers(2, 4), st.integers(1, 5))
def test_every_scanned_block_induces_a_connected_map(cm, rng, n_gates,
                                                     max_qubits, max_depth):
    circuit = random_mixed_circuit(rng, cm.num_qubits, n_gates, cm)
    assert validate_topology(circuit, cm)
    cfg = BlockwiseConfig(max_block_qubits=max_qubits, max_block_depth=max_depth)
    blocks = find_blocks(circuit) + partition(circuit, cfg) + \
        sample_blocks(circuit, cfg, rng)
    for block in blocks:
        assert induced_coupling(cm, block.qubits).is_connected()


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


def test_each_block_merges_its_table_once(monkeypatch):
    merges = []
    in_skeleton = []
    hopps_calls = []
    real_merge = paritysat.phasepoly.merged_table
    real_apply = paritysat.peephole.apply_skeleton
    real_hopps = paritysat.peephole.hopps

    def counted_merge(rep):
        merges.append(bool(in_skeleton))
        return real_merge(rep)

    def flagged_apply(*args):
        in_skeleton.append(True)
        try:
            return real_apply(*args)
        finally:
            in_skeleton.pop()

    def counted_hopps(req):
        hopps_calls.append(req)
        return real_hopps(req)

    # counted wherever a module of the engine could call it from
    for module in (paritysat.phasepoly, paritysat.synthesizer, paritysat.peephole):
        monkeypatch.setattr(module, "merged_table", counted_merge, raising=False)
    monkeypatch.setattr(paritysat.peephole, "apply_skeleton", flagged_apply)
    monkeypatch.setattr(paritysat.peephole, "hopps", counted_hopps)

    def gadget(angle):
        return (Cnot(0, 1), Rz(angle, 1), Cnot(0, 1), Cnot(0, 1), Cnot(0, 1))

    h = (Opaque("h", (1,)),)
    line = CouplingMap.line(2)
    # three blocks of one key, each read for its floors
    blocks = find_blocks(Circuit(2, gadget(0.3) + h + gadget(0.5) + h + gadget(0.7)))
    out, hits = resynthesize(
        blocks, line, Mode.CNOT, {},
        lambda todo: [resynth_block(b, line, timeout_s=30) for b in todo], {})
    assert [b.status for b in out] == ["resynthesized"] * 3 and hits == 2
    assert len(hopps_calls) == 1
    assert len(merges) == len(blocks) + len(hopps_calls)
    assert not any(merges)  # never from apply_skeleton



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
            if not at_floors(block):
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
                     lambda todo: [resynth_block(b, CouplingMap.line(4)) for b in todo], {})


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


def count_syntheses(monkeypatch) -> list[tuple]:
    """The key of every ``hopps`` call the peephole engine makes."""
    keys = []
    real = paritysat.peephole.hopps

    def counted(req):
        keys.append(synthesis_key(*synthesis_problem(req.rep, req.coupling)))
        return real(req)

    monkeypatch.setattr(paritysat.peephole, "hopps", counted)
    return keys


def three_keys_circuit() -> Circuit:
    """Three blocks on line(3), none at its floors, each of its own key."""
    h = (Opaque("h", (0,)), Opaque("h", (1,)))
    return Circuit(3, (
        Cnot(0, 1), Rz(0.3, 1), Cnot(0, 1), Cnot(0, 1), Cnot(0, 1), *h,
        Cnot(0, 1), Rz(0.4, 1), Cnot(1, 0), Cnot(1, 0), *h,
        Cnot(1, 2), Rz(0.5, 2), Cnot(1, 2), Cnot(2, 1), Cnot(2, 1), Cnot(2, 1),
    ))


def test_a_second_pass_is_served_from_the_store(monkeypatch):
    keys = count_syntheses(monkeypatch)
    c, line = three_keys_circuit(), CouplingMap.line(3)
    first = peephole_with_report(c, line, Mode.DEPTH, doubly=True, timeout_s=30)
    assert len(keys) == len(set(keys)) == 3
    assert list(skeleton_cache(Mode.DEPTH, True)) == [
        synthesis_key(old.rep, induced_coupling(line, old.qubits)) for old, _ in first[1]]
    again = peephole_with_report(c, line, Mode.DEPTH, doubly=True, timeout_s=30)
    assert len(keys) == 3
    assert again == first


def test_each_mode_and_doubly_setting_has_a_store_of_its_own(monkeypatch):
    keys = count_syntheses(monkeypatch)
    c, line = three_keys_circuit(), CouplingMap.line(3)
    outs = {}
    for mode, doubly in ALL_MODES:
        before = len(keys)
        outs[mode, doubly] = peephole_with_report(c, line, mode, doubly, timeout_s=30)[0]
        assert len(keys) - before == 3
    for mode, doubly in ALL_MODES:
        assert peephole_with_report(c, line, mode, doubly, timeout_s=30)[0] == \
            outs[mode, doubly]
    assert len(keys) == 3 * len(ALL_MODES)


@pytest.mark.skipif(not REF_SOLVER.exists(), reason="reference solver not found")
def test_a_key_one_backend_stored_is_synthesized_again_on_another(monkeypatch):
    keys = count_syntheses(monkeypatch)
    c, line = three_keys_circuit(), CouplingMap.line(3)
    monkeypatch.delenv("HOPPS_SOLVER", raising=False)
    internal = peephole_with_report(c, line, Mode.CNOT, doubly=True, timeout_s=30)
    # "internal" names the backend that an unset variable selects
    monkeypatch.setenv("HOPPS_SOLVER", "internal")
    assert peephole_with_report(c, line, Mode.CNOT, doubly=True, timeout_s=30) == internal
    assert len(keys) == 3
    monkeypatch.setenv("HOPPS_SOLVER", str(REF_SOLVER))
    external, pairs = peephole_with_report(c, line, Mode.CNOT, doubly=True, timeout_s=30)
    assert len(keys) == 6 and keys[3:] == keys[:3]
    assert validate_topology(external, line)
    for old, new in pairs:
        assert canonical_equal(canonicalize(new.rep), canonicalize(old.rep))
    assert [(cnot_count(new.circuit), cnot_depth(new.circuit)) for _, new in pairs] == \
        [(cnot_count(new.circuit), cnot_depth(new.circuit)) for _, new in internal[1]]
    monkeypatch.delenv("HOPPS_SOLVER")
    assert peephole_with_report(c, line, Mode.CNOT, doubly=True, timeout_s=30) == internal
    assert len(keys) == 6


def test_an_unproven_skeleton_is_synthesized_again_by_the_next_call(monkeypatch):
    calls = []
    real = paritysat.peephole.hopps

    def cut_short(req):  # as a doubly optimal search that hit its deadline
        calls.append(req)
        return dataclasses.replace(real(req), optimal=False)

    monkeypatch.setattr(paritysat.peephole, "hopps", cut_short)
    c, line = three_keys_circuit(), CouplingMap.line(3)
    first = peephole_with_report(c, line, Mode.CNOT, doubly=True, timeout_s=30)
    again = peephole_with_report(c, line, Mode.CNOT, doubly=True, timeout_s=30)
    assert len(calls) == 6
    assert again == first
    assert skeleton_cache(Mode.CNOT, True) == {}


def test_the_store_drops_its_oldest_skeleton_past_its_limit(monkeypatch):
    monkeypatch.setattr(paritysat.peephole, "STORE_LIMIT", 2)
    line = CouplingMap.line(3)
    blocks = find_blocks(three_keys_circuit())
    keys = [synthesis_key(b.rep, induced_coupling(line, b.qubits)) for b in blocks]
    sent = []

    def synthesize(todo):
        sent.extend(todo)
        return [resynth_block(b, line, timeout_s=30) for b in todo]

    cache = {}
    first, _ = resynthesize(blocks[:1], line, Mode.CNOT, cache, synthesize, {})
    assert list(cache) == keys[:1]
    # the call's own insertions drop the first key, which it still serves
    out, hits = resynthesize(blocks, line, Mode.CNOT, cache, synthesize, {})
    assert (hits, sent) == (1, blocks)
    assert list(cache) == keys[1:]
    assert out[0] == first[0]
    out, hits = resynthesize(blocks[2:] + blocks[:1], line, Mode.CNOT, cache, synthesize, {})
    assert (hits, len(sent)) == (1, 4)
    assert list(cache) == keys[2:] + keys[:1]
