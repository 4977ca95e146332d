import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paritysat.sat.core import (
    CardinalityError,
    SatInstance,
    at_least_k,
    at_most_k,
    export_dimacs,
    parse_dimacs,
    sequential_at_most,
)
from paritysat.sat.solver import Solver

from brute import brute_model_count, brute_projections, truth_table_mask


def fresh(n):
    inst = SatInstance()
    lits = inst.new_vars(n)
    return inst, lits


def test_add_clause_validation():
    inst = SatInstance()
    x = inst.new_var()
    inst.add_clause([x])
    with pytest.raises(ValueError):
        inst.add_clause([])
    with pytest.raises(ValueError):
        inst.add_clause([x + 1])
    with pytest.raises(ValueError, match="literal -2 references an unallocated"):
        inst.add_clause([x, -(x + 1)])
    with pytest.raises(ValueError, match="literal 0 references an unallocated"):
        inst.add_clause([-x, 0])
    assert inst.clauses == [[x]]


def test_named_families_injective():
    inst = SatInstance()
    v = inst.name_var("cnot", 0, 1, 2)
    assert inst.named[("cnot", (0, 1, 2))] == v
    with pytest.raises(ValueError):
        inst.name_var("cnot", 0, 1, 2)


def test_unit_clause_forces_value():
    inst, (x,) = fresh(1)
    inst.add_clause([x])
    model = Solver(inst).solve()
    assert model is not None and model[x]


def test_contradiction_unsat():
    inst, (x,) = fresh(1)
    inst.add_clause([x])
    inst.add_clause([-x])
    assert Solver(inst).solve() is None


def test_xor_gadget_models():
    inst, (x, y) = fresh(2)
    inst.add_clause([x, y])
    inst.add_clause([-x, -y])
    projections = brute_projections(inst.num_vars, inst.clauses, [x, y])
    assert projections == {(True, False), (False, True)}


def test_at_most_one_pairwise_clause_shape():
    inst, lits = fresh(3)
    at_most_k(inst, lits, 1)
    expected = {frozenset((-a, -b)) for a, b in itertools.combinations(lits, 2)}
    assert {frozenset(c) for c in inst.clauses} == expected


def test_at_most_k_noop_when_k_large():
    inst, lits = fresh(4)
    at_most_k(inst, lits, 4)
    at_most_k(inst, lits, 9)
    assert inst.clauses == []


def test_at_most_two_of_four_model_count():
    inst, lits = fresh(4)
    at_most_k(inst, lits, 2)
    projections = brute_projections(inst.num_vars, inst.clauses, lits)
    assert len(projections) == 11  # C(4,0)+C(4,1)+C(4,2)
    assert all(sum(p) <= 2 for p in projections)


def test_at_least_examples():
    inst, lits = fresh(2)
    at_least_k(inst, lits, 1)
    assert inst.clauses == [[lits[0], lits[1]]]
    inst2, lits2 = fresh(3)
    at_least_k(inst2, lits2, 0)
    assert inst2.clauses == []
    inst3, lits3 = fresh(3)
    at_least_k(inst3, lits3, 2)
    projections = brute_projections(inst3.num_vars, inst3.clauses, lits3)
    assert projections == {p for p in itertools.product([False, True], repeat=3)
                           if sum(p) >= 2}
    assert len(projections) == 4


def test_at_least_overflow_raises():
    inst, lits = fresh(2)
    with pytest.raises(CardinalityError):
        at_least_k(inst, lits, 3)
    with pytest.raises(ValueError):
        at_most_k(inst, lits, -1)


@given(st.integers(1, 8), st.integers(0, 8), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_cardinality_projections_match_counting(n, k, most, seed):
    from hypothesis import assume

    inst, lits = fresh(n)
    if most:
        at_most_k(inst, lits, k)
    else:
        if k > n:
            with pytest.raises(CardinalityError):
                at_least_k(inst, lits, k)
            return
        at_least_k(inst, lits, k)
    assume(inst.num_vars <= 18)  # keep exhaustive enumeration cheap
    projections = brute_projections(inst.num_vars, inst.clauses, lits)
    want = {p for p in itertools.product([False, True], repeat=n)
            if (sum(p) <= k if most else sum(p) >= k)}
    assert projections == want


def test_cardinality_projections_with_many_auxiliaries():
    # wider gadgets whose auxiliary count exceeds the brute-force cap:
    # fix each literal assignment with units and ask the solver whether the
    # auxiliaries extend it
    rng = random.Random(8)
    for _ in range(6):
        n = rng.randint(6, 8)
        k = rng.randint(2, 5)
        most = rng.random() < 0.5
        inst, lits = fresh(n)
        (at_most_k if most else at_least_k)(inst, lits, k)
        for bits in itertools.product([False, True], repeat=n):
            probe = SatInstance(num_vars=inst.num_vars,
                                clauses=[list(c) for c in inst.clauses])
            for lit, bit in zip(lits, bits):
                probe.add_clause([lit if bit else -lit])
            extendable = Solver(probe).solve() is not None
            expected = sum(bits) <= k if most else sum(bits) >= k
            assert extendable == expected


def _extendable(inst, lits):
    """The assignments of ``lits`` that the auxiliaries of ``inst`` extend
    to a model."""
    allowed = set()
    for bits in itertools.product([False, True], repeat=len(lits)):
        units = [[lit if bit else -lit] for lit, bit in zip(lits, bits)]
        if Solver(SatInstance(inst.num_vars, [*inst.clauses, *units])).solve() is not None:
            allowed.add(bits)
    return allowed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counter_states_each_lower_bound_under_its_goal(n):
    everything = set(itertools.product([False, True], repeat=n))
    for k in range(1, n):
        inst, lits = fresh(n)
        counter = sequential_at_most(inst, lits, k)
        # each bound below k on one counter, in the order of a descent;
        # without its goal as a unit, a bound leaves the counter's own
        for tight in range(k - 1, -1, -1):
            goal = counter.at_most(inst, tight)
            assert _extendable(inst, lits) == {p for p in everything if sum(p) <= k}
            goal_held = SatInstance(inst.num_vars, [*inst.clauses, [goal]])
            assert _extendable(goal_held, lits) == {p for p in everything
                                                    if sum(p) <= tight}
        for bad in (k, k + 1, -1):
            with pytest.raises(ValueError):
                counter.at_most(inst, bad)
    with pytest.raises(ValueError):
        sequential_at_most(*fresh(n), n)


def test_export_appends_units_without_changing_the_instance():
    inst, (x1, x2) = fresh(2)
    inst.add_clause([x1, -x2])
    lines = export_dimacs(inst, (x2, -x1)).strip().splitlines()
    assert lines == ["p cnf 2 3", "1 -2 0", "2 0", "-1 0"]
    assert inst.clauses == [[x1, -x2]]
    assert Solver(parse_dimacs("\n".join(lines))).solve() is None


def test_export_empty_instance():
    assert export_dimacs(SatInstance()).strip() == "p cnf 0 0"


def test_export_single_clause():
    inst, (x1, x2) = fresh(2)
    inst.add_clause([x1, -x2])
    lines = export_dimacs(inst).strip().splitlines()
    assert lines[0] == "p cnf 2 1"
    assert lines[1] == "1 -2 0"


def test_export_names_in_comments():
    inst = SatInstance()
    inst.name_var("cnot", 0, 1, 2)
    text = export_dimacs(inst)
    assert "c named cnot(0,1,2) = 1" in text


def test_export_ignores_preferences():
    inst, (x1, x2, x3) = fresh(3)
    inst.add_clause([x1, -x2, x3])
    plain = export_dimacs(inst, (x3,))
    inst.preferred.extend([x1, -x3])
    assert export_dimacs(inst, (x3,)) == plain


def test_parsed_instance_has_no_preferences():
    inst, (x1, x2) = fresh(2)
    inst.add_clause([x1, x2])
    inst.preferred.append(x2)
    assert parse_dimacs(export_dimacs(inst)).preferred == []


def test_dimacs_round_trip():
    rng = random.Random(33)
    for _ in range(20):
        inst = SatInstance()
        lits = inst.new_vars(rng.randint(1, 8))
        for _ in range(rng.randint(0, 12)):
            clause = [rng.choice(lits) * rng.choice([-1, 1])
                      for _ in range(rng.randint(1, 4))]
            inst.add_clause(clause)
        back = parse_dimacs(export_dimacs(inst))
        assert back.num_vars == inst.num_vars
        assert sorted(map(tuple, back.clauses)) == sorted(map(tuple, inst.clauses))


def test_truth_table_mask_small():
    # single clause (x1 or not x2) over 2 vars: 3 satisfying assignments
    assert bin(truth_table_mask(2, [[1, -2]])).count("1") == 3
    assert brute_model_count(2, [[1], [-1]]) == 0
