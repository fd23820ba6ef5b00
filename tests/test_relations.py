import numpy as np
import pytest

import oracles
from symoc.abstraction import MapReach, abstract_costs, build_abstraction
from symoc.core import INF, ControllerTable, FiniteProblem, cost_model
from symoc.grid import GridCover, InputGrid
from symoc.relations import (
    RefinedController,
    Relation,
    check_vasr,
    check_vfrr,
    pointwise_upper_bound,
)
from symoc.solver import solve
from symoc.systems import LogisticMap, get_system

from oracles import certified_vfrr_pair


def from_lists(pair):
    trans, G = pair
    return oracles.from_lists(G, trans)


def small_problem():
    return oracles.from_lists(
        [INF, 0.0],
        [
            [[(1, 1.0)], [(0, 2.0)]],
            [[(1, 0.5)], [(1, INF)]],
        ],
    )


def test_vfrr_identity_relation_on_identical_problem():
    p = small_problem()
    rel = Relation([(0, 0), (1, 1)])
    assert check_vfrr(p, p, rel).ok


def test_vfrr_detects_lowered_terminal_cost():
    p1 = small_problem()
    p2 = FiniteProblem(
        p1.n, p1.m, np.array([INF, 0.0]), p1.trans_ptr, p1.trans_succ,
        edge_costs=p1.edge_costs,
    )
    p1_high = FiniteProblem(
        p1.n, p1.m, np.array([INF, 0.25]), p1.trans_ptr, p1.trans_succ,
        edge_costs=p1.edge_costs,
    )
    verdict = check_vfrr(p1_high, p2, Relation([(0, 0), (1, 1)]))
    assert not verdict.ok
    assert any(tag == "ii" for tag, _ in verdict.violations)


def test_vfrr_detects_missing_transition_and_strictness():
    p1 = small_problem()
    # drop state 0 from F2(0, 0) by rerouting to state 1 only with the same cost
    p2 = small_problem()
    verdict = check_vfrr(p1, p2, Relation([(0, 0)]))  # state 1 unrelated
    assert not verdict.ok
    assert any(tag == "strict" for tag, _ in verdict.violations)


def test_vfrr_rejects_larger_input_alphabet():
    p1 = oracles.from_lists([0.0], [[[(0, 1.0)]]])
    p2 = oracles.from_lists([0.0], [[[(0, 1.0)], [(0, 1.0)]]])
    assert not check_vfrr(p1, p2, Relation([(0, 0)])).ok


def test_certified_pairs_pass_and_bound_values():
    rng = np.random.default_rng(51)
    for _ in range(15):
        lists1, lists2, pairs = certified_vfrr_pair(rng)
        p1, p2 = from_lists(lists1), from_lists(lists2)
        rel = Relation(pairs)
        verdict = check_vfrr(p1, p2, rel)
        assert verdict.ok, verdict.violations
        # feedback refinement implies alternating simulation at any slack
        assert check_vasr(p1, p2, rel, eps=0.0).ok
        assert check_vasr(p1, p2, rel, eps=10.0).ok
        # certified relations compare the value functions pairwise
        W1 = solve(p1).W
        W2 = solve(p2).W
        for a, b in rel.pairs:
            assert W1[a] <= W2[b]


def test_vasr_detects_terminal_cost_violation():
    p1 = oracles.from_lists([1.0], [[[(0, 1.0)]]])
    p2 = oracles.from_lists([0.5], [[[(0, 1.0)]]])
    verdict = check_vasr(p1, p2, Relation([(0, 0)]), eps=0.0)
    assert not verdict.ok


def test_vasr_eps_slack_two_state_example():
    # G1(0) = 2 > 0 activates the simulation condition; the only concrete
    # move costs 1.05 against an abstract move of cost 1.0, so only the
    # slack eps >= 0.05 saves it (exhaustive over the 2 x 2 state space).
    p1 = oracles.from_lists(
        [2.0, 0.0],
        [[[(1, 1.05)]], [[(1, 0.0)]]],
    )
    p2 = oracles.from_lists(
        [2.0, 0.0],
        [[[(1, 1.0)]], [[(1, 0.0)]]],
    )
    rel = Relation([(0, 0), (1, 1)])
    assert not check_vasr(p1, p2, rel, eps=0.0).ok
    assert check_vasr(p1, p2, rel, eps=0.1).ok


def test_vasr_large_eps_reduces_to_reachability():
    # with huge slack only the exists/forall/exists structure matters
    p1 = oracles.from_lists([5.0, 0.0], [[[(0, 9.0)]], [[(1, 0.0)]]])
    p2 = oracles.from_lists([5.0, 5.0], [[[(1, 0.0)]], [[(1, 0.0)]]])
    rel = Relation([(0, 0), (1, 1)])
    # concrete successor 0 relates to abstract {0}, never inside F2(0) = {1}
    assert not check_vasr(p1, p2, rel, eps=1e9).ok
    rel_all = Relation([(0, 0), (0, 1), (1, 1)])
    assert check_vasr(p1, p2, rel_all, eps=1e9).ok


def test_vasr_boundedness_gate_counts():
    # abstract transition with infinite cost gates the condition
    p1 = oracles.from_lists([2.0], [[[(0, 5.0)]]])
    p2 = oracles.from_lists([2.0], [[[(0, INF)]]])
    verdict = check_vasr(p1, p2, Relation([(0, 0)]), eps=0.0)
    assert verdict.ok
    assert verdict.gated_pairs == 1


def test_relation_round_trip():
    rel = Relation([(0, 1), (2, 0), (1, 1)])
    back = Relation.from_text(rel.to_text())
    assert back.pairs == rel.pairs
    assert back.image(2) == [0]
    assert back.preimage(1) == [0, 1]


def test_serial_composition_semantics():
    cover = GridCover([0.0], [1.0], [0.25])
    table = ControllerTable(np.array([1, -1, 0, 2, -1, -1]))  # 5 cells + overflow
    reps = np.array([[0.0], [0.5], [-0.5]])
    ctrl = RefinedController(table, cover, reps)
    u, stop = ctrl.act([0.05])  # cell 0 -> input 1
    assert stop == 0 and u[0] == 0.5
    u, stop = ctrl.act([0.25])  # cell 1 -> stop
    assert stop == 1
    u, stop = ctrl.act([1.7])  # outside the cover -> overflow -> stop
    assert stop == 1


def test_pointwise_upper_bound():
    cover = GridCover([0.0], [1.0], [0.25])
    W = np.array([3.0, 5.0, 1.0, 2.0, 4.0, INF])
    assert pointwise_upper_bound(W, cover, [0.05]) == 3.0
    assert pointwise_upper_bound(W, cover, [0.125]) == 5.0  # face of cells 0 and 1
    assert pointwise_upper_bound(W, cover, [1.2]) == INF


def test_sampled_abstraction_satisfies_refinement_conditions():
    # the membership relation between the concrete benchmark map and its grid
    # abstraction satisfies the refinement conditions on sampled data
    spec = get_system("logistic")
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([1.0 / 40.0]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = cost_model(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs, 0.0, 0.0)
    plant = LogisticMap()
    problem, _ = build_abstraction(MapReach(plant, cover), cover, inputs, ac)
    rng = np.random.default_rng(52)
    for _ in range(400):
        x = float(rng.uniform(0, 1))
        y = float(plant.step(x))
        for cell in cover.members([x]):
            # terminal and running cost dominance (conditions ii and iii)
            assert model.G([x]) <= ac.G2[cell]
            assert model.g([x], [y], inputs.representatives[0]) <= ac.pair_value(cell, 0)
            # successor cells of the concrete image (condition iv)
            succ = set(int(q) for q in problem.successors(cell, 0)[0])
            assert set(cover.members([y])) <= succ
