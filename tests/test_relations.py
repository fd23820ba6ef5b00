import importlib.util
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import symoc.relations as relations
from symoc.abstraction import abstract_costs, build_abstraction
from symoc.core import INF, ControllerTable, CostModel, FiniteProblem
from symoc.errors import InputError
from symoc.grid import GridCover, InputGrid
from symoc.relations import (
    RefinedController,
    Relation,
    check_vasr,
    check_vfrr,
    pointwise_upper_bound,
)
from symoc.solver import solve
from symoc.systems import get_system

from oracles import block_cells, certified_vfrr_pair, pair_value, point_G, point_g, relation_pairs, successors


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
        for a, b in relation_pairs(rel):
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


def test_vasr_refuses_a_negative_or_nan_eps():
    p = small_problem()
    rel = Relation([(0, 0), (1, 1)])
    for eps in (-0.1, math.nan):
        with pytest.raises(InputError, match="^eps must be non-negative$"):
            check_vasr(p, p, rel, eps)


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
    assert relation_pairs(back) == relation_pairs(rel)
    assert relation_pairs(back) == [(0, 1), (1, 1), (2, 0)]


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
    xs = np.array([[0.05], [0.125], [1.2], [0.375], [1.0]])
    assert pointwise_upper_bound(W, cover, xs).tolist() == [3.0, 5.0, INF, 5.0, 4.0]


def test_sampled_abstraction_satisfies_refinement_conditions():
    # the membership relation between the concrete benchmark map and its grid
    # abstraction satisfies the refinement conditions on sampled data
    spec = get_system("logistic")
    cover = GridCover(spec.k_lower, spec.k_upper, np.array([1.0 / 40.0]))
    inputs = InputGrid(spec.input_pieces, np.array([1.0]))
    model = CostModel(spec.cost_kind, spec.target, spec.obstacle)
    ac = abstract_costs(model, cover, inputs)
    plant, reach = spec.build(cover, inputs, 1, 0.0)
    problem, _ = build_abstraction(reach, cover, inputs, ac)
    rng = np.random.default_rng(52)
    for _ in range(400):
        x = float(rng.uniform(0, 1))
        y = float(plant.step(x))
        for cell in block_cells(cover, [x]):
            # terminal and running cost dominance (conditions ii and iii)
            assert point_G(model, [x]) <= ac.G2[cell]
            assert point_g(model, [x], [y], inputs.representatives[0]) <= pair_value(ac, cell, 0)
            # successor cells of the concrete image (condition iv)
            succ = set(int(q) for q in successors(problem, cell, 0)[0])
            assert set(block_cells(cover, [y])) <= succ


def _problem(lists, per_pair):
    """A FiniteProblem from (trans, G) lists; with ``per_pair`` each pair
    costs its first edge's cost."""
    problem = from_lists(lists)
    if not per_pair:
        return problem
    pair_costs = problem.edge_costs[problem.trans_ptr[:-1]]
    return FiniteProblem(problem.n, problem.m, problem.G, problem.trans_ptr, problem.trans_succ, pair_costs=pair_costs)


def _random_relation(rng, n1, n2, density, strict):
    pairs = [(a, b) for a in range(n1) for b in range(n2) if rng.random() < density]
    if strict:
        pairs += [(a, int(rng.integers(n2))) for a in range(n1)]
    pairs += pairs[: len(pairs) // 4]  # repeated pairs, read once
    return Relation([pairs[k] for k in rng.permutation(len(pairs))])


def _recost(lists, g, G):
    """(trans, G) lists with each running cost c replaced by g(c) and each
    terminal cost v by G(v)."""
    trans, terminal = lists
    return [[[(q, g(c)) for q, c in entries] for entries in per_input] for per_input in trans], [G(v) for v in terminal]


@pytest.mark.parametrize("block", [relations.BLOCK, 5], ids=["default_blocks", "blocks_of_5"])
def test_array_checkers_match_the_loop_oracles(block, monkeypatch):
    # cases cycle through random pairs, certified refinements and problems
    # related to themselves (ties); every 8th case is dense (|R| near 100):
    # random, with problem 1 costly (over 100 violations of vfrr (iii) and
    # vasr (ii)), or with problem 1 free (over 100 of vfrr (iv)).  Small
    # blocks split every join into many, each keeping its own first violations
    monkeypatch.setattr(relations, "BLOCK", block)
    rng = np.random.default_rng(1101)
    seen = {"vfrr": set(), "vasr": set()}
    cut_at = set()  # (check, tag of the last kept violation) of truncated verdicts
    shapes, gated, passed = set(), {0.0: 0, 2.5: 0}, 0
    for case in range(240):
        kind = ("dense", "costly", "free")[case // 8 % 3] if case % 8 == 0 else ("random", "certified", "self")[case % 3]
        lists1 = oracles.random_problem_lists(rng, n_max=12 if case % 8 == 0 else 7)
        lists2 = oracles.random_problem_lists(rng, n_max=12 if case % 8 == 0 else 7)
        if kind == "costly":
            lists1 = _recost(lists1, lambda c: c + 100.0, lambda v: 1.0)
            lists2 = _recost(lists2, lambda c: 1.0 if c == INF else c, lambda v: v)
        elif kind == "free":
            lists1 = _recost(lists1, lambda c: 0.0, lambda v: 0.0)
        if kind == "certified":
            lists1, lists2, pairs = certified_vfrr_pair(rng, n2_max=5)
            p1, p2, rel = from_lists(lists1), from_lists(lists2), Relation(pairs)
        elif kind == "self":  # equal costs on related edges: ties decide (iii) and vasr
            p1 = p2 = from_lists(lists1)
            rel = _random_relation(rng, p1.n, p1.n, 0.1, strict=False)
            rel = Relation(relation_pairs(rel) + [(a, a) for a in range(p1.n)])
        else:
            p1 = _problem(lists1, case % 5 == 0)
            p2 = _problem(lists2, case % 7 == 0)
            density = 0.9 if case % 8 == 0 else float(rng.choice([0.1, 0.25, 0.5]))
            rel = _random_relation(rng, p1.n, p2.n, density, strict=case % 2 == 0 or kind == "free")
        shapes.add(np.sign(p2.m - p1.m))
        checks = [("vfrr", check_vfrr, oracles.reference_check_vfrr, ())]
        checks += [("vasr", check_vasr, oracles.reference_check_vasr, (eps,)) for eps in gated]
        for mode, check, reference, args in checks:
            want = reference(p1, p2, rel, *args)
            got = check(p1, p2, rel, *args)
            assert got.to_text() == want.to_text(), (case, mode, args)
            seen[mode].update(tag for tag, _ in want.violations)
            passed += want.ok
            if len(want.violations) == 100:
                cut_at.add((mode, want.violations[-1][0]))
            if args and want.gated_pairs:
                gated[args[0]] += 1
    assert seen == {"vfrr": {"strict", "i", "ii", "iii", "iv"}, "vasr": {"i", "ii"}}
    assert {("vfrr", "iii"), ("vfrr", "iv"), ("vasr", "ii")} <= cut_at
    assert shapes == {-1, 0, 1} and all(gated.values()) and passed


def test_array_checkers_reject_the_first_out_of_range_pair_as_the_oracle_does():
    p = small_problem()
    for pairs in ([(0, 0), (1, 5), (3, 0)], [(2, 0), (0, 1)]):
        rel = Relation(pairs)
        with pytest.raises(InputError) as want:
            oracles.reference_check_vfrr(p, p, rel)
        for check in (lambda: check_vfrr(p, p, rel), lambda: check_vasr(p, p, rel, 0.0)):
            with pytest.raises(InputError, match=re.escape(str(want.value))):
                check()
    # a negative state cannot be written as a relation record, so no relation holds one
    with pytest.raises(InputError, match=re.escape("relation pair '0 -1' has a negative state")):
        Relation([(0, 0), (0, -1), (-2, 0)])


def test_vfrr_on_a_90000_state_relabelled_copy():
    # |R| = 90,000 and about 4 M edges per problem: a loop over |R|^2 m pairs
    # would make 4.9e10 checks
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = np.random.default_rng(3)
    problem = gen.grid_problem(rng, 300, 300)
    copy, rel = gen.inflated_relabelled_copy(rng, problem)
    start = time.perf_counter()
    verdict = check_vfrr(problem, copy, rel)
    assert verdict.to_text() == "verdict: true\nviolations: 0\n"
    assert time.perf_counter() - start < 30.0
