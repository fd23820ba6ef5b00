import os

import numpy as np
import pytest

import oracles
import symoc.solver
from symoc.cli import _build_from_config
from symoc.config import load_config
from symoc.core import INF, STOP, FiniteProblem
from symoc.errors import InputError, SoundnessAlarm
from symoc.solver import dp_operator, is_discrete_cost, solve, value_iteration

from oracles import is_stop, naive_fixpoint, naive_value_iteration, random_problem_lists, reference_solve

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def from_lists(trans, G):
    return oracles.from_lists(G, trans)


def test_single_state_stops_immediately():
    problem = from_lists([[[(0, 1.0)]]], [0.0])
    result = solve(problem)
    assert result.W[0] == 0.0
    assert is_stop(result.c, 0)
    assert result.c.choice.tolist() == [STOP]


def test_one_step_reach():
    # F(a) = {b}, g = 1, G = (inf, 0)
    problem = from_lists([[[(1, 1.0)]], [[(1, 0.0)]]], [INF, 0.0])
    result = solve(problem)
    assert result.W.tolist() == [1.0, 0.0]
    assert result.c.choice[0] == 0
    assert is_stop(result.c, 1)


def test_branching_worst_case():
    # F(a, u) = {b, c} with g = 1: W(a) = max(1 + 0, 1 + 2) = 3
    trans = [
        [[(1, 1.0), (2, 1.0)]],
        [[(1, 0.0)]],
        [[(2, 0.0)]],
    ]
    problem = from_lists(trans, [INF, 0.0, 2.0])
    result = solve(problem)
    assert result.W.tolist() == [3.0, 0.0, 2.0]
    # agreement with the naive fixpoint oracle
    W_oracle, _ = naive_fixpoint(trans, [INF, 0.0, 2.0])
    assert result.W.tolist() == W_oracle


def test_all_infinite_terminal_costs():
    problem = from_lists([[[(0, 1.0)]], [[(0, 1.0)]]], [INF, INF])
    result = solve(problem)
    assert np.all(np.isinf(result.W))
    assert all(is_stop(result.c, p) for p in range(2))


def test_dp_operator_on_infinite_w():
    problem = from_lists([[[(1, 1.0)]], [[(1, 0.0)]]], [3.0, 0.0])
    PW = dp_operator(problem, np.array([INF, INF]))
    assert np.array_equal(PW, problem.G)


def test_dp_operator_fixed_point_of_solve():
    rng = np.random.default_rng(11)
    for _ in range(40):
        trans, G = random_problem_lists(rng, n_max=30)
        problem = from_lists(trans, G)
        W = solve(problem).W
        assert np.array_equal(dp_operator(problem, W), W)


def test_dp_operator_monotone():
    rng = np.random.default_rng(12)
    for _ in range(40):
        trans, G = random_problem_lists(rng, n_max=20)
        problem = from_lists(trans, G)
        W1 = rng.uniform(0, 5, size=problem.n)
        W2 = W1 + rng.uniform(0, 3, size=problem.n)
        assert np.all(dp_operator(problem, W1) <= dp_operator(problem, W2))


def test_dp_operator_rejects_negative_w():
    problem = from_lists([[[(0, 1.0)]]], [0.0])
    with pytest.raises(InputError):
        dp_operator(problem, np.array([-1.0]))


def test_value_iteration_budget_zero_returns_g():
    problem = from_lists([[[(0, 1.0)]]], [2.0])
    assert np.array_equal(value_iteration(problem, 0), problem.G)


def test_value_iteration_three_state_chain():
    # a -> b -> c -> c; values strictly improve until stabilization at T = 2
    trans = [[[(1, 1.0)]], [[(2, 1.0)]], [[(2, 1.0)]]]
    G = [INF, INF, 0.0]
    problem = from_lists(trans, G)
    expected = {0: [INF, INF, 0.0], 1: [INF, 1.0, 0.0], 2: [2.0, 1.0, 0.0]}
    for T, want in expected.items():
        got = value_iteration(problem, T)
        assert got.tolist() == want
        assert got.tolist() == naive_value_iteration(trans, G, T)
    assert value_iteration(problem, 3).tolist() == expected[2]


def test_value_iteration_monotone_and_bounded_by_solution():
    rng = np.random.default_rng(13)
    for _ in range(25):
        trans, G = random_problem_lists(rng, n_max=15)
        problem = from_lists(trans, G)
        W = solve(problem).W
        prev = value_iteration(problem, 0)
        for T in range(1, 12):
            cur = dp_operator(problem, prev)
            assert np.all(cur <= prev)
            assert np.all(cur >= W)
            prev = cur


def test_value_iteration_stabilizes_for_discrete_costs():
    rng = np.random.default_rng(14)
    for _ in range(25):
        trans, G = random_problem_lists(rng, n_max=15, cost_mode="min_time")
        problem = from_lists(trans, G)
        W = solve(problem).W
        assert np.array_equal(value_iteration(problem, problem.n), W)


def test_is_discrete_cost_min_time():
    problem = from_lists([[[(1, 1.0)]], [[(1, INF)]]], [INF, 0.0])
    assert is_discrete_cost(problem) == (1.0, 0.0)


def test_is_discrete_cost_qualitative():
    problem = from_lists([[[(1, 0.0)]], [[(1, INF)]]], [INF, 0.0])
    assert is_discrete_cost(problem) == (0.0, 0.0)


def test_is_discrete_cost_rejects_two_running_values():
    problem = from_lists([[[(1, 1.0)]], [[(0, 2.0)]]], [0.0, 0.0])
    assert is_discrete_cost(problem) is None


def test_is_discrete_cost_two_terminal_values():
    problem = from_lists([[[(1, 1.0)]], [[(1, INF)]]], [3.0, 2.0])
    assert is_discrete_cost(problem) == (1.0, 2.0)
    problem = from_lists([[[(1, 1.0)]], [[(1, INF)]]], [7.0, 2.0])
    assert is_discrete_cost(problem) is None


def test_fifo_requires_discrete_costs():
    problem = from_lists([[[(1, 1.0)]], [[(0, 2.0)]]], [0.0, 0.0])
    with pytest.raises(InputError):
        solve(problem, queue="fifo")
    with pytest.raises(InputError):
        solve(problem, queue="nope")
    assert solve(problem, queue="auto").queue == "heap"


def test_queue_disciplines_agree_on_min_time_instances():
    rng = np.random.default_rng(15)
    for _ in range(30):
        trans, G = random_problem_lists(rng, n_max=40, cost_mode="min_time")
        problem = from_lists(trans, G)
        r_heap = solve(problem, queue="heap")
        r_fifo = solve(problem, queue="fifo")
        assert np.array_equal(r_heap.W, r_fifo.W)
        assert np.array_equal(r_heap.c.choice == STOP, r_fifo.c.choice == STOP)
        r_auto = solve(problem, queue="auto")
        assert r_auto.queue == "fifo" and r_auto.stats == r_fifo.stats
        m = problem.n_edges
        assert r_fifo.stats.queue_ops <= 2 * m + problem.n


def test_settle_values_monotone():
    rng = np.random.default_rng(16)
    for _ in range(25):
        trans, G = random_problem_lists(rng, n_max=30)
        problem = from_lists(trans, G)
        result = solve(problem)
        assert np.all(np.diff(result.settle_values) >= 0)
        assert result.stats.settled <= problem.n
        assert result.stats.pair_evals <= problem.n * problem.m


def test_maximality_of_solution():
    # any W' with W' <= P(W') stays below the solver's W
    rng = np.random.default_rng(17)
    for _ in range(20):
        trans, G = random_problem_lists(rng, n_max=25)
        problem = from_lists(trans, G)
        W = solve(problem).W
        for _ in range(5):
            alpha = float(rng.uniform(0, 1))
            Wp = np.where(np.isinf(W), INF, alpha * W)
            assert np.all(Wp <= dp_operator(problem, Wp))
            assert np.all(Wp <= W)


def test_solver_agrees_with_naive_fixpoint():
    rng = np.random.default_rng(18)
    for _ in range(30):
        trans, G = random_problem_lists(rng, n_max=12)
        problem = from_lists(trans, G)
        W_oracle, _ = naive_fixpoint(trans, G)
        assert solve(problem).W.tolist() == pytest.approx(W_oracle, abs=1e-12)


def test_closed_loop_value_matches_w():
    # following the controller from any finite state must realize exactly W
    rng = np.random.default_rng(19)
    for _ in range(20):
        trans, G = random_problem_lists(rng, n_max=12)
        problem = from_lists(trans, G)
        result = solve(problem)

        def closed_loop_worst(p, depth=0):
            assert depth <= problem.n + 1
            u = int(result.c.choice[p])
            if u == STOP:
                return problem.G[p]
            succ, costs = problem.successors(p, u)
            return max(costs[i] + closed_loop_worst(int(q), depth + 1) for i, q in enumerate(succ))

        for p in range(problem.n):
            if np.isfinite(result.W[p]):
                assert closed_loop_worst(p) == pytest.approx(result.W[p], abs=1e-12)


def test_fifo_with_two_terminal_values():
    # terminal costs {2, 3} with unit running costs: the initial queue holds
    # two key levels, which the fifo must drain in sorted order
    rng = np.random.default_rng(20)
    for _ in range(20):
        trans, G = random_problem_lists(rng, n_max=30, cost_mode="min_time")
        G = [v if v == INF else float(rng.choice([2.0, 3.0])) for v in G]
        problem = from_lists(trans, G)
        assert is_discrete_cost(problem) is not None
        r_heap = solve(problem, queue="heap")
        r_fifo = solve(problem, queue="fifo")
        assert np.array_equal(r_heap.W, r_fifo.W)


def assert_matches_reference(problem, queue):
    got = solve(problem, queue=queue)
    assert queue in ("auto", got.queue)
    want = reference_solve(problem, queue=got.queue)
    assert np.array_equal(got.W, want.W)
    assert np.array_equal(got.c.choice, want.c.choice)
    assert np.array_equal(got.settle_values, want.settle_values)
    assert got.stats == want.stats


def constant_per_pair(problem):
    """The problem with each pair's edges set to the pair's largest cost,
    stored per edge and per pair."""
    pair_costs = np.maximum.reduceat(problem.edge_costs, problem.trans_ptr[:-1])
    args = (problem.n, problem.m, problem.G, problem.trans_ptr, problem.trans_succ)
    edge_costs = np.repeat(pair_costs, np.diff(problem.trans_ptr))
    return FiniteProblem(*args, edge_costs=edge_costs), FiniteProblem(*args, pair_costs=pair_costs)


@pytest.mark.parametrize("cost_mode,levels", [
    ("real", 1), ("min_time", 1), ("min_time", 2), ("qualitative", 1),
])
def test_solve_matches_reference_solve(cost_mode, levels):
    # the batched settle loop against the per-pair loop: same W, controller,
    # settle order and counters, for both queues and both cost storages
    rng = np.random.default_rng(21)
    for _ in range(40):
        trans, G = random_problem_lists(rng, n_max=40, cost_mode=cost_mode)
        if levels == 2:
            G = [v if v == INF else float(rng.choice([2.0, 3.0])) for v in G]
        for problem in (from_lists(trans, G), *constant_per_pair(from_lists(trans, G))):
            queues = ["heap"] if is_discrete_cost(problem) is None else ["heap", "fifo"]
            for queue in queues:
                assert_matches_reference(problem, queue)


def test_solve_matches_reference_solve_on_pendulum_p1():
    cfg = load_config(os.path.join(CONFIGS, "pendulum_p1.ini"))
    problem = _build_from_config(cfg)[2]
    assert problem.pair_costs is not None
    assert_matches_reference(problem, cfg.queue)


def test_fifo_alarms_on_uncertified_costs(monkeypatch):
    # 0 -> 1 costs 5 and 0 -> 2 costs 1; state 2 reaches 1 at cost 1.  Forced
    # past the discreteness check, the fifo settles 0 (W = 5) before 2 (W = 1)
    certify = lambda problem: (1.0, 0.0)
    monkeypatch.setattr(symoc.solver, "is_discrete_cost", certify)
    monkeypatch.setattr(oracles, "is_discrete_cost", certify)
    problem = from_lists(
        [[[(1, 5.0)], [(2, 1.0)]], [[(1, 1.0)], [(1, 1.0)]], [[(1, 1.0)], [(1, 1.0)]]],
        [INF, 0.0, INF],
    )
    with pytest.raises(SoundnessAlarm):
        reference_solve(problem, queue="fifo")
    with pytest.raises(SoundnessAlarm):
        solve(problem, queue="fifo")


def test_duplicate_successor_is_an_input_error():
    # from_lists rejects this; the constructor leaves it to the solver, whose
    # counters would never release a pair listing a successor twice
    problem = FiniteProblem(2, 1, [INF, 0.0], [0, 2, 3], np.array([1, 1, 1]), pair_costs=[1.0, 1.0])
    with pytest.raises(InputError, match="duplicate transition"):
        solve(problem)
    with pytest.raises(InputError, match="duplicate transition"):
        solve(problem, queue="fifo")
