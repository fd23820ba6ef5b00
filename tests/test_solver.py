import os
import tracemalloc

import numpy as np
import pytest

import oracles
import symoc.solver
from abstraction_digests import build
from symoc.cli import _build_from_config
from symoc.config import load_config
from symoc.core import INF, ROW_MAX, STOP, FiniteProblem
from symoc.errors import InputError, SoundnessAlarm
from symoc.solver import SolveStats, check_certificate, dp_operator, is_discrete_cost, solve

from oracles import (
    is_stop,
    naive_fixpoint,
    naive_value_iteration,
    random_problem_lists,
    reference_inverse,
    reference_solve,
    successors,
    value_iteration,
)

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


def test_overflowing_cost_sums_saturate_without_warning():
    # 1e308 + 1.7e308 overflows to inf, the sound upper bound; pytest turns
    # numpy's overflow warning into an error, so neither call may raise it
    problem = FiniteProblem.from_focp_text(
        "focp 3 1\nG 0 0\nT 0 0 0 1\nT 1 0 0 1.7e308\nT 2 0 1 1e308\n"
    )
    W = [0.0, 1.7e308, INF]
    for stored in (problem, constant_per_pair(problem)[1]):  # edge and pair costs
        assert solve(stored).W.tolist() == W
        assert dp_operator(stored, W).tolist() == W


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


@pytest.mark.parametrize(
    "g, G, witness",
    [
        ([], [], (0.0, 0.0)),
        ([], [2.0], (0.0, 2.0)),
        ([], [5.0, 2.0], (3.0, 2.0)),
        ([], [1.0, 2.0, 3.0], None),
        ([1.0], [], (1.0, 0.0)),
        ([1.0, 1.0], [2.0, 2.0], (1.0, 2.0)),
        ([1.0], [3.0, 2.0], (1.0, 2.0)),
        ([1.0], [5.0, 2.0], None),
        ([0.2], [0.1, 0.3], None),  # 0.3 - 0.1 is not 0.2 in floats
        ([1.0], [1.0, 2.0, 3.0], None),
        ([1.0, 2.0], [], None),
        ([1.0, 2.0], [2.0], None),
        ([1.0, 2.0], [3.0, 2.0], None),
    ],
)
def test_is_discrete_cost_witness_table(g, G, witness):
    # three states, each with one edge to state 0: finite running costs g, terminal costs G
    n = 3
    trans = [[[(0, g[p] if p < len(g) else INF)]] for p in range(n)]
    problem = from_lists(trans, G + [INF] * (n - len(G)))
    assert is_discrete_cost(problem) == witness


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
            succ, costs = successors(problem, p, u)
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
    assert got.W.tobytes() == want.W.tobytes()
    assert np.array_equal(got.c.choice, want.c.choice)
    assert got.settle_values.tobytes() == want.settle_values.tobytes()
    assert np.array_equal(got.rank, want.rank)
    # the heap takes one push per improved state per wave, where the
    # reference pushes every strict improvement; a fifo wave improves each
    # state once, so there the counters agree
    s, r = got.stats, want.stats
    assert (s.settled, s.pair_evals) == (r.settled, r.pair_evals)
    assert s.pushes == s.pops <= r.pushes
    if got.queue == "fifo":
        assert s == r


def constant_per_pair(problem):
    """The problem with each pair's edges set to the pair's largest cost,
    stored per edge and per pair."""
    pair_costs = np.maximum.reduceat(problem.edge_costs, problem.trans_ptr[:-1])
    args = (problem.n, problem.m, problem.G, problem.trans_ptr, problem.trans_succ)
    edge_costs = np.repeat(pair_costs, np.diff(problem.trans_ptr))
    return FiniteProblem(*args, edge_costs=edge_costs), FiniteProblem(*args, pair_costs=pair_costs)


@pytest.mark.parametrize("cost_mode,levels", [
    ("real", 1), ("floor", 1), ("min_time", 1), ("min_time", 2), ("qualitative", 1),
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
    problem = _build_from_config(cfg)[0]
    assert problem.pair_costs is not None
    assert_matches_reference(problem, "auto")
    # mu = 0.15 gives 28 inputs and none is u = 0, so the least running cost
    # is positive and the heap settles states in waves of several
    problem = build("pendulum:p1:mu=0.15")[0]
    assert problem.m == 28 and problem.pair_costs.min() > 0
    assert_matches_reference(problem, "heap")


def with_costs(problem, pair_costs, per_edge):
    """The problem with the given per-pair costs, stored per edge or per pair."""
    args = (problem.n, problem.m, problem.G, problem.trans_ptr, problem.trans_succ)
    if per_edge:
        return FiniteProblem(*args, edge_costs=np.repeat(pair_costs, np.diff(problem.trans_ptr)))
    return FiniteProblem(*args, pair_costs=pair_costs)


def permuted_successors(problem, rng):
    """The problem with each pair's successors, and their edge costs, in a
    random order."""
    sizes = np.diff(problem.trans_ptr)
    order = np.lexsort((rng.random(problem.n_edges), np.repeat(np.arange(len(sizes)), sizes)))
    args = (problem.n, problem.m, problem.G, problem.trans_ptr, problem.trans_succ[order])
    if problem.edge_costs is None:
        return FiniteProblem(*args, pair_costs=problem.pair_costs)
    return FiniteProblem(*args, edge_costs=problem.edge_costs[order])


def test_solution_does_not_depend_on_the_order_of_successors():
    # the tie rule keys a ready pair by (wave position of the state making
    # it ready, pair id), so listing a pair's successors in another order,
    # which cuts other rows, changes no output; unit costs take the fifo
    rng = np.random.default_rng(24)
    pendulum = _build_from_config(load_config(os.path.join(CONFIGS, "pendulum_p1.ini")))[0]
    problems = []
    for per_edge in (True, False):
        for problem in (random_csr_problem(rng, 400, 3, 12, per_edge, np.int32), pendulum):
            costs = problem.pair_costs if problem.edge_costs is None else problem.edge_costs[problem.trans_ptr[:-1]]
            problems.append(with_costs(problem, costs, per_edge))
            problems.append(with_costs(problem, np.where(np.isfinite(costs), 1.0, INF), per_edge))
    for problem in problems:
        shuffled = permuted_successors(problem, rng)
        if problem.n == pendulum.n:
            rows = [len(symoc.solver._build_inverse(p).pair) for p in (problem, shuffled)]
            assert rows[1] > 2 * rows[0]
        for queue in ["heap"] if is_discrete_cost(problem) is None else ["fifo"]:
            a, b = solve(problem, queue=queue), solve(shuffled, queue=queue)
            assert a.W.tobytes() == b.W.tobytes()
            assert np.array_equal(a.c.choice, b.c.choice)
            assert np.array_equal(a.rank, b.rank)
            assert a.settle_values.tobytes() == b.settle_values.tobytes()
            assert a.stats == b.stats and a.queue == b.queue == queue


def one_wave_problem(costs, levels):
    """State 0 reaches target state t + 1 (terminal cost levels[t]) under
    input t at running cost costs[t]; targets only stop.  With every cost at
    least 1 and every level below 1, the targets settle in one heap wave,
    in level order, and make state 0's pairs ready in that order."""
    m = len(costs)
    stop = [[(t, INF)] for t in range(1, m + 1)]
    trans = [[[(t + 1, g)] for t, g in enumerate(costs)]] + [stop] * m
    return from_lists(trans, [INF, *levels])


def test_fifo_alarms_on_uncertified_costs(monkeypatch):
    # 0 -> 1 costs 5 and 0 -> 2 costs 1; state 2 reaches 1 at cost 1.  Forced
    # past the discreteness check, the fifo settles 0 (W = 5) before 2 (W = 1).
    # In the second problem the fifo's first wave holds both targets, whose
    # pairs give state 0 M = 3, then M = 1.5: the queued state improves again
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
    twice = one_wave_problem([3.0, 1.0], [0.0, 0.5])
    for stored in (twice, *constant_per_pair(twice)):
        with pytest.raises(SoundnessAlarm, match="improved a queued state"):
            reference_solve(stored, queue="fifo")
        with pytest.raises(SoundnessAlarm, match="improved a queued state"):
            solve(stored, queue="fifo")


def test_state_improved_several_times_in_one_wave_is_pushed_once():
    # M = 3, 2.4 and 1.8 in ready order: three strict improvements of state
    # 0, which a per-pair loop pushes three times and the wave once
    problem = one_wave_problem([3.0, 2.0, 1.0], [0.0, 0.4, 0.8])
    for stored in (problem, *constant_per_pair(problem)):
        got = solve(stored)
        assert got.W[0] == 1.8 and got.c.choice[0] == 2
        assert got.stats == SolveStats(settled=4, pushes=4, pops=4, pair_evals=3)
        assert reference_solve(stored).stats.pushes == 6
        assert_matches_reference(stored, "heap")


def test_equal_values_go_to_the_first_ready_pair():
    # inputs 0 and 1 both give M = 1.5; target 2 (level 0) settles before
    # target 1 (level 0.5), so input 1's pair is ready first and wins
    problem = one_wave_problem([1.0, 1.5], [0.5, 0.0])
    for stored in (problem, *constant_per_pair(problem)):
        got = solve(stored)
        assert got.W[0] == 1.5 and got.c.choice[0] == 1
        assert got.rank.tolist() == [2, 1, 0]
        assert_matches_reference(stored, "heap")


def test_edge_and_pair_storage_of_the_same_costs_solve_alike():
    # a pair's edges all cost its pair cost: the running maximum over its
    # edges and the pair cost plus the last settled W are the same sum
    rng = np.random.default_rng(22)
    for cost_mode in ("real", "min_time"):
        for _ in range(20):
            trans, G = random_problem_lists(rng, n_max=40, cost_mode=cost_mode)
            per_edge, per_pair = constant_per_pair(from_lists(trans, G))
            for queue in ("heap", "auto"):
                a, b = solve(per_edge, queue=queue), solve(per_pair, queue=queue)
                assert a.W.tobytes() == b.W.tobytes()
                assert np.array_equal(a.c.choice, b.c.choice)
                assert np.array_equal(a.rank, b.rank)
                assert a.stats == b.stats and a.queue == b.queue


def test_certificate_names_the_first_failing_state():
    # state 0 of the several-improvements problem chose input 2 (M = 1.8);
    # each mutant of the solution fails the certificate there
    problem = one_wave_problem([3.0, 2.0, 1.0], [0.0, 0.4, 0.8])
    for stored in (problem, *constant_per_pair(problem)):
        got = solve(stored)
        check_certificate(stored, got.W, got.c.choice, got.rank)
        choice = got.c.choice.copy()
        choice[0] = 0
        with pytest.raises(SoundnessAlarm, match="state 0: W = 1.8 but input 0 gives 3.0"):
            check_certificate(stored, got.W, choice, got.rank)
        W = got.W.copy()
        W[0] = np.nextafter(W[0], INF)
        with pytest.raises(SoundnessAlarm, match="state 0: W = 1.8000000000000003 but input 2 gives 1.8"):
            check_certificate(stored, W, got.c.choice, got.rank)
        rank = got.rank.copy()
        rank[[0, 3]] = rank[[3, 0]]
        with pytest.raises(SoundnessAlarm, match="state 0: a successor under input 2 settled after it"):
            check_certificate(stored, got.W, got.c.choice, rank)


def pair_values(problem, W, p):
    """M = max_y g(p,y,u) + W(y) of each input u of state p."""
    return np.array([max(g + W[q] for q, g in zip(*successors(problem, p, u))) for u in range(problem.m)])


def first_uncertified(problem, W, choice, rank):
    """The least state with a chosen input whose M is not W or one of whose
    successors under it settled after it, state by state; None if none."""
    for p in np.flatnonzero(choice != STOP).tolist():
        succ = successors(problem, p, choice[p])[0]
        if pair_values(problem, W, p)[choice[p]] != W[p] or (rank[succ] >= rank[p]).any():
            return p
    return None


def test_certificate_holds_on_pendulum_p1_and_catches_each_mutant():
    problem = build("pendulum:p1")[0]
    got = solve(problem, queue="auto")
    assert first_uncertified(problem, got.W, got.c.choice, got.rank) is None
    rng = np.random.default_rng(23)
    chosen = rng.permutation(np.flatnonzero(got.c.choice != STOP)).tolist()
    mutants = []
    # a changed controller entry, to an input of another value
    for p in chosen:
        other = np.flatnonzero(pair_values(problem, got.W, p) != got.W[p])
        if len(other):
            choice = got.c.choice.copy()
            choice[p] = other[0]
            mutants.append((got.W, choice, got.rank))
            break
    # W moved by one ulp, down and up
    for direction in (-INF, INF):
        W = got.W.copy()
        W[chosen[0]] = np.nextafter(W[chosen[0]], direction)
        mutants.append((W, got.c.choice, got.rank))
    # the last settled state with a choice swapped in settle order with one
    # of its chosen successors
    p = max(chosen, key=lambda p: got.rank[p])
    y = successors(problem, p, got.c.choice[p])[0][0]
    rank = got.rank.copy()
    rank[[p, y]] = rank[[y, p]]
    mutants.append((got.W, got.c.choice, rank))
    assert len(mutants) == 4
    for W, choice, rank in mutants:
        p = first_uncertified(problem, W, choice, rank)
        with pytest.raises(SoundnessAlarm, match=f"^solution certificate fails at state {p}: "):
            check_certificate(problem, W, choice, rank)


def test_duplicate_successor_is_an_input_error():
    # the solver's counters would never release a pair listing a successor
    # twice, so the constructor refuses one
    with pytest.raises(InputError) as exc:
        FiniteProblem(2, 1, [INF, 0.0], [0, 2, 3], np.array([1, 1, 1]), pair_costs=[1.0, 1.0])
    assert str(exc.value) == "duplicate transition (0,0,1)"


def random_csr_problem(rng, n, m, max_succ, per_edge, dtype):
    """A problem with 1 to max_succ distinct successors per pair, in no
    particular order, and about a tenth of the pairs inert (some cost inf);
    costs are per edge or per pair.  Needs n > max_succ."""
    sizes = rng.integers(1, max_succ + 1, size=n * m)
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    # successors base + 0 < base + s_2 < ... with steps s_i <= n // max_succ,
    # so that a pair's spread stays below n
    offset = np.cumsum(rng.integers(1, n // max_succ + 1, size=ptr[-1]))
    offset -= np.repeat(offset[ptr[:-1]], sizes)
    succ = ((np.repeat(rng.integers(0, n, size=n * m), sizes) + offset) % n).astype(dtype)
    inert = rng.random(n * m) < 0.1
    G = np.where(rng.random(n) < 0.3, 0.0, INF)
    if per_edge:
        costs = np.round(rng.uniform(0.5, 1.5, size=ptr[-1]), 3)
        costs[ptr[:-1][inert]] = INF
        return FiniteProblem(n, m, G, ptr, succ, edge_costs=costs)
    costs = np.where(inert, INF, np.round(rng.uniform(0.5, 1.5, size=n * m), 3))
    return FiniteProblem(n, m, G, ptr, succ, pair_costs=costs)


def run_problem(rng, n, m, per_edge, shuffle=False):
    """A problem whose pairs list 1 to 3 runs of consecutive successors, some
    longer than ROW_MAX, with about a tenth of the pairs inert; each pair's
    successors rise, or come in random order with ``shuffle``."""
    lists = []
    for _ in range(n * m):
        succ = set()
        for _ in range(rng.integers(1, 4)):
            start = int(rng.integers(0, n))
            succ.update(range(start, min(n, start + int(rng.integers(1, 3 * ROW_MAX + 3)))))
        succ = sorted(succ)
        lists.append(rng.permutation(succ) if shuffle else succ)
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum([len(succ) for succ in lists], out=ptr[1:])
    succ = np.concatenate(lists).astype(np.int32)
    inert = rng.random(n * m) < 0.1
    G = np.where(rng.random(n) < 0.3, 0.0, INF)
    if per_edge:
        costs = np.round(rng.uniform(0.5, 1.5, size=ptr[-1]), 3)
        costs[ptr[:-1][inert]] = INF
        return FiniteProblem(n, m, G, ptr, succ, edge_costs=costs)
    costs = np.where(inert, INF, np.round(rng.uniform(0.5, 1.5, size=n * m), 3))
    return FiniteProblem(n, m, G, ptr, succ, pair_costs=costs)


def row_incidences(index, n):
    """Per successor q, the set of (pair, edge of q) of the index's rows
    holding q; the edge is None with per-pair costs."""
    owner, rows = index.incidences(np.arange(n))
    q = owner // len(index.lengths)
    pairs = index.pair[rows].tolist()
    costs = [None] * len(rows) if index.base is None else (index.base[rows] + q).tolist()
    got = [set() for _ in range(n)]
    for y, pid, edge in zip(q.tolist(), pairs, costs):
        got[y].add((pid, edge))
    return got


def assert_inverse_matches_reference(problem):
    index = symoc.solver._build_inverse(problem)
    pred_ptr, pred_pair, counters, inv_costs = reference_inverse(problem)
    assert (index.offsets.dtype, index.pair.dtype) == (np.int64, np.int32)
    assert index.lengths.max(initial=1) <= symoc.core.ROW_MAX
    assert np.array_equal(index.counters, counters)
    got = row_incidences(index, problem.n)
    for q in range(problem.n):
        lo, hi = pred_ptr[q], pred_ptr[q + 1]
        pairs = pred_pair[lo:hi].tolist()
        if inv_costs is None:
            assert got[q] == {(pid, None) for pid in pairs}
        else:
            # the row's edge of q, by its cost
            assert {(pid, problem.edge_costs[e]) for pid, e in got[q]} == set(zip(pairs, inv_costs[lo:hi].tolist()))
            assert all(problem.trans_succ[e] == q for _, e in got[q])
        assert len(got[q]) == hi - lo  # no pair holds q in two rows


@pytest.mark.parametrize("chunk", [1, 3, 64, None])
def test_build_inverse_matches_reference_inverse(monkeypatch, chunk):
    # the row index expands to the reference's (successor, pair) incidences;
    # chunks of 1, 3 and 64 edges cut the problems into many chunks, some of
    # inert pairs only; None keeps the default
    if chunk is not None:
        monkeypatch.setattr(symoc.core, "CHECK_EDGES", chunk)
    rng = np.random.default_rng(5)
    for _ in range(20):
        trans, G = random_problem_lists(rng, n_max=40, cost_mode="real")
        for problem in (from_lists(trans, G), *constant_per_pair(from_lists(trans, G))):
            assert_inverse_matches_reference(problem)
    for per_edge in (True, False):
        for dtype in (np.int32, np.int64):
            assert_inverse_matches_reference(random_csr_problem(rng, 400, 3, 12, per_edge, dtype))
        for shuffle in (False, True):
            # rows longer than ROW_MAX, in list order or not
            problem = run_problem(rng, 120, 3, per_edge, shuffle)
            if not shuffle:  # ROW_MAX steps by one: a run of ROW_MAX + 1 ids
                steps = np.diff(problem.trans_succ) == 1
                assert np.convolve(steps, np.ones(ROW_MAX, dtype=int), "valid").max() == ROW_MAX
            assert_inverse_matches_reference(problem)
    # more than one default chunk
    assert_inverse_matches_reference(random_csr_problem(rng, 3000, 5, 20, True, np.int32))


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_duplicate_message_names_the_first_repeat_in_pair_order(monkeypatch, chunk):
    # pairs 0, 3 and 4 list a successor twice: pair 0's 5 is named, also
    # where chunks of 1 or 3 edges put the repeats in different chunks
    if chunk is not None:
        monkeypatch.setattr(symoc.core, "CHECK_EDGES", chunk)
    succ = [5, 5, 1, 0, 1, 2, 4, 2, 2, 2, 0]
    ptr = [0, 3, 4, 5, 8, 10, 11]
    with pytest.raises(InputError) as exc:
        FiniteProblem(6, 1, [INF, 0.0, INF, INF, INF, INF], ptr, np.array(succ), pair_costs=np.ones(6))
    assert str(exc.value) == "duplicate transition (0,0,5)"


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_duplicate_in_rows_that_are_not_adjacent(monkeypatch, chunk):
    # pair 1 lists 2, 7, 3, 2: four rows, the duplicate 2 in the first and
    # the last; pair 0 lists 2 twice too, and though inert is named first
    if chunk is not None:
        monkeypatch.setattr(symoc.core, "CHECK_EDGES", chunk)
    succ = [2, 2, 2, 7, 3, 2, 4, 5, 6, 0, 0, 0, 0, 0]
    ptr = [0, 2, 6, 9, 10, 11, 12, 13, 14]
    G = [INF, 0.0, *[INF] * 6]
    with pytest.raises(InputError) as exc:
        FiniteProblem(8, 1, G, ptr, np.array(succ), pair_costs=[INF, *[1.0] * 7])
    assert str(exc.value) == "duplicate transition (0,0,2)"
    succ[1] = 3
    with pytest.raises(InputError) as exc:
        FiniteProblem(8, 1, G, ptr, np.array(succ), pair_costs=[INF, *[1.0] * 7])
    assert str(exc.value) == "duplicate transition (1,0,2)"


@pytest.mark.parametrize("per_edge", [True, False])
def test_build_inverse_holds_little_beyond_its_outputs(per_edge):
    # 3.2 M edges in runs, about 0.3 rows per edge: besides the index the
    # build may hold O(n m) pair data and O(CHECK_EDGES) per chunk, not
    # an array per row (a sort of int64 (column, row) keys over all rows
    # would hold 8 B per row more)
    n, m = 20_000, 4
    rng = np.random.default_rng(8)
    sizes = rng.integers(10, 70, size=n * m)
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    # each pair's successors rise from a random start, 7 steps in 10 by one
    step = np.where(rng.random(ptr[-1]) < 0.3, rng.integers(2, 40, size=ptr[-1]), 1)
    step[ptr[:-1]] = 0
    np.cumsum(step, out=step)
    succ = np.repeat(rng.integers(0, n - 3000, size=n * m) - step[ptr[:-1]], sizes) + step
    G = np.where(rng.random(n) < 0.3, 0.0, INF)
    inert = rng.random(n * m) < 0.1
    if per_edge:
        costs = rng.uniform(0.5, 1.5, size=ptr[-1])
        costs[ptr[:-1][inert]] = INF
        problem = FiniteProblem(n, m, G, ptr, succ.astype(np.int32), edge_costs=costs)
    else:
        problem = FiniteProblem(n, m, G, ptr, succ.astype(np.int32), pair_costs=np.where(inert, INF, 1.0))
    assert problem.n_edges >= 3_000_000
    tracemalloc.start()
    try:
        index = symoc.solver._build_inverse(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(index.pair)
    assert 0.2 < rows / problem.n_edges < 0.4
    outputs = sum(a.nbytes for a in (index.offsets, index.pair, index.base, index.counters) if a is not None)
    beyond = 24 * n * m + 64 * symoc.core.CHECK_EDGES
    assert peak <= outputs + beyond
    assert 8 * rows > beyond
