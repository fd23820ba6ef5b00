"""Dijkstra-like solver for finite leavable minimax problems.

The solver settles states in order of non-decreasing value.  When a state q is
settled, every pair (p, u) with q among its successors decrements a counter of
unsettled successors; once the counter hits zero the pair's worst-case one-step
value M = max_y g(p,y,u) + W(y) is computed from scratch (all its successors
are settled by then, so each pair is evaluated exactly once) and W(p) improves
when M beats it.  Pairs with an infinite-cost transition can never improve
anything and are dropped from the inverse adjacency up front.

Two queue disciplines are provided: a binary heap with decrease-key by
reinsertion (O(m log n), replacing the Fibonacci heap of the O(m + n log n)
bound), and a FIFO queue admissible only for certified discrete costs, where
all queue keys stay within one cost quantum so insertion order is value order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import INF, STOP, ControllerTable, FiniteProblem
from .errors import InputError, SoundnessAlarm


@dataclass
class SolveStats:
    settled: int = 0
    pushes: int = 0
    pops: int = 0
    pair_evals: int = 0

    @property
    def queue_ops(self) -> int:
        return self.pushes + self.pops


@dataclass
class SolveResult:
    W: np.ndarray
    c: ControllerTable
    stats: SolveStats
    settle_values: np.ndarray  # W at settle time, in settle order


def is_discrete_cost(problem: FiniteProblem):
    """Witnesses (gamma, Gamma) with g(X,X,U) in {gamma, inf} and
    G(X) in {Gamma, gamma + Gamma, inf}, or None if none exist."""
    costs = problem.edge_costs if problem.edge_costs is not None else problem.pair_costs
    g_fin = np.unique(costs[np.isfinite(costs)])
    if len(g_fin) > 1:
        return None
    G_fin = np.unique(problem.G[np.isfinite(problem.G)])
    if len(G_fin) > 2:
        return None
    if len(g_fin) == 1:
        gamma = float(g_fin[0])
        if len(G_fin) == 0:
            return gamma, 0.0
        if len(G_fin) == 1:
            return gamma, float(G_fin[0])  # single value plays the Gamma role
        lo, hi = float(G_fin[0]), float(G_fin[1])
        if hi - lo == gamma:
            return gamma, lo
        return None
    # no finite running cost: any gamma works
    if len(G_fin) == 0:
        return 0.0, 0.0
    if len(G_fin) == 1:
        return 0.0, float(G_fin[0])
    lo, hi = float(G_fin[0]), float(G_fin[1])
    return hi - lo, lo


def _build_inverse(problem: FiniteProblem):
    """Inverse adjacency over non-inert pairs.

    Returns (pred_ptr, pred_pair, counters); pred_pair[pred_ptr[q]:pred_ptr[q+1]]
    lists the pair ids having q among their successors.  Pairs with any
    infinite transition cost are inert (their M is always inf) and omitted.
    """
    n, m = problem.n, problem.m
    ptr = problem.trans_ptr
    sizes = np.diff(ptr)
    if problem.edge_costs is not None:
        finite_edge = np.isfinite(problem.edge_costs)
        pair_alive = np.logical_and.reduceat(finite_edge, ptr[:-1])
    else:
        pair_alive = np.isfinite(problem.pair_costs)
    alive_edge = np.repeat(pair_alive, sizes)
    succ = problem.trans_succ[alive_edge]
    pair_of_edge = np.repeat(np.arange(n * m, dtype=np.int64), sizes)[alive_edge]
    order = np.argsort(succ, kind="stable")
    pred_pair = pair_of_edge[order]
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(succ, minlength=n), out=pred_ptr[1:])
    counters = np.where(pair_alive, sizes, -1).astype(np.int64)
    return pred_ptr, pred_pair, counters


def solve(problem: FiniteProblem, queue: str = "heap") -> SolveResult:
    """Run Algorithm 1; returns the value function, an optimal static
    controller and queue statistics.

    ``queue`` is "heap" or "fifo"; the FIFO discipline is an input error on
    problems without certified discrete costs.
    """
    if queue not in ("heap", "fifo"):
        raise InputError(f"unknown queue discipline {queue!r}")
    if queue == "fifo" and is_discrete_cost(problem) is None:
        raise InputError("fifo discipline requires certified discrete costs")

    n, m = problem.n, problem.m
    W = problem.G.copy()
    choice = np.full(n, STOP, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)
    pred_ptr, pred_pair, counters = _build_inverse(problem)
    ptr = problem.trans_ptr
    succ = problem.trans_succ
    edge_costs = problem.edge_costs
    pair_costs = problem.pair_costs
    stats = SolveStats()
    settle_values = []

    initial = [p for p in range(n) if W[p] < INF]
    if queue == "heap":
        heap = [(W[p], p) for p in initial]
        heapq.heapify(heap)
        stats.pushes += len(heap)
        pop = None
    else:
        initial.sort(key=lambda p: (W[p], p))
        fifo = deque(initial)
        stats.pushes += len(fifo)

    in_queue = np.zeros(n, dtype=bool)
    in_queue[initial] = True
    last_settle = -INF

    while True:
        # pick q in argmin W over the queue; lowest index wins ties
        if queue == "heap":
            q = -1
            while heap:
                key, cand = heapq.heappop(heap)
                stats.pops += 1
                if settled[cand] or key != W[cand]:
                    continue  # stale entry superseded by a reinsertion
                q = cand
                break
            if q < 0:
                break
        else:
            if not fifo:
                break
            q = fifo.popleft()
            stats.pops += 1
            if settled[q]:
                raise SoundnessAlarm("fifo queue settled a state twice")
        if W[q] < last_settle:
            raise SoundnessAlarm("settle values decreased; queue discipline unsound")
        last_settle = W[q]
        settled[q] = True
        in_queue[q] = False
        stats.settled += 1
        settle_values.append(W[q])

        for pid in pred_pair[pred_ptr[q] : pred_ptr[q + 1]].tolist():
            counters[pid] -= 1
            if counters[pid]:
                continue
            # all successors of (p, u) are settled: evaluate its one-step value
            stats.pair_evals += 1
            a, b = ptr[pid], ptr[pid + 1]
            if edge_costs is not None:
                M = -INF
                for e in range(a, b):
                    val = edge_costs[e] + W[succ[e]]
                    if val > M:
                        M = val
            else:
                M = pair_costs[pid] + max(W[succ[e]] for e in range(a, b))
            p = pid // m
            if W[p] > M:
                W[p] = M
                choice[p] = pid - p * m
                if queue == "heap":
                    heapq.heappush(heap, (M, p))
                    stats.pushes += 1
                    in_queue[p] = True
                else:
                    if in_queue[p]:
                        raise SoundnessAlarm("fifo discipline improved a queued state")
                    fifo.append(p)
                    stats.pushes += 1
                    in_queue[p] = True

    # W(p) = inf iff no input was ever recorded for p
    if not np.array_equal(choice == STOP, ~(W < problem.G)):
        raise SoundnessAlarm("controller domain does not match improved states")
    return SolveResult(W, ControllerTable(choice), stats, np.asarray(settle_values))


def dp_operator(problem: FiniteProblem, W) -> np.ndarray:
    """One minimax Bellman update: (PW)(p) = min(G(p), min_u max_q g + W(q))."""
    W = np.asarray(W, dtype=float)
    if W.shape != (problem.n,) or np.any(W < 0) or np.any(np.isnan(W)):
        raise InputError("value array must be non-negative with one entry per state")
    vals = W[problem.trans_succ]
    if problem.edge_costs is not None:
        vals = problem.edge_costs + vals
    pair_max = np.maximum.reduceat(vals, problem.trans_ptr[:-1])
    if problem.pair_costs is not None:
        pair_max = problem.pair_costs + pair_max
    return np.minimum(problem.G, pair_max.reshape(problem.n, problem.m).min(axis=1))


def value_iteration(problem: FiniteProblem, T: int) -> np.ndarray:
    """P^T(G): T applications of the Bellman update to the terminal cost."""
    if T < 0:
        raise InputError("iteration budget must be non-negative")
    W = problem.G.copy()
    for _ in range(T):
        W = dp_operator(problem, W)
    return W

