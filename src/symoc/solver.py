"""Dijkstra-like solver for finite leavable minimax problems.

The solver settles states in order of non-decreasing value.  When a state q is
settled, every pair (p, u) with q among its successors decrements a counter of
unsettled successors; once the counter hits zero the pair's worst-case one-step
value M = max_y g(p,y,u) + W(y) is known and W(p) improves when M beats it.
Each pair is evaluated once, in O(1): settle values never decrease, so the
state q whose settle made the pair ready has the largest W among its
successors and M = g(p,u) + W(q) with per-pair costs.  With per-edge costs a
running maximum of g(p,y,u) + W(y) is kept per pair, raised as each successor
settles.  Pairs with an infinite-cost transition can never improve anything
and are dropped from the inverse adjacency up front.  Cost sums saturate to
inf, the sound upper bound.

One settle loop serves two queue disciplines.  Each step takes a wave, the
states to settle next in settle order, and settles it with numpy; its ready
pairs are taken in the order a per-state loop would reach them, so W, the
controller and the queue statistics do not depend on the waves.  A binary
heap with decrease-key by reinsertion (O(m log n), replacing the Fibonacci
heap of the O(m + n log n) bound) hands out every queued state whose key is
below w0 + c_min, with w0 the least key and c_min the least finite running
cost: Dial's bucket queue for unit costs, the OUT-criterion of Crauser,
Mehlhorn, Meyer and Sanders in general.  This is exact.  A pair made ready
by a wave state q has M >= fl(c_min + W(q)) >= fl(c_min + w0), as rounding
is monotone, so no wave state can improve and every push during the wave
has a key at or above the bound: a per-state loop would pop these very
states, in (W, index) order.  With c_min = 0, or where w0 + c_min rounds to
w0, a wave is one state.  A FIFO queue, admissible only for certified
discrete costs where all queue keys stay within one cost quantum so
insertion order is value order, hands out the states pushed during the
previous wave.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import INF, STOP, ControllerTable, FiniteProblem
from .errors import InputError, SoundnessAlarm

QUEUES = ("auto", "heap", "fifo")  # queue disciplines; auto picks one per problem


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
    queue: str  # the discipline that ran, "heap" or "fifo"


def is_discrete_cost(problem: FiniteProblem):
    """Witnesses (gamma, Gamma) with g(X,X,U) in {gamma, inf} and
    G(X) in {Gamma, gamma + Gamma, inf}, or None if none exist."""
    costs = problem.edge_costs if problem.edge_costs is not None else problem.pair_costs
    g = costs.min(initial=INF)  # the one finite running cost, if any
    if g < INF and np.count_nonzero(costs == g) + np.count_nonzero(costs == INF) < len(costs):
        return None  # two finite running costs
    G = problem.G[np.isfinite(problem.G)]
    lo, hi = (G.min(), G.max()) if len(G) else (0.0, 0.0)
    gamma = float(hi - lo if g == INF else g)
    if np.count_nonzero((G == lo) | (G == hi)) < len(G) or (hi > lo and hi - lo != gamma):
        return None  # three finite terminal costs, or two not gamma apart
    return gamma, float(lo)


def _build_inverse(problem: FiniteProblem):
    """Inverse adjacency over non-inert pairs.

    Returns (pred_ptr, pred_pair, counters, inv_costs);
    pred_pair[pred_ptr[q]:pred_ptr[q+1]] lists, in increasing order, the int32
    ids of the pairs having q among their successors, and inv_costs holds the
    matching edge costs (None with per-pair costs).  Pairs with any infinite
    transition cost are inert (their M is always inf) and omitted.  A pair
    listing a successor twice would never become ready (its counter counts
    the successor twice, a settle decrements it once), so that is an input
    error.
    """
    n, m = problem.n, problem.m
    if n * m >= 2**31:
        raise InputError(f"{n} states x {m} inputs exceed the int32 pair ids")
    ptr = problem.trans_ptr
    sizes = np.diff(ptr)
    if problem.edge_costs is not None:
        pair_alive = np.logical_and.reduceat(np.isfinite(problem.edge_costs), ptr[:-1])
    else:
        pair_alive = np.isfinite(problem.pair_costs)
    alive_edge = None if pair_alive.all() else np.repeat(pair_alive, sizes)

    def alive(per_edge):
        return per_edge if alive_edge is None else per_edge[alive_edge]

    succ = alive(problem.trans_succ)
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(succ, minlength=n), out=pred_ptr[1:])
    # sort the edges by the unique key (successor, pair id), the order of a
    # stable sort by successor
    key = succ.astype(np.int64)
    del succ
    key *= n * m
    key += np.repeat(np.flatnonzero(pair_alive).astype(np.int32), sizes[pair_alive])  # the edges' pair ids
    if problem.edge_costs is None:
        key.sort()
        inv_costs = None
    else:
        order = np.argsort(key)
        key = key[order]
        inv_costs = alive(problem.edge_costs)[order]
        del order
    dup = np.flatnonzero(key[1:] == key[:-1])
    if len(dup):
        q, pid = divmod(int(key[dup[0]]), n * m)
        raise InputError(f"duplicate transition ({pid // m},{pid % m},{q})")
    np.remainder(key, n * m, out=key)
    pred_pair = key.astype(np.int32)
    del key
    counters = np.where(pair_alive, sizes, -1)
    return pred_ptr, pred_pair, counters, inv_costs


@np.errstate(over="ignore")  # cost sums saturate to inf
def solve(problem: FiniteProblem, queue: str = "heap") -> SolveResult:
    """Run Algorithm 1; returns the value function, an optimal static
    controller and queue statistics.

    ``queue`` is one of QUEUES; ``auto`` is FIFO for certified discrete
    costs and the heap otherwise, and FIFO is an input error on problems
    without them.
    """
    if queue not in QUEUES:
        raise InputError(f"queue {queue!r} is not one of {', '.join(QUEUES)}")
    fifo = queue != "heap" and is_discrete_cost(problem) is not None
    if queue == "fifo" and not fifo:
        raise InputError("fifo discipline requires certified discrete costs")

    n, m = problem.n, problem.m
    W = problem.G.copy()
    choice = np.full(n, STOP, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)
    pred_ptr, pred_pair, counters, inv_costs = _build_inverse(problem)
    ptr, degree = pred_ptr.tolist(), np.diff(pred_ptr)
    pair_costs = problem.pair_costs
    # per-edge costs: running max of g + W(y) over the settled successors y
    pair_max = None if inv_costs is None else np.full(n * m, -INF)
    last_pos = np.empty(n * m, dtype=np.int64)
    stats = SolveStats()
    settle_values = [np.empty(0)]

    initial = np.flatnonzero(W < INF)
    initial = initial[np.argsort(W[initial], kind="stable")]  # by (W, index)
    stats.pushes += len(initial)
    if fifo:
        in_queue = np.zeros(n, dtype=bool)
        in_queue[initial] = True
        pushed = initial.tolist()
    else:
        c_min = float((pair_costs if inv_costs is None else problem.edge_costs).min(initial=INF))
        heap = list(zip(W[initial].tolist(), initial.tolist()))  # sorted, so a heap
    wave = initial[:0]

    while True:
        # take a wave, in settle order
        if fifo:
            # the previous wave leaves the queue only now: its states stay
            # queued while its pairs improve states
            in_queue[wave] = False
            taken, pushed = pushed, []
            stats.pops += len(taken)
            if settled[taken].any():
                raise SoundnessAlarm("fifo queue settled a state twice")
        else:
            taken, limit = [], INF
            while heap and heap[0][0] < limit:
                key, q = heapq.heappop(heap)
                stats.pops += 1
                if settled[q] or key != W[q]:
                    continue  # a stale entry superseded by a reinsertion
                if not taken:
                    limit = key + c_min
                taken.append(q)
        if not taken:
            break
        wave = np.array(taken, dtype=np.int64)
        vals = W[wave]
        settled[wave] = True
        stats.settled += len(wave)
        settle_values.append(vals)

        # pairs whose last unsettled successor is in the wave, in the order
        # the states' predecessor lists reach them
        lists = [slice(ptr[q], ptr[q + 1]) for q in taken]
        pids = np.concatenate([pred_pair[s] for s in lists]).astype(np.intp)  # intp indexes faster
        np.subtract.at(counters, pids, 1)
        pos = (counters[pids] == 0).nonzero()[0]
        if len(wave) > 1:
            # a pair with several successors in the wave is ready at the last
            # (a single state lists each pair once)
            ready = pids[pos]
            last_pos[ready] = -1
            np.maximum.at(last_pos, ready, pos)
            pos = pos[last_pos[ready] == pos]
        ready = pids[pos]
        succ_vals = vals.repeat(degree[wave])  # per listed pair, W of the settled successor
        if pair_max is None:
            values = pair_costs[ready] + succ_vals[pos]
        else:
            np.maximum.at(pair_max, pids, np.concatenate([inv_costs[s] for s in lists]) + succ_vals)
            values = pair_max[ready]
        stats.pair_evals += len(ready)

        # improve states in ready order: the first strict improvement wins
        for pid, M in zip(ready.tolist(), values.tolist()):
            p = pid // m
            if W[p] > M:
                W[p] = M
                choice[p] = pid - p * m
                stats.pushes += 1
                if fifo:
                    if in_queue[p]:
                        raise SoundnessAlarm("fifo discipline improved a queued state")
                    in_queue[p] = True
                    pushed.append(p)
                else:
                    heapq.heappush(heap, (M, p))

    settle_values = np.concatenate(settle_values)
    if (settle_values[1:] < settle_values[:-1]).any():
        raise SoundnessAlarm("settle values decreased; queue discipline unsound")
    # W(p) = inf iff no input was ever recorded for p
    if not np.array_equal(choice == STOP, ~(W < problem.G)):
        raise SoundnessAlarm("controller domain does not match improved states")
    return SolveResult(W, ControllerTable(choice), stats, settle_values, "fifo" if fifo else "heap")


def dp_operator(problem: FiniteProblem, W) -> np.ndarray:
    """One minimax Bellman update: (PW)(p) = min(G(p), min_u max_q g + W(q))."""
    W = np.asarray(W, dtype=float)
    if W.shape != (problem.n,) or np.any(W < 0) or np.any(np.isnan(W)):
        raise InputError("value array must be non-negative with one entry per state")
    vals = W[problem.trans_succ]
    with np.errstate(over="ignore"):  # sums saturate to inf
        if problem.edge_costs is not None:
            vals = problem.edge_costs + vals
        pair_max = np.maximum.reduceat(vals, problem.trans_ptr[:-1])
        if problem.pair_costs is not None:
            pair_max = problem.pair_costs + pair_max
    return np.minimum(problem.G, pair_max.reshape(problem.n, problem.m).min(axis=1))

