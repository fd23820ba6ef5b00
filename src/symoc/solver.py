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
and are dropped from the inverse adjacency up front.

One settle loop serves two queue disciplines.  A binary heap with
decrease-key by reinsertion (O(m log n), replacing the Fibonacci heap of the
O(m + n log n) bound) yields one state per step, the least (W, index).  A FIFO
queue, admissible only for certified discrete costs where all queue keys stay
within one cost quantum so insertion order is value order, yields its whole
content per step (a wave, as in Dial's bucket queue for unit costs); states
pushed during a wave form the next one, so states settle in FIFO order.  The
counters of a wave are decremented together with numpy, and the ready pairs
are taken in the order the per-state loop would reach them, so W, the
controller and the queue statistics do not depend on the batching.
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
    pair_costs = problem.pair_costs
    # per-edge costs: running max of g + W(y) over the settled successors y
    pair_max = None if inv_costs is None else np.full(n * m, -INF)
    stats = SolveStats()
    settle_values = [np.empty(0)]

    initial = np.flatnonzero(W < INF)
    initial = initial[np.argsort(W[initial], kind="stable")]  # by (W, index)
    stats.pushes += len(initial)
    if fifo:
        wave = initial
        in_queue = np.zeros(n, dtype=bool)
        in_queue[initial] = True
        last_pos = np.empty(n * m, dtype=np.int64)
        pushed = []
    else:
        heap = list(zip(W[initial].tolist(), initial.tolist()))  # sorted, so a heap
    last_settle = -INF

    while True:
        # pop a batch: the least (W, index) from the heap, or the whole fifo
        if fifo:
            if not len(wave):
                break
            stats.pops += len(wave)
            if settled[wave].any():
                raise SoundnessAlarm("fifo queue settled a state twice")
            vals = W[wave]
        else:
            while heap:
                key, q = heapq.heappop(heap)
                stats.pops += 1
                if not settled[q] and key == W[q]:
                    break  # otherwise a stale entry superseded by a reinsertion
            else:
                break
            wave = slice(q, q + 1)
            vals = W[wave].copy()
        if vals[0] < last_settle or (fifo and (vals[1:] < vals[:-1]).any()):
            raise SoundnessAlarm("settle values decreased; queue discipline unsound")
        last_settle = vals[-1]
        settled[wave] = True
        stats.settled += len(vals)
        settle_values.append(vals)

        # pairs whose last unsettled successor is in the batch, in the order
        # the states' predecessor lists reach them
        if fifo:
            starts = pred_ptr[wave]
            ends = np.cumsum(pred_ptr[wave + 1] - starts)
            lens = np.diff(ends, prepend=0)
            where = np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])
            pids = pred_pair[where].astype(np.intp)
            np.subtract.at(counters, pids, 1)
            pos = np.flatnonzero(counters[pids] == 0)
            # a pair with several successors in the wave is ready at the last
            last_pos[pids[pos]] = -1
            np.maximum.at(last_pos, pids[pos], pos)
            pos = pos[last_pos[pids[pos]] == pos]
            ready = pids[pos]
            if pair_max is None:
                values = pair_costs[ready] + vals[np.searchsorted(ends, pos, side="right")]
            else:
                np.maximum.at(pair_max, pids, inv_costs[where] + np.repeat(vals, lens))
                values = pair_max[ready]
        else:
            a, b = pred_ptr[q], pred_ptr[q + 1]
            pids = pred_pair[a:b].astype(np.intp)  # intp indexes faster
            left = counters[pids] - 1
            counters[pids] = left
            done = left == 0
            ready = pids[done]
            if pair_max is None:
                values = pair_costs[ready] + vals[0]
            else:
                raised = np.maximum(pair_max[pids], inv_costs[a:b] + vals[0])
                pair_max[pids] = raised
                values = raised[done]
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
        if fifo:
            # the wave left the queue only now: a state settled after q in the
            # per-state order is still queued while q's pairs improve states
            in_queue[wave] = False
            wave = np.array(pushed, dtype=np.int64)
            pushed = []

    # W(p) = inf iff no input was ever recorded for p
    if not np.array_equal(choice == STOP, ~(W < problem.G)):
        raise SoundnessAlarm("controller domain does not match improved states")
    return SolveResult(W, ControllerTable(choice), stats, np.concatenate(settle_values), "fifo" if fifo else "heap")


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

