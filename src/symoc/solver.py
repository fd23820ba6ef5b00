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
inf, the sound upper bound.  The inverse adjacency, int32 pair ids per
successor, is built by a counting sort over chunks of pairs, so the solver
holds 4 B per live edge beside the problem (12 B with per-edge costs) and
O(n m) pair data.

One settle loop serves two queue disciplines.  Each step takes a wave, the
states to settle next in settle order, and settles it with numpy.  Its ready
pairs are taken in the order a per-state loop would reach them; a state's
new W is the least M below its old W and its choice the first ready pair
reaching that M, as a loop taking each strict improvement in turn would
leave them.  So W, the controller, the settle order and the settled and
pair_evals counts do not depend on the waves.  An improved state is pushed
once per wave, at its final key: pushes counts the initial queue plus one
per state and wave improving it, pops the entries taken, stale ones
included, and the two end equal.

A binary heap with decrease-key by reinsertion (O(m log n), replacing the
Fibonacci heap of the O(m + n log n) bound) holds packed int keys
(bits(W) << 32) | state, which order like (W, state): the bit patterns of
non-negative floats order like their values (-0.0 is taken as 0.0).  It
hands out its least entry and every entry below that entry's W plus c_min,
the least finite running cost: Dial's bucket queue for unit costs, the
OUT-criterion of Crauser, Mehlhorn, Meyer and Sanders in general.  Stale
entries, superseded by a later push or of a settled state, are dropped
from the run with one mask.  This is exact.  The least entry's W is at
most w0, the least queued W, and a pair made ready by a wave state q has
M >= fl(c_min + W(q)) >= fl(c_min + w0), as rounding is monotone, so no
wave state can improve and every push during the wave has a key at or
above the bound: a per-state loop would pop these very states, in
(W, index) order.  With c_min = 0, or where w0 + c_min rounds to w0, a wave
is one state.  A FIFO queue, admissible only for certified discrete costs
where all queue keys stay within one cost quantum so insertion order is
value order, hands out the states pushed during the previous wave.

Every result passes check_certificate: each chosen pair's M equals W(p),
bit for bit, and its successors settled before p.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .core import INF, STOP, ControllerTable, FiniteProblem, chunks
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
    rank: np.ndarray  # per state, its place in settle order; n if never settled


def is_discrete_cost(problem: FiniteProblem):
    """Witnesses (gamma, Gamma) with g(X,X,U) in {gamma, inf} and
    G(X) in {Gamma, gamma + Gamma, inf}, or None if none exist."""
    costs = problem.costs
    g = costs.min(initial=INF)  # the one finite running cost, if any
    if g < INF and np.count_nonzero(costs == g) + np.count_nonzero(costs == INF) < len(costs):
        return None  # two finite running costs
    G = problem.G[np.isfinite(problem.G)]
    lo, hi = (G.min(), G.max()) if len(G) else (0.0, 0.0)
    gamma = float(hi - lo if g == INF else g)
    if np.count_nonzero((G == lo) | (G == hi)) < len(G) or (hi > lo and hi - lo != gamma):
        return None  # three finite terminal costs, or two not gamma apart
    return gamma, float(lo)


_STATE = (1 << 32) - 1  # the state bits of a packed heap key


def _bits(values) -> np.ndarray:
    """int64 bit patterns of non-negative floats, which order like the
    values; -0.0 counts as 0.0."""
    return (np.asarray(values, dtype=np.float64) + 0.0).view(np.int64)


def _keys(values, states) -> list:
    """Packed heap keys (bits(W) << 32) | state, which order like (W, state)."""
    return [b << 32 | q for b, q in zip(_bits(values).tolist(), states.tolist())]


_INVERSE_EDGES = 1 << 16  # edges sorted per chunk by _build_inverse


def _build_inverse(problem: FiniteProblem):
    """Inverse adjacency over non-inert pairs.

    Returns (pred_ptr, pred_pair, counters, inv_costs);
    pred_pair[pred_ptr[q]:pred_ptr[q+1]] lists, in increasing order, the int32
    ids of the pairs having q among their successors, and inv_costs holds the
    matching edge costs (None with per-pair costs).  Pairs with any infinite
    transition cost are inert (their M is always inf) and omitted.  A pair
    listing a successor twice would never become ready (its counter counts
    the successor twice, a settle decrements it once), so that is an input
    error naming the least such (successor, pair).

    A two-pass counting sort.  The first pass counts the live edges into
    each state.  The second walks the edges in pair order, in chunks of
    whole pairs, sorts each chunk by (successor, edge) and writes its pair
    ids at each successor's cursor, so every list comes out in pair order.
    Beyond the outputs it holds O(n m) pair data and O(n + _INVERSE_EDGES)
    per chunk.
    """
    n, m = problem.n, problem.m
    ptr, succ, edge_costs = problem.trans_ptr, problem.trans_succ, problem.edge_costs
    pair_alive = np.isfinite(problem.pair_costs) if edge_costs is None else np.empty(n * m, dtype=bool)

    def live(pa, pb, per_edge):
        """per_edge, for the edges of pairs pa..pb-1, without the inert pairs' edges"""
        alive = pair_alive[pa:pb]
        return per_edge if alive.all() else per_edge[np.repeat(alive, np.diff(ptr[pa : pb + 1]))]

    # count pass, in chunks of at least n edges so that each bincount costs
    # O(edges)
    pred_ptr = np.zeros(n + 1, dtype=np.int64)
    cuts = chunks(ptr, max(_INVERSE_EDGES, n))
    for pa, pb in zip(cuts, cuts[1:]):
        a, b = ptr[pa], ptr[pb]
        if edge_costs is not None:
            pair_alive[pa:pb] = np.logical_and.reduceat(np.isfinite(edge_costs[a:b]), ptr[pa:pb] - a)
        pred_ptr[1:] += np.bincount(live(pa, pb, succ[a:b]), minlength=n)
    np.cumsum(pred_ptr, out=pred_ptr)

    # fill pass: a chunk's edges, sorted by (successor, chunk-local edge),
    # form one run per successor, in pair order
    cursor = pred_ptr[:-1].copy()  # next free slot of each list
    pred_pair = np.empty(pred_ptr[-1], dtype=np.int32)
    inv_costs = None if edge_costs is None else np.empty(pred_ptr[-1])
    cuts = chunks(ptr, _INVERSE_EDGES)
    local = np.arange(np.diff(ptr[cuts]).max())
    dups = []  # (successor, pair) of duplicate edges
    for pa, pb in zip(cuts, cuts[1:]):
        a, b = ptr[pa], ptr[pb]
        key = np.left_shift(succ[a:b], 32, dtype=np.int64)
        key |= local[: b - a]
        key = live(pa, pb, key)
        if not len(key):
            continue
        key.sort()
        q = key >> 32
        key &= 0xFFFFFFFF  # the edge
        pids = np.repeat(np.arange(pa, pb, dtype=np.int32), np.diff(ptr[pa : pb + 1]))[key]
        new_q = q[1:] != q[:-1]
        dup = np.flatnonzero((pids[1:] == pids[:-1]) & ~new_q)
        if len(dup):
            dups.append((int(q[dup[0]]), int(pids[dup[0]])))  # the chunk's least
        starts = np.concatenate(([0], np.flatnonzero(new_q) + 1))
        runs = np.diff(starts, append=len(q))
        heads = q[starts]
        dest = np.repeat(cursor[heads] - starts, runs)
        dest += local[: len(q)]
        cursor[heads] += runs
        pred_pair[dest] = pids
        if inv_costs is not None:
            inv_costs[dest] = edge_costs[a:b][key]
    if dups:
        q, pid = min(dups)
        raise InputError(f"duplicate transition ({pid // m},{pid % m},{q})")
    counters = np.diff(ptr)
    counters[~pair_alive] = -1
    return pred_ptr, pred_pair, counters, inv_costs


@np.errstate(over="ignore")  # cost sums saturate to inf
def solve(problem: FiniteProblem, queue: str = "heap") -> SolveResult:
    """Run Algorithm 1; returns the value function, an optimal static
    controller and queue statistics, after check_certificate has passed.

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
    rank = np.full(n, n, dtype=np.int64)
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
        pushed = initial
    else:
        c_min = float(problem.costs.min(initial=INF))
        heap = _keys(W[initial], initial)  # sorted, so a heap
    wave = initial[:0]

    while True:
        # take a wave, in settle order
        if fifo:
            # the previous wave leaves the queue only now: its states stay
            # queued while its pairs improve states
            in_queue[wave] = False
            if not len(pushed):
                break
            wave, pushed = pushed, initial[:0]
            stats.pops += len(wave)
            if settled[wave].any():
                raise SoundnessAlarm("fifo queue settled a state twice")
        else:
            # the least key and every key below its W plus c_min; stale
            # entries, superseded by a later push or of a settled state, drop
            if not heap:
                break
            run = [heappop(heap)]
            bound = np.int64(run[0] >> 32).view(np.float64) + c_min
            limit = int(_bits(bound)) << 32  # the least key with W at or above bound
            while heap and heap[0] < limit:
                run.append(heappop(heap))
            stats.pops += len(run)
            run = np.array(run, dtype=object)
            wave = (run & _STATE).astype(np.int64)
            wave = wave[~settled[wave] & ((run >> 32).astype(np.int64) == _bits(W[wave]))]
            if not len(wave):
                continue
        vals = W[wave]
        settled[wave] = True
        rank[wave] = np.arange(stats.settled, stats.settled + len(wave))
        stats.settled += len(wave)
        settle_values.append(vals)

        # pairs whose last unsettled successor is in the wave, in the order
        # the states' predecessor lists reach them
        lists = [slice(ptr[q], ptr[q + 1]) for q in wave.tolist()]
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

        # improve states, pushing each improved state once (module docstring)
        p = ready // m
        better = values < W[p]
        ready, values, p = ready[better], values[better], p[better]
        np.minimum.at(W, p, values)
        hit = np.flatnonzero(values == W[p])
        improved, first = np.unique(p[hit], return_index=True)
        hit = hit[first]  # per improved state, the position of its choice
        W[improved] = values[hit]  # the chosen M's bits, also for M = -0.0
        choice[improved] = ready[hit] - improved * m
        stats.pushes += len(improved)
        if fifo:
            # a per-pair loop would push each state at its first improvement;
            # one queued already, or improved again, breaks value order
            if in_queue[improved].any() or (np.unique(p, return_index=True)[1] != hit).any():
                raise SoundnessAlarm("fifo discipline improved a queued state")
            pushed = improved[np.argsort(hit)]
            in_queue[pushed] = True
        else:
            for key in _keys(W[improved], improved):
                heappush(heap, key)

    settle_values = np.concatenate(settle_values)
    if (settle_values[1:] < settle_values[:-1]).any():
        raise SoundnessAlarm("settle values decreased; queue discipline unsound")
    # W(p) = inf iff no input was ever recorded for p
    if not np.array_equal(choice == STOP, ~(W < problem.G)):
        raise SoundnessAlarm("controller domain does not match improved states")
    del pred_pair, counters, inv_costs, pair_max, last_pos  # the certificate's edges reuse the memory
    check_certificate(problem, W, choice, rank)
    return SolveResult(W, ControllerTable(choice), stats, settle_values, "fifo" if fifo else "heap", rank)


@np.errstate(over="ignore")  # cost sums saturate to inf
def check_certificate(problem: FiniteProblem, W, choice, rank):
    """Raise SoundnessAlarm, naming the first failing state, unless every
    state p with a chosen input u has W(p) equal, bit for bit, to the pair's
    M = max_y g(p,y,u) + W(y) (g(p,u) + max_y W(y) with per-pair costs), and
    every successor y of the pair settled before p: rank[y] < rank[p].

    With the controller domain check this certifies the output on the
    abstraction: from any p of finite W the controller stops within
    rank[p] steps, at a cost of at most W(p).  It reads the chosen pairs'
    edges only.
    """
    states = np.flatnonzero(choice != STOP)
    if not len(states):
        return
    pid = states * problem.m + choice[states]
    ptr = problem.trans_ptr
    cnt = ptr[pid + 1] - ptr[pid]
    starts = np.cumsum(cnt) - cnt
    edges = np.repeat(ptr[pid] - starts, cnt)
    edges += np.arange(len(edges))
    succ = problem.trans_succ[edges]
    vals = W[succ]
    if problem.edge_costs is not None:
        vals += problem.edge_costs[edges]
    M = np.maximum.reduceat(vals, starts)
    if problem.pair_costs is not None:
        M += problem.pair_costs[pid]
    wrong = _bits(M) != _bits(W[states])
    bad = np.flatnonzero(wrong | (np.maximum.reduceat(rank[succ], starts) >= rank[states]))
    if len(bad):
        i = bad[0]
        p, u = int(states[i]), int(choice[states[i]])
        if wrong[i]:
            why = f"W = {float(W[p])!r} but input {u} gives {float(M[i])!r}"
        else:
            why = f"a successor under input {u} settled after it"
        raise SoundnessAlarm(f"solution certificate fails at state {p}: {why}")


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

