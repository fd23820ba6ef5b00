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
and are left out up front.  Cost sums saturate to inf, the sound upper bound.

Successor sets are index blocks, so a pair's list is a few runs of
consecutive ids.  The solver reads these as rows of at most ROW_MAX ids,
indexed by (length L, first id): a settled q lies in exactly the rows of
length L whose first id is in [q - L + 1, q], so a wave's (successor, pair)
incidences are one range query per state and length (interval stabbing).
The index is built by a counting sort over chunks of pairs, and the solver
holds 4 B per live row beside the problem (12 B with per-edge costs, read
at the row's first edge plus q - first id), ROW_MAX (n + ROW_MAX) offsets
and O(n m) pair data.

One settle loop serves two queue disciplines.  Each step takes a wave, the
states to settle next in settle order, and settles it with numpy.  The tie
rule: a ready pair's key is (the wave position of the state whose settle
made it ready, pair id).  A state's new W is the least M below its old W
and its choice the ready pair of least key reaching that M, as a per-state
loop taking each strict improvement in turn, in pair order, would leave
them; FIFO pushes follow the same keys.  The key does not depend on the
order of a pair's successors, nor on how they are cut into rows, and W,
the controller, the settle order and the settled and pair_evals counts do
not depend on the waves.  An improved state is pushed once per wave, at its
final key: pushes counts the initial queue plus one per state and wave
improving it, pops the entries taken, stale ones included, and the two end
equal.

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

import struct
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from . import core
from .core import INF, STOP, ControllerTable, FiniteProblem, chunks, ranges
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
_FLOAT64, _INT64 = struct.Struct("d"), struct.Struct("q")


def _bits(values) -> np.ndarray:
    """int64 bit patterns of non-negative floats, which order like the
    values; -0.0 counts as 0.0."""
    return (np.asarray(values, dtype=np.float64) + 0.0).view(np.int64)


def _int_bits(value: float) -> int:
    """The int64 bit pattern of a non-negative float, as _bits."""
    return _INT64.unpack(_FLOAT64.pack(value + 0.0))[0]


def _float_bits(bits: int) -> float:
    """The float of an int64 bit pattern."""
    return _FLOAT64.unpack(_INT64.pack(bits))[0]


def _keys(values, states) -> list:
    """Packed heap keys (bits(W) << 32) | state, which order like (W, state)."""
    return [b << 32 | q for b, q in zip(_bits(values).tolist(), states.tolist())]


class RowIndex:
    """The live pairs' successor rows, indexed by (length, first id).

    A row is a run of at most ROW_MAX (``core.ROW_MAX``) consecutive
    successor ids in one pair's list; each maximal run is cut into rows of
    ROW_MAX and a rest.  Rows sort by (length L, first id f); with stride =
    n + ROW_MAX, offsets[(L - 1) * stride + ROW_MAX - 1 + f], for f from
    1 - ROW_MAX to n, counts the rows sorting below (L, f).  ``pair`` holds
    each row's int32 pair id and ``base``, with per-edge costs, its first
    edge minus its first id, so a successor q of the row is edge base + q.
    ``counters`` counts each pair's unsettled successors, -1 if inert.
    """

    def __init__(self, lengths, offsets, pair, base, counters):
        self.lengths = lengths  # the row lengths present, ascending
        self.offsets, self.pair, self.base, self.counters = offsets, pair, base, counters
        stride = len(offsets) // core.ROW_MAX
        self._lo = (lengths - 1) * stride + core.ROW_MAX - lengths  # column of f = q - L + 1, less q
        self._hi = self._lo + lengths  # column of f = q + 1, less q

    def incidences(self, states):
        """(owner, rows) of the rows holding each state, by core.ranges over
        (state, length): those of states[k] have owner // len(lengths) == k."""
        return ranges(self.offsets[(states[:, None] + self._lo).ravel()],
                      self.offsets[(states[:, None] + self._hi).ravel()])


def _build_inverse(problem: FiniteProblem) -> RowIndex:
    """The RowIndex of the non-inert pairs, from the rows the problem gives
    (``FiniteProblem.rows``) a chunk of pairs at a time.

    Pairs with any infinite transition cost are inert (their M is always
    inf) and left out.  A pair's counter counts its successors, each once,
    as no pair lists one twice (``FiniteProblem._check_successors``).

    A two-pass counting sort over chunks of whole pairs.  The first pass
    counts the rows of each (length, first id), the second takes the rows
    again, sorts each chunk's by (length, first id) and writes them at
    cursors kept in the offsets.  Beyond the index it holds O(n m) pair
    data and O(core.CHECK_EDGES) per chunk.
    """
    n, m = problem.n, problem.m
    ptr, edge_costs = problem.trans_ptr, problem.edge_costs
    alive = np.isfinite(problem.pair_costs) if edge_costs is None else np.empty(n * m, dtype=bool)
    row_max = core.ROW_MAX
    stride = n + row_max
    inert = row_max * stride - 1  # the column of inert pairs' rows, past every row's

    # count pass: offsets[c + 2] counts the rows in column c, and
    # counts[L - 1, f] is the slot of column (L, f) for f from 0 to n - 1
    cuts = chunks(ptr, core.CHECK_EDGES)
    if edge_costs is not None:
        for pa, pb in zip(cuts, cuts[1:]):
            a, b = ptr[pa], ptr[pb]
            alive[pa:pb] = np.logical_and.reduceat(np.isfinite(edge_costs[a:b]), ptr[pa:pb] - a)
    offsets = np.zeros(inert + row_max + 2, dtype=np.int64)  # room for counts' last row
    counts = offsets[row_max + 1 :].reshape(row_max, stride)
    problem.row_counts(counts, alive, cuts)
    lengths = 1 + np.flatnonzero(counts.any(axis=1))
    np.cumsum(offsets, out=offsets)

    # fill pass: a chunk's rows, sorted by (column, chunk-local row), form
    # one run per column.  cursor[c] = offsets[c + 1] starts at column c's
    # first slot and ends at column c + 1's, so offsets[c] ends at column c's
    cursor = offsets[1:]
    index_pair = np.empty(offsets[-1], dtype=np.int32)
    base = None if edge_costs is None else np.empty(offsets[-1], dtype=np.int64)
    for pa, pb in zip(cuts, cuts[1:]):
        pair, first, size, edge = problem.rows(slice(pa, pb))
        pair += pa
        col = np.multiply(size - 1, stride, dtype=np.int64)  # as in RowIndex
        col += first
        col += row_max - 1
        col[~alive[pair]] = inert
        shift = len(col).bit_length()
        key = col << shift
        key |= np.arange(len(key))
        key.sort()
        col = key >> shift
        live = np.searchsorted(col, inert)
        col, key = col[:live], key[:live] & ((1 << shift) - 1)  # the rows, by column
        if not live:
            continue
        starts = np.concatenate(([0], np.flatnonzero(col[1:] != col[:-1]) + 1))
        runs = np.diff(starts, append=live)
        run_col = col[starts]
        dest = np.repeat(cursor[run_col] - starts, runs)
        dest += np.arange(live)
        cursor[run_col] += runs
        index_pair[dest] = pair[key]
        if base is not None:
            base[dest] = (edge - first)[key]
    counters = np.diff(ptr)
    counters[~alive] = -1
    return RowIndex(lengths, offsets[: inert + 1], index_pair, base, counters)


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
    index = _build_inverse(problem)
    counters, n_lengths = index.counters, len(index.lengths)
    pair_costs, edge_costs = problem.pair_costs, problem.edge_costs
    # per-edge costs: running max of g + W(y) over the settled successors y
    pair_max = None if edge_costs is None else np.full(n * m, -INF)
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
            limit = _int_bits(_float_bits(run[0] >> 32) + c_min) << 32  # the least key with W at or above the bound
            while heap and heap[0] < limit:
                run.append(heappop(heap))
            stats.pops += len(run)
            wave = np.array([key & _STATE for key in run])
            pushed = np.array([key >> 32 for key in run]).view(np.float64)  # W when pushed
            wave = wave[~settled[wave] & (pushed == W[wave])]
            if not len(wave):
                continue
        vals = W[wave]
        settled[wave] = True
        rank[wave] = np.arange(stats.settled, stats.settled + len(wave))
        stats.settled += len(wave)
        settle_values.append(vals)

        # pairs whose last unsettled successor is in the wave: a state lies
        # in one row of each pair listing it
        owner, rows = index.incidences(wave)
        pids = index.pair[rows].astype(np.intp)  # intp indexes faster
        np.subtract.at(counters, pids, 1)
        pos = (counters[pids] == 0).nonzero()[0]
        if len(wave) > 1:
            # a pair with several successors in the wave is ready at the
            # last, and the incidences come in wave order
            ready = pids[pos]
            last_pos[ready] = -1
            np.maximum.at(last_pos, ready, pos)
            pos = pos[last_pos[ready] == pos]
            # the tie rule: by (wave position of the state making the pair
            # ready, pair id)
            tie = np.left_shift(owner[pos] // n_lengths, 32)
            tie |= pids[pos]
            tie.sort()
            ready, at = tie & 0xFFFFFFFF, tie >> 32
        else:
            ready, at = np.sort(pids[pos]), 0
        if pair_max is None:
            values = pair_costs[ready] + vals[at]
        else:
            at = owner // n_lengths  # per incidence, its state's wave position
            np.maximum.at(pair_max, pids, edge_costs[index.base[rows] + wave[at]] + vals[at])
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
    del index, counters, pair_max, last_pos  # the certificate's edges reuse the memory
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
    rows only (``FiniteProblem.rows``), in chunks of about core.CHECK_EDGES
    edges, pair after pair: only pairs of infinite M, which none chosen is,
    may have rows out of pair order (an overflow successor's).
    """
    states = np.flatnonzero(choice != STOP)
    if not len(states):
        return
    pid = states * problem.m + choice[states]
    ptr = problem.trans_ptr
    M, late = np.empty(len(pid)), np.empty(len(pid), dtype=bool)
    starts = np.append(0, np.cumsum(ptr[pid + 1] - ptr[pid]))  # each pair's first place among the chosen pairs' ids
    cuts = chunks(starts, core.CHECK_EDGES)
    for a, b in zip(cuts, cuts[1:]):
        _, first, length, edge = problem.rows(pid[a:b])  # a pair's rows tile its list
        row, succ = ranges(first, first + length)
        vals = W[succ]
        if problem.edge_costs is not None:
            vals += problem.edge_costs[succ + (edge - first)[row]]
        at = starts[a:b] - starts[a]
        M[a:b] = np.maximum.reduceat(vals, at)
        late[a:b] = np.maximum.reduceat(rank[succ], at) >= rank[states[a:b]]
    if problem.pair_costs is not None:
        M += problem.pair_costs[pid]
    wrong = _bits(M) != _bits(W[states])
    bad = np.flatnonzero(wrong | late)
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

