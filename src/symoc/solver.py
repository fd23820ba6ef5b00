"""Dijkstra-like solver for finite leavable minimax problems.

The solver settles states in order of non-decreasing value.  Once every
successor of a pair (p, u) is settled the pair is ready: its worst-case
one-step value M = max_y g(p,y,u) + W(y) is known and W(p) improves when M
beats it.  Each pair is evaluated once, in O(1): settle values never
decrease, so the state q whose settle made the pair ready has the largest W
among its successors and M = g(p,u) + W(q) with per-pair costs.  With
per-edge costs M is reduced from the ready pair's own edges, as
check_certificate reduces them.  Pairs with an infinite-cost transition can
never improve anything and are left out up front.  Cost sums saturate to
inf, the sound upper bound.

Successor sets are index blocks, so a pair's list is a few runs of
consecutive ids.  The solver reads these as rows of at most ROW_MAX ids in
row blocks of k rows of one length L, first ids f + i step for i < k, and
indexes the blocks by (L, f).  A pair's counter counts its rows not yet
completed.  The last id q that a wave settles in a row lies in it, and the
row's other ids settled no later than q, so the rows completed from q
start in one range per (L, i): each is found once, from the state that the
tie rule names.  The index is built by a counting sort over chunks of
pairs; the solver holds 5 B per live block beside the problem, ROW_MAX n
offsets and 4 B per pair.

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
    """The live pairs' row blocks (``FiniteProblem.row_blocks``) by (length
    L, first id f): offsets[(L - 1) n + f], f from 0 to n, counts the blocks
    below (L, f); ``pair`` holds their int32 pair ids and ``k`` their uint8
    row counts.  ``counters`` counts each pair's rows not yet completed, -1
    if inert; at 0 the pair is ready, and ``solve`` keeps its tie position
    there.  ``completed`` packs the marks of q - 7 to q + 8, for each wave
    state q, into two bytes, which index two 256-row tables: per (L, i), i
    below the largest k of length L, the columns bounding the blocks whose
    row i q may complete."""

    def __init__(self, offsets, pair, k, counters, step):
        self.offsets, self.pair, self.k, self.counters = offsets, pair, k, counters
        row_max, n = core.ROW_MAX, (len(offsets) - 1) // core.ROW_MAX
        bounds = offsets[::n]  # each length's first block, and the end
        most = np.array([k[a:b].max(initial=0) for a, b in zip(bounds[:-1], bounds[1:])], dtype=np.int64)
        L, i = np.repeat(np.arange(1, row_max + 1), most), ranges(0, most)[1]
        self._shift, self._base = i, (L - 1) * n  # the lowest column of length L
        # how far the set marks run from q: down from bit 1 of byte 0 (q at bit 0), up from bit 7 of byte 1
        ones = [(v ^ (v + 1)).bit_length() - 1 for v in range(256)]  # trailing set bits
        left = np.minimum([ones[v >> 1] for v in range(256)], row_max - 1)[:, None]
        right = np.minimum([ones[int(f"{v:08b}"[::-1], 2)] for v in range(256)], row_max - 1)[:, None]
        first = self._base - i * step  # the column of f = q, less q, for row i
        self._columns = np.stack((first - np.minimum(left, L - 1), first - np.maximum(L - 1 - right, 0) + 1))
        self._side, self._single = np.arange(2)[:, None], not i.any()  # single: every k is 1

    def completed(self, wave, window):
        """(at, pair ids) of the rows that settling ``wave`` completes, once
        each, with the position in the wave of the row's last settled id q
        (0 for a one-state wave).  window[q] views the settle ranks of ids
        q - 7 to q + 8, n where unsettled or out of range."""
        if len(wave) == 1:  # by basic indexing, which costs a one-state wave less
            q = wave[0]
            marks = window[q]
            low, high = np.packbits(marks <= marks[7]).tolist()  # the ids settled no later than q
            lo, hi = self._columns[0, low] + q, self._columns[1, high] + q
        else:
            marks = window[wave]
            bits = np.packbits(marks <= marks[:, 7:8], axis=1)
            lo, hi = cols = self._columns[self._side, bits.T]  # per wave state and (L, i), its range's columns
            cols += wave[:, None]
        np.maximum(lo, self._base, out=lo)  # no block starts below id 0
        np.maximum(hi, lo, out=hi)
        start = self.offsets[lo].ravel()
        sizes = self.offsets[hi].ravel() - start
        blocks = (start - sizes.cumsum() + sizes).repeat(sizes)  # as core.ranges
        blocks += np.arange(len(blocks))
        at = np.arange(len(wave)).repeat(sizes.reshape(len(wave), -1).sum(axis=1)) if len(wave) > 1 else 0
        if self._single:
            return at, self.pair[blocks]
        keep = self.k[blocks] > (np.tile(self._shift, len(wave)) if len(wave) > 1 else self._shift).repeat(sizes)
        return (at[keep] if len(wave) > 1 else 0), self.pair[blocks[keep]]


def _mapped(size, dtype) -> np.ndarray:
    """A zeroed array on an anonymous map of its own, not on the heap: freed,
    its pages go back to the system at once, whatever malloc's thresholds.
    They are mapped in at once where the system can (MAP_POPULATE)."""
    import mmap  # here, not at import: set-up time

    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * np.dtype(dtype).itemsize, flags), dtype, size)


def _build_inverse(problem: FiniteProblem) -> RowIndex:
    """The RowIndex of the non-inert pairs, from the row blocks the problem
    gives (``FiniteProblem.row_blocks``) a chunk of pairs at a time.

    Pairs with any infinite transition cost are inert (their M is always
    inf) and left out.  A pair's counter counts its rows, which are disjoint:
    no pair lists a successor twice (``FiniteProblem._check_successors``).

    A two-pass counting sort over chunks of whole pairs.  The first pass
    counts the blocks of each (length, first id), the second takes them
    again, sorts each chunk's by (length, first id) and writes them at
    cursors kept in the offsets.  Beyond the index it holds O(n m) pair
    data and O(core.CHECK_EDGES) per chunk.
    """
    n, m = problem.n, problem.m
    ptr, edge_costs = problem.trans_ptr, problem.edge_costs
    alive = np.isfinite(problem.pair_costs) if edge_costs is None else np.empty(n * m, dtype=bool)
    inert = core.ROW_MAX * n  # the column of inert pairs' blocks, past every live one's

    # count pass: offsets[c + 2] counts the blocks in column c = (L - 1) n + f
    cuts = chunks(ptr, core.CHECK_EDGES)
    if edge_costs is not None:
        for pa, pb in zip(cuts, cuts[1:]):
            a, b = ptr[pa], ptr[pb]
            alive[pa:pb] = np.logical_and.reduceat(np.isfinite(edge_costs[a:b]), ptr[pa:pb] - a)
    offsets = _mapped(inert + 2, np.int64)
    for pa, pb in zip(cuts, cuts[1:]):
        pair, first, length, _ = problem.row_blocks(slice(pa, pb))
        pair += pa
        col = np.multiply(length - 1, n, dtype=np.int64)  # as in RowIndex
        col += first
        np.add.at(offsets, col[alive[pair]] + 2, 1)
    np.cumsum(offsets, out=offsets)

    # fill pass: a chunk's blocks, sorted by (column, chunk-local block),
    # form one run per column.  cursor[c] = offsets[c + 1] starts at column
    # c's first slot and ends at column c + 1's, so offsets[c] ends at column c's
    cursor = offsets[1:]
    index_pair, index_k = _mapped(offsets[-1], np.int32), _mapped(offsets[-1], np.uint8)
    counters = _mapped(n * m, np.int32)
    for pa, pb in zip(cuts, cuts[1:]):
        pair, first, length, k = problem.row_blocks(slice(pa, pb))
        pair += pa
        counters[pa:pb] = np.bincount(pair - pa, k, pb - pa)
        col = np.multiply(length - 1, n, dtype=np.int64)  # as in RowIndex
        col += first
        col[~alive[pair]] = inert
        shift = len(col).bit_length()
        key = col << shift
        key |= np.arange(len(key))
        key.sort()
        col = key >> shift
        live = np.searchsorted(col, inert)
        col, key = col[:live], key[:live] & ((1 << shift) - 1)  # the blocks, by column
        if not live:
            continue
        starts = np.concatenate(([0], np.flatnonzero(col[1:] != col[:-1]) + 1))
        runs = np.diff(starts, append=live)
        run_col = col[starts]
        dest = np.repeat(cursor[run_col] - starts, runs)
        dest += np.arange(live)
        cursor[run_col] += runs
        index_pair[dest] = pair[key]
        index_k[dest] = k[key]
    counters[~alive] = -1
    return RowIndex(offsets[: inert + 1], index_pair, index_k, counters, problem.row_step)


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
    ranked = np.full(n + 15, n, dtype=np.int64)  # the ranks of ids -7 to n + 7, n outside
    rank = ranked[7 : n + 7]  # n until settled: the one record of settling
    window = np.lib.stride_tricks.sliding_window_view(ranked, 16)  # window[q]: ids q - 7 to q + 8
    index = _build_inverse(problem)
    counters = index.counters
    ptr, pair_costs, edge_costs = problem.trans_ptr, problem.pair_costs, problem.edge_costs
    stats = SolveStats()
    settle_values = np.empty(n)

    initial = np.flatnonzero(W < INF)
    initial = initial[np.argsort(W[initial], kind="stable")]  # by (W, index)
    stats.pushes += len(initial)
    if fifo:
        pushed = initial
    else:
        c_min = float(problem.costs.min(initial=INF))
        heap = _keys(W[initial], initial)  # sorted, so a heap
    wave = initial[:0]

    while True:
        # take a wave, in settle order
        if fifo:
            if not len(pushed):
                break
            wave, pushed = pushed, initial[:0]
            stats.pops += len(wave)
            if (rank[wave] < n).any():
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
            wave = wave[(rank[wave] == n) & (pushed == W[wave])]
            if not len(wave):
                continue
        vals = W[wave]
        rank[wave] = np.arange(stats.settled, stats.settled + len(wave))
        settle_values[stats.settled : stats.settled + len(wave)] = vals
        stats.settled += len(wave)

        # pairs whose last row the wave completes: a state completes at
        # most one row of each pair, the one holding it
        at, pids = index.completed(wave, window)
        pids = pids.astype(np.intp)  # intp indexes faster
        np.subtract.at(counters, pids, np.int32(1))  # in counters' dtype: ufunc.at's fast path
        pos = (counters[pids] == 0).nonzero()[0]
        if len(wave) > 1:
            # a ready pair's counter, 0 now and touched by no later wave,
            # keeps the place of its last row (they come in wave order)
            ready = pids[pos]
            np.maximum.at(counters, ready, pos.astype(np.int32))
            pos = pos[counters[ready] == pos]
            # the tie rule: by (wave position of the state making the pair
            # ready, pair id)
            tie = np.left_shift(at[pos], 32)
            tie |= pids[pos]
            tie.sort()
            ready, at = tie & 0xFFFFFFFF, tie >> 32
        else:
            ready, at = np.sort(pids[pos]), 0
        if edge_costs is None:
            values = pair_costs[ready] + vals[at]
        else:  # M from the ready pairs' edges, as check_certificate reduces them
            lo, hi = ptr[ready], ptr[ready + 1]
            edges = ranges(lo, hi)[1]
            values = edge_costs[edges] + W[problem.trans_succ[edges]]
            values = np.maximum.reduceat(values, (hi - lo).cumsum() - (hi - lo))
        stats.pair_evals += len(ready)

        # improve states, pushing each improved state once (module docstring);
        # a state's choice is its first candidate in key order: its first pair
        # reaching its M, or with fifo its first improvement, which must be its last
        p = ready // m
        better = values < W[p]
        ready, values, p = ready[better], values[better], p[better]
        if not len(p):
            continue
        np.minimum.at(W, p, values)
        cand = np.arange(len(p)) if fifo else np.flatnonzero(values == W[p])
        cand = cand[np.argsort(p[cand], kind="stable")]  # by state, then key
        hit = cand[np.concatenate(([True], p[cand[1:]] != p[cand[:-1]]))]  # each state's first: its choice
        improved = p[hit]
        if fifo and ((rank[improved] < n).any() or (values[hit] != W[improved]).any()):
            # settled already, the wave's own included, or improved twice: either breaks value order
            raise SoundnessAlarm("fifo discipline improved a queued state")
        W[improved] = values[hit]  # the chosen M's bits, also for M = -0.0
        choice[improved] = ready[hit] - improved * m
        stats.pushes += len(improved)
        if fifo:
            pushed = improved[np.argsort(hit)]
        else:
            for key in _keys(W[improved], improved):
                heappush(heap, key)

    settle_values = settle_values[: stats.settled]
    if (settle_values[1:] < settle_values[:-1]).any():
        raise SoundnessAlarm("settle values decreased; queue discipline unsound")
    # W(p) = inf iff no input was ever recorded for p
    if not np.array_equal(choice == STOP, ~(W < problem.G)):
        raise SoundnessAlarm("controller domain does not match improved states")
    del index, counters  # the certificate's edges reuse the memory
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

