"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive (dicts, plain loops, no shared code with
the library's solver paths) so that agreement between the two is meaningful.
"""

import contextlib
import heapq
import io
import itertools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from symoc.core import STOP, ControllerTable, FiniteProblem
from symoc.errors import InputError, SoundnessAlarm
import symoc.reach
from symoc.reach import SUBSTEPS, SampledSystem
from symoc.relations import MAX_VIOLATIONS, Verdict, pointwise_upper_bound
from symoc.simulate import Trajectory
from symoc.solver import SolveResult, SolveStats, dp_operator, is_discrete_cost

INF = math.inf


def pair_id(problem, p, u) -> int:
    return p * problem.m + u


def successors(problem, p, u):
    """(successor indices, costs) arrays for the pair (p, u)."""
    a, b = problem.trans_ptr[pair_id(problem, p, u)], problem.trans_ptr[pair_id(problem, p, u) + 1]
    succ = problem.trans_succ[a:b]
    if problem.edge_costs is not None:
        return succ, problem.edge_costs[a:b]
    return succ, np.full(b - a, problem.pair_costs[pair_id(problem, p, u)])


def cost_of(problem, p, q, u) -> float:
    """Totalized running cost: inf when q is not a successor of (p, u)."""
    a, b = problem.trans_ptr[pair_id(problem, p, u)], problem.trans_ptr[pair_id(problem, p, u) + 1]
    idx = np.nonzero(problem.trans_succ[a:b] == q)[0]
    if len(idx) == 0:
        return INF
    if problem.edge_costs is not None:
        return float(problem.edge_costs[a + idx[0]])
    return float(problem.pair_costs[pair_id(problem, p, u)])


@dataclass(frozen=True)
class Run:
    """A finite closed-loop prefix: states x, inputs u, stopping bits v.

    ``len(x) == len(u) + 1``; ``v`` may either align with ``u`` or carry one
    extra entry for a stop decision at the final state.  A run whose ``v``
    contains no 1 stands for a never-stopping evolution and evaluates to inf.
    """

    x: tuple
    u: tuple
    v: tuple

    def __post_init__(self):
        if len(self.x) != len(self.u) + 1:
            raise InputError("run length mismatch: need len(x) == len(u) + 1")
        if len(self.v) not in (len(self.u), len(self.u) + 1):
            raise InputError("run length mismatch: v must align with u or x")
        if any(b not in (0, 1) for b in self.v):
            raise InputError("stopping signal must be 0/1-valued")

    @property
    def stop_time(self):
        """First index with v = 1, or None for a never-stopping run."""
        for t, b in enumerate(self.v):
            if b == 1:
                return t
        return None


def eval_cost_functional(run: Run, costs) -> float:
    """Total cost of a run: terminal cost at the stop instant plus the
    accumulated running costs, in time order; inf if the run never stops.

    ``costs`` is either a FiniteProblem (states/inputs are indices) or any
    object with callables ``G(p)`` and ``g(p, q, u)``.
    """
    if isinstance(costs, FiniteProblem):
        G = lambda p: float(costs.G[p])
        g = lambda p, q, u: cost_of(costs, p, q, u)
    else:
        G, g = costs.G, costs.g
    T = run.stop_time
    if T is None:
        return INF
    total = 0.0
    for t in range(T):
        total += g(run.x[t], run.x[t + 1], run.u[t])
    return total + G(run.x[T])


def make_shortest_path(n_vertices: int, arcs, source: int) -> FiniteProblem:
    """Single-source shortest paths as a finite control problem.

    ``arcs`` is an iterable of (tail, head, length); duplicate arcs keep the
    minimum length.  The control problem walks arcs backwards from each vertex
    towards the source, so its value function equals the distance array.
    The input alphabet is the vertex set; input u from state p moves to u when
    the graph has an arc (u, p), and otherwise loops in place at infinite cost
    so that staying put never creates spurious finite values.
    """
    n = int(n_vertices)
    if not 0 <= source < n:
        raise InputError("source vertex out of range")
    weight = {}
    for tail, head, w in arcs:
        if not (0 <= tail < n and 0 <= head < n):
            raise InputError("arc endpoint out of range")
        if w < 0:
            raise InputError("arc lengths must be non-negative")
        key = (tail, head)
        if key not in weight or w < weight[key]:
            weight[key] = float(w)

    G = np.full(n, INF)
    G[source] = 0.0
    ptr = np.arange(n * n + 1, dtype=np.int64)  # single-valued F
    succ = np.repeat(np.arange(n, dtype=np.int64), n)  # default: stay put, never improving
    costs = np.full(n * n, INF)
    for (tail, head), w in weight.items():
        pid = head * n + tail  # from state `head`, input `tail` walks the arc backwards
        succ[pid] = tail
        costs[pid] = w
    return FiniteProblem(n, n, G, ptr, succ, edge_costs=costs)


def value_iteration(problem, T: int) -> np.ndarray:
    """P^T(G): T applications of the Bellman update to the terminal cost."""
    if T < 0:
        raise InputError("iteration budget must be non-negative")
    W = problem.G.copy()
    for _ in range(T):
        W = dp_operator(problem, W)
    return W


def naive_dp_step(trans, G, W):
    """One Bellman update on list-of-lists transitions: trans[p][u] = [(q, g)]."""
    n = len(trans)
    out = []
    for p in range(n):
        best = G[p]
        for u in range(len(trans[p])):
            worst = -INF
            for q, g in trans[p][u]:
                worst = max(worst, g + W[q])
            best = min(best, worst)
        out.append(best)
    return out


def naive_value_iteration(trans, G, iters):
    W = list(G)
    for _ in range(iters):
        W = naive_dp_step(trans, G, W)
    return W


def naive_fixpoint(trans, G, cap=None):
    """Iterate the Bellman update until it stabilizes exactly."""
    n = len(trans)
    cap = 4 * n + 8 if cap is None else cap
    W = list(G)
    for it in range(cap):
        nxt = naive_dp_step(trans, G, W)
        if nxt == W:
            return W, it
        W = nxt
    raise AssertionError("value iteration did not stabilize within the cap")


def random_problem_lists(rng, n_max=50, m_max=4, cost_mode="real"):
    """Random finite problem as (trans lists, G list).

    cost_mode: "real" mixes arbitrary finite costs with inf; "min_time" uses
    g in {1, inf}, G in {0, inf}; "qualitative" uses {0, inf} for both;
    "floor" draws finite g from [0.5, 1.5] and finite G from [0, 2], to
    three decimals, so the least running cost is positive and close values
    settle together in one heap wave.
    """
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    trans = []
    for p in range(n):
        per_input = []
        for _ in range(m):
            k = int(rng.integers(1, 4))
            succs = rng.choice(n, size=min(k, n), replace=False)
            entries = []
            for q in succs:
                if cost_mode == "real":
                    g = INF if rng.random() < 0.15 else float(np.round(rng.uniform(0, 10), 3))
                elif cost_mode == "min_time":
                    g = INF if rng.random() < 0.15 else 1.0
                elif cost_mode == "floor":
                    g = INF if rng.random() < 0.15 else float(np.round(rng.uniform(0.5, 1.5), 3))
                else:
                    g = INF if rng.random() < 0.15 else 0.0
                entries.append((int(q), g))
            per_input.append(entries)
        trans.append(per_input)
    G = []
    for _ in range(n):
        if cost_mode == "real":
            G.append(INF if rng.random() < 0.5 else float(np.round(rng.uniform(0, 10), 3)))
        elif cost_mode == "floor":
            G.append(INF if rng.random() < 0.5 else float(np.round(rng.uniform(0, 2), 3)))
        else:
            G.append(INF if rng.random() < 0.6 else 0.0)
    if all(v == INF for v in G):
        G[int(rng.integers(0, n))] = 0.0
    return trans, G


def random_graph(rng, n_max=500, w_max=100):
    """Random digraph (n, arcs, source) with non-negative integer weights."""
    n = int(rng.integers(2, n_max + 1))
    n_arcs = int(rng.integers(1, 4 * n))
    tails = rng.integers(0, n, size=n_arcs)
    heads = rng.integers(0, n, size=n_arcs)
    ws = rng.integers(0, w_max + 1, size=n_arcs)
    arcs = list(zip(tails.tolist(), heads.tolist(), [float(w) for w in ws]))
    return n, arcs, int(rng.integers(0, n))


def orbit_entry_time(x, target_contains, fmap, t_max=200):
    """min{T : F^T(x) in D} by direct orbit iteration, or inf."""
    p = x
    for t in range(t_max + 1):
        if target_contains(p):
            return t
        p = fmap(p)
    return INF


def certified_vfrr_pair(rng, n2_max=10, m_max=3, split_max=3):
    """Random pair (problem1, problem2, pairs) certified to satisfy the
    feedback-refinement conditions with the totalized running costs.

    Problem 2 is random; problem 1 refines it by splitting every abstract
    state into concrete copies, taking the full preimage dynamics and
    shrinking costs by random non-negative amounts.
    """
    trans2, G2 = random_problem_lists(rng, n_max=n2_max, m_max=m_max)
    n2, m = len(trans2), len(trans2[0])
    h = []
    for p2 in range(n2):
        h.extend([p2] * int(rng.integers(1, split_max + 1)))
    n1 = len(h)
    classes = {p2: [i for i, v in enumerate(h) if v == p2] for p2 in range(n2)}
    trans1 = []
    G1 = []
    for p1 in range(n1):
        per_input = []
        for u in range(m):
            entries = []
            for q2, g in trans2[h[p1]][u]:
                for q1 in classes[q2]:
                    gv = g if g == INF else max(g - float(rng.uniform(0, 0.5)), 0.0)
                    entries.append((q1, gv))
            per_input.append(entries)
        trans1.append(per_input)
        Gv = G2[h[p1]]
        G1.append(Gv if Gv == INF else max(Gv - float(rng.uniform(0, 0.5)), 0.0))
    pairs = [(p1, h[p1]) for p1 in range(n1)]
    return (trans1, G1), (trans2, G2), pairs


def plain_rk4(f, x0, t, steps):
    """Classical fixed-step Runge-Kutta for x' = f(x), a fresh array per
    stage: the integrator ``symoc.reach.rk4`` runs in place."""
    x = np.asarray(x0, dtype=float)
    h = t / steps
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def returning(field, u, d=0.0):
    """The in-place plant field ``field(x, u, out)`` plus the disturbance d,
    as a function of the coordinate-first states alone that returns a new
    array."""

    def f(x):
        out = np.empty_like(x)
        field(x, u, out)
        return out + d

    return f


def attain_over(sys, cell, u, k, theta, gamma, eta_norm, max_splits):
    """Per-cell interval subdivision, one (center, radius, drift) at a time.

    Reference for ``symoc.reach.attain_over_batch``: the same substep, split
    and split-cap rules, run on a Python list of intervals with
    ``plain_rk4`` instead of batches of centers and the library's in-place
    integrator; only the plant field is shared with the library.
    Splits come only between substeps, a whole level at a time: while some
    interval is wider than theta * eta_norm, every interval is bisected along
    its widest axis, unless that makes more than ``max_splits`` intervals, in
    which case the cell escapes and no more splits are made.
    Returns (centers, radii, escaped, slack).
    """
    c0, r0 = (np.asarray(v, dtype=float) for v in cell)
    work = [(c0, r0, np.zeros(sys.dim))]
    t_sub = sys.tau / k
    nominal = returning(sys.f, u)
    radius = lambda w: lambda r: r @ sys.A1.T + w
    escaped = capped = False
    for step in range(k):
        while step and not capped and any(float(r.max()) > theta * eta_norm for _, r, _ in work):
            if 2 * len(work) > max_splits:
                escaped = capped = True
                break
            halves = []
            for c, r, b in work:
                j = int(np.argmax(r))
                shift = np.zeros_like(r)
                shift[j] = r[j] / 2.0
                half = r.copy()
                half[j] = r[j] / 2.0
                halves += [(c - shift, half, b + shift), (c + shift, half, b + shift)]
            work = halves
        moved = []
        for c, r, b in work:
            c2 = plain_rk4(nominal, c[:, None], t_sub, SUBSTEPS)[:, 0]
            r2 = np.maximum(plain_rk4(radius(sys.w), r, t_sub, SUBSTEPS), 0.0) + gamma
            b2 = np.maximum(plain_rk4(radius(np.zeros(sys.dim)), b, t_sub, SUBSTEPS), 0.0)
            if np.any(c2 - r2 < sys.hull_lower) or np.any(c2 + r2 > sys.hull_upper):
                escaped = True
            moved.append((c2, r2, b2))
        work = moved
    slack = max(float((r + b).max()) for _, r, b in work)
    return np.array([c for c, _, _ in work]), np.array([r for _, r, _ in work]), escaped, slack


def boxes_contain(lo, hi, x):
    """Whether the point x lies in the union of the closed boxes [lo[i], hi[i]]."""
    x = np.asarray(x, dtype=float)
    return bool(np.any(np.all((lo <= x) & (x <= hi), axis=1)))


def point_G(model, p):
    """Terminal cost of a ``CostModel`` at the point p, read on the cell [p, p]."""
    return 0.0 if model.cells_G_finite(p, p)[0] else INF


def point_g(model, p, q, u):
    """Running cost of a ``CostModel`` at (p, q, u), read on the cell [p, p];
    it does not depend on the successor q."""
    return float(model.finite_g_rows(np.atleast_2d(u))[0]) if model.cells_g_finite(p, p)[0] else INF


def relation_pairs(rel):
    """The (a, b) pairs of a ``Relation`` as a list of int tuples, ascending."""
    return list(zip(rel.a.tolist(), rel.b.tolist()))


def pair_value(costs, cell, u_idx):
    """Running cost of an ``AbstractCosts`` pair (cell, input): the input's
    value where the cell's running cost is finite, inf elsewhere."""
    if cell >= len(costs.g_finite) or not costs.g_finite[cell]:
        return INF
    return float(costs.input_values[u_idx])


def block_cells(cover, x):
    """Sorted flat ids of the cells of the index block of the point box
    [x, x], the cells x counts for; empty outside the domain."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all((cover.lower <= x) & (x <= cover.upper)):
        return []
    lo_idx, hi_idx, _, _ = cover.box_index_ranges(x.T, x.T)
    ranges = [range(a, b + 1) for a, b in zip(lo_idx[:, 0], hi_idx[:, 0])]
    return sorted(int(np.ravel_multi_index(idx, cover.counts)) for idx in itertools.product(*ranges))


def cells_overlapping_box(cover, lo, hi):
    """Sorted flat indices of the cells whose closed extent meets the closed
    box [lo, hi], by testing every cell; plus whether the box sticks out of
    the domain (its successors then include the overflow cell)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    centers = cover.centers_all()
    c_lo = np.maximum(centers - cover.eta / 2, cover.lower)
    c_hi = np.minimum(centers + cover.eta / 2, cover.upper)
    meets = np.all(c_hi >= lo, axis=1) & np.all(c_lo <= hi, axis=1)
    escape = bool(np.any(lo < cover.lower) or np.any(hi > cover.upper))
    return np.nonzero(meets)[0].tolist(), escape


def reach_successors(reach, cell, u_idx):
    """Per-cell successor set of a ``SampledReach`` pair: (sorted cells,
    escaped, slack) from the per-cell ``attain_over`` and a brute-force cell
    search per interval."""
    cover = reach.cover
    centers, radii, escaped, slack = attain_over(
        reach.sys, (cover.centers_all()[cell], reach.r0), reach.inputs.representatives[u_idx],
        reach.k, reach.theta, reach.gamma, cover.max_diameter, symoc.reach.MAX_SPLITS,
    )
    found = set()
    for c, r in zip(centers, radii):
        cells, esc = cells_overlapping_box(cover, c - r, c + r)
        found.update(cells)
        escaped = escaped or esc
    return sorted(found), escaped, slack


def expand_ranges_flat(cover, lo_idx, hi_idx, active):
    """Flat successor ids for the coordinate-first (dim, cells) index blocks
    of the active cells, cell by cell, and the per-cell counts (the
    per-edge expansion the abstraction build once ran)."""
    spans = hi_idx - lo_idx + 1
    cnt = np.where(active, spans.prod(axis=0), 0)
    rows = np.where(active, spans[:-1].prod(axis=0), 0)
    row_owner = np.repeat(np.arange(cover.n_cells), rows)
    rem = np.arange(len(row_owner), dtype=np.int64) - np.repeat(np.cumsum(rows) - rows, rows)
    first = lo_idx[-1, row_owner]
    for axis in range(cover.dim - 2, -1, -1):
        rem, local = np.divmod(rem, spans[axis, row_owner])
        first += (lo_idx[axis, row_owner] + local) * int(cover._strides[axis])
    length = spans[-1, row_owner]
    flat = np.repeat(first - (np.cumsum(length) - length), length)
    flat += np.arange(len(flat))
    return flat, cnt


def union_branches_flat(cover, branches, active):
    """(flat, cnt): ``expand_ranges_flat`` of the union of the branches'
    index blocks, per active cell its distinct successors in increasing
    order, merged by a stable sort of the int64 keys owner * n_states + id."""
    if len(branches) == 1:
        lo_idx, hi_idx, empty = branches[0]
        return expand_ranges_flat(cover, lo_idx, hi_idx, active & ~empty)
    n_states = np.int64(cover.n_states)

    def keys(lo_idx, hi_idx, empty):
        flat, cnt = expand_ranges_flat(cover, lo_idx, hi_idx, active & ~empty)
        key = np.repeat(np.arange(cover.n_cells) * n_states, cnt)
        key += flat
        return key

    key = np.concatenate([keys(*branch) for branch in branches])
    key.sort(kind="stable")
    keep = np.empty(len(key), dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    owner = key // n_states
    key -= owner * n_states
    return key, np.bincount(owner, minlength=cover.n_cells)


def blocks_flat(cover, corner, span, cells):
    """(flat, cnt) of one input's successors as ``_collect_batched`` keeps
    them, blocks or rows, expanded one by one with a plain loop."""
    flat, cnt = [], np.zeros(cover.n_cells, dtype=np.int64)
    if cells is not None:  # rows: first ids, lengths and owner cells
        for first, length, owner in zip(corner.tolist(), span.tolist(), cells.tolist()):
            flat.extend(range(first, first + length))
            cnt[owner] += length
        return np.array(flat, dtype=np.int64), cnt
    for cell in range(cover.n_cells):
        for local in itertools.product(*(range(int(n)) for n in span[:, cell])):
            flat.append(int(corner[cell]) + int(np.dot(local, cover._strides)))
            cnt[cell] += 1
    return np.array(flat, dtype=np.int64), cnt


def reference_csr(transitions, cover, m, gated):
    """(trans_ptr, trans_succ) of an abstraction built the flat way: each
    input's successors expanded to ids and deduplicated, then scattered to
    their CSR slots through a per-edge destination array."""
    n_states, grid_pairs = cover.n_states, cover.n_cells * m
    per_input = []
    for u_idx in range(m):
        branches, escaped, _, _ = transitions.batch_ranges(u_idx)
        flat, cnt = union_branches_flat(cover, branches, ~gated)
        per_input.append((flat.astype(np.int32), cnt, escaped | gated))
    sizes = np.ones(n_states * m, dtype=np.int64)
    for u_idx, (_, cnt, escape) in enumerate(per_input):
        sizes[u_idx:grid_pairs:m] = cnt + escape
    trans_ptr = np.zeros(n_states * m + 1, dtype=np.int64)
    np.cumsum(sizes, out=trans_ptr[1:])
    trans_succ = np.empty(int(trans_ptr[-1]), dtype=np.int32)
    for u_idx, (succ, cnt, escape) in enumerate(per_input):
        starts = trans_ptr[u_idx:grid_pairs:m]
        dest = np.repeat(starts - (np.cumsum(cnt) - cnt), cnt)
        dest += np.arange(len(succ))
        trans_succ[dest] = succ
        esc_cells = np.nonzero(escape)[0]
        trans_succ[starts[esc_cells] + cnt[esc_cells]] = cover.overflow
    trans_succ[trans_ptr[grid_pairs:-1]] = cover.overflow
    return trans_ptr, trans_succ


def union_branches_by_unique(cover, branches, active):
    """(first, length, cells) of the union of the branches' cell index
    blocks per active cell: rows, each a run of consecutive ids among the
    cell's successors, deduplicated by np.unique over the int64 keys
    owner * n_states + id (the dedupe the abstraction build once ran) and
    split into runs by a plain loop."""
    n_states = cover.n_states
    parts, owners = [], []
    for lo_idx, hi_idx, empty in branches:
        flat, cnt = expand_ranges_flat(cover, lo_idx, hi_idx, active & ~empty)
        parts.append(flat)
        owners.append(np.repeat(np.arange(cover.n_cells), cnt))
    key = np.concatenate(owners) * np.int64(n_states) + np.concatenate(parts)
    corner, length, cells = [], [], []
    for owner, succ in (divmod(k, n_states) for k in np.unique(key).tolist()):
        if cells and cells[-1] == owner and corner[-1] + length[-1] == succ:
            length[-1] += 1
        else:
            corner.append(succ), length.append(1), cells.append(owner)
    return tuple(np.array(column, dtype=np.int32) for column in (corner, length, cells))


def reference_inverse(problem):
    """Inverse adjacency over non-inert pairs.

    Returns (pred_ptr, pred_pair, counters, inv_costs);
    pred_pair[pred_ptr[q]:pred_ptr[q+1]] lists the pair ids having q among
    their successors, in increasing order, and inv_costs the matching edge
    costs (None with per-pair costs).  Pairs with any infinite transition
    cost are inert (their M is always inf) and omitted.
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
    inv_costs = None if problem.edge_costs is None else problem.edge_costs[alive_edge][order]
    return pred_ptr, pred_pair, counters, inv_costs


def reference_solve(problem, queue="heap"):
    """Algorithm 1 with a per-state settle and a per-pair evaluation that
    recomputes M = max_y g + W(y) from all successors of the pair; the
    reference for ``symoc.solver.solve``.

    The tie rule: a ready pair's key is (the place in settle order of the
    state whose settle made it ready, pair id), and a state takes the pair
    of least key among those reaching its least M.  Settling one state at a
    time and walking its predecessor list in pair order takes each strict
    improvement in key order, which is this rule.

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
    pred_ptr, pred_pair, counters, _ = reference_inverse(problem)
    ptr = problem.trans_ptr
    succ = problem.trans_succ
    edge_costs = problem.edge_costs
    pair_costs = problem.pair_costs
    stats = SolveStats()
    settle_values = []
    rank = np.full(n, n, dtype=np.int64)

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
        rank[q] = stats.settled
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
    return SolveResult(W, ControllerTable(choice), stats, np.asarray(settle_values), queue, rank)


def dijkstra_distances(n_vertices: int, arcs, source: int):
    """Textbook single-source shortest-path distances."""
    adj = [[] for _ in range(n_vertices)]
    best = {}
    for tail, head, w in arcs:
        key = (tail, head)
        if key not in best or w < best[key]:
            best[key] = float(w)
    for (tail, head), w in best.items():
        adj[tail].append((head, w))
    dist = np.full(n_vertices, INF)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = [False] * n_vertices
    while heap:
        d, p = heapq.heappop(heap)
        if done[p]:
            continue
        done[p] = True
        for q, w in adj[p]:
            nd = d + w
            if nd < dist[q]:
                dist[q] = nd
                heapq.heappush(heap, (nd, q))
    return dist


def in_union(intervals, x: float) -> bool:
    for lo, hi in intervals:
        if lo < x < hi:
            return True
        if lo >= x:
            break
    return False


def union_contains_interval(intervals, lo: float, hi: float) -> bool:
    """Whether the closed interval [lo, hi] fits inside one open component."""
    for a, b in intervals:
        if a < lo and hi < b:
            return True
    return False


def logistic_exact_value(sublevels, x: float) -> float:
    """Smallest T with x in the T-th sublevel set, inf if none; the scalar
    reference for ``symoc.analysis.logistic_exact_values``."""
    for T, intervals in enumerate(sublevels):
        if in_union(intervals, x):
            return float(T)
    return INF


def logistic_cell_sup_exact(sublevels, lo: float, hi: float) -> float:
    """sup of the exact value over the closed cell [lo, hi]: the smallest T
    whose sublevel union contains the cell (inf if none up to T_max)."""
    for T, intervals in enumerate(sublevels):
        if union_contains_interval(intervals, lo, hi):
            return float(T)
    return INF


def map_endpoints(reach):
    """Endpoint sampler of a ``MapReach``: images of evenly spaced points of
    the cell and of its two ends."""

    def sample(cell, u_idx, rng, count):
        lo, hi = (bound[0] for bound in reach.cover.cell_boxes([cell]))
        xs = np.concatenate([np.linspace(lo[0], hi[0], max(count, 2)), [lo[0], hi[0]]])
        return reach.plant.step(xs)[:, None]

    return sample


def check_conservatism(problem2, cover, inputs, costs, sampler, rho, rng, cell_samples=40, endpoint_samples=48, margin=None, max_violations=100):
    """Sampled validation of the conservatism conditions against rho.

    ``sampler(cell, input, rng, count)`` must return attainable endpoints (an
    under-approximation of the true attainable set).  Condition (iv) is
    checked with an extra ``margin`` (default ||eta||) absorbing the coverage
    gap of the sample cloud; a pass is conclusive, a reported violation may in
    rare cases be an artifact of sparse sampling.
    """
    margin = cover.max_diameter if margin is None else margin
    model = costs.model
    violations = []

    def add(tag, detail):
        if len(violations) < max_violations:
            violations.append((tag, detail))

    if inputs.radius > rho:
        add("i", f"input covering radius {inputs.radius} > rho {rho}")

    n_check = min(cell_samples, cover.n_cells)
    cells = np.unique(rng.choice(cover.n_cells, size=n_check, replace=False))
    centers, (los, his) = cover.centers_all(), cover.cell_boxes()
    for cell in cells:
        lo, hi = los[cell], his[cell]
        pts = [centers[cell]] + [rng.uniform(lo, hi) for _ in range(6)]
        pts += [lo.copy(), hi.copy()]
        if costs.G2[cell] < INF:
            sup_G1 = max(point_G(model, p) for p in pts)
            if costs.G2[cell] > rho + sup_G1:
                add("ii", f"cell {cell}: G2 {costs.G2[cell]} > rho + sampled sup G1 {sup_G1}")
        for u_idx in range(len(inputs)):
            val = pair_value(costs, cell, u_idx)
            if val < INF:
                u = inputs.representatives[u_idx]
                sup_g1 = max(point_g(model, p, p, u) for p in pts)
                if val > rho + sup_g1:
                    add("iii", f"cell {cell}, input {u_idx}: g2 {val} > rho + sampled sup g1 {sup_g1}")
        if costs.gated[cell]:
            continue
        diam = float((hi - lo).max())
        if diam > rho * (1.0 + 1e-12):  # ulp slack: bounds are re-derived floats
            add("v", f"cell {cell}: diameter {diam} > rho {rho}")
        for u_idx in range(len(inputs)):
            endpoints = sampler(cell, u_idx, rng, endpoint_samples)
            succ, _ = successors(problem2, int(cell), u_idx)
            for q in succ:
                if q == cover.overflow:
                    continue
                q_lo, q_hi = los[q], his[q]
                gaps = np.maximum(np.maximum(q_lo - endpoints, endpoints - q_hi), 0.0)
                d = float(gaps.max(axis=1).min())
                if d > rho + margin:
                    add("iv", f"cell {cell}, input {u_idx}: successor {q} at distance {d} > rho + margin")
    return len(violations) == 0, violations


def from_lists(G, trans):
    """Build a FiniteProblem from ``trans[p][u] = [(q, g), ...]`` nested lists."""
    n = len(trans)
    if n == 0:
        raise InputError("need at least one state")
    m = len(trans[0])
    ptr = [0]
    succ = []
    costs = []
    for p in range(n):
        if len(trans[p]) != m:
            raise InputError("ragged input axis in transition lists")
        for u in range(m):
            seen = {}
            for q, gval in trans[p][u]:
                if q in seen:
                    raise InputError(f"duplicate transition ({p},{u},{q})")
                seen[q] = None
                succ.append(q)
                costs.append(gval)
            ptr.append(len(succ))
    return FiniteProblem(n, m, G, ptr, np.asarray(succ, dtype=np.int64), edge_costs=costs)


def format_cost(value):
    """A cost's token: Python's shortest round-trip form, or inf."""
    return "inf" if value == INF else repr(float(value))


def reference_to_focp_text(problem):
    """FOCP v1 text, one formatted line per record (the per-record writer)."""
    lines = [f"focp {problem.n} {problem.m}"]
    for p in range(problem.n):
        lines.append(f"G {p} {format_cost(problem.G[p])}")
    costs = edge_cost_view(problem)
    for p in range(problem.n):
        for u in range(problem.m):
            a, b = problem.trans_ptr[pair_id(problem, p, u)], problem.trans_ptr[pair_id(problem, p, u) + 1]
            for e in range(a, b):
                lines.append(f"T {p} {u} {problem.trans_succ[e]} {format_cost(costs[e])}")
    return "\n".join(lines) + "\n"


def reference_values_to_text(W):
    """Value file text, one formatted line per state (the per-record writer)."""
    return "\n".join(f"{p} {format_cost(w)}" for p, w in enumerate(W)) + "\n"


def reference_controller_to_text(choice):
    """Controller file text, one formatted line per state (the per-record writer)."""
    lines = []
    for p, u in enumerate(choice):
        lines.append(f"{p} STOP" if u == STOP else f"{p} {u}")
    return "\n".join(lines) + "\n"


def reference_relation_to_text(pairs):
    """Relation file text, one formatted line per pair (the per-record writer)."""
    return "\n".join(f"{a} {b}" for a, b in pairs) + "\n"


# index tokens and separator bytes that int(), float() or str.split accept
# and the ASCII record grammar does not: each makes its line malformed
NON_GRAMMAR_INDICES = [b"+1", b"1_0", b"0" * 18 + b"1", "\u0661".encode(), "\uff11".encode()]
NON_GRAMMAR_BYTES = [c.encode() for c in "\x85\u2028\u3000\xa0\v\f\x1c\x1d\x1e\x1f\x00"] + [b"\xff"]


def quoted(line: bytes) -> str:
    """How an input error quotes a line: a character per byte, escaped."""
    return ascii(line.decode("latin-1"))


def each_source(text, path):
    """(way, source) for ``text``, a str or bytes, in each form the record
    readers take: as given, as bytes, as an in-memory file, as a file on
    disk at ``path`` and as a pipe that a thread feeds.  Each file is closed
    when the next form is asked for."""
    data = text.encode("utf-8", "backslashreplace") if isinstance(text, str) else text
    yield "as given", text
    if isinstance(text, str):
        yield "bytes", data
    yield "in-memory file", io.BytesIO(data)
    path.write_bytes(data)
    with open(path, "rb") as fh:
        yield "file", fh
    read_end, write_end = os.pipe()
    feeder = threading.Thread(target=_feed, args=(write_end, data), daemon=True)
    feeder.start()
    try:
        with open(read_end, "rb") as fh:
            yield "pipe", fh
    finally:
        feeder.join(timeout=60)


def _feed(fd, data):
    """Write ``data`` to file descriptor ``fd``, then close it; a reader
    that stops early only ends the write."""
    with contextlib.suppress(BrokenPipeError), open(fd, "wb") as fh:
        fh.write(data)


def parse_cost(token):
    """A cost token read by float(): non-negative or inf."""
    value = float(token)
    if not value >= 0.0:
        raise InputError(f"cost must be non-negative or inf, got {token!r}")
    return value


def reference_from_focp_text(text):
    """FOCP v1 reader splitting lines and fields with str methods (the
    per-record reader).  It agrees with the library reader on ASCII text
    whose indices are plain decimal digits."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("focp"):
        raise InputError("missing focp header")
    try:
        _, n_s, m_s = lines[0].split()
        n, m = int(n_s), int(m_s)
    except ValueError as exc:
        raise InputError("malformed focp header") from exc
    if n <= 0 or m <= 0:
        raise InputError("focp header: need positive state/input counts")
    G = np.full(n, INF)
    trans = [[[] for _ in range(m)] for _ in range(n)]
    try:
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] == "G" and len(parts) == 3:
                p = int(parts[1])
                if not 0 <= p < n:
                    raise InputError(f"state index out of range: {ln!r}")
                G[p] = parse_cost(parts[2])
            elif parts[0] == "T" and len(parts) == 5:
                p, u, q = int(parts[1]), int(parts[2]), int(parts[3])
                if not (0 <= p < n and 0 <= u < m and 0 <= q < n):
                    raise InputError(f"index out of range: {ln!r}")
                trans[p][u].append((q, parse_cost(parts[4])))
            else:
                raise InputError(f"unrecognized focp record: {ln!r}")
    except ValueError as exc:
        raise InputError(f"malformed focp record: {ln!r}") from exc
    return from_lists(G, trans)


def edge_cost_view(problem):
    """Per-edge cost array regardless of the storage mode."""
    if problem.edge_costs is not None:
        return problem.edge_costs
    return np.repeat(problem.pair_costs, np.diff(problem.trans_ptr))


def validate_run(problem, run):
    """Raise InputError unless every step of ``run`` follows an edge of ``problem``."""
    for t in range(len(run.u)):
        succ, _ = successors(problem, run.x[t], run.u[t])
        if run.x[t + 1] not in succ:
            raise InputError(f"run step {t}: state {run.x[t + 1]} is not reachable")


def is_stop(table, p):
    """Whether the controller table stops at state p."""
    return table.choice[p] == STOP


def chauffeur_nominal_exact(x0, u, t):
    """Closed-form nominal chauffeur flow: rotation about (1/u, 0) for u != 0,
    straight downward drift for u = 0.  Used as an integration oracle."""
    x0 = np.asarray(x0, dtype=float)
    a = float(np.atleast_1d(u)[0])
    if a == 0.0:
        return x0 + np.array([0.0, -t])
    c = np.array([1.0 / a, 0.0])
    phi = a * t
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    return c + rot @ (x0 - c)


def reference_run_closed_loop(plant, controller, x0, policy, max_steps, costs, W=None):
    """One closed-loop run alone, one point at a time: quantize, look up,
    stop (charging G) or move one sampling period (charging g), until the
    controller stops or the step budget runs out (cost inf then).
    ``policy`` is the run's own draw, as ``make_policy`` returns it."""
    if max_steps < 1:
        raise InputError("max_steps must be at least 1")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    bound = INF if W is None else pointwise_upper_bound(W, controller.cover, x)
    states, inputs, cum = [x.copy()], [], [0.0]
    total = 0.0
    stopped = False
    for _ in range(max_steps):
        u_vec, stop = controller.act(x)
        if stop:
            stopped = True
            total += point_G(costs, x)
            cum[-1] = total
            break
        if isinstance(plant, SampledSystem):
            x_next = plant.step(x, u_vec, policy(plant.w, SUBSTEPS))
        else:
            x_next = np.atleast_1d(plant.step(x))
        total += point_g(costs, x, x_next, u_vec)
        inputs.append(u_vec)
        x = x_next
        states.append(x.copy())
        cum.append(total)
    if not stopped:
        total = INF
        cum[-1] = INF
    return Trajectory(np.array(states), inputs, stopped, total, bound, cum)


def _relation_dicts(rel):
    """forward and inverse adjacency of a relation as dicts of sorted lists."""
    forward, inverse = {}, {}
    for a, b in relation_pairs(rel):
        forward.setdefault(a, []).append(b)
        inverse.setdefault(b, []).append(a)
    return forward, inverse


def reference_check_indices(rel, p1, p2):
    for a, b in relation_pairs(rel):
        if not (0 <= a < p1.n and 0 <= b < p2.n):
            raise InputError(f"relation pair '{a} {b}' out of range for {p1.n} and {p2.n} states")


def reference_check_vfrr(p1, p2, rel):
    """Feedback-refinement conditions (i)-(iv) by loops over every pair of
    related pairs and every input; the reference for ``check_vfrr``."""
    reference_check_indices(rel, p1, p2)
    if p2.m > p1.m:
        return Verdict(False, [("i", f"input alphabet of problem 2 ({p2.m}) exceeds problem 1 ({p1.m})")])
    G1, G2 = p1.G, p2.G
    g1 = lambda p, q, u: cost_of(p1, p, q, u)
    g2 = lambda p, q, u: cost_of(p2, p, q, u)
    forward, _ = _relation_dicts(rel)
    pairs = relation_pairs(rel)
    violations = []

    def add(tag, detail):
        if len(violations) < MAX_VIOLATIONS:
            violations.append((tag, detail))

    if not all(p in forward for p in range(p1.n)):
        missing = next(p for p in range(p1.n) if p not in forward)
        add("strict", f"state {missing} of problem 1 has no related state")
    for a, b in pairs:
        if G1[a] > G2[b]:
            add("ii", f"G1({a}) = {G1[a]} > G2({b}) = {G2[b]}")
    for a, b in pairs:
        for qa, qb in pairs:
            for u in range(p2.m):
                if g1(a, qa, u) > g2(b, qb, u):
                    add("iii", f"g1({a},{qa},{u}) > g2({b},{qb},{u})")
    for a, b in pairs:
        for u in range(p2.m):
            succ2 = set(int(q) for q in successors(p2, b, u)[0])
            succ1, _ = successors(p1, a, u)
            for q1 in succ1:
                for q2 in forward.get(int(q1), []):
                    if q2 not in succ2:
                        add("iv", f"image {q2} of successor {int(q1)} of ({a},{u}) not in F2({b},{u})")
    return Verdict(not violations, violations)


def reference_check_vasr(p1, p2, rel, eps):
    """Alternating-simulation conditions with slack eps by loops over the
    pairs, the inputs of both problems and the successors; the reference for
    ``check_vasr``."""
    if eps < 0:
        raise InputError("eps must be non-negative")
    reference_check_indices(rel, p1, p2)
    G1, G2 = p1.G, p2.G
    g1 = lambda p, q, u: cost_of(p1, p, q, u)
    g2 = lambda p, q, u: cost_of(p2, p, q, u)
    forward, inverse = _relation_dicts(rel)
    pairs = relation_pairs(rel)
    P1_zero = dp_operator(p1, np.zeros(p1.n))

    violations = []
    gated = 0

    def add(tag, detail):
        if len(violations) < MAX_VIOLATIONS:
            violations.append((tag, detail))

    for a, b in pairs:
        if G1[a] > G2[b]:
            add("i", f"G1({a}) = {G1[a]} > G2({b}) = {G2[b]}")
    for a, b in pairs:
        if G1[a] <= 0.0:
            continue
        for u2 in range(p2.m):
            succ2, _ = successors(p2, b, u2)
            succ2 = [int(q) for q in succ2]
            g2_vals = {q2: g2(b, q2, u2) for q2 in succ2}
            if any(v == INF for v in g2_vals.values()):
                gated += 1
                continue
            if any(P1_zero[q1] == INF for q2 in succ2 for q1 in inverse.get(q2, [])):
                gated += 1
                continue
            ok_u1 = False
            for u1 in range(p1.m):
                succ1, _ = successors(p1, a, u1)
                if all(
                    any(
                        g1(a, int(q1), u1) <= eps + g2_vals[q2]
                        for q2 in forward.get(int(q1), [])
                        if q2 in g2_vals
                    )
                    for q1 in succ1
                ):
                    ok_u1 = True
                    break
            if not ok_u1:
                add("ii", f"no input of problem 1 matches ({a},{b}) under input {u2} at eps {eps}")
    return Verdict(not violations, violations, gated)
