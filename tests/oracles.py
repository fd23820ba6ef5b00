"""Independent reference implementations used to pin expected test values.

Everything here is deliberately naive (dicts, plain loops, no shared code with
the library's solver paths) so that agreement between the two is meaningful.
"""

import heapq
import math
from collections import deque

import numpy as np

from symoc.abstraction import _expand_ranges
from symoc.core import STOP, ControllerTable, FiniteProblem, format_cost, parse_cost
from symoc.errors import InputError, SoundnessAlarm
from symoc.reach import growth_bound, integrate_nominal
from symoc.solver import SolveResult, SolveStats, is_discrete_cost

INF = math.inf


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
    g in {1, inf}, G in {0, inf}; "qualitative" uses {0, inf} for both.
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
                else:
                    g = INF if rng.random() < 0.15 else 0.0
                entries.append((int(q), g))
            per_input.append(entries)
        trans.append(per_input)
    G = []
    for _ in range(n):
        if cost_mode == "real":
            G.append(INF if rng.random() < 0.5 else float(np.round(rng.uniform(0, 10), 3)))
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


def attain_over(sys, cell, u, k, theta, gamma, eta_norm, substeps=5, max_splits=64):
    """Per-cell interval subdivision, one (center, radius, drift) at a time.

    Reference for ``symoc.reach.attain_over_batch``: the same substep, split
    and split-cap rules, run on a Python list of intervals instead of
    batches of centers; only the integrators are shared with the library.
    Returns (centers, radii, escaped, slack).
    """
    c0, r0 = (np.asarray(v, dtype=float) for v in cell)
    work = [(c0, r0, np.zeros(sys.dim))]
    t_sub = sys.tau / k
    escaped = False
    for _ in range(k):
        moved = []
        for c, r, b in work:
            c2 = integrate_nominal(sys, c, u, t_sub, substeps)
            r2 = growth_bound(sys, r, t_sub, substeps) + gamma
            b2 = growth_bound(sys, b, t_sub, substeps, with_disturbance=False)
            if np.any(c2 - r2 < sys.hull_lower) or np.any(c2 + r2 > sys.hull_upper):
                escaped = True
            moved.append((c2, r2, b2))
        work = []
        queue = moved
        while queue:
            c, r, b = queue.pop()
            if float(r.max()) <= theta * eta_norm:
                work.append((c, r, b))
            elif len(work) + len(queue) + 2 > max_splits:
                escaped = True
                work.append((c, r, b))
                work.extend(queue)
                queue = []
            else:
                j = int(np.argmax(r))
                shift = np.zeros_like(r)
                shift[j] = r[j] / 2.0
                half = r.copy()
                half[j] = r[j] / 2.0
                queue.append((c - shift, half, b + shift))
                queue.append((c + shift, half, b + shift))
    slack = max(float((r + b).max()) for _, r, b in work)
    return np.array([c for c, _, _ in work]), np.array([r for _, r, _ in work]), escaped, slack


def boxes_contain(lo, hi, x):
    """Whether the point x lies in the union of the closed boxes [lo[i], hi[i]]."""
    x = np.asarray(x, dtype=float)
    return bool(np.any(np.all((lo <= x) & (x <= hi), axis=1)))


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
        reach.k, reach.theta, reach.gamma, cover.max_diameter, reach.substeps, reach.max_splits,
    )
    found = set()
    for c, r in zip(centers, radii):
        cells, esc = cells_overlapping_box(cover, c - r, c + r)
        found.update(cells)
        escaped = escaped or esc
    return sorted(found), escaped, slack


def union_branches_by_unique(cover, branches, active):
    """(flat, owner, cnt) of the union of the branches' cell index blocks per
    active cell, deduplicated by np.unique over the int64 keys
    owner * n_states + flat (the dedupe the abstraction build once ran)."""
    parts, owners = [], []
    for lo_idx, hi_idx, empty in branches:
        flat, owner, _ = _expand_ranges(cover, lo_idx, hi_idx, active & ~empty)
        parts.append(flat)
        owners.append(owner)
    key = np.concatenate(owners) * np.int64(cover.n_states) + np.concatenate(parts)
    uniq = np.unique(key)
    owner = uniq // cover.n_states
    return uniq % cover.n_states, owner, np.bincount(owner, minlength=cover.n_cells)


def reference_inverse(problem):
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


def reference_solve(problem, queue="heap"):
    """Algorithm 1 with a per-state settle and a per-pair evaluation that
    recomputes M = max_y g + W(y) from all successors of the pair; the
    reference for ``symoc.solver.solve``.

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
    pred_ptr, pred_pair, counters = reference_inverse(problem)
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
    return SolveResult(W, ControllerTable(choice), stats, np.asarray(settle_values), queue)


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
            sup_G1 = max(model.G(p) for p in pts)
            if costs.G2[cell] > rho + sup_G1:
                add("ii", f"cell {cell}: G2 {costs.G2[cell]} > rho + sampled sup G1 {sup_G1}")
        for u_idx in range(len(inputs)):
            val = costs.pair_value(cell, u_idx)
            if val < INF:
                u = inputs.representatives[u_idx]
                sup_g1 = max(model.g(p, p, u) for p in pts)
                if val > rho + sup_g1:
                    add("iii", f"cell {cell}, input {u_idx}: g2 {val} > rho + sampled sup g1 {sup_g1}")
        if costs.gated[cell]:
            continue
        diam = float((hi - lo).max())
        if diam > rho * (1.0 + 1e-12):  # ulp slack: bounds are re-derived floats
            add("v", f"cell {cell}: diameter {diam} > rho {rho}")
        for u_idx in range(len(inputs)):
            endpoints = sampler(cell, u_idx, rng, endpoint_samples)
            succ, _ = problem2.successors(int(cell), u_idx)
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


def reference_to_focp_text(problem):
    """FOCP v1 text, one formatted line per record (the per-record writer)."""
    lines = [f"focp {problem.n} {problem.m}"]
    for p in range(problem.n):
        lines.append(f"G {p} {format_cost(problem.G[p])}")
    costs = edge_cost_view(problem)
    for p in range(problem.n):
        for u in range(problem.m):
            a, b = problem.trans_ptr[problem.pair_id(p, u)], problem.trans_ptr[problem.pair_id(p, u) + 1]
            for e in range(a, b):
                lines.append(f"T {p} {u} {problem.trans_succ[e]} {format_cost(costs[e])}")
    return "\n".join(lines) + "\n"


def reference_from_focp_text(text):
    """FOCP v1 reader splitting lines and fields with str methods (the
    per-record reader)."""
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
        succ, _ = problem.successors(run.x[t], run.u[t])
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
