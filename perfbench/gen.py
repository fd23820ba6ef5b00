"""Seeded, vectorized generators for the focp_tools workload.

Problems live on a rows x cols grid of states.  Input u shifts a small
window of successors in one of six grid directions, so successors are local
and overlap the way the abstraction of a smooth plant does.  Edge costs are
drawn per edge with three decimals, so the solver sees non-discrete costs
(heap queue) and the FOCP text stays short.  Every finite cost is at least
MIN_COST, which makes the Bellman fixpoint unique (see checks.py).
"""

from __future__ import annotations

import numpy as np

from symoc.core import FiniteProblem
from symoc.relations import Relation

DIRECTIONS = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])
MIN_COST = 0.5


def _window_start(x, d, span):
    """First index of a window of ``span`` cells next to x on the side d
    (centered on x when d is 0); away from the border it excludes x itself,
    so the state is not its own successor."""
    return np.where(d > 0, x + 1, np.where(d < 0, x - span, x - span // 2))


def grid_problem(rng, rows: int, cols: int) -> FiniteProblem:
    """Grid problem with len(DIRECTIONS) inputs and 2..3 x 2..4 successor windows."""
    n, m = rows * cols, len(DIRECTIONS)
    pid = np.arange(n * m, dtype=np.int64)
    p, u = pid // m, pid % m
    r, c = p // cols, p % cols
    h = rng.integers(2, 4, size=n * m)
    w = rng.integers(2, 5, size=n * m)
    r0 = np.clip(_window_start(r, DIRECTIONS[u, 0], h), 0, rows - h)
    c0 = np.clip(_window_start(c, DIRECTIONS[u, 1], w), 0, cols - w)
    sizes = h * w
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    owner = np.repeat(pid, sizes)
    off = np.arange(ptr[-1], dtype=np.int64) - ptr[owner]
    succ = (r0[owner] + off // w[owner]) * cols + c0[owner] + off % w[owner]

    costs = np.round(rng.uniform(MIN_COST, 1.5, size=len(succ)), 3)
    obstacle = rng.random(n) < 0.01
    costs[obstacle[owner // m]] = np.inf
    # targets: a disc in the middle plus scattered single states
    dist2 = (r[::m] - rows // 2) ** 2 + (c[::m] - cols // 2) ** 2
    target = (dist2 <= (min(rows, cols) // 10) ** 2) | (rng.random(n) < 0.002)
    G = np.where(target & ~obstacle, np.round(rng.uniform(0.0, 2.0, size=n), 3), np.inf)
    return FiniteProblem(n, m, G, ptr, succ, edge_costs=costs)


def inflated_relabelled_copy(rng, problem: FiniteProblem):
    """(copy, relation): the copy has every state a renamed to perm[a] and
    every finite cost raised, so {(a, perm[a])} is a valuated feedback
    refinement relation from ``problem`` to the copy (vfrr verdict true)."""
    n, m = problem.n, problem.m
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    sizes = np.diff(problem.trans_ptr).reshape(n, m)
    new_sizes = sizes[inv].ravel()  # pairs of new state b are those of inv[b]
    ptr = np.zeros(n * m + 1, dtype=np.int64)
    np.cumsum(new_sizes, out=ptr[1:])
    old_pid = (inv[:, None] * m + np.arange(m)).ravel()
    owner = np.repeat(np.arange(n * m), new_sizes)
    old_edge = problem.trans_ptr[old_pid][owner] + np.arange(ptr[-1]) - ptr[owner]
    succ = perm[problem.trans_succ[old_edge]]
    costs = problem.edge_costs[old_edge] + np.round(rng.uniform(0.0, 0.5, size=len(succ)), 3)
    G = problem.G[inv] + np.round(rng.uniform(0.0, 0.5, size=n), 3)
    copy = FiniteProblem(n, m, G, ptr, succ, edge_costs=costs)
    return copy, Relation(zip(range(n), perm.tolist()))
