"""Valuated relation checkers, controller refinement and pointwise bounds.

The checkers evaluate the defining conditions over all related pairs as
array joins of the relation with the problems' edges, and report violations
instead of raising; running costs are the totalized per-transition costs of
the finite problems (inf off transitions).  No pair lists a successor twice
(``FiniteProblem``), so a transition has one cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import INF, STOP, ControllerTable, FiniteProblem, as_indices, chunks, offsets, ranges
from .errors import InputError
from .grid import GridCover


class Relation:
    """A set of (state of problem 1, state of problem 2) pairs, held as the
    int64 arrays ``a`` and ``b`` of the distinct pairs in ascending order."""

    def __init__(self, pairs):
        """``pairs``: (a, b) pairs of non-negative states, or a (k, 2) array."""
        ab = as_indices(pairs if isinstance(pairs, np.ndarray) else list(pairs), "relation state").reshape(-1, 2)
        if np.any(ab < 0):
            a, b = ab[np.any(ab < 0, axis=1)][0]
            raise InputError(f"relation pair '{a} {b}' has a negative state")
        self.a, self.b = np.unique(ab, axis=0).T.copy()

    def __len__(self):
        return len(self.a)

    def to_text(self) -> str:
        """Relation file text (grammar in the README)."""
        from . import focp

        return focp.relation_text(self.a, self.b)

    @classmethod
    def from_text(cls, text) -> "Relation":
        """Read a relation file, a str, bytes or a binary file (grammar in
        the README)."""
        from . import focp

        return cls(np.column_stack(focp.read_records(text, "relation")))


BLOCK = 1 << 20  # join elements a checker expands at a time


def _blocks(sizes):
    """(lo, hi) bounds of the runs of items of ``sizes`` that core.chunks
    cuts at BLOCK elements."""
    cuts = chunks(np.append(0, np.cumsum(sizes)), BLOCK)
    return zip(cuts, cuts[1:])


def _edge_keys(problem: FiniteProblem):
    """The key (p·m + u)·n + q of every edge (p, u, q), in CSR order."""
    keys = np.repeat(np.arange(problem.n * problem.m, dtype=np.int64) * problem.n, np.diff(problem.trans_ptr))
    keys += problem.trans_succ
    return keys


def _edge_costs(problem: FiniteProblem):
    """The running cost of every edge, in CSR order."""
    if problem.edge_costs is not None:
        return problem.edge_costs
    return np.repeat(problem.pair_costs, np.diff(problem.trans_ptr))


def _edge_table(problem: FiniteProblem):
    """The edge keys, sorted, with their costs."""
    keys = _edge_keys(problem)
    order = keys.argsort()
    return keys[order], _edge_costs(problem)[order]


def _lookup(table, keys):
    """(cost, found) of the edge with each key; the cost is inf where there
    is none, as for the totalized running cost."""
    sorted_keys, costs = table
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    found = sorted_keys[pos] == keys
    return np.where(found, costs[pos], INF), found


MAX_VIOLATIONS = 100  # violations a verdict keeps and prints


@dataclass
class Verdict:
    ok: bool
    violations: list = field(default_factory=list)
    gated_pairs: int = 0  # vASR pairs skipped by the boundedness side-conditions

    def to_text(self) -> str:
        lines = [f"verdict: {'true' if self.ok else 'false'}"]
        if self.gated_pairs:
            lines.append(f"gated_pairs: {self.gated_pairs}")
        lines.append(f"violations: {len(self.violations)}")
        for tag, detail in self.violations[:MAX_VIOLATIONS]:
            lines.append(f"({tag}) {detail}")
        return "\n".join(lines) + "\n"


def _check_indices(rel: Relation, p1: FiniteProblem, p2: FiniteProblem):
    bad = np.flatnonzero((rel.a >= p1.n) | (rel.b >= p2.n))
    if len(bad):
        a, b = rel.a[bad[0]], rel.b[bad[0]]
        raise InputError(f"relation pair '{a} {b}' out of range for {p1.n} and {p2.n} states")


def _terminal_violations(tag, violations, p1, p2, rel):
    """Append the pairs with G1(a) > G2(b), in pair order, up to the cap."""
    bad = np.flatnonzero(p1.G[rel.a] > p2.G[rel.b])[: MAX_VIOLATIONS - len(violations)]
    for a, b in zip(rel.a[bad], rel.b[bad]):
        violations.append((tag, f"G1({a}) = {p1.G[a]} > G2({b}) = {p2.G[b]}"))


def check_vfrr(p1: FiniteProblem, p2: FiniteProblem, rel: Relation) -> Verdict:
    """Feedback-refinement conditions (i)-(iv) over all related pairs; the
    inputs of problem 2 embed into those of problem 1 by index.

    The first MAX_VIOLATIONS violations are kept: strictness, then (ii) by
    pair, (iii) by (pair, successor pair, input) and (iv) by (pair, input,
    successor position, image).  (iii) can fail only on an edge of problem 2
    with a finite cost, so it joins those edges with the preimages of both
    ends; (iv) maps problem 1's successors through R.
    """
    _check_indices(rel, p1, p2)
    if p2.m > p1.m:
        return Verdict(False, [("i", f"input alphabet of problem 2 ({p2.m}) exceeds problem 1 ({p1.m})")])
    A, B = rel.a, rel.b
    violations = []
    fwd_ptr = offsets(A, p1.n)  # the images of a are B[fwd_ptr[a]:fwd_ptr[a + 1]]
    unrelated = np.flatnonzero(np.diff(fwd_ptr) == 0)
    if len(unrelated):
        violations.append(("strict", f"state {unrelated[0]} of problem 1 has no related state"))
    _terminal_violations("ii", violations, p1, p2, rel)
    table1, table2 = _edge_table(p1), _edge_table(p2)

    # (iii) on each finite-cost edge (b, u, qb) of problem 2, against every
    # (a, qa) in R^-1(b) x R^-1(qb); a block's first violations in (pair,
    # successor pair, input) order are kept
    keys2, costs2 = table2
    finite = costs2 < INF
    keys, g2 = keys2[finite], costs2[finite]
    del finite
    inv_idx = np.lexsort((A, B))  # the pairs of b are inv_idx[inv_ptr[b]:inv_ptr[b + 1]]
    inv_ptr = offsets(B[inv_idx], p2.n)
    n_pre = np.diff(inv_ptr)
    room = MAX_VIOLATIONS - len(violations)
    found = []
    for lo, hi in _blocks(n_pre[keys // (p2.m * p2.n)] * n_pre[keys % p2.n]) if room else ():
        pid2, qb = np.divmod(keys[lo:hi], p2.n)
        b, u = np.divmod(pid2, p2.m)
        edge, pos = ranges(inv_ptr[b], inv_ptr[b + 1])
        join, pos_q = ranges(inv_ptr[qb[edge]], inv_ptr[qb[edge] + 1])
        edge, i, j = edge[join], inv_idx[pos[join]], inv_idx[pos_q]
        g1, _ = _lookup(table1, (A[i] * p1.m + u[edge]) * p1.n + A[j])
        bad = np.flatnonzero(g1 > g2[lo:hi][edge])
        i, j, uk = i[bad], j[bad], u[edge[bad]]
        found.append(np.stack([i, j, uk])[:, np.lexsort((uk, j, i))[:room]])
    del table1, keys, g2
    if found:
        i, j, uk = np.concatenate(found, axis=1)
        for k in np.lexsort((uk, j, i))[:room]:
            violations.append(("iii", f"g1({A[i[k]]},{A[j[k]]},{uk[k]}) > g2({B[i[k]]},{B[j[k]]},{uk[k]})"))

    # (iv) every image q2 of every successor q1 of (a, u), u < m2, is in
    # F2(b, u); blocks of rows (pair, u) come in loop order
    rows = (A[:, None] * p1.m + np.arange(p2.m)).ravel()  # row i·m2 + u
    for lo, hi in _blocks(p1.trans_ptr[rows + 1] - p1.trans_ptr[rows]):
        room = MAX_VIOLATIONS - len(violations)
        if not room:
            break
        row, e = ranges(p1.trans_ptr[rows[lo:hi]], p1.trans_ptr[rows[lo:hi] + 1])
        q1 = p1.trans_succ[e]
        succ, r = ranges(fwd_ptr[q1], fwd_ptr[q1 + 1])
        i, u = np.divmod(row[succ] + lo, p2.m)
        _, hit = _lookup(table2, (B[i] * p2.m + u) * p2.n + B[r])
        for k in np.flatnonzero(~hit)[:room]:
            a, b, q = A[i[k]], B[i[k]], q1[succ[k]]
            violations.append(("iv", f"image {B[r[k]]} of successor {q} of ({a},{u[k]}) not in F2({b},{u[k]})"))
    return Verdict(not violations, violations)


def check_vasr(p1: FiniteProblem, p2: FiniteProblem, rel: Relation, eps: float) -> Verdict:
    """Alternating-simulation conditions with slack eps.

    The exists/forall/exists condition is only enforced where the boundedness
    side-conditions hold; skipped pairs are counted so callers notice when
    the gate rather than the condition decided the verdict.  The condition is
    evaluated on the array of (pair, u2, u1, successor, image) cases, reduced
    by any over images, all over successors and any over u1.
    """
    if not eps >= 0:  # NaN too
        raise InputError("eps must be non-negative")
    _check_indices(rel, p1, p2)
    A, B = rel.a, rel.b
    violations = []
    _terminal_violations("i", violations, p1, p2, rel)

    # gates per pair (b, u2) of problem 2: an edge of infinite running cost,
    # or a successor related to a state of problem 1 where P(0) = min(G, min_u max_y g) is infinite
    table2 = _edge_table(p2)
    pair_max = p1.pair_costs if p1.edge_costs is None else np.maximum.reduceat(p1.edge_costs, p1.trans_ptr[:-1])
    unbounded = np.zeros(p2.n, dtype=bool)
    unbounded[B[np.minimum(p1.G, pair_max.reshape(p1.n, p1.m).min(axis=1))[A] == INF]] = True
    gated_pair = np.logical_or.reduceat((_edge_costs(p2) == INF) | unbounded[p2.trans_succ], p2.trans_ptr[:-1])
    active = np.flatnonzero(p1.G[A] > 0.0)
    rows = (B[active, None] * p2.m + np.arange(p2.m)).ravel()  # row k·m2 + u2 for active pair k
    gated = int(gated_pair[rows].sum())
    live = np.flatnonzero(~gated_pair[rows])
    i, u2 = active[live // p2.m], live % p2.m

    # cases: (live row, u1), then its successors q1, then their images q2,
    # in blocks of live rows
    fwd_ptr, costs1 = offsets(A, p1.n), _edge_costs(p1)
    failing = []
    p1_edges = p1.trans_ptr[(A[i] + 1) * p1.m] - p1.trans_ptr[A[i] * p1.m]
    for lo, hi in _blocks(p1_edges):
        case = np.repeat(np.arange(lo, hi), p1.m)
        pid1 = A[i[case]] * p1.m + np.tile(np.arange(p1.m), hi - lo)
        succ_case, e = ranges(p1.trans_ptr[pid1], p1.trans_ptr[pid1 + 1])
        q1, g1 = p1.trans_succ[e], costs1[e]
        img_succ, r = ranges(fwd_ptr[q1], fwd_ptr[q1 + 1])
        row = case[succ_case[img_succ]]
        g2, hit = _lookup(table2, (B[i[row]] * p2.m + u2[row]) * p2.n + B[r])
        matched = np.zeros(len(e), dtype=bool)
        matched[img_succ[hit & (g1[img_succ] <= eps + g2)]] = True
        failed = np.zeros(len(pid1), dtype=bool)
        failed[succ_case[~matched]] = True
        ok = np.zeros(hi - lo, dtype=bool)
        ok[case[~failed] - lo] = True
        failing.append(np.flatnonzero(~ok) + lo)
        if sum(map(len, failing)) >= MAX_VIOLATIONS:
            break
    bad = np.concatenate(failing or [np.zeros(0, dtype=np.int64)])[: MAX_VIOLATIONS - len(violations)]
    for a, b, u in zip(A[i[bad]], B[i[bad]], u2[bad]):
        violations.append(("ii", f"no input of problem 1 matches ({a},{b}) under input {u} at eps {eps}"))
    return Verdict(not violations, violations, gated)


@dataclass
class RefinedController:
    """Serial composition of the quantizer and a static abstract controller:
    quantize the concrete state, then look the input up in the table."""

    table: ControllerTable
    cover: GridCover
    representatives: np.ndarray

    def __post_init__(self):
        choice, m = self.table.choice, len(self.representatives)
        if len(choice) != self.cover.n_states:
            raise InputError("controller table size does not match the cover")
        bad = np.flatnonzero(choice >= m)
        if len(bad):
            raise InputError(f"controller state {bad[0]} chooses input {choice[bad[0]]}, outside the inputs 0..{m - 1}")

    def act(self, x):
        """Concrete control decision: (input vector, stop bit); a stop comes
        with input 0, which is never applied.  ``x`` is one point or an
        (N, dim) array, which gets (N, input_dim) inputs and N stop bits."""
        u = self.table.choice[self.cover.quantize(x)]
        stop = u == STOP
        return self.representatives[np.where(stop, 0, u)], stop


def pointwise_upper_bound(W, cover: GridCover, xs):
    """sup of W over the cells related to each point: the <= 2^dim cells of
    the index block of [x, x] in the domain, inf outside it (NaN included),
    where the only related cell is the overflow cell.  ``xs`` is one point
    (a float back) or an (N, dim) array (an array back)."""
    xs = np.asarray(xs, dtype=float)
    pts = np.atleast_2d(xs)
    inside = np.all((cover.lower <= pts) & (pts <= cover.upper), axis=1)
    pts = np.where(inside[:, None], pts, cover.lower)  # keep the index casts finite
    lo_idx, hi_idx, _, _ = cover.box_index_ranges(pts.T, pts.T)
    bound = np.full(len(pts), -INF)
    for corner in itertools.product((False, True), repeat=cover.dim):  # the block spans <= 2 cells per axis
        cells = np.ravel_multi_index(tuple(h if c else l for c, l, h in zip(corner, lo_idx, hi_idx)), cover.counts)
        bound = np.maximum(bound, W[cells])
    bound[~inside] = INF
    return float(bound[0]) if xs.ndim < 2 else bound
