"""Set predicates for target and obstacle regions.

Membership is evaluated with plain floating-point comparisons.  Besides point
membership, every predicate supports two cell-level queries against closed
hyper-rectangles [lo, hi], each over (N, dim) bound arrays:

* ``cell_inside_batch``   -- the whole closed cell is contained in the set,
* ``cell_disjoint_batch`` -- the closed cell does not meet the set.

For quadratic sublevel sets the cell queries assume a positive semi-definite
form (all regions used by the built-in problems are of that shape);
``cell_disjoint_batch`` is then conservative: it may report False for a cell
that is in fact disjoint, never the converse.
"""

from __future__ import annotations

import numpy as np


def _as2d(lo, hi):
    return np.atleast_2d(np.asarray(lo, dtype=float)), np.atleast_2d(np.asarray(hi, dtype=float))


class SetPredicate:
    def contains(self, x) -> bool:
        raise NotImplementedError

    def cell_inside_batch(self, lo, hi):
        raise NotImplementedError

    def cell_disjoint_batch(self, lo, hi):
        raise NotImplementedError


class EmptySet(SetPredicate):
    def contains(self, x):
        return False

    def cell_inside_batch(self, lo, hi):
        return np.zeros(_as2d(lo, hi)[0].shape[0], dtype=bool)

    def cell_disjoint_batch(self, lo, hi):
        return np.ones(_as2d(lo, hi)[0].shape[0], dtype=bool)


class Box(SetPredicate):
    """Hyper-interval [lo, hi], open (strict inequalities) or closed."""

    def __init__(self, lo, hi, open_: bool = False):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        self.open = open_
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ValueError("invalid box bounds")

    def contains(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.open:
            return bool(np.all(self.lo < x) and np.all(x < self.hi))
        return bool(np.all(self.lo <= x) and np.all(x <= self.hi))

    def cell_inside_batch(self, lo, hi):
        lo, hi = _as2d(lo, hi)
        if self.open:
            return np.all(self.lo < lo, axis=1) & np.all(hi < self.hi, axis=1)
        return np.all(self.lo <= lo, axis=1) & np.all(hi <= self.hi, axis=1)

    def cell_disjoint_batch(self, lo, hi):
        lo, hi = _as2d(lo, hi)
        if self.open:
            return np.any(hi <= self.lo, axis=1) | np.any(lo >= self.hi, axis=1)
        return np.any(hi < self.lo, axis=1) | np.any(lo > self.hi, axis=1)


class QuadraticSublevel(SetPredicate):
    """Open sublevel set {x : x^T Q x + b^T x < c} of a convex quadratic."""

    def __init__(self, Q, b, c: float):
        self.Q = np.asarray(Q, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = float(c)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError("Q must be square")
        if self.b.shape != (self.Q.shape[0],):
            raise ValueError("b has wrong shape")

    def value(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(x @ self.Q @ x + self.b @ x)

    def contains(self, x):
        return self.value(x) < self.c

    def _vertex_max_batch(self, lo, hi):
        # convex form attains its maximum over a box at a vertex
        n = lo.shape[1]
        out = np.full(lo.shape[0], -np.inf)
        for mask in range(1 << n):
            pick = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
            v = np.where(pick, hi, lo)
            np.maximum(out, np.einsum("ki,ij,kj->k", v, self.Q, v) + v @ self.b, out=out)
        return out

    def cell_inside_batch(self, lo, hi):
        lo, hi = _as2d(lo, hi)
        return self._vertex_max_batch(lo, hi) < self.c

    def cell_disjoint_batch(self, lo, hi):
        # interval-arithmetic lower bound on the form; sound but conservative
        lo, hi = _as2d(lo, hi)
        n = lo.shape[1]
        lb = np.zeros(lo.shape[0])
        for i in range(n):
            for j in range(n):
                q = self.Q[i, j]
                prods = np.stack(
                    [q * a * b for a in (lo[:, i], hi[:, i]) for b in (lo[:, j], hi[:, j])]
                )
                lb += prods.min(axis=0)
            lb += np.minimum(self.b[i] * lo[:, i], self.b[i] * hi[:, i])
        return lb >= self.c


class UnionSet(SetPredicate):
    def __init__(self, parts):
        self.parts = tuple(parts)

    def contains(self, x):
        return any(p.contains(x) for p in self.parts)

    def cell_inside_batch(self, lo, hi):
        # sufficient condition: the cell fits inside one member
        lo, hi = _as2d(lo, hi)
        out = np.zeros(lo.shape[0], dtype=bool)
        for p in self.parts:
            out |= p.cell_inside_batch(lo, hi)
        return out

    def cell_disjoint_batch(self, lo, hi):
        lo, hi = _as2d(lo, hi)
        out = np.ones(lo.shape[0], dtype=bool)
        for p in self.parts:
            out &= p.cell_disjoint_batch(lo, hi)
        return out


class Complement(SetPredicate):
    def __init__(self, part: SetPredicate):
        self.part = part

    def contains(self, x):
        return not self.part.contains(x)

    def cell_inside_batch(self, lo, hi):
        return self.part.cell_disjoint_batch(lo, hi)

    def cell_disjoint_batch(self, lo, hi):
        return self.part.cell_inside_batch(lo, hi)
