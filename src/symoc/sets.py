"""Set predicates for target and obstacle regions.

Every predicate answers two queries on closed hyper-rectangles [lo, hi], each
over (N, dim) bound arrays, with plain floating-point comparisons:

* ``cell_inside_batch``   -- the whole closed cell is contained in the set,
* ``cell_disjoint_batch`` -- the closed cell does not meet the set.

A point x is the cell [x, x].  A quadratic sublevel set needs a positive
semi-definite form, so that its maximum over a cell is at a vertex;
``cell_disjoint_batch`` is conservative for it: it may report False for a
cell that is in fact disjoint, never the converse.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _as2d(lo, hi):
    return np.atleast_2d(np.asarray(lo, dtype=float)), np.atleast_2d(np.asarray(hi, dtype=float))


class SetPredicate:
    def cell_inside_batch(self, lo, hi):
        raise NotImplementedError

    def cell_disjoint_batch(self, lo, hi):
        raise NotImplementedError


class EmptySet(SetPredicate):
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
        eig = np.linalg.eigvalsh((self.Q + self.Q.T) / 2.0)
        # eigvalsh errs by ulps of the largest eigenvalue: a singular form may read < 0
        if eig[0] < -8 * len(eig) * np.finfo(float).eps * np.abs(eig).max():
            raise InputError("quadratic form is not positive semi-definite")

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

    def cell_inside_batch(self, lo, hi):
        return self.part.cell_disjoint_batch(lo, hi)

    def cell_disjoint_batch(self, lo, hi):
        return self.part.cell_inside_batch(lo, hi)
