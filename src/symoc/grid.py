"""Uniform cell covers of hyper-rectangular domains and input grids.

Cells are closed hyper-intervals of width eta centered on the lattice
lower + i * eta, with the first and last cell per axis clipped to the domain,
so neighbouring cells overlap exactly on their shared faces.  One rule maps
coordinates to cells: a closed box meets the cells of the index block
``box_index_ranges`` returns.  A domain point x thus belongs to every cell of
the block of [x, x] (two per axis on a face, or within rounding of one); the
deterministic quantizer picks the block's last cell, the one whose center is
nearest, rounding up at midpoints.  Points outside the domain belong to a
dedicated overflow cell.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

_COUNT_GUARD = 1e-9  # absorbs float jitter in (upper-lower)/eta near integers


class GridCover:
    def __init__(self, lower, upper, eta):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        self.eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.shape != self.eta.shape:
            raise InputError("bounds and eta must have matching dimensions")
        if not np.isfinite([self.lower, self.upper, self.eta]).all():
            raise InputError("bounds and eta must be finite")
        if np.any(self.eta <= 0) or np.any(self.upper <= self.lower):
            raise InputError("need eta > 0 and upper > lower")
        self.dim = self.lower.size
        if np.any((self.upper - self.lower) / 2.0**62 >= self.eta):  # eta * 2**62 may overflow
            raise InputError("eta gives 2**62 or more cells along an axis")
        counts = [int(math.ceil(r + 0.5 - _COUNT_GUARD)) for r in (self.upper - self.lower) / self.eta]
        self.counts = np.array(counts, dtype=np.int64)
        self.n_cells = math.prod(counts)  # exact: a loader rejects covers too large to build
        if self.n_cells >= 2**63:
            raise InputError(f"{self.n_cells} cells: a flat cell index needs fewer than 2**63")
        self.overflow = self.n_cells
        self._strides = np.append(np.cumprod(self.counts[:0:-1])[::-1], 1)

    @property
    def n_states(self) -> int:
        """Cells plus the overflow cell."""
        return self.n_cells + 1

    @property
    def max_diameter(self) -> float:
        """Infinity-norm diameter of an unclipped cell."""
        return float(self.eta.max())

    def centers_all(self) -> np.ndarray:
        """(n_cells, dim) array of all cell centers, in flat index order."""
        axes = [self.lower[i] + self.eta[i] * np.arange(self.counts[i]) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def cell_boxes(self, cells=None):
        """Closed extents (lo, hi) of ``cells`` (all cells when None), clipped
        to the domain, as two (len(cells), dim) arrays."""
        if cells is None:
            centers = self.centers_all()
        else:
            multi = np.asarray(cells, dtype=np.int64)[:, None] // self._strides % self.counts
            centers = self.lower + multi * self.eta
        return np.maximum(centers - self.eta / 2, self.lower), np.minimum(centers + self.eta / 2, self.upper)

    def _index(self, x, last: bool):
        """Per-axis index of the last (``last``) or the first cell whose
        closed extent reaches coordinate x, clipped to the grid; x and the
        index are coordinate-first (dim, ...) arrays."""
        lower, eta, counts = (self._per_axis(v, x) for v in (self.lower, self.eta, self.counts))
        if last:
            idx = np.floor((x - lower) / eta + 0.5).astype(np.int64)
        else:
            idx = np.ceil((x - lower) / eta - 0.5).astype(np.int64)
        return np.clip(idx, 0, counts - 1, out=idx)

    @staticmethod
    def _per_axis(v, x):
        """The per-axis vector v shaped to broadcast along the first axis of
        the coordinate-first array x."""
        return v.reshape((-1,) + (1,) * (np.ndim(x) - 1))

    def quantize(self, x):
        """Deterministic point-to-cell map: the last cell of the block of
        [x, x]; overflow unless lower <= x <= upper on every axis (NaN too).
        ``x`` is one point (an int back) or an (N, dim) array (an array back)."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        inside = np.all((self.lower <= pts) & (pts <= self.upper), axis=1)
        cells = self._strides @ self._index(np.where(inside[:, None], pts, self.lower).T, last=True)
        cells[~inside] = self.overflow
        return int(cells[0]) if x.ndim < 2 else cells

    def box_index_ranges(self, lo, hi):
        """Index ranges of cells meeting closed boxes, vectorized.

        ``lo``/``hi`` are coordinate-first (dim, ...) arrays of box bounds.
        Returns (lo_idx, hi_idx, escape, empty) where the boxes meet exactly
        the cells with multi-index in [lo_idx, hi_idx] per axis (two (dim,
        ...) arrays), escape flags boxes that stick out of the domain (their
        successors include the overflow cell) and empty flags boxes that
        miss the domain.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        lower, upper = self._per_axis(self.lower, lo), self._per_axis(self.upper, lo)
        escape = np.any(lo < lower, axis=0) | np.any(hi > upper, axis=0)
        lo_eff = np.maximum(lo, lower)
        hi_eff = np.minimum(hi, upper)
        empty = np.any(hi_eff < lo_eff, axis=0)
        return self._index(lo_eff, last=False), self._index(hi_eff, last=True), escape, empty

    def geometry_lines(self):
        fmt = lambda arr: " ".join(repr(float(v)) for v in arr)
        return [
            f"dim = {self.dim}",
            f"lower = {fmt(self.lower)}",
            f"upper = {fmt(self.upper)}",
            f"eta = {fmt(self.eta)}",
            f"counts = {' '.join(str(int(c)) for c in self.counts)}",
        ]


class InputGrid:
    """Finite set of representative inputs covering a union of hyper-intervals.

    Each interval piece is discretized by an endpoints-inclusive uniform grid
    with per-axis step at most mu; the covering radius (infinity norm) is half
    the largest realized step.
    """

    def __init__(self, pieces, mu, states=1):
        """``states`` is the cell count of the cover the inputs pair with;
        pair ids are int32, so states x inputs must stay below 2**31, which
        is checked, like the representative count, before any is built."""
        self.mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if np.any(self.mu <= 0):
            raise InputError("mu must be positive")
        self.pieces = []
        counts = []
        total = 0.0  # representatives so far, as a float: a huge count is inf, not an overflow
        for lo, hi in pieces:
            lo = np.atleast_1d(np.asarray(lo, dtype=float))
            hi = np.atleast_1d(np.asarray(hi, dtype=float))
            if lo.shape != self.mu.shape or np.any(hi < lo):
                raise InputError("invalid input interval piece")
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                raise InputError("input interval piece bounds must be finite")
            self.pieces.append((lo, hi))
            with np.errstate(over="ignore"):
                steps = np.maximum(np.ceil((hi - lo) / self.mu - _COUNT_GUARD), 1.0)
            counts.append(np.where(hi > lo, steps + 1, 1.0))
            total += math.prod(counts[-1])
            if not total < 2**31:  # NaN fails too
                mu = " ".join(map(repr, self.mu.tolist()))
                raise InputError(f"mu = {mu} needs at least {total:.3g} input representatives; the limit is 2**31 - 1")
        if not self.pieces:
            raise InputError("need at least one input interval piece")
        if states * int(total) >= 2**31:
            raise InputError(f"{states} states x {int(total)} inputs: need fewer than 2**31 pairs")
        reps = []
        radius = 0.0
        for (lo, hi), count in zip(self.pieces, counts):
            axes = [np.linspace(a, b, int(c)) if b > a else np.array([a]) for a, b, c in zip(lo, hi, count)]
            radius = max([radius] + [(b - a) / (c - 1) / 2 for a, b, c in zip(lo, hi, count) if b > a])
            mesh = np.meshgrid(*axes, indexing="ij")
            reps.append(np.stack([m.ravel() for m in mesh], axis=1))
        self.representatives = np.concatenate(reps, axis=0)
        self.radius = float(radius)
        self.dim = self.representatives.shape[1]

    def __len__(self):
        return len(self.representatives)

    def geometry_lines(self):
        fmt = lambda arr: " ".join(repr(float(v)) for v in arr)
        lines = [f"mu = {fmt(self.mu)}", f"input_count = {len(self)}"]
        for lo, hi in self.pieces:
            lines.append(f"input_piece = {fmt(lo)} ; {fmt(hi)}")
        return lines

