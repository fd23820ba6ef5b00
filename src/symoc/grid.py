"""Uniform cell covers of hyper-rectangular domains and input grids.

Cells are closed hyper-intervals of width eta centered on the lattice
lower + i * eta, with the first and last cell per axis clipped to the domain,
so neighbouring cells overlap exactly on their shared faces.  The membership
relation (``members``) is therefore multi-valued on faces; the deterministic
quantizer picks the cell whose center is nearest, rounding up at midpoints.
Points outside the domain belong to a dedicated overflow cell.
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
        if np.any(self.eta <= 0) or np.any(self.upper <= self.lower):
            raise InputError("need eta > 0 and upper > lower")
        self.dim = self.lower.size
        ratio = (self.upper - self.lower) / self.eta
        self.counts = np.array(
            [int(math.ceil(r + 0.5 - _COUNT_GUARD)) for r in ratio], dtype=np.int64
        )
        self.n_cells = int(np.prod(self.counts))
        self.overflow = self.n_cells
        self._strides = np.ones(self.dim, dtype=np.int64)
        for i in range(self.dim - 2, -1, -1):
            self._strides[i] = self._strides[i + 1] * self.counts[i + 1]

    @property
    def n_states(self) -> int:
        """Cells plus the overflow cell."""
        return self.n_cells + 1

    @property
    def max_diameter(self) -> float:
        """Infinity-norm diameter of an unclipped cell."""
        return float(self.eta.max())

    def flatten(self, multi) -> int:
        return int(np.dot(np.asarray(multi, dtype=np.int64), self._strides))

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

    def in_domain(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def quantize(self, x) -> int:
        """Deterministic point-to-cell map; overflow outside the domain."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.in_domain(x):
            return self.overflow
        idx = np.floor((x - self.lower) / self.eta + 0.5).astype(np.int64)
        np.clip(idx, 0, self.counts - 1, out=idx)
        return self.flatten(idx)

    def members(self, x):
        """All cells whose closed extent contains x (1 to 2^dim of them);
        empty outside the domain."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.in_domain(x):
            return []
        per_axis = []
        for i in range(self.dim):
            base = int(np.floor((x[i] - self.lower[i]) / self.eta[i] + 0.5))
            cand = []
            for j in (base - 1, base, base + 1):
                if 0 <= j < self.counts[i]:
                    c = self.lower[i] + j * self.eta[i]
                    if abs(x[i] - c) <= self.eta[i] / 2:
                        cand.append(j)
            per_axis.append(cand)
        out = [0]
        for i in range(self.dim):
            out = [o + j * int(self._strides[i]) for o in out for j in per_axis[i]]
        return sorted(out)

    def box_index_ranges(self, lo, hi):
        """Index ranges of cells meeting closed boxes, vectorized.

        ``lo``/``hi`` are (N, dim) arrays.  Returns (lo_idx, hi_idx, escape)
        where the boxes meet exactly the cells with multi-index in
        [lo_idx, hi_idx] per axis, and escape flags boxes that stick out of
        the domain (their successors include the overflow cell).
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        escape = np.any(lo < self.lower, axis=1) | np.any(hi > self.upper, axis=1)
        lo_eff = np.maximum(lo, self.lower)
        hi_eff = np.minimum(hi, self.upper)
        empty = np.any(hi_eff < lo_eff, axis=1)
        lo_idx = np.ceil((lo_eff - self.lower) / self.eta - 0.5).astype(np.int64)
        hi_idx = np.floor((hi_eff - self.lower) / self.eta + 0.5).astype(np.int64)
        np.clip(lo_idx, 0, self.counts - 1, out=lo_idx)
        np.clip(hi_idx, 0, self.counts - 1, out=hi_idx)
        return lo_idx, hi_idx, escape, empty

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

    def __init__(self, pieces, mu):
        self.mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if np.any(self.mu <= 0):
            raise InputError("mu must be positive")
        self.pieces = []
        reps = []
        radius = 0.0
        for lo, hi in pieces:
            lo = np.atleast_1d(np.asarray(lo, dtype=float))
            hi = np.atleast_1d(np.asarray(hi, dtype=float))
            if lo.shape != self.mu.shape or np.any(hi < lo):
                raise InputError("invalid input interval piece")
            self.pieces.append((lo, hi))
            axes = []
            for i in range(lo.size):
                span = hi[i] - lo[i]
                if span == 0.0:
                    axes.append(np.array([lo[i]]))
                    continue
                count = int(math.ceil(span / self.mu[i] - _COUNT_GUARD)) + 1
                axes.append(np.linspace(lo[i], hi[i], count))
                radius = max(radius, span / (count - 1) / 2)
            mesh = np.meshgrid(*axes, indexing="ij")
            reps.append(np.stack([m.ravel() for m in mesh], axis=1))
        if not reps:
            raise InputError("need at least one input interval piece")
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

