"""Attainable-set over-approximation for sampled perturbed plants.

One sampling period tau is processed in k substeps.  Per substep, each
hyper-interval (center, radius) is propagated by integrating the nominal
vector field from the center and the growth-bound radius dynamics
r' = A1 r + w from the radius; gamma is added to every radius component per
substep as a trusted budget for integration and rounding errors.  The radius
dynamics does not depend on the state, so all intervals share one radius.
Between substeps, while the radius exceeds theta * ||eta||, every interval is
bisected along the widest axis, a whole level at a time; a level that would
take the interval count above MAX_SPLITS is not made, and the input is
capped instead (all its cells route to overflow).

The returned union over-approximates the attainable set of the perturbed
plant provided the bounds A0, A1 are valid on the safety hull (all trajectory
segments from the domain stay inside it by construction of the hull).  The
reported slack bounds the distance from any point of the union to the true
attainable set: per interval it is ||r + b|| where b tracks how far the
interval's center may have drifted from an attainable point (zero until a
bisection re-centers it; afterwards propagated through the disturbance-free
growth dynamics, since nominal trajectories diverge no faster).

The radius, drift, splits and split cap depend on no cell and no input, so
a ReachPlan fixes them once; only the centers are integrated per input.
States are coordinate-first, (dim, ...) arrays with the coordinate on the
first axis, and the plant field writes its derivative in place, so the one
in-place RK4 here steps the cell centers (as (dim, branches, cells)
chunks of CHUNK_CELLS cells), the radius and the closed-loop runs of
``SampledSystem.step`` alike.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SoundnessAlarm

log = logging.getLogger(__name__)

SUBSTEPS = 5  # RK4 steps per reach substep: every preset gamma is sized for this step count
MAX_SPLITS = 64  # intervals per input; past it the input is capped rather than exhaust memory
CHUNK_CELLS = 16_384  # cells integrated at once: their RK4 stage buffers stay within a 2 MiB L2 cache


def rk4(f, x, u, t, steps):
    """Classical fixed-step Runge-Kutta for x' = f(x, u), in place on x.

    The field writes its derivative at x into ``out`` as ``f(x, u, out)``;
    every stage lives in one of five buffers shaped like x, and each step
    keeps the operation order of x + (h/6) (k1 + 2 k2 + 2 k3 + k4).
    Returns x."""
    h = t / steps
    k1, k2, k3, k4, y = (np.empty_like(x) for _ in range(5))
    for _ in range(steps):
        f(x, u, k1)
        np.multiply(k1, 0.5 * h, out=y)
        y += x
        f(y, u, k2)
        np.multiply(k2, 0.5 * h, out=y)
        y += x
        f(y, u, k3)
        np.multiply(k3, h, out=y)
        y += x
        f(y, u, k4)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        x += k2
    return x


@dataclass
class SampledSystem:
    """Sampled perturbed plant x' in f(x,u) + [-w, w] with certified bounds.

    The field is coordinate-first and writes in place: ``f(x, u, out)``
    stores f(x, u) in ``out``, where x and out are (dim, ...) arrays with at
    least one batch axis after the coordinate and u is (input_dim, ...),
    its batch axes broadcasting against x's.  A0 bounds |f| + w on the
    safety hull, A1 bounds the Jacobian of f there (signed on the diagonal,
    absolute off-diagonal), K is the domain box and Kprime the hull K
    expanded by ``kprime_margin`` per axis.
    """

    f: callable
    w: np.ndarray
    tau: float
    A0: np.ndarray
    A1: np.ndarray
    k_lower: np.ndarray
    k_upper: np.ndarray
    kprime_margin: float
    eps: float
    dim: int = field(init=False)

    def __post_init__(self):
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        self.A0 = np.atleast_1d(np.asarray(self.A0, dtype=float))
        self.A1 = np.asarray(self.A1, dtype=float)
        self.k_lower = np.atleast_1d(np.asarray(self.k_lower, dtype=float))
        self.k_upper = np.atleast_1d(np.asarray(self.k_upper, dtype=float))
        self.dim = self.w.size
        for name in ("tau", "w", "A0", "A1", "eps", "kprime_margin", "k_lower", "k_upper"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InputError(f"system parameter {name} must be finite")
        if self.tau <= 0:
            raise InputError("sampling time must be positive")
        if np.any(self.w < 0) or np.any(self.A0 < 0):
            raise InputError("w and A0 must be non-negative")
        if self.A1.shape != (self.dim, self.dim):
            raise InputError("A1 must be square of the state dimension")
        off = self.A1 - np.diag(np.diag(self.A1))
        if np.any(off < 0):
            raise InputError("A1 off-diagonal entries must be non-negative")
        if self.eps <= 0 or self.kprime_margin <= 0:
            raise InputError("eps and the hull margin must be positive")
        # every solution from K stays in K' over one sampling period
        if self.tau * float(self.A0.max()) > self.kprime_margin:
            raise InputError(
                "hull too small: tau * ||A0|| exceeds the K' margin, so "
                "trajectories from the domain may leave the safety hull"
            )

    @property
    def hull_lower(self):
        return self.k_lower - self.kprime_margin - self.eps

    @property
    def hull_upper(self):
        return self.k_upper + self.kprime_margin + self.eps

    def substep_escape_guard_ok(self, k: int) -> bool:
        """Whether intra-substep excursions provably stay within the eps
        margin between the substep-boundary escape checks."""
        return self.tau / k * float(self.A0.max()) <= self.eps

    def step(self, x, u, disturbances):
        """One sampling period of x' = f(x,u) + d(t), d piecewise constant with
        one value per row of ``disturbances``, 2 RK4 steps a piece.  With (runs,
        dim) states, (runs, input_dim) inputs and (pieces, runs, dim)
        disturbances it steps each run as it steps that run alone; one state,
        input and (pieces, dim) disturbances give one state back."""
        x = np.asarray(x, dtype=float)
        y = x.reshape(-1, self.dim).T.copy()  # coordinate-first (dim, runs)
        u = np.atleast_2d(np.asarray(u, dtype=float)).T
        d = np.asarray(disturbances, dtype=float).reshape(len(disturbances), -1, self.dim).transpose(0, 2, 1)

        def perturbed(y, piece, out):
            self.f(y, u, out)
            out += piece

        for piece in d:
            rk4(perturbed, y, piece, self.tau / len(d), 2)
        return y.T.reshape(x.shape)


def integrate_nominal(sys: SampledSystem, x, u, t, substeps):
    """Nominal flow (disturbance excluded) of x' = f(x, u) over time t, in
    place on the coordinate-first states x (dim, ...); returns x."""
    if t <= 0 or substeps < 1:
        raise InputError("need t > 0 and substeps >= 1")
    with np.errstate(over="ignore", invalid="ignore"):  # checked by name below
        rk4(sys.f, x, u, t, substeps)
    if not np.all(np.isfinite(x)):
        raise SoundnessAlarm("nominal integration diverged")
    return x


def growth_bound(sys: SampledSystem, r0, t, substeps, with_disturbance=True):
    """Radius dynamics r' = A1 r + w integrated over time t; never negative."""
    r = np.array(r0, dtype=float)
    if np.any(r < 0):
        raise InputError("radius must be non-negative")
    w = sys.w if with_disturbance else np.zeros(sys.dim)
    a1t = sys.A1.T

    def radius_field(r, w, out):
        np.matmul(r, a1t, out=out)
        out += w

    with np.errstate(over="ignore", invalid="ignore"):  # linear: only too large inputs overflow
        rk4(radius_field, r, w, t, substeps)
    if not np.all(np.isfinite(r)):
        raise InputError("the growth-bound radius overflows: the cell widths, w or A1 are too large")
    return np.maximum(r, 0.0)


def check_reach_parameters(k, theta, gamma):
    """Reject substep counts below 1, non-positive split thresholds and
    negative or infinite error budgets (NaN included)."""
    if not (k >= 1 and theta > 0 and 0 <= gamma < np.inf):
        raise InputError(f"need k >= 1, theta > 0, 0 <= gamma < inf; got k={k}, theta={theta}, gamma={gamma}")


class ReachPlan:
    """The part of reach that is the same for every cell and input.

    The radius and drift dynamics depend on neither, so from cells of radius
    ``r0`` the plan fixes, per substep, the bisections made before it (an
    axis and an offset each) and the radius after it; then the branch
    count, the slack and whether the split cap hit.  ``eta_norm`` is the
    cover's cell width in the split threshold theta * eta_norm.
    """

    def __init__(self, sys: SampledSystem, r0, k, theta, gamma, eta_norm):
        check_reach_parameters(k, theta, gamma)
        k = int(k)
        self.sys = sys
        self.t_sub = sys.tau / k
        self.splits, self.radii = [], []
        self.branches, self.capped = 1, False
        r = np.array(r0, dtype=float)
        b = np.zeros(sys.dim)
        for step in range(k):
            level = []
            while step and float(r.max()) > theta * eta_norm:
                if 2 * self.branches > MAX_SPLITS:
                    self.capped = True
                    break
                j = int(np.argmax(r))
                r[j] /= 2.0
                b[j] += r[j]
                self.branches *= 2
                level.append((j, r[j]))
            self.splits.append(level)
            r = growth_bound(sys, r, self.t_sub, SUBSTEPS) + gamma
            b = growth_bound(sys, b, self.t_sub, SUBSTEPS, with_disturbance=False)
            self.radii.append(r[:, None, None].copy())  # to broadcast over (dim, branches, cells)
        self.slack = float((r + b).max())


def attain_over_batch(plan: ReachPlan, centers, u):
    """Over-approximate the attainable sets from the cells (centers +- r0)
    under the constant input u, splitting as the module docstring says.

    ``centers`` is the coordinate-first (dim, cells) array of the cell
    centers; a single cell is a batch of one center.  They are integrated
    CHUNK_CELLS cells at a time, as (dim, branches, cells) arrays.

    Yields, per chunk, (cells, lo, hi, escaped): the chunk's slice of the
    cells, the (dim, branches, cells) bounds of its boxes and a per-cell
    flag for a box that left the safety hull (every flag when the split cap
    hit).
    """
    sys = plan.sys
    hull_lower, hull_upper = sys.hull_lower[:, None, None], sys.hull_upper[:, None, None]
    r = plan.radii[-1]
    if plan.capped:
        log.warning("split cap hit for input %s; routing to overflow", u)
    for start in range(0, centers.shape[1], CHUNK_CELLS):
        cells = slice(start, start + CHUNK_CELLS)
        x = centers[:, None, cells].copy()
        escaped = np.full(x.shape[2], plan.capped)
        for level, radius in zip(plan.splits, plan.radii):
            for j, offset in level:
                half = x.shape[1]
                x = np.concatenate([x, x], axis=1)
                x[j, :half] -= offset
                x[j, half:] += offset
            integrate_nominal(sys, x, u, plan.t_sub, SUBSTEPS)
            escaped |= np.any((x - radius < hull_lower) | (x + radius > hull_upper), axis=(0, 1))
        lo = x - r
        x += r
        yield cells, lo, x, escaped
