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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SoundnessAlarm

log = logging.getLogger(__name__)

SUBSTEPS = 5  # RK4 steps per reach substep: every preset gamma is sized for this step count
MAX_SPLITS = 64  # intervals per input; past it the input is capped rather than exhaust memory


def rk4(f, x0, t, steps):
    """Classical fixed-step Runge-Kutta; x0 may carry leading batch axes."""
    x = np.asarray(x0, dtype=float)
    h = t / steps
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@dataclass
class SampledSystem:
    """Sampled perturbed plant x' in f(x,u) + [-w, w] with certified bounds.

    ``f(x, u)`` must be vectorized over a leading batch axis of x.  A0 bounds
    |f| + w on the safety hull, A1 bounds the Jacobian of f there (signed on
    the diagonal, absolute off-diagonal), K is the domain box and Kprime the
    hull K expanded by ``kprime_margin`` per axis.
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
        disturbances it steps each run as it steps that run alone."""
        x = np.asarray(x, dtype=float)
        h = self.tau / len(disturbances)
        for d in disturbances:
            x = rk4(lambda y: self.f(y, u) + d, x, h, 2)
        return x


def integrate_nominal(sys: SampledSystem, x0, u, t, substeps):
    """Nominal flow (disturbance excluded) of x' = f(x, u) over time t."""
    if t <= 0 or substeps < 1:
        raise InputError("need t > 0 and substeps >= 1")
    with np.errstate(over="ignore", invalid="ignore"):  # checked by name below
        out = rk4(lambda x: sys.f(x, u), x0, t, substeps)
    if not np.all(np.isfinite(out)):
        raise SoundnessAlarm("nominal integration diverged")
    return out


def growth_bound(sys: SampledSystem, r0, t, substeps, with_disturbance=True):
    """Radius dynamics r' = A1 r + w integrated over time t; never negative."""
    r0 = np.asarray(r0, dtype=float)
    if np.any(r0 < 0):
        raise InputError("radius must be non-negative")
    w = sys.w if with_disturbance else np.zeros(sys.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # linear: only too large inputs overflow
        out = rk4(lambda r: r @ sys.A1.T + w, r0, t, substeps)
    if not np.all(np.isfinite(out)):
        raise InputError("the growth-bound radius overflows: the cell widths, w or A1 are too large")
    return np.maximum(out, 0.0)


def check_reach_parameters(k, theta, gamma):
    """Reject substep counts below 1, non-positive split thresholds and
    negative or infinite error budgets (NaN included)."""
    if not (k >= 1 and theta > 0 and 0 <= gamma < np.inf):
        raise InputError(f"need k >= 1, theta > 0, 0 <= gamma < inf; got k={k}, theta={theta}, gamma={gamma}")


def attain_over_batch(sys: SampledSystem, centers, r0, u, k, theta, gamma, eta_norm):
    """Over-approximate the attainable sets from cells (centers +- r0) under
    the constant input u, splitting as the module docstring says.

    ``eta_norm`` is the cover's cell width used in the subdivision threshold
    theta * eta_norm.  All cells share one radius r and drift b, so the
    intervals are one (branches, cells, dim) array of centers beside them;
    a single cell is a batch of one center.

    Returns (boxes_lo, boxes_hi, escaped, slack, capped): lists over branches
    of (N, dim) bound arrays, a per-cell escape flag array (some box left the
    safety hull, or the split cap hit), the slack common to all cells and
    whether the split cap hit.
    """
    check_reach_parameters(k, theta, gamma)
    cs = np.asarray(centers, dtype=float)[None]
    r = np.array(r0, dtype=float)
    b = np.zeros(sys.dim)
    t_sub = sys.tau / k
    escaped = np.zeros(cs.shape[1], dtype=bool)
    capped = False
    for step in range(k):
        while step and float(r.max()) > theta * eta_norm:
            if 2 * len(cs) > MAX_SPLITS:
                capped = True
                break
            j = int(np.argmax(r))
            r[j] /= 2.0
            b[j] += r[j]
            half = len(cs)
            cs = np.concatenate([cs, cs])
            cs[:half, :, j] -= r[j]
            cs[half:, :, j] += r[j]
        cs = integrate_nominal(sys, cs, u, t_sub, SUBSTEPS)
        r = growth_bound(sys, r, t_sub, SUBSTEPS) + gamma
        b = growth_bound(sys, b, t_sub, SUBSTEPS, with_disturbance=False)
        escaped |= np.any((cs - r < sys.hull_lower) | (cs + r > sys.hull_upper), axis=(0, 2))
    if capped:
        escaped[:] = True
        log.warning("split cap hit for input %s; routing to overflow", u)
    return list(cs - r), list(cs + r), escaped, float((r + b).max()), capped
