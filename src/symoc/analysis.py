"""Exact oracles and convergence diagnostics.

The chaotic-map benchmark admits an exact minimum-time value function: the
sublevel set of level T+1 is the target united with the preimage of level T
under p -> 4p(1-p), and preimages of open intervals have closed-form endpoints
(1 +- sqrt(1-c)) / 2.  Sublevel sets are kept as sorted unions of open
intervals, merged with a tiny gap tolerance.

The hypograph distance quantifies how far an upper approximation W sits above
a reference V: the smallest eps such that the sampled hypograph of W lies in
the eps-neighborhood (infinity metric on X x R) of the hypograph of V.
Infinite values are capped at a common ceiling so the metric lives on a
compact window.
"""

from __future__ import annotations

import math

import numpy as np

from .core import INF
from .errors import InputError, SoundnessAlarm

_MERGE_TOL = 1e-12
HYPO_MAX_POINTS = 10**6  # reference grid points; the distance costs samples x points
HYPO_MAX_INTERVALS = 10**5  # intervals of one exact sublevel set; most targets double them per level
_HYPO_CHUNK = 1 << 22  # sample-by-point pairs compared at a time


def _merge(intervals):
    """Sort and merge open intervals, closing sub-tolerance gaps."""
    intervals = [(a, b) for a, b in intervals if b > a]
    intervals.sort()
    out = []
    for a, b in intervals:
        if out and a <= out[-1][1] + _MERGE_TOL:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def _preimage_interval(a, b):
    """Preimage of the open interval (a, b) under p -> 4p(1-p) on [0, 1]."""
    sa = math.sqrt(1.0 - a)
    sb = math.sqrt(1.0 - b)
    return [((1.0 - sa) / 2.0, (1.0 - sb) / 2.0), ((1.0 + sb) / 2.0, (1.0 + sa) / 2.0)]


def logistic_exact_sublevels(D, T_max: int):
    """Sublevel sets of the exact minimum-time value for target D = (a, b):
    element T is the interval union where the value is at most T, for T up
    to ``T_max`` or to the last level before one equal to it (every later
    level equals it too).  A level of more than HYPO_MAX_INTERVALS
    intervals is an input error."""
    a, b = float(D[0]), float(D[1])
    if not (0.0 < a < b < 1.0):
        raise InputError("target interval must lie strictly inside (0, 1)")
    if T_max < 0:
        raise InputError("T_max must be non-negative")
    levels = [[(a, b)]]
    for T in range(1, T_max + 1):
        pre = []
        for lo, hi in levels[-1]:
            pre.extend(_preimage_interval(lo, hi))
        level = _merge([(a, b)] + pre)
        if level == levels[-1]:
            break
        if len(level) > HYPO_MAX_INTERVALS:
            raise InputError(
                f"exact sublevel set {T} has {len(level)} intervals; the limit is {HYPO_MAX_INTERVALS}"
            )
        levels.append(level)
    return levels


def logistic_exact_values(sublevels, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    out = np.full(xs.shape, INF)
    todo = np.ones(xs.shape, dtype=bool)
    for T, intervals in enumerate(sublevels):
        if not np.any(todo):
            break
        starts = np.array([a for a, _ in intervals])
        ends = np.array([b for _, b in intervals])
        if len(starts) == 0:
            continue
        pos = np.searchsorted(starts, xs, side="right") - 1
        ok = (pos >= 0) & todo
        idx = np.clip(pos, 0, len(starts) - 1)
        ok &= (xs > starts[idx]) & (xs < ends[idx])
        out[ok] = float(T)
        todo &= ~ok
    return out


def hypo_distance(xs, Ws, v_sampler, eps_grid: float):
    """Smallest eps with (grid x R) inters. hypo W inside the eps-ball of
    hypo V, both capped at a common ceiling.

    ``v_sampler`` evaluates the reference on arrays; it is sampled on the W
    grid refined to spacing ``eps_grid``.  Returns (eps, cap, cap_active).
    Raises a soundness alarm if W < V anywhere on the W grid.
    """
    xs = np.asarray(xs, dtype=float)
    Ws = np.asarray(Ws, dtype=float)
    if xs.ndim != 1 or xs.shape != Ws.shape:
        raise InputError("need matching 1-d sample arrays")
    V_at_xs = np.asarray(v_sampler(xs), dtype=float)
    if np.any(Ws < V_at_xs):
        worst = int(np.argmax(V_at_xs - Ws))
        raise SoundnessAlarm(
            f"upper bound below reference at x = {xs[worst]}: {Ws[worst]} < {V_at_xs[worst]}"
        )
    steps = float(xs.max() - xs.min()) / eps_grid
    if not steps <= HYPO_MAX_POINTS - 1:
        raise InputError(
            f"--eps-grid {eps_grid!r} needs {steps + 1:.3g} reference points; the limit is {HYPO_MAX_POINTS}"
        )
    ys = np.union1d(xs, np.linspace(xs.min(), xs.max(), max(math.ceil(steps) + 1, 2)))
    Vs = np.asarray(v_sampler(ys), dtype=float)

    finite = np.concatenate([Ws[np.isfinite(Ws)], Vs[np.isfinite(Vs)]])
    cap = min(2.0 * (float(finite.max()) if len(finite) else 1.0) + 1.0, float(np.finfo(float).max))
    cap_active = bool(np.any(Ws > cap) or np.any(Vs > cap))
    Wc = np.minimum(Ws, cap)
    Vc = np.minimum(Vs, cap)

    eps = 0.0
    chunk = max(_HYPO_CHUNK // len(ys), 1)
    for start in range(0, len(xs), chunk):
        xw = xs[start : start + chunk, None]
        ww = Wc[start : start + chunk, None]
        dx = np.abs(xw - ys[None, :])
        dv = np.maximum(ww - Vc[None, :], 0.0)
        eps = max(eps, float(np.maximum(dx, dv).min(axis=1).max()))
    return eps, float(cap), cap_active


def hypograph_csv(xs, values, label: str) -> str:
    lines = [f"x,{label}"]
    for x, v in zip(xs, values):
        lines.append(f"{x!r},{'inf' if v == INF else repr(float(v))}")
    return "\n".join(lines) + "\n"


def sublevels_csv(sublevels) -> str:
    lines = ["T,a,b"]
    for T, intervals in enumerate(sublevels):
        for a, b in intervals:
            lines.append(f"{T},{a!r},{b!r}")
    return "\n".join(lines) + "\n"
