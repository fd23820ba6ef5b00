"""Built-in plant registry: the three shipped benchmark systems.

Each entry carries the continuous dynamics (or discrete map), certified
bounds, default cost shape and the named parameter presets p1..p4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abstraction import MapReach, SampledReach
from .errors import InputError
from .grid import GridCover, InputGrid
from .reach import SampledSystem
from .sets import Box, Complement, EmptySet, QuadraticSublevel, SetPredicate


KAPPA = 0.01  # pendulum friction coefficient


def pendulum_field(x, u, out):
    """(x2, sin x1 + a cos x1 - 2 kappa x2) at the coordinate-first states x,
    a = u[0], written into out."""
    x1, x2 = x
    f1, f2 = out
    np.cos(x1, out=f1)
    f1 *= u[0]
    np.sin(x1, out=f2)
    f2 += f1
    np.multiply(x2, 2.0 * KAPPA, out=f1)
    f2 -= f1
    np.copyto(f1, x2)


def chauffeur_field(x, u, out):
    """(-x2 a, x1 a - 1) at the coordinate-first states x, a = u[0],
    written into out."""
    x1, x2 = x
    f1, f2 = out
    np.negative(x2, out=f1)
    f1 *= u[0]
    np.multiply(x1, u[0], out=f2)
    f2 -= 1.0


class LogisticMap:
    """The chaotic interval map p -> 4 p (1 - p) on [0, 1]: a plant without
    input or disturbance (w = 0), whose step ignores both."""

    w = np.zeros(1)

    def step(self, x, u=None, disturbances=None):
        x = np.asarray(x, dtype=float)
        return 4.0 * x * (1.0 - x)

    def image_of_box(self, lo, hi):
        """Exact image intervals of the boxes [lo, hi] (arrays of equal shape),
        padded outward by two float ulps so rounding never shrinks one below
        the real image."""
        at_lo, at_hi = self.step(lo), self.step(hi)
        bot = np.minimum(at_lo, at_hi)
        top = np.where((lo <= 0.5) & (0.5 <= hi), 1.0, np.maximum(at_lo, at_hi))
        for _ in range(2):
            bot = np.nextafter(bot, -np.inf)
            top = np.nextafter(top, np.inf)
        return np.maximum(bot, 0.0), np.minimum(top, 1.0)


@dataclass
class SystemSpec:
    name: str
    k_lower: np.ndarray
    k_upper: np.ndarray
    input_pieces: list
    cost_kind: str
    target: SetPredicate
    obstacle: SetPredicate
    theta: float = 1.0
    ode: dict = None  # the SampledSystem keywords but the domain K; None for a map
    presets: dict = field(default_factory=dict)  # name -> (eta, mu, k, gamma)

    def sampled_system(self) -> SampledSystem:
        return SampledSystem(k_lower=self.k_lower, k_upper=self.k_upper, **self.ode)

    def build(self, cover: GridCover, inputs: InputGrid, k: int, gamma: float):
        """(plant, reach): the plant and its transition over-approximator on
        ``cover`` and ``inputs``; a sampled plant reaches in ``k`` substeps
        with the error budget ``gamma``, a map by exact images."""
        if self.ode is None:
            plant = LogisticMap()
            return plant, MapReach(plant, cover)
        plant = self.sampled_system()
        return plant, SampledReach(plant, cover, inputs, k, self.theta, gamma)


def _pendulum_spec() -> SystemSpec:
    two_pi = 2.0 * np.pi
    return SystemSpec(
        name="pendulum",
        k_lower=np.array([-two_pi, -3.0]),
        k_upper=np.array([two_pi, 3.0]),
        input_pieces=[(np.array([-2.0]), np.array([2.0]))],
        cost_kind="energy_entry",
        target=QuadraticSublevel([[63.0, 6.0], [6.0, 56.0]], [0.0, 0.0], 42.0),
        obstacle=Complement(Box([-two_pi, -3.0], [two_pi, 3.0], open_=True)),
        ode=dict(
            f=pendulum_field,
            tau=0.2,
            w=np.array([0.0, 0.1]),
            A0=np.array([4.0, 2.5]),
            A1=np.array([[0.0, 1.0], [2.25, -0.02]]),
            kprime_margin=0.9,
            eps=0.1,
        ),
        presets={
            "p1": (np.array([0.08, 0.08]), np.array([0.2]), 1, 6.3e-7),
            "p2": (np.array([0.04, 0.04]), np.array([0.15]), 2, 9.9e-9),
            "p3": (np.array([0.02, 0.02]), np.array([0.1]), 3, 8.7e-10),
            "p4": (np.array([0.01, 0.01]), np.array([0.05]), 4, 1.6e-10),
        },
    )


def _chauffeur_spec() -> SystemSpec:
    return SystemSpec(
        name="chauffeur",
        k_lower=np.array([-5.0, -5.0]),
        k_upper=np.array([5.0, 5.0]),
        input_pieces=[(np.array([-1.0]), np.array([1.0]))],
        cost_kind="min_time",
        target=QuadraticSublevel([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.9),
        obstacle=Complement(Box([-5.0, -5.0], [5.0, 5.0], open_=True)),
        theta=2.0,
        ode=dict(
            f=chauffeur_field,
            tau=0.1,
            w=np.array([0.3, 0.3]),
            A0=np.array([6.4, 7.4]),  # |x1 a - 1| + w2 reaches 6.1 + 1 + 0.3 on the hull
            A1=np.array([[0.0, 1.0], [1.0, 0.0]]),
            kprime_margin=1.0,
            eps=0.1,
        ),
        presets={
            "p1": (np.array([0.03, 0.03]), np.array([0.2]), 1, 0.0),
            "p2": (np.array([0.02, 0.02]), np.array([0.1]), 2, 0.0),
            "p3": (np.array([0.015, 0.015]), np.array([0.1]), 3, 0.0),
            "p4": (np.array([0.01, 0.01]), np.array([0.05]), 4, 0.0),
        },
    )


def _logistic_spec() -> SystemSpec:
    return SystemSpec(
        name="logistic",
        k_lower=np.array([0.0]),
        k_upper=np.array([1.0]),
        input_pieces=[(np.array([0.0]), np.array([0.0]))],
        cost_kind="min_time",
        target=Box([0.415], [0.69], open_=True),
        obstacle=EmptySet(),
        presets={
            "N40": (np.array([1.0 / 40.0]), np.array([1.0]), 1, 0.0),
            "N60": (np.array([1.0 / 60.0]), np.array([1.0]), 1, 0.0),
            "N85": (np.array([1.0 / 85.0]), np.array([1.0]), 1, 0.0),
            "N400": (np.array([1.0 / 400.0]), np.array([1.0]), 1, 0.0),
        },
    )


REGISTRY = {
    "pendulum": _pendulum_spec,
    "chauffeur": _chauffeur_spec,
    "logistic": _logistic_spec,
}


def get_system(name: str) -> SystemSpec:
    try:
        return REGISTRY[name]()
    except KeyError:
        raise InputError(f"unknown dynamics {name!r}; choose from {sorted(REGISTRY)}") from None
