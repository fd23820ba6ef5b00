"""Built-in plant registry: the three shipped benchmark systems.

Each entry carries the continuous dynamics (or discrete map), certified
bounds, default cost shape and the named parameter presets p1..p4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .reach import SampledSystem
from .sets import Box, Complement, EmptySet, QuadraticSublevel, SetPredicate


def pendulum_field(kappa=0.01):
    def f(x, u):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        a = float(np.atleast_1d(u)[0])
        return np.stack([x2, np.sin(x1) + a * np.cos(x1) - 2.0 * kappa * x2], axis=-1)

    return f


def chauffeur_field():
    def f(x, u):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        a = float(np.atleast_1d(u)[0])
        return np.stack([-x2 * a, x1 * a - 1.0], axis=-1)

    return f


class LogisticMap:
    """The chaotic interval map p -> 4 p (1 - p) on [0, 1] (no disturbance)."""

    dim = 1

    def step(self, x, u=None):
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
    kind: str  # "ode" or "map"
    k_lower: np.ndarray
    k_upper: np.ndarray
    input_pieces: list
    cost_kind: str
    target: SetPredicate
    obstacle: SetPredicate
    theta: float = 1.0
    tau: float = 0.0
    w: np.ndarray = None
    A0: np.ndarray = None
    A1: np.ndarray = None
    A2: float = 0.0
    A3: float = 0.0
    kprime_margin: float = 0.0
    eps: float = 0.0
    field_builder: callable = None
    presets: dict = field(default_factory=dict)
    preset_gamma: dict = field(default_factory=dict)

    def sampled_system(self) -> SampledSystem:
        if self.kind != "ode":
            raise InputError(f"system {self.name!r} is not a sampled ODE plant")
        return SampledSystem(
            f=self.field_builder(),
            w=self.w,
            tau=self.tau,
            A0=self.A0,
            A1=self.A1,
            k_lower=self.k_lower,
            k_upper=self.k_upper,
            kprime_margin=self.kprime_margin,
            eps=self.eps,
            name=self.name,
        )


def _pendulum_spec() -> SystemSpec:
    two_pi = 2.0 * np.pi
    return SystemSpec(
        name="pendulum",
        kind="ode",
        k_lower=np.array([-two_pi, -3.0]),
        k_upper=np.array([two_pi, 3.0]),
        input_pieces=[(np.array([-2.0]), np.array([2.0]))],
        cost_kind="energy_entry",
        target=QuadraticSublevel([[63.0, 6.0], [6.0, 56.0]], [0.0, 0.0], 42.0),
        obstacle=Complement(Box([-two_pi, -3.0], [two_pi, 3.0], open_=True)),
        theta=1.0,
        tau=0.2,
        w=np.array([0.0, 0.1]),
        A0=np.array([4.0, 2.5]),
        A1=np.array([[0.0, 1.0], [2.25, -0.02]]),
        A2=0.0,
        A3=0.0,
        kprime_margin=0.9,
        eps=0.1,
        field_builder=pendulum_field,
        presets={
            "p1": (np.array([0.08, 0.08]), np.array([0.2]), 1),
            "p2": (np.array([0.04, 0.04]), np.array([0.15]), 2),
            "p3": (np.array([0.02, 0.02]), np.array([0.1]), 3),
            "p4": (np.array([0.01, 0.01]), np.array([0.05]), 4),
        },
        preset_gamma={"p1": 6.3e-7, "p2": 9.9e-9, "p3": 8.7e-10, "p4": 1.6e-10},
    )


def _chauffeur_spec() -> SystemSpec:
    return SystemSpec(
        name="chauffeur",
        kind="ode",
        k_lower=np.array([-5.0, -5.0]),
        k_upper=np.array([5.0, 5.0]),
        input_pieces=[(np.array([-1.0]), np.array([1.0]))],
        cost_kind="min_time",
        target=QuadraticSublevel([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.9),
        obstacle=Complement(Box([-5.0, -5.0], [5.0, 5.0], open_=True)),
        theta=2.0,
        tau=0.1,
        w=np.array([0.3, 0.3]),
        A0=np.array([6.4, 6.4]),
        A1=np.array([[0.0, 1.0], [1.0, 0.0]]),
        A2=0.0,
        A3=0.0,
        kprime_margin=1.0,
        eps=0.1,
        field_builder=chauffeur_field,
        presets={
            "p1": (np.array([0.03, 0.03]), np.array([0.2]), 1),
            "p2": (np.array([0.02, 0.02]), np.array([0.1]), 2),
            "p3": (np.array([0.015, 0.015]), np.array([0.1]), 3),
            "p4": (np.array([0.01, 0.01]), np.array([0.05]), 4),
        },
        preset_gamma={"p1": 0.0, "p2": 0.0, "p3": 0.0, "p4": 0.0},
    )


def _logistic_spec() -> SystemSpec:
    return SystemSpec(
        name="logistic",
        kind="map",
        k_lower=np.array([0.0]),
        k_upper=np.array([1.0]),
        input_pieces=[(np.array([0.0]), np.array([0.0]))],
        cost_kind="min_time",
        target=Box([0.415], [0.69], open_=True),
        obstacle=EmptySet(),
        presets={
            "N40": (np.array([1.0 / 40.0]), np.array([1.0]), 1),
            "N60": (np.array([1.0 / 60.0]), np.array([1.0]), 1),
            "N85": (np.array([1.0 / 85.0]), np.array([1.0]), 1),
            "N400": (np.array([1.0 / 400.0]), np.array([1.0]), 1),
        },
        preset_gamma={"N40": 0.0, "N60": 0.0, "N85": 0.0, "N400": 0.0},
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
