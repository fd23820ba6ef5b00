"""Sectioned plain-text configuration for the synthesis pipeline.

A config names one of the registered dynamics and optionally a parameter
preset; every registry default can be overridden key by key, and a key left
empty keeps its default.  Vectors are whitespace-separated, boxes use ";"
between the lower and upper corner, and set primitives compose with "|"
(union) and a leading "complement".

Example::

    [system]
    dynamics = pendulum
    preset = p1

    [grid]
    eta = 0.4 0.3
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .core import CostModel
from .errors import InputError
from .grid import GridCover, InputGrid
from .sets import Box, Complement, EmptySet, QuadraticSublevel, SetPredicate, UnionSet
from .systems import get_system


def _vector(text: str, dim=None, what="state") -> np.ndarray:
    """The numbers of ``text``: ``dim`` of them (the ``what`` dimension) if given."""
    try:
        vector = np.array([float(v) for v in text.split()])
    except ValueError as exc:
        raise InputError(f"expected a numeric vector, got {text!r}") from exc
    if not np.isfinite(vector).all():
        raise InputError(f"expected finite numbers, got {text.strip()!r}")
    if dim is not None and vector.size != dim:
        raise InputError(f"expected the {what} dimension {dim}, got {vector.size}")
    return vector


def _corners(text: str, dim=None, what="state"):
    parts = text.split(";")
    if len(parts) != 2:
        raise InputError(f"expected 'lower ; upper', got {text!r}")
    lo, hi = _vector(parts[0], dim, what), _vector(parts[1], dim, what)
    if lo.shape != hi.shape:
        raise InputError(f"corner dimension mismatch in {text!r}")
    return lo, hi


# the [system] keys of a sampled ODE plant, which a map config may not name:
# config key -> (SampledSystem keyword, parser of the text for state dimension dim)
_PLANT_KEYS = {
    "tau": ("tau", lambda text, dim: float(text)),
    "w": ("w", _vector),
    "A0": ("A0", _vector),
    "A1": ("A1", lambda text, dim: _vector(text).reshape(dim, dim)),
    "Kprime_margin": ("kprime_margin", lambda text, dim: float(text)),
    "eps": ("eps", lambda text, dim: float(text)),
}
_KEYS = {
    "system": {"dynamics", "preset", "K", *_PLANT_KEYS},
    "grid": {"eta"},
    "inputs": {"U", "mu"},
    "costs": {"cost_kind", "target", "obstacle"},
    "reach": {"k", "theta", "gamma"},
}
_ODE_KEYS = [("system", key) for key in _PLANT_KEYS] + [("reach", key) for key in sorted(_KEYS["reach"])]


def parse_set(text: str, domain_box) -> SetPredicate:
    text = text.strip()
    if text == "none":
        return EmptySet()
    if text == "complement_domain":
        return Complement(Box(domain_box[0], domain_box[1], open_=True))
    if text.startswith("complement "):
        return Complement(parse_set(text[len("complement "):], domain_box))
    if "|" in text:
        return UnionSet([parse_set(p, domain_box) for p in text.split("|")])
    fields = text.split(None, 1)
    if len(fields) != 2:
        raise InputError(f"malformed set primitive {text!r}")
    primitive, rest = fields
    if primitive in ("interval", "box"):
        lo, hi = _corners(rest)
        n = lo.size
    elif primitive == "quadratic":
        parts = rest.split(";")
        if len(parts) != 3:
            raise InputError(f"quadratic needs 'Q ; b ; c', got {text!r}")
        q, b, c = (_vector(part) for part in parts)
        if q.size != b.size**2:
            raise InputError("quadratic Q must be row-major n*n")
        if c.size != 1:
            raise InputError("quadratic level must be a single number")
        n = b.size
    else:
        raise InputError(f"unknown set primitive {primitive!r}")
    dim = len(domain_box[0])
    if n != dim:
        raise InputError(f"{primitive} of dimension {n} on a {dim}-dimensional domain")
    if primitive == "quadratic":
        return QuadraticSublevel(q.reshape(dim, dim), b, float(c[0]))
    if np.any(lo > hi):
        raise InputError(f"{primitive} has a lower corner above its upper corner")
    return Box(lo, hi, open_=(primitive == "interval"))


@dataclass
class PipelineConfig:
    name: str
    plant: object  # steps as plant.step(x, u, disturbances), bounded by plant.w
    reach: object  # the transition over-approximator build_abstraction reads
    cover: GridCover
    inputs: InputGrid
    model: CostModel


def load_config(path) -> PipelineConfig:
    raw = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw.read_file(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read config {path}: not UTF-8 text ({exc.reason})") from exc
    except configparser.Error as exc:
        raise InputError(f"malformed config {path}: {exc}") from exc
    for section in raw.sections():
        if section not in _KEYS:
            raise InputError(f"unknown config section [{section}]")
        for key in raw[section]:
            if key not in {k.lower() for k in _KEYS[section]}:
                raise InputError(f"unknown key {key!r} in section [{section}]")
    if not raw.has_option("system", "dynamics"):
        raise InputError("config needs dynamics under [system]")
    spec = get_system(raw.get("system", "dynamics"))
    if spec.ode is None:
        # the map ignores its input, so an input set would only copy edges
        for section, key in [*_ODE_KEYS, ("inputs", "U")]:
            if raw.has_option(section, key):
                raise InputError(f"[{section}] {key} does not apply to the map dynamics {spec.name!r}")
    preset = raw.get("system", "preset", fallback=None)
    if preset is not None and preset not in spec.presets:
        raise InputError(f"unknown preset {preset!r} for {spec.name!r}; have {sorted(spec.presets)}")

    def number(section, key, parse, fallback, *args):
        """The value of ``key`` read by ``parse(text, *args)``; ``fallback``
        when the key is absent or empty."""
        text = raw.get(section, key, fallback="")
        if not text:
            return fallback
        try:
            return parse(text, *args)
        except (ValueError, InputError) as exc:
            raise InputError(f"[{section}] {key} = {text!r}: {exc}") from exc

    # overrides go into the fresh spec, which then builds the plant; they keep
    # the dimensions of its defaults, and a map's K stays within its default
    dim, input_dim = spec.k_lower.size, np.size(spec.input_pieces[0][0])

    def k_box(text):
        lo, hi = _corners(text, dim)
        if np.any(lo >= hi):
            raise InputError("the lower corner is at or above the upper corner")
        if spec.ode is None and (np.any(lo < spec.k_lower) or np.any(hi > spec.k_upper)):
            home = " ; ".join(" ".join(f"{v:g}" for v in c) for c in (spec.k_lower, spec.k_upper))
            raise InputError(f"the map {spec.name!r} is defined on K = {home} only")
        return lo, hi

    spec.k_lower, spec.k_upper = number("system", "K", k_box, (spec.k_lower, spec.k_upper))
    if spec.ode is not None:
        for key, (name, parse) in _PLANT_KEYS.items():
            spec.ode[name] = number("system", key, parse, spec.ode[name], dim)
    spec.theta = number("reach", "theta", float, spec.theta)
    spec.input_pieces = number(
        "inputs", "U", lambda t: [_corners(part, input_dim, "input") for part in t.split("|")], spec.input_pieces
    )

    eta = mu = None
    kk, gamma = 1, 0.0
    if preset is not None:
        eta, mu, kk, gamma = spec.presets[preset]
    eta = number("grid", "eta", _vector, eta, dim)
    mu = number("inputs", "mu", _vector, mu, input_dim, "input")
    kk = number("reach", "k", int, kk)
    gamma = number("reach", "gamma", float, gamma)
    if eta is None or mu is None:
        raise InputError("need eta and mu (directly or via a preset)")

    domain = (spec.k_lower, spec.k_upper)
    target = number("costs", "target", parse_set, spec.target, domain)
    obstacle = number("costs", "obstacle", parse_set, spec.obstacle, domain)
    model = CostModel(raw.get("costs", "cost_kind", fallback=spec.cost_kind), target, obstacle)

    cover = GridCover(spec.k_lower, spec.k_upper, eta)
    inputs = InputGrid(spec.input_pieces, mu, states=cover.n_states)
    plant, reach = spec.build(cover, inputs, kk, gamma)
    return PipelineConfig(spec.name, plant, reach, cover, inputs, model)
