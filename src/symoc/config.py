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

    [solve]
    queue = auto
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .core import CostModel, cost_model
from .errors import InputError
from .grid import GridCover, InputGrid
from .sets import Box, Complement, EmptySet, QuadraticSublevel, SetPredicate, UnionSet
from .solver import QUEUES
from .systems import LogisticMap, SystemSpec, get_system

_SECTIONS = {"system", "grid", "inputs", "costs", "reach", "solve"}
_KEYS = {
    "system": {"dynamics", "preset", "tau", "w", "A0", "A1", "A2", "A3", "K", "Kprime_margin", "eps"},
    "grid": {"eta"},
    "inputs": {"U", "mu"},
    "costs": {"cost_kind", "target", "obstacle"},
    "reach": {"k", "theta", "gamma", "substeps", "max_splits"},
    "solve": {"queue"},
}


def _vector(text: str) -> np.ndarray:
    try:
        vector = np.array([float(v) for v in text.split()])
    except ValueError as exc:
        raise InputError(f"expected a numeric vector, got {text!r}") from exc
    if not np.isfinite(vector).all():
        raise InputError(f"expected finite numbers, got {text.strip()!r}")
    return vector


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise InputError("need at least 1")
    return int(text)


def _corners(text: str):
    parts = text.split(";")
    if len(parts) != 2:
        raise InputError(f"expected 'lower ; upper', got {text!r}")
    lo, hi = _vector(parts[0]), _vector(parts[1])
    if lo.shape != hi.shape:
        raise InputError(f"corner dimension mismatch in {text!r}")
    return lo, hi


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
    kind, rest = fields
    if kind in ("interval", "box"):
        lo, hi = _corners(rest)
        n = lo.size
    elif kind == "quadratic":
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
        raise InputError(f"unknown set primitive {kind!r}")
    dim = len(domain_box[0])
    if n != dim:
        raise InputError(f"{kind} of dimension {n} on a {dim}-dimensional domain")
    if kind == "quadratic":
        return QuadraticSublevel(q.reshape(dim, dim), b, float(c[0]))
    if np.any(lo > hi):
        raise InputError(f"{kind} has a lower corner above its upper corner")
    return Box(lo, hi, open_=(kind == "interval"))


@dataclass
class PipelineConfig:
    name: str
    kind: str  # "ode" or "map"
    plant: object  # SampledSystem or discrete map
    cover: GridCover
    inputs: InputGrid
    model: CostModel
    A2: float
    A3: float
    k: int
    theta: float
    gamma: float
    substeps: int
    max_splits: int
    queue: str


def _preset_of(spec: SystemSpec, raw):
    name = raw.get("system", "preset", fallback=None)
    if name is None:
        return None
    if name not in spec.presets:
        raise InputError(f"unknown preset {name!r} for {spec.name!r}; have {sorted(spec.presets)}")
    return name


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
        if section not in _SECTIONS:
            raise InputError(f"unknown config section [{section}]")
        for key in raw[section]:
            if key not in {k.lower() for k in _KEYS[section]}:
                raise InputError(f"unknown key {key!r} in section [{section}]")
    if not raw.has_option("system", "dynamics"):
        raise InputError("config needs dynamics under [system]")
    spec = get_system(raw.get("system", "dynamics"))
    preset = _preset_of(spec, raw)

    def number(section, key, parse, fallback):
        """The value of ``key`` read by ``parse``; ``fallback`` when the key
        is absent or empty."""
        text = raw.get(section, key, fallback="")
        if not text:
            return fallback
        try:
            return parse(text)
        except (ValueError, InputError) as exc:
            raise InputError(f"[{section}] {key} = {text!r}: {exc}") from exc

    # overrides go into the fresh spec, which then builds the plant
    spec.k_lower, spec.k_upper = number("system", "K", _corners, (spec.k_lower, spec.k_upper))
    dim = spec.k_lower.size
    spec.tau = number("system", "tau", float, spec.tau)
    spec.w = number("system", "w", _vector, spec.w)
    spec.A0 = number("system", "A0", _vector, spec.A0)
    spec.A1 = number("system", "A1", lambda t: _vector(t).reshape(dim, dim), spec.A1)
    spec.A2 = number("system", "A2", float, spec.A2)
    spec.A3 = number("system", "A3", float, spec.A3)
    spec.kprime_margin = number("system", "Kprime_margin", float, spec.kprime_margin)
    spec.eps = number("system", "eps", float, spec.eps)
    spec.theta = number("reach", "theta", float, spec.theta)
    spec.input_pieces = number(
        "inputs", "U", lambda t: [_corners(part) for part in t.split("|")], spec.input_pieces
    )

    eta = mu = None
    kk, gamma = 1, 0.0
    if preset is not None:
        eta, mu, kk = spec.presets[preset]
        gamma = spec.preset_gamma[preset]
    eta = number("grid", "eta", _vector, eta)
    mu = number("inputs", "mu", _vector, mu)
    kk = number("reach", "k", int, kk)
    gamma = number("reach", "gamma", float, gamma)
    if eta is None or mu is None:
        raise InputError("need eta and mu (directly or via a preset)")

    domain = (spec.k_lower, spec.k_upper)
    target = number("costs", "target", lambda t: parse_set(t, domain), spec.target)
    obstacle = number("costs", "obstacle", lambda t: parse_set(t, domain), spec.obstacle)
    model = cost_model(raw.get("costs", "cost_kind", fallback=spec.cost_kind), target, obstacle)

    queue = raw.get("solve", "queue", fallback="auto")
    if queue not in QUEUES:
        raise InputError(f"[solve] queue = {queue!r}: not one of {', '.join(QUEUES)}")
    cover, inputs = GridCover(spec.k_lower, spec.k_upper, eta), InputGrid(spec.input_pieces, mu)
    if cover.n_states * len(inputs) >= 2**31:  # the abstraction's pair ids are int32
        raise InputError(f"{cover.n_states} states x {len(inputs)} inputs: need fewer than 2**31 pairs")
    return PipelineConfig(
        name=spec.name,
        kind=spec.kind,
        plant=LogisticMap() if spec.kind == "map" else spec.sampled_system(),
        cover=cover,
        inputs=inputs,
        model=model,
        A2=spec.A2,
        A3=spec.A3,
        k=kk,
        theta=spec.theta,
        gamma=gamma,
        substeps=number("reach", "substeps", _positive_int, 5),
        max_splits=number("reach", "max_splits", int, 64),
        queue=queue,
    )
