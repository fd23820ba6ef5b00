"""Build abstractions and print sha256 digests of their CSR arrays.

    PYTHONPATH=src python tests/abstraction_digests.py pendulum:p2 chauffeur:p1
    PYTHONPATH=src python tests/abstraction_digests.py pendulum:p1:theta=0.5:k=3 "chauffeur:p1:eta=0.1 0.1"

Each argument is SYSTEM:PRESET of a built-in plant, optionally followed by
KEY=VALUE config overrides (``[reach]`` keys such as k and theta, or any
other config key; each goes into the section that holds it).  The override
max_splits=N is no config key: it sets ``symoc.reach.MAX_SPLITS`` for that
build, as in pendulum:p1:theta=0.3:k=3:max_splits=5.  One
line per build: the digests of trans_ptr, trans_succ and pair_costs (with
their dtypes), the certificate's rho_transition_slack, the edge count, the
build time and the process's peak RSS so far.  Two trees build the same
arrays when they print the same digests and slack.  Not a test: the larger
presets take minutes and gigabytes.
"""

import hashlib
import os
import resource
import sys
import tempfile
import time

import numpy as np

import symoc.reach
from symoc.cli import _build_from_config
from symoc.config import _KEYS, load_config


def digest(a):
    return f"{a.dtype}:{hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()}"


def config_text(spec):
    """The config file of SYSTEM:PRESET[:KEY=VALUE...], max_splits left out."""
    system, preset, *overrides = spec.split(":")
    sections = {"system": [f"dynamics = {system}", f"preset = {preset}"]}
    for item in overrides:
        key, value = item.split("=", 1)
        if key == "max_splits":
            continue
        section = next(name for name, keys in _KEYS.items() if key in keys)
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(line + "\n" for line in lines) for name, lines in sections.items())


def build(spec):
    """(problem, cert) of the abstraction of SYSTEM:PRESET[:KEY=VALUE...]."""
    splits = [int(item.split("=", 1)[1]) for item in spec.split(":") if item.startswith("max_splits=")]
    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
        fh.write(config_text(spec))
    try:
        cfg = load_config(fh.name)
    finally:
        os.unlink(fh.name)
    default = symoc.reach.MAX_SPLITS
    symoc.reach.MAX_SPLITS = (splits or [default])[-1]
    try:
        return _build_from_config(cfg)
    finally:
        symoc.reach.MAX_SPLITS = default


def main(specs):
    for spec in specs:
        t0 = time.perf_counter()
        problem, cert = build(spec)
        seconds = time.perf_counter() - t0
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{spec} trans_ptr={digest(problem.trans_ptr)} trans_succ={digest(problem.trans_succ)} "
            f"pair_costs={digest(problem.pair_costs)} rho_transition_slack={cert.transition_slack!r} "
            f"edges={problem.n_edges} build_s={seconds:.2f} peak_rss_mib={peak_mib:.0f}",
            flush=True,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
