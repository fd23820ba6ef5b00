"""Build abstractions and print sha256 digests of their CSR arrays.

    PYTHONPATH=src python tests/abstraction_digests.py pendulum:p2 chauffeur:p1
    PYTHONPATH=src python tests/abstraction_digests.py pendulum:p1:theta=0.5:k=3 "chauffeur:p1:eta=0.1 0.1"

Each argument is SYSTEM:PRESET of a built-in plant, optionally followed by
KEY=VALUE config overrides (``[reach]`` keys such as k, theta and max_splits,
or any other config key; each goes into the section that holds it).  One
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

from symoc.cli import _build_from_config
from symoc.config import _KEYS, load_config


def digest(a):
    return f"{a.dtype}:{hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()}"


def config_text(spec):
    """The config file of SYSTEM:PRESET[:KEY=VALUE...]."""
    system, preset, *overrides = spec.split(":")
    sections = {"system": [f"dynamics = {system}", f"preset = {preset}"]}
    for item in overrides:
        key, value = item.split("=", 1)
        section = next(name for name, keys in _KEYS.items() if key in keys)
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(line + "\n" for line in lines) for name, lines in sections.items())


def build(spec):
    """(problem, cert) of the abstraction of SYSTEM:PRESET[:KEY=VALUE...]."""
    with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
        fh.write(config_text(spec))
    try:
        cfg = load_config(fh.name)
    finally:
        os.unlink(fh.name)
    return _build_from_config(cfg)[2:4]


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
