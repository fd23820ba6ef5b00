"""Build abstractions and print sha256 digests of their CSR arrays.

    PYTHONPATH=src python tests/abstraction_digests.py pendulum:p2 chauffeur:p1

Each argument is SYSTEM:PRESET of a built-in plant.  One line per build:
the digests of trans_ptr, trans_succ and pair_costs (with their dtypes), the
edge count, the build time and the process's peak RSS so far.  Two trees
build the same arrays when they print the same digests.  Not a test: the
larger presets take minutes and gigabytes.
"""

import hashlib
import os
import resource
import sys
import tempfile
import time

import numpy as np

from symoc.cli import _build_from_config
from symoc.config import load_config


def digest(a):
    return f"{a.dtype}:{hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()}"


def main(specs):
    for spec in specs:
        system, preset = spec.split(":")
        with tempfile.NamedTemporaryFile("w", suffix=".ini", delete=False) as fh:
            fh.write(f"[system]\ndynamics = {system}\npreset = {preset}\n")
        try:
            cfg = load_config(fh.name)
        finally:
            os.unlink(fh.name)
        t0 = time.perf_counter()
        problem = _build_from_config(cfg)[2]
        seconds = time.perf_counter() - t0
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{spec} trans_ptr={digest(problem.trans_ptr)} trans_succ={digest(problem.trans_succ)} "
            f"pair_costs={digest(problem.pair_costs)} edges={problem.n_edges} "
            f"build_s={seconds:.2f} peak_rss_mib={peak_mib:.0f}",
            flush=True,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
