"""Host-speed reference, run beside a workload on the same CPU by run.py.

Usage: python3 perfbench/hostref.py OUTFILE

On a shared virtual machine each virtual CPU runs 20-40% slower for minutes
at a time, and two virtual CPUs of the same machine slow down at different
times.  This process lowers itself to nice 19 on the CPU that run.py pinned
the workload to, so it gets about 1.5% of that CPU, in short slices spread
over the workload's run, and sees the same slowdowns.  It repeats one fixed
unit of work (``Reference.unit``) and appends one line per unit to OUTFILE:
the unit's start on the time.perf_counter clock, which all processes share,
and the CPU seconds the unit took.  The line "ready" comes first, once the
arrays are built.  It runs until it is terminated.  setup_probe.py times the
same unit right after each set-up.
"""

import os
import sys
import time

import numpy as np

N = 1 << 22
UNIT_STEPS = 100  # about 0.6-1 ms of CPU time per unit on a 2-vCPU Xeon guest


class Reference:
    """Random reads of two 32 MiB numpy arrays from a Python loop, the access
    pattern of the solver's settle loop."""

    def __init__(self):
        rng = np.random.default_rng(7)
        self.succ = rng.integers(0, N, size=N, dtype=np.int64)
        self.values = rng.random(N)
        self.q = 0

    def unit(self):
        """Run one unit of work; return the CPU seconds it took."""
        succ, values, q = self.succ, self.values, self.q
        cpu = time.thread_time()
        best = 0.0
        for _ in range(UNIT_STEPS):
            q = (q + 1) % (N // 8)
            for s in succ[8 * q : 8 * q + 8].tolist():
                v = values[s] + values[succ[s]]
                if v > best:
                    best = v
        self.q = q
        return time.thread_time() - cpu


def main(path):
    os.nice(19)
    ref = Reference()
    with open(path, "w", buffering=1) as out:
        out.write("ready\n")
        while True:
            start = time.perf_counter()
            out.write(f"{start!r} {ref.unit()!r}\n")


if __name__ == "__main__":
    main(sys.argv[1])
