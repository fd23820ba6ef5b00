"""Set-up time of a fresh process: import symoc.cli, then load the config.

Usage: python3 perfbench/setup_probe.py [CONFIG]
Prints the seconds taken, then the mean CPU seconds of REF_UNITS units of the
host-speed reference (hostref.py) timed right after, which run.py uses to
scale the set-up time.  Imports nothing else first, so numpy's import counts,
as it does for a user starting the CLI.
"""

import sys
import time

t0 = time.perf_counter()
import symoc.cli  # noqa: E402

if len(sys.argv) > 1:
    symoc.cli.load_config(sys.argv[1])
setup = time.perf_counter() - t0

from hostref import Reference  # noqa: E402

REF_UNITS = 30
ref = Reference()
print(repr(setup), repr(sum(ref.unit() for _ in range(REF_UNITS)) / REF_UNITS))
