"""perfbench: end-to-end and per-layer benchmark of the symoc pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is pendulum_p2, chauffeur_p1 or focp_tools (see README.md).  The
run pins itself and everything it starts to one CPU.  It first times
SETUP_PROBES fresh-process set-ups (untraced runs only), then starts the
host-speed reference (hostref.py) on that CPU and runs whole workload passes
beside it, each in a fresh process, until S seconds have passed (at least one
pass).  Every time it reports is scaled to reference speed: a wall time
measured while one reference unit took c seconds of CPU is reported as
wall * REF_UNIT_S / c.  Set-up probes time the unit right after the set-up.
Every line but the last names a metric with its value and unit; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics from spans and writes the spans to
.perfbench_work/WORKLOAD/trace.json.  Exits 1 without a result when the
checkout has no src/symoc or a pass cannot report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PLANT_CONFIGS = {
    "pendulum_p2": "[system]\ndynamics = pendulum\npreset = p2\n",
    "chauffeur_p1": "[system]\ndynamics = chauffeur\npreset = p1\n",
}
WORKLOADS = (*PLANT_CONFIGS, "focp_tools")
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # every pass must end within this many seconds of the start
REF_UNIT_S = 0.001  # reported times are at the speed where a reference unit takes 1 ms
MIN_REF_UNITS = 10  # reference units a timed window must hold to be scaled
END_TO_END_UNITS = {
    m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
}


class BenchError(Exception):
    pass


def _python(script, args, env, timeout, **kw):
    return subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        env=env, timeout=timeout, check=False, **kw,
    )


def setup_seconds(config, env):
    args = [config] if config else []
    out = _python("setup_probe.py", args, env, 60, capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{out.stderr}")
    setup, unit = map(float, out.stdout.split())
    return setup * REF_UNIT_S / unit


class HostReference:
    """hostref.py running beside the workload; see its docstring."""

    def __init__(self, work, env):
        self.path = work / "hostref.txt"
        self.path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostref.py"), str(self.path)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + 60
        while not (self.path.is_file() and self.path.read_text().startswith("ready\n")):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("the host-speed reference did not start")
            time.sleep(0.05)

    def unit_seconds(self, start, end):
        """Mean CPU seconds of the reference units started within [start, end]."""
        cpu = [
            float(fields[1])
            for fields in (line.split() for line in self.path.read_text().splitlines()[1:])
            if len(fields) == 2 and start <= float(fields[0]) <= end
        ]
        if len(cpu) < MIN_REF_UNITS:
            raise BenchError(f"the host-speed reference ran only {len(cpu)} units in a timed window")
        return sum(cpu) / len(cpu)

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def pin_to_one_cpu():
    """Pin this process, and so everything it starts, to one CPU it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def workload_pass(workload, seed, trace, work, env, timeout):
    """One fresh process running the workload once; returns its result.json."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    with open(work / "pass.log", "w") as log:
        done = _python(
            "workloads.py", [workload, seed, int(trace), work], env, timeout,
            stdout=log, stderr=subprocess.STDOUT,
        )
    if done.returncode != 0 or not result.is_file():
        tail = (work / "pass.log").read_text()[-2000:]
        raise BenchError(f"workload pass exited {done.returncode}:\n{tail}")
    return json.loads(result.read_text())


def timed_passes(args, start, work, env, ref):
    """Workload passes until ``args.seconds`` have passed; each gets its
    reference unit time under "ref_unit_s"."""
    passes = []
    measure_start = time.perf_counter()
    while not passes or time.perf_counter() - measure_start < args.seconds:
        timeout = RUN_LIMIT_S - (time.perf_counter() - start)
        t0 = time.perf_counter()
        try:
            result = workload_pass(args.workload, args.seed, args.trace, work, env, timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload pass did not end within {RUN_LIMIT_S} s") from exc
        result["ref_unit_s"] = ref.unit_seconds(t0, time.perf_counter())
        passes.append(result)
    return passes


def scaled_run_seconds(p):
    return sum(op["seconds"] for op in p["ops"]) * REF_UNIT_S / p["ref_unit_s"]


def run(args):
    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "symoc" / "cli.py").is_file():
        raise BenchError(f"no src/symoc under {root}; run from the root of a checkout")
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work))
    config = None
    if args.workload in PLANT_CONFIGS:
        config = work / "plant.ini"
        config.write_text(PLANT_CONFIGS[args.workload])

    pin_to_one_cpu()
    setups = [] if args.trace else [setup_seconds(config, env) for _ in range(SETUP_PROBES)]
    ref = HostReference(work, env)
    try:
        passes = timed_passes(args, start, work, env, ref)
    finally:
        ref.stop()

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["errors"]]
    for op in failed:
        print(f"FAILED {op['name']}: {'; '.join(op['errors'])}", file=sys.stderr)
    wall_run_s = statistics.median(sum(op["seconds"] for op in p["ops"]) for p in passes)
    ref_unit_s = statistics.median(p["ref_unit_s"] for p in passes)
    if args.trace:
        for p in passes:
            p["layers"]["trace.run_s"]["value"] = scaled_run_seconds(p)
            p["layers"]["host.ref_unit_ms"]["value"] = p["ref_unit_s"] * 1e3
        metrics = {
            name: {"value": statistics.median(p["layers"][name]["value"] for p in passes),
                   "unit": entry["unit"]}
            for name, entry in passes[0]["layers"].items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(scaled_run_seconds(p) for p in passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:>18.6f} {entry['unit']}")
    print(f"unscaled wall time of the operations (median): {wall_run_s:.6f} s; "
          f"reference unit: {ref_unit_s * 1e3:.6f} ms of CPU")
    print(f"passes: {len(passes)}, set-up probes: {len(setups)}, ops: {len(ops)}, failed: {len(failed)}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # A terminated run unwinds, so the reference and the running pass are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
