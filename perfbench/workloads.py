"""One pass of a perfbench workload, in a fresh process started by run.py.

Usage: python3 perfbench/workloads.py WORKLOAD SEED TRACE WORKDIR

Drives ``symoc.cli.main`` the way a user would, checks every output and
writes WORKDIR/result.json: the operations with their wall times and
errors, the peak RSS of this process and, with TRACE=1, the per-layer
metrics from spans installed around the symoc layers (see spans.py).
Inputs are made from SEED only; symoc only ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import symoc.abstraction
import symoc.cli
import symoc.config
import symoc.core
import symoc.relations
import symoc.simulate
import symoc.solver

from checks import sha256, solution_errors
from gen import grid_problem, inflated_relabelled_copy
from spans import Tracer

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
VERIFY_SAMPLES = 200
FOCP_GRID = (300, 300)  # 90,000 states, 6 inputs, about 4.05 M edges
RELATION_GRID = (20, 20)  # 400 related pairs for the O(|R|^2 m) vfrr loop

# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}


def _add(counts, values):
    for key, value in values.items():
        counts[key] += value


def install_spans(tracer: Tracer):
    """Wrap each measured symoc function where its callers look it up."""
    c = tracer.counts
    ab, cli, core = symoc.abstraction, symoc.cli, symoc.core
    tracer.wrap([symoc.config, cli], "load_config", "config.load")
    tracer.wrap([ab, cli], "abstract_costs", "costs.build")
    tracer.wrap(
        [ab.SampledReach], "batch_ranges", "reach.batch",
        lambda a, r: _add(c, {"reach.branches": len(r[0]),
                              "reach.escaped_cells": int(r[1].sum())}),
    )
    tracer.count_log("symoc.reach", "split cap hit", "reach.split_cap_hits")
    tracer.wrap(
        [ab], "_expand_ranges", "abstraction.expand",
        lambda a, r: _add(c, {"abstraction.candidates": len(r[0])}),
    )
    tracer.wrap(
        [ab], "_collect_batched", "abstraction.collect",
        lambda a, r: _add(c, {"abstraction.kept": sum(len(entry[0]) for entry in r)}),
    )
    tracer.wrap(
        [ab, cli], "build_abstraction", "abstraction.build",
        lambda a, r: _add(c, {"abstraction.edges": r[0].n_edges,
                              "abstraction.pairs": r[0].n * r[0].m}),
    )

    def solved(a, r):
        s = r.stats
        _add(c, {"solver.edges": a[0].n_edges, "solver.settled": s.settled,
                 "solver.pushes": s.pushes, "solver.pops": s.pops, "solver.pair_evals": s.pair_evals})

    tracer.wrap([symoc.solver, cli], "solve", "solver.solve", solved)
    tracer.wrap([symoc.solver], "_build_inverse", "solver.inverse")
    tracer.wrap([core.FiniteProblem], "from_focp_text", "io.focp_parse")
    tracer.wrap([core, cli], "values_to_text", "io.values_render")
    tracer.wrap([core.ControllerTable], "to_text", "io.controller_render")
    tracer.wrap(
        [cli], "_write", lambda a: "io.write" + Path(a[0]).suffix,
        lambda a, r: _add(c, {"io.bytes_written": len(a[1])}),
    )
    tracer.wrap([core, cli], "values_from_text", "io.values_read")
    tracer.wrap([core.ControllerTable], "from_text", "io.controller_read")
    tracer.wrap(
        [symoc.simulate, cli], "batch_verify", "simulate.batch_verify",
        lambda a, r: _add(c, {"simulate.runs": r.runs, "simulate.violations": r.violations,
                              "simulate.non_stopping": r.non_stopping}),
    )
    tracer.wrap(
        [symoc.simulate, cli], "run_closed_loop", "simulate.run",
        lambda a, r: _add(c, {"simulate.steps": r.steps}),
    )
    tracer.wrap(
        [symoc.relations, cli], "check_vfrr", "relations.vfrr",
        lambda a, r: _add(c, {"relations.pairs": len(a[2]),
                              "relations.pair_checks": len(a[2]) ** 2 * a[1].m}),
    )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer, ops, digest_match):
    c = t.counts
    busy = t.total
    values = {
        "config.load_s": busy("config.load"),
        "costs.build_s": busy("costs.build"),
        "reach.batch_s": busy("reach.batch"),
        "abstraction.expand_s": busy("abstraction.expand"),
        "abstraction.collect_self_s": t.self_time("abstraction.collect"),
        "abstraction.dedupe_keep_ratio": _ratio(c["abstraction.kept"], c["abstraction.candidates"]),
        "abstraction.assemble_s": t.self_time("abstraction.build"),
        "solver.inverse_s": busy("solver.inverse"),
        "solver.settle_s": t.self_time("solver.solve"),
        "solver.queue_ops_per_edge": _ratio(c["solver.pushes"] + c["solver.pops"], c["solver.edges"]),
        "solver.pair_evals_per_edge": _ratio(c["solver.pair_evals"], c["solver.edges"]),
        "io.focp_write_s": busy("io.focp_write"),
        "io.focp_parse_s": busy("io.focp_parse"),
        "io.values_write_s": busy("io.values_render") + busy("io.write.values"),
        "io.controller_write_s": busy("io.controller_render") + busy("io.write.controller"),
        "io.values_read_s": busy("io.values_read"),
        "io.controller_read_s": busy("io.controller_read"),
        "simulate.batch_verify_s": busy("simulate.batch_verify"),
        "simulate.steps_per_s": _ratio(c["simulate.steps"], busy("simulate.batch_verify")),
        "relations.vfrr_s": busy("relations.vfrr"),
        "cli.synthesize_s": busy("cli.synthesize"),
        "cli.simulate_s": busy("cli.simulate"),
        "cli.solve_finite_s": busy("cli.solve-finite"),
        "cli.check_relation_s": busy("cli.check-relation"),
        "outputs.controller_digest_match": digest_match,
        "ops_failed_frac": _ratio(sum(1 for op in ops if op["errors"]), len(ops)),
        "trace.run_s": sum(op["seconds"] for op in ops),  # run.py scales it like run_s
        "host.ref_unit_ms": 0.0,  # filled in by run.py, which runs the reference
        "trace.spans": len(t.spans),
    }
    return {name: {"value": values[name] if name in values else c[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


class Pass:
    """The operations of one workload pass and what they produced."""

    def __init__(self, workload, seed, workdir, tracer):
        self.workload = workload
        self.seed = seed
        self.work = Path(workdir)
        self.tracer = tracer
        self.ops = []
        self.solved = []  # problems handed to symoc.cli.solve, in call order
        self.digest_match = -1  # -1: no controller digest recorded for these inputs
        solve = symoc.cli.solve

        def capture(problem, queue="heap"):
            self.solved.append(problem)
            return solve(problem, queue=queue)

        symoc.cli.solve = capture

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, name, fn):
        """Time ``fn`` (returning an exit code) as one operation."""
        t0 = time.perf_counter()
        try:
            with self.span(f"cli.{name}"):
                rc = fn()
        except Exception:  # a raw traceback is a failed operation, not a crash
            traceback.print_exc()
            rc = "traceback"
        entry = {"name": name, "seconds": time.perf_counter() - t0,
                 "errors": [] if rc == 0 else [f"exit code {rc}"]}
        self.ops.append(entry)
        return entry

    def cli(self, name, *argv):
        return self.op(name, lambda: symoc.cli.main([name, *argv]))

    def check_solution(self, entry, problem, prefix, expected):
        """Values and controller checks; ``expected`` holds recorded digests."""
        if entry["errors"]:
            return
        if not self.solved:
            entry["errors"].append("symoc.cli.solve was never called")
            return
        values_path, controller_path = f"{prefix}.values", f"{prefix}.controller"
        problem = problem or self.solved[-1]
        entry["errors"] += solution_errors(
            problem, Path(values_path).read_text(), Path(controller_path).read_text()
        )
        if expected:
            if sha256(values_path) != expected["values"]:
                entry["errors"].append("values differ from the reference commit")
            self.digest_match = int(sha256(controller_path) == expected["controller"])
        self.solved.clear()


def run_plant(p: Pass, simulate: bool):
    config = str(p.work / "plant.ini")
    prefix = str(p.work / "out")
    synth = p.cli("synthesize", config, "--out-prefix", prefix)
    p.check_solution(synth, None, prefix, EXPECTED[p.workload])
    if not simulate:
        return
    if synth["errors"]:
        p.ops.append({"name": "simulate", "seconds": 0.0, "errors": ["synthesize failed"]})
        return
    sim = p.cli(
        "simulate", config, "--controller", prefix + ".controller", "--values", prefix + ".values",
        "--samples", "0", "--verify-samples", str(VERIFY_SAMPLES), "--seed", str(p.seed),
        "--out-prefix", str(p.work / "sim"),
    )
    if not sim["errors"]:
        report = dict(
            line.replace(" ", "").split("=", 1)
            for line in (p.work / "sim.report").read_text().splitlines()
        )
        if report["runs"] != str(VERIFY_SAMPLES) or report["violations"] != "0":
            sim["errors"].append(f"simulate report: {report}")


def run_focp_tools(p: Pass):
    rng = np.random.default_rng(p.seed)
    problem = grid_problem(rng, *FOCP_GRID)
    small = grid_problem(rng, *RELATION_GRID)
    inflated, relation = inflated_relabelled_copy(rng, small)
    for name, text in (
        ("small.focp", small.to_focp_text()),
        ("inflated.focp", inflated.to_focp_text()),
        ("relation.txt", relation.to_text()),
    ):
        (p.work / name).write_text(text)
    focp = p.work / "big.focp"

    def write_focp():
        with p.span("io.focp_write"):
            text = problem.to_focp_text()
            with open(focp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        if p.tracer:
            p.tracer.counts["io.bytes_written"] += len(text)
        return 0

    write = p.op("focp-write", write_focp)
    prefix = str(p.work / "out")
    solve = p.cli("solve-finite", str(focp), "--queue", "auto", "--out-prefix", prefix)
    if not solve["errors"] and p.solved:
        parsed = p.solved[-1]
        if not all(np.array_equal(getattr(parsed, a), getattr(problem, a))
                   for a in ("G", "trans_ptr", "trans_succ", "edge_costs")):
            write["errors"].append("FOCP text does not round-trip to the same arrays")
    p.check_solution(solve, problem, prefix, EXPECTED[p.workload].get(str(p.seed)))
    check = p.cli(
        "check-relation", str(p.work / "small.focp"), str(p.work / "inflated.focp"),
        str(p.work / "relation.txt"), "--mode", "vfrr", "--out", str(p.work / "verdict.txt"),
    )
    if not check["errors"]:
        first = (p.work / "verdict.txt").read_text().splitlines()[0]
        if first != "verdict: true":
            check["errors"].append(f"vfrr {first}")


def main(argv):
    workload, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    tracer = Tracer() if trace else None
    if tracer:
        install_spans(tracer)
    p = Pass(workload, seed, workdir, tracer)
    if workload == "focp_tools":
        run_focp_tools(p)
    else:
        run_plant(p, simulate=workload == "pendulum_p2")
    result = {
        "ops": p.ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layer_metrics(tracer, p.ops, p.digest_match) if tracer else None,
    }
    if tracer:
        tracer.dump(Path(workdir) / "trace.json")
    (Path(workdir) / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
