"""Command-line pipeline: solve, synthesize, simulate, diagnose, check.

Exit codes: 0 success, 1 input error (usage errors included), 2 soundness
alarm (an invariant that holds by construction was violated).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

from .abstraction import abstract_costs, abstraction_sidecar_text, build_abstraction
from .analysis import hypo_distance, hypograph_csv, logistic_exact_sublevels, logistic_exact_values, sublevels_csv
from .config import _vector, load_config
from .core import ControllerTable, FiniteProblem, values_from_text, values_to_text
from .errors import InputError, SoundnessAlarm
from .relations import RefinedController, Relation, check_vasr, check_vfrr, pointwise_upper_bound
from .simulate import POLICIES, batch_verify, run_closed_loop, sample_winning_states
from .solver import QUEUES, solve


def _write(path, text):
    _write_pieces(path, (text,))


def _write_pieces(path, pieces):
    """Write the text ``pieces`` to ``path``; an OSError is an input error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _number(parse, low, strict=False):
    """An argparse type: the text read by ``parse``, at least ``low`` (above
    it when ``strict``)."""

    def read(text):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid {parse.__name__}") from None
        if not (value > low if strict else value >= low):  # NaN fails both
            raise argparse.ArgumentTypeError(f"must be {'above' if strict else 'at least'} {low}, got {text}")
        return value

    return read


def _point(text, dim):
    """The --x0 point ``text``: ``dim`` finite numbers."""
    try:
        return _vector(text, dim)
    except InputError as exc:
        raise InputError(f"--x0 {text!r}: {exc}") from None


@contextlib.contextmanager
def _open(path):
    """``path`` open for binary reads, which the record readers take a block
    at a time; an OSError opening or reading it is an input error."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def cmd_solve_finite(args):
    with _open(args.input) as fh:
        problem = FiniteProblem.from_focp_text(fh)
    t0 = time.perf_counter()
    result = solve(problem, queue=args.queue)
    dt = time.perf_counter() - t0
    _write(args.out_prefix + ".values", values_to_text(result.W))
    _write(args.out_prefix + ".controller", result.c.to_text())
    print(f"queue={result.queue} settled={result.stats.settled} queue_ops={result.stats.queue_ops} time={dt:.3f}s")
    return 0


def _build_from_config(cfg):
    """(problem, cert) of the abstraction that ``cfg`` describes."""
    return build_abstraction(cfg.reach, cfg.cover, cfg.inputs, abstract_costs(cfg.model, cfg.cover, cfg.inputs))


def cmd_synthesize(args):
    cfg = load_config(args.config)
    t0 = time.perf_counter()
    problem, cert = _build_from_config(cfg)
    t1 = time.perf_counter()
    result = solve(problem, queue="auto")  # FIFO for certified discrete costs, else the heap
    t2 = time.perf_counter()
    _write(args.out_prefix + ".sidecar", abstraction_sidecar_text(cfg.cover, cfg.inputs, cert))
    _write(args.out_prefix + ".values", values_to_text(result.W))
    _write(args.out_prefix + ".controller", result.c.to_text())
    if args.dump_focp:
        from . import focp  # the record module loads on first use

        _write_pieces(args.out_prefix + ".focp", focp.text_blocks(problem))  # never the whole text in memory
    finite = np.isfinite(result.W[: cfg.cover.n_cells])
    print(
        f"cells={cfg.cover.n_cells} inputs={len(cfg.inputs)} edges={problem.n_edges} "
        f"winning={int(finite.sum())} rho={cert.rho!r} "
        f"build={t1 - t0:.3f}s solve={t2 - t1:.3f}s"
    )
    return 0


def cmd_simulate(args):
    cfg = load_config(args.config)
    with _open(args.controller) as fh:
        table = ControllerTable.from_text(fh)
    with _open(args.values) as fh:
        W = values_from_text(fh)
    if len(W) != cfg.cover.n_states or len(table) != cfg.cover.n_states:
        raise InputError("controller/value files do not match the config's cover")
    ctrl = RefinedController(table, cfg.cover, cfg.inputs.representatives)
    max_steps = args.max_steps or cfg.cover.n_cells + 1
    if args.x0:
        starts = [_point(chunk, cfg.cover.dim) for chunk in args.x0]
    else:
        starts = sample_winning_states(W, cfg.cover, args.seed, args.samples)
    report = batch_verify(
        cfg.plant, ctrl, W, cfg.cover, cfg.model, sample_count=args.verify_samples,
        policy_name=args.policy, seed=args.seed, max_steps=max_steps, tol=args.tol,
    )
    # the runs written out count in the same report
    runs = run_closed_loop(cfg.plant, ctrl, W, cfg.model, starts, args.policy, args.seed, max_steps)
    for i, traj in enumerate(runs):
        _write(f"{args.out_prefix}.traj{i:03d}.csv", traj.to_csv())
        report.add(traj, args.tol)
    _write(args.out_prefix + ".report", report.to_text())
    print(report.to_text(), end="")
    if report.violations:
        raise SoundnessAlarm(f"{report.violations} closed-loop bound violations")
    return 0


def cmd_hypo(args):
    cfg = load_config(args.config)
    if cfg.name != "logistic":
        raise InputError("the only available reference oracle is exact-logistic")
    with _open(args.values) as fh:
        W = values_from_text(fh)
    if len(W) != cfg.cover.n_states:
        raise InputError("value file does not match the config's cover")
    xs = np.linspace(float(cfg.cover.lower[0]), float(cfg.cover.upper[0]), args.samples)
    W_pt = pointwise_upper_bound(W, cfg.cover, xs[:, None])
    finite = W_pt[np.isfinite(W_pt)]
    t_max = int(finite.max()) + 2 if len(finite) else 2
    target = cfg.model.target
    sub = logistic_exact_sublevels((float(target.lo[0]), float(target.hi[0])), t_max)
    sampler = lambda ys: logistic_exact_values(sub, ys)
    eps, cap, cap_active = hypo_distance(xs, W_pt, sampler, eps_grid=args.eps_grid)
    _write(args.out_prefix + ".hypo_w.csv", hypograph_csv(xs, W_pt, "W"))
    _write(args.out_prefix + ".hypo_v.csv", hypograph_csv(xs, sampler(xs), "V"))
    _write(args.out_prefix + ".sublevels.csv", sublevels_csv(sub))
    report = f"eps = {eps!r}\ncap = {cap!r}\ncap_active = {int(cap_active)}\nsamples = {args.samples}\n"
    _write(args.out_prefix + ".hypo", report)
    print(report, end="")
    return 0


def cmd_check_relation(args):
    with _open(args.problem1) as fh:
        p1 = FiniteProblem.from_focp_text(fh)
    with _open(args.problem2) as fh:
        p2 = FiniteProblem.from_focp_text(fh)
    with _open(args.relation) as fh:
        rel = Relation.from_text(fh)
    if args.mode == "vfrr":
        verdict = check_vfrr(p1, p2, rel)
    else:
        verdict = check_vasr(p1, p2, rel, eps=args.eps)
    text = verdict.to_text()
    if args.out:
        _write(args.out, text)
    print(text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(prog="symoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-finite", help="solve a finite problem from a FOCP file")
    p.add_argument("input")
    p.add_argument("--queue", choices=QUEUES, default="auto")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_solve_finite)

    p = sub.add_parser("synthesize", help="abstract and solve a configured problem")
    p.add_argument("config")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--dump-focp", action="store_true")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("simulate", help="run the refined controller in closed loop")
    p.add_argument("config")
    p.add_argument("--controller", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--x0", action="append", help="initial state, e.g. '0.5 0.1' (repeatable)")
    p.add_argument("--samples", type=_number(int, 0), default=10)
    p.add_argument("--verify-samples", type=_number(int, 0), default=50)
    p.add_argument("--policy", choices=POLICIES, default="uniform")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--max-steps", type=_number(int, 1), default=None)
    p.add_argument("--tol", type=_number(float, 0.0), default=1e-9)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("hypo", help="hypograph distance of a value file to the exact oracle")
    p.add_argument("config")
    p.add_argument("--values", required=True)
    p.add_argument("--samples", type=_number(int, 1), default=4000)
    p.add_argument("--eps-grid", type=_number(float, 0.0, strict=True), default=1e-4)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_hypo)

    p = sub.add_parser("check-relation", help="check a valuated relation between two FOCP files")
    p.add_argument("problem1")
    p.add_argument("problem2")
    p.add_argument("relation")
    p.add_argument("--mode", choices=["vfrr", "vasr"], default="vfrr")
    p.add_argument("--eps", type=_number(float, 0.0), default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_check_relation)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"input error: out of memory: {exc}", file=sys.stderr)
        return 1
    except SoundnessAlarm as exc:
        print(f"soundness alarm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
