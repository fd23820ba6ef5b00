"""Closed-loop execution of refined controllers against the perturbed plant.

Every plant steps under a piecewise-constant disturbance, SUBSTEPS pieces per
sampling period, drawn in [-w, w] (a map has w = 0 and ignores the pieces).
That discretized adversary under-approximates the measurable-disturbance
semantics, which is fine for its only purpose here: falsifying, never
certifying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INF, CostModel
from .errors import InputError
from .grid import GridCover
from .reach import SUBSTEPS
from .relations import RefinedController, pointwise_upper_bound

CSV_FLOAT = repr


POLICIES = ("zero", "uniform", "extremal")  # disturbance policies, by name


def make_policy(name: str, seed):
    """The disturbance draw of one run, ``draw(w, pieces)``: one value in
    [-w, w] per piece.  ``extremal`` takes an independent corner of [-w, w]
    per piece, which stresses the growth bound harder than ``uniform``."""
    if name not in POLICIES:
        raise InputError(f"unknown disturbance policy {name!r}")
    rng = np.random.default_rng(seed)

    def draw(w, pieces):
        if name == "uniform":
            return rng.uniform(-w, w, size=(pieces, len(w)))
        if name == "extremal":
            return rng.choice([-1.0, 1.0], size=(pieces, len(w))) * w
        return np.zeros((pieces, len(w)))

    return draw


@dataclass
class Trajectory:
    states: np.ndarray  # (T+1, dim)
    inputs: np.ndarray  # (T, input_dim): the input applied at each step
    stopped: bool
    cost: float
    bound: float
    cum_costs: list  # accumulated cost after each row, terminal included at stop

    @property
    def steps(self) -> int:
        return len(self.inputs)

    def to_csv(self) -> str:
        dim = self.states.shape[1]
        header = "t," + ",".join(f"x{i + 1}" for i in range(dim)) + ",u,stop,cum_cost"
        lines = [header]
        for t, x in enumerate(self.states):
            if t < len(self.inputs):
                u_txt = CSV_FLOAT(float(np.atleast_1d(self.inputs[t])[0]))
                stop = 0
            else:
                u_txt = ""
                stop = int(self.stopped)
            cum = self.cum_costs[t]
            xs = ",".join(CSV_FLOAT(float(v)) for v in np.atleast_1d(x))
            lines.append(f"{t},{xs},{u_txt},{stop},{CSV_FLOAT(cum) if cum < INF else 'inf'}")
        return "\n".join(lines) + "\n"


class Runs(list):
    """Closed-loop runs in start order."""

    @property
    def steps(self) -> int:
        """The steps of all the runs."""
        return sum(traj.steps for traj in self)


def run_closed_loop(plant, controller: RefinedController, W, costs: CostModel, starts, policy_name: str, seed: int, max_steps: int) -> Runs:
    """The closed-loop run from each start, all advanced as one array.  Each
    step quantizes the live states and looks their inputs up in the table;
    the rows that stop are charged G and leave, the others move one
    sampling period and are charged g.  A run that has not stopped after
    ``max_steps`` steps leaves with cost inf.  Run i draws its disturbances
    under the seed ``seed + 7919 * i``, once per step that it moves.

    ``plant`` steps as ``plant.step(x, u, disturbances)`` and bounds its
    disturbances by ``plant.w``; with ``W`` None every bound is inf.
    """
    if max_steps < 1:
        raise InputError("max_steps must be at least 1")
    cover = controller.cover
    x = np.array(starts, dtype=float).reshape(-1, cover.dim)
    n = len(x)
    draws = [make_policy(policy_name, seed + 7919 * i) for i in range(n)]
    bounds = np.full(n, INF) if W is None else pointwise_upper_bound(W, cover, x)
    total = np.zeros(n)
    stopped = np.zeros(n, dtype=bool)
    live = np.arange(n)
    # every state row with the cost so far there and its run; the inputs applied (none yet: 0 rows)
    rows, cum_rows, row_runs, inputs = [x], [total.copy()], [live], [controller.representatives[:0]]
    for _ in range(max_steps):
        u, stop = controller.act(x)
        if stop.any():
            total[live[stop]] += costs.G_rows(x[stop])
            stopped[live[stop]] = True
            live, x, u = live[~stop], x[~stop], u[~stop]
        if not len(live):
            break
        pieces = np.stack([draws[i](plant.w, SUBSTEPS) for i in live], axis=1)
        x_next = plant.step(x, u, pieces)
        total[live] += costs.g_rows(x, u)
        x = x_next
        rows.append(x)
        cum_rows.append(total[live])
        row_runs.append(live)
        inputs.append(u)
    cost = np.where(stopped, total, INF).tolist()
    # regroup the rows by run, each run's in step order: its start and one state per step
    row_runs = np.concatenate(row_runs)
    counts = np.bincount(row_runs, minlength=n)
    by_run = lambda parts, runs, sizes: np.split(np.concatenate(parts)[np.argsort(runs, kind="stable")], np.cumsum(sizes)[:-1])
    paths, cums, applied = by_run(rows, row_runs, counts), by_run(cum_rows, row_runs, counts), by_run(inputs, row_runs[n:], counts - 1)
    runs = Runs()
    for i in range(n):
        cum = cums[i].tolist()
        cum[-1] = cost[i]  # the terminal cost at a stop, inf when the budget ran out
        runs.append(Trajectory(paths[i], applied[i], bool(stopped[i]), cost[i], float(bounds[i]), cum))
    return runs


@dataclass
class VerifyReport:
    runs: int = 0
    violations: int = 0
    non_stopping: int = 0
    max_ratio: float = 0.0  # cost / bound over runs with positive finite bound
    worst_gap: float = -INF  # max of cost - bound

    def add(self, traj: Trajectory, tol: float):
        """Count one run; its cost above its bound plus ``tol`` is a violation."""
        self.runs += 1
        if not traj.stopped:
            self.non_stopping += 1
        if traj.cost < INF and traj.bound < INF:
            self.worst_gap = max(self.worst_gap, traj.cost - traj.bound)
            if traj.bound > 0:
                self.max_ratio = max(self.max_ratio, traj.cost / traj.bound)
        if traj.cost > traj.bound + tol:
            self.violations += 1

    def to_text(self) -> str:
        lines = [
            f"runs = {self.runs}",
            f"non_stopping = {self.non_stopping}",
            f"max_cost_bound_ratio = {self.max_ratio!r}",
            f"worst_gap = {self.worst_gap!r}",
            f"violations={self.violations}",
        ]
        return "\n".join(lines) + "\n"


def sample_winning_states(W, cover: GridCover, seed, count: int):
    """Initial states drawn uniformly from random cells with finite value;
    ``seed`` is a seed or a Generator."""
    rng = np.random.default_rng(seed)
    finite = np.nonzero(np.isfinite(W[: cover.n_cells]))[0]
    if len(finite) == 0:
        return np.empty((0, cover.dim))
    return rng.uniform(*cover.cell_boxes(rng.choice(finite, size=count)))


def batch_verify(plant, controller: RefinedController, W, cover: GridCover, costs: CostModel, sample_count: int, policy_name: str, seed: int, max_steps: int, tol: float = 0.0) -> VerifyReport:
    """Monte-Carlo soundness check: closed-loop cost from sampled winning
    states never exceeds the pointwise upper bound (plus tol).

    A violation always indicates an implementation bug, never an expected
    outcome; the report merge is order-independent (max / count aggregation).
    """
    starts = sample_winning_states(W, cover, seed, sample_count)
    report = VerifyReport()
    for traj in run_closed_loop(plant, controller, W, costs, starts, policy_name, seed, max_steps):
        report.add(traj, tol)
    return report
