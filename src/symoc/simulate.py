"""Closed-loop execution of refined controllers against the perturbed plant.

The plant step integrates the disturbed dynamics with a piecewise-constant
disturbance drawn per integrator substep.  That discretized adversary
under-approximates the measurable-disturbance semantics, which is fine for
its only purpose here: falsifying, never certifying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import INF, CostModel
from .errors import InputError
from .grid import GridCover
from .reach import SampledSystem, rk4
from .relations import RefinedController, pointwise_upper_bound

CSV_FLOAT = repr


def perturbed_step(sys: SampledSystem, x, u, disturbances, substeps_per_piece: int = 2):
    """One sampling period of x' = f(x,u) + d(t), d piecewise constant with
    one value per row of ``disturbances``."""
    x = np.asarray(x, dtype=float)
    h = sys.tau / len(disturbances)
    for d in disturbances:
        x = rk4(lambda y: sys.f(y, u) + d, x, h, substeps_per_piece)
    return x


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
    inputs: list  # concrete input vectors, one per executed step
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
            cum = self.cum_costs[t] if t < len(self.cum_costs) else self.cum_costs[-1]
            xs = ",".join(CSV_FLOAT(float(v)) for v in np.atleast_1d(x))
            lines.append(f"{t},{xs},{u_txt},{stop},{CSV_FLOAT(cum) if cum < INF else 'inf'}")
        return "\n".join(lines) + "\n"


def run_closed_loop(plant, controller: RefinedController, x0, policy, max_steps: int, costs: CostModel, W=None, substeps: int = 5) -> Trajectory:
    """Iterate quantize -> table lookup -> apply input for one sampling period
    until the controller stops or the step budget runs out (cost inf then).

    ``plant`` is a SampledSystem or a discrete map object with ``step``.
    """
    if max_steps < 1:
        raise InputError("max_steps must be at least 1")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    cover = controller.cover
    bound = INF if W is None else pointwise_upper_bound(W, cover, x)
    states = [x.copy()]
    inputs = []
    cum = [0.0]
    total = 0.0
    stopped = False
    for _ in range(max_steps):
        u_vec, stop = controller.act(x)
        if stop:
            stopped = True
            total += costs.G(x)
            cum[-1] = total
            break
        if isinstance(plant, SampledSystem):
            pieces = policy(plant.w, substeps)
            x_next = perturbed_step(plant, x, u_vec, pieces)
        else:
            x_next = np.atleast_1d(plant.step(x))
        total += costs.g(x, x_next, u_vec)
        inputs.append(u_vec)
        x = x_next
        states.append(x.copy())
        cum.append(total)
    if not stopped:
        total = INF
        cum[-1] = INF
    return Trajectory(np.array(states), inputs, stopped, total, bound, cum)


def closed_loop_runs(plant, controller: RefinedController, W, costs: CostModel, starts, policy_name: str, seed: int, max_steps: int, substeps: int = 5):
    """The closed-loop run from each start, in order; run i draws its
    disturbances under the seed ``seed + 7919 * i``."""
    for i, x0 in enumerate(starts):
        policy = make_policy(policy_name, seed + 7919 * i)
        yield run_closed_loop(plant, controller, x0, policy, max_steps, costs, W=W, substeps=substeps)


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


def batch_verify(plant, controller: RefinedController, W, cover: GridCover, costs: CostModel, sample_count: int, policy_name: str, seed: int, max_steps: int, tol: float = 0.0, substeps: int = 5) -> VerifyReport:
    """Monte-Carlo soundness check: closed-loop cost from sampled winning
    states never exceeds the pointwise upper bound (plus tol).

    A violation always indicates an implementation bug, never an expected
    outcome; the report merge is order-independent (max / count aggregation).
    """
    starts = sample_winning_states(W, cover, seed, sample_count)
    report = VerifyReport()
    for traj in closed_loop_runs(plant, controller, W, costs, starts, policy_name, seed, max_steps, substeps):
        report.add(traj, tol)
    return report
