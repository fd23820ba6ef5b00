"""Finite abstractions over cell covers with certified conservatism.

The abstract problem has one state per grid cell plus the overflow cell, which
absorbs everything outside the cover (infinite terminal cost, all-infinite
outgoing costs, a self-loop).  Cells on which both cost functions are
identically infinite receive a single transition to overflow instead of a
computed reach set.

Abstract costs follow the Lipschitz recipe: the terminal cost is 0 wherever
it is finite, so G2 is A2 * ||eta|| / 2 when the whole closed cell has finite
terminal cost (else inf), and the running cost adds A3 * ||eta|| on cells
with finite running cost.  Together with the transition over-approximation
this makes the finite problem an abstraction of the concrete one, with
conservatism bounded by the maximum of the certificate components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import INF, CostModel, FiniteProblem
from .errors import SoundnessAlarm
from .grid import GridCover, InputGrid
from .reach import SampledSystem, attain_over_batch, check_reach_parameters

import logging

log = logging.getLogger(__name__)


@dataclass
class ConservatismCertificate:
    """Worst-case slack per conservatism condition; rho is their maximum."""

    input_radius: float
    terminal_slack: float
    running_slack: float
    transition_slack: float
    cell_diameter: float
    notes: list = field(default_factory=list)

    @property
    def rho(self) -> float:
        return max(
            self.input_radius,
            self.terminal_slack,
            self.running_slack,
            self.transition_slack,
            self.cell_diameter,
        )

    def to_lines(self):
        lines = [
            f"rho = {self.rho!r}",
            f"rho_input_radius = {self.input_radius!r}",
            f"rho_terminal_slack = {self.terminal_slack!r}",
            f"rho_running_slack = {self.running_slack!r}",
            f"rho_transition_slack = {self.transition_slack!r}",
            f"rho_cell_diameter = {self.cell_diameter!r}",
        ]
        lines.extend(f"note = {n}" for n in self.notes)
        return lines


class AbstractCosts:
    """Cost data of the abstraction: terminal array plus a lazy running-cost
    evaluator (per source cell and input; the successors never enter the
    finite running costs of the supported cost shapes)."""

    def __init__(self, model: CostModel, cover: GridCover, inputs: InputGrid, A2: float, A3: float):
        self.model = model
        self.cover = cover
        self.inputs = inputs
        self.A2 = float(A2)
        self.A3 = float(A3)
        eta_norm = cover.max_diameter
        los, his = cover.cell_boxes()
        self.G_finite = model.cells_G_finite(los, his)
        self.g_finite = model.cells_g_finite(los, his)
        self.gated = model.cells_all_infinite(los, his)
        self.G2 = np.full(cover.n_states, INF)
        self.G2[: cover.n_cells][self.G_finite] = self.A2 * eta_norm / 2.0
        self.input_values = np.array(
            [model.finite_g_value(u) + self.A3 * eta_norm for u in inputs.representatives]
        )
        self.terminal_slack = self.A2 * eta_norm
        self.running_slack = 2.0 * self.A3 * eta_norm


def abstract_costs(costs: CostModel, cover: GridCover, inputs: InputGrid, A2: float, A3: float) -> AbstractCosts:
    return AbstractCosts(costs, cover, inputs, A2, A3)


class SampledReach:
    """Transition over-approximator for a sampled ODE plant.

    ``batch_ranges`` runs the interval subdivision procedure for all cells of
    the cover under one input at once, exploiting that the radius dynamics
    does not depend on the state.
    """

    def __init__(self, sys: SampledSystem, cover: GridCover, inputs: InputGrid, k: int, theta: float, gamma: float, substeps: int = 5, max_splits: int = 64):
        check_reach_parameters(k, theta, gamma)
        self.sys = sys
        self.cover = cover
        self.inputs = inputs
        self.k = int(k)
        self.theta = float(theta)
        self.gamma = float(gamma)
        self.substeps = int(substeps)
        self.max_splits = int(max_splits)
        self.r0 = cover.eta / 2.0
        if not sys.substep_escape_guard_ok(self.k):
            self.guard_note = (
                "escape test at substep boundaries only: tau/k exceeds "
                "eps/||A0||, intra-substep excursions not separately covered"
            )
        else:
            self.guard_note = None

    def batch_ranges(self, u_idx: int):
        u = self.inputs.representatives[u_idx]
        lo_b, hi_b, escaped, slack, capped = attain_over_batch(
            self.sys, self.cover.centers_all(), self.r0, u, self.k, self.theta,
            self.gamma, self.cover.max_diameter, self.substeps, self.max_splits,
        )
        branches = []
        for lo, hi in zip(lo_b, hi_b):
            lo_idx, hi_idx, esc, empty = self.cover.box_index_ranges(lo, hi)
            escaped = escaped | esc
            branches.append((lo_idx, hi_idx, empty))
        return branches, escaped, slack, capped


class MapReach:
    """Exact-image transition over-approximator for discrete interval maps."""

    def __init__(self, plant, cover: GridCover):
        self.plant = plant
        self.cover = cover
        self.guard_note = None
        # two outward ulps per endpoint keep the float image a superset
        self.slack = 4.0 * np.finfo(float).eps

    def batch_ranges(self, u_idx: int):
        lo_idx, hi_idx, escaped, empty = self.cover.box_index_ranges(
            *self.plant.image_of_box(*self.cover.cell_boxes())
        )
        return [(lo_idx, hi_idx, empty)], escaped, self.slack, False


def _expand_ranges(cover: GridCover, lo_idx, hi_idx, active):
    """Flat successor ids for the index blocks of the active cells, plus the
    cell id each successor belongs to and the per-cell counts."""
    spans = hi_idx - lo_idx + 1
    cnt = np.where(active, spans.prod(axis=1), 0)
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), cnt
    # a block is rows of consecutive flat ids along the last axis: only the
    # rows' first ids need the per-axis index arithmetic
    rows = np.where(active, spans[:, :-1].prod(axis=1), 0)
    row_owner = np.repeat(np.arange(cover.n_cells), rows)
    rem = np.arange(len(row_owner), dtype=np.int64) - np.repeat(np.cumsum(rows) - rows, rows)
    first = lo_idx[row_owner, -1]
    for axis in range(cover.dim - 2, -1, -1):
        rem, local = np.divmod(rem, spans[row_owner, axis])
        first += (lo_idx[row_owner, axis] + local) * int(cover._strides[axis])
    length = spans[row_owner, -1]
    flat = np.repeat(first - (np.cumsum(length) - length), length)
    flat += np.arange(total)
    return flat, np.repeat(np.arange(cover.n_cells), cnt), cnt


def build_abstraction(transitions, cover: GridCover, inputs: InputGrid, costs: AbstractCosts):
    """Assemble the finite abstraction from a transition over-approximator.

    ``transitions.batch_ranges(input)`` returns, for all cells at once,
    ``(branches, escaped, slack, capped)``: a list of per-branch ``(lo_idx,
    hi_idx, empty)`` cell index blocks, a per-cell flag for successors outside
    the cover, a bound on the over-approximation slack and whether a split cap
    sent every cell to overflow.  Cells that are gated (both costs
    identically infinite) get a single transition to overflow.
    """
    n_states = cover.n_states
    m = len(inputs)
    overflow = cover.overflow
    gated = costs.gated
    dtype = np.int32 if n_states < 2**31 else np.int64
    per_input = _collect_batched(transitions, cover, gated, m, dtype)

    sizes = np.zeros(n_states * m, dtype=np.int64)
    for u_idx, (succ_u, cnt_u, escape_u, *_) in enumerate(per_input):
        sizes[np.arange(cover.n_cells) * m + u_idx] = cnt_u + escape_u
    sizes[overflow * m : (overflow + 1) * m] = 1
    trans_ptr = np.zeros(n_states * m + 1, dtype=np.int64)
    np.cumsum(sizes, out=trans_ptr[1:])
    trans_succ = np.empty(int(trans_ptr[-1]), dtype=dtype)

    transition_slack = max(entry[3] for entry in per_input)
    capped = [u_idx for u_idx, entry in enumerate(per_input) if entry[4]]
    for u_idx in range(m):
        succ_u, cnt_u, escape_u, *_ = per_input[u_idx]
        per_input[u_idx] = None  # freed once scattered, so later allocations reuse the memory
        starts = trans_ptr[np.arange(cover.n_cells, dtype=np.int64) * m + u_idx]
        if len(succ_u):
            dest = np.repeat(starts - (np.cumsum(cnt_u) - cnt_u), cnt_u)
            dest += np.arange(len(succ_u))
            trans_succ[dest] = succ_u
        esc_cells = np.nonzero(escape_u)[0]
        trans_succ[starts[esc_cells] + cnt_u[esc_cells]] = overflow
    trans_succ[trans_ptr[overflow * m : (overflow + 1) * m]] = overflow

    pair_costs = np.full(n_states * m, INF)
    grid_pids = (np.arange(cover.n_cells, dtype=np.int64)[:, None] * m + np.arange(m)).ravel()
    pair_costs[grid_pids] = np.where(
        costs.g_finite[:, None], costs.input_values[None, :], INF
    ).ravel()

    problem = FiniteProblem(n_states, m, costs.G2, trans_ptr, trans_succ, pair_costs=pair_costs)
    cert = ConservatismCertificate(
        input_radius=inputs.radius,
        terminal_slack=costs.terminal_slack,
        running_slack=costs.running_slack,
        transition_slack=transition_slack,
        cell_diameter=cover.max_diameter,
    )
    guard_note = getattr(transitions, "guard_note", None)
    if guard_note:
        cert.notes.append(guard_note)
    if capped:
        cert.notes.append(
            f"split cap hit for inputs {' '.join(map(str, capped))}: all cells route to overflow under them"
        )
    cert.notes.append("gamma is a trusted numerical-error budget (unverified)")
    return problem, cert


def _collect_batched(transitions, cover, gated, m, dtype):
    """Per input: successors (as ``dtype``), per-cell counts, the overflow
    flags, the reach slack and whether the split cap was hit."""
    active = ~gated

    def one(u_idx):
        branches, escaped, slack, capped = transitions.batch_ranges(u_idx)
        flat, _, cnt = _union_branches(cover, branches, active)
        if np.any((cnt == 0) & ~escaped & active):
            raise SoundnessAlarm("batch_ranges produced an empty successor set")
        return flat.astype(dtype), cnt, escaped | gated, float(slack), capped

    return [one(u) for u in range(m)]


def _union_branches(cover, branches, active):
    """``_expand_ranges`` of the union of the branches' index blocks: per
    active cell, its distinct successors in increasing order.

    Branch boxes may overlap.  Each branch yields its (owner, successor) keys
    in increasing order, so the joined keys are a few sorted runs, which a
    stable sort (timsort) merges; equal neighbours are then duplicates.
    """
    if len(branches) == 1:
        lo_idx, hi_idx, empty = branches[0]
        return _expand_ranges(cover, lo_idx, hi_idx, active & ~empty)
    n_states = np.int64(cover.n_states)

    def keys(lo_idx, hi_idx, empty):
        flat, owner, _ = _expand_ranges(cover, lo_idx, hi_idx, active & ~empty)
        owner *= n_states
        owner += flat
        return owner

    key = np.concatenate([keys(*branch) for branch in branches])
    key.sort(kind="stable")
    keep = np.empty(len(key), dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    owner = key // n_states
    key -= owner * n_states
    return key, owner, np.bincount(owner, minlength=cover.n_cells)


def abstraction_sidecar_text(cover: GridCover, inputs: InputGrid, cert: ConservatismCertificate) -> str:
    lines = ["symoc-abstraction v1"]
    lines.extend(cover.geometry_lines())
    lines.extend(inputs.geometry_lines())
    lines.append(f"overflow = {cover.overflow}")
    lines.extend(cert.to_lines())
    return "\n".join(lines) + "\n"
