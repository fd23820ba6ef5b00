"""Finite abstractions over cell covers with certified conservatism.

The abstract problem has one state per grid cell plus the overflow cell, which
absorbs everything outside the cover (infinite terminal cost, all-infinite
outgoing costs, a self-loop).  Cells on which both cost functions are
identically infinite receive a single transition to overflow instead of a
computed reach set.

Abstract costs are exact for the supported cost kinds: the terminal cost is 0
wherever it is finite and the running cost there depends on the input only,
so G2 is 0 on cells lying wholly in the finite terminal region (else inf) and
g2 is the input's running cost on cells wholly in the finite running region.
Together with the transition over-approximation this makes the finite
problem an abstraction of the concrete one, with conservatism bounded by the
maximum of the certificate components (the two cost components are 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import INF, CostModel, FiniteProblem
from .errors import InputError, SoundnessAlarm
from .grid import GridCover, InputGrid
from .reach import ReachPlan, SampledSystem, attain_over_batch, check_reach_parameters

import logging

log = logging.getLogger(__name__)


@dataclass
class ConservatismCertificate:
    """Worst-case slack per conservatism condition; rho is their maximum.
    The terminal and running cost conditions hold with slack 0, since the
    abstract costs are exact."""

    input_radius: float
    transition_slack: float
    cell_diameter: float
    notes: list = field(default_factory=list)

    @property
    def rho(self) -> float:
        return max(self.input_radius, self.transition_slack, self.cell_diameter)

    def to_lines(self):
        lines = [
            f"rho = {self.rho!r}",
            f"rho_input_radius = {self.input_radius!r}",
            "rho_terminal_slack = 0.0",
            "rho_running_slack = 0.0",
            f"rho_transition_slack = {self.transition_slack!r}",
            f"rho_cell_diameter = {self.cell_diameter!r}",
        ]
        lines.extend(f"note = {n}" for n in self.notes)
        return lines


class AbstractCosts:
    """Cost data of the abstraction, per cell: the terminal costs G2 (overflow
    included), whether the running cost is finite and whether both costs are
    identically infinite; per input: the finite running cost."""

    def __init__(self, model: CostModel, cover: GridCover, inputs: InputGrid):
        self.model = model
        los, his = cover.cell_boxes()
        self.g_finite = model.cells_g_finite(los, his)
        self.gated = model.cells_all_infinite(los, his)
        self.G2 = np.full(cover.n_states, INF)
        self.G2[: cover.n_cells][model.cells_G_finite(los, his)] = 0.0
        self.input_values = model.finite_g_rows(inputs.representatives)


def abstract_costs(costs: CostModel, cover: GridCover, inputs: InputGrid) -> AbstractCosts:
    return AbstractCosts(costs, cover, inputs)


class SampledReach:
    """Transition over-approximator for a sampled ODE plant.

    ``batch_ranges`` runs the interval subdivision procedure for all cells of
    the cover under one input at once; the radius, drift and splits depend
    on no cell and no input, so they are planned once, at the first call.
    """

    def __init__(self, sys: SampledSystem, cover: GridCover, inputs: InputGrid, k: int, theta: float, gamma: float):
        check_reach_parameters(k, theta, gamma)
        self.sys = sys
        self.cover = cover
        self.inputs = inputs
        self.k = int(k)
        self.theta = float(theta)
        self.gamma = float(gamma)
        self.r0 = cover.eta / 2.0
        if not sys.substep_escape_guard_ok(self.k):
            self.guard_note = (
                "escape test at substep boundaries only: tau/k exceeds "
                "eps/||A0||, intra-substep excursions not separately covered"
            )
        else:
            self.guard_note = None

    @cached_property
    def plan(self) -> ReachPlan:
        return ReachPlan(self.sys, self.r0, self.k, self.theta, self.gamma, self.cover.max_diameter)

    @cached_property
    def centers(self):
        """The cell centers, coordinate-first: (dim, cells)."""
        return np.ascontiguousarray(self.cover.centers_all().T)

    def batch_ranges(self, u_idx: int):
        cover, n_branches = self.cover, self.plan.branches
        lo_idx = np.empty((cover.dim, n_branches, cover.n_cells), dtype=np.int64)
        hi_idx = np.empty_like(lo_idx)
        empty = np.empty((n_branches, cover.n_cells), dtype=bool)
        escaped = np.empty(cover.n_cells, dtype=bool)
        for cells, lo, hi, esc in attain_over_batch(self.plan, self.centers, self.inputs.representatives[u_idx]):
            lo_idx[:, :, cells], hi_idx[:, :, cells], out, empty[:, cells] = cover.box_index_ranges(lo, hi)
            escaped[cells] = esc | out.any(axis=0)
        branches = [(lo_idx[:, b], hi_idx[:, b], empty[b]) for b in range(n_branches)]
        return branches, escaped, self.plan.slack, self.plan.capped


class MapReach:
    """Exact-image transition over-approximator for discrete interval maps."""

    def __init__(self, plant, cover: GridCover):
        self.plant = plant
        self.cover = cover
        self.guard_note = None
        # two outward ulps per endpoint keep the float image a superset
        self.slack = 4.0 * np.finfo(float).eps

    def batch_ranges(self, u_idx: int):
        lo, hi = self.plant.image_of_box(*self.cover.cell_boxes())
        lo_idx, hi_idx, escaped, empty = self.cover.box_index_ranges(lo.T, hi.T)
        return [(lo_idx, hi_idx, empty)], escaped, self.slack, False


def _expand_ranges(cover: GridCover, lo_idx, hi_idx, active):
    """Flat successor ids for the coordinate-first (dim, cells) index blocks
    of the active cells, cell by cell, and the per-cell counts."""
    spans = hi_idx - lo_idx + 1
    cnt = np.where(active, spans.prod(axis=0), 0)
    # a block is rows of consecutive flat ids along the last axis: only the
    # rows' first ids need the per-axis index arithmetic
    rows = np.where(active, spans[:-1].prod(axis=0), 0)
    row_owner = np.repeat(np.arange(cover.n_cells), rows)
    rem = np.arange(len(row_owner), dtype=np.int64) - np.repeat(np.cumsum(rows) - rows, rows)
    first = lo_idx[-1, row_owner]
    for axis in range(cover.dim - 2, -1, -1):
        rem, local = np.divmod(rem, spans[axis, row_owner])
        first += (lo_idx[axis, row_owner] + local) * int(cover._strides[axis])
    length = spans[-1, row_owner]
    flat = np.repeat(first - (np.cumsum(length) - length), length)
    flat += np.arange(len(flat))
    return flat, cnt


def build_abstraction(transitions, cover: GridCover, inputs: InputGrid, costs: AbstractCosts):
    """Assemble the finite abstraction from a transition over-approximator.

    ``transitions.batch_ranges(input)`` returns, for all cells at once,
    ``(branches, escaped, slack, capped)``: a list of per-branch ``(lo_idx,
    hi_idx, empty)`` cell index blocks (coordinate-first, as
    ``GridCover.box_index_ranges`` gives them), a per-cell flag for
    successors outside the cover, a bound on the over-approximation slack
    and whether a split cap sent every cell to overflow; ``transitions.guard_note`` is a certificate
    note or None.  Cells that are gated (both costs identically infinite)
    get a single transition to overflow.
    """
    n_states = cover.n_states
    m = len(inputs)
    overflow = cover.overflow
    gated = costs.gated
    if n_states * m >= 2**31:  # pair ids and successors are int32
        raise InputError(f"{n_states} states x {m} inputs: need fewer than 2**31 pairs")
    per_input = _collect_batched(transitions, cover, gated, m)

    sizes = np.zeros(n_states * m, dtype=np.int64)
    grid_pairs = cover.n_cells * m  # the cells' pairs come first, cell by cell
    for u_idx, (succ_u, cnt_u, escape_u, *_) in enumerate(per_input):
        sizes[u_idx:grid_pairs:m] = cnt_u + escape_u
    sizes[grid_pairs:] = 1  # the overflow cell's pairs
    trans_ptr = np.zeros(n_states * m + 1, dtype=np.int64)
    np.cumsum(sizes, out=trans_ptr[1:])
    trans_succ = np.empty(int(trans_ptr[-1]), dtype=np.int32)

    transition_slack = max(entry[3] for entry in per_input)
    capped = [u_idx for u_idx, entry in enumerate(per_input) if entry[4]]
    for u_idx in range(m):
        succ_u, cnt_u, escape_u, *_ = per_input[u_idx]
        per_input[u_idx] = None  # freed once scattered, so later allocations reuse the memory
        starts = trans_ptr[u_idx:grid_pairs:m]
        if len(succ_u):
            dest = np.repeat(starts - (np.cumsum(cnt_u) - cnt_u), cnt_u)
            dest += np.arange(len(succ_u))
            trans_succ[dest] = succ_u
        esc_cells = np.nonzero(escape_u)[0]
        trans_succ[starts[esc_cells] + cnt_u[esc_cells]] = overflow
    trans_succ[trans_ptr[grid_pairs:-1]] = overflow

    pair_costs = np.full(n_states * m, INF)
    pair_costs[:grid_pairs] = np.where(
        costs.g_finite[:, None], costs.input_values[None, :], INF
    ).ravel()

    problem = FiniteProblem(n_states, m, costs.G2, trans_ptr, trans_succ, pair_costs=pair_costs)
    cert = ConservatismCertificate(
        input_radius=inputs.radius, transition_slack=transition_slack, cell_diameter=cover.max_diameter
    )
    if transitions.guard_note:
        cert.notes.append(transitions.guard_note)
    if capped:
        cert.notes.append(
            f"split cap hit for inputs {' '.join(map(str, capped))}: all cells route to overflow under them"
        )
    cert.notes.append("gamma is a trusted numerical-error budget (unverified)")
    return problem, cert


def _collect_batched(transitions, cover, gated, m):
    """Per input: int32 successors, per-cell counts, the overflow
    flags, the reach slack and whether the split cap was hit."""
    active = ~gated

    def one(u_idx):
        branches, escaped, slack, capped = transitions.batch_ranges(u_idx)
        flat, cnt = _union_branches(cover, branches, active)
        if np.any((cnt == 0) & ~escaped & active):
            raise SoundnessAlarm("batch_ranges produced an empty successor set")
        return flat.astype(np.int32), cnt, escaped | gated, float(slack), capped

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
        flat, cnt = _expand_ranges(cover, lo_idx, hi_idx, active & ~empty)
        key = np.repeat(np.arange(cover.n_cells) * n_states, cnt)  # the owner cell
        key += flat
        return key

    key = np.concatenate([keys(*branch) for branch in branches])
    key.sort(kind="stable")
    keep = np.empty(len(key), dtype=bool)
    keep[:1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    owner = key // n_states
    key -= owner * n_states
    return key, np.bincount(owner, minlength=cover.n_cells)


def abstraction_sidecar_text(cover: GridCover, inputs: InputGrid, cert: ConservatismCertificate) -> str:
    lines = ["symoc-abstraction v1"]
    lines.extend(cover.geometry_lines())
    lines.extend(inputs.geometry_lines())
    lines.append(f"overflow = {cover.overflow}")
    lines.extend(cert.to_lines())
    return "\n".join(lines) + "\n"
