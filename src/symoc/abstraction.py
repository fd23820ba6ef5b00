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

from . import core
from .core import INF, CostModel, FiniteProblem, chunks, cut_rows, ranges
from .errors import InputError, SoundnessAlarm
from .grid import GridCover, InputGrid
from .reach import ReachPlan, SampledSystem, attain_over_batch, check_reach_parameters


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


def _expand_ranges(cover: GridCover, corner, span):
    """Rows of consecutive successor ids of the blocks with flat corner ids
    ``corner`` and per-axis spans ``span`` (dim, blocks): (block, first id,
    offset of the row in its block), block by block in increasing ids.  A
    block's rows all have its last-axis span as length, so only their first
    ids need the per-axis index arithmetic."""
    length = span[-1]
    block, rem = ranges(0, np.where(length > 0, span[:-1].prod(axis=0), 0))
    offset = rem * length[block]
    first = corner[block].astype(np.int64)
    for axis in range(cover.dim - 2, 0, -1):
        rem, local = np.divmod(rem, span[axis, block])
        first += local * int(cover._strides[axis])
    if cover.dim > 1:  # what is left of rem is the first axis's local index
        rem *= int(cover._strides[0])
        first += rem
    return block, first, offset


class Abstraction(FiniteProblem):
    """A finite abstraction whose successor lists are its reach blocks.

    The cells' pairs, in pair order, keep one form: ``blocks``, a block per
    pair (an int32 flat corner id and an int32 span per axis) where every
    input has one reach branch, or ``union``, the rows of the branches'
    union (int32 first ids and lengths by an int64 offset per pair) where
    every input has several.  A pair's list is its block's ids or its rows',
    then the overflow id iff ``trans_ptr`` gives it one edge more (it
    escapes).  Each overflow pair lists the overflow cell only.  ``rows``
    reads these directly, as the count pass does union rows; ``trans_succ``
    is written from them when first read (``_write_successors``) and checked
    as a given CSR is, after which the form goes and rows are cut from it.
    """

    def __init__(self, cover: GridCover, m, G, trans_ptr, pair_costs, blocks, union):
        self.cover = cover
        self.blocks, self.union = blocks, union  # one of them, the other None
        super().__init__(cover.n_states, m, G, trans_ptr, None, pair_costs=pair_costs)

    @property
    def trans_succ(self) -> np.ndarray:
        if self._succ is None:
            succ = _write_successors(self)
            self._check_successors(succ)
            self._succ, self.blocks, self.union = succ, None, None
        return self._succ

    def rows(self, pairs):
        """As ``FiniteProblem.rows``, read from the blocks or union rows in
        pair order, then the overflow rows of the escaping and overflow
        pairs: the only rows out of pair order."""
        if self._succ is not None:
            return super().rows(pairs)
        ptr, n_grid = self.trans_ptr, self.cover.n_cells * self.m
        if isinstance(pairs, slice):  # the cells' pairs by slices, not gathers
            at = slice(min(pairs.start, n_grid), min(pairs.stop, n_grid))
            over = np.arange(max(pairs.start, n_grid), max(pairs.stop, n_grid))
        else:
            at = pairs[: np.searchsorted(pairs, n_grid)]
            over = pairs[len(at) :]
        start, stop = ptr[at], ptr[1:][at]
        if self.blocks is not None:
            corner, span = self.blocks
            sp = span[:, at]
            place, first, offset = _expand_ranges(self.cover, corner[at], sp)
            length, edge = sp[-1, place], start[place] + offset
            held = sp.prod(axis=0)
        else:
            row_ptr, row_first, row_length = self.union
            place, r = ranges(row_ptr[at], row_ptr[1:][at])
            first, length = row_first[r], row_length[r]
            held = np.bincount(place, length, len(start)).astype(np.int64)
            edge = (start - held.cumsum() + held)[place] + length.cumsum() - length
        esc = np.flatnonzero(stop - start > held)
        spill = np.concatenate((esc, np.arange(len(start), len(start) + len(over))))  # overflow rows
        columns = ((place, spill), (first, np.full(len(spill), self.cover.overflow)),
                   (length, np.ones(len(spill), dtype=np.int32)), (edge, stop[esc] - 1, ptr[over]))
        return cut_rows(*map(np.concatenate, columns))

    def row_counts(self, counts, alive, cuts):
        """As ``FiniteProblem.row_counts``, without expanding the blocks; union
        rows and a written ``trans_succ`` count there, as ``rows`` gives
        them.  A block's rows of one length (all of them, or a piece of each
        cut row) start at the cells of a box, so as a difference array each
        adds +1 and -1 at the box's corners, -1 at each far end of its
        leading axes (dropped where that is past the grid), and running sums
        along those axes of each length's cell grid give the counts.
        Overflow rows count as the edges their pairs' blocks do not hold."""
        if self.blocks is None:
            return super().row_counts(counts, alive, cuts)
        cover, ptr, grid = self.cover, self.trans_ptr, self.cover.n_cells * self.m
        corner, span = self.blocks
        flat, width = counts.reshape(-1), counts.shape[1]  # flat is a view
        lead = cover.dim - 1
        slab = np.append(cover.n_cells, cover._strides[:-1])  # the ids an axis steps within
        spill = 0
        for pa, pb in zip(cuts, cuts[1:]):
            live = alive[pa:pb]
            spill += int(np.diff(ptr[pa : pb + 1])[live].sum())
            hi = max(pa, min(pb, grid))
            live = live[: hi - pa]
            spill -= int(span[:, pa:hi].prod(axis=0)[live].sum())
            live = pa + np.flatnonzero(live & (span[-1, pa:hi] > 0))
            first, length = corner[live].astype(np.int64), span[-1, live].astype(np.int64)
            own, first, length, _ = cut_rows(live, first, length, first)  # a box per piece of a cut row
            sp = span[:, own]
            length -= 1
            length *= width
            for box in range(1 << lead):  # each corner, at the far end of the axes in box's bits
                cell, keep, sign = first + length, np.ones(len(first), dtype=bool), 1
                for axis in (axis for axis in range(lead) if box >> axis & 1):
                    step = sp[axis] * cover._strides[axis]
                    keep &= (first % slab[axis] if axis else first) + step < slab[axis]
                    cell += step
                    sign = -sign
                np.add.at(flat, cell[keep], sign)
        for row in counts:
            cells = row[: cover.n_cells].reshape(cover.counts)  # one length's cell grid
            for axis in range(lead):
                np.cumsum(cells, axis=axis, out=cells)
        counts[0, cover.overflow] += spill


def _write_successors(problem: Abstraction):
    """trans_succ of an abstraction, from its rows, a chunk of whole pairs at
    a time (``core.CHECK_EDGES``): each row's ids laid out from its first edge."""
    succ = np.empty(problem.n_edges, dtype=np.int32)
    cuts = chunks(problem.trans_ptr, core.CHECK_EDGES)
    for pa, pb in zip(cuts, cuts[1:]):
        _, first, length, edge = problem.rows(slice(pa, pb))
        row, at = ranges(edge, edge + length)
        succ[at] = (first - edge)[row] + at
    return succ


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

    The blocks, or union rows, of ``_collect_batched`` are laid out in pair
    order and kept by the ``Abstraction`` in place of ``trans_succ``;
    ``trans_ptr`` is the running sum of their sizes and escapes.  Rows come
    in cell order, so their running count per pair places them: no sort.
    """
    n_states = cover.n_states
    m = len(inputs)
    if n_states * m >= 2**31:  # pair ids and successors are int32
        raise InputError(f"{n_states} states x {m} inputs: need fewer than 2**31 pairs")
    grid_pairs = cover.n_cells * m  # the cells' pairs come first, cell by cell
    per_input = _collect_batched(transitions, cover, costs.gated, m)
    transition_slack = max(entry[4] for entry in per_input)
    capped = [u_idx for u_idx, entry in enumerate(per_input) if entry[5]]

    blocks = union = None
    row_ptr = None if per_input[0][2] is None else np.zeros(grid_pairs + 1, dtype=np.int64)  # union row offsets
    trans_ptr = np.ones(n_states * m + 1, dtype=np.int64)  # the overflow cell's pairs hold one edge
    trans_ptr[0] = 0
    for u_idx, (first, size, cells, escape, *_) in enumerate(per_input):
        if cells is None:  # views of every pair's corners and spans
            blocks = first.base, size.base
            cnt = size.prod(axis=0)
        else:  # rows, several per cell
            row_ptr[1 + u_idx :: m] = np.bincount(cells, minlength=cover.n_cells)
            cnt = np.bincount(cells, size, cover.n_cells)
            per_input[u_idx] = first, size  # the rows' owner cells go
        trans_ptr[1 + u_idx : 1 + grid_pairs : m] = cnt + escape
    if not trans_ptr[1 : 1 + grid_pairs].all():  # a cell that neither escaped nor met the cover
        raise SoundnessAlarm("batch_ranges produced an empty successor set")
    np.cumsum(trans_ptr, out=trans_ptr)
    if row_ptr is not None:  # each input's rows, in cell order, placed at its pairs' offsets
        np.cumsum(row_ptr, out=row_ptr)
        union = row_ptr, np.empty(row_ptr[-1], dtype=np.int32), np.empty(row_ptr[-1], dtype=np.int32)
        for u_idx in range(m):
            at = ranges(row_ptr[u_idx:-1:m], row_ptr[1 + u_idx :: m])[1]
            union[1][at], union[2][at] = per_input[u_idx]
            per_input[u_idx] = None
    del per_input

    pair_costs = np.full(n_states * m, INF)
    pair_costs[:grid_pairs] = np.where(
        costs.g_finite[:, None], costs.input_values[None, :], INF
    ).ravel()

    problem = Abstraction(cover, m, costs.G2, trans_ptr, pair_costs, blocks, union)
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
    """Per input, ``(corner, span, cells, escape, slack, capped)``: the
    successor blocks of ``_union_branches``, the overflow flags (gated cells
    have no other successor), the reach slack and whether the split cap hit.
    Inputs of one reach branch write their blocks, as each comes, into the
    flat corner ids and per-axis spans of the cells' pairs in pair order,
    allocated at the first, and their entries view them.  Every input has
    one branch or every input several, as a ReachPlan fixes one count; an
    input that differs from input 0 is a SoundnessAlarm."""
    per_input, corner, span = [], None, None
    for u_idx in range(m):
        branches, escaped, slack, capped = transitions.batch_ranges(u_idx)
        if u_idx and (len(branches) == 1) != (corner is not None):
            want = "one" if corner is not None else "several"
            raise SoundnessAlarm(f"reach branches: input {u_idx} has {len(branches)}, input 0 {want}; forms do not mix")
        first, size, cells = _union_branches(cover, branches, ~gated)
        if cells is None:
            if corner is None:
                corner = np.empty(cover.n_cells * m, dtype=np.int32)
                span = np.empty((cover.dim, cover.n_cells * m), dtype=np.int32)
            corner[u_idx::m], span[:, u_idx::m] = first, size
            first, size = corner[u_idx::m], span[:, u_idx::m]
        per_input.append((first, size, cells, escaped | gated, float(slack), capped))
    return per_input


def _union_branches(cover, branches, active):
    """The union of the branches' index blocks per active cell, as
    ``(corner, span, cells)``.  One branch keeps its blocks: int32 flat
    corner ids and per-axis spans (dim, cells), as ``_expand_ranges`` reads
    them, and cells None.  Several give rows, the runs of consecutive ids
    among each cell's distinct successors: int32 first ids, lengths and
    owner cells.  Branch boxes may overlap; each branch's rows, keyed owner
    * n_states + id, come in increasing order, so a stable sort (timsort)
    merges them, and a row starting past every earlier row's end starts a run.
    """

    def blocks(lo_idx, hi_idx, empty):
        corner = (cover._strides @ lo_idx).astype(np.int32)
        return corner, np.where(active & ~empty, hi_idx - lo_idx + 1, 0).astype(np.int32)

    if len(branches) == 1:
        return (*blocks(*branches[0]), None)
    n_states = np.int64(cover.n_states)
    start, length = [], []
    for branch in branches:
        corner, span = blocks(*branch)
        cell, first, _ = _expand_ranges(cover, corner, span)
        start.append(first + cell * n_states)
        length.append(span[-1, cell])
    start = np.concatenate(start)
    order = np.argsort(start, kind="stable")
    start = start[order]
    stop = start + np.concatenate(length)[order]
    np.maximum.accumulate(stop, out=stop)
    head = np.flatnonzero(np.insert(start[1:] > stop[:-1], 0, True))
    cells, first = np.divmod(start[head], n_states)
    length = stop[np.append(head[1:], len(start)) - 1] - start[head]
    return first.astype(np.int32), length.astype(np.int32), cells.astype(np.int32)


def abstraction_sidecar_text(cover: GridCover, inputs: InputGrid, cert: ConservatismCertificate) -> str:
    lines = ["symoc-abstraction v1"]
    lines.extend(cover.geometry_lines())
    lines.extend(inputs.geometry_lines())
    lines.append(f"overflow = {cover.overflow}")
    lines.extend(cert.to_lines())
    return "\n".join(lines) + "\n"
