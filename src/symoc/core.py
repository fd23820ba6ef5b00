"""Problem data: extended costs, finite problems, cost models, controllers.

Costs are non-negative floats extended with ``math.inf``; float arithmetic
already saturates (inf + x = inf), which is exactly the convention required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .sets import SetPredicate

INF = math.inf

STOP = -1  # controller table entry meaning "no input chosen, stop here"


# --- CSR primitives: every walk over index ranges or runs of edges ------------


def ranges(starts, stops):
    """(owner k, index) of every element of the ranges [starts[k], stops[k]),
    concatenated in k order."""
    sizes = stops - starts
    owner = np.arange(len(sizes)).repeat(sizes)  # methods, not np.repeat: no dispatch per call
    index = (starts - sizes.cumsum() + sizes).repeat(sizes)
    index += np.arange(len(owner))
    return owner, index


def chunks(ptr, size):
    """Item ids cutting the items of CSR index ``ptr`` into runs of whole
    items, in order: a run holds fewer than ``size`` plus the largest item's
    elements (its items start within ``size`` of each other), and an item
    of more than ``size`` elements is a run of its own."""
    cuts = np.searchsorted(ptr, np.arange(0, ptr[-1], size))  # the first item starting at or past each multiple
    last = cuts[cuts > 0] - 1  # an item of more than size elements spans a multiple, so a cut follows it
    big = last[ptr[last + 1] - ptr[last] > size]
    return np.unique(np.concatenate(([0, len(ptr) - 1], cuts, big))).tolist()


ROW_MAX = 8  # the longest row: longer runs of consecutive successors are cut


def cut_rows(place, first, length, edge):
    """Rows (pair's place, first id, length, first edge) with each row
    longer than ROW_MAX cut into rows of ROW_MAX and a rest, in place of it."""
    if length.max(initial=0) <= ROW_MAX:
        return place, first, length, edge
    own, piece = ranges(0, (length - 1) // ROW_MAX + 1)
    piece *= ROW_MAX
    return place[own], first[own] + piece, np.minimum(length[own] - piece, ROW_MAX), edge[own] + piece


def offsets(keys, n):
    """CSR offsets of the runs of 0..n-1 in the ascending array ``keys``,
    searched in the keys' dtype."""
    return np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype))


def as_indices(values, what):
    """``values`` as an int64 array.  A value that the conversion changes (a
    fraction, NaN or inf) is an InputError naming it; integers skip the check."""
    values = np.asarray(values)
    if values.dtype.kind in "iub":
        return values.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        ints = values.astype(np.int64)
    bad = np.flatnonzero(ints != values)
    if len(bad):
        raise InputError(f"{what} {values.flat[bad[0]]} is not an integer")
    return ints


CHECK_EDGES = 1 << 16  # edges per chunk of whole pairs, wherever pairs are read a chunk at a time


def repeats(heads, succ):
    """Places in ``succ``, the lists of consecutive pairs starting at
    ``heads`` (0 first), of the entries that an earlier entry of their
    pair's list repeats, ascending.  Rising lists pass with one compare per
    entry; any others are sorted by (pair, successor), with successors
    below 2**32 where there are several pairs, and only a sort that finds a
    repeat is redone as a stable argsort."""
    rise = succ[1:] > succ[:-1]
    rise[heads[1:] - 1] = True
    if rise.all():
        return heads[:0]
    key = np.zeros(len(succ), dtype=np.int64)
    key[heads[1:]] = 1 << 32
    np.cumsum(key, out=key)
    key += succ
    ordered = np.sort(key)
    if (ordered[1:] != ordered[:-1]).all():
        return heads[:0]
    order = key.argsort(kind="stable")
    key = key[order]
    return np.sort(order[1:][key[1:] == key[:-1]])


class FiniteProblem:
    """A finite optimal control problem (X, U, F, G, g) in indexed form.

    Transitions are stored CSR-style per (state, input) pair; every pair must
    have at least one successor (the transition function is strict).  Running
    costs are attached per transition, or per (state, input) pair when they do
    not depend on the successor (``pair_costs`` mode, used by large
    abstractions to keep memory linear in the pair count).

    F(p, u) is a set: no pair lists a successor twice.  The solver reads
    successor lists as rows (``rows``).  A subclass may keep its lists in
    another form and build ``trans_succ`` when it is first read.
    """

    def __init__(self, n, m, G, trans_ptr, trans_succ, edge_costs=None, pair_costs=None):
        self.n = int(n)
        self.m = int(m)
        self.G = np.asarray(G, dtype=float)
        self.trans_ptr = as_indices(trans_ptr, "transition index entry")
        self._succ = None if trans_succ is None else np.asarray(trans_succ)
        self.edge_costs = None if edge_costs is None else np.asarray(edge_costs, dtype=float)
        self.pair_costs = None if pair_costs is None else np.asarray(pair_costs, dtype=float)
        self._validate()

    def _validate(self):
        if self.n <= 0 or self.m <= 0:
            raise InputError("need at least one state and one input")
        if self.n * self.m >= 2**31:
            raise InputError(f"{self.n} states x {self.m} inputs exceed the int32 pair ids")
        if self.G.shape != (self.n,):
            raise InputError("terminal cost array has wrong length")
        if np.any(np.isnan(self.G)) or np.any(self.G < 0):
            raise InputError("terminal costs must be non-negative")
        if self.trans_ptr.shape != (self.n * self.m + 1,):
            raise InputError("transition index has wrong length")
        if self.trans_ptr[0] != 0 or (self._succ is not None and self.trans_ptr[-1] != len(self._succ)):
            raise InputError("transition index is inconsistent")
        if np.any(np.diff(self.trans_ptr) < 1):
            p, u = divmod(int(np.flatnonzero(np.diff(self.trans_ptr) < 1)[0]), self.m)
            raise InputError(f"every (state, input) pair needs a successor (F strict): ({p},{u}) has none")
        if self._succ is not None:
            self._check_successors(self._succ)
        if (self.edge_costs is None) == (self.pair_costs is None):
            raise InputError("exactly one of edge_costs/pair_costs required")
        want = self.n_edges if self.edge_costs is not None else self.n * self.m
        if self.costs.shape != (want,):
            raise InputError("cost array has wrong length")
        if not self.costs.min() >= 0:  # NaN fails too, with no temporary per edge
            raise InputError("running costs must be non-negative")

    def _check_successors(self, succ):
        """The check every CSR a problem holds passes: successors are
        integer state ids and no pair lists one twice.  It reads chunks of
        whole pairs (``repeats``) and names the first repeat in pair order,
        then list order."""
        if len(succ) and (succ.min() < 0 or succ.max() >= self.n):
            raise InputError("successor index out of range")
        if not np.issubdtype(succ.dtype, np.integer):
            raise InputError(f"successor indices must be integers, not {succ.dtype}")
        ptr = self.trans_ptr
        cuts = chunks(ptr, CHECK_EDGES)
        for pa, pb in zip(cuts, cuts[1:]):
            a = ptr[pa]
            at = repeats(ptr[pa:pb] - a, succ[a : ptr[pb]])
            if len(at):
                e = a + int(at[0])
                p, u = divmod(int(np.searchsorted(ptr, e, side="right")) - 1, self.m)
                raise InputError(f"duplicate transition ({p},{u},{succ[e]})")

    @property
    def trans_succ(self) -> np.ndarray:
        """The successor ids of every pair, pair after pair."""
        return self._succ

    @property
    def costs(self) -> np.ndarray:
        """The running costs as given: per edge, or per pair."""
        return self.edge_costs if self.edge_costs is not None else self.pair_costs

    @property
    def n_edges(self) -> int:
        return int(self.trans_ptr[-1])

    def rows(self, pairs):
        """The successor rows of ``pairs``, a slice of consecutive pair ids
        or an ascending array of them: per row the place of its pair in
        ``pairs``, its first successor id, its length and its first edge
        (its place in ``trans_succ``).  A row is a run of consecutive ids in
        one pair's list, at most ROW_MAX long; a pair's rows come in list
        order.  Here they are the maximal runs, cut at ROW_MAX, in pair
        order; ``Abstraction.rows`` gives its overflow rows last."""
        ptr = self.trans_ptr
        if isinstance(pairs, slice):
            heads = ptr[pairs.start : pairs.stop] - ptr[pairs.start]
            s = self.trans_succ[ptr[pairs.start] : ptr[pairs.stop]]
        else:
            sizes = ptr[pairs + 1] - ptr[pairs]
            heads = np.cumsum(sizes) - sizes
            edges = ranges(ptr[pairs], ptr[pairs + 1])[1]
            s = self.trans_succ[edges]
        cut = np.empty(len(s), dtype=bool)
        cut[:1] = True
        np.not_equal(np.diff(s), 1, out=cut[1:])
        cut[heads] = True
        at = np.flatnonzero(cut)
        cut[:] = False
        cut[heads] = True
        place = np.cumsum(cut[at]) - 1  # rows starting a pair, counted
        length = np.diff(at, append=len(s))
        edge = at + ptr[pairs.start] if isinstance(pairs, slice) else edges[at]
        return cut_rows(place, s[at], length, edge)

    def row_counts(self, counts, alive, cuts):
        """Add to counts[L - 1, f], a C-contiguous array of at least n
        columns, the number of rows of length L and first id f (``rows``)
        among the pairs whose ``alive`` is set, reading the pairs between
        consecutive ``cuts`` a chunk at a time."""
        flat, width = counts.reshape(-1), counts.shape[1]  # a view: updates land in counts
        for pa, pb in zip(cuts, cuts[1:]):
            place, first, length, _ = self.rows(slice(pa, pb))
            length -= 1
            length *= width
            length += first
            np.add.at(flat, length[alive[pa:pb][place]], 1)

    # --- FOCP v1 text format -------------------------------------------------

    def to_focp_text(self) -> str:
        """FOCP v1 text (grammar in the README): the header, one G record per
        state, then one T record per edge in pair order."""
        from . import focp  # compiled on first use, not when symoc starts

        return "".join(focp.text_blocks(self))

    @classmethod
    def from_focp_text(cls, text) -> "FiniteProblem":
        """Read FOCP v1 text, a str, bytes or a binary file, as a problem
        with per-edge costs.  A file is read a block at a time, and one that
        cannot seek (a pipe) is held whole; an error quotes the first
        offending line in file order."""
        from . import focp

        return focp.read(text)


# --- Canonical problem constructors ------------------------------------------


@dataclass
class CostModel:
    """Concrete cost functions of a control problem plus the region data
    needed to reason about them cell-wise.

    The ``cells_*`` predicates decide per closed cell whether it lies entirely
    inside the finite-cost region; ``G_rows``/``g_rows`` evaluate the costs at
    points p, reading them on the cells [p, p].  Where finite, G is 0 and g
    depends on the input only, so reading the costs on cells is exact.
    """

    kind: str
    target: SetPredicate
    obstacle: SetPredicate

    def __post_init__(self):
        if self.kind not in ("reach_avoid", "min_time", "energy_entry"):
            raise InputError(f"unknown cost kind {self.kind!r}")

    def G_rows(self, ps):
        """G at each row of an (N, dim) array of points."""
        return np.where(self.cells_G_finite(ps, ps), 0.0, INF)

    def g_rows(self, ps, us):
        """g at each row of (N, dim) points and (N, input_dim) inputs; g does
        not depend on the successor."""
        return np.where(self.cells_g_finite(ps, ps), self.finite_g_rows(us), INF)

    def finite_g_rows(self, us):
        """g on its finite region at each row of (N, input_dim) inputs."""
        if self.kind == "energy_entry":
            return np.einsum("ij,ij->i", us, us)
        return np.full(len(us), 0.0 if self.kind == "reach_avoid" else 1.0)

    def cells_G_finite(self, lo, hi):
        return self.target.cell_inside_batch(lo, hi) & self.obstacle.cell_disjoint_batch(lo, hi)

    def cells_g_finite(self, lo, hi):
        return self.obstacle.cell_disjoint_batch(lo, hi)

    def cells_all_infinite(self, lo, hi):
        """Both cost functions are identically inf on the cell (the region the
        conservatism conditions exempt)."""
        return self.obstacle.cell_inside_batch(lo, hi)


@dataclass
class ControllerTable:
    """Static abstract controller: per state, a chosen input index or STOP."""

    choice: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.choice = as_indices(self.choice, "controller entry")
        bad = np.flatnonzero(self.choice < STOP)
        if len(bad):
            raise InputError(f"controller state {bad[0]} chooses input {self.choice[bad[0]]}, neither an index nor STOP")

    def __len__(self):
        return len(self.choice)

    def to_text(self) -> str:
        """Controller file text (grammar in the README)."""
        from . import focp

        return focp.controller_text(self.choice)

    @classmethod
    def from_text(cls, text) -> "ControllerTable":
        """Read a controller file, a str, bytes or a binary file (grammar in
        the README)."""
        from . import focp

        return cls(focp.read_records(text, "controller"))


def values_to_text(W) -> str:
    """Value file text (grammar in the README)."""
    from . import focp

    return focp.values_text(W)


def values_from_text(text) -> np.ndarray:
    """W of a value file, a str, bytes or a binary file (grammar in the README)."""
    from . import focp

    return focp.read_records(text, "value")
