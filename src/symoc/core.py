"""Problem data: extended costs, finite problems, runs, cost constructors.

Costs are non-negative floats extended with ``math.inf``; float arithmetic
already saturates (inf + x = inf), which is exactly the convention required.
Accumulation order is fixed (time increasing) so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .sets import SetPredicate

INF = math.inf

STOP = -1  # controller table entry meaning "no input chosen, stop here"


def format_cost(value: float) -> str:
    return "inf" if value == INF else repr(float(value))


@dataclass(frozen=True)
class Run:
    """A finite closed-loop prefix: states x, inputs u, stopping bits v.

    ``len(x) == len(u) + 1``; ``v`` may either align with ``u`` or carry one
    extra entry for a stop decision at the final state.  A run whose ``v``
    contains no 1 stands for a never-stopping evolution and evaluates to inf.
    """

    x: tuple
    u: tuple
    v: tuple

    def __post_init__(self):
        if len(self.x) != len(self.u) + 1:
            raise InputError("run length mismatch: need len(x) == len(u) + 1")
        if len(self.v) not in (len(self.u), len(self.u) + 1):
            raise InputError("run length mismatch: v must align with u or x")
        if any(b not in (0, 1) for b in self.v):
            raise InputError("stopping signal must be 0/1-valued")

    @property
    def stop_time(self):
        """First index with v = 1, or None for a never-stopping run."""
        for t, b in enumerate(self.v):
            if b == 1:
                return t
        return None


def eval_cost_functional(run: Run, costs) -> float:
    """Total cost of a run: terminal cost at the stop instant plus the
    accumulated running costs; inf if the run never stops.

    ``costs`` is either a FiniteProblem (states/inputs are indices) or any
    object with callables ``G(p)`` and ``g(p, q, u)``.
    """
    if isinstance(costs, FiniteProblem):
        G = lambda p: float(costs.G[p])
        g = costs.cost_of
    else:
        G, g = costs.G, costs.g
    T = run.stop_time
    if T is None:
        return INF
    total = 0.0
    for t in range(T):
        total += g(run.x[t], run.x[t + 1], run.u[t])
    return total + G(run.x[T])


class FiniteProblem:
    """A finite optimal control problem (X, U, F, G, g) in indexed form.

    Transitions are stored CSR-style per (state, input) pair; every pair must
    have at least one successor (the transition function is strict).  Running
    costs are attached per transition, or per (state, input) pair when they do
    not depend on the successor (``pair_costs`` mode, used by large
    abstractions to keep memory linear in the pair count).
    """

    def __init__(self, n, m, G, trans_ptr, trans_succ, edge_costs=None, pair_costs=None):
        self.n = int(n)
        self.m = int(m)
        self.G = np.asarray(G, dtype=float)
        self.trans_ptr = np.asarray(trans_ptr, dtype=np.int64)
        self.trans_succ = np.asarray(trans_succ)
        self.edge_costs = None if edge_costs is None else np.asarray(edge_costs, dtype=float)
        self.pair_costs = None if pair_costs is None else np.asarray(pair_costs, dtype=float)
        self._validate()

    def _validate(self):
        if self.n <= 0 or self.m <= 0:
            raise InputError("need at least one state and one input")
        if self.G.shape != (self.n,):
            raise InputError("terminal cost array has wrong length")
        if np.any(np.isnan(self.G)) or np.any(self.G < 0):
            raise InputError("terminal costs must be non-negative")
        if self.trans_ptr.shape != (self.n * self.m + 1,):
            raise InputError("transition index has wrong length")
        if self.trans_ptr[0] != 0 or self.trans_ptr[-1] != len(self.trans_succ):
            raise InputError("transition index is inconsistent")
        if np.any(np.diff(self.trans_ptr) < 1):
            p, u = divmod(int(np.flatnonzero(np.diff(self.trans_ptr) < 1)[0]), self.m)
            raise InputError(f"every (state, input) pair needs a successor (F strict): ({p},{u}) has none")
        if len(self.trans_succ) and (
            self.trans_succ.min() < 0 or self.trans_succ.max() >= self.n
        ):
            raise InputError("successor index out of range")
        if (self.edge_costs is None) == (self.pair_costs is None):
            raise InputError("exactly one of edge_costs/pair_costs required")
        costs = self.edge_costs if self.edge_costs is not None else self.pair_costs
        want = len(self.trans_succ) if self.edge_costs is not None else self.n * self.m
        if costs.shape != (want,):
            raise InputError("cost array has wrong length")
        if np.any(np.isnan(costs)) or np.any(costs < 0):
            raise InputError("running costs must be non-negative")

    @property
    def n_edges(self) -> int:
        return len(self.trans_succ)

    def pair_id(self, p, u) -> int:
        return p * self.m + u

    def successors(self, p, u):
        """(successor indices, costs) arrays for the pair (p, u)."""
        a, b = self.trans_ptr[self.pair_id(p, u)], self.trans_ptr[self.pair_id(p, u) + 1]
        succ = self.trans_succ[a:b]
        if self.edge_costs is not None:
            return succ, self.edge_costs[a:b]
        return succ, np.full(b - a, self.pair_costs[self.pair_id(p, u)])

    def cost_of(self, p, q, u) -> float:
        """Totalized running cost: inf when q is not a successor of (p, u)."""
        a, b = self.trans_ptr[self.pair_id(p, u)], self.trans_ptr[self.pair_id(p, u) + 1]
        idx = np.nonzero(self.trans_succ[a:b] == q)[0]
        if len(idx) == 0:
            return INF
        if self.edge_costs is not None:
            return float(self.edge_costs[a + idx[0]])
        return float(self.pair_costs[self.pair_id(p, u)])

    # --- FOCP v1 text format -------------------------------------------------

    def to_focp_text(self) -> str:
        """FOCP v1 text (grammar in the README): the header, one G record per
        state, then one T record per edge in pair order."""
        return "".join(self.focp_text_blocks())

    def focp_text_blocks(self):
        """The text of to_focp_text in consecutive pieces, so that a writer
        need not hold all of it."""
        from . import focp  # compiled on first use, not when symoc starts

        return focp.text_blocks(self)

    @classmethod
    def from_focp_text(cls, text) -> "FiniteProblem":
        """Read FOCP v1 text, bytes or a str; an error quotes the first
        offending line in file order."""
        from . import focp

        n, m, G, ptr, succ, costs = focp.read(focp.as_bytes(text))
        return cls(n, m, G, ptr, succ, edge_costs=costs)


# --- Canonical problem constructors ------------------------------------------


@dataclass
class CostModel:
    """Concrete cost functions of a control problem plus the region data
    needed to reason about them cell-wise.

    The ``cells_*`` predicates decide per closed cell whether it lies entirely
    inside the finite-cost region, as Lipschitz-based cost abstraction
    requires; ``G``/``g`` at a point p read them on the cell [p, p].
    """

    kind: str
    target: SetPredicate
    obstacle: SetPredicate

    def G(self, p) -> float:
        return 0.0 if self.cells_G_finite(p, p)[0] else INF

    def g(self, p, q, u) -> float:
        return self.finite_g_value(u) if self.cells_g_finite(p, p)[0] else INF

    def cells_G_finite(self, lo, hi):
        return self.target.cell_inside_batch(lo, hi) & self.obstacle.cell_disjoint_batch(lo, hi)

    def cells_g_finite(self, lo, hi):
        return self.obstacle.cell_disjoint_batch(lo, hi)

    def cells_all_infinite(self, lo, hi):
        """Both cost functions are identically inf on the cell (the region the
        conservatism conditions exempt)."""
        return self.obstacle.cell_inside_batch(lo, hi)

    def finite_g_value(self, u) -> float:
        """Running cost on the finite region (independent of p, q there)."""
        if self.kind == "reach_avoid":
            return 0.0
        if self.kind == "min_time":
            return 1.0
        u = np.asarray(u, dtype=float)
        return float(u @ u)


def cost_model(kind: str, D: SetPredicate, M: SetPredicate) -> CostModel:
    if kind not in ("reach_avoid", "min_time", "energy_entry"):
        raise InputError(f"unknown cost kind {kind!r}")
    return CostModel(kind, D, M)


def make_shortest_path(n_vertices: int, arcs, source: int) -> FiniteProblem:
    """Single-source shortest paths as a finite control problem.

    ``arcs`` is an iterable of (tail, head, length); duplicate arcs keep the
    minimum length.  The control problem walks arcs backwards from each vertex
    towards the source, so its value function equals the distance array.
    The input alphabet is the vertex set; input u from state p moves to u when
    the graph has an arc (u, p), and otherwise loops in place at infinite cost
    so that staying put never creates spurious finite values.
    """
    n = int(n_vertices)
    if not 0 <= source < n:
        raise InputError("source vertex out of range")
    weight = {}
    for tail, head, w in arcs:
        if not (0 <= tail < n and 0 <= head < n):
            raise InputError("arc endpoint out of range")
        if w < 0:
            raise InputError("arc lengths must be non-negative")
        key = (tail, head)
        if key not in weight or w < weight[key]:
            weight[key] = float(w)

    G = np.full(n, INF)
    G[source] = 0.0
    ptr = np.arange(n * n + 1, dtype=np.int64)  # single-valued F
    succ = np.empty(n * n, dtype=np.int64)
    costs = np.full(n * n, INF)
    base = np.arange(n, dtype=np.int64)
    for p in range(n):
        succ[p * n : (p + 1) * n] = p  # default: stay put, never improving
    for (tail, head), w in weight.items():
        pid = head * n + tail  # from state `head`, input `tail` walks the arc backwards
        succ[pid] = tail
        costs[pid] = w
    return FiniteProblem(n, n, G, ptr, succ, edge_costs=costs)


@dataclass
class ControllerTable:
    """Static abstract controller: per state, a chosen input index or STOP."""

    choice: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.choice = np.asarray(self.choice, dtype=np.int64)

    def __len__(self):
        return len(self.choice)

    def to_text(self) -> str:
        lines = []
        for p, u in enumerate(self.choice):
            lines.append(f"{p} STOP" if u == STOP else f"{p} {u}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text) -> "ControllerTable":
        """Read a controller file, bytes or a str (grammar in the README)."""
        from . import focp

        return cls(focp.read_records(text, "controller"))


def values_to_text(W) -> str:
    return "\n".join(f"{p} {format_cost(w)}" for p, w in enumerate(W)) + "\n"


def values_from_text(text) -> np.ndarray:
    """W of a value file, bytes or a str (grammar in the README)."""
    from . import focp

    return focp.read_records(text, "value")
