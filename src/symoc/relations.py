"""Valuated relation checkers, controller refinement and pointwise bounds.

The checkers evaluate the defining conditions literally over all related
pairs and report violations instead of raising; running costs are the
totalized per-transition costs of the finite problems (inf off transitions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import INF, STOP, ControllerTable, FiniteProblem
from .errors import InputError
from .grid import GridCover
from .solver import dp_operator


class Relation:
    """A set of (state of problem 1, state of problem 2) pairs with indexed
    forward and inverse adjacency."""

    def __init__(self, pairs):
        self.pairs = sorted(set((int(a), int(b)) for a, b in pairs))
        self.forward = {}
        self.inverse = {}
        for a, b in self.pairs:
            self.forward.setdefault(a, []).append(b)
            self.inverse.setdefault(b, []).append(a)

    def __len__(self):
        return len(self.pairs)

    def image(self, p1):
        return self.forward.get(p1, [])

    def preimage(self, p2):
        return self.inverse.get(p2, [])

    def is_strict(self, n1: int) -> bool:
        return all(p in self.forward for p in range(n1))

    def to_text(self) -> str:
        return "\n".join(f"{a} {b}" for a, b in self.pairs) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Relation":
        pairs = []
        try:
            for ln in text.splitlines():
                if not ln.strip():
                    continue
                a, b = ln.split()
                pairs.append((int(a), int(b)))
        except ValueError as exc:
            raise InputError(f"malformed relation record: {ln!r}") from exc
        return cls(pairs)


MAX_VIOLATIONS = 100  # violations a verdict keeps and prints


@dataclass
class Verdict:
    ok: bool
    violations: list = field(default_factory=list)
    gated_pairs: int = 0  # vASR pairs skipped by the boundedness side-conditions

    def to_text(self) -> str:
        lines = [f"verdict: {'true' if self.ok else 'false'}"]
        if self.gated_pairs:
            lines.append(f"gated_pairs: {self.gated_pairs}")
        lines.append(f"violations: {len(self.violations)}")
        for tag, detail in self.violations[:MAX_VIOLATIONS]:
            lines.append(f"({tag}) {detail}")
        return "\n".join(lines) + "\n"


def _check_indices(rel: Relation, p1: FiniteProblem, p2: FiniteProblem):
    for a, b in rel.pairs:
        if not (0 <= a < p1.n and 0 <= b < p2.n):
            raise InputError(f"relation pair '{a} {b}' out of range for {p1.n} and {p2.n} states")


def check_vfrr(p1: FiniteProblem, p2: FiniteProblem, rel: Relation) -> Verdict:
    """Feedback-refinement conditions (i)-(iv) over all related pairs; the
    inputs of problem 2 embed into those of problem 1 by index."""
    _check_indices(rel, p1, p2)
    if p2.m > p1.m:
        return Verdict(False, [("i", f"input alphabet of problem 2 ({p2.m}) exceeds problem 1 ({p1.m})")])
    g1, G1, g2, G2 = p1.cost_of, p1.G, p2.cost_of, p2.G
    violations = []

    def add(tag, detail):
        if len(violations) < MAX_VIOLATIONS:
            violations.append((tag, detail))

    if not rel.is_strict(p1.n):
        missing = next(p for p in range(p1.n) if p not in rel.forward)
        add("strict", f"state {missing} of problem 1 has no related state")
    for a, b in rel.pairs:
        if G1[a] > G2[b]:
            add("ii", f"G1({a}) = {G1[a]} > G2({b}) = {G2[b]}")
    for a, b in rel.pairs:
        for qa, qb in rel.pairs:
            for u in range(p2.m):
                if g1(a, qa, u) > g2(b, qb, u):
                    add("iii", f"g1({a},{qa},{u}) > g2({b},{qb},{u})")
    for a, b in rel.pairs:
        for u in range(p2.m):
            succ2 = set(int(q) for q in p2.successors(b, u)[0])
            succ1, _ = p1.successors(a, u)
            for q1 in succ1:
                for q2 in rel.image(int(q1)):
                    if q2 not in succ2:
                        add("iv", f"image {q2} of successor {int(q1)} of ({a},{u}) not in F2({b},{u})")
    return Verdict(not violations, violations)


def check_vasr(p1: FiniteProblem, p2: FiniteProblem, rel: Relation, eps: float) -> Verdict:
    """Alternating-simulation conditions with slack eps.

    The exists/forall/exists condition is only enforced where the boundedness
    side-conditions hold; skipped pairs are counted so callers notice when
    the gate rather than the condition decided the verdict.
    """
    if eps < 0:
        raise InputError("eps must be non-negative")
    _check_indices(rel, p1, p2)
    g1, G1, g2, G2 = p1.cost_of, p1.G, p2.cost_of, p2.G
    P1_zero = dp_operator(p1, np.zeros(p1.n))

    violations = []
    gated = 0

    def add(tag, detail):
        if len(violations) < MAX_VIOLATIONS:
            violations.append((tag, detail))

    for a, b in rel.pairs:
        if G1[a] > G2[b]:
            add("i", f"G1({a}) = {G1[a]} > G2({b}) = {G2[b]}")
    for a, b in rel.pairs:
        if G1[a] <= 0.0:
            continue
        for u2 in range(p2.m):
            succ2, _ = p2.successors(b, u2)
            succ2 = [int(q) for q in succ2]
            g2_vals = {q2: g2(b, q2, u2) for q2 in succ2}
            if any(v == INF for v in g2_vals.values()):
                gated += 1
                continue
            if any(P1_zero[q1] == INF for q2 in succ2 for q1 in rel.preimage(q2)):
                gated += 1
                continue
            ok_u1 = False
            for u1 in range(p1.m):
                succ1, _ = p1.successors(a, u1)
                if all(
                    any(
                        g1(a, int(q1), u1) <= eps + g2_vals[q2]
                        for q2 in rel.image(int(q1))
                        if q2 in g2_vals
                    )
                    for q1 in succ1
                ):
                    ok_u1 = True
                    break
            if not ok_u1:
                add("ii", f"no input of problem 1 matches ({a},{b}) under input {u2} at eps {eps}")
    return Verdict(not violations, violations, gated)


@dataclass
class RefinedController:
    """Serial composition of the quantizer and a static abstract controller:
    quantize the concrete state, then look the input up in the table."""

    table: ControllerTable
    cover: GridCover
    representatives: np.ndarray

    def __post_init__(self):
        choice, m = self.table.choice, len(self.representatives)
        if len(choice) != self.cover.n_states:
            raise InputError("controller table size does not match the cover")
        bad = np.flatnonzero((choice < STOP) | (choice >= m))
        if len(bad):
            raise InputError(f"controller state {bad[0]} chooses input {choice[bad[0]]}, outside the inputs 0..{m - 1}")

    def act(self, x):
        """Concrete control decision: (input vector, stop bit); a stop comes
        with input 0, which is never applied."""
        u = self.table.choice[self.cover.quantize(x)]
        return self.representatives[0 if u == STOP else u], int(u == STOP)


def pointwise_upper_bound(W, cover: GridCover, x) -> float:
    """sup of W over all cells containing x (inf outside the cover, where the
    only member is the overflow cell)."""
    cells = cover.members(x)
    if not cells:
        return INF
    return float(max(W[c] for c in cells))
