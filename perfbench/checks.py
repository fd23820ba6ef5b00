"""Output checks that accept a changed tie-break rule but no changed value.

The values file is checked three ways: it must be the canonical rendering
of its own numbers (so the text is byte-identical to a reference rendering),
it must be a fixpoint of the minimax Bellman operator, and where a digest
from the reference commit is recorded it must match.  Every finite running
cost of the three workloads is strictly positive (min-time steps, u @ u over
a 28-point input grid without 0, generated costs >= 0.5), so the fixpoint
below G is unique and the fixpoint test pins the value array exactly even
for seeds without a recorded digest.  The controller is checked for
validity only: STOP exactly
where W == G, and elsewhere the chosen pair's one-step value equals W[p].
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

STOP = -1


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _records(text, what):
    tokens = text.split()
    if len(tokens) % 2:
        raise ValueError(f"{what} file has an odd token count")
    index = np.array(tokens[0::2], dtype=np.int64)
    if not np.array_equal(index, np.arange(len(index))):
        raise ValueError(f"{what} file does not list states 0..n-1 in order")
    return tokens[1::2]


def _render_cost(w) -> str:
    return "inf" if w == math.inf else repr(float(w))


def one_step_values(problem, W):
    """max over successors of g + W(q), per (state, input) pair."""
    vals = W[problem.trans_succ]
    if problem.edge_costs is not None:
        vals += problem.edge_costs
    pair_max = np.maximum.reduceat(vals, problem.trans_ptr[:-1])
    if problem.pair_costs is not None:
        pair_max += problem.pair_costs
    return pair_max


def solution_errors(problem, values_text, controller_text):
    """List of reasons the value and controller files are wrong (empty if right)."""
    W = np.array(_records(values_text, "values"), dtype=float)
    raw = np.array(_records(controller_text, "controller"))
    choice = np.where(raw == "STOP", str(STOP), raw).astype(np.int64)
    n, m = problem.n, problem.m
    if len(W) != n or len(choice) != n:
        return [f"expected {n} states, values have {len(W)}, controller {len(choice)}"]
    errors = []
    canonical = "".join(f"{p} {_render_cost(w)}\n" for p, w in enumerate(W.tolist()))
    if values_text != canonical:
        errors.append("values text is not the canonical rendering of its numbers")
    pair_max = one_step_values(problem, W)
    best = np.minimum(problem.G, pair_max.reshape(n, m).min(axis=1))
    if not np.array_equal(best, W):
        errors.append(f"values are not a Bellman fixpoint at {int((best != W).sum())} states")
    stop = choice == STOP
    if not np.array_equal(stop, W == problem.G):
        errors.append("controller STOP set differs from {p : W[p] == G[p]}")
    go = np.nonzero(~stop)[0]
    u = choice[go]
    if np.any((u < 0) | (u >= m)):
        errors.append("controller chooses an input out of range")
    elif not np.array_equal(pair_max[go * m + u], W[go]):
        errors.append("a chosen pair's one-step value differs from W[p]")
    return errors
