"""symoc: finite-abstraction synthesis for leavable minimax optimal control."""

from .core import (
    INF,
    STOP,
    ControllerTable,
    FiniteProblem,
    Run,
    eval_cost_functional,
    make_shortest_path,
)
from .solver import dp_operator, is_discrete_cost, solve, value_iteration

__all__ = [
    "INF",
    "STOP",
    "ControllerTable",
    "FiniteProblem",
    "Run",
    "eval_cost_functional",
    "make_shortest_path",
    "dp_operator",
    "is_discrete_cost",
    "solve",
    "value_iteration",
]
