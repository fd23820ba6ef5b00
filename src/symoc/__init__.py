"""symoc: finite-abstraction synthesis for leavable minimax optimal control."""

from .core import INF, STOP, ControllerTable, FiniteProblem
from .solver import dp_operator, is_discrete_cost, solve

__all__ = [
    "INF",
    "STOP",
    "ControllerTable",
    "FiniteProblem",
    "dp_operator",
    "is_discrete_cost",
    "solve",
]
