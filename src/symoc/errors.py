"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InputError -> 1, SoundnessAlarm -> 2.
"""


class SymocError(Exception):
    """Base class for all toolkit errors."""


class InputError(SymocError):
    """Malformed or inconsistent user input (files, configs, arguments)."""


class SoundnessAlarm(SymocError):
    """An invariant that should hold by construction was violated.

    This always indicates an implementation bug or corrupted data, never an
    expected runtime condition.
    """
