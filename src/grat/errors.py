"""Exception hierarchy shared across the toolkit, and the type and range
checks of configuration values.

CLI exit-code mapping: usage errors -> 1, DataError/CheckpointError and
files that cannot be read or written (OSError) -> 2, NumericError -> 3.
"""

import math


class GratError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(GratError):
    """Tensor shapes incompatible for the requested operation."""


class ContractError(GratError):
    """A documented precondition was violated by the caller."""


class CapacityError(GratError):
    """Input exceeds a configured size limit (e.g. max context length)."""


class DataError(GratError):
    """Malformed input data: bad JSON lines, unknown labels, bad SMILES."""

    def __init__(self, message, line=None, offset=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if offset is not None:
            loc.append(f"offset {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.offset = offset


class CheckpointError(GratError):
    """Checkpoint file is corrupt or structurally invalid."""


class NumericError(GratError):
    """Non-finite values where finite numbers are required (NaN loss/grads)."""


def is_int(value) -> bool:
    """An int and not a bool (JSON's true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float and not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def require(ok: bool, key: str, expect: str, value):
    """ContractError naming the configuration key unless ok."""
    if not ok:
        raise ContractError(f"{key} must be {expect}, got {value!r}")
