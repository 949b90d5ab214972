"""Exception hierarchy shared across the toolkit.

CLI exit-code mapping: usage errors -> 1, DataError/CheckpointError and
files that cannot be read or written (OSError) -> 2, NumericError -> 3.
"""


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
