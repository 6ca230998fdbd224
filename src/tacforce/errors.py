"""Exception types shared across the package.

Each maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class TacforceError(Exception):
    """Base class for all package errors."""


class ShapeError(TacforceError):
    """An operation received tensors/arrays with incompatible shapes."""

    def __init__(self, op, *shapes, detail=""):
        self.op = op
        self.shapes = shapes
        msg = f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ContractError(TacforceError):
    """A documented precondition was violated by the caller."""


class SafetyError(TacforceError):
    """An indentation would exceed the sensor's safe operating envelope."""


class DegenerateInputError(TacforceError):
    """Geometric input too degenerate to solve (collinear points, etc.)."""


class FormatError(TacforceError):
    """A binary container is malformed; carries the offending byte offset."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class TrainingDiverged(TacforceError):
    """The loss or a gradient became non-finite during training.

    ``what`` names which: "loss" or "gradient of <parameter>".
    """

    def __init__(self, epoch, batch, what="loss"):
        self.epoch = epoch
        self.batch = batch
        self.what = what
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch}")


class TaskFailure(TacforceError):
    """A downstream-task controller could not reach its target."""
