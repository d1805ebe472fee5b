"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class PoleError(ToolkitError, ValueError):
    """Evaluation requested at (or too close to) a pole."""


class OverflowRangeError(ToolkitError, OverflowError):
    """Result magnitude exceeds the representable double range."""


class PreconditionError(ToolkitError, ValueError):
    """An operation was called outside its documented domain."""


class BudgetExceededError(ToolkitError, RuntimeError):
    """A subdivision/cell budget was exhausted before convergence."""


class CoefficientRangeError(ToolkitError, ValueError):
    """A sum needs Hecke eigenvalues beyond the stored range."""


class FormFileError(ToolkitError, ValueError):
    """Malformed coefficient file; ``line`` is the 1-based offending line,
    named in the message when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class HeckeViolationError(ToolkitError, ValueError):
    """Stored eigenvalues fail a Hecke relation beyond tolerance."""


class CalibrationError(ToolkitError, RuntimeError):
    """Calibration probes disagree beyond the consistency threshold."""
