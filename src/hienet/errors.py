"""Exception hierarchy shared across the package."""


class HienetError(Exception):
    """Base class for all package errors."""


class CascadeParseError(HienetError):
    """A cascade line violated the file grammar.

    Carries the 1-based line number and the offending field so callers can
    report actionable messages on stderr.
    """

    def __init__(self, message: str, line_no: int | None = None, field: str | None = None):
        self.line_no = line_no
        self.field = field
        prefix = ""
        if line_no is not None:
            prefix += f"line {line_no}"
        if field is not None:
            prefix += f", field '{field}'" if prefix else f"field '{field}'"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class DataError(HienetError):
    """Dataset-level problem: missing manifest, unit mismatch, empty split."""


class ConfigError(HienetError):
    """Invalid configuration value or combination."""


class ShapeError(HienetError):
    """Tensor operation received incompatible shapes."""


class TrainingError(HienetError):
    """Training aborted (e.g. non-finite loss)."""


class UsageError(HienetError):
    """Bad command-line invocation."""
