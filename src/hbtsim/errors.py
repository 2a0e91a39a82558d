"""Exception types shared across the package.

All inherit ValueError so callers may catch broadly; the CLI maps any
ValueError to exit code 2 and OS-level failures to exit code 3.  Each one
survives pickling, as a sweep worker's exception must.
"""


class IncompatibleTracesError(ValueError):
    """Traces disagree in sample period or length."""


class OffGridDelayError(ValueError):
    """Requested correlation delay is not an integer multiple of dt."""


class InsufficientDataError(ValueError):
    """Too few overlapping samples for the requested estimate."""


class TraceFormatError(ValueError):
    """Malformed trace/results CSV. Carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        self.message = message
        super().__init__(f"line {line_number}: {message}")

    def __reduce__(self):
        return type(self), (self.line_number, self.message)


class ConfigError(ValueError):
    """Invalid run configuration. Carries the dotted field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        return type(self), (self.field, self.message)
