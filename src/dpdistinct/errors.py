"""Exception types shared across the package.

The CLI maps these onto exit codes: ParameterError -> 1, input and model
violations -> 2.
"""


class ParameterError(ValueError):
    """A numeric or structural parameter is outside its legal range."""


class StreamFormatError(ValueError):
    """Malformed stream input: bad file syntax, out-of-range ids, duplicates.

    ``step`` is the 1-based step of the offending batch, when one is known.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class ModelViolationError(ValueError):
    """A stream violates the constraints of its declared model."""
