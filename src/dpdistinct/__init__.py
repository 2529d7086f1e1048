"""Differentially private distinct counting in the turnstile model."""

import os

# The package makes no BLAS call: numpy loads OpenBLAS without its worker
# threads unless the caller set a count, and the environment is left as it was.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as numpy loads OpenBLAS
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import ModelViolationError, ParameterError, StreamFormatError
from .noise import RandomSource, child_seed
from .stream import (
    CounterState,
    FlippancySummary,
    Stream,
    apply_batch,
    diff_sequence,
    distinct_count,
    distinct_counts,
    total_flippancy,
    validate,
)

__all__ = [
    "CounterState",
    "FlippancySummary",
    "ModelViolationError",
    "ParameterError",
    "RandomSource",
    "Stream",
    "StreamFormatError",
    "apply_batch",
    "child_seed",
    "diff_sequence",
    "distinct_count",
    "distinct_counts",
    "total_flippancy",
    "validate",
]
