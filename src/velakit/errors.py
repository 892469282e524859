"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: ValidationError -> 2,
NumericalError -> 3, NoAdmissibleSpecError -> 4, and any other exception,
including another VelakitError such as CorruptedBundleError, -> 5.
"""

from pathlib import Path

import numpy as np


class VelakitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(VelakitError):
    """Bad input data or configuration (malformed CSV, domain violations)."""


class NumericalError(VelakitError):
    """A numerical procedure failed (singularity, non-convergence)."""


class SingularMatrixError(NumericalError):
    """Rank-deficient regressor or moment matrix."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class NotPositiveDefiniteError(NumericalError):
    """Cholesky pivot failure; upstream moment matrix is degenerate."""


class NonNormalizableError(NumericalError):
    """Cointegrating vector cannot be normalized on the requested variable."""


class NoAdmissibleSpecError(VelakitError):
    """Specification search produced no rank-1 fit."""


class CorruptedBundleError(VelakitError):
    """Bundled reference data failed its shape/checksum validation."""


def _is_integer(value) -> bool:
    """An int or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integers(**values) -> list[int]:
    """The values as ints; raises ValidationError naming the first that is
    not _is_integer."""
    for name, value in values.items():
        if not _is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    return [int(value) for value in values.values()]


def read_input(path: Path) -> bytes:
    """The bytes of an input file; one that cannot be read (a directory, a
    missing or unreadable file) is a ValidationError naming the path."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
