"""Shared exception types."""

from __future__ import annotations


class EuclidError(Exception):
    """Base class for all errors raised by this package."""


class SessionMismatchError(EuclidError):
    """Operands belong to different tower sessions."""


class ResourceLimitError(EuclidError):
    """A configured resource bound (height cap, object budget, ...) was hit.

    `partial` optionally carries whatever was computed before the limit.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class NegativeRadicandError(EuclidError):
    """Square root of a negative value was requested."""


class DegenerateInputError(EuclidError):
    """Geometric precondition violated (coincident points, zero radius, ...)."""


class IdenticalCurvesError(DegenerateInputError):
    """Intersection of a curve with itself (infinite intersection)."""


class RangeError(EuclidError):
    """A projective image is not representable as an affine object."""


class ParseError(EuclidError):
    """Syntax error in a program, literal, or config file."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = f" at line {line}" if line is not None else ""
        where += f", col {col}" if col is not None else ""
        super().__init__(message + where)
        self.line = line
        self.col = col


class CheckError(EuclidError):
    """Post-parse static check failed (unknown name, arity, rebinding, ...)."""


class RunAbort(EuclidError):
    """A program run aborted; `reason` is a stable machine-readable code."""

    def __init__(self, reason: str, message: str, trace=None):
        super().__init__(f"{reason}: {message}")
        self.reason = reason
        self.message = message
        self.trace = trace


class ScopeError(EuclidError):
    """Requested operation is outside the supported scope (e.g. degree > 3)."""


class ReduciblePolynomialError(EuclidError):
    """A polynomial required to be irreducible has a rational root.

    `root` carries one witness root.
    """

    def __init__(self, message: str, root=None):
        super().__init__(message)
        self.root = root
