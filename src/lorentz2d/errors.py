"""Exception types shared across the package.

Two broad groups:

* construction-time errors (bad grammar, bad family parameters, mixed
  charts) raised while building expressions or factors, and
* evaluation-time errors (``EvaluationError`` subclasses) raised while
  computing a field at a specific point.

Grid sampling records evaluation-time failures per cell, as one of the
status codes below; construction-time errors always propagate to the
caller.
"""

from __future__ import annotations

# Per-cell outcome of a grid sample: a valid value, a denominator inside
# the singular band (``SingularDenominator``), any other evaluation error,
# or a cell outside the sampled domain.
VALID, SINGULAR, DOMAIN_ERROR, OUTSIDE = range(4)


class Lorentz2dError(Exception):
    """Base class for every error raised by this package."""


class ParseError(Lorentz2dError):
    """Source text does not match the expression grammar.

    Attributes:
        offset: character offset into the source where parsing failed.
        expected: frozenset of token descriptions acceptable at that spot.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] | frozenset[str] = ()):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset
        self.expected = frozenset(expected)


class NonConstantExponent(ParseError):
    """``a^b`` where the exponent contains a free variable."""


class EvaluationError(Lorentz2dError):
    """Base class for failures while evaluating a field at a point."""


class DomainError(EvaluationError):
    """A function was applied outside its real domain, or a result was
    not finite (overflow, 0/0, log of a non-positive number, ...)."""

    def __init__(self, message: str, node=None, point: dict | None = None):
        detail = message
        if point:
            coords = ", ".join(f"{k}={v!r}" for k, v in sorted(point.items()))
            detail = f"{message} at ({coords})"
        super().__init__(detail)
        self.message = message
        self.node = node
        self.point = dict(point) if point else None


class NonPositiveFactor(EvaluationError):
    """A conformal factor evaluated to a value <= 0; the metric would
    degenerate or flip signature there."""


class SingularDenominator(EvaluationError):
    """The denominator of a solution-family factor fell inside the
    configured epsilon band around zero."""


class QuadratureNonConvergence(EvaluationError):
    """Adaptive quadrature hit its maximum depth before meeting the
    requested tolerance.

    Attributes:
        achieved_error: error estimate of the best refinement reached.
    """

    def __init__(self, message: str, achieved_error: float):
        super().__init__(f"{message} (best error estimate {achieved_error:.3e})")
        self.achieved_error = achieved_error


class StencilOutsideDomain(EvaluationError):
    """A finite-difference stencil point could not be evaluated."""


class BranchYieldsNonPositive(Lorentz2dError):
    """The requested one-variable family branch has no positive factor
    for the given parameter signs."""


class MixedChartVariables(Lorentz2dError):
    """An expression mixes standard-chart variables (t, x) with
    null-chart variables (u, v)."""


class EmptyDomain(Lorentz2dError):
    """A sampling request produced no grid cells inside the domain."""


class NoValidSamples(Lorentz2dError):
    """A grid has no valid cells to aggregate into a report."""
