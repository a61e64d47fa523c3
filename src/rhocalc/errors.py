"""Exception hierarchy shared by all rhocalc modules."""

from __future__ import annotations


class RhoError(Exception):
    """Base class for all rhocalc errors."""


class ConstraintViolation(RhoError):
    """A commutation-factor (or structure-constant) axiom fails.

    `which` names the violated constraint, `indices` locates the offending
    generator pair.
    """

    def __init__(self, which: str, indices=None, detail: str = ""):
        self.which = which
        self.indices = indices
        msg = which if indices is None else f"{which} at {indices}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class ContextMismatch(RhoError):
    """Operands live in different algebra contexts."""


class NotHomogeneous(RhoError):
    """A homogeneous element was required but the input mixes degrees."""


class NegativePower(RhoError):
    """Negative exponent on a variable that was not declared invertible."""


class NotInvertible(RhoError):
    """Element (or matrix) has no inverse in the Laurent/series model."""


class TruncationRequired(RhoError):
    """A series does not terminate and the context has no truncation order."""


class UnsupportedConstantPart(RhoError):
    """exp/log input has a constant part outside the supported range."""


class MixedParity(RhoError):
    """Graded determinant needs an all-even or all-odd degree tuple."""


class NonzeroDegree(RhoError):
    """Operation restricted to matrices of degree zero."""


class ShapeMismatch(RhoError):
    """Matrix shapes or degree tuples are not conformable."""


class GradingViolation(RhoError):
    """A matrix entry is not homogeneous of the required degree."""


class NotSplitTuple(RhoError):
    """Berezinian needs a degree tuple split as evens followed by odds."""


class DegreeMismatch(RhoError):
    """Structure constants incompatible with the declared degrees."""


class NotHomological(RhoError):
    """A homological derivation (odd parity, square zero) was required."""


class NotClosed(RhoError):
    """Exactness was asked for a cochain that is not closed."""


class NotInvertibleDensity(RhoError):
    """A volume-form density is not invertible on some chart."""


class OverlapMismatch(RhoError):
    """Chartwise data disagree on an overlap."""


class BadParameter(RhoError):
    """A command parameter is unknown or out of its range."""


class DslSyntaxError(RhoError):
    """Session text failed to parse; carries a source span."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class ResolveError(RhoError):
    """A session statement refers to an undeclared name."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undeclared name: {name}")
