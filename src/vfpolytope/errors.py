"""Exception types shared across the package."""


class VfpError(Exception):
    """Base class for all package-specific errors."""


class MalformedDocument(VfpError):
    """An MDP/policy document is structurally wrong (keys, types, lengths)."""


class InvalidStochasticRow(VfpError):
    """A probability row is negative or does not sum to 1 within tolerance."""


class InvalidGamma(VfpError):
    """Discount factor outside [0, 1)."""


class UnknownFixture(VfpError):
    """Requested built-in MDP name does not exist."""


class EnumerationTooLarge(VfpError):
    """|A|^|S| exceeds the deterministic-policy enumeration cap."""


class ShapeMismatch(VfpError):
    """Array shapes are inconsistent with the MDP dimensions."""


class MuOutOfRange(VfpError):
    """Mixture coefficient outside [0, 1]."""


class OrderViolation(VfpError):
    """Single-state policy variants produced elementwise-incomparable values.

    Values of policies that agree everywhere but one state are totally
    ordered; incomparability beyond tolerance signals a numerical failure.
    """


class NotAgreeing(VfpError):
    """Two policies differ on a state that was required to be fixed."""


class DimensionUnsupported(VfpError):
    """Planar geometry helpers and suites need 2-component points or 2 states."""


class IterationCap(VfpError):
    """An iterative solver reached its iteration bound without settling."""


class NonFiniteLogits(VfpError):
    """Softmax parameters contain NaN or infinity, or a start policy a zero."""


class UnknownSuite(VfpError):
    """Requested verification suite name does not exist."""
