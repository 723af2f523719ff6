"""Exception types shared across the package."""


class VfpError(Exception):
    """Base class for all package-specific errors."""


class CapabilityError(VfpError):
    """A valid input the package cannot compute: the CLI exits 3 on it."""


class MalformedDocument(VfpError):
    """An MDP/policy document is structurally wrong (keys, types, lengths)."""


class InvalidStochasticRow(VfpError):
    """A probability row is negative or does not sum to 1 within tolerance."""


class InvalidGamma(VfpError):
    """Discount factor outside [0, 1)."""


class UnknownFixture(VfpError):
    """Requested built-in MDP name does not exist."""


class EnumerationTooLarge(CapabilityError):
    """|A|^|S| policies, or a hull certificate's leaves, exceed the enumeration cap."""


class ShapeMismatch(VfpError):
    """Array shapes are inconsistent with the MDP dimensions."""


class NotAgreeing(VfpError):
    """Two policies differ on a state that was required to be fixed."""


class IterationCap(VfpError):
    """An iterative solver reached its iteration bound without settling."""


class NonFiniteLogits(VfpError):
    """Logits or CEM's covariance trace are NaN or infinite, or a start policy has a zero."""


class UnknownSuite(VfpError):
    """Requested verification suite name does not exist."""


class IllConditioned(CapabilityError):
    """A linear system or slice basis is singular to working precision."""
