"""Exception types raised across the library.

Every library-specific failure derives from :class:`SgflError`, so callers
(and the CLI) can distinguish bad input from genuine bugs.
"""


class SgflError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(SgflError):
    """A vector's length does not match the ambient dimension."""


class NotPointedError(SgflError):
    """No integer grading functional is positive on every generator."""


class NotMinimalError(SgflError):
    """A generator is an N-combination of the other generators."""

    def __init__(self, generator, combination):
        self.generator = generator
        self.combination = combination
        super().__init__(
            f"generator {generator} factors over the others as {combination}"
        )


class NotNumericalError(SgflError):
    """Operation requires dimension 1 and generator gcd 1."""


class MNotInSError(SgflError):
    """The distinguished element m does not belong to the semigroup."""


class NotInSemigroupError(SgflError):
    """The element has no factorization (it is outside the semigroup)."""


class BudgetExceededError(SgflError):
    """A search exhausted its node budget; the instance is too large.

    Never indicates a wrong answer, only that no answer was produced.
    """


class MNotAtomError(SgflError):
    """The distinguished element m is not a generator of the semigroup."""


class ReportMismatchError(SgflError):
    """A report was produced for a different semigroup or atom."""


class NotEmbDim3Error(SgflError):
    """Operation requires exactly three minimal generators."""


class MissingBoundError(SgflError):
    """An affine scan needs an explicit bound (or explicit opt-in)."""


class BadModulusError(SgflError):
    """Quotient moduli must be integers >= 2, and a point must live over
    the modulus it is used with."""


class NotIntegerPointError(SgflError):
    """Point coordinates must be integers, one per residue."""


class InequalityViolatedError(SgflError):
    """A point violates a defining polytope inequality."""

    def __init__(self, pair, message=None):
        self.pair = pair
        super().__init__(message or f"inequality violated at index pair {pair}")


class NoFactorizationError(SgflError):
    """A nonzero element has no factorization into the available atoms."""


class DifferentFaceError(SgflError):
    """The two points do not lie on the interior of the same face."""


class MNotAtomAtPointError(SgflError):
    """The modulus is not an atom of the semigroup at this point."""
