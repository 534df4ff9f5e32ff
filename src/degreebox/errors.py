"""Exception types shared across the package."""


class InputError(ValueError):
    """Base class for rejected inputs."""


class LengthMismatch(InputError):
    """Paired vectors have different lengths."""


class NegativeEntry(InputError):
    """A sequence entry is negative."""


class NonIntegerEntry(InputError):
    """A bound is not an integer (a float, a string, ...)."""


class LowerExceedsUpper(InputError):
    """Some lower bound exceeds its upper bound (after clamping)."""


class LowerExceedsMaxDegree(InputError):
    """Some lower bound exceeds n-1, which no simple graph can meet."""


class UpperExceedsMaxDegree(InputError):
    """Some upper bound of a pair built directly exceeds n-1; normalize_good_order clamps it."""


class NotGoodOrder(InputError):
    """The operation requires a bound pair in good order."""


class TooLarge(InputError):
    """Instance size exceeds what exhaustive enumeration supports."""

