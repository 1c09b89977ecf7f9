"""Exception types shared across the library."""


class HyperorbitError(Exception):
    """Base class for all library errors."""


class WrongSpaceError(HyperorbitError):
    """An operation received a vector tagged with an incompatible space."""


class ZeroCoordinateError(HyperorbitError):
    """A construction requires nonzero coordinates and found a zero."""


class ParameterRangeError(HyperorbitError):
    """A parameter is outside its documented range."""


class DegreeCapError(ParameterRangeError):
    """A coefficient operation exceeded its degree cap: the input vector is
    longer than the operation supports."""


class UnsupportedFormError(HyperorbitError):
    """No closed-form orbit is available for this operator family."""


class SearchOverflowError(HyperorbitError):
    """A predicate scan exceeded its index cap."""


class BadBracketError(HyperorbitError):
    """Bisection endpoints do not classify differently."""
