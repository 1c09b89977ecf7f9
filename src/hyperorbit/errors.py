"""Exception types shared across the library."""


class HyperorbitError(Exception):
    """Base class for all library errors."""


class WrongSpaceError(HyperorbitError):
    """An operation received a vector tagged with an incompatible space."""


class ZeroCoordinateError(HyperorbitError):
    """A construction requires nonzero coordinates and found a zero."""


class ParameterRangeError(HyperorbitError):
    """A parameter is outside its documented range."""


class DegreeCapError(HyperorbitError):
    """A coefficient operation exceeded its configured degree cap."""


class UnsupportedFormError(HyperorbitError):
    """No closed-form orbit is available for this operator family."""


class SearchOverflowError(HyperorbitError):
    """A predicate scan exceeded its configured index cap."""


class CertificateFailure(HyperorbitError):
    """A construction certificate (a checked inequality) failed.

    Carries the name of the violated inequality and the offending index.
    """

    def __init__(self, name: str, index=None, measured=None, bound=None):
        self.name = name
        self.index = index
        self.measured = measured
        self.bound = bound
        detail = f"certificate {name!r} violated"
        if index is not None:
            detail += f" at index {index}"
        if measured is not None and bound is not None:
            detail += f" (measured {measured!r}, bound {bound!r})"
        super().__init__(detail)


class BadBracketError(HyperorbitError):
    """Bisection endpoints do not classify differently."""
