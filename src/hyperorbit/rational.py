"""Exact complex-rational vectors for steering preimages on the full sequence space.

The steering construction promises *exact* equality of a designated orbit
state with a target vector.  Floating point cannot certify that, so this mode
carries coordinates as pairs of ``fractions.Fraction`` (real and imaginary
part) and iterates the orbit with no rounding at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import LOG_ZERO, complex_parts
from .errors import ParameterRangeError
from .report import Check, check_leq


@dataclass(frozen=True, slots=True)
class QComplex:
    """A complex number with exact rational real/imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "QComplex":
        return QComplex(Fraction(re), Fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def polar_parts(self) -> tuple[float, float]:
        """The canonical ``(log_mag, phase)``, for parts of any size: the larger
        part's modulus ``s`` is factored out exactly (``log num - log den`` on
        big integers), leaving parts in ``[-1, 1]`` that read as doubles."""
        s = max(abs(self.re), abs(self.im))
        if s == 0:
            return LOG_ZERO, 0.0
        log_unit, phase = complex_parts(complex(self.re / s, self.im / s))
        return math.log(s.numerator) - math.log(s.denominator) + log_unit, phase

    def __add__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "QComplex") -> "QComplex":
        return QComplex(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "QComplex") -> "QComplex":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return QComplex((self.re * other.re + self.im * other.im) / d,
                        (self.im * other.re - self.re * other.im) / d)


QVector = list  # list[QComplex]; plain lists keep the c00 semantics obvious


def qvec(values) -> QVector:
    out = []
    for v in values:
        if isinstance(v, QComplex):
            out.append(v)
        elif isinstance(v, complex):
            out.append(QComplex(Fraction(v.real), Fraction(v.imag)))
        else:
            out.append(QComplex.of(v))
    return out


def q_first(v: QVector) -> QComplex:
    return v[0] if v else QComplex.of(0)


def q_backward_shift(v: QVector) -> QVector:
    return list(v[1:])


def q_forward_shift(v: QVector, k: int = 1) -> QVector:
    return [QComplex.of(0)] * k + list(v)


def q_scale(v: QVector, s: QComplex) -> QVector:
    return [s * c for c in v]


def q_apply_product_shift(m: int, args: list) -> QVector:
    """One step of the m-linear unweighted product-shift map.

    Output = (product of the first coordinates of the first m-1 arguments)
    times the backward shift of the last argument.  Exact.
    """
    if len(args) != m:
        raise ParameterRangeError(f"expected {m} arguments, got {len(args)}")
    s = QComplex.of(1)
    for a in args[: m - 1]:
        s = s * q_first(a)
    return q_scale(q_backward_shift(args[-1]), s)


def q_iterate(m: int, init: list, steps: int) -> list:
    """Exact orbit states 1..steps for the m-linear product-shift map."""
    window = list(init)
    states = []
    for _ in range(steps):
        nxt = q_apply_product_shift(m, window[-m:])
        states.append(nxt)
        window.append(nxt)
    return states


def exact_orbit_checks(init, float_states, steps: int) -> tuple[list, list[Check]]:
    """The exact states 1..steps of the product-shift orbit of ``init`` and
    their ``exact-iteration`` row: the worst ``|a - b| / max(1, |b|)`` over
    the float states' coordinates, ``a`` the exact log magnitude and ``b`` the
    float one, is at most 1e-9.  A coordinate exactly zero on one side only
    counts as ``inf``, and a NaN reaches the row: either fails it."""
    states = q_iterate(len(init), init, steps)
    gaps = [np.zeros(0)]
    for q, f in zip(states, float_states):
        a = np.full(max(len(q), len(f)), LOG_ZERO)
        b = a.copy()
        a[: len(q)] = [c.polar_parts()[0] for c in q]
        b[: len(f)] = f.lm
        za, zb = a == LOG_ZERO, b == LOG_ZERO
        with np.errstate(invalid="ignore"):
            gap = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        gaps.append(np.where(za | zb, np.where(za & zb, 0.0, np.inf), gap))
    worst = float(np.max(np.concatenate(gaps), initial=0.0))
    return states, [check_leq("exact-iteration", worst, 1e-9, "orbit-recursion")]


# -- JSON interchange for the rational mode ---------------------------------


def q_coord_to_json(c: QComplex):
    if c.im == 0:
        return {"num": str(c.re.numerator), "den": str(c.re.denominator)}
    return {"num": str(c.re.numerator), "den": str(c.re.denominator),
            "imnum": str(c.im.numerator), "imden": str(c.im.denominator)}


def _fraction(num, den) -> Fraction:
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ParameterRangeError(f"zero denominator in {num!r}/{den!r}") from None


def _exact_double(x) -> Fraction:
    x = float(x)
    if not math.isfinite(x):
        raise ParameterRangeError(f"non-finite coordinate part {x!r}")
    return Fraction(x)


def q_coord_from_json(entry) -> QComplex:
    """The one reader of fraction coordinates ``{"num", "den"[, "imnum",
    "imden"]}``; an ``[re, im]`` pair reads as the exact values of its two
    doubles, the numbers the float reader sees, and a non-finite part raises
    :class:`ParameterRangeError`."""
    if isinstance(entry, dict) and "num" in entry:
        im = Fraction(0)
        if "imnum" in entry:
            im = _fraction(entry["imnum"], entry.get("imden", 1))
        return QComplex(_fraction(entry["num"], entry["den"]), im)
    if isinstance(entry, (list, tuple)):
        return QComplex(_exact_double(entry[0]), _exact_double(entry[1]))
    raise ParameterRangeError(f"unrecognized rational coordinate {entry!r}")


def q_vector_to_json(v: QVector) -> dict:
    return {"space": "cn", "param": max(len(v), 1),
            "coords": [q_coord_to_json(c) for c in v]}


def q_vector_from_json(obj: dict) -> QVector:
    """The exact vector of a ``coords`` list of fractions and ``[re, im]``
    pairs; a file of log-modulus columns has no exact rational reading."""
    if "coords" not in obj:
        raise ParameterRangeError(
            "rational mode reads a 'coords' list of fractions {num, den[, imnum, "
            "imden]} or [re, im] pairs; log-modulus columns hold rounded "
            "logarithms, which name no exact rational")
    return [q_coord_from_json(e) for e in obj["coords"]]
