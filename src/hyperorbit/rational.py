"""Exact complex-rational vectors for steering preimages on the full sequence space.

The steering construction promises *exact* equality of a designated orbit
state with a target vector.  Floating point cannot certify that, so this mode
carries coordinates as pairs of ``fractions.Fraction`` (real and imaginary
part) and iterates the orbit with no rounding at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterRangeError


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


def q_equal(a: QVector, b: QVector) -> bool:
    """Exact equality as elements of c00 (trailing zeros ignored)."""
    n = max(len(a), len(b))
    z = QComplex.of(0)
    for i in range(n):
        x = a[i] if i < len(a) else z
        y = b[i] if i < len(b) else z
        if x.re != y.re or x.im != y.im:
            return False
    return True


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


# -- JSON interchange for the rational mode ---------------------------------


def q_coord_to_json(c: QComplex):
    if c.im == 0:
        return {"num": str(c.re.numerator), "den": str(c.re.denominator)}
    return {"num": str(c.re.numerator), "den": str(c.re.denominator),
            "imnum": str(c.im.numerator), "imden": str(c.im.denominator)}


def q_coord_from_json(entry) -> QComplex:
    if isinstance(entry, dict) and "num" in entry:
        re = Fraction(int(entry["num"]), int(entry["den"]))
        im = Fraction(0)
        if "imnum" in entry:
            im = Fraction(int(entry["imnum"]), int(entry.get("imden", 1)))
        return QComplex(re, im)
    if isinstance(entry, (list, tuple)):
        return QComplex(Fraction(entry[0]).limit_denominator(10**15),
                        Fraction(entry[1]).limit_denominator(10**15))
    raise ParameterRangeError(f"unrecognized rational coordinate {entry!r}")


def q_vector_to_json(v: QVector) -> dict:
    return {"space": "cn", "param": max(len(v), 1),
            "coords": [q_coord_to_json(c) for c in v]}


def q_vector_from_json(obj: dict) -> QVector:
    return [q_coord_from_json(e) for e in obj["coords"]]
