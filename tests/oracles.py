"""Reference computations that only the tests use: slow literal evaluations
and small helpers the library has no caller for."""

import base64
import cmath
import contextlib
import math

import numpy as np

from hyperorbit.arith import FibCache
from hyperorbit.constructions import dense_value, steer_target_CN
from hyperorbit.errors import ParameterRangeError, WrongSpaceError
from hyperorbit.rational import QComplex, QVector, q_iterate
from hyperorbit.spaces import SeqVector, SpaceTag, WeightSeq, forward_shift


def to_complex(v):
    """The ordinary complex value of a ``LogComplex``, or the complex
    coordinates of a ``SeqVector``; magnitudes beyond float range overflow
    to inf."""
    if isinstance(v, SeqVector):
        with np.errstate(over="ignore"):
            r = np.exp(v.lm)
        return r * np.exp(1j * v.phase)
    if v.is_zero:
        return 0j
    try:
        r = math.exp(v.log_mag)
    except OverflowError:
        r = math.inf
    return cmath.rect(r, v.phase)


def a_naive(N: int) -> list[int]:
    """``[0, a_1, ..., a_N]`` by the literal O(N^2) defining sum
    ``sum_{j=0..n-1} a_{n-j} F(2j+1) = n``."""
    F = FibCache(2 * N + 1).prefix(2 * N + 1)
    vals = [0, 1]
    for n in range(2, N + 1):
        s = sum(vals[n - j] * F[2 * j + 1] for j in range(1, n))
        vals.append(n - s)
    return vals


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


def steering_exact(m: int, init, target: QVector, k: int) -> bool:
    """Iterate the steered tuple exactly and compare state k with the target."""
    steered = steer_target_CN(m, init, target, k)
    states = q_iterate(m, list(steered), k)
    return q_equal(states[k - 1], list(target))


def primitive_block(nblk: int) -> SeqVector:
    """``P_n`` alone, as monomial coefficients (degree n, no constant term)."""
    coeffs = [0.0] * (nblk + 1)
    for j in range(1, nblk + 1):
        coeffs[j] = abs(dense_value(nblk, j - 1)) / math.factorial(j)
    return SeqVector.from_complex(SpaceTag.hc(1), coeffs)


def retag(v: SeqVector, space: SpaceTag) -> SeqVector:
    """``v``'s coordinates, bit for bit, tagged with ``space``."""
    return SeqVector(space, v.hi, v.lo, v.phase)


class CustomWeights(WeightSeq):
    """A weight sequence with the given positive values and no generator:
    asking for more entries than it holds raises."""

    def __init__(self, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or np.any(vals <= 0):
            raise ParameterRangeError("custom weights must be positive reals")
        self.kind = "custom"
        self._logs = np.log(vals)
        self._cum = None

    def _ensure(self, n: int) -> None:
        if self._logs.size < n:
            raise ParameterRangeError(
                f"custom weight sequence has only {self._logs.size} entries, {n} needed")


def integral(v: SeqVector) -> SeqVector:
    """Antiderivative with zero constant term; the right inverse of
    ``derivative``."""
    if v.space.kind != "hc":
        raise WrongSpaceError("integral is defined on hc-tagged vectors")
    return forward_shift(v, WeightSeq.linear())


def entry(checks, name):
    """The one report entry called ``name``: a row or a family."""
    (found,) = [c for c in checks if c.name == name]
    return found


def failures(checks):
    """``(name, failing indices)`` of each failing entry, in report order; a
    row, which has no index, gives None."""
    return [(c.name, c.to_json().get("failing")) for c in checks if not c.ok]


def b64_column(values) -> str:
    """A column's text as the writer would make it from ``values``: the
    base64 of bytes, or of the little-endian float64 bytes of numbers; for
    reader tests, well formed or not."""
    raw = values if isinstance(values, bytes) else np.array(values, "<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


@contextlib.contextmanager
def columns(obj, *keys):
    """The float columns ``keys`` of a written vector or report family entry,
    decoded by the documented rule (each is the base64 of little-endian
    float64 bytes) into writable arrays.  On exit each array is encoded back
    into ``obj``, so an edit of the arrays is an edit of ``obj``."""
    arrays = [np.frombuffer(base64.b64decode(obj[key], validate=True), "<f8").astype(float)
              for key in keys]
    yield arrays
    for key, a in zip(keys, arrays):
        obj[key] = b64_column(a)
