"""Log-domain complex scalars, Fibonacci machinery, and the quadratic exponent sequence.

Orbit weights in this library are products like ``y_1**F(n) * x_2**F(n-1) * ...``
whose magnitudes overflow any fixed-precision format long before the dynamics
become interesting (``F(200) ~ 2.8e41`` appears as an *exponent*).  Every scalar
is therefore carried in log-polar form: a natural-log magnitude plus a phase in
``(-pi, pi]``.  Exact zero is a distinguished value (log magnitude ``-inf``,
canonical phase ``0``), produced structurally by shifts and functionals, never
by underflow.

Phase reduction under a big-integer exponent is exact integer arithmetic
against a fixed-point 2*pi with the exponent's bit length plus a guard band, so
that e.g. the phase of ``z**F(200)`` is still correctly rounded.  This module
owns pi: :func:`pi_fixed` sums Machin's formula as an integer series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import zip_longest

from .errors import ParameterRangeError
from .report import Check, check_flag

LOG_ZERO = float("-inf")

# A sum whose modulus falls below this fraction of its largest term is a
# cancellation and snaps to exact zero (scalar, vector and matrix sums alike).
CANCEL_SNAP = 1e-15

_TWO_PI = 2.0 * math.pi


def normalize_phase(p: float) -> float:
    """Reduce a finite phase into the canonical interval ``(-pi, pi]``."""
    if -math.pi < p <= math.pi:
        return p
    q = math.remainder(p, _TWO_PI)  # lands in [-pi, pi]
    if q <= -math.pi:
        q = math.pi
    return q


def polar_parts(log_mag: float, phase: float) -> tuple[float, float]:
    """The canonical ``(log_mag, phase)`` of a log-polar number.

    A ``-inf`` log is the canonical zero with phase 0; any other phase is
    reduced by :func:`normalize_phase`.  A NaN part raises
    :class:`ParameterRangeError`.  :meth:`LogComplex.from_polar` wraps it, and
    the vector reader calls it without building a scalar object.
    """
    if math.isnan(log_mag) or math.isnan(phase):
        raise ParameterRangeError("log magnitude and phase must not be NaN")
    if log_mag == LOG_ZERO:
        return LOG_ZERO, 0.0
    return log_mag, normalize_phase(phase)


def complex_parts(z: complex) -> tuple[float, float]:
    """The canonical ``(log_mag, phase)`` of a complex number: 0 is the
    canonical zero, and a NaN part raises :class:`ParameterRangeError`.  The
    scalar and vector constructors and the vector reader all use it."""
    if z != z:
        raise ParameterRangeError(f"complex value {z!r} must not be NaN")
    if z == 0:
        return LOG_ZERO, 0.0
    return math.log(abs(z)), normalize_phase(math.atan2(z.imag, z.real))


_GUARD = 64  # bits the reduced phase keeps above its error bound

_PI = (0, 0)  # (bits, pi_fixed(bits)) at the largest bits asked so far


def _atan_inv(k: int, bits: int) -> int:
    """``atan(1/k) * 2**bits`` by its Taylor series, each term truncated: within
    one unit per term of the true value."""
    power = total = (1 << bits) // k
    k2, d, sign = k * k, 1, 1
    while power:
        power //= k2
        d += 2
        sign = -sign
        total += sign * (power // d)
    return total


def pi_fixed(bits: int) -> int:
    """``pi * 2**bits`` as an integer, within about one unit of the true value.

    ``pi = 16 atan(1/5) - 4 atan(1/239)`` (Machin), summed at ``bits + 32``
    bits with each term off by less than one unit; the 32 guard bits are then
    dropped.  One value is cached at the largest precision asked so far; lower
    precisions read it by right shift, and a higher one re-sums the series at
    twice the cached precision or more.
    """
    global _PI
    have, pi = _PI
    if bits > have:
        have = max(bits, 2 * have)
        g = have + 32
        pi = (16 * _atan_inv(5, g) - 4 * _atan_inv(239, g)) >> 32
        _PI = (have, pi)  # one tuple, so a reader never sees a torn pair
    return pi >> (have - bits)


def phase_times_int(phase: float, n: int) -> float:
    """Reduce ``n * phase`` mod 2*pi into ``(-pi, pi]`` for arbitrarily large ``n``.

    Naive float multiplication destroys all phase accuracy once ``n*phase``
    exceeds ~2**52.  Here the double is ``m / 2**e`` exactly and ``x = m*n`` is
    an exact integer; ``x / 2**e`` is reduced with floored ``%`` against
    ``2*pi*2**P`` (:func:`pi_fixed`), ``P = e + bits(x) + 64``.  Each unit of
    the quotient ``q`` adds about one unit ``2**-P`` of error, so a remainder
    within ``2**64 (|q| + 1)`` units of a multiple of 2*pi is redone at twice
    the precision.  The value in ``[0, 2*pi)`` is rounded to a double once,
    by int / int true division, which rounds correctly at any scale
    (subnormal results included), and reduced by :func:`normalize_phase`.
    """
    if phase == 0.0 or n == 0:
        return 0.0
    m, d = phase.as_integer_ratio()
    e = d.bit_length() - 1
    x = m * n
    p = e + x.bit_length() + _GUARD
    while True:
        two_pi = pi_fixed(p + 1)
        q, r = divmod(x << (p - e), two_pi)
        if min(r, two_pi - r) >> _GUARD > abs(q):
            break
        p *= 2
    return normalize_phase(r / (1 << p))


@dataclass(frozen=True, slots=True)
class LogComplex:
    """A complex scalar as (natural-log magnitude, phase in ``(-pi, pi]``).

    ``log_mag = -inf`` encodes exact zero and absorbs under multiplication.
    Instances are immutable.
    """

    log_mag: float
    phase: float = 0.0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(LOG_ZERO, 0.0)

    @staticmethod
    def one() -> "LogComplex":
        return LogComplex(0.0, 0.0)

    @staticmethod
    def from_complex(z: complex) -> "LogComplex":
        return LogComplex(*complex_parts(complex(z)))

    @staticmethod
    def from_real(x: float) -> "LogComplex":
        return LogComplex.from_complex(x)  # phase 0 or pi

    @staticmethod
    def from_polar(log_mag: float, phase: float) -> "LogComplex":
        return LogComplex(*polar_parts(log_mag, phase))

    # -- predicates and conversions ---------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log_mag == LOG_ZERO

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(
            self.log_mag + other.log_mag,
            normalize_phase(self.phase + other.phase),
        )

    def div(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by exact log-domain zero")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(
            self.log_mag - other.log_mag,
            normalize_phase(self.phase - other.phase),
        )

    def inv(self) -> "LogComplex":
        return LogComplex.one().div(self)

    def neg(self) -> "LogComplex":
        if self.is_zero:
            return self
        # direct +-pi flip stays normalized and avoids a wrap round trip
        p = self.phase - math.pi if self.phase > 0 else self.phase + math.pi
        return LogComplex(self.log_mag, p)

    def add(self, other: "LogComplex") -> "LogComplex":
        """Complex sum, computed by factoring out the larger magnitude.

        A relative cancellation below ``CANCEL_SNAP`` snaps to exact zero, so that
        structural cancellations (``a + (-a)``) produce the distinguished
        zero rather than rounding noise.
        """
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if other.log_mag > self.log_mag:
            self, other = other, self
        ratio = cmath.rect(math.exp(other.log_mag - self.log_mag),
                           other.phase - self.phase)
        s = 1.0 + ratio
        mag = abs(s)
        if mag < CANCEL_SNAP:
            return LogComplex.zero()
        return LogComplex(
            self.log_mag + math.log(mag),
            normalize_phase(self.phase + math.atan2(s.imag, s.real)),
        )

    def pow_int(self, n: int) -> "LogComplex":
        """``self**n`` for an integer exponent of any size (Fibonacci scale)."""
        if self.is_zero:
            if n <= 0:
                raise ZeroDivisionError("0**n undefined for n <= 0")
            return LogComplex.zero()
        if n == 0:
            return LogComplex.one()
        if self.log_mag == 0.0:  # unit modulus stays unit (0 * inf would be NaN)
            return LogComplex(0.0, phase_times_int(self.phase, n))
        try:
            nf = float(n)
        except OverflowError:
            nf = math.inf if n > 0 else -math.inf
        return LogComplex(self.log_mag * nf, phase_times_int(self.phase, n))

    def root(self, n: int) -> "LogComplex":
        """Principal branch n-th root: the root whose argument is ``phase/n``."""
        if n < 1:
            raise ParameterRangeError("root index must be a positive integer")
        if self.is_zero:
            return LogComplex.zero()
        if n == 1:
            return self
        try:
            nf = float(n)
        except OverflowError:
            return LogComplex.one()  # log_mag/n and phase/n both underflow to 0
        return LogComplex(self.log_mag / nf, self.phase / nf)

    def __repr__(self) -> str:  # pragma: no cover
        if self.is_zero:
            return "LogComplex(zero)"
        return f"LogComplex(log_mag={self.log_mag!r}, phase={self.phase!r})"


# Spec-level operation aliases.
def logc_mul(a: LogComplex, b: LogComplex) -> LogComplex:
    return a.mul(b)


def logc_add(a: LogComplex, b: LogComplex) -> LogComplex:
    return a.add(b)


def logc_prod(factors) -> LogComplex:
    out = LogComplex.one()
    for f in factors:
        out = out.mul(f)
    return out


# ---------------------------------------------------------------------------
# Fibonacci machinery
# ---------------------------------------------------------------------------


class FibCache:
    """Exact big-integer Fibonacci values ``F(1) = F(2) = 1``, extended on demand.

    Concurrent reads of already-cached values are safe; extension is
    single-owner.
    """

    def __init__(self, prefill: int = 64):
        self._values = [0, 1, 1]  # 1-indexed; slot 0 unused (F(0) = 0 kept for identities)
        self.ensure(prefill)

    def ensure(self, n: int) -> None:
        while len(self._values) <= n:
            self._values.append(self._values[-1] + self._values[-2])

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ParameterRangeError("Fibonacci index must be >= 0")
        self.ensure(n)
        return self._values[n]

    def prefix(self, n: int) -> list[int]:
        """``[F(0), F(1), ..., F(n)]`` as a list (index = subscript)."""
        self.ensure(n)
        return self._values[: n + 1]

    def _corrupt_for_testing(self, n: int, delta: int = 1) -> None:
        """Negative-control hook: damage a cached value so audits must catch it."""
        self.ensure(n)
        self._values[n] += delta


def fib(n: int, cache: FibCache | None = None) -> int:
    """F(n) with F(1) = F(2) = 1, computed exactly."""
    if n < 1:
        raise ParameterRangeError("fib is defined here for n >= 1")
    if cache is None:
        cache = FibCache(n)
    return cache(n)


def even_sum_failure(cache: FibCache, s_max: int) -> int | None:
    """First ``s <= s_max`` with ``F(2s) != sum_{t<s} F(2t+1)`` in ``cache``, or
    None: the even-index sum identity, exactly, in one pass."""
    F = cache.prefix(2 * s_max)
    acc = 0
    for s in range(1, s_max + 1):
        acc += F[2 * s - 1]
        if F[2 * s] != acc:
            return s
    return None


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of an exact identity audit: ``checked`` instances certified,
    ``computed`` of them (and of the cache checks) evaluated."""

    ok: bool
    checked: int
    first_failure: tuple | None = None
    computed: int = 0


def check_fib_identities(N: int, cache: FibCache) -> IdentityReport:
    """Verify two classical Fibonacci identities exactly for all indices <= N.

    * even-index sum: ``F(2n) = sum_{j=1..n} F(2j-1)`` for all ``2n <= N``;
    * Vajda: ``F(m+i)F(m+j) - F(m)F(m+i+j) = (-1)^m F(i)F(j)`` for all
      ``m, i, j >= 1`` with ``m + i + j <= N``.

    All arithmetic is exact big-integer, on the values ``cache`` holds: a
    corrupted entry is a failure, and the report carries the first failing
    case, ``("recurrence", n)`` (the first entry
    ``F(n)`` that is not ``F(0) = 0``, ``F(1) = F(2) = 1`` or
    ``F(n-1) + F(n-2)``), ``("even-sum", n)`` or ``("vajda", m, i, j)``.

    The Vajda instances are certified by their recurrence, not one by one.
    Once ``F(k+2) = F(k+1) + F(k)`` holds for ``k + 2 <= N``, fix ``m`` and
    ``i`` and let ``D_j = F(m+i)F(m+j) - F(m)F(m+i+j) - (-1)^m F(i)F(j)`` for
    ``1 <= j <= N-m-i``.  Each term is a constant times ``F(m+j)``,
    ``F(m+i+j)`` or ``F(j)``, and every index ``D_{j+2}`` reads is at most N,
    so ``D_{j+2} = D_{j+1} + D_j``.  By induction the row is identically 0
    exactly when ``D_1 = D_2 = 0``; only those are computed (``D_1`` alone on
    a row of length 1).  ``checked`` counts the instances certified (the
    ``N // 2`` sums and every Vajda instance covered), ``computed`` the cache
    entries, sums and Vajda instances evaluated; on a failure both stop at
    the last stage that passed.  The exhaustive scan is kept in the tests as
    the oracle.
    """
    if N < 3:
        raise ParameterRangeError("identity check needs N >= 3")
    F = cache.prefix(N)
    for n, f in enumerate(F):
        if f != (F[n - 1] + F[n - 2] if n > 2 else (0, 1, 1)[n]):
            return IdentityReport(False, 0, ("recurrence", n))
    computed = N + 1
    n = even_sum_failure(cache, N // 2)
    if n is not None:
        return IdentityReport(False, 0, ("even-sum", n), computed)
    checked = N // 2
    computed += checked

    f1, f2 = F[1], F[2]
    for m in range(1, N - 1):
        fm, fm1, fm2 = F[m], F[m + 1], F[m + 2]
        s1, s2 = (f1, f2) if m % 2 == 0 else (-f1, -f2)
        # D_1 of the rows i = 1 .. N-m-1, D_2 of all but the last (length 1)
        d1 = [a * fm1 - fm * b - c * s1
              for a, b, c in zip(F[m + 1:N], F[m + 2:N + 1], F[1:N - m])]
        d2 = [a * fm2 - fm * b - c * s2
              for a, b, c in zip(F[m + 1:N - 1], F[m + 3:N + 1], F[1:N - m - 1])]
        if any(d1) or any(d2):
            i, j = next((i, j) for i, d in enumerate(zip_longest(d1, d2, fillvalue=0), 1)
                        for j in (1, 2) if d[j - 1])
            return IdentityReport(False, checked, ("vajda", m, i, j), computed)
        computed += len(d1) + len(d2)
        checked += (N - m) * (N - m - 1) // 2

    return IdentityReport(True, checked, computed=computed)


def fib_partial_sum_ok(N: int, cache: FibCache) -> bool:
    """Exact check of ``sum_{l=1..n} F(l) = F(n+2) - 1`` in ``cache``, n <= N."""
    F = cache.prefix(N + 2)
    acc = 0
    for n in range(1, N + 1):
        acc += F[n]
        if acc != F[n + 2] - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# The exponent sequence a_n
# ---------------------------------------------------------------------------


def a_closed(n):
    """``a_n = 1 - n(n-1)/2``, the one rule for the exponent sequence; ``n`` is
    an int or an int64 array.

    The sequence is defined by ``sum_{j=0..n-1} a_{n-j} F(2j+1) = n``.  With
    ``G(x) = sum_{j>=0} F(2j+1) x^j = (1-x)/(1-3x+x^2)`` the definition reads
    ``A(x) G(x) = x/(1-x)^2``, so ``A(x) = x(1-3x+x^2)/(1-x)^3`` and
    ``a_n = C(n+1,2) - 3C(n,2) + C(n-1,2) = 1 - n(n-1)/2`` for every
    ``n >= 1``.  On an int the value is exact.  The builders reach n up to the
    gap scan's cap ``SCAN_CAP = 10**6`` and their vectors' lengths; while
    ``n(n-1)/2 < 2**53`` (n below 1.3e8) the int64 form is exact and so is
    its float.  :func:`a_recursion` computes the sequence from its
    definition, as the certificate of this formula.
    """
    return 1 - n * (n - 1) // 2


def a_convolution_step(an: int, P: int, Q: int) -> tuple[int, int]:
    """``(P_{n+1}, Q_{n+1})`` from ``a_n``, ``P_n`` and ``Q_n``.

    With ``P_n = sum_{j=1..n-1} a_{n-j} F(2j)`` and
    ``Q_n = sum_{j=1..n-1} a_{n-j} F(2j+1)`` (``P_1 = Q_1 = 0``), the
    Fibonacci recurrence gives

        ``P_{n+1} = a_n + P_n + Q_n``,
        ``Q_{n+1} = 2 a_n + P_n + 2 Q_n``,

    so the defining sum ``sum_{j=0..n-1} a_{n-j} F(2j+1) = a_n + Q_n`` costs
    O(1) exact integer operations per n instead of an O(n) big-integer sum.
    """
    return an + P + Q, 2 * an + P + 2 * Q


def a_recursion(N: int) -> list[int]:
    """``[0, a_1, ..., a_N]`` (index = subscript) from the defining convolution,
    ``a_n = n - Q_n``, one :func:`a_convolution_step` per n.  ``identities``
    compares it with :func:`a_closed`.
    """
    if N < 1:
        raise ParameterRangeError("the a-sequence needs N >= 1")
    vals = [0, 1]
    P, Q = 0, 0
    for n in range(1, N):
        P, Q = a_convolution_step(vals[n], P, Q)
        vals.append(n + 1 - Q)
    return vals


def identity_checks(max_n: int, a_max: int, cache: FibCache) -> tuple[list[Check], dict]:
    """The rows of ``identities`` and the audit's two instance counts: the
    audit and the partial sums read the same ``cache`` to ``max_n``, so a
    damaged entry fails both; :func:`a_recursion` certifies :func:`a_closed`."""
    idrep = check_fib_identities(max_n, cache)
    rows = [check_flag("fib-identities", idrep.ok, "fib-even-sum-and-vajda"),
            check_flag("fib-partial-sums", fib_partial_sum_ok(max_n, cache), "fib-partial-sum")]
    a = a_recursion(a_max)
    rows.append(check_flag("a-seq-closed-form", all(a[n] == a_closed(n) for n in range(1, a_max + 1)),
                           "a-seq-closed-form"))
    return rows, {"identity_instances_covered": idrep.checked,
                  "identity_instances_computed": idrep.computed}
