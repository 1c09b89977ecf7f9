"""Truncated sequence/coefficient spaces, their norms, and the linear building blocks.

A :class:`SeqVector` is a truncated element of one of five concrete spaces
(``l1``, ``lp``, ``c0``, the seminormed sequence space ``cn``, and entire
functions ``hc`` stored by monomial coefficients, 1-indexed: slot ``i`` holds
the coefficient of ``z**(i-1)``).  Coordinates live in log-polar form.

Log magnitudes are stored as an unevaluated double-double pair ``(hi, lo)``.
This is what makes the weighted-shift pair exactly invertible: a forward shift
divides by a weight (subtracts its log), a backward shift multiplies it back,
and with a compensated representation the round trip returns the original
coordinate bit for bit, for any weights.  Plain doubles lose the round trip
almost always.

Operations that shorten a vector (backward shifts) simply return a shorter
vector; orbit engines watch for the window running out instead of silently
zero-padding, because every identity checked downstream is exact and padding
would corrupt it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CANCEL_SNAP, LOG_ZERO, LogComplex, normalize_phase
from .errors import DegreeCapError, ParameterRangeError, WrongSpaceError

TRANSLATE_DEGREE_CAP = 500

_KINDS = ("l1", "lp", "c0", "cn", "hc")


@dataclass(frozen=True, slots=True)
class SpaceTag:
    """Identifies which space a vector belongs to (plus ``p`` or seminorm index)."""

    kind: str
    param: float | int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterRangeError(f"unknown space kind {self.kind!r}")
        if self.kind == "lp":
            if self.param is None or self.param < 1:
                raise ParameterRangeError("lp needs p >= 1")
        elif self.kind in ("cn", "hc"):
            if self.param is None or int(self.param) < 1:
                raise ParameterRangeError(f"{self.kind} needs seminorm index k >= 1")

    @staticmethod
    def l1() -> "SpaceTag":
        return SpaceTag("l1")

    @staticmethod
    def lp(p: float) -> "SpaceTag":
        return SpaceTag("lp", p)

    @staticmethod
    def c0() -> "SpaceTag":
        return SpaceTag("c0")

    @staticmethod
    def cn(k: int) -> "SpaceTag":
        return SpaceTag("cn", int(k))

    @staticmethod
    def hc(k: int) -> "SpaceTag":
        return SpaceTag("hc", int(k))


# ---------------------------------------------------------------------------
# double-double helpers (vectorized)
# ---------------------------------------------------------------------------


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _dd_add(hi, lo, w):
    """Compensated ``(hi + lo) + w``; exact-zero entries (hi = -inf) pass through."""
    mask = hi == LOG_ZERO
    with np.errstate(invalid="ignore"):
        s, e = _two_sum(hi, w)
        lo2 = lo + e
        s2 = s + lo2
        lo3 = lo2 - (s2 - s)
    if mask.any():
        s2 = np.where(mask, LOG_ZERO, s2)
        lo3 = np.where(mask, 0.0, lo3)
    return s2, lo3


def _norm_phases(p):
    inside = (p > -np.pi) & (p <= np.pi)
    q = np.mod(p + np.pi, 2.0 * np.pi) - np.pi
    q = np.where(q <= -np.pi, np.pi, q)
    return np.where(inside, p, q)  # already-normalized phases pass through bitwise


def _lm(hi, lo):
    """Collapsed log magnitudes ``hi + lo``; exact zeros (``hi = -inf``) stay -inf."""
    with np.errstate(invalid="ignore"):
        out = hi + lo
    return np.where(hi == LOG_ZERO, LOG_ZERO, out)


def _scale_arrays(hi, lo, phase, log_mag, ph):
    """Array body of :meth:`SeqVector.scale` by a nonzero scalar.

    Broadcasts, so one call scales a block of rows by a column of scalars.
    """
    hi, lo = _dd_add(hi, lo, log_mag)
    p = _norm_phases(phase + ph)
    return hi, lo, np.where(hi == LOG_ZERO, 0.0, p)


def _add_arrays(ahi, alo, aph, bhi, blo, bph):
    """Array body of :meth:`SeqVector.add` on operands of equal shape.

    Elementwise, so it adds blocks of rows as well as single vectors.
    """
    la, lb = _lm(ahi, alo), _lm(bhi, blo)
    za, zb = la == LOG_ZERO, lb == LOG_ZERO
    a_big = la >= lb
    base_hi = np.where(a_big, ahi, bhi)
    base_lo = np.where(a_big, alo, blo)
    base_ph = np.where(a_big, aph, bph)
    with np.errstate(invalid="ignore", over="ignore"):
        dlog = np.where(a_big, lb - la, la - lb)
        dph = np.where(a_big, bph - aph, aph - bph)
        dlog = np.where(za | zb, LOG_ZERO, dlog)
        s = 1.0 + np.exp(dlog) * np.exp(1j * dph)
        smag = np.abs(s)
    cancel = smag < CANCEL_SNAP
    with np.errstate(divide="ignore"):
        step = np.where(cancel, LOG_ZERO, np.log(np.maximum(smag, 1e-300)))
    hi, lo = _dd_add(base_hi, base_lo, step)
    hi = np.where(cancel, LOG_ZERO, hi)
    lo = np.where(cancel, 0.0, lo)
    ph = _norm_phases(base_ph + np.angle(s))
    ph = np.where(hi == LOG_ZERO, 0.0, ph)
    return (np.where(za, bhi, np.where(zb, ahi, hi)),
            np.where(za, blo, np.where(zb, alo, lo)),
            np.where(za, bph, np.where(zb, aph, ph)))


def _lse(a: np.ndarray) -> float:
    """log(sum(exp(a))) with empty/all-zero handled."""
    if a.size == 0:
        return LOG_ZERO
    m = float(np.max(a))
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.sum(np.exp(a - m))))


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------


class WeightSeq:
    """A positive weight sequence with an exact generator descriptor.

    Built-in generators: ``ones`` (w_i = 1), ``inv_squares`` (w_i = 1/i**2),
    ``linear`` (w_i = i).  Log weights and their cumulative sums are cached and
    grow on demand; reads of cached entries are safe concurrently.
    """

    def __init__(self, kind: str, values=None):
        if kind not in ("ones", "inv_squares", "linear", "custom"):
            raise ParameterRangeError(f"unknown weight generator {kind!r}")
        self.kind = kind
        if kind == "custom":
            vals = np.asarray(values, dtype=float)
            if vals.ndim != 1 or np.any(vals <= 0):
                raise ParameterRangeError("custom weights must be positive reals")
            self._logs = np.log(vals)
        else:
            self._logs = np.empty(0)
        self._cum = None

    @staticmethod
    def ones() -> "WeightSeq":
        return WeightSeq("ones")

    @staticmethod
    def inv_squares() -> "WeightSeq":
        return WeightSeq("inv_squares")

    @staticmethod
    def linear() -> "WeightSeq":
        return WeightSeq("linear")

    def _ensure(self, n: int) -> None:
        if self._logs.size >= n:
            return
        if self.kind == "custom":
            raise ParameterRangeError(
                f"custom weight sequence has only {self._logs.size} entries, {n} needed")
        i = np.arange(1, n + 1, dtype=float)
        if self.kind == "ones":
            self._logs = np.zeros(n)
        elif self.kind == "inv_squares":
            self._logs = -2.0 * np.log(i)
        else:  # linear
            self._logs = np.log(i)
        self._cum = None

    def logs(self, n: int) -> np.ndarray:
        """Log weights ``log w_1 .. log w_n``."""
        self._ensure(n)
        return self._logs[:n]

    def cum(self, n: int) -> np.ndarray:
        """Cumulative sums ``[0, log w_1, log w_1 + log w_2, ...]`` (length n+1)."""
        self._ensure(n)
        if self._cum is None or self._cum.size < n + 1:
            self._cum = np.concatenate(([0.0], np.cumsum(self._logs)))
        return self._cum[: n + 1]

    def log_at(self, i: int) -> float:
        """``log w_i`` (1-indexed)."""
        return float(self.logs(i)[i - 1])

    def value_at(self, i: int) -> float:
        return math.exp(self.log_at(i))


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


class SeqVector:
    """Truncated vector with log-polar coordinates (1-indexed externally)."""

    __slots__ = ("space", "hi", "lo", "phase")

    def __init__(self, space: SpaceTag, hi, lo, phase):
        self.space = space
        self.hi = np.asarray(hi, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.phase = np.asarray(phase, dtype=float)
        zero = self.hi == LOG_ZERO
        if zero.any():  # canonical zero: no lo part, phase 0
            self.lo = np.where(zero, 0.0, self.lo)
            self.phase = np.where(zero, 0.0, self.phase)
        for a in (self.hi, self.lo, self.phase):
            a.flags.writeable = False

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(space: SpaceTag, n: int) -> "SeqVector":
        return SeqVector(space, np.full(n, LOG_ZERO), np.zeros(n), np.zeros(n))

    @staticmethod
    def basis(space: SpaceTag, n: int, i: int) -> "SeqVector":
        """The i-th canonical basis vector (1-indexed) in a length-n window."""
        hi = np.full(n, LOG_ZERO)
        hi[i - 1] = 0.0
        return SeqVector(space, hi, np.zeros(n), np.zeros(n))

    @staticmethod
    def from_complex(space: SpaceTag, values) -> "SeqVector":
        vals = [complex(v) for v in values]
        hi = np.array([LOG_ZERO if v == 0 else math.log(abs(v)) for v in vals])
        ph = np.array([0.0 if v == 0 else normalize_phase(math.atan2(v.imag, v.real))
                       for v in vals])
        return SeqVector(space, hi, np.zeros(len(vals)), ph)

    @staticmethod
    def from_logc(space: SpaceTag, coords) -> "SeqVector":
        coords = list(coords)
        hi = np.array([c.log_mag for c in coords])
        ph = np.array([c.phase for c in coords])
        return SeqVector(space, hi, np.zeros(len(coords)), ph)

    # -- basic access ------------------------------------------------------

    def __len__(self) -> int:
        return self.hi.size

    @property
    def is_exhausted(self) -> bool:
        """True when a shift chain has consumed the whole truncation window."""
        return self.hi.size == 0

    @property
    def lm(self) -> np.ndarray:
        """Collapsed log magnitudes (hi + lo) as plain doubles."""
        return _lm(self.hi, self.lo)

    def coord(self, i: int) -> LogComplex:
        """Coordinate ``i`` (1-indexed) as a scalar."""
        if not 1 <= i <= len(self):
            raise IndexError(f"coordinate {i} outside window of length {len(self)}")
        if self.hi[i - 1] == LOG_ZERO:
            return LogComplex.zero()
        return LogComplex(float(self.hi[i - 1] + self.lo[i - 1]),
                          float(self.phase[i - 1]))

    def to_complex(self) -> np.ndarray:
        """Ordinary complex coordinates; magnitudes beyond float range overflow."""
        with np.errstate(over="ignore"):
            r = np.exp(self.lm)
        return r * np.exp(1j * self.phase)

    def retag(self, space: SpaceTag) -> "SeqVector":
        return SeqVector(space, self.hi, self.lo, self.phase)

    def truncate(self, n: int) -> "SeqVector":
        return SeqVector(self.space, self.hi[:n], self.lo[:n], self.phase[:n])

    # -- algebra -----------------------------------------------------------

    def scale(self, s: LogComplex) -> "SeqVector":
        if s.is_zero:
            return SeqVector.zeros(self.space, len(self))
        return SeqVector(self.space, *_scale_arrays(
            self.hi, self.lo, self.phase, s.log_mag, s.phase))

    def neg(self) -> "SeqVector":
        # direct +-pi flip stays normalized and avoids a wrap round trip
        ph = np.where(self.phase > 0, self.phase - np.pi, self.phase + np.pi)
        ph = np.where(self.hi == LOG_ZERO, 0.0, ph)
        return SeqVector(self.space, self.hi, self.lo, ph)

    def _padded(self, n: int) -> "SeqVector":
        if len(self) >= n:
            return self
        pad = n - len(self)
        return SeqVector(
            self.space,
            np.concatenate([self.hi, np.full(pad, LOG_ZERO)]),
            np.concatenate([self.lo, np.zeros(pad)]),
            np.concatenate([self.phase, np.zeros(pad)]),
        )

    def add(self, other: "SeqVector") -> "SeqVector":
        """Coordinate-wise complex sum (shorter operand is zero-padded).

        Where one operand is exactly zero the other's coordinate is passed
        through bit for bit; a relative cancellation below ``CANCEL_SNAP``
        snaps to exact zero.
        """
        n = max(len(self), len(other))
        a, b = self._padded(n), other._padded(n)
        return SeqVector(self.space, *_add_arrays(
            a.hi, a.lo, a.phase, b.hi, b.lo, b.phase))

    def sub(self, other: "SeqVector") -> "SeqVector":
        return self.add(other.neg())


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _hc_weights(n: int, k: int) -> np.ndarray:
    j = np.arange(n, dtype=float)
    return j * math.log(k) - np.array([math.lgamma(x + 1.0) for x in j])


_HC_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _hc_weight_row(n: int, k: int) -> np.ndarray:
    key = (n, k)
    row = _HC_CACHE.get(key)
    if row is None:
        row = _hc_weights(n, k)
        row.flags.writeable = False
        _HC_CACHE[key] = row
    return row


def norm(v: SeqVector) -> float:
    """Norm/seminorm of ``v`` per its tag, returned as a log magnitude.

    ``l1``: sum of moduli.  ``lp``: p-th root of the p-sum.  ``c0``: sup.
    ``cn(k)``: max of the first k moduli.  ``hc(k)``: sup over j of
    ``|a_j| * k**j / j!`` on monomial coefficients ``a_j``.
    """
    lm = v.lm
    kind = v.space.kind
    if kind == "l1":
        return _lse(lm)
    if kind == "lp":
        p = float(v.space.param)
        return _lse(p * lm) / p
    if kind == "c0":
        return float(np.max(lm)) if lm.size else LOG_ZERO
    if kind == "cn":
        k = int(v.space.param)
        head = lm[: k]
        return float(np.max(head)) if head.size else LOG_ZERO
    k = int(v.space.param)
    if lm.size == 0:
        return LOG_ZERO
    return float(np.max(lm + _hc_weight_row(lm.size, k)))


# ---------------------------------------------------------------------------
# shifts and coefficient operators
# ---------------------------------------------------------------------------


def backward_shift(v: SeqVector, w: WeightSeq) -> SeqVector:
    """``[B_w v]_i = w_i * v_{i+1}``; output one coordinate shorter.

    On a length-1 window the result is the empty vector, which iteration
    engines treat as window exhaustion.
    """
    n = len(v)
    if n == 0:
        return v
    logs = w.logs(max(n - 1, 0))
    hi, lo = _dd_add(v.hi[1:], v.lo[1:], logs)
    ph = np.where(hi == LOG_ZERO, 0.0, v.phase[1:])
    return SeqVector(v.space, hi, lo, ph)


def forward_shift(v: SeqVector, w: WeightSeq) -> SeqVector:
    """Formal right inverse of the weighted backward shift.

    ``[S_w v]_1 = 0`` exactly and ``[S_w v]_{i+1} = v_i / w_i``; composing
    ``backward_shift(forward_shift(v))`` returns ``v`` bit for bit.
    """
    n = len(v)
    logs = w.logs(n)
    hi, lo = _dd_add(v.hi, v.lo, -logs)
    ph = np.where(hi == LOG_ZERO, 0.0, v.phase)
    return SeqVector(
        v.space,
        np.concatenate(([LOG_ZERO], hi)),
        np.concatenate(([0.0], lo)),
        np.concatenate(([0.0], ph)),
    )


def shift_pow(v: SeqVector, w: WeightSeq, k: int) -> SeqVector:
    """``B_w**k`` in one pass via cumulative log-weight sums.

    Coordinate i of the result is ``(w_i ... w_{i+k-1}) * v_{i+k}``.  Uses the
    same cumulative sums as :func:`forward_pow`, so the k-fold round trip is
    exact as well.
    """
    if k == 0:
        return v
    n = len(v)
    if k >= n:
        return SeqVector.zeros(v.space, 0)
    cum = w.cum(n - 1)
    delta = cum[k: n] - cum[0: n - k]
    hi, lo = _dd_add(v.hi[k:], v.lo[k:], delta)
    ph = np.where(hi == LOG_ZERO, 0.0, v.phase[k:])
    return SeqVector(v.space, hi, lo, ph)


def forward_pow(v: SeqVector, w: WeightSeq, k: int) -> SeqVector:
    """``S_w**k`` in one pass; output has k leading exact zeros."""
    if k == 0:
        return v
    n = len(v)
    cum = w.cum(n + k)
    delta = cum[k: n + k] - cum[0: n]
    hi, lo = _dd_add(v.hi, v.lo, -delta)
    ph = np.where(hi == LOG_ZERO, 0.0, v.phase)
    return SeqVector(
        v.space,
        np.concatenate([np.full(k, LOG_ZERO), hi]),
        np.concatenate([np.zeros(k), lo]),
        np.concatenate([np.zeros(k), ph]),
    )


_LINEAR = WeightSeq.linear()


def derivative(v: SeqVector) -> SeqVector:
    """Monomial-coefficient derivative; a backward shift with weights w_j = j."""
    if v.space.kind != "hc":
        raise WrongSpaceError("derivative is defined on hc-tagged vectors")
    return backward_shift(v, _LINEAR)


def derivative_pow(v: SeqVector, k: int) -> SeqVector:
    if v.space.kind != "hc":
        raise WrongSpaceError("derivative is defined on hc-tagged vectors")
    return shift_pow(v, _LINEAR, k)


def integral(v: SeqVector) -> SeqVector:
    """Antiderivative with zero constant term; the right inverse of derivative."""
    if v.space.kind != "hc":
        raise WrongSpaceError("integral is defined on hc-tagged vectors")
    return forward_shift(v, _LINEAR)


def derivative_at_zero(v: SeqVector, k: int) -> LogComplex:
    """``f^(k)(0) = k! * a_k`` from monomial storage (slot k+1)."""
    if k + 1 > len(v):
        return LogComplex.zero()
    c = v.coord(k + 1)
    if c.is_zero:
        return c
    return LogComplex(c.log_mag + math.lgamma(k + 1.0), c.phase)


# ---------------------------------------------------------------------------
# the log-domain matrix-vector kernel
# ---------------------------------------------------------------------------


_EXP_FLOOR = -700.0


def log_matvec(T: np.ndarray, phase: np.ndarray, space: SpaceTag, *,
               entry_phase=None, col_phase=None, row_phase=None) -> SeqVector:
    """Log-domain ``out_j = sum_l exp(T[j, l]) * e^{i (phase_l + theta[j, l])}``.

    ``T[j, l] = A[j, l] + lm_l`` holds the log moduli of the terms of a
    matrix-vector product (``-inf`` for absent ones); the caller builds it
    and the kernel overwrites it as scratch.  The entry phase
    ``theta[j, l]`` is ``col_phase[l] + row_phase[j]``, plus
    ``entry_phase[0][j, l]`` when ``entry_phase = (theta, cos theta, sin theta)``
    is given; each part is optional.

    Row-max scaling: every row is shifted by its largest term before one
    in-place real ``exp`` of the whole matrix, so nothing overflows and the
    largest term becomes exactly 1.  Scaled terms below ``exp(_EXP_FLOOR)``
    (``-inf`` ones included) are raised to it first: ``exp`` is an order of
    magnitude slower on ``-inf`` and on underflowing arguments, and ``n_in``
    such terms stay below 1e-300 of the largest one, so they change no
    digit of a sum.  The complex sums then come from one BLAS product with
    the ``n_in x 3`` matrix ``[cos psi, sin psi, 1]``, where
    ``psi = phase + col_phase``: the phase is factored out per column, and
    the third column gives each row's sum of scaled moduli.  An entry phase
    costs two elementwise products with its cached cosine and sine matrices
    instead (two ``n_out x n_in`` temporaries).

    Semantics, row by row:

    * no live (non ``-inf``) term: canonical zero (``hi = -inf``, ``lo = 0``,
      ``phase = 0``);
    * a sum whose modulus is below ``CANCEL_SNAP`` times its largest term
      snaps to the same canonical zero;
    * when the scaled moduli of a row sum to exactly 1 -- the other terms
      together are below half an ulp of the largest, as when the row has
      exactly one live term -- the largest term is returned bit for bit: log
      magnitude ``T[j, l]`` and phase ``phase_l + theta[j, l]`` (normalized),
      with no rounding from the sum.

    Output ``lo`` parts are zero.  Callers keep their matrices across
    calls: :func:`translate_by` caches the log-binomial matrix and the
    offsets ``max(l - j, 0)`` per window, and the conjugated operator builds
    log moduli, phases, cosines and sines once per matrix; each costs
    ``n**2 * 8`` bytes (627 kB at n = 280).
    """
    rowmax = np.max(T, axis=1)
    dead = rowmax == LOG_ZERO
    T -= np.where(dead, 0.0, rowmax)[:, np.newaxis]
    np.maximum(T, _EXP_FLOOR, out=T)
    np.exp(T, out=T)
    psi = phase if col_phase is None else phase + col_phase
    X = np.ones((phase.size, 3))
    X[:, 0] = np.cos(psi)
    X[:, 1] = np.sin(psi)
    if entry_phase is None:
        re, im, tot = (T @ X).T
    else:
        _, cos_t, sin_t = entry_phase
        P = (T * cos_t) @ X[:, :2]
        Q = (T * sin_t) @ X[:, :2]
        re, im = P[:, 0] - Q[:, 1], P[:, 1] + Q[:, 0]
        tot = np.sum(T, axis=1)
    smag = np.hypot(re, im)
    zero = dead | (smag < CANCEL_SNAP)
    with np.errstate(divide="ignore"):
        hi = np.where(zero, LOG_ZERO, rowmax + np.log(smag))
    ang = np.arctan2(im, re)
    if row_phase is not None:
        ang = ang + row_phase
    ph = np.where(zero, 0.0, _norm_phases(ang))
    rows = np.flatnonzero(tot == 1.0)
    if rows.size:
        cols = np.argmax(T[rows], axis=1)
        theta = 0.0
        if col_phase is not None:
            theta = theta + col_phase[cols]
        if row_phase is not None:
            theta = theta + row_phase[rows]
        if entry_phase is not None:
            theta = theta + entry_phase[0][rows, cols]
        hi[rows] = rowmax[rows]
        ph[rows] = _norm_phases(phase[cols] + theta)
    return SeqVector(space, hi, np.zeros(hi.size), ph)


_TRANSLATE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _translate_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``log C(l, j)`` and the offsets ``max(l - j, 0)``, both at ``[j, l]``.

    The binomials are exact big integers, then logged; ``-inf`` below the
    diagonal.  Cached per window: ``n**2 * 8`` bytes per matrix.
    """
    mats = _TRANSLATE_CACHE.get(n)
    if mats is None:
        binom = np.full((n, n), LOG_ZERO)
        for l in range(n):
            c = 1
            binom[0, l] = 0.0
            for j in range(1, l + 1):
                c = c * (l - j + 1) // j
                binom[j, l] = math.log(c)
        idx = np.arange(n, dtype=float)
        offsets = np.maximum(idx[np.newaxis, :] - idx[:, np.newaxis], 0.0)
        binom.flags.writeable = False
        offsets.flags.writeable = False
        mats = _TRANSLATE_CACHE[n] = (binom, offsets)
    return mats


def translate_by(v: SeqVector, steps: int = 1) -> SeqVector:
    """Monomial coefficients of ``f(z + steps)``: ``b_j = sum_l C(l,j) steps**(l-j) a_l``.

    Exact for polynomial inputs up to rounding; degree capped at
    ``TRANSLATE_DEGREE_CAP``.  One :func:`log_matvec` call; the power
    ``|steps|**(l-j)`` enters the matrix as a whole, since splitting it into
    row and column factors cancels catastrophically.
    """
    if v.space.kind != "hc":
        raise WrongSpaceError("translate is defined on hc-tagged vectors")
    n = len(v)
    if n == 0 or steps == 0:
        return v
    if n > TRANSLATE_DEGREE_CAP:
        raise DegreeCapError(
            f"translate supports degree < {TRANSLATE_DEGREE_CAP}, got window {n}")
    binom, offsets = _translate_matrices(n)
    if abs(steps) == 1:
        T = binom + v.lm
    else:  # one scratch matrix: a second n x n temporary costs page faults
        T = offsets * math.log(abs(steps))
        T += binom
        T += v.lm
    col = row = None
    if steps < 0:  # (-1)**(l-j) as a column phase plus a row phase
        col = np.pi * (np.arange(n) % 2)
        row = -col
    return log_matvec(T, v.phase, v.space, col_phase=col, row_phase=row)


def translate(v: SeqVector) -> SeqVector:
    """Coefficients of ``f(z + 1)``."""
    return translate_by(v, 1)


def eval_functional(v: SeqVector) -> LogComplex:
    """First coordinate: ``e_1'`` on sequences, evaluation at 0 on coefficients."""
    if len(v) == 0:
        return LogComplex.zero()
    return v.coord(1)


def eval_at_integer(v: SeqVector, point: int) -> LogComplex:
    """``f(point)`` for an hc vector: the one-row power sum ``sum_l a_l point**l``.

    One :func:`log_matvec` row with terms ``l * log|point| + lm_l``; a
    negative point adds the column phase ``pi * (l mod 2)``.
    """
    if v.space.kind != "hc":
        raise WrongSpaceError("evaluation is defined on hc-tagged vectors")
    if point == 0 or len(v) == 0:
        return eval_functional(v)
    idx = np.arange(len(v))
    terms = idx * math.log(abs(point)) + v.lm
    col = np.pi * (idx % 2) if point < 0 else None
    return log_matvec(terms[np.newaxis, :], v.phase, v.space, col_phase=col).coord(1)


# ---------------------------------------------------------------------------
# JSON vector format
# ---------------------------------------------------------------------------

LOG_FORM_THRESHOLD = 700.0


def vector_to_json(v: SeqVector) -> dict:
    """Serialize in the interchange format (1-indexed coordinate order).

    Coordinates with ``|log magnitude| <= 700`` are written as ``[re, im]``;
    anything larger keeps the log-polar form ``{"log": L, "phase": p}``.
    Values come from the libm calls of :meth:`LogComplex.to_complex`, not
    numpy's vectorized ``exp``/``cos``/``sin``, so the bytes do not depend
    on numpy's SIMD kernels.
    """
    coords = []
    for l, p in zip(v.lm.tolist(), v.phase.tolist()):
        if l == LOG_ZERO:
            coords.append([0.0, 0.0])
        elif abs(l) <= LOG_FORM_THRESHOLD:
            z = cmath.rect(math.exp(l), p)
            coords.append([z.real, z.imag])
        else:
            coords.append({"log": l, "phase": p})
    obj: dict = {"space": v.space.kind, "coords": coords}
    if v.space.param is not None:
        obj["param"] = v.space.param
    return obj


def _coord_from_json(entry: dict) -> LogComplex:
    """A coordinate object: ``{"log", "phase"}`` or a fraction ``{"num", "den"}``."""
    if "log" in entry:
        return LogComplex.from_polar(float(entry["log"]),
                                     float(entry.get("phase", 0.0)))
    if "num" in entry:
        q = Fraction(int(entry["num"]), int(entry["den"]))
        if q == 0:
            return LogComplex.zero()
        sign_phase = 0.0 if q > 0 else math.pi
        return LogComplex(
            math.log(abs(q.numerator)) - math.log(q.denominator), sign_phase)
    raise ParameterRangeError(f"unrecognized coordinate object {entry!r}")


def vector_from_json(obj: dict) -> SeqVector:
    """Parse the interchange format; the inverse of :func:`vector_to_json`.

    ``[re, im]`` pairs are converted inline with the calls of
    :meth:`LogComplex.from_complex`, so the arrays are bit-identical to
    building one scalar per coordinate.  A NaN part raises
    :class:`ParameterRangeError`, as a NaN log-polar entry does.
    """
    kind = str(obj["space"]).lower()
    param = obj.get("param")
    tag = SpaceTag(kind, param)
    hi, ph = [], []
    for e in obj["coords"]:
        if isinstance(e, dict):
            c = _coord_from_json(e)
            hi.append(c.log_mag)
            ph.append(c.phase)
            continue
        z = complex(float(e[0]), float(e[1]))
        if z != z:
            raise ParameterRangeError(f"NaN coordinate {e!r}")
        if z == 0:
            hi.append(LOG_ZERO)
            ph.append(0.0)
        else:
            hi.append(math.log(abs(z)))
            ph.append(normalize_phase(math.atan2(z.imag, z.real)))
    return SeqVector(tag, np.array(hi, dtype=float), np.zeros(len(hi)),
                     np.array(ph, dtype=float))


def write_vector(path, v: SeqVector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(vector_to_json(v)))  # one-shot dumps uses the C encoder


def read_vector(path) -> SeqVector:
    with open(path, encoding="utf-8") as fh:
        return vector_from_json(json.load(fh))
