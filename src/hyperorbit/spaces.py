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

import json
import math
from dataclasses import dataclass

import numpy as np

from .arith import CANCEL_SNAP, LOG_ZERO, LogComplex, complex_parts, normalize_phase, polar_parts
from .errors import DegreeCapError, ParameterRangeError, WrongSpaceError
from .rational import q_coord_from_json
from .report import decode_column, encode_column

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
    """Phases reduced to (-pi, pi].  With every phase already there, ``p``
    itself is returned: callers pass arrays they own and hand on unchanged."""
    inside = (p > -np.pi) & (p <= np.pi)
    if inside.all():
        return p
    q = np.mod(p + np.pi, 2.0 * np.pi) - np.pi
    q = np.where(q <= -np.pi, np.pi, q)
    return np.where(inside, p, q)  # already-normalized phases pass through bitwise


def _scale_arrays(hi, lo, phase, log_mag, ph):
    """Array body of :meth:`SeqVector.scale` by a nonzero scalar.

    Broadcasts, so one call scales a block of rows by a column of scalars.
    """
    hi, lo = _dd_add(hi, lo, log_mag)
    return hi, lo, _norm_phases(phase + ph)


def _add_arrays(ahi, alo, aph, bhi, blo, bph):
    """Array body of :meth:`SeqVector.add` on operands of equal shape.

    Elementwise, so it adds blocks of rows as well as single vectors.
    """
    la, lb = ahi + alo, bhi + blo
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
    ph = _norm_phases(base_ph + np.angle(s))
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


def _lse_rows(a: np.ndarray, lens) -> list[float]:
    """:func:`_lse` of each row of a 2-D array, row r cut to its first
    ``lens[r]`` entries (whole rows for ``lens = None``), as floats: on a
    block's ``lm`` these are the l1 norms of its rows.

    Row maxima and one ``exp`` serve the whole block, then each row is summed
    at its own length and logged by ``math.log``, so a row has the bits of
    ``_lse`` on the row alone (a padded sum would group its terms
    differently).
    """
    if lens is not None:
        a = np.where(np.arange(a.shape[1]) < np.asarray(lens)[:, np.newaxis], a, LOG_ZERO)
    m = np.max(a, axis=1, initial=LOG_ZERO)
    e = np.exp(a - np.where(m == LOG_ZERO, 0.0, m)[:, np.newaxis])
    sums = (np.sum(e, axis=1).tolist() if lens is None
            else [float(np.sum(row[:n])) for row, n in zip(e, lens)])
    return [LOG_ZERO if mr == LOG_ZERO else mr + math.log(s)
            for mr, s in zip(m.tolist(), sums)]


# ---------------------------------------------------------------------------
# weight sequences
# ---------------------------------------------------------------------------


class WeightSeq:
    """A positive weight sequence with an exact generator descriptor.

    Generators: ``ones`` (w_i = 1), ``inv_squares`` (w_i = 1/i**2),
    ``linear`` (w_i = i).  Log weights and their cumulative sums are cached and
    grow on demand; reads of cached entries are safe concurrently.
    """

    def __init__(self, kind: str):
        if kind not in ("ones", "inv_squares", "linear"):
            raise ParameterRangeError(f"unknown weight generator {kind!r}")
        self.kind = kind
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


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


class SeqVector:
    """Truncated vector with log-polar coordinates (1-indexed externally).

    A block of vectors of one space shares the class: ``hi``/``lo``/``phase``
    are ``(K, W)`` arrays, one vector per row, shorter rows padded with
    canonical zeros, and ``len()`` is the width W.  Blocks promise the
    elementwise members (:attr:`lm`, :meth:`scale`, :meth:`neg`,
    :meth:`add`, :meth:`sub`, :meth:`truncate`, :meth:`_padded`), the row
    access of :meth:`row` and :meth:`stack`, and :func:`backward_shift`;
    each row of their results has the bits of the one-vector call on that
    row.  ``_lse_rows(block.lm, None)`` gives the l1 norms of the rows.
    """

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
    def zeros(space: SpaceTag, n) -> "SeqVector":
        """Canonical zeros: ``n`` coordinates, or a block of shape ``n``."""
        return SeqVector(space, np.full(n, LOG_ZERO), np.zeros(n), np.zeros(n))

    @staticmethod
    def basis(space: SpaceTag, n: int, i: int) -> "SeqVector":
        """The i-th canonical basis vector (1-indexed) in a length-n window."""
        hi = np.full(n, LOG_ZERO)
        hi[i - 1] = 0.0
        return SeqVector(space, hi, np.zeros(n), np.zeros(n))

    @staticmethod
    def from_parts(space: SpaceTag, parts) -> "SeqVector":
        """From canonical ``(log_mag, phase)`` pairs, one per coordinate."""
        parts = list(parts)
        hi = np.array([l for l, _ in parts], dtype=float)
        ph = np.array([p for _, p in parts], dtype=float)
        return SeqVector(space, hi, np.zeros(len(parts)), ph)

    @staticmethod
    def from_complex(space: SpaceTag, values) -> "SeqVector":
        """From complex values; a 2-D array gives a block, one vector per row.

        The rule is :func:`~hyperorbit.arith.complex_parts`, applied to the
        whole array in one pass through the same libm calls (Python ``abs``,
        ``math.log`` and ``math.atan2`` by ``map``), so every coordinate has
        its bits; numpy's own ``log``, ``arctan2`` and ``abs`` round
        differently on some inputs.  A NaN part raises
        :class:`ParameterRangeError`.
        """
        z = np.asarray(values, dtype=complex)
        nan = np.isnan(z)
        if nan.any():
            raise ParameterRangeError(f"complex value {complex(z[nan][0])!r} must not be NaN")
        flat = z.ravel()
        mag = np.array(list(map(abs, flat.tolist())))
        zero = mag == 0.0
        hi = np.array(list(map(math.log, np.where(zero, 1.0, mag).tolist())))
        hi[zero] = LOG_ZERO
        ph = np.array(list(map(math.atan2, flat.imag.tolist(), flat.real.tolist())))
        ph[ph == -math.pi] = math.pi  # normalize_phase on atan2's range [-pi, pi]
        return SeqVector(space, hi.reshape(z.shape), np.zeros(z.shape), ph.reshape(z.shape))

    @staticmethod
    def stack(parts) -> "SeqVector":
        """Vectors and blocks of one space as one block: their rows in order,
        padded with canonical zeros to the widest part."""
        n = max(len(p) for p in parts)
        parts = [p._padded(n) for p in parts]
        return SeqVector(parts[0].space, *(
            np.concatenate([getattr(p, a).reshape(-1, n) for p in parts])
            for a in ("hi", "lo", "phase")))

    @staticmethod
    def from_logc(space: SpaceTag, coords) -> "SeqVector":
        return SeqVector.from_parts(space, ((c.log_mag, c.phase) for c in coords))

    # -- basic access ------------------------------------------------------

    def __len__(self) -> int:
        return self.hi.shape[-1]

    @property
    def is_exhausted(self) -> bool:
        """True when a shift chain has consumed the whole truncation window."""
        return self.hi.size == 0

    @property
    def lm(self) -> np.ndarray:
        """Collapsed log magnitudes (hi + lo) as plain doubles."""
        return self.hi + self.lo

    def coord(self, i: int) -> LogComplex:
        """Coordinate ``i`` (1-indexed) as a scalar."""
        if not 1 <= i <= len(self):
            raise IndexError(f"coordinate {i} outside window of length {len(self)}")
        return LogComplex(float(self.hi[i - 1] + self.lo[i - 1]),
                          float(self.phase[i - 1]))

    def row(self, k) -> "SeqVector":
        """Row ``k`` of a block as a vector; a slice gives a block of rows."""
        return SeqVector(self.space, self.hi[k], self.lo[k], self.phase[k])

    def truncate(self, n: int) -> "SeqVector":
        """The first ``n`` coordinates (of every row of a block)."""
        return SeqVector(self.space, self.hi[..., :n], self.lo[..., :n], self.phase[..., :n])

    # -- algebra -----------------------------------------------------------

    def scale(self, s: LogComplex) -> "SeqVector":
        if s.is_zero:
            return SeqVector.zeros(self.space, self.hi.shape)
        return SeqVector(self.space, *_scale_arrays(
            self.hi, self.lo, self.phase, s.log_mag, s.phase))

    def neg(self) -> "SeqVector":
        # direct +-pi flip stays normalized and avoids a wrap round trip
        ph = np.where(self.phase > 0, self.phase - np.pi, self.phase + np.pi)
        return SeqVector(self.space, self.hi, self.lo, ph)

    def _padded(self, n: int) -> "SeqVector":
        """Canonical zeros appended up to width ``n``, to every row of a block."""
        if len(self) >= n:
            return self
        pad = self.hi.shape[:-1] + (n - len(self),)
        return SeqVector(
            self.space,
            np.concatenate([self.hi, np.full(pad, LOG_ZERO)], axis=-1),
            np.concatenate([self.lo, np.zeros(pad)], axis=-1),
            np.concatenate([self.phase, np.zeros(pad)], axis=-1),
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
    engines treat as window exhaustion.  A ``(K, W)`` block shifts every row
    at once (``[..., 1:]``); a vector is the one-row case.  Canonical-zero
    padding stays canonical zero, so a padded row's live coordinates have
    the bits of the row shifted at its true length.
    """
    n = len(v)
    if n == 0:
        return v
    hi, lo = _dd_add(v.hi[..., 1:], v.lo[..., 1:], w.logs(n - 1))
    return SeqVector(v.space, hi, lo, v.phase[..., 1:])


def forward_shift(v: SeqVector, w: WeightSeq) -> SeqVector:
    """Formal right inverse of the weighted backward shift.

    ``[S_w v]_1 = 0`` exactly and ``[S_w v]_{i+1} = v_i / w_i``; composing
    ``backward_shift(forward_shift(v))`` returns ``v`` bit for bit.
    """
    n = len(v)
    logs = w.logs(n)
    hi, lo = _dd_add(v.hi, v.lo, -logs)
    return SeqVector(
        v.space,
        np.concatenate(([LOG_ZERO], hi)),
        np.concatenate(([0.0], lo)),
        np.concatenate(([0.0], v.phase)),
    )


def shift_pow(v: SeqVector, w: WeightSeq, k) -> SeqVector:
    """``B_w**k`` in one pass via cumulative log-weight sums.

    Coordinate i of the result is ``(w_i ... w_{i+k-1}) * v_{i+k}``.  Uses the
    same cumulative sums as :func:`forward_pow`, so the k-fold round trip is
    exact as well.

    ``k`` may also be a 1-D array of powers.  The result is then a block:
    row r is ``B_w**k[r] v``, padded with canonical zeros to the widest row,
    ``len(v) - min(k)`` coordinates; one gather of the prefix sums serves all
    rows.  An int power is the one-row case at its true length, and power 0
    gives ``v`` bit for bit.
    """
    n = len(v)
    ks = np.atleast_1d(k)
    width = max(n - int(ks.min(initial=n)), 0)
    src = ks[:, np.newaxis] + np.arange(width)
    live = src < n
    src = np.where(live, src, 0)  # padding reads coordinate 1, then masks it
    cum = w.cum(max(n - 1, 0))
    delta = cum[src] - cum[:width]
    hi = np.where(live, v.hi[src], LOG_ZERO)
    lo, ph = v.lo[src], v.phase[src]
    hi, lo = _dd_add(hi, lo, delta)
    if 0 in ks:
        same = ks == 0  # then the block is exactly len(v) wide
        hi[same], lo[same], ph[same] = v.hi, v.lo, v.phase
    if np.ndim(k) == 0:
        hi, lo, ph = hi[0], lo[0], ph[0]
    return SeqVector(v.space, hi, lo, ph)


def forward_pow(v: SeqVector, w: WeightSeq, k: int) -> SeqVector:
    """``S_w**k`` in one pass; output has k leading exact zeros."""
    if k == 0:
        return v
    n = len(v)
    cum = w.cum(n + k)
    delta = cum[k: n + k] - cum[0: n]
    hi, lo = _dd_add(v.hi, v.lo, -delta)
    return SeqVector(
        v.space,
        np.concatenate([np.full(k, LOG_ZERO), hi]),
        np.concatenate([np.zeros(k), lo]),
        np.concatenate([np.zeros(k), v.phase]),
    )


_LINEAR = WeightSeq.linear()


def derivative(v: SeqVector) -> SeqVector:
    """Monomial-coefficient derivative; a backward shift with weights w_j = j."""
    if v.space.kind != "hc":
        raise WrongSpaceError("derivative is defined on hc-tagged vectors")
    return backward_shift(v, _LINEAR)


def derivative_pow(v: SeqVector, k) -> SeqVector:
    """The k-th derivative; an array of powers gives a block, as in :func:`shift_pow`."""
    if v.space.kind != "hc":
        raise WrongSpaceError("derivative is defined on hc-tagged vectors")
    return shift_pow(v, _LINEAR, k)


def derivative_at_zero(v: SeqVector, k: int) -> LogComplex:
    """``f^(k)(0) = k! * a_k`` from monomial storage (slot k+1)."""
    if k + 1 > len(v):
        return LogComplex.zero()
    c = v.coord(k + 1)
    return LogComplex(c.log_mag + math.lgamma(k + 1.0), c.phase)


# ---------------------------------------------------------------------------
# the log-domain matrix-vector kernel
# ---------------------------------------------------------------------------


_EXP_FLOOR = -700.0


def _coords_from_row_sums(rowmax, re, im, row_phase=None):
    """``hi`` and phase of rows whose terms, scaled by ``exp(-rowmax)``, sum
    to ``re + i im``: the row-sum step of both log-domain kernels.

    A dead row (``rowmax = -inf``) or a sum whose modulus is below
    ``CANCEL_SNAP`` times its largest term is canonical zero; the phase is
    ``atan2(im, re)`` plus ``row_phase``, normalized.  Single-term rows are
    each kernel's own.
    """
    smag = np.hypot(re, im)
    zero = (rowmax == LOG_ZERO) | (smag < CANCEL_SNAP)
    with np.errstate(divide="ignore"):
        hi = np.where(zero, LOG_ZERO, rowmax + np.log(smag))
    ang = np.arctan2(im, re)
    if row_phase is not None:
        ang = ang + row_phase
    return hi, _norm_phases(ang)


def log_matvec(T: np.ndarray, phase: np.ndarray, space: SpaceTag, *,
               col_phase=None, row_phase=None) -> SeqVector:
    """Log-domain ``out_j = sum_l exp(T[j, l]) * e^{i (phase_l + theta[j, l])}``.

    ``T[j, l] = A[j, l] + lm_l`` holds the log moduli of the terms of a
    matrix-vector product (``-inf`` for absent ones); the caller builds it
    and the kernel overwrites it as scratch.  The entry phase
    ``theta[j, l]`` is ``col_phase[l] + row_phase[j]``; each part is
    optional.

    Row-max scaling: every row is shifted by its largest term before one
    in-place real ``exp`` of the whole matrix, so nothing overflows and the
    largest term becomes exactly 1.  Scaled terms below ``exp(_EXP_FLOOR)``
    (``-inf`` ones included) are raised to it first: ``exp`` is an order of
    magnitude slower on ``-inf`` and on underflowing arguments, and ``n_in``
    such terms stay below 1e-300 of the largest one, so they change no
    digit of a sum.  The complex sums then come from one BLAS product with
    the ``n_in x 3`` matrix ``[cos psi, sin psi, 1]``, where
    ``psi = phase + col_phase``: the phase is factored out per column, and
    the third column gives each row's sum of scaled moduli.

    Semantics, row by row (the first two are :func:`_coords_from_row_sums`):

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
    offsets ``max(l - j, 0)`` per window; each costs ``n**2 * 8`` bytes
    (627 kB at n = 280).
    """
    rowmax = np.max(T, axis=1)
    T -= np.where(rowmax == LOG_ZERO, 0.0, rowmax)[:, np.newaxis]
    np.maximum(T, _EXP_FLOOR, out=T)
    np.exp(T, out=T)
    psi = phase if col_phase is None else phase + col_phase
    X = np.ones((phase.size, 3))
    X[:, 0] = np.cos(psi)
    X[:, 1] = np.sin(psi)
    re, im, tot = (T @ X).T
    hi, ph = _coords_from_row_sums(rowmax, re, im, row_phase)
    rows = np.flatnonzero(tot == 1.0)
    if rows.size:
        cols = np.argmax(T[rows], axis=1)
        theta = 0.0
        if col_phase is not None:
            theta = theta + col_phase[cols]
        if row_phase is not None:
            theta = theta + row_phase[rows]
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

def vector_to_json(v: SeqVector) -> dict:
    """Serialize as columns ``{"space", ["param",] "log", "lo", "phase"}``:
    ``hi``, ``lo`` and ``phase``, each one :func:`~hyperorbit.report.encode_column`
    string, which reads back bit for bit (an exact zero's log is -inf)."""
    obj: dict = {"space": v.space.kind}
    if v.space.param is not None:
        obj["param"] = v.space.param
    return dict(obj, log=encode_column(v.hi), lo=encode_column(v.lo),
                phase=encode_column(v.phase))


def _coord_parts(e) -> tuple[float, float]:
    """Canonical ``(log_mag, phase)`` of one entry of a ``coords`` list."""
    if not isinstance(e, dict):
        return complex_parts(complex(float(e[0]), float(e[1])))
    if "log" in e:
        return polar_parts(float(e["log"]), float(e.get("phase", 0.0)))
    return q_coord_from_json(e).polar_parts()


def _column(obj: dict, key: str) -> np.ndarray:
    """Column ``key`` as floats: an :func:`~hyperorbit.report.encode_column`
    string, or a list of numbers as earlier versions wrote (``"-inf"`` in
    ``log``).  Every value is finite, but a log may be -inf."""
    col = obj[key]
    if type(col) is str:
        a = decode_column(col, key)
    elif type(col) is list:
        if not set(map(type, col)) <= {float, int}:
            bad = [e for e in col if type(e) not in (float, int) and e != "-inf"]
            if bad:
                raise ParameterRangeError(f"column {key!r} holds {bad[0]!r}, not a number")
        a = np.array(col, dtype=float)
    else:
        raise ParameterRangeError(f"column {key!r} is not a list or a string")
    if (np.isnan(a) | (a == np.inf) if key == "log" else ~np.isfinite(a)).any():
        raise ParameterRangeError(f"column {key!r} holds a NaN or an infinity")
    return a


def vector_from_json(obj: dict) -> SeqVector:
    """Parse the interchange format; the inverse of :func:`vector_to_json`.

    Columns (:func:`_column`) read back bit for bit, their phases reduced as
    ``polar_parts`` does.  A ``coords`` list of ``[re, im]`` pairs, ``{"log",
    "phase"}`` objects and fractions ``{"num", "den"[, "imnum", "imden"]}``
    reads through the scalar rules (``complex_parts``, ``polar_parts``,
    ``q_coord_from_json``).  A NaN, a zero denominator and columns of unequal
    length raise :class:`ParameterRangeError`.
    """
    tag = SpaceTag(str(obj["space"]).lower(), obj.get("param"))
    if "coords" in obj:
        return SeqVector.from_parts(tag, map(_coord_parts, obj["coords"]))
    hi, lo, ph = (_column(obj, key) for key in ("log", "lo", "phase"))
    if not hi.size == lo.size == ph.size:
        raise ParameterRangeError(f"column lengths {hi.size}, {lo.size}, {ph.size} differ")
    outside = ~((ph > -np.pi) & (ph <= np.pi))
    ph[outside] = [normalize_phase(p) for p in ph[outside].tolist()]
    return SeqVector(tag, hi, lo, ph)


def write_vector(path, v) -> None:
    """Write ``v``, a vector or its :func:`vector_to_json` object, as one JSON
    document; a builder hands over the object it certified, encoded once."""
    obj = vector_to_json(v) if isinstance(v, SeqVector) else v
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))  # one-shot dumps uses the C encoder


def read_vector(path) -> SeqVector:
    with open(path, encoding="utf-8") as fh:
        return vector_from_json(json.load(fh))
