"""Builders for the explicit vectors and entire functions the theory constructs.

Each builder returns its object together with *certificates*
(:class:`~hyperorbit.report.Check` records): the explicit inequalities the
construction promises, re-evaluated in the log domain on the built prefix.
This module alone decides what a ``build`` target certifies.  A failed
certificate is a failing row, never an exception; a builder raises only on
input it cannot build from (:class:`ParameterRangeError`,
:class:`ZeroCoordinateError`, ...).  The certificate list is the
machine-checkable record that the finite truncation actually realizes the
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (LOG_ZERO, FibCache, LogComplex, a_closed, a_convolution_step,
                    even_sum_failure, normalize_phase, phase_times_int, pi_fixed)
from .dynamics import (
    CONVERGENCE_RUN,
    LN2,
    OrbitClass,
    apply,
    checked_tol,
    ledger,
    m_fg_prime,
    m_l1,
    m_symmetric,
)
from .errors import (BadBracketError, ParameterRangeError, SearchOverflowError,
                     ZeroCoordinateError)
from .rational import QComplex, QVector, q_forward_shift, q_scale
from .report import Check, CheckFamily, check_flag, check_leq
from .spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    _dd_add,
    _norm_phases,
    _two_sum,
    forward_pow,
    norm,
    shift_pow,
    vector_from_json,
    vector_to_json,
)


# ---------------------------------------------------------------------------
# deterministic dense test sequences
# ---------------------------------------------------------------------------


# A deterministic stand-in for a dense test sequence.  The k-th sequence
# vector has support exactly [1, k] with moduli in [1/k, 1]; the k-th
# polynomial has degree k with monomial coefficients in the same band.
# Density of the abstract sequence plays no role in any finite-block
# certificate, so a reproducible generator is preferred over a sampled one.


def dense_value(k: int, i: int) -> float:
    """Coefficient i (0-based) of the k-th test object; ±(1/k .. 1)."""
    mag = (1.0 / k) * (1.0 + ((i % k) * (k - 1.0)) / k)
    sign = -1.0 if (i * (k - 1)) % 2 else 1.0
    return sign * mag


def dense_vector(k: int) -> SeqVector:
    """The k-th test vector on l1, support [1, k]."""
    return SeqVector.from_complex(SpaceTag.l1(), [dense_value(k, i) for i in range(k)])


# ---------------------------------------------------------------------------
# companion vector and the summability map
# ---------------------------------------------------------------------------


def companion_x(y: SeqVector) -> SeqVector:
    """The vector cancelling the orbit weights of ``y``:

    ``x_{i+1} = 2**a_i / w_i * prod_{j<=i} 1/(y_j w_j)``, with ``x_1 = 0``
    (the formula leaves the first coordinate free) and ``w_i = 1/i**2``.
    Together with ``y`` it makes ``c_{2n} d_{2n} = 2**n n!**2`` exactly.
    """
    n = len(y)
    if n == 0:
        raise ParameterRangeError("companion vector needs at least one coordinate")
    lm = y.lm
    if np.any(np.isneginf(lm[: n - 1])):
        raise ZeroCoordinateError("companion vector needs nonzero y_1..y_{N-1}")
    w = WeightSeq.inv_squares()
    logs_w = w.logs(n)
    cum_w = w.cum(n)
    pref_y = np.cumsum(lm)
    pref_ph = np.cumsum(y.phase)
    a_ln2 = a_closed(np.arange(1, n, dtype=np.int64)) * LN2
    hi = np.empty(n)
    ph = np.zeros(n)
    hi[0] = LOG_ZERO
    # index i+1 (1-based) <-> slot i of these arrays (0-based i = 1..n-1)
    hi[1:] = a_ln2 - logs_w[: n - 1] - pref_y[: n - 1] - cum_w[1: n]
    ph[1:] = -pref_ph[: n - 1]
    return SeqVector(y.space, hi, np.zeros(n), _norm_phases(ph))


def weight_identity_certificates(n_max: int) -> list[Check]:
    """Certify ``c_{2n} d_{2n} = 2**n n!**2`` for the companion pair, n <= n_max.

    The two-term recursion amplifies float noise with Fibonacci weight, so at
    large n the product must be evaluated the way the identity is proved: by
    exact big-integer bookkeeping of each atom's exponent.  Per n the checks
    are

    * the exponent of every ``log y_j`` telescopes to exactly 0 (so the value
      is independent of y, as the construction promises);
    * the exponent of every ``log w_l`` telescopes to exactly -1;
    * the exponent of ``log 2``, ``sum_{i<=n} a_i F(2(n-i)+1)`` with a_i from
      its closed form :func:`a_closed`, equals exactly n (the defining
      property of the a-sequence);
    * the surviving value ``n log 2 - sum_l log w_l``, with the weights
      ``w_l = 1/l**2``, matches ``n log 2 + 2 log n!`` within 1e-8 relative.

    The float-recursion ledger is a separate route and is only meaningful for
    small n; see :func:`weight_identity_recursion_error`.
    """
    if n_max < 1:
        raise ParameterRangeError("weight identities need n_max >= 1")
    logs_w = WeightSeq.inv_squares().logs(n_max)
    cache = FibCache(2 * n_max + 3)
    # exponent of log y_j: F(2(n-j+1)) - sum_{i=j..n} F(2(n-i)+1), zero for
    # every j <= n exactly when the even-index sum identity holds up to n
    y_fail = even_sum_failure(cache, n_max)
    # exponent of log w_l: F(2n+3-2l) - 1 - F(2(n-l+1)) - F(2(n-l)+1), which
    # depends on k = n - l alone, so row n holds exactly when every k < n does
    F = cache.prefix(2 * n_max + 1)
    w_fail = next((k for k in range(n_max)
                   if F[2 * k + 3] - 1 - F[2 * k + 2] - F[2 * k + 1] != -1), None)
    verifies = "companion-weight-identity"
    certs: list[Check] = []
    P = Q = 0
    for n in range(1, n_max + 1):
        y_ok = y_fail is None or n < y_fail
        certs.append(check_flag("y-exponent-telescopes", y_ok, verifies, n))
        w_ok = w_fail is None or n <= w_fail
        certs.append(check_flag("w-exponent-is-minus-one", w_ok, verifies, n))
        # exponent of log 2: sum_{i<=n} a_i F(2(n-i)+1) = a_n + Q_n
        an = a_closed(n)
        certs.append(check_flag("two-exponent-is-n", an + Q == n, verifies, n))
        P, Q = a_convolution_step(an, P, Q)
        # surviving value vs the closed form
        value = n * LN2 - float(np.sum(logs_w[:n]))
        target = _block_scale(n)
        rel = abs(value - target) / max(1.0, abs(target))
        certs.append(check_leq("weight-identity-value", rel, 1e-8, verifies, n))
    return certs


def weight_identity_recursion_error(x: SeqVector, y: SeqVector,
                                    n_max: int) -> list[Check]:
    """``recursion-identity[n]``, n <= n_max: the float-recursion ledger of the
    pair (x, y) against ``2**n n!**2``.

    Row n measures ``max(|d log|, |phase|)`` of ``c_{2n} d_{2n}`` and passes
    below ``1e-8 max(1, n log 2 + 2 log n!)``.  Useful only for small n: the
    recursion's rounding noise grows with Fibonacci weight and swamps the
    identity beyond n of a few dozen.
    """
    spec = m_l1()
    led = ledger(spec, (x, y), 2 * n_max)
    certs = []
    for n in range(1, n_max + 1):
        cd = led.cd(2 * n)
        target = n * LN2 - float(np.sum(spec.weights.logs(n)))
        certs.append(check_leq("recursion-identity",
                               max(abs(cd.log_mag - target), abs(cd.phase)),
                               1e-8 * max(1.0, _block_scale(n)),
                               "companion-weight-identity", n))
    return certs


def companion_pair(y: SeqVector):
    """Build the companion vector of ``y`` and certify the pair.

    Returns ``(x, certificates)``: :func:`weight_identity_certificates` for
    n <= min(200, len(y) - 1), then :func:`weight_identity_recursion_error`
    for n <= min(15, (len(y) - 1) // 2) on
    ``vector_from_json(vector_to_json(x))``, which is what the written vector
    file holds.
    """
    x = companion_x(y)
    certs = weight_identity_certificates(min(200, len(y) - 1))
    n_rec = min(15, (len(y) - 1) // 2)
    if n_rec >= 1:
        certs += weight_identity_recursion_error(
            vector_from_json(vector_to_json(x)), y, n_rec)
    return x, certs


def phi_map(y: SeqVector) -> SeqVector:
    """The summability witness ``[Phi(y)]_i = 2**a_i i**2 i!**2 prod_{l<=i} 1/|y_l|``.

    Finite l1 norm of this vector certifies that the companion construction
    lands in l1 (the companion differs from it by bounded factors).
    """
    n = len(y)
    lm = y.lm
    if np.any(np.isneginf(lm)):
        raise ZeroCoordinateError("phi map needs nonzero coordinates")
    i = np.arange(1, n + 1, dtype=np.int64)
    hi = (a_closed(i) * LN2 + 2.0 * np.log(i) + 2.0 * _lgamma(i + 1.0)
          - np.cumsum(lm))
    return SeqVector(SpaceTag.l1(), hi, np.zeros(n), np.zeros(n))


# ---------------------------------------------------------------------------
# gap schedule and the universal vector on l1
# ---------------------------------------------------------------------------


@dataclass
class GapSchedule:
    """Block boundaries n_j, the condition margins per block, and the vector.

    ``ns[j]`` is n_j (``ns[1] = 0``); each record carries the evaluated
    log-domain margins at n_j (all <= 0), the violated margin at n_j - 1
    (minimality), and the monotonicity probes.  ``z`` is the universal vector
    the blocks build, through coordinate ``n_J + J``.
    """

    ns: list
    records: list
    z: SeqVector

    def block_count(self) -> int:
        return len(self.ns) - 1


SCAN_CAP = 10**6  # largest n a gap scan tries before giving up
_SCAN_CHUNK = 4096  # n values one array pass of the gap scan evaluates


def _ln(x):
    """``math.log``, elementwise on an array: no bits from numpy's SIMD kernels."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.log, x.tolist()), float, x.size)
    return math.log(x)


def _lgamma(x):
    """``math.lgamma``, elementwise on an array."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)
    return math.lgamma(x)


def _block_scale(n: int) -> float:
    """``log(2**n n!**2)``, the scale block j is placed with when ``n = n_j``."""
    return n * LN2 + 2.0 * math.lgamma(n + 1.0)


# The margins take an int n or an int64 array of n; an array gives, element
# for element, the same bits as the int, the operations running in the same
# order.


def _base_margin(n):
    """Log form of the first-gap condition (must be <= 0)."""
    return ((n * n / 4.0) * LN2 + 4.0 * _ln(n) + 4.0 * _lgamma(n + 1.0)
            + (2.0 * n + 2.0) * LN2 + a_closed(n) * LN2)


def _cond3_margin(n, j: int, n_prev: int):
    """Log form of the gap-growth condition (strictly < 0)."""
    return _block_scale(n_prev) + 2.0 * j * _ln(n + j) + 4.0 * math.log(j) - n * LN2


def _cond4_margin(n, j: int, n_prev: int, pi_log: float):
    """Log form of the summability condition (must be <= 0)."""
    return (4.0 * _ln(n + j) + (n * n / 4.0) * LN2
            + 4.0 * _lgamma(n + 1.0) + a_closed(n) * LN2 + pi_log
            + n_prev * n * LN2 + j * n * LN2 + j * math.log(j))


def _first_passing(margins, start: int, j: int) -> int:
    """The least ``n >= start`` whose main margin is <= 0 and gap margin < 0.

    ``margins`` maps an int64 array of n to the two margin arrays; the scan
    evaluates it on chunks of n up to :data:`SCAN_CAP`.
    """
    for lo in range(start, SCAN_CAP + 1, _SCAN_CHUNK):
        n = np.arange(lo, min(lo + _SCAN_CHUNK, SCAN_CAP + 1), dtype=np.int64)
        main, gap = margins(n)
        hit = np.flatnonzero((main <= 0.0) & (gap < 0.0))
        if hit.size:
            return lo + int(hit[0])
    raise SearchOverflowError(f"n_{j} exceeded the scan cap {SCAN_CAP}")


def _place_block(z: SeqVector, j: int, n_prev: int, n_j: int) -> SeqVector:
    """The universal vector ``z`` extended by block j.

    Coordinates ``n_prev + j .. n_j`` get the fillers ``2**-n_prev / l**2``
    and ``n_j + 1 .. n_j + j`` get ``S_w^{n_j}(z_j / (2**n_j n_j!**2))``;
    block 1 (``n_1 = 0``) is ``z_1`` at coordinate 1.
    """
    z = z._padded(n_j + j)
    hi, lo, ph = z.hi.copy(), z.lo.copy(), z.phase.copy()
    hi[n_prev + j - 1: n_j] = -n_prev * LN2 - 2.0 * _ln(np.arange(n_prev + j, n_j + 1))
    placed = forward_pow(dense_vector(j).scale(LogComplex(-_block_scale(n_j), 0.0)),
                         WeightSeq.inv_squares(), n_j)
    sl = slice(n_j, n_j + j)
    hi[sl], lo[sl], ph[sl] = placed.hi[sl], placed.lo[sl], placed.phase[sl]
    return SeqVector(z.space, hi, lo, ph)


def gap_schedule_search(blocks: int) -> GapSchedule:
    """Find minimal block boundaries n_2 < n_3 < ... and build the universal vector.

    n_2 is the least n passing the first-gap condition; later n_j are the
    least n past the previous gap passing both the gap-growth and the
    summability condition, whose pi product is read from the vector built
    through block j - 1.  Each condition is evaluated in the log domain; the
    dominant term decays like -n^2/4, and a margin-monotonicity probe at
    n_j + 1 .. n_j + 10 plus a negative finite difference at n_j records that
    the condition keeps holding beyond the verified point.
    """
    if blocks < 2:
        raise ParameterRangeError("schedule needs at least 2 blocks")
    ns = [None, 0]
    records = []
    z = _place_block(SeqVector.zeros(SpaceTag.l1(), 0), 1, 0, 0)

    for j in range(2, blocks + 1):
        n_prev = ns[j - 1]
        pi_log = -sum(z.lm[: n_prev + j - 1].tolist())

        def margins(n):
            if j == 2:
                return _base_margin(n), _cond3_margin(n, j, n_prev)
            return (_cond4_margin(n, j, n_prev, pi_log),
                    _cond3_margin(n, j, n_prev))

        n = _first_passing(margins, n_prev + j + 1, j)
        ns.append(n)
        m_main, m_gap = margins(n)

        prev_main, prev_gap = margins(n - 1)
        tail = [max(margins(n + t)) for t in range(0, 11)]
        diff = margins(n + 1)[0] - margins(n)[0]
        records.append({
            "j": j, "n_j": n,
            "margin_main": m_main, "margin_gap": m_gap,
            "violated_at_prev": max(prev_main, prev_gap) if n > n_prev + j + 1 else None,
            "tail_monotone": all(tail[t + 1] <= tail[t] + 1e-9 for t in range(10)),
            "derivative_negative": diff < 0.0,
        })
        z = _place_block(z, j, n_prev, n)
    return GapSchedule(ns, records, z)


def _zeta2_tail(j: int) -> float:
    """``sum_{l >= j} 1/l**2``: ``pi**2/6`` minus the exact head
    ``sum_{l<j} 1/l**2``, rounded once.  pi carries ``128 + bits(j)`` bits, so
    the cancellation against a tail near ``1/j`` leaves over 100 of them."""
    bits = 128 + j.bit_length()
    pi = pi_fixed(bits)
    head = sum(Fraction(1, l * l) for l in range(1, j))
    return float(Fraction(pi * pi, 6 << 2 * bits) - head)


def universal_y_l1(schedule: GapSchedule) -> list:
    """Certify the block-built universal vector ``schedule.z`` as its file holds it.

    The vector is ``z = z_1 + sum_j (fillers + S_w^{n_j}(z_j / (2**n_j n_j!**2)))``
    with disjoint block supports, as :func:`gap_schedule_search` builds it.
    Three families of certificates are checked on the built prefix:

    * block norms: each placed block has l1 norm at most 1/j**2;
    * summability: ``Phi(z)_i <= 1/i**2`` for ``n_2 < i`` up to the built length,
      one :class:`CheckFamily` entry;
    * universality residuals: ``||2**n_j n_j!**2 B_w^{n_j}(z) - z_j||_1``
      is at most ``2 sum_{l >= j} 1/l**2`` for every built block.

    Then the total l1 norm, and per searched block j the schedule's records:
    ``gap-minimality[j]`` (the margin at n_j - 1 was violated) and
    ``gap-monotone[j]`` (the margins keep decreasing past n_j).
    """
    w = WeightSeq.inv_squares()
    ns, z = schedule.ns, vector_from_json(vector_to_json(schedule.z))
    J = schedule.block_count()
    total = len(z)
    verifies = "universal-vector"
    certs = []

    # (a) block norms <= 1/j^2
    for j in range(1, J + 1):
        sl = slice(ns[j], ns[j] + j)
        seg = SeqVector(z.space, z.hi[sl], z.lo[sl], z.phase[sl])
        certs.append(check_leq("block-norm", norm(seg), -2.0 * math.log(j),
                               verifies, j))

    # (b) Phi bound beyond the first gap
    idx = np.arange(ns[2] + 1, total + 1)
    certs.append(CheckFamily("phi-bound", verifies, ns[2] + 1, phi_map(z).lm[ns[2]:],
                             -2.0 * _ln(idx)))

    # (c) universality residuals
    for j in range(1, J + 1):
        n_j = ns[j]
        img = shift_pow(z, w, n_j).scale(LogComplex(_block_scale(n_j), 0.0))
        resid = norm(img.sub(dense_vector(j)))
        certs.append(check_leq("universality-residual", resid,
                               math.log(2.0 * _zeta2_tail(j)), verifies, j))

    # total l1 norm stays under ||z_1|| + 2 * zeta(2)
    certs.append(check_leq("l1-norm", norm(z),
                           math.log(1.0 + 2.0 * _zeta2_tail(1)), verifies))

    for r in schedule.records:
        certs.append(check_flag("gap-minimality",
                                r["violated_at_prev"] is None or r["violated_at_prev"] > 0,
                                "gap-schedule", r["j"]))
        certs.append(check_flag("gap-monotone",
                                r["tail_monotone"] and r["derivative_negative"],
                                "gap-schedule", r["j"]))
    return certs


# ---------------------------------------------------------------------------
# exact steering on the full sequence space
# ---------------------------------------------------------------------------


def steering_weight(m: int, init, k: int) -> QComplex:
    """The exact scalar c_k of the m-linear product-shift orbit.

    ``c_n = c_{n-1} * prod of first coordinates of states n-m .. n-2``, where
    negative-index states are the initial vectors and later first coordinates
    are ``c_i * [x_0]_{i+1}``.
    """
    x0 = init[-1]
    cs: list[QComplex] = []

    def first_coord(i: int) -> QComplex:
        if i <= 0:
            v = init[i + m - 1]
            return v[0] if v else QComplex.of(0)
        return cs[i - 1] * x0[i]

    for n in range(1, k + 1):
        prev = cs[n - 2] if n >= 2 else QComplex.of(1)
        for i in range(n - m, n - 1):
            prev = prev * first_coord(i)
        cs.append(prev)
    return cs[k - 1]


def steer_target_CN(m: int, init, target: QVector, k: int):
    """Modify the last initial vector so that orbit state k equals ``target`` exactly.

    The replacement is ``x_0' = (first k coordinates of x_0) + S**k(target)/c_k``:
    the scalar c_k only reads coordinates the modification leaves untouched,
    and the k-fold shift of the injected tail reproduces the target with no
    error (all arithmetic exact rational).  A zero target returns the tuple
    unchanged.
    """
    if k < 1:
        raise ParameterRangeError("steering step k must be >= 1")
    init = [list(v) for v in init]
    if len(init) != m:
        raise ParameterRangeError(f"need {m} initial vectors")
    for v in init[: m - 1]:
        if not v or v[0].is_zero:
            raise ZeroCoordinateError(
                "steering needs nonzero first coordinates in the functional slots")
    x0 = init[-1]
    for j in range(1, k + 1):
        if j > len(x0) or x0[j - 1].is_zero:
            raise ZeroCoordinateError(
                f"steering needs [x_0]_j != 0 for j <= {k}")
    if all(c.is_zero for c in target):
        return tuple(init)
    ck = steering_weight(m, init, k)
    if ck.is_zero:
        raise ZeroCoordinateError("steering weight c_k vanished")
    inject = q_forward_shift(q_scale(list(target), QComplex.of(1) / ck), k)
    head = x0[:k] + [QComplex.of(0)] * max(0, len(inject) - k)
    steered = [head[i] + (inject[i] if i < len(inject) else QComplex.of(0))
               for i in range(max(len(head), len(inject)))]
    return tuple(init[: m - 1] + [steered])


# ---------------------------------------------------------------------------
# the reciprocal-coefficient pair on entire functions
# ---------------------------------------------------------------------------


def _dd_plus(ah, al, bh, bl):
    """Scalar double-double addition (floats in, floats out)."""
    s, e = _two_sum(ah, bh)
    e += al + bl
    hi = s + e
    return hi, e - (hi - s)


def _dd_cumsum_neg(hi, lo):
    """``out_i = -sum_{t<i} (hi_t + lo_t)`` as compensated pairs."""
    n = hi.size
    oh, ol = np.zeros(n), np.zeros(n)
    sh, sl = 0.0, 0.0
    for i in range(n - 1):
        sh, sl = _dd_plus(sh, sl, -hi[i], -lo[i])
        oh[i + 1], ol[i + 1] = sh, sl
    return oh, ol


def reciprocal_coefficient_checks(g: SeqVector, f: SeqVector) -> list[Check]:
    """Certify ``f^(n)(0) prod_{i<n} g^(i)(0) = 1`` for n = 1 .. len(f) - 1.

    Row n passes when two residuals are at most 1e-9: the log residual
    ``|log|f^(n)(0)| + sum_{i<n} log|g^(i)(0)||`` over ``max(1, |log|f^(n)(0)||
    + sum_{i<n} |log|g^(i)(0)||)``, the scale its rounding error follows, and
    the phase residual ``arg f^(n)(0) + sum_{i<n} arg g^(i)(0)`` reduced to
    (-pi, pi].  A product of n terms, so no Fibonacci weight amplifies it.
    """
    n = len(f)
    lgf = _lgamma(np.arange(n) + 1.0)
    log_g = g.lm[: n - 1] + lgf[: n - 1]  # log |g^(i)(0)|, i < n - 1
    log_f = f.lm[1:] + lgf[1:]            # log |f^(n)(0)|, n >= 1
    log_res = np.abs(log_f + np.cumsum(log_g))
    scale = np.maximum(1.0, np.abs(log_f) + np.cumsum(np.abs(log_g)))
    ph_res = np.abs(_norm_phases(f.phase[1:] + np.cumsum(g.phase[: n - 1])))
    resid = np.maximum(log_res / scale, ph_res)
    return [check_leq("reciprocal-coefficient", r, 1e-9, "even-weight-unity", i)
            for i, r in enumerate(resid.tolist(), 1)]


def delta_d_pair(g: SeqVector):
    """Build f with ``f^(n)(0) = prod_{i<n} 1/g^(i)(0)`` and certify it.

    g is given by monomial coefficients; it needs at least one, and every
    derivative value inside the truncation must be nonzero.  f is built from
    compensated prefix sums of the derivative logs.  Two certificate families
    (``verifies`` is ``even-weight-unity`` for both):

    * ``reciprocal-exponent-telescopes``: in ``c_{2n}`` of the
      evaluation-times-derivative operator, the total exponent of every
      ``g^(i)(0)`` is 0 in big-integer arithmetic (the even-index Fibonacci
      sum identity), for every n in the truncation.  This is the exact step
      that turns the per-index relation into ``c_{2n} = 1``;
    * ``reciprocal-coefficient``: the per-index relation itself, checked by
      :func:`reciprocal_coefficient_checks` on
      ``vector_from_json(vector_to_json(f))``, which is what the written
      vector file holds.

    Together they prove that the written f is, index by index to 1e-9,
    the f whose even weights ``c_{2n}`` are identically one.  They do not
    bound ``c_{2n}`` of the float f itself: there each per-index residual
    enters with a Fibonacci-sized exponent.
    """
    n = len(g)
    if n == 0:
        raise ParameterRangeError("pair construction needs at least one coefficient")
    lm = g.lm
    if np.any(np.isneginf(lm)):
        raise ZeroCoordinateError("pair construction needs nonzero coefficients")
    lgf = _lgamma(np.arange(n) + 1.0)
    a_hi, a_lo = _two_sum(lm, lgf)  # log |g^(i)(0)| as dd pairs
    a_ph = g.phase

    # compensated negated prefix sums of the derivative logs: b_i = -sum_{t<i}
    bh, bl = _dd_cumsum_neg(a_hi, a_lo)
    f_hi, f_lo = _dd_add(bh, bl, -lgf)

    if np.all((a_ph == 0.0) | (np.abs(a_ph) == math.pi)):
        # real g: sign parity is exact; phases stay in the {0, pi} group
        neg = np.cumsum(np.abs(a_ph) == math.pi) % 2
        f_ph = np.concatenate(([0.0], np.where(neg[:-1], math.pi, 0.0)))
    else:
        f_ph, _ = _dd_cumsum_neg(a_ph, np.zeros(n))
    f = SeqVector(g.space, f_hi, f_lo, _norm_phases(f_ph))

    # exponent of g^(i)(0) in c_{2m} is F(2(m-i)) - sum of the odd-index
    # values below it, which is 0 by the even-index sum identity
    N = 2 * (n - 1) if n >= 2 else 2
    fail = even_sum_failure(FibCache(N + 2), N // 2)
    certs = [check_flag("reciprocal-exponent-telescopes", fail is None or m < fail,
                        "even-weight-unity", 2 * m) for m in range(1, N // 2 + 1)]
    certs += reciprocal_coefficient_checks(g, vector_from_json(vector_to_json(f)))
    return f, certs


def primitive_gap_offset(n: int) -> int:
    """Derivative offset of the n-th stacked block: ``k_n = (n-1)(n+2)/2``."""
    return (n - 1) * (n + 2) // 2


def stacked_primitive_g(blocks: int) -> SeqVector:
    """The gap-stacked function ``g = sum_n I^{k_n}(P_n)`` plus spare-slot fillers.

    ``P_n`` is the n-th dense test polynomial with factorial-scaled
    coefficients ``alpha_{n,j} z^j / j!`` (j = 1..n, all nonzero); ``I`` is the
    antiderivative with zero constant term.  Block n occupies derivative
    indices ``k_n + 1 .. k_n + n`` with ``k_n = (n-1)(n+2)/2``: one spare slot
    separates consecutive blocks, so that ``D**k_n`` kills every earlier block
    entirely (with the blocks packed tight, the previous block's top
    coefficient would survive as a constant and the approximation residual
    would not vanish).  The spare slots and the constant term carry the slowly
    decaying value ``1/sqrt(2 i)`` (1 at index 0): every derivative of g at 0
    stays nonzero and above the ``1/sqrt(2 i)`` floor, while the residual
    ``||D**k_n g - P_n||`` still tends to zero.
    """
    top = primitive_gap_offset(blocks) + blocks
    taylor = np.zeros(top + 1)
    taylor[0] = 1.0
    for nblk in range(1, blocks + 1):
        kn = primitive_gap_offset(nblk)
        for j in range(1, nblk + 1):
            taylor[kn + j] = abs(dense_value(nblk, j - 1))
        slot = kn + nblk + 1
        if slot <= top:
            taylor[slot] = 1.0 / math.sqrt(2.0 * slot)
    coeffs = [taylor[i] / math.factorial(i) for i in range(top + 1)]
    return SeqVector.from_complex(SpaceTag.hc(1), coeffs)


# ---------------------------------------------------------------------------
# the block-built universal entire function
# ---------------------------------------------------------------------------


@dataclass
class QBlocks:
    """Result of the inductive entire-function construction."""

    Q: SeqVector
    ns: list                 # n_1 .. n_K
    alphas: list             # LogComplex per block
    betas: list
    C_log: float             # log of the uniform constant in the coefficient bounds
    certificates: list


Q_PAD = 8  # ones between a block's test polynomial and its free top coefficient


def hc_Q_blocks(K: int) -> QBlocks:
    """Build K blocks of the universal function for evaluation-times-derivative.

    Block 1 fixes degree 3; each later block appends a free low coefficient,
    the factorial-scaled test polynomial, :data:`Q_PAD` ones, and a free top
    coefficient, then solves the two monomial equations making the next two
    orbit weights equal to one (principal root branch).  Certified per block:
    the two weights are 1 to 1e-8 in log magnitude and phase (checked
    through the two-term recursion on ``vector_from_json(vector_to_json(Q))``,
    which is what the written vector file holds: an independent route from the
    solver's direct exponent sums), and the solved coefficients obey
    ``|alpha_{j+1}| <= C 2**(n_j + 1)``, ``|beta_{j+1}| <= C 2**n_{j+1}``.

    ``C`` is the smallest constant >= 1 with ``j**e_k <= C 2**j`` for all
    ``j, k >= 1``, where ``e_k = (F(k+1) - 1) / F(k)``; it is exactly 1, so
    ``C_log = 0``.  Proof: ``F(k+1) - phi F(k) = psi**k < 1`` gives
    ``e_k < phi``, and ``phi ln j <= j ln 2`` for every ``j >= 1`` because
    ``max_j (ln j) / j <= 1/e < ln 2 / phi``.
    """
    if K < 1:
        raise ParameterRangeError("need K >= 1 blocks")
    ns = [3]
    taylor: dict[int, LogComplex] = {}

    # block 1: indices 0..3 hold alpha_1, a_{0,1}, a_{1,1}, beta_1
    a01 = LogComplex.from_real(dense_value(1, 0))
    a11 = LogComplex.from_real(dense_value(1, 1))
    alpha1 = a01.mul(a11).inv().root(2)
    beta1 = alpha1.pow_int(3).mul(a01.pow_int(2)).mul(a11).inv()
    taylor[0], taylor[1], taylor[2], taylor[3] = alpha1, a01, a11, beta1
    alphas, betas = [alpha1], [beta1]

    cache = FibCache(64)

    def weight_exponent_sum(N: int, skip: int) -> LogComplex:
        """prod over known indices i < N-1, i != skip of taylor[i]**F(N-1-i)."""
        cache.ensure(N)
        logmag = 0.0
        phase = 0.0
        for i in range(0, N - 1):
            if i == skip:
                continue
            z = taylor[i]  # raises KeyError only if a block was never placed
            if z.is_zero:
                raise ZeroCoordinateError(f"coefficient at degree {i} vanished")
            e = cache(N - 1 - i)
            logmag += z.log_mag * e
            phase += phase_times_int(z.phase, e)
        return LogComplex.from_polar(logmag, normalize_phase(phase))

    for j in range(1, K):
        nj = ns[-1]
        nj1 = nj + j + 4 + Q_PAD
        ns.append(nj1)
        for i in range(0, j + 2):
            taylor[nj + 2 + i] = LogComplex.from_real(
                math.factorial(i) * dense_value(j + 1, i))
        for l in range(nj + j + 4, nj1):
            taylor[l] = LogComplex.one()
        # alpha: exponent F(gap) at index nj+1 in the weight of order nj1+1
        g1 = weight_exponent_sum(nj1 + 1, skip=nj + 1)
        fk = cache(nj1 - nj - 1)
        alpha = LogComplex.from_polar(-g1.log_mag / float(fk),
                                      normalize_phase(-g1.phase) / float(fk))
        taylor[nj + 1] = alpha
        # beta: exponent F(1) = 1 at index nj1 in the weight of order nj1+2
        g2 = weight_exponent_sum(nj1 + 2, skip=nj1)
        beta = g2.inv()
        taylor[nj1] = beta
        alphas.append(alpha)
        betas.append(beta)

    # assemble monomial coefficients
    top = ns[-1]
    coeffs = []
    for i in range(top + 1):
        t = taylor[i]
        coeffs.append(LogComplex.zero() if t.is_zero else
                      LogComplex(t.log_mag - math.lgamma(i + 1.0), t.phase))
    Q = SeqVector.from_logc(SpaceTag.hc(1), coeffs)

    # certificates via the two-term recursion (independent of the solver path),
    # on Q as the written vector file holds it
    spec = m_fg_prime()
    one_fn = SeqVector.from_complex(SpaceTag.hc(1), [1.0])
    led = ledger(spec, (one_fn, vector_from_json(vector_to_json(Q))), ns[-1] + 2)
    verifies = "unit-weight-blocks"
    certs = []
    for j in range(K):
        for off in (1, 2):
            c = led.c(ns[j] + off)
            worst = max(abs(c.log_mag), abs(c.phase))
            certs.append(check_leq("unit-weight", worst, 1e-8, verifies, ns[j] + off))
    C_log = 0.0  # proved in the docstring
    for j in range(1, K):
        certs.append(check_leq("alpha-bound", alphas[j].log_mag,
                               C_log + (ns[j - 1] + 1) * LN2, verifies, j + 1))
        certs.append(check_leq("beta-bound", betas[j].log_mag,
                               C_log + ns[j] * LN2, verifies, j + 1))
    return QBlocks(Q, ns, alphas, betas, C_log, certs)


# ---------------------------------------------------------------------------
# symmetric preimages
# ---------------------------------------------------------------------------


def symmetric_preimage(x0: SeqVector, lam: LogComplex):
    """Preimage pair for the symmetrized shift operator: ``M(x, y) = x0`` for any lam.

    ``x = e_1 + lam * S_w(x0) + sum_{i>=2} e_i / i**2`` and
    ``y = e_1 - (lam - 2) * S_w(x0) - sum_{i>=2} e_i / i**2``, with
    ``w_i = 1/i**2``; both first
    coordinates are 1 and the shifted parts average back to ``S_w(x0)``, so
    the dependence on lam cancels identically.  Returns ``(x, y, residual)``
    with the residual the log l1 distance of ``M(x, y)`` from ``x0``.
    """
    if x0.space.kind != "l1":
        raise ParameterRangeError("preimage construction lives on l1")
    L = len(x0) + 2
    tag = SpaceTag.l1()

    i = np.arange(2, L + 1, dtype=float)
    tail_hi = np.concatenate(([LOG_ZERO], -2.0 * np.log(i)))
    tail = SeqVector(tag, tail_hi, np.zeros(L), np.zeros(L))
    e1 = SeqVector.basis(tag, L, 1)

    s_x0 = forward_pow(x0, WeightSeq.inv_squares(), 1)._padded(L)
    lam_m2 = lam.add(LogComplex.from_real(-2.0))
    x = e1.add(s_x0.scale(lam)).add(tail)
    y = e1.add(s_x0.scale(lam_m2).neg()).add(tail.neg())

    return x, y, _preimage_residual(x0, x, y)


def _preimage_residual(x0: SeqVector, x: SeqVector, y: SeqVector) -> float:
    """The log l1 distance of ``M(x, y)`` from ``x0``, M the symmetrized shift
    operator."""
    out = apply(m_symmetric(), (x, y))
    return norm(out.sub(x0._padded(len(out))))


def symmetric_preimage_certificates(x0: SeqVector, rng):
    """Preimage pairs of ``x0`` for 20 random lam, each certified.

    lam has modulus uniform in [0.5, 8] and phase uniform in [-pi, pi], drawn
    from ``rng`` in that order.  Row t, ``preimage-residual[t]``, is the
    residual of :func:`symmetric_preimage` relative to ``||x0||`` (absolute
    for a zero x0; an exactly zero residual reads -1e9), bounded by
    ``log 1e-12``.  Returns ``(x, y, certificates)`` with the pair of the
    first lam; row 0 reads that pair as
    ``vector_from_json(vector_to_json(.))``, which is what the written vector
    files hold.
    """
    base = norm(x0)
    certs = []
    for t in range(20):
        lam = LogComplex.from_complex(complex(rng.uniform(0.5, 8.0)
                                              * np.exp(1j * rng.uniform(-np.pi, np.pi))))
        x, y, resid = symmetric_preimage(x0, lam)
        if t == 0:
            pair = x, y
            resid = _preimage_residual(x0, *(vector_from_json(vector_to_json(v))
                                            for v in pair))
        rel = resid - base if base > LOG_ZERO else resid
        certs.append(check_leq("preimage-residual", rel if rel > LOG_ZERO else -1e9,
                               math.log(1e-12), "symmetric-preimage", t))
    return (*pair, certs)


# ---------------------------------------------------------------------------
# ray bisection toward the zero-basin boundary
# ---------------------------------------------------------------------------


@dataclass
class JuliaProbe:
    """A certified bracket around a classification flip along a ray."""

    t_lo: float
    t_hi: float
    class_lo: OrbitClass
    class_hi: OrbitClass
    bisection_steps: int

    @property
    def width(self) -> float:
        return self.t_hi - self.t_lo


RAY_WINDOW = 200  # coordinates of the ray direction the classifier iterates


def _ray_norm_logs(v: SeqVector, t: float):
    """Norm logs of ``P^n(t v)``, n = 1, 2, ..., for the square map
    ``P(x) = m_l1(x, x) = x_1 B_w(x)`` on the first ``RAY_WINDOW`` coordinates
    of ``v``; each squaring drops a coordinate, so the stream ends when one is
    left."""
    spec = m_l1()
    s = v.truncate(RAY_WINDOW).scale(LogComplex.from_real(t))
    while len(s) > 1:
        s = apply(spec, (s, s))
        yield norm(s)


def _ray_class(norm_logs) -> OrbitClass:
    """The ray rule on a stream of norm logs: converging after
    ``CONVERGENCE_RUN`` non-increasing norms below 1e-12 in a row, escaping
    above 1e12, undecided when the stream ends first."""
    log_tol = math.log(1e-12)
    run = 0
    prev = math.inf
    for ln in norm_logs:
        if ln > -log_tol:
            return OrbitClass.ESCAPING
        if ln < log_tol and ln <= prev:
            run += 1
            if run >= CONVERGENCE_RUN:
                return OrbitClass.CONVERGES_TO_ZERO
        else:
            run = 0
        prev = ln
    return OrbitClass.UNDECIDED


def classify_polynomial_ray(v: SeqVector, t: float) -> OrbitClass:
    """Classify the iteration of the induced square map ``P(x) = x_1 B_w(x)``
    along the ray point ``t * v`` by iterating it (:func:`_ray_class` on
    :func:`_ray_norm_logs`)."""
    return _ray_class(_ray_norm_logs(v, t))


def _classify_scaled(unit_logs: list[float], t: float) -> OrbitClass:
    """:func:`classify_polynomial_ray` at ``t`` from the norm logs ``L_n`` of
    the orbit of ``v`` itself (``t = 1``).

    ``P`` is homogeneous of degree 2 and every norm of degree 1, so
    ``P^n(t v) = t^(2^n) P^n(v)`` and its norm log is ``L_n + 2^n log t``; an
    exactly zero state (``L_n = -inf``) stays zero.  ``t`` is finite and >= 0.
    """
    log_t = math.log(t) if t > 0 else LOG_ZERO
    return _ray_class(ln + math.ldexp(log_t, n) for n, ln in enumerate(unit_logs, 1))


def julia_ray_bisection(v: SeqVector, t_lo: float, t_hi: float, tol: float) -> JuliaProbe:
    """Bisect a ray for the boundary of the zero basin of ``P(x) = x_1 B_w(x)``.

    Requires finite endpoints, a finite ``tol > 0``, the low endpoint to
    classify as converging and the high endpoint as not converging; narrows
    the bracket to ``tol``, or to two adjacent doubles when ``tol`` is below
    their spacing, and re-verifies both endpoint classifications, returning
    the narrowest bracket of the bisection that keeps them: the input bracket,
    whose ends were classified first, when no narrower one does.
    The endpoints are classified by their own orbits
    (:func:`classify_polynomial_ray`), the midpoints from one orbit of ``v``
    (:func:`_classify_scaled`).  The returned bracket is a numerical
    certificate of proximity to the basin boundary along the ray, nothing
    stronger.
    """
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ParameterRangeError("bracket ends must be finite")
    checked_tol(tol)
    if not (0 <= t_lo < t_hi):
        raise BadBracketError("need 0 <= t_lo < t_hi")

    def cls(t: float) -> OrbitClass:
        return classify_polynomial_ray(v, t)

    c_lo, c_hi = cls(t_lo), cls(t_hi)
    if c_lo is not OrbitClass.CONVERGES_TO_ZERO:
        raise BadBracketError(f"low endpoint classifies {c_lo.value}")
    if c_hi is OrbitClass.CONVERGES_TO_ZERO:
        raise BadBracketError("high endpoint also converges to zero")
    entry = (t_lo, t_hi, c_lo, c_hi)  # the input bracket and its classes
    unit_logs = list(_ray_norm_logs(v, 1.0))
    brackets = [(t_lo, t_hi)]
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if mid in (t_lo, t_hi):  # adjacent doubles: no narrower bracket exists
            break
        if _classify_scaled(unit_logs, mid) is OrbitClass.CONVERGES_TO_ZERO:
            t_lo = mid
        else:
            t_hi = mid
        brackets.append((t_lo, t_hi))
        if len(brackets) > 201:
            raise BadBracketError("bisection failed to narrow the bracket")
    # the narrowest bracket whose ends keep their classes by their own orbits:
    # a few ulps from the boundary the window leaves the direct orbit undecided
    for t_lo, t_hi in reversed(brackets[1:]):
        c_lo, c_hi = cls(t_lo), cls(t_hi)
        if c_lo is OrbitClass.CONVERGES_TO_ZERO and c_hi is not OrbitClass.CONVERGES_TO_ZERO:
            return JuliaProbe(t_lo, t_hi, c_lo, c_hi, len(brackets) - 1)
    return JuliaProbe(*entry, len(brackets) - 1)


def julia_bracket(v: SeqVector, t_lo: float, t_hi: float,
                  tol: float) -> tuple[JuliaProbe, list[Check]]:
    """:func:`julia_ray_bisection` and its ``bracket-width`` row, at most ``tol``.
    Its ends' classes flip by construction, so they are reported, not checked."""
    probe = julia_ray_bisection(v, t_lo, t_hi, tol)
    return probe, [check_leq("bracket-width", probe.width, tol, "basin-boundary-bracket")]


def dominates(x: SeqVector, y: SeqVector) -> bool:
    """Coordinate-wise ``|x_i| >= |y_i|`` (the monotone comparison hypothesis)."""
    n = max(len(x), len(y))
    lx, ly = x._padded(n).lm, y._padded(n).lm
    return bool(np.all((lx >= ly) | np.isneginf(ly)))


def factorial_tail_direction(truncation: int) -> SeqVector:
    """The ray direction with first coordinate 1 and tail ``1/(i-1)!**2``."""
    i = np.arange(truncation, dtype=float)
    hi = -2.0 * _lgamma(i + 1.0)
    hi[0] = 0.0  # log 1; the formula gives -0.0
    return SeqVector(SpaceTag.l1(), hi, np.zeros(truncation), np.zeros(truncation))
