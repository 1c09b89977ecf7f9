"""Builders for the explicit vectors and entire functions the theory constructs.

Each builder returns its object together with *certificates*
(:class:`~hyperorbit.report.Check` records): the explicit inequalities the
construction promises, re-evaluated in the log domain on the built prefix.  A
failed certificate raises :class:`CertificateFailure`; the certificate list is
the machine-checkable record that the finite truncation actually realizes the
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from mpmath import psi

from .arith import LOG_ZERO, ASeq, FibCache, LogComplex, normalize_phase, phase_times_int
from .dynamics import (
    LN2,
    OrbitClass,
    apply,
    ledger,
    m_fg_prime,
    m_l1,
    m_symmetric,
    n_delta_d,
)
from .errors import (
    BadBracketError,
    CertificateFailure,
    ParameterRangeError,
    SearchOverflowError,
    ZeroCoordinateError,
)
from .rational import QComplex, QVector, q_equal, q_forward_shift, q_iterate, q_scale
from .report import Check, check_flag, check_leq
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
)


def _raise_if_failed(certs) -> None:
    for c in certs:
        if not c.ok:
            raise CertificateFailure(c.name, c.index, c.measured, c.bound)


# ---------------------------------------------------------------------------
# deterministic dense test sequences
# ---------------------------------------------------------------------------


class DenseTestSeq:
    """Deterministic stand-in for a dense test sequence.

    The k-th sequence vector has support exactly [1, k] with moduli in
    [1/k, k]; the k-th polynomial has degree k with monomial coefficients in
    the same band.  Density of the abstract sequence plays no role in any
    finite-block certificate, so a reproducible generator is preferred over a
    sampled one.
    """

    def value(self, k: int, i: int) -> float:
        """Coefficient i (0-based) of the k-th test object; ±(1/k .. 1)."""
        mag = (1.0 / k) * (1.0 + ((i % k) * (k - 1.0)) / k)
        sign = -1.0 if (i * (k - 1)) % 2 else 1.0
        return sign * mag

    def vector(self, k: int, space: SpaceTag | None = None,
               length: int | None = None) -> SeqVector:
        """The k-th test vector, support [1, k], zero-padded to ``length``."""
        vals = [self.value(k, i) for i in range(k)]
        if length is not None and length > k:
            vals += [0.0] * (length - k)
        return SeqVector.from_complex(space or SpaceTag.l1(), vals)

    def constraint_ok(self, k: int) -> bool:
        lo, hi = 1.0 / k, float(k)
        return all(lo - 1e-15 <= abs(self.value(k, i)) <= hi + 1e-15
                   for i in range(k + 1))


# ---------------------------------------------------------------------------
# companion vector and the summability map
# ---------------------------------------------------------------------------


def companion_x(y: SeqVector, w: WeightSeq, a: ASeq) -> SeqVector:
    """The vector cancelling the orbit weights of ``y``:

    ``x_{i+1} = 2**a_i / w_i * prod_{j<=i} 1/(y_j w_j)``, with ``x_1 = 0``
    (the formula leaves the first coordinate free).  Together with ``y`` it
    makes ``c_{2n} d_{2n} = 2**n n!**2`` exactly.
    """
    n = len(y)
    lm = y.lm
    if np.any(np.isneginf(lm[: n - 1])):
        raise ZeroCoordinateError("companion vector needs nonzero y_1..y_{N-1}")
    logs_w = w.logs(n)
    cum_w = w.cum(n)
    pref_y = np.cumsum(lm)
    pref_ph = np.cumsum(y.phase)
    a_ln2 = np.array([a[i] for i in range(1, n)], dtype=float) * LN2
    hi = np.empty(n)
    ph = np.empty(n)
    hi[0] = LOG_ZERO
    ph[0] = 0.0
    # index i+1 (1-based) <-> slot i of these arrays (0-based i = 1..n-1)
    hi[1:] = a_ln2 - logs_w[: n - 1] - pref_y[: n - 1] - cum_w[1: n]
    ph[1:] = -pref_ph[: n - 1]
    out_ph = np.where(np.isneginf(hi), 0.0, _norm_phases(ph))
    return SeqVector(y.space, hi, np.zeros(n), out_ph)


def weight_identity_certificates(n_max: int, w: WeightSeq | None = None,
                                 a: ASeq | None = None, tol: float = 1e-8,
                                 raise_on_failure: bool = True) -> list[Check]:
    """Certify ``c_{2n} d_{2n} = 2**n n!**2`` for the companion pair, n <= n_max.

    The two-term recursion amplifies float noise with Fibonacci weight, so at
    large n the product must be evaluated the way the identity is proved: by
    exact big-integer bookkeeping of each atom's exponent.  Per n the checks
    are

    * the exponent of every ``log y_j`` telescopes to exactly 0 (so the value
      is independent of y, as the construction promises);
    * the exponent of every ``log w_l`` telescopes to exactly -1;
    * the exponent of ``log 2`` equals exactly n (the defining property of
      the a-sequence);
    * the surviving value ``n log 2 - sum_l log w_l`` matches
      ``n log 2 + 2 log n!`` within ``tol`` relative.

    The float-recursion ledger is a separate route and is only meaningful for
    small n; see :func:`weight_identity_recursion_error`.
    """
    w = w or WeightSeq.inv_squares()
    if a is None:
        a = ASeq(n_max)
    cache = FibCache(2 * n_max + 3)
    verifies = "companion-weight-identity"
    certs: list[Check] = []
    for n in range(1, n_max + 1):
        # exponent of log y_j: F(2(n-j+1)) - sum_{i=j..n} F(2(n-i)+1)
        tail = 0
        y_ok = True
        for j in range(n, 0, -1):
            tail += cache(2 * (n - j) + 1)
            if cache(2 * (n - j + 1)) - tail != 0:
                y_ok = False
                break
        certs.append(check_flag("y-exponent-telescopes", y_ok, verifies, n))
        # exponent of log w_l: F(2n+3-2l) - 1 - F(2(n-l+1)) - F(2(n-l)+1)
        w_ok = all(
            cache(2 * n + 3 - 2 * l) - 1 - cache(2 * (n - l + 1))
            - cache(2 * (n - l) + 1) == -1
            for l in range(1, n + 1))
        certs.append(check_flag("w-exponent-is-minus-one", w_ok, verifies, n))
        # exponent of log 2
        e2 = sum(a[i] * cache(2 * (n - i) + 1) for i in range(1, n + 1))
        certs.append(check_flag("two-exponent-is-n", e2 == n, verifies, n))
        # surviving value vs the closed form
        value = n * LN2 - float(np.sum(w.logs(n)))
        target = n * LN2 + 2.0 * math.lgamma(n + 1.0)
        rel = abs(value - target) / max(1.0, abs(target))
        certs.append(check_leq("weight-identity-value", rel, tol, verifies, n))
    if raise_on_failure:
        _raise_if_failed(certs)
    return certs


def weight_identity_recursion_error(y: SeqVector, w: WeightSeq, a: ASeq,
                                    n_max: int):
    """Deviation of the float-recursion ledger from ``2**n n!**2``, per n.

    Returns ``[(n, |d log|, |phase|)]`` for the companion pair built from y.
    Useful only for small n: the recursion's rounding noise grows with
    Fibonacci weight and swamps the identity beyond n of a few dozen.
    """
    spec = replace(m_l1(), space=y.space, weights=w)
    x = companion_x(y, w, a)
    led = ledger(spec, (x, y), 2 * n_max)
    out = []
    for n in range(1, n_max + 1):
        cd = led.cd(2 * n)
        target = n * LN2 - float(np.sum(w.logs(n)))
        out.append((n, abs(cd.log_mag - target), abs(cd.phase)))
    return out


def phi_map(y: SeqVector, a: ASeq) -> SeqVector:
    """The summability witness ``[Phi(y)]_i = 2**a_i i**2 i!**2 prod_{l<=i} 1/|y_l|``.

    Finite l1 norm of this vector certifies that the companion construction
    lands in l1 (the companion differs from it by bounded factors).
    """
    n = len(y)
    lm = y.lm
    if np.any(np.isneginf(lm)):
        raise ZeroCoordinateError("phi map needs nonzero coordinates")
    i = np.arange(1, n + 1, dtype=float)
    a_ln2 = np.array([a[j] for j in range(1, n + 1)], dtype=float) * LN2
    lgf = np.array([math.lgamma(v + 1.0) for v in i])
    hi = a_ln2 + 2.0 * np.log(i) + 2.0 * lgf - np.cumsum(lm)
    return SeqVector(SpaceTag.l1(), hi, np.zeros(n), np.zeros(n))


# ---------------------------------------------------------------------------
# gap schedule and the universal vector on l1
# ---------------------------------------------------------------------------


@dataclass
class GapSchedule:
    """Block boundaries n_j with the condition margins recorded per block.

    ``ns[j]`` is n_j (``ns[1] = 0``); each record carries the evaluated
    log-domain margins at n_j (all <= 0), the violated margin at n_j - 1
    (minimality), and the pi product feeding the next block's condition.
    """

    ns: list
    records: list = field(default_factory=list)
    pi_logs: list = field(default_factory=list)

    def block_count(self) -> int:
        return len(self.ns) - 1


def _a_val(a: ASeq, n: int) -> int:
    # the constructor proves the cached prefix equals the closed form, so
    # indices beyond the cache may use it directly
    return a[n] if n <= a.N else ASeq.closed_form(n)


def _base_margin(n: int, a: ASeq) -> float:
    """Log form of the first-gap condition (must be <= 0)."""
    return ((n * n / 4.0) * LN2 + 4.0 * math.log(n) + 4.0 * math.lgamma(n + 1.0)
            + (2.0 * n + 2.0) * LN2 + _a_val(a, n) * LN2)


def _cond3_margin(n: int, j: int, n_prev: int) -> float:
    """Log form of the gap-growth condition (strictly < 0)."""
    return (n_prev * LN2 + 2.0 * math.lgamma(n_prev + 1.0)
            + 2.0 * j * math.log(n + j) + 4.0 * math.log(j) - n * LN2)


def _cond4_margin(n: int, j: int, n_prev: int, pi_log: float, a: ASeq) -> float:
    """Log form of the summability condition (must be <= 0)."""
    return (4.0 * math.log(n + j) + (n * n / 4.0) * LN2
            + 4.0 * math.lgamma(n + 1.0) + _a_val(a, n) * LN2 + pi_log
            + n_prev * n * LN2 + j * n * LN2 + j * math.log(j))


def gap_schedule_search(dense: DenseTestSeq, w: WeightSeq, a: ASeq,
                        blocks: int, cap: int = 10**6) -> GapSchedule:
    """Find minimal block boundaries n_2 < n_3 < ... satisfying the growth conditions.

    n_2 is the least n passing the first-gap condition; later n_j are the
    least n past the previous gap passing both the gap-growth and the
    summability condition.  Each condition is evaluated in the log domain; the
    dominant term decays like -n^2/4, and a margin-monotonicity probe at
    n_j + 1 .. n_j + 10 plus a negative finite difference at n_j records that
    the condition keeps holding beyond the verified point.
    """
    if blocks < 2:
        raise ParameterRangeError("schedule needs at least 2 blocks")
    ns = [None, 0]
    records = []
    pi_logs = [None]

    # coordinate logs of the growing vector prefix, for the pi products
    u_logs = [0.0] * 2  # 1-indexed; u_1 = first test value, modulus 1
    u_logs[1] = math.log(abs(dense.value(1, 0)))

    for j in range(2, blocks + 1):
        n_prev = ns[j - 1]
        pi_log = -sum(u_logs[1: n_prev + j - 1 + 1])
        pi_logs.append(pi_log)

        def margins(n: int) -> tuple[float, float]:
            if j == 2:
                return _base_margin(n, a), _cond3_margin(n, j, n_prev)
            return (_cond4_margin(n, j, n_prev, pi_log, a),
                    _cond3_margin(n, j, n_prev))

        n = n_prev + j + 1
        while True:
            if n > cap:
                raise SearchOverflowError(f"n_{j} exceeded the scan cap {cap}")
            m_main, m_gap = margins(n)
            if m_main <= 0.0 and m_gap < 0.0:
                break
            n += 1
        ns.append(n)

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

        # extend the coordinate logs through this block
        u_logs.extend([0.0] * (n + j + 1 - len(u_logs)))
        for l in range(n_prev + j, n + 1):
            u_logs[l] = -n_prev * LN2 - 2.0 * math.log(l)
        cum = w.cum(n + j)
        scale = -(n * LN2 + 2.0 * math.lgamma(n + 1.0))
        for i in range(1, j + 1):
            u_logs[i + n] = (math.log(abs(dense.value(j, i - 1))) + scale
                             - (cum[i + n - 1] - cum[i - 1]))
    return GapSchedule(ns, records, pi_logs)


def _zeta2_tail(j: int) -> float:
    """``sum_{l >= j} 1/l**2`` (trigamma)."""
    return float(psi(1, j))


def universal_y_l1(schedule: GapSchedule, dense: DenseTestSeq,
                   w: WeightSeq | None = None, a: ASeq | None = None,
                   raise_on_failure: bool = True):
    """Assemble the block-built universal vector and certify its inequalities.

    The vector is ``z = z_1 + sum_j (fillers + S_w^{n_j}(z_j / (2**n_j n_j!**2)))``
    with disjoint block supports.  Three families of certificates are checked
    on the built prefix:

    * block norms: each placed block has l1 norm at most 1/j**2;
    * summability: ``Phi(z)_i <= 1/i**2`` for ``n_2 < i`` up to the built length;
    * universality residuals: ``||2**n_j n_j!**2 B_w^{n_j}(z) - z_j||_1``
      is at most ``2 sum_{l >= j} 1/l**2`` for every built block.

    Returns ``(z, certificates)``.
    """
    w = w or WeightSeq.inv_squares()
    ns = schedule.ns
    J = schedule.block_count()
    total = ns[J] + J
    if a is None:
        a = ASeq(total + 1)

    hi = np.full(total, LOG_ZERO)
    lo = np.zeros(total)
    ph = np.zeros(total)
    tag = SpaceTag.l1()

    # z_1 occupies coordinate 1
    z1 = dense.vector(1, tag)
    hi[0], lo[0], ph[0] = z1.hi[0], z1.lo[0], z1.phase[0]

    block_scale = {1: 0.0}
    blocks = {1: z1}
    for j in range(2, J + 1):
        n_prev, n_j = ns[j - 1], ns[j]
        for l in range(n_prev + j, n_j + 1):
            hi[l - 1] = -n_prev * LN2 - 2.0 * math.log(l)
        s_log = n_j * LN2 + 2.0 * math.lgamma(n_j + 1.0)
        block_scale[j] = s_log
        zj = dense.vector(j, tag)
        blocks[j] = zj
        placed = forward_pow(zj.scale(LogComplex(-s_log, 0.0)), w, n_j)
        sl = slice(n_j, n_j + j)
        hi[sl] = placed.hi[n_j: n_j + j]
        lo[sl] = placed.lo[n_j: n_j + j]
        ph[sl] = placed.phase[n_j: n_j + j]

    z = SeqVector(tag, hi, lo, ph)
    verifies = "universal-vector"
    certs: list[Check] = []

    # (a) block norms <= 1/j^2
    for j in range(1, J + 1):
        n_j = ns[j]
        seg = SeqVector(tag, hi[n_j: n_j + j], lo[n_j: n_j + j], ph[n_j: n_j + j])
        certs.append(check_leq("block-norm", norm(seg), -2.0 * math.log(j),
                               verifies, j))

    # (b) Phi bound beyond the first gap
    phiz = phi_map(z, a)
    lm_phi = phiz.lm
    for i in range(ns[2] + 1, total + 1):
        certs.append(check_leq("phi-bound", float(lm_phi[i - 1]),
                               -2.0 * math.log(i), verifies, i))

    # (c) universality residuals
    for j in range(1, J + 1):
        n_j = ns[j]
        img = shift_pow(z, w, n_j).scale(LogComplex(block_scale[j], 0.0))
        resid = norm(img.sub(blocks[j]))
        certs.append(check_leq("universality-residual", resid,
                               math.log(2.0 * _zeta2_tail(j)), verifies, j))

    # total l1 norm stays under ||z_1|| + 2 * zeta(2)
    certs.append(check_leq("l1-norm", norm(z),
                           math.log(1.0 + 2.0 * _zeta2_tail(1)), verifies))

    if raise_on_failure:
        _raise_if_failed(certs)
    return z, certs


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


def steering_exact(m: int, init, target: QVector, k: int) -> bool:
    """Oracle: iterate the steered tuple and compare state k with the target."""
    steered = steer_target_CN(m, init, target, k)
    states = q_iterate(m, list(steered), k)
    return q_equal(states[k - 1], list(target))


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


def _unity_weights_dd(f_parts, a_parts, lgf, N):
    """Even-step weights of the reciprocal pair at full stored precision.

    Runs the two-term recursion with compensated log magnitudes and
    compensated unwrapped phases; yields ``(2m, log|c_{2m}|, phase)``.
    """
    f_hi, f_lo, fp_hi, fp_lo = f_parts
    a_hi, a_lo, a_ph = a_parts

    def merge(m):
        if m == 1:
            return a_hi[0], a_lo[0], a_ph[0], 0.0
        i = m // 2
        if m % 2 == 0:  # f^{(i)}(0): stored dd plus the factorial boost
            h, l = _dd_plus(f_hi[i], f_lo[i], lgf[i], 0.0)
            return h, l, fp_hi[i], fp_lo[i]
        return a_hi[i], a_lo[i], a_ph[i], 0.0

    zh, zl, zp, zpl = merge(1)
    c1 = (zh, zl, zp, zpl)          # (log hi, log lo, phase hi, phase lo)
    zh, zl, zp, zpl = merge(2)
    h, l = _dd_plus(c1[0], c1[1], zh, zl)
    p, pl = _dd_plus(c1[2], c1[3], zp, zpl)
    c2 = (h, l, p, pl)
    out = []
    if N >= 2:
        out.append((2, c2[0] + c2[1],
                    normalize_phase(math.remainder(c2[2], 2 * math.pi) + c2[3])))
    prev2, prev1 = c1, c2
    for m in range(3, N + 1):
        zh, zl, zp, zpl = merge(m)
        h, l = _dd_plus(prev2[0], prev2[1], prev1[0], prev1[1])
        h, l = _dd_plus(h, l, zh, zl)
        p, pl = _dd_plus(prev2[2], prev2[3], prev1[2], prev1[3])
        p, pl = _dd_plus(p, pl, zp, zpl)
        cur = (h, l, p, pl)
        if m % 2 == 0:
            out.append((m, h + l,
                        normalize_phase(math.remainder(p, 2 * math.pi) + pl)))
        prev2, prev1 = prev1, cur
    return out


def delta_d_pair(g: SeqVector, tol: float = 1e-9, check_to: int | None = None,
                 raise_on_failure: bool = True):
    """Build f with ``f^(n)(0) = prod_{i<n} 1/g^(i)(0)`` and certify ``c_{2n} = 1``.

    g is given by monomial coefficients; every derivative value inside the
    truncation must be nonzero.  Two certificate routes:

    * exact exponents: the total exponent of every derivative value
      ``g^(i)(0)`` inside ``c_{2n}`` telescopes to 0 in big-integer
      arithmetic (the even-index Fibonacci sum identity), for every n in the
      truncation, so the even weights are identically one;
    * float recursion: the even-step weight recursion of the
      evaluation-times-derivative operator is run on the built pair and
      ``|log c_{2n}|`` and its phase must vanish to ``tol`` for
      ``2n <= check_to`` (default: the whole truncation).  The recursion's
      rounding noise grows with step count, so callers with long truncations
      and rough coefficient profiles cap this route.
    """
    n = len(g)
    lm = g.lm
    if np.any(np.isneginf(lm)):
        raise ZeroCoordinateError("pair construction needs nonzero coefficients")
    lgf = np.array([math.lgamma(i + 1.0) for i in range(n)])
    a_hi, a_lo = _two_sum(lm, lgf)  # log |g^(i)(0)| as dd pairs
    a_ph = g.phase.copy()

    # compensated negated prefix sums of the derivative logs: b_i = -sum_{t<i}
    bh, bl = _dd_cumsum_neg(a_hi, a_lo)
    f_hi, f_lo = _dd_add(bh, bl, -lgf)

    real_signed = bool(np.all((a_ph == 0.0) | (np.abs(a_ph) == math.pi)))
    if real_signed:
        # sign parity is exact; phases stay in the {0, pi} group
        neg = np.cumsum(np.abs(a_ph) == math.pi) % 2
        fp_hi = np.concatenate(([0.0], np.where(neg[:-1], math.pi, 0.0)))
        fp_lo = np.zeros(n)
    else:
        fp_hi, fp_lo = _dd_cumsum_neg(a_ph, np.zeros(n))
    f = SeqVector(g.space, f_hi, f_lo, _norm_phases(fp_hi))

    N = 2 * (n - 1) if n >= 2 else 2
    certs = []

    # exact route: exponent of g^(i)(0) in c_{2m} is F(2(m-i)) - sum of the
    # odd-index values below it, which is 0 by the even-index sum identity
    cache = FibCache(N + 2)
    for m in range(1, N // 2 + 1):
        ok = True
        acc = 0
        for t in range(m):
            acc += cache(2 * t + 1)
            if cache(2 * (t + 1)) != acc:
                ok = False
                break
        certs.append(check_flag("reciprocal-exponent-telescopes", ok,
                                "even-weight-unity", 2 * m))

    # value route: the weight recursion evaluated at the full stored precision
    # (the vector stores compensated log magnitudes; a single-double reading
    # would reintroduce rounding that the Fibonacci growth then amplifies)
    n_float = min(N, check_to) if check_to is not None else N
    for m, c_log, c_ph in _unity_weights_dd((f_hi, f_lo, fp_hi, fp_lo),
                                            (a_hi, a_lo, a_ph), lgf, n_float):
        certs.append(check_leq("even-weight-unity", max(abs(c_log), abs(c_ph)), tol,
                               "even-weight-unity", m))
    if raise_on_failure:
        _raise_if_failed(certs)
    return f, certs


def primitive_gap_offset(n: int) -> int:
    """Derivative offset of the n-th stacked block: ``k_n = (n-1)(n+2)/2``."""
    return (n - 1) * (n + 2) // 2


def stacked_primitive_g(dense: DenseTestSeq, blocks: int,
                        seminorm_k: int = 1) -> SeqVector:
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
            taylor[kn + j] = abs(dense.value(nblk, j - 1))
        slot = kn + nblk + 1
        if slot <= top:
            taylor[slot] = 1.0 / math.sqrt(2.0 * slot)
    coeffs = [taylor[i] / math.factorial(i) for i in range(top + 1)]
    return SeqVector.from_complex(SpaceTag.hc(seminorm_k), coeffs)


def primitive_block(dense: DenseTestSeq, nblk: int, seminorm_k: int = 1) -> SeqVector:
    """``P_n`` alone, as monomial coefficients (degree n, no constant term)."""
    coeffs = [0.0] * (nblk + 1)
    for j in range(1, nblk + 1):
        coeffs[j] = abs(dense.value(nblk, j - 1)) / math.factorial(j)
    return SeqVector.from_complex(SpaceTag.hc(seminorm_k), coeffs)


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
    stages: list             # Q_1 .. Q_K as vectors (each extends the previous)


def coefficient_constant(limit: int = 200) -> float:
    """Log of the smallest C >= 1 with ``j**((F(k+1)-1)/F(k)) <= C 2**j`` for all j, k."""
    cache = FibCache(limit + 1)
    best = 0.0
    for k in range(1, limit + 1):
        e = (cache(k + 1) - 1) / cache(k)
        for j in range(1, limit + 1):
            best = max(best, e * math.log(j) - j * LN2)
    return best


def hc_Q_blocks(dense: DenseTestSeq, K: int, pad: int = 8,
                tol: float = 1e-8, raise_on_failure: bool = True) -> QBlocks:
    """Build K blocks of the universal function for evaluation-times-derivative.

    Block 1 fixes degree 3; each later block appends a free low coefficient,
    the factorial-scaled test polynomial, a stretch of ones, and a free top
    coefficient, then solves the two monomial equations making the next two
    orbit weights equal to one (principal root branch).  Certified per block:
    the two weights are 1 to ``tol`` in log magnitude and phase (checked
    through the two-term recursion, an independent route from the solver's
    direct exponent sums), and the solved coefficients obey
    ``|alpha_{j+1}| <= C 2**(n_j + 1)``, ``|beta_{j+1}| <= C 2**n_{j+1}``.
    """
    if K < 1:
        raise ParameterRangeError("need K >= 1 blocks")
    if pad < 0:
        raise ParameterRangeError("pad must be >= 0")
    ns = [3]
    taylor: dict[int, LogComplex] = {}

    # block 1: indices 0..3 hold alpha_1, a_{0,1}, a_{1,1}, beta_1
    a01 = LogComplex.from_real(dense.value(1, 0))
    a11 = LogComplex.from_real(dense.value(1, 1))
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
        nj1 = nj + j + 4 + pad
        ns.append(nj1)
        for i in range(0, j + 2):
            taylor[nj + 2 + i] = LogComplex.from_real(
                math.factorial(i) * dense.value(j + 1, i))
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

    # assemble monomial coefficients and the per-block stages
    top = ns[-1]
    coeffs = []
    for i in range(top + 1):
        t = taylor[i]
        coeffs.append(LogComplex.zero() if t.is_zero else
                      LogComplex(t.log_mag - math.lgamma(i + 1.0), t.phase))
    Q = SeqVector.from_logc(SpaceTag.hc(1), coeffs)
    stages = [Q.truncate(ns[j] + 1) for j in range(K)]

    # certificates via the two-term recursion (independent of the solver path)
    spec = m_fg_prime(1)
    one_fn = SeqVector.from_complex(SpaceTag.hc(1), [1.0])
    led = ledger(spec, (one_fn, Q), ns[-1] + 2)
    verifies = "unit-weight-blocks"
    certs = []
    for j in range(K):
        for off in (1, 2):
            c = led.c(ns[j] + off)
            worst = max(abs(c.log_mag), abs(c.phase))
            certs.append(check_leq("unit-weight", worst, tol, verifies, ns[j] + off))
    C_log = max(0.0, coefficient_constant())
    for j in range(1, K):
        certs.append(check_leq("alpha-bound", alphas[j].log_mag,
                               C_log + (ns[j - 1] + 1) * LN2, verifies, j + 1))
        certs.append(check_leq("beta-bound", betas[j].log_mag,
                               C_log + ns[j] * LN2, verifies, j + 1))
    if raise_on_failure:
        _raise_if_failed(certs)
    return QBlocks(Q, ns, alphas, betas, C_log, certs, stages)


# ---------------------------------------------------------------------------
# symmetric preimages
# ---------------------------------------------------------------------------


def symmetric_preimage(x0: SeqVector, lam: LogComplex,
                       w: WeightSeq | None = None):
    """Preimage pair for the symmetrized shift operator: ``M(x, y) = x0`` for any lam.

    ``x = e_1 + lam * S_w(x0) + sum_{i>=2} e_i / i**2`` and
    ``y = e_1 - (lam - 2) * S_w(x0) - sum_{i>=2} e_i / i**2``; both first
    coordinates are 1 and the shifted parts average back to ``S_w(x0)``, so
    the dependence on lam cancels identically.  Returns ``(x, y, residual)``
    with the residual the log l1 distance of ``M(x, y)`` from ``x0``.
    """
    w = w or WeightSeq.inv_squares()
    if x0.space.kind != "l1":
        raise ParameterRangeError("preimage construction lives on l1")
    L = len(x0) + 2
    tag = SpaceTag.l1()

    i = np.arange(2, L + 1, dtype=float)
    tail_hi = np.concatenate(([LOG_ZERO], -2.0 * np.log(i)))
    tail = SeqVector(tag, tail_hi, np.zeros(L), np.zeros(L))
    e1 = SeqVector.basis(tag, L, 1)

    s_x0 = forward_pow(x0, w, 1)._padded(L)
    lam_m2 = lam.add(LogComplex.from_real(-2.0))
    x = e1.add(s_x0.scale(lam)).add(tail)
    y = e1.add(s_x0.scale(lam_m2).neg()).add(tail.neg())

    out = apply(m_symmetric(), (x, y))
    resid = norm(out.sub(x0._padded(len(out))))
    return x, y, resid


# ---------------------------------------------------------------------------
# ray bisection toward the zero-basin boundary
# ---------------------------------------------------------------------------


@dataclass
class JuliaProbe:
    """A certified bracket around a classification flip along a ray."""

    direction: SeqVector
    t_lo: float
    t_hi: float
    class_lo: OrbitClass
    class_hi: OrbitClass
    bisection_steps: int
    truncation: int
    iteration_budget: int

    @property
    def width(self) -> float:
        return self.t_hi - self.t_lo


def classify_polynomial_ray(v: SeqVector, t: float, w: WeightSeq | None = None,
                            truncation: int = 200, iters: int = 500,
                            tol: float = 1e-12, consecutive: int = 10) -> OrbitClass:
    """Classify the iteration of the induced square map ``P(x) = x_1 B_w(x)``
    along the ray point ``t * v``.
    """
    w = w or WeightSeq.inv_squares()
    spec = replace(m_l1(), name="p_diag", weights=w)
    s = v.truncate(truncation).scale(LogComplex.from_real(t))
    log_tol = math.log(tol)
    run = 0
    prev = math.inf
    for _ in range(iters):
        if len(s) <= 1:
            return OrbitClass.UNDECIDED
        s = apply(spec, (s, s))
        ln = norm(s)
        if ln > -log_tol:
            return OrbitClass.ESCAPING
        if ln < log_tol and ln <= prev:
            run += 1
            if run >= consecutive:
                return OrbitClass.CONVERGES_TO_ZERO
        else:
            run = 0
        prev = ln
    return OrbitClass.UNDECIDED


def julia_ray_bisection(w: WeightSeq, v: SeqVector, t_lo: float, t_hi: float,
                        tol: float = 1e-9, truncation: int = 200,
                        iters: int = 500) -> JuliaProbe:
    """Bisect a ray for the boundary of the zero basin of ``P(x) = x_1 B_w(x)``.

    Requires the low endpoint to classify as converging and the high endpoint
    as not converging; narrows the bracket to ``tol`` and re-verifies both
    endpoint classifications.  The returned bracket is a numerical certificate
    of proximity to the basin boundary along the ray, nothing stronger.
    """
    if not (0 <= t_lo < t_hi):
        raise BadBracketError("need 0 <= t_lo < t_hi")

    def cls(t: float) -> OrbitClass:
        return classify_polynomial_ray(v, t, w, truncation, iters)

    c_lo, c_hi = cls(t_lo), cls(t_hi)
    if c_lo is not OrbitClass.CONVERGES_TO_ZERO:
        raise BadBracketError(f"low endpoint classifies {c_lo.value}")
    if c_hi is OrbitClass.CONVERGES_TO_ZERO:
        raise BadBracketError("high endpoint also converges to zero")
    steps = 0
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if cls(mid) is OrbitClass.CONVERGES_TO_ZERO:
            t_lo = mid
        else:
            t_hi = mid
        steps += 1
        if steps > 200:
            raise BadBracketError("bisection failed to narrow the bracket")
    c_lo, c_hi = cls(t_lo), cls(t_hi)
    if c_lo is not OrbitClass.CONVERGES_TO_ZERO or c_hi is OrbitClass.CONVERGES_TO_ZERO:
        raise BadBracketError("endpoint classifications did not survive re-verification")
    return JuliaProbe(v, t_lo, t_hi, c_lo, c_hi, steps, truncation, iters)


def dominates(x: SeqVector, y: SeqVector) -> bool:
    """Coordinate-wise ``|x_i| >= |y_i|`` (the monotone comparison hypothesis)."""
    n = max(len(x), len(y))
    lx, ly = x._padded(n).lm, y._padded(n).lm
    return bool(np.all((lx >= ly) | np.isneginf(ly)))


def factorial_tail_direction(truncation: int = 200, head: float = 1.0) -> SeqVector:
    """The ray direction with first coordinate ``head`` and tail ``1/(i-1)!**2``."""
    i = np.arange(truncation, dtype=float)
    hi = -2.0 * np.array([math.lgamma(v + 1.0) for v in i])
    hi[0] = math.log(head) if head > 0 else LOG_ZERO
    return SeqVector(SpaceTag.l1(), hi, np.zeros(truncation), np.zeros(truncation))
