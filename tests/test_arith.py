"""Exact integer machinery and log-domain scalar arithmetic."""

import math
import os
import random
import subprocess
import sys
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, psi

import hyperorbit
from hyperorbit import arith
from hyperorbit.arith import (
    LOG_ZERO,
    FibCache,
    IdentityReport,
    LogComplex,
    a_closed,
    a_recursion,
    check_fib_identities,
    complex_parts,
    even_sum_failure,
    fib,
    fib_partial_sum_ok,
    logc_add,
    logc_mul,
    normalize_phase,
    phase_times_int,
    pi_fixed,
    polar_parts,
)
from hyperorbit.constructions import _zeta2_tail
from hyperorbit.errors import ParameterRangeError
from hyperorbit.spaces import SeqVector, SpaceTag
from oracles import a_naive, to_complex


def _identities_table_scan(N, cache):
    """Oracle: every Vajda instance computed, one product table ``H[a][b]``
    and one row of ``j`` values compared at a time."""
    F = cache.prefix(N)
    n = even_sum_failure(cache, N // 2)
    if n is not None:
        return IdentityReport(False, n, ("even-sum", n))
    checked = N // 2
    H = [list(map(fa.__mul__, F)) for fa in F]
    for m in range(1, N - 1):
        Hm = H[m]
        for i in range(1, N - m):
            # rows over j = 1 .. N-m-i of F(m+i)F(m+j), F(m)F(m+i+j) and
            # F(i)F(j); for odd m the left side flips sign instead of the right
            a, b = H[m + i][m + 1:N - i + 1], Hm[m + i + 1:N + 1]
            lhs = list(map(sub, a, b) if m % 2 == 0 else map(sub, b, a))
            rhs = H[i][1:N - m - i + 1]
            if lhs != rhs:
                j = next(k for k, (x, y) in enumerate(zip(lhs, rhs), 1) if x != y)
                return IdentityReport(False, checked + j - 1, ("vajda", m, i, j))
            checked += len(rhs)
    return IdentityReport(True, checked)


def _instances(N):
    """The even-index sums and Vajda instances (m + i + j <= N) up to N."""
    return N // 2 + math.comb(N, 3)


def _identities_triple_loop(N, cache):
    """Reference: every Vajda instance as its own big-integer expression."""
    F = cache.prefix(N)
    checked = 0
    acc = 0
    for n in range(1, N // 2 + 1):
        acc += F[2 * n - 1]
        checked += 1
        if F[2 * n] != acc:
            return IdentityReport(False, checked, ("even-sum", n))
    for m in range(1, N - 1):
        sign = 1 if m % 2 == 0 else -1
        for i in range(1, N - m):
            for j in range(1, N - m - i + 1):
                if F[m + i] * F[m + j] - F[m] * F[m + i + j] != sign * F[i] * F[j]:
                    return IdentityReport(False, checked, ("vajda", m, i, j))
                checked += 1
    return IdentityReport(True, checked)


class TestFibonacci:
    def test_base_cases(self):
        assert fib(1) == 1
        assert fib(2) == 1

    def test_unrolled_prefix(self):
        # 1, 1, 2, 3, 5, 8, 13, 21, 34, 55 by hand
        assert [fib(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_even_sum_small(self):
        # F(4) = F(1) + F(3) = 1 + 2 = 3
        assert fib(4) == fib(1) + fib(3) == 3

    def test_vajda_small(self):
        # m=2, i=j=1: F(3)^2 - F(2) F(4) = 4 - 3 = 1 = (+1) F(1) F(1)
        assert fib(3) ** 2 - fib(2) * fib(4) == fib(1) * fib(1) == 1

    def test_identities_exhaustive_200(self):
        rep = check_fib_identities(200, FibCache(200))
        assert rep.ok
        assert rep.checked > 10**6

    def test_corrupted_cache_detected(self):
        cache = FibCache(64)
        cache._corrupt_for_testing(40)
        rep = check_fib_identities(64, cache)
        assert not rep.ok
        assert rep.first_failure is not None

    def test_even_sum_failure_is_first_bad_index(self):
        assert even_sum_failure(FibCache(80), 40) is None
        # F(k) enters the running sum at s = (k + 1) // 2, or is F(2s) there
        for k in (1, 2, 3, 40, 79, 80):
            for delta in (1, -1):
                cache = FibCache(80)
                cache._corrupt_for_testing(k, delta)
                assert even_sum_failure(cache, 40) == (k + 1) // 2

    def test_partial_sums_500(self):
        assert fib_partial_sum_ok(500, FibCache(502))

    @pytest.mark.parametrize("k", [1, 3, 30, 62])
    def test_partial_sums_read_the_cache(self, k):
        cache = FibCache(62)
        cache._corrupt_for_testing(k)
        assert not fib_partial_sum_ok(60, cache)

    @pytest.mark.parametrize("N", [3, 4, 10, 57, 200])
    def test_identity_report_matches_triple_loop(self, N):
        # clean cache, then +-1 at the indices that reach both loops' failure
        # paths; the audit by recurrence passes and fails with the oracles
        cases = [(None, 0)] + [(k, d) for k in sorted({1, 2, 3, N // 2, N}) for d in (1, -1)]
        for index, delta in cases:
            caches = FibCache(N), FibCache(N), FibCache(N)
            if index is not None:
                for c in caches:
                    c._corrupt_for_testing(index, delta)
            oracle = _identities_table_scan(N, caches[0])
            assert oracle == _identities_triple_loop(N, caches[1])
            assert check_fib_identities(N, caches[2]).ok == oracle.ok

    def test_audit_and_scan_pass_for_every_N(self):
        for N in range(3, 201):
            rep = check_fib_identities(N, FibCache(N))
            oracle = _identities_table_scan(N, FibCache(N))
            assert rep.ok and oracle.ok
            assert rep.checked == oracle.checked == _instances(N)
        # the rows j = 1, 2 of every (m, i), the even sums and the N + 1 entries
        assert rep.computed == 39204 + 100 + 201

    def test_audit_and_scan_fail_on_every_single_entry(self):
        for k in range(1, 201):
            caches = FibCache(200), FibCache(200)
            for c in caches:
                c._corrupt_for_testing(k)
            assert not _identities_table_scan(200, caches[0]).ok
            assert check_fib_identities(200, caches[1]).first_failure == ("recurrence", k)
        # no Vajda instance or even sum reads F(0); the recurrence does
        caches = FibCache(200), FibCache(200)
        for c in caches:
            c._corrupt_for_testing(0)
        assert _identities_table_scan(200, caches[0]).ok
        assert check_fib_identities(200, caches[1]).first_failure == ("recurrence", 0)

    @pytest.mark.parametrize("seeds, first_bad", [((2, 1), 0), ((0, 2), 1)],
                             ids=["lucas", "doubled"])
    def test_wrong_seed_fails_though_the_recurrence_holds(self, seeds, first_bad):
        cache = FibCache(200)
        F = cache._values
        F[0], F[1] = seeds
        for n in range(2, len(F)):
            F[n] = F[n - 1] + F[n - 2]
        rep = check_fib_identities(200, cache)
        assert not rep.ok and rep.first_failure == ("recurrence", first_bad)
        assert rep.checked == 0

    def test_audit_to_600(self):
        rep = check_fib_identities(600, FibCache(600))
        assert rep.ok and rep.checked == _instances(600)

    def test_cache_growth(self):
        cache = FibCache(4)
        assert cache(300) == cache(299) + cache(298)


class TestASeq:
    def test_base_case(self):
        assert a_recursion(1) == [0, 1] and a_closed(1) == 1

    def test_a4_by_recursion(self):
        # a_4 = 4 - (a_3 F(3) + a_2 F(5) + a_1 F(7)) = 4 - (-4 + 0 + 13) = -5
        a = a_recursion(4)
        assert a[3] == -2 and a[2] == 0
        assert 4 - (a[3] * fib(3) + a[2] * fib(5) + a[1] * fib(7)) == -5
        assert a[4] == -5

    def test_a4_closed_form(self):
        assert a_closed(4) == 1 - 4 * 3 // 2 == -5

    def test_matches_naive_oracle(self):
        # literal O(n^2) evaluation of the defining sum
        assert a_naive(300) == a_recursion(300)

    def test_closed_form_everywhere(self):
        # the recursion, the int rule and the int64 rule agree; the int64
        # values stay exact up to the gap scan's cap
        a = a_recursion(2000)
        n = np.arange(1, 2001, dtype=np.int64)
        assert a[1:] == [a_closed(k) for k in range(1, 2001)] == a_closed(n).tolist()
        cap = np.array([10**6], dtype=np.int64)
        assert a_closed(cap).tolist() == [a_closed(10**6)] == [1 - 10**6 * (10**6 - 1) // 2]
        assert float(a_closed(cap)[0]) == a_closed(10**6)

    def test_range_errors(self):
        with pytest.raises(ParameterRangeError):
            a_recursion(0)


class TestLogComplexBasics:
    def test_polar_multiplication(self):
        p = logc_mul(LogComplex(math.log(2), math.pi / 2),
                     LogComplex(math.log(3), math.pi / 2))
        assert p.log_mag == pytest.approx(math.log(6), rel=1e-15)
        assert p.phase == math.pi

    def test_zero_absorbs(self):
        z = LogComplex.zero()
        b = LogComplex(5.0, 1.0)
        assert logc_mul(z, b).is_zero
        assert logc_mul(b, z).is_zero
        assert z.phase == 0.0

    def test_add_negation_cancels(self):
        s = logc_add(LogComplex(0.0, 0.0), LogComplex(0.0, math.pi))
        assert s.is_zero

    def test_add_zero_identity_bitwise(self):
        b = LogComplex(123.456, -2.7)
        s = logc_add(LogComplex.zero(), b)
        assert s.log_mag == b.log_mag and s.phase == b.phase

    def test_add_3_plus_4i(self):
        s = logc_add(LogComplex(math.log(3), 0.0),
                     LogComplex(math.log(4), math.pi / 2))
        assert s.log_mag == pytest.approx(math.log(5), rel=1e-14)
        assert s.phase == pytest.approx(math.atan2(4, 3), abs=1e-14)

    def test_root_of_minus_one(self):
        r = LogComplex(0.0, math.pi).root(2)
        assert r.log_mag == 0.0
        assert r.phase == pytest.approx(math.pi / 2, abs=0)

    def test_root_identity(self):
        a = LogComplex(1.25, 0.5)
        assert a.root(1) is a

    def test_root_components(self):
        r = LogComplex(math.log(8), 0.9).root(3)
        assert r.log_mag == pytest.approx(math.log(2), rel=1e-15)
        assert r.phase == pytest.approx(0.3, rel=1e-15)

    def test_round_trip_complex(self):
        for z in (1 + 2j, -3.5j, 0j, 17.0, -2.0 + 0.001j):
            back = to_complex(LogComplex.from_complex(z))
            assert back == pytest.approx(z, abs=1e-15 * max(1.0, abs(z)))

    def test_pow_big_fibonacci_exponent(self):
        # oracle: full-precision product reduced mod 2*pi
        f50 = fib(50)
        a = LogComplex(math.log(5), 0.3)
        p = a.pow_int(f50)
        with mp.workprec(200):
            want = mp.fmod(mp.mpf(f50) * mp.mpf(0.3), 2 * mp.pi)
            if want > mp.pi:
                want -= 2 * mp.pi
            want_phase = float(want)
            want_log = float(mp.mpf(f50) * mp.log(5))
        assert p.log_mag == pytest.approx(want_log, rel=1e-15)
        assert p.phase == pytest.approx(want_phase, abs=1e-13)

    def test_pow_zero_and_one(self):
        assert LogComplex.zero().pow_int(3).is_zero
        a = LogComplex(2.0, 1.0)
        assert a.pow_int(0).log_mag == 0.0
        with pytest.raises(ZeroDivisionError):
            LogComplex.zero().pow_int(0)

    def test_pow_unit_modulus_astronomical_exponent(self):
        for n in (10**400, -(10**400)):
            p = LogComplex(0.0, 0.3).pow_int(n)
            assert p.log_mag == 0.0
            assert -math.pi < p.phase <= math.pi

    def test_add_subnormal_phase(self):
        # atan2 underflows here; cmath.phase raised OverflowError
        s = LogComplex(0.0, 0.0).add(LogComplex(0.0, 5e-324))
        assert s.log_mag == math.log(2.0) and s.phase == 0.0
        z = LogComplex.from_complex(2 + 5e-324j)
        assert z.log_mag == math.log(2.0) and z.phase == 0.0

    def test_from_polar_rejects_nan(self):
        for lm, ph in ((math.nan, 0.0), (0.0, math.nan), (LOG_ZERO, math.nan)):
            with pytest.raises(ParameterRangeError):
                LogComplex.from_polar(lm, ph)

    def test_polar_parts_is_the_from_polar_rule(self):
        # -inf is the canonical zero whatever the phase; other phases reduce
        assert polar_parts(LOG_ZERO, 2.0) == (LOG_ZERO, 0.0)
        for ph in (3 * math.pi, -math.pi, 7.5, 1e6):
            assert polar_parts(1.0, ph) == (1.0, normalize_phase(ph))
            z = LogComplex.from_polar(1.0, ph)
            assert (z.log_mag, z.phase) == polar_parts(1.0, ph)
        for lm, ph in ((math.nan, 0.0), (LOG_ZERO, math.nan)):
            with pytest.raises(ParameterRangeError):
                polar_parts(lm, ph)

    def test_complex_parts_is_the_from_complex_rule(self):
        assert complex_parts(0j) == complex_parts(complex(-0.0, -0.0)) == (LOG_ZERO, 0.0)
        for z in (3 + 4j, complex(-1.0, -0.0), -2.5 + 0j, 1e-320j, complex(1e308, 1e308)):
            parts = (math.log(abs(z)), normalize_phase(math.atan2(z.imag, z.real)))
            assert complex_parts(z) == parts
            w = LogComplex.from_complex(z)
            assert (w.log_mag, w.phase) == parts
        assert complex_parts(complex(-1.0, -0.0))[1] == math.pi
        # a real value: log|x| with phase 0 or pi, the rule from_real always had
        for x in (2.5, -2.5, 1e-320, -1e308, math.inf, -math.inf):
            w = LogComplex.from_real(x)
            assert (w.log_mag, w.phase) == (math.log(abs(x)), 0.0 if x > 0 else math.pi)
        assert LogComplex.from_real(-0.0) == LogComplex.zero()
        with pytest.raises(ParameterRangeError):
            LogComplex.from_real(math.nan)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, math.nan)])
    def test_from_complex_rejects_nan(self, z):
        with pytest.raises(ParameterRangeError):
            LogComplex.from_complex(z)
        with pytest.raises(ParameterRangeError):
            complex_parts(z)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            LogComplex.one().div(LogComplex.zero())


def _pi_convergent_numerators(depths):
    """Numerators p_k of the continued-fraction convergents of pi: ``2 p_k``
    lies within about ``2 / q_k`` of a multiple of 2*pi."""
    with mp.workprec(4000):
        x = mp.pi
        p_prev, p = 1, int(mp.floor(x))
        out = []
        for k in range(1, max(depths) + 1):
            x = 1 / (x - mp.floor(x))
            p_prev, p = p, int(mp.floor(x)) * p + p_prev
            if k in depths:
                out.append(p)
    return out


class TestPhaseReduction:
    @given(st.floats(-math.pi, math.pi, allow_nan=False), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_against_high_precision(self, phase, k):
        n = fib(k)
        got = phase_times_int(phase, n)
        with mp.workprec(n.bit_length() + 120):
            want = mp.fmod(mp.mpf(n) * mp.mpf(phase), 2 * mp.pi)
            want = float(want)
        assert abs(math.remainder(got - want, 2 * math.pi)) < 1e-12
        assert -math.pi < got <= math.pi

    def test_bit_equal_to_wide_fmod(self):
        # the reference reduces with mpmath at >= 400 bits; one rounding to a
        # double separates both sides, so they agree bit for bit.  (-pi, 2)
        # and (pi, -2) leave about 2.4e-16: an mpmath reduction at the
        # exponent's bits plus 80 loses digits there (2.449293605908662e-16)
        rng = random.Random(20)
        phases = [5e-324, -5e-324, 1e-310, -3e-320, math.pi, -math.pi,
                  math.nextafter(math.pi, 0.0), 2.0, -2.0, 0.5, 1e-300, 1.0]
        phases += [rng.uniform(-math.pi, math.pi) for _ in range(40)]
        # with the phases 2.0 and -2.0, the convergents of pi leave remainders
        # far below the first pass's error bound, on either side of a multiple
        # of 2*pi, so the reduction is redone wider
        exponents = [1, 2, -1, -2, fib(300), fib(899), 10**400, -(10**400)]
        exponents += _pi_convergent_numerators((40, 41, 150, 151))
        exponents += [rng.getrandbits(rng.randint(1, 3000)) * rng.choice((1, -1))
                      for _ in range(16)]
        for phase in phases:
            for n in exponents:
                with mp.workprec(max(400, abs(n).bit_length() + 400)):
                    want = normalize_phase(float(mp.fmod(mp.mpf(n) * mp.mpf(phase),
                                                         2 * mp.pi)))
                assert phase_times_int(phase, n) == want, (phase, n)
        assert phase_times_int(-math.pi, 2) == phase_times_int(math.pi, -2) == (
            2.4492935982947064e-16)

    def test_pi_fixed_within_one_unit_at_any_cached_precision(self, monkeypatch):
        # from an empty cache: 2000 and 5000 bits sum the series, the others
        # read the cache by right shift
        monkeypatch.setattr(arith, "_PI", (0, 0))
        for bits in (2000, 64, 300, 1999, 5000, 100):
            with mp.workprec(bits + 64):
                err = mp.mpf(pi_fixed(bits)) - mp.pi * mp.mpf(2) ** bits
            assert abs(err) <= 1

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_normalize_range(self, p):
        q = normalize_phase(p)
        assert -math.pi < q <= math.pi


def test_zeta2_tail_is_trigamma():
    assert [_zeta2_tail(j) for j in range(1, 301)] == [
        float(psi(1, j)) for j in range(1, 301)]


def test_import_leaves_mpmath_out():
    # a fresh interpreter: mpmath is a test oracle, not a runtime dependency
    src = os.path.dirname(os.path.dirname(hyperorbit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hyperorbit.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# magnitudes away from over/underflow so the complex-double reference exists
_mag = st.floats(math.log(1e-100), math.log(1e100))
_ph = st.floats(-math.pi, math.pi, exclude_min=True)
# exact zero, subnormal moduli, huge moduli (|log| >= 1e4) and subnormal phases
_edge_log = st.one_of(st.just(LOG_ZERO), st.floats(-745.0, -708.0),
                      st.floats(1e4, 1e6), st.floats(-1e6, -1e4), _mag)
_edge_ph = st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, math.pi]),
                     st.floats(-1e-307, 1e-307), _ph)


class TestScalarProperties:
    @given(_mag, _mag, _mag, st.sampled_from([0.0, math.pi]),
           st.sampled_from([0.0, math.pi]), st.sampled_from([0.0, math.pi]))
    @settings(max_examples=200, deadline=None)
    def test_mul_associative(self, la, lb, lc, pa, pb, pc):
        a, b, c = LogComplex(la, pa), LogComplex(lb, pb), LogComplex(lc, pc)
        left = logc_mul(logc_mul(a, b), c)
        right = logc_mul(a, logc_mul(b, c))
        # 4 ulp at the scale of the largest intermediate sum
        scale = max(abs(la), abs(lb), abs(lc), abs(la + lb), abs(lb + lc), 1.0)
        assert abs(left.log_mag - right.log_mag) <= 4 * math.ulp(scale)
        # real-axis phases stay exact under wrapping
        assert left.phase == right.phase

    @given(_mag, _ph, _mag, _ph)
    @settings(max_examples=200, deadline=None)
    def test_add_matches_complex_double(self, la, pa, lb, pb):
        a, b = LogComplex(la, pa), LogComplex(lb, pb)
        za, zb = to_complex(a), to_complex(b)
        zs = za + zb
        if abs(zs) < 1e-3 * (abs(za) + abs(zb)):
            return  # catastrophic cancellation: the double reference is noise
        s = logc_add(a, b)
        assert to_complex(s) == pytest.approx(zs, rel=1e-12)

    @given(_edge_log, _edge_ph, _edge_log, _edge_ph)
    @settings(max_examples=300, deadline=None)
    def test_scalar_and_vector_add_agree(self, la, pa, lb, pb):
        a, b = LogComplex.from_polar(la, pa), LogComplex.from_polar(lb, pb)
        s = a.add(b)
        l1 = SpaceTag.l1()
        v = SeqVector(l1, [a.log_mag], [0.0], [a.phase]).add(
            SeqVector(l1, [b.log_mag], [0.0], [b.phase]))
        assert s.is_zero == bool(v.hi[0] == LOG_ZERO)
        if not s.is_zero:
            assert abs(v.lm[0] - s.log_mag) <= 2 * math.ulp(max(1.0, abs(s.log_mag)))
            assert abs(math.remainder(v.phase[0] - s.phase, 2 * math.pi)) <= 4 * math.ulp(math.pi)

    @given(_mag, _ph, st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_root_undoes_power(self, lm, ph, n):
        a = LogComplex(lm, ph)
        r = a.root(n)
        p = r.pow_int(n)
        assert p.log_mag == pytest.approx(a.log_mag, rel=1e-13, abs=1e-13)
        assert abs(math.remainder(p.phase - a.phase, 2 * math.pi)) < 1e-12
