"""Certified builders: companion vectors, gap schedules, universal functions,
steering, preimages, and ray bisection."""

import math

import numpy as np
import pytest

from hyperorbit import constructions
from hyperorbit.arith import LOG_ZERO, FibCache, LogComplex
from hyperorbit.constructions import (
    classify_polynomial_ray,
    companion_x,
    delta_d_pair,
    dense_value,
    dense_vector,
    dominates,
    factorial_tail_direction,
    gap_schedule_search,
    hc_Q_blocks,
    julia_ray_bisection,
    phi_map,
    primitive_gap_offset,
    stacked_primitive_g,
    steer_target_CN,
    steering_weight,
    symmetric_preimage,
    symmetric_preimage_certificates,
    universal_y_l1,
    weight_identity_certificates,
    weight_identity_recursion_error,
)
from hyperorbit.dynamics import LN2, OrbitClass, apply, ledger, m_fg_prime, m_l1, m_symmetric
from hyperorbit.errors import (
    BadBracketError,
    ParameterRangeError,
    SearchOverflowError,
    ZeroCoordinateError,
)
from hyperorbit.rational import QComplex, q_iterate, qvec
from hyperorbit.report import Check, check_flag
from hyperorbit.spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    derivative_pow,
    forward_pow,
    norm,
    shift_pow,
    vector_from_json,
)
from oracles import entry, failures, primitive_block, retag, steering_exact, to_complex

L1 = SpaceTag.l1()
HC = SpaceTag.hc(1)


def cvec(values, space=L1):
    return SeqVector.from_complex(space, values)


class TestDenseTestSeq:
    def test_band_constraint(self):
        # the k-th vector: support exactly [1, k], moduli in [1/k, 1]
        for k in range(1, 21):
            v = dense_vector(k)
            assert len(v) == k
            assert np.all(v.lm >= -math.log(k) - 1e-15) and np.all(v.lm <= 1e-15)

    def test_vector_support(self):
        v = dense_vector(4)
        assert len(v) == 4 and v.space == L1
        assert np.all(~np.isneginf(v.lm))

    def test_unit_band_for_first_object(self):
        assert abs(dense_value(1, 0)) == 1.0


def _unit_weights(monkeypatch):
    """The builders read w_i = 1 where they read the weights 1/i**2."""
    monkeypatch.setattr(WeightSeq, "inv_squares", staticmethod(WeightSeq.ones))


class TestCompanion:
    def test_first_coordinate_free_and_zero(self):
        y = cvec([1.0, 1.0, 1.0])
        x = companion_x(y)
        assert x.coord(1).is_zero

    def test_unit_case_x2(self, monkeypatch):
        # y_1 = 1, w_1 = 1: x_2 = 2**a_1 = 2 and c_2 d_2 = 2
        _unit_weights(monkeypatch)
        y = cvec([1.0, 1.0, 1.0])
        x = companion_x(y)
        assert to_complex(x.coord(2)) == pytest.approx(2.0)

    def test_trivial_products_give_pure_powers(self, monkeypatch):
        # y = 1, w = 1: x_{i+1} = 2**(1 - i(i-1)/2)
        _unit_weights(monkeypatch)
        y = cvec([1.0] * 8)
        x = companion_x(y)
        for i in range(1, 8):
            want = (1 - i * (i - 1) // 2) * math.log(2.0)
            assert x.coord(i + 1).log_mag == pytest.approx(want, rel=1e-14)

    def test_zero_coordinate_rejected(self):
        y = cvec([1.0, 0.0, 1.0, 1.0])
        with pytest.raises(ZeroCoordinateError):
            companion_x(y)

    def test_recursion_route_small_n(self):
        rng = np.random.default_rng(30)
        y = cvec(rng.uniform(0.4, 2.5, 50) * np.exp(1j * rng.uniform(-3, 3, 50)))
        family = weight_identity_recursion_error(companion_x(y), y, 15)
        assert (family.name, family.first, len(family)) == ("recursion-identity", 1, 15)
        assert family.ok

    def test_exact_route_certificates(self):
        certs = weight_identity_certificates(60)
        assert all(c.ok for c in certs)

    @pytest.mark.parametrize("corrupt", [None, 1, 2, 3, 200, 401])
    def test_w_exponent_rows_match_nested_oracle(self, corrupt, monkeypatch):
        # the per-(n, l) expression, O(n_max^2), is the oracle of the one-pass
        # scan over k = n - l, on the clean cache and with one entry off by one
        class Cache(FibCache):
            def __init__(self, prefill):
                super().__init__(prefill)
                if corrupt is not None:
                    self._corrupt_for_testing(corrupt)

        monkeypatch.setattr(constructions, "FibCache", Cache)
        n_max = 200
        cache = Cache(2 * n_max + 3)
        oracle = [all(cache(2 * n + 3 - 2 * l) - 1 - cache(2 * (n - l + 1))
                      - cache(2 * (n - l) + 1) == -1 for l in range(1, n + 1))
                  for n in range(1, n_max + 1)]
        family = entry(weight_identity_certificates(n_max), "w-exponent-is-minus-one")
        assert family.first == 1 and family.passed.tolist() == oracle
        assert all(oracle) == (corrupt is None)

    @pytest.mark.parametrize("off_at", [None, 1, 37, 200])
    def test_two_exponent_rows_match_sum_oracle(self, off_at, monkeypatch):
        # the O(n_max^2) sum over i <= n of a_i F(2(n-i)+1) is the oracle of
        # the one-step P/Q update, on the closed form and with a_{off_at} one
        # too large
        exact = constructions.a_closed
        monkeypatch.setattr(constructions, "a_closed", lambda n: exact(n) + (n == off_at))
        n_max = 200
        cache = FibCache(2 * n_max + 1)
        a = constructions.a_closed
        oracle = [sum(a(i) * cache(2 * (n - i) + 1) for i in range(1, n + 1)) == n
                  for n in range(1, n_max + 1)]
        family = entry(weight_identity_certificates(n_max), "two-exponent-is-n")
        assert family.first == 1 and family.passed.tolist() == oracle
        assert all(oracle) == (off_at is None)

    def test_closed_form_off_by_one_fails_two_exponent(self, monkeypatch):
        # negative control: a_37 one too large breaks sum_i a_i F(2(n-i)+1) = n
        # from n = 37 on, and that is the only family to fail
        exact = constructions.a_closed
        monkeypatch.setattr(constructions, "a_closed", lambda n: exact(n) + (n == 37))
        assert failures(weight_identity_certificates(60)) == [
            ("two-exponent-is-n", list(range(37, 61)))]


class TestPhiMap:
    def test_unit_vector(self):
        y = cvec([1.0, 1.0])
        phi = phi_map(y)
        assert to_complex(phi.coord(1)) == pytest.approx(2.0)  # 2**a_1 * 1 * 1

    def test_scaling_divides_geometrically(self):
        rng = np.random.default_rng(31)
        y = cvec(rng.uniform(0.5, 2, 10))
        y2 = y.scale(LogComplex.from_real(2.0))
        p1, p2 = phi_map(y), phi_map(y2)
        for i in range(1, 11):
            assert p2.coord(i).log_mag - p1.coord(i).log_mag == pytest.approx(
                -i * math.log(2.0), abs=1e-9)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroCoordinateError):
            phi_map(cvec([1.0, 0.0]))


class TestGapSchedule:
    def test_first_boundary_and_minimality(self):
        sch = gap_schedule_search(2)
        n2 = sch.ns[2]
        rec = sch.records[0]
        assert rec["margin_main"] <= 0.0
        assert rec["violated_at_prev"] is None or rec["violated_at_prev"] > 0
        assert rec["tail_monotone"] and rec["derivative_negative"]
        assert n2 > 0 + 2  # nonempty gap

    def test_gaps_nonempty(self):
        sch = gap_schedule_search(3)
        for j in range(2, 4):
            assert sch.ns[j] > sch.ns[j - 1] + j

    def test_margins_all_satisfied(self):
        sch = gap_schedule_search(3)
        for rec in sch.records:
            assert rec["margin_main"] <= 0.0
            assert rec["margin_gap"] < 0.0


def scalar_gap_scan(blocks):
    """The gap scan one n at a time, as it ran before the array scan: the
    reference for :func:`gap_schedule_search`'s ``ns`` and records."""
    ns, records = [None, 0], []
    logs = constructions.LogTable()
    z = constructions._place_block(logs, SeqVector.zeros(L1, 0), 1, 0, 0)
    for j in range(2, blocks + 1):
        n_prev = ns[j - 1]
        pi_log = -sum(z.lm[: n_prev + j - 1].tolist())

        def margins(n):
            if j == 2:
                return (constructions._base_margin(logs, n),
                        constructions._cond3_margin(logs, n, j, n_prev))
            return (constructions._cond4_margin(logs, n, j, n_prev, pi_log),
                    constructions._cond3_margin(logs, n, j, n_prev))

        n = n_prev + j + 1
        while True:
            if n > constructions.SCAN_CAP:
                raise SearchOverflowError(f"n_{j} exceeded the scan cap")
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
        z = constructions._place_block(logs, z, j, n_prev, n)
    return ns, records


class TestGapScanOracle:
    @pytest.mark.parametrize("blocks", [2, 3, 4])
    def test_schedule_and_records_match_scalar_scan(self, blocks):
        sch = gap_schedule_search(blocks)
        ns, records = scalar_gap_scan(blocks)
        assert sch.ns == ns
        assert repr(sch.records) == repr(records)  # types as well as values

    def test_array_margins_are_bitwise_scalar(self):
        sch = gap_schedule_search(4)
        logs = constructions.LogTable()  # the scalar side fills its own table
        for j in range(2, 5):
            n_prev = sch.ns[j - 1]
            pi_log = -sum(sch.z.lm[: n_prev + j - 1].tolist())
            # every n the scan tried, and the probes past the hit
            n = np.arange(n_prev + j + 1, sch.ns[j] + 12, dtype=np.int64)
            vec = [constructions._cond3_margin(sch.logs, n, j, n_prev)]
            ref = [[constructions._cond3_margin(logs, int(k), j, n_prev) for k in n]]
            if j == 2:
                vec.append(constructions._base_margin(sch.logs, n))
                ref.append([constructions._base_margin(logs, int(k)) for k in n])
            else:
                vec.append(constructions._cond4_margin(sch.logs, n, j, n_prev, pi_log))
                ref.append([constructions._cond4_margin(logs, int(k), j, n_prev, pi_log)
                            for k in n])
            for got, want in zip(vec, ref):
                assert got.dtype == np.float64
                assert got.tobytes() == np.array(want).tobytes()

    # n_2 = 94 and n_3 = 1132: caps below, at and above each
    @pytest.mark.parametrize("cap", [93, 94, 500, 1131, 1132, 1200])
    def test_scan_cap_overflows_at_the_same_block(self, cap, monkeypatch):
        monkeypatch.setattr(constructions, "SCAN_CAP", cap)

        def outcome(search):
            try:
                out = search(3)
            except SearchOverflowError as exc:
                return "overflow", str(exc).split()[0]  # "n_j"
            return "ns", out[0] if isinstance(out, tuple) else out.ns

        assert outcome(gap_schedule_search) == outcome(scalar_gap_scan)


@pytest.fixture(scope="module")
def built():
    sch = gap_schedule_search(3)
    return sch, sch.z, universal_y_l1(sch)[1]


def reference_layout(ns):
    """The universal vector's coordinates by their fill rules, one block at a
    time: z_1 at coordinate 1; for block j, the fillers 2**-n_{j-1} / l**2 at
    l = n_{j-1} + j .. n_j, then S_w^{n_j}(z_j / (2**n_j n_j!**2))."""
    J = len(ns) - 1
    total = ns[J] + J
    hi, lo, ph = np.full(total, LOG_ZERO), np.zeros(total), np.zeros(total)
    w = WeightSeq.inv_squares()
    z1 = dense_vector(1)
    hi[0], lo[0], ph[0] = z1.hi[0], z1.lo[0], z1.phase[0]
    for j in range(2, J + 1):
        n_prev, n_j = ns[j - 1], ns[j]
        for l in range(n_prev + j, n_j + 1):
            hi[l - 1] = -n_prev * LN2 - 2.0 * math.log(l)
        s_log = n_j * LN2 + 2.0 * math.lgamma(n_j + 1.0)
        placed = forward_pow(dense_vector(j).scale(LogComplex(-s_log, 0.0)), w, n_j)
        sl = slice(n_j, n_j + j)
        hi[sl], lo[sl], ph[sl] = placed.hi[sl], placed.lo[sl], placed.phase[sl]
    return hi, lo, ph


class TestUniversalLayout:
    @pytest.mark.parametrize("blocks", [2, 3, 4])
    def test_schedule_vector_matches_fill_rules(self, blocks):
        sch = gap_schedule_search(blocks)
        assert sch.ns[2:] == [94, 1132, 20969][: blocks - 1]
        want = reference_layout(sch.ns)
        for got, ref in zip((sch.z.hi, sch.z.lo, sch.z.phase), want):
            assert got.tobytes() == ref.tobytes()


class TestUniversalVector:

    def test_all_certificates_pass(self, built):
        _, _, certs = built
        assert certs and all(c.ok for c in certs)

    def test_residuals_shrink_with_block(self, built):
        _, _, certs = built
        family = entry(certs, "universality-residual")
        assert family.first == 1 and len(family) == 3
        res = family.measured
        assert res[1] <= res[0] and res[2] <= res[1]

    def test_block_norm_bounds(self, built):
        _, _, certs = built
        family = entry(certs, "block-norm")
        assert family.first == 1 and len(family) == 3
        for j, measured in enumerate(family.measured, 1):
            assert measured <= -2 * math.log(j) + 1e-12

    def test_total_norm_finite(self, built):
        _, z, certs = built
        total = [c for c in certs if c.name == "l1-norm"][0]
        assert total.ok
        assert norm(z) == pytest.approx(total.measured)

    def test_residuals_are_full_width_differences(self, built):
        # the residual subtracts z_j from its first j coordinates only: the
        # bits of the difference taken over the whole shifted vector
        sch, z, certs = built
        want = [norm(shift_pow(z, WeightSeq.inv_squares(), sch.ns[j]).scale(LogComplex(
            sch.ns[j] * LN2 + 2.0 * math.lgamma(sch.ns[j] + 1.0), 0.0)).sub(dense_vector(j)))
            for j in range(1, 4)]
        assert entry(certs, "universality-residual").measured.tobytes() == np.array(
            want).tobytes()

    def test_phi_bound_columns_are_math_module_logs(self, built):
        # the columns read the schedule's log table: the bits of phi_map and
        # of math.log on their own
        sch, z, certs = built
        family = entry(certs, "phi-bound")
        assert family.first == sch.ns[2] + 1
        assert family.measured.tobytes() == phi_map(z).lm[sch.ns[2]:].tobytes()
        idx = range(family.first, len(z) + 1)
        assert family.bound.tobytes() == np.array([-2.0 * math.log(i) for i in idx]).tobytes()


class TestLogTable:
    def test_entries_are_math_module_bits(self):
        # lookups that grow the table in uneven steps, past its capacity
        # and back below it, as ints and as arrays
        logs = constructions.LogTable()
        assert (logs.log(0), logs.log_factorial(0)) == (-math.inf, 0.0)
        for top in (1, 5, 3, 100, 2, 3000, 70000, 10):
            i = np.arange(1, top + 1)
            assert logs.log(i).tobytes() == np.array(
                [math.log(k) for k in range(1, top + 1)]).tobytes()
            assert logs.log_factorial(i).tobytes() == np.array(
                [math.lgamma(k + 1.0) for k in range(1, top + 1)]).tobytes()
            assert logs.log(top) == math.log(top)
            assert logs.log_factorial(top) == math.lgamma(top + 1.0)
        assert logs.log(np.arange(0)).shape == logs.log_factorial(np.arange(0)).shape == (0,)


class TestCertificateFailures:
    """Negative controls: each certificate family fails on a broken input at
    the indices it lists as failing, with the measured value and bound of the
    first; the builder does not raise."""

    def test_weight_identity_wrong_weights(self, monkeypatch):
        monkeypatch.setattr(WeightSeq, "inv_squares", staticmethod(WeightSeq.linear))
        certs = weight_identity_certificates(20)
        assert failures(certs) == [("weight-identity-value", list(range(2, 21)))]
        family = entry(certs, "weight-identity-value")
        # w_l = l: at n = 2 the surviving value is log 2 against the closed form
        # 4 log 2
        assert family.bound[1] == 1e-8
        assert family.measured[1] == pytest.approx(0.75, rel=1e-12)

    def test_universal_vector_wrong_weights(self, built, monkeypatch):
        sch = built[0]
        _unit_weights(monkeypatch)
        _, certs = universal_y_l1(sch)
        assert failures(certs) == [("universality-residual", [2, 3])]
        family = entry(certs, "universality-residual")
        assert family.bound[1] == pytest.approx(math.log(2.0 * (math.pi ** 2 / 6 - 1.0)))
        assert family.measured[1] > family.bound[1]

    @pytest.mark.parametrize("idx, measured", [
        (1, 1.0e-6), (5, 5.0e-7), (20, 5.0e-7), (43, 5.0e-7)])
    def test_delta_d_pair_perturbed_f(self, idx, measured, monkeypatch):
        # log |f^(idx)(0)| of the built f off by 1e-6 (relative beyond 1): at
        # the default tolerance the per-index relation fails at idx alone,
        # scaled by the sum of the log moduli it adds up
        build = constructions._dd_cumsum_neg

        def perturbed(hi, lo):
            oh, ol = build(hi, lo)
            oh[idx] += 1e-6 * max(1.0, abs(oh[idx]))
            return oh, ol

        monkeypatch.setattr(constructions, "_dd_cumsum_neg", perturbed)
        g = stacked_primitive_g(8)
        _, certs = delta_d_pair(g)
        assert failures(certs) == [("reciprocal-coefficient", [idx])]
        family = entry(certs, "reciprocal-coefficient")
        assert (family.first, family.bound[idx - 1]) == (1, 1e-9)
        assert family.measured[idx - 1] == pytest.approx(measured, rel=1e-3)


class TestUnitWeightNaN:
    """A NaN in either part of either weight of a block fails that block's
    ``unit-weight`` row, and only that row."""

    @pytest.mark.parametrize("off, part", [(1, "log_mag"), (1, "phase"),
                                           (2, "log_mag"), (2, "phase")])
    def test_nan_weight_fails_its_block(self, off, part, monkeypatch):
        order = hc_Q_blocks(3).ns[1] + off  # a weight of block 2
        build = constructions.ledger

        def with_nan(*args):
            led = build(*args)
            c = led.c

            def patched(n):
                w = c(n)
                if n != order:
                    return w
                parts = {"log_mag": w.log_mag, "phase": w.phase, part: math.nan}
                return LogComplex(parts["log_mag"], parts["phase"])

            led.c = patched
            return led

        monkeypatch.setattr(constructions, "ledger", with_nan)
        assert failures(hc_Q_blocks(3).certificates) == [("unit-weight", [2])]


class TestCheck:
    def test_status_follows_measured_and_bound(self):
        assert Check("x", 1.0, 2.0, "v").to_json() == {
            "name": "x", "status": "pass", "measured": 1.0, "bound": 2.0,
            "margin": -1.0, "verifies": "v"}
        assert Check("x", 2.0, 2.0, "v").ok and Check("x", math.inf, math.inf, "v").ok
        assert not Check("x", 2.5, 2.0, "v").ok
        nan = Check("x", math.nan, 2.0, "v")
        assert not nan.ok and nan.to_json()["status"] == "fail"
        assert check_flag("x", True, "v").ok and not check_flag("x", False, "v").ok


class TestSteering:
    def test_documented_example(self):
        init = [qvec([1]), qvec([1, 1, 1, 1, 1])]
        assert steering_exact(2, init, qvec([7, 0, 0]), 3)

    def test_zero_target_returns_input(self):
        init = [qvec([1]), qvec([1, 1, 1])]
        out = steer_target_CN(2, init, qvec([0, 0]), 2)
        assert all(a.re == b.re for a, b in zip(out[1], init[1]))

    def test_trilinear_with_unit_heads(self):
        init = [qvec([1]), qvec([1]), qvec([1, 2, 3, 4, 5, 6])]
        target = qvec([QComplex.of(5), QComplex.of(-3, 2)])
        assert steering_exact(3, init, target, 4)

    def test_weight_matches_orbit_ratio(self):
        # c_k equals state_k / B^k(x0) on the first live coordinate
        init = [qvec([2]), qvec([3, 5, 7, 11, 13, 17])]
        k = 3
        ck = steering_weight(2, init, k)
        states = q_iterate(2, init, k)
        # state_k = c_k * B^k(x0): coordinate 1 is c_k * x0[k]
        got = states[k - 1][0]
        want = ck * init[1][k]
        assert got.re == want.re and got.im == want.im

    def test_random_integer_targets(self):
        rng = np.random.default_rng(32)
        for m in (2, 3):
            for _ in range(5):
                heads = [qvec([int(rng.integers(1, 6))]) for _ in range(m - 1)]
                x0 = qvec([int(rng.integers(1, 7)) for _ in range(8)])
                t = qvec([int(rng.integers(-9, 10)) for _ in range(4)])
                k = int(rng.integers(1, 5))
                assert steering_exact(m, heads + [x0], t, k)

    def test_preconditions(self):
        with pytest.raises(ZeroCoordinateError):
            steer_target_CN(2, [qvec([0]), qvec([1, 1])], qvec([1]), 1)
        with pytest.raises(ZeroCoordinateError):
            steer_target_CN(2, [qvec([1]), qvec([1, 0, 1])], qvec([1]), 2)
        with pytest.raises(ParameterRangeError):
            steer_target_CN(2, [qvec([1]), qvec([1])], qvec([1]), 0)

    def test_rational_json_with_imaginary_parts(self):
        from fractions import Fraction

        from hyperorbit.rational import q_vector_from_json, q_vector_to_json
        v = [QComplex.of(3, -2), QComplex.of(Fraction(1, 7))]
        back = q_vector_from_json(q_vector_to_json(v))
        assert back[0].re == 3 and back[0].im == -2
        assert back[1].re == Fraction(1, 7) and back[1].im == 0


class TestReciprocalPair:
    def test_two_term_example(self):
        # g^(0)(0)=2, g^(1)(0)=3: f'(0) = 1/2, c_2 = g(0) f'(0) = 1
        g = cvec([2.0, 3.0, 0.5, 0.1], HC)
        f, certs = delta_d_pair(g)
        f = vector_from_json(f)
        assert to_complex(f.coord(2)) == pytest.approx(0.5)
        assert all(c.ok for c in certs)

    def test_unit_coefficients_give_exponential(self):
        n = 12
        g = cvec([1.0 / math.factorial(i) for i in range(n)], HC)
        f, certs = delta_d_pair(g)
        f = vector_from_json(f)
        for i in range(n):
            assert to_complex(f.coord(i + 1)) == pytest.approx(
                1.0 / math.factorial(i), rel=1e-12)
        assert all(c.ok for c in certs)

    def test_fifty_random_sequences(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            mags = rng.uniform(0.3, 3.0, 31)
            ph = rng.uniform(-np.pi, np.pi, 31)
            taylor = mags * np.exp(1j * ph)
            coeffs = [taylor[i] / math.factorial(i) for i in range(31)]
            g = cvec(coeffs, HC)
            _, certs = delta_d_pair(g)
            assert all(c.ok for c in certs)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroCoordinateError):
            delta_d_pair(cvec([1.0, 0.0, 1.0], HC))

    def test_single_coefficient(self):
        # f = 1 and no coefficient to relate; the one exponent row still runs
        f, certs = delta_d_pair(cvec([2.0], HC))
        f = vector_from_json(f)
        assert to_complex(f.coord(1)) == 1.0
        # row 1 certifies c_2
        (family,) = certs
        assert (family.name, family.first, len(family), family.ok) == (
            "reciprocal-exponent-telescopes", 1, 1, True)

    def test_stacked_primitive_residual_decreases(self):
        blocks = 9
        g = stacked_primitive_g(blocks)
        for k in (1, 2, 3):
            gk = retag(g, SpaceTag.hc(k))
            prev = None
            for nblk in range(2, blocks):
                resid = norm(derivative_pow(gk, primitive_gap_offset(nblk)).sub(
                    retag(primitive_block(nblk), SpaceTag.hc(k))))
                if prev is not None:
                    assert resid < prev
                prev = resid

    def test_stacked_primitive_feeds_pair(self):
        g = stacked_primitive_g(8)
        f, certs = delta_d_pair(g)
        assert all(c.ok for c in certs)


class TestUniversalEntireFunction:
    def test_block_one_unit_coefficients(self):
        qb = hc_Q_blocks(1)
        assert qb.alphas[0].log_mag == pytest.approx(0.0, abs=1e-14)
        assert qb.betas[0].log_mag == pytest.approx(0.0, abs=1e-14)
        # the first test polynomial has unit-modulus coefficients: alpha = beta = 1
        assert abs(qb.alphas[0].phase) < 1e-14
        assert abs(qb.betas[0].phase) < 1e-14

    def test_three_blocks_certified(self):
        qb = hc_Q_blocks(3)
        assert all(c.ok for c in qb.certificates)
        units = entry(qb.certificates, "unit-weight")
        assert (units.first, len(units)) == (1, 3)  # row j: both weights of block j
        assert units.measured.max() <= 1e-8

    def test_coefficient_bounds(self):
        qb = hc_Q_blocks(3)
        for name in ("alpha-bound", "beta-bound"):
            family = entry(qb.certificates, name)
            assert (family.first, len(family)) == (2, 2)
            assert np.all(family.measured <= family.bound)

    def test_coefficient_constant_is_one(self):
        # the scan the constant replaces: max over j, k of
        # e_k ln j - j ln 2, floored at 0, with e_k = (F(k+1) - 1) / F(k)
        limit = 400
        cache = FibCache(limit + 1)
        best = 0.0
        for k in range(1, limit + 1):
            e = (cache(k + 1) - 1) / cache(k)
            for j in range(1, limit + 1):
                best = max(best, e * math.log(j) - j * math.log(2.0))
        assert best == 0.0
        assert hc_Q_blocks(2).C_log == 0.0

    def test_derivative_shift_identity(self):
        # with the first block's weights pinned to one, the weight of order n
        # equals the weight of order n-4 of the 4-th derivative
        qb = hc_Q_blocks(2)
        n2 = qb.ns[1]
        q2 = vector_from_json(qb.Q).truncate(n2 + 1)
        spec = m_fg_prime()
        one_fn = cvec([1.0], HC)
        led_q = ledger(spec, (one_fn, q2), n2 + 2)
        led_d4 = ledger(spec, (one_fn, derivative_pow(q2, 4)), n2 - 2)
        for n in range(5, n2 + 3):
            a, b = led_q.c(n), led_d4.c(n - 4)
            assert a.log_mag == pytest.approx(b.log_mag, abs=1e-9)
            assert abs(math.remainder(a.phase - b.phase, 2 * math.pi)) < 1e-9

    def test_beta_tends_to_one_as_gap_grows(self, monkeypatch):
        devs = []
        for pad in (2, 8, 16, 26):
            monkeypatch.setattr(constructions, "Q_PAD", pad)
            qb = hc_Q_blocks(2)
            assert qb.ns[1] == 3 + 1 + 4 + pad
            devs.append(abs(qb.betas[1].log_mag))
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 1e-4


class TestSymmetricPreimage:
    def test_target_3e1_any_lambda(self):
        x0 = cvec([3.0, 0.0, 0.0])
        for lam in (LogComplex.from_real(5.0), LogComplex.from_complex(-2 + 7j),
                    LogComplex.from_real(2.0), LogComplex.zero()):
            x, y, resid = symmetric_preimage(x0, lam)
            assert resid - norm(x0) <= math.log(1e-12)

    def test_zero_target_with_nonzero_pair(self):
        x0 = SeqVector.zeros(L1, 4)
        x, y, resid = symmetric_preimage(x0, LogComplex.from_real(3.0))
        assert resid == LOG_ZERO
        assert norm(x) > LOG_ZERO and norm(y) > LOG_ZERO

    def test_random_targets_and_lambdas(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            support = int(rng.integers(1, 11))
            vals = rng.normal(size=support) + 1j * rng.normal(size=support)
            x0 = cvec(list(vals))
            base = norm(x0)
            lam = LogComplex.from_complex(
                complex(rng.uniform(0.5, 8.0) * np.exp(1j * rng.uniform(-3, 3))))
            _, _, resid = symmetric_preimage(x0, lam)
            assert resid - base <= math.log(1e-12)

    def test_certificates_rows_and_first_pair(self):
        # 20 rows, one per lam; the returned pair is the first lam's
        x0 = cvec([1.0, -2.0, 0.25])
        x, y, certs = symmetric_preimage_certificates(x0, np.random.default_rng(35))
        x, y = vector_from_json(x), vector_from_json(y)
        (family,) = certs
        assert (family.name, family.verifies, family.first, len(family)) == (
            "preimage-residual", "symmetric-preimage", 0, 20)
        assert family.ok
        rng = np.random.default_rng(35)
        lam = LogComplex.from_complex(complex(rng.uniform(0.5, 8.0)
                                              * np.exp(1j * rng.uniform(-np.pi, np.pi))))
        x1, y1, _ = symmetric_preimage(x0, lam)
        for got, want in ((x, x1), (y, y1)):
            assert got.hi.tobytes() == want.hi.tobytes()
            assert got.phase.tobytes() == want.phase.tobytes()

    def test_lambda_block_rows_are_the_one_lambda_calls(self):
        x0 = cvec([1.0, -2.0, 0.25, 0.0, 3j])
        lams = [LogComplex.from_complex(z) for z in (2.0, -3 + 1j, 0.5j, 7.5, -0.5 - 0.0j)]
        x, y, resids = symmetric_preimage(x0, lams)
        for t, lam in enumerate(lams):
            x1, y1, r1 = symmetric_preimage(x0, lam)
            assert resids[t] == r1
            for got, want in ((x.row(t), x1), (y.row(t), y1)):
                for part in ("hi", "lo", "phase"):
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes()

    def test_one_perturbed_lambda_row_fails_only_its_index(self, monkeypatch):
        # x of row 7 is built from lam * (1 + 1e-6), its y from the true lam:
        # M(x, y) misses x0 there and nowhere else
        scale_rows, calls = constructions.scale_rows, []

        def perturbed(v, scalars):
            scalars = list(scalars)
            if not calls:
                scalars[7] = scalars[7].mul(LogComplex(math.log1p(1e-6), 0.0))
            calls.append(len(scalars))
            return scale_rows(v, scalars)

        x0 = cvec([1.0, -2.0, 0.25])
        assert symmetric_preimage_certificates(x0, np.random.default_rng(36))[2][0].ok
        monkeypatch.setattr(constructions, "scale_rows", perturbed)
        _, _, certs = symmetric_preimage_certificates(x0, np.random.default_rng(36))
        assert calls == [20, 20]
        assert failures(certs) == [("preimage-residual", [7])]

    def test_nan_residual_fails_its_row(self, monkeypatch):
        # a NaN residual is no exact zero: it stays NaN and fails
        residual = constructions._preimage_residual

        def nan_row_3(x0, x, y):
            out = residual(x0, x, y)
            if len(out) == 20:
                out[3] = math.nan
            return out

        monkeypatch.setattr(constructions, "_preimage_residual", nan_row_3)
        _, _, certs = symmetric_preimage_certificates(cvec([1.0, -2.0]),
                                                      np.random.default_rng(37))
        assert failures(certs) == [("preimage-residual", [3])]

    def test_pair_lands_back_exactly_on_first_coords(self):
        x0 = cvec([1.0, -2.0, 0.25])
        x, y, _ = symmetric_preimage(x0, LogComplex.from_real(5.0))
        out = apply(m_symmetric(), (x, y))
        assert np.allclose(to_complex(out)[:3], [1.0, -2.0, 0.25], atol=1e-13)


def _ray_direction(seed):
    """A ray direction like the benchmark's: first coordinate in [0.8, 1.25],
    tail ``U(0.5, 2) / (i!)**2``, 60 coordinates."""
    rng = np.random.default_rng(seed)
    tail = rng.uniform(0.5, 2.0, 59) / np.array([math.factorial(i) ** 2 for i in range(1, 60)],
                                                 dtype=float)
    return cvec([rng.uniform(0.8, 1.25)] + list(tail))


class TestOneOrbitClassifier:
    """The midpoint classes from one orbit of v against the direct classifier."""

    def _replay(self, v, t_lo, t_hi, tol):
        # julia_ray_bisection's loop with the direct classifier at every midpoint
        unit_logs = list(constructions._ray_norm_logs(v, 1.0))
        steps = 0
        while t_hi - t_lo > tol:
            mid = 0.5 * (t_lo + t_hi)
            direct = classify_polynomial_ray(v, mid)
            assert constructions._classify_scaled(unit_logs, mid) is direct, mid
            if direct is OrbitClass.CONVERGES_TO_ZERO:
                t_lo = mid
            else:
                t_hi = mid
            steps += 1
        return t_lo, t_hi, steps

    @pytest.mark.parametrize("seed", range(10))
    def test_bench_like_direction(self, seed):
        v = _ray_direction(seed)
        unit_logs = list(constructions._ray_norm_logs(v, 1.0))
        assert len(unit_logs) == 59  # one coordinate dropped per squaring
        assert (constructions._classify_scaled(unit_logs, 0.0)
                is classify_polynomial_ray(v, 0.0) is OrbitClass.CONVERGES_TO_ZERO)
        probe = julia_ray_bisection(v, 1.0, 20.0, tol=1e-9)
        assert (probe.t_lo, probe.t_hi, probe.bisection_steps) == self._replay(v, 1.0, 20.0, 1e-9)

    def test_orbit_reaching_exact_zero(self):
        # support of 20 coordinates: P^20(t v) = 0 for every t, and t >= 1
        # escapes before that step, so t = 0 must not read as t = 1
        v = cvec([10.0] * 20 + [0.0] * 20)
        unit_logs = list(constructions._ray_norm_logs(v, 1.0))
        assert unit_logs[18] > LOG_ZERO and set(unit_logs[19:]) == {LOG_ZERO}
        for t in (0.0, 0.5, 1.0, 7.0, 1e6):
            assert (constructions._classify_scaled(unit_logs, t)
                    is classify_polynomial_ray(v, t))
        assert classify_polynomial_ray(v, 1.0) is OrbitClass.ESCAPING
        probe = julia_ray_bisection(v, 0.0, 1e6, tol=1e-9)
        assert probe.class_hi is OrbitClass.ESCAPING
        assert (probe.t_lo, probe.t_hi, probe.bisection_steps) == self._replay(v, 0.0, 1e6, 1e-9)


class TestRayBisection:
    def test_ray_point_rows_are_classified_as_their_own_orbits(self):
        # each row of the orbit block is read as its one-point orbit would be:
        # the classes of a block are those of its points alone
        v = factorial_tail_direction(60)
        ts = [1.0, 20.0, 3.0, 0.0, 7.25]
        got = constructions.classify_ray_points(v, ts)
        assert got == [constructions.classify_ray_points(v, [t])[0] for t in ts]
        assert OrbitClass.CONVERGES_TO_ZERO in got and len(set(got)) > 1

        def direct(t):
            # the one-point orbit: t v squared by the induced map, one norm a step
            s = v.truncate(constructions.RAY_WINDOW).scale(LogComplex.from_real(t))
            while len(s) > 1:
                s = apply(m_l1(), (s, s))
                yield norm(s)

        block = list(constructions._ray_norm_logs(v, ts))
        for r, (t, c) in enumerate(zip(ts, got)):
            assert [logs[r] for logs in block] == list(direct(t))
            assert constructions._ray_class(direct(t)) is c

    def test_whole_ray_attracted_is_bad_bracket(self):
        v = cvec([1.0, 1.0] + [0.0] * 6)
        with pytest.raises(BadBracketError):
            julia_ray_bisection(v, 0.5, 50.0, 1e-9)

    def test_inverted_bracket(self):
        v = factorial_tail_direction(60)
        with pytest.raises(BadBracketError):
            julia_ray_bisection(v, 20.0, 1.0, 1e-9)

    def test_input_bracket_when_no_narrower_one_reverifies(self, monkeypatch):
        # past the entry classification the direct classifier answers
        # undecided, so no bisected bracket re-verifies: the input bracket
        # comes back with the classes its ends were given at entry, and the
        # walk back classifies each bisected bracket once, as one pair, and
        # the input not again
        v = factorial_tail_direction(60)
        direct, calls = constructions.classify_ray_points, []

        def entry_only(v, ts):
            calls.append(tuple(ts))
            return direct(v, ts) if len(calls) <= 1 else [OrbitClass.UNDECIDED] * len(ts)

        monkeypatch.setattr(constructions, "classify_ray_points", entry_only)
        probe = julia_ray_bisection(v, 1.0, 20.0, 1e-6)
        assert (probe.t_lo, probe.t_hi) == (1.0, 20.0)
        assert probe.class_lo is OrbitClass.CONVERGES_TO_ZERO
        assert probe.class_hi is direct(v, [20.0])[0]
        assert calls[0] == (1.0, 20.0) and {len(ts) for ts in calls} == {2}
        assert probe.bisection_steps > 0 and len(calls) == 1 + probe.bisection_steps

    def test_factorial_tail_flip(self):
        v = factorial_tail_direction(200)
        probe = julia_ray_bisection(v, 1.0, 20.0,
                                    tol=1e-9)
        assert probe.width <= 1e-9
        assert 3.0 < probe.t_lo < 12.0
        assert probe.class_lo is OrbitClass.CONVERGES_TO_ZERO
        assert probe.class_hi is not OrbitClass.CONVERGES_TO_ZERO
        assert probe.bisection_steps <= 60

    def test_monotone_comparison(self):
        # anything coordinate-dominating a non-converging ray point cannot converge
        v = factorial_tail_direction(200)
        probe = julia_ray_bisection(v, 1.0, 20.0,
                                    tol=1e-6)
        y_edge = v.scale(LogComplex.from_real(probe.t_hi))
        x_big = v.scale(LogComplex.from_real(1.5 * probe.t_hi))
        assert dominates(x_big, y_edge)
        cls = classify_polynomial_ray(v, 1.5 * probe.t_hi)
        assert cls is not OrbitClass.CONVERGES_TO_ZERO
