"""Vectors, norms, shifts, coefficient operators, and the JSON format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from hyperorbit.arith import CANCEL_SNAP, LOG_ZERO, LogComplex
from hyperorbit.errors import DegreeCapError, ParameterRangeError, WrongSpaceError
from hyperorbit.spaces import (
    LOG_FORM_THRESHOLD,
    SeqVector,
    SpaceTag,
    WeightSeq,
    _coord_from_json,
    backward_shift,
    derivative,
    derivative_at_zero,
    derivative_pow,
    eval_at_integer,
    eval_functional,
    forward_pow,
    forward_shift,
    integral,
    log_matvec,
    norm,
    shift_pow,
    translate,
    translate_by,
    vector_from_json,
    vector_to_json,
)

L1 = SpaceTag.l1()


def cvec(values, space=L1):
    return SeqVector.from_complex(space, values)


def _vector_to_json_loop(v):
    """Reference writer: one scalar ``LogComplex`` per coordinate."""
    coords = []
    lm = v.lm
    for i in range(len(v)):
        if np.isneginf(lm[i]):
            coords.append([0.0, 0.0])
        elif abs(lm[i]) <= LOG_FORM_THRESHOLD:
            z = LogComplex(float(lm[i]), float(v.phase[i])).to_complex()
            coords.append([z.real, z.imag])
        else:
            coords.append({"log": float(lm[i]), "phase": float(v.phase[i])})
    obj = {"space": v.space.kind, "coords": coords}
    if v.space.param is not None:
        obj["param"] = v.space.param
    return obj


class TestSpaceTag:
    def test_parameter_validation(self):
        with pytest.raises(ParameterRangeError):
            SpaceTag.lp(0.5)
        with pytest.raises(ParameterRangeError):
            SpaceTag.hc(0)
        with pytest.raises(ParameterRangeError):
            SpaceTag("nope")


class TestNorms:
    def test_l1(self):
        assert math.exp(norm(cvec([1, -2, 0.5]))) == pytest.approx(3.5, rel=1e-15)

    def test_lp2_is_euclidean(self):
        v = cvec([3, 4], SpaceTag.lp(2))
        assert math.exp(norm(v)) == pytest.approx(5.0, rel=1e-14)

    def test_c0_sup(self):
        v = cvec([1, -7, 2], SpaceTag.c0())
        assert math.exp(norm(v)) == pytest.approx(7.0, rel=1e-15)

    def test_cn_reads_first_k(self):
        v = cvec([1, 5, 100], SpaceTag.cn(2))
        assert math.exp(norm(v)) == pytest.approx(5.0, rel=1e-15)

    def test_hc_seminorm_of_square(self):
        # f = z^2 in the k=2 seminorm: max_j |a_j| 2^j / j! = 4/2 = 2
        v = cvec([0, 0, 1], SpaceTag.hc(2))
        assert math.exp(norm(v)) == pytest.approx(2.0, rel=1e-14)

    def test_zero_vector(self):
        assert norm(SeqVector.zeros(L1, 5)) == LOG_ZERO

    @given(st.floats(-50, 50), st.floats(-math.pi, math.pi, exclude_min=True))
    @settings(max_examples=100, deadline=None)
    def test_absolute_homogeneity(self, lam_log, lam_ph):
        rng = np.random.default_rng(11)
        v = cvec(rng.normal(size=8) + 1j * rng.normal(size=8))
        lam = LogComplex(lam_log, lam_ph)
        n1 = norm(v.scale(lam))
        n2 = lam_log + norm(v)
        assert abs(n1 - n2) <= 2 * math.ulp(max(abs(n1), abs(lam_log), 1.0))


class TestShifts:
    def test_weighted_backward(self):
        w = WeightSeq("custom", [1, 0.25, 1 / 9])
        out = backward_shift(cvec([0, 1, 2, 3]), w)
        got = [c.real for c in out.to_complex()]
        assert got == pytest.approx([1.0, 0.5, 1 / 3], rel=1e-15)

    def test_backward_kills_first_basis_vector(self):
        out = backward_shift(SeqVector.basis(L1, 4, 1), WeightSeq.inv_squares())
        assert norm(out) == LOG_ZERO

    def test_unweighted_backward_is_plain_shift(self):
        out = backward_shift(cvec([1 + 1j, 2, 3]), WeightSeq.ones())
        assert list(out.to_complex()) == pytest.approx([2, 3])

    def test_backward_on_singleton_flags_exhaustion(self):
        out = backward_shift(cvec([5.0]), WeightSeq.ones())
        assert len(out) == 0 and out.is_exhausted

    def test_forward_maps_e1_to_e2(self):
        out = forward_shift(SeqVector.basis(L1, 1, 1), WeightSeq.ones())
        assert out.coord(1).is_zero
        assert out.coord(2).to_complex() == 1

    def test_forward_divides(self):
        w = WeightSeq("custom", [1, 0.25])
        out = forward_shift(cvec([1, 1]), w)
        assert [c.real for c in out.to_complex()] == pytest.approx([0, 1, 4])

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 24))
        hi = rng.uniform(-1e6, 1e6, n) * 10.0 ** rng.integers(-8, 8, n)
        hi[rng.random(n) < 0.15] = LOG_ZERO
        v = SeqVector(L1, hi, np.zeros(n), rng.uniform(-3.1, 3.1, n))
        for w in (WeightSeq.ones(), WeightSeq.inv_squares(), WeightSeq.linear(),
                  WeightSeq("custom", rng.uniform(1e-8, 1e8, n + 1))):
            rt = backward_shift(forward_shift(v, w), w)
            assert np.array_equal(rt.hi, v.hi)
            assert np.array_equal(rt.lo, v.lo)
            assert np.array_equal(rt.phase, v.phase)

    def test_power_roundtrip_bit_exact(self):
        rng = np.random.default_rng(5)
        v = SeqVector(L1, rng.uniform(-300, 300, 30), np.zeros(30),
                      rng.uniform(-3, 3, 30))
        w = WeightSeq.inv_squares()
        for k in (1, 2, 7, 15):
            rt = shift_pow(forward_pow(v, w, k), w, k)
            assert np.array_equal(rt.hi, v.hi) and np.array_equal(rt.lo, v.lo)

    def test_power_matches_iterated_single_steps(self):
        rng = np.random.default_rng(6)
        v = SeqVector(L1, rng.uniform(-5, 5, 20), np.zeros(20),
                      rng.uniform(-3, 3, 20))
        w = WeightSeq.inv_squares()
        single = v
        for _ in range(4):
            single = backward_shift(single, w)
        power = shift_pow(v, w, 4)
        assert np.allclose(single.lm, power.lm, rtol=0, atol=1e-12)


class TestCoefficientOperators:
    def test_derivative_of_square(self):
        out = derivative(cvec([0, 0, 1], SpaceTag.hc(1)))
        assert [c.real for c in out.to_complex()] == pytest.approx([0, 2])

    def test_derivative_of_constant(self):
        out = derivative(cvec([3], SpaceTag.hc(1)))
        assert len(out) == 0 or norm(out) == LOG_ZERO

    def test_derivative_term_by_term(self):
        coeffs = [1 / math.factorial(j) for j in range(6)]
        out = derivative(cvec(coeffs, SpaceTag.hc(1)))
        want = [(j + 1) * coeffs[j + 1] for j in range(5)]
        assert [c.real for c in out.to_complex()] == pytest.approx(want, rel=1e-15)

    def test_derivative_is_linear_weighted_shift(self):
        rng = np.random.default_rng(2)
        v = cvec(rng.normal(size=9) + 1j * rng.normal(size=9), SpaceTag.hc(1))
        a = derivative(v)
        b = backward_shift(v, WeightSeq.linear())
        assert np.array_equal(a.hi, b.hi) and np.array_equal(a.phase, b.phase)

    def test_integral_inverts_derivative(self):
        rng = np.random.default_rng(3)
        v = cvec(rng.normal(size=7), SpaceTag.hc(1))
        rt = derivative(integral(v))
        assert np.array_equal(rt.hi, v.hi)

    def test_wrong_space(self):
        with pytest.raises(WrongSpaceError):
            derivative(cvec([1, 2]))
        with pytest.raises(WrongSpaceError):
            translate(cvec([1, 2]))

    def test_derivative_at_zero(self):
        # f = 2 + 3z + 5z^2: f''(0) = 10
        v = cvec([2, 3, 5], SpaceTag.hc(1))
        assert derivative_at_zero(v, 2).to_complex() == pytest.approx(10.0)
        assert derivative_at_zero(v, 9).is_zero


class TestTranslate:
    def test_z_plus_one(self):
        out = translate(cvec([0, 1], SpaceTag.hc(1)))
        assert [c.real for c in out.to_complex()] == pytest.approx([1, 1])

    def test_square_expands(self):
        out = translate(cvec([0, 0, 1], SpaceTag.hc(1)))
        assert [c.real for c in out.to_complex()] == pytest.approx([1, 2, 1])

    def test_constant_unchanged(self):
        out = translate(cvec([4.5], SpaceTag.hc(1)))
        assert out.to_complex()[0] == pytest.approx(4.5)

    def test_double_translate_is_shift_by_two(self):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=31) + 1j * rng.normal(size=31)
        v = cvec(coeffs, SpaceTag.hc(1))
        twice = translate(translate(v))
        direct = translate_by(v, 2)
        assert np.allclose(twice.to_complex(), direct.to_complex(), rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        f = cvec(rng.normal(size=12), SpaceTag.hc(1))
        g = cvec(rng.normal(size=12), SpaceTag.hc(1))
        lam = LogComplex.from_complex(2 - 1j)
        lhs = translate(f.scale(lam).add(g))
        rhs = translate(f).scale(lam).add(translate(g))
        assert np.allclose(lhs.to_complex(), rhs.to_complex(), rtol=1e-12)

    def test_eval_at_integer(self):
        # f(z) = 1 + 2z + z^3 at z = 3: 1 + 6 + 27 = 34
        f = cvec([1, 2, 0, 1], SpaceTag.hc(1))
        assert eval_at_integer(f, 3).to_complex() == pytest.approx(34.0)

    @pytest.mark.parametrize("point", [-1, -2, -7])
    def test_eval_at_negative_integer(self, point):
        rng = np.random.default_rng(15)
        a = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = cvec(a, SpaceTag.hc(1))
        got = eval_at_integer(f, point).to_complex()
        scale = float(np.sum(np.abs(a) * abs(point) ** np.arange(9)))
        dense = complex(np.polyval(a[::-1], point))
        via_translate = translate_by(f, point).coord(1).to_complex()
        assert abs(got - dense) <= 1e-14 * scale
        assert abs(got - via_translate) <= 1e-14 * scale

    def test_negative_translation_inverts(self):
        rng = np.random.default_rng(14)
        f = cvec(rng.normal(size=9), SpaceTag.hc(1))
        # the round trip cancels intermediates of size C(8, j) 2^8, so the
        # residue sits at that scale times machine epsilon
        back = translate_by(translate_by(f, 2), -2)
        assert np.allclose(back.to_complex(), f.to_complex(), atol=1e-11)
        # f(z - 2) at z = 2 is f(0)
        got = eval_at_integer(translate_by(f, -2), 2).to_complex()
        assert got == pytest.approx(complex(f.to_complex()[0]), rel=1e-10)

    def test_degree_cap(self):
        v = SeqVector.zeros(SpaceTag.hc(1), 501)
        with pytest.raises(DegreeCapError):
            translate(v)


def _translate_oracle(v, steps):
    """``log |b_j|`` of ``f(z + steps)`` at 60 digits from exact integer weights."""
    with mp.workdps(60):
        a = [mp.exp(mpc(float(lm), float(ph))) for lm, ph in zip(v.lm, v.phase)]
        out = []
        for j in range(len(a)):
            s, c = mpc(0), 1  # c = C(l, j) * steps**(l - j)
            for l in range(j, len(a)):
                if l > j:
                    c = c * l // (l - j) * steps
                s += c * a[l]
            out.append(float(mp.log(abs(s))))
    return np.array(out)


TRANSLATE_STEPS = (1, 2, 40, -3)


class TestTranslateKernel:
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("n", [140, 280])
    def test_matches_mpmath_oracle(self, n, wide):
        rng = np.random.default_rng(n + wide)
        if wide:
            lm = rng.uniform(-3e4, 3e4, n)
        else:
            lm = np.log(rng.uniform(0.5, 2.0, n))
        v = SeqVector(SpaceTag.hc(1), lm, np.zeros(n), rng.uniform(-np.pi, np.pi, n))
        for steps in TRANSLATE_STEPS:
            want = _translate_oracle(v, steps)
            got = translate_by(v, steps).lm
            rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert np.max(rel) <= 1e-14, (steps, float(np.max(rel)))

    @pytest.mark.parametrize("steps", TRANSLATE_STEPS)
    def test_last_coefficient_passes_through_bitwise(self, steps):
        rng = np.random.default_rng(21)
        v = cvec(rng.normal(size=50) + 1j * rng.normal(size=50), SpaceTag.hc(1))
        out = translate_by(v, steps)
        assert out.hi[-1] == v.lm[-1]
        assert out.phase[-1] == v.phase[-1]

    @pytest.mark.parametrize("steps", TRANSLATE_STEPS)
    def test_dead_rows_are_canonical_zero(self, steps):
        v = cvec([1.5, -2j, 0.5, 0, 0, 0], SpaceTag.hc(1))
        out = translate_by(v, steps)
        assert np.all(np.isneginf(out.hi[3:]))
        assert np.all(out.lo[3:] == 0.0) and np.all(out.phase[3:] == 0.0)
        assert np.all(np.isfinite(out.hi[:3]))

    def test_kernel_rows(self):
        # rows: dead; exact cancellation; one live term; a plain two-term sum
        T = np.array([[LOG_ZERO, LOG_ZERO],
                      [0.0, 0.0],
                      [LOG_ZERO, 3.25],
                      [math.log(3.0), math.log(4.0)]])
        out = log_matvec(T.copy(), np.array([0.0, math.pi]), L1,
                         col_phase=np.array([0.0, 0.0]),
                         row_phase=np.array([0.0, 0.0, 0.5, -math.pi / 2]))
        assert out.hi[0] == LOG_ZERO and out.phase[0] == 0.0
        assert out.hi[1] == LOG_ZERO and out.phase[1] == 0.0
        assert out.hi[2] == 3.25
        assert out.phase[2] == pytest.approx(0.5 - math.pi, abs=1e-15)
        assert out.hi[3] == pytest.approx(0.0, abs=1e-15)  # |3 - 4| = 1
        assert out.phase[3] == pytest.approx(math.pi / 2, abs=1e-15)
        assert np.all(out.lo == 0.0)

    def test_snap_is_relative_to_largest_term(self):
        # 1 - (1 - 2**-40) survives; a cancellation below CANCEL_SNAP does not
        keep = log_matvec(np.array([[0.0, math.log1p(-2.0 ** -40)]]),
                          np.array([0.0, math.pi]), L1)
        assert keep.lm[0] == pytest.approx(-40 * math.log(2.0), rel=1e-4)
        tiny = CANCEL_SNAP / 4
        gone = log_matvec(np.array([[0.0, math.log1p(-tiny)]]),
                          np.array([0.0, math.pi]), L1)
        assert gone.hi[0] == LOG_ZERO


class TestFunctional:
    def test_reads_first_coordinate(self):
        assert eval_functional(cvec([3, 7, 1])).to_complex() == pytest.approx(3.0)

    def test_zero_vector(self):
        assert eval_functional(SeqVector.zeros(L1, 3)).is_zero

    def test_value_at_origin(self):
        assert eval_functional(cvec([2, 1], SpaceTag.hc(1))).to_complex() == pytest.approx(2.0)


class TestDerivativePowers:
    def test_matches_factorial_boost(self):
        rng = np.random.default_rng(12)
        v = cvec(rng.normal(size=10), SpaceTag.hc(1))
        a = derivative_pow(v, 3)
        b = derivative(derivative(derivative(v)))
        assert np.allclose(a.lm, b.lm, atol=1e-12)


class TestJsonFormat:
    def test_roundtrip_complex(self):
        v = cvec([1 + 2j, 0, -3.5], SpaceTag.hc(2))
        back = vector_from_json(vector_to_json(v))
        assert back.space == v.space
        assert np.allclose(back.to_complex(), v.to_complex())

    def test_log_form_beyond_float_range(self):
        big = SeqVector(L1, np.array([1234.5]), np.zeros(1), np.array([0.7]))
        obj = vector_to_json(big)
        assert obj["coords"][0] == {"log": 1234.5, "phase": 0.7}
        back = vector_from_json(obj)
        assert back.lm[0] == 1234.5 and back.phase[0] == 0.7

    def test_exact_zero_roundtrip(self):
        v = SeqVector.zeros(L1, 2)
        back = vector_from_json(vector_to_json(v))
        assert norm(back) == LOG_ZERO

    def test_rational_coordinate(self):
        obj = {"space": "l1", "coords": [{"num": "3", "den": "4"},
                                         {"num": "-1", "den": "2"}]}
        v = vector_from_json(obj)
        assert v.to_complex()[0] == pytest.approx(0.75)
        assert v.to_complex()[1] == pytest.approx(-0.5)

    def test_order_is_one_indexed(self):
        v = cvec([10, 20, 30])
        obj = vector_to_json(v)
        assert obj["coords"][0][0] == pytest.approx(10.0)
        assert json.dumps(obj)  # serializable

    def test_writer_bytes_match_per_coordinate_loop(self):
        up = math.nextafter(700.0, math.inf)
        hi = [LOG_ZERO, 700.0, up, -700.0, -up, 2000.0, -2000.0, -708.5, -744.4,
              3.0, 0.0, -0.5, 699.0, 1e-300]
        lo = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
              1e-17, -1e-20, 0.0, 0.999999, 0.0]
        ph = [0.0, math.pi, -math.pi, 0.3, -2.0, math.pi, -math.pi, 1.0, -1.0,
              math.pi, -math.pi, 2.5, 0.0, -0.0]
        rng = np.random.default_rng(17)
        n = 500
        cases = [SeqVector(SpaceTag.hc(3), hi, lo, ph),
                 SeqVector(L1, rng.uniform(-800.0, 800.0, n), rng.normal(0, 1e-16, n),
                           rng.uniform(-np.pi, np.pi, n)),
                 SeqVector.zeros(SpaceTag.lp(1.5), 3), SeqVector.zeros(L1, 0)]
        for v in cases:
            assert json.dumps(vector_to_json(v)) == json.dumps(_vector_to_json_loop(v))

    def test_reader_arrays_match_scalar_path(self):
        coords = [[1.5, -2], [0, 0], [-0.0, 0.0], [0.0, -0.0], [-1, 0], [-1, -0.0],
                  [5e-324, 0.0], [0.0, -5e-324], [1e308, 1e308], [3, 4], ["0.25", "-1e-3"],
                  {"log": 900.0, "phase": 4.0}, {"log": -2000.0, "phase": -math.pi},
                  {"log": 2.0}, {"log": float("-inf"), "phase": 1.0},
                  {"num": "-3", "den": "4"}, {"num": "0", "den": "5"},
                  {"num": "10000000000000000000001", "den": "3"}]
        obj = {"space": "HC", "param": 2, "coords": coords}
        v = vector_from_json(obj)
        ref = SeqVector.from_logc(SpaceTag.hc(2), [
            _coord_from_json(e) if isinstance(e, dict)
            else LogComplex.from_complex(complex(float(e[0]), float(e[1])))
            for e in coords])
        assert v.space == ref.space
        for a, b in ((v.hi, ref.hi), (v.lo, ref.lo), (v.phase, ref.phase)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert vector_from_json({"space": "l1", "coords": []}).hi.shape == (0,)

    def test_reader_rejects_nan_log(self):
        obj = {"space": "l1", "coords": [[1.0, 0.0], {"log": float("nan"), "phase": 0.0}]}
        with pytest.raises(ParameterRangeError):
            vector_from_json(obj)

    @pytest.mark.parametrize("pair", [[math.nan, 0.0], [0.0, math.nan]])
    def test_reader_rejects_nan_pair(self, pair):
        obj = {"space": "l1", "coords": [[1.0, 0.0], pair]}
        with pytest.raises(ParameterRangeError):
            vector_from_json(obj)


class TestVectorAlgebra:
    def test_add_disjoint_supports_is_exact(self):
        a = SeqVector.basis(L1, 4, 1).scale(LogComplex(800.0, 0.3))
        b = SeqVector.basis(L1, 4, 3).scale(LogComplex(-900.0, -0.1))
        s = a.add(b)
        assert s.lm[0] == 800.0 and s.lm[2] == -900.0
        assert s.phase[0] == 0.3 and s.phase[2] == -0.1

    def test_sub_self_is_zero(self):
        rng = np.random.default_rng(8)
        v = cvec(rng.normal(size=6) + 1j * rng.normal(size=6))
        assert norm(v.sub(v)) == LOG_ZERO

    def test_weight_generator_reproduces(self):
        w = WeightSeq.inv_squares()
        assert w.value_at(3) == pytest.approx(1 / 9, rel=1e-15)
        assert w.log_at(2) == -2 * math.log(2)
        with pytest.raises(ParameterRangeError):
            WeightSeq("custom", [1.0, -2.0])
