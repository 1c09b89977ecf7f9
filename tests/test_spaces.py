"""Vectors, norms, shifts, coefficient operators, and the JSON format."""

import hashlib
import importlib.util
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc

from hyperorbit.arith import CANCEL_SNAP, LOG_ZERO, LogComplex, polar_parts
from hyperorbit.errors import DegreeCapError, ParameterRangeError, WrongSpaceError
from hyperorbit.spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    _norm_phases,
    backward_shift,
    derivative,
    derivative_at_zero,
    derivative_pow,
    eval_at_integer,
    eval_functional,
    forward_pow,
    forward_shift,
    log_matvec,
    norm,
    read_vector,
    shift_pow,
    translate,
    translate_by,
    vector_from_json,
    vector_to_json,
    write_vector,
)
from oracles import CustomWeights, integral, to_complex

L1 = SpaceTag.l1()
ROOT = Path(__file__).resolve().parent.parent


def cvec(values, space=L1):
    return SeqVector.from_complex(space, values)


def _vector_to_json_loop(v):
    """Reference writer: the column form built one coordinate at a time."""
    obj = {"space": v.space.kind}
    if v.space.param is not None:
        obj["param"] = v.space.param
    obj["log"] = ["-inf" if h == LOG_ZERO else float(h) for h in v.hi]
    obj["lo"] = [float(l) for l in v.lo]
    obj["phase"] = [float(p) for p in v.phase]
    return obj


def _norm_phases_three_step(p):
    """Reference: the reduction applied to every element, as before the
    all-inside return."""
    inside = (p > -np.pi) & (p <= np.pi)
    q = np.mod(p + np.pi, 2.0 * np.pi) - np.pi
    q = np.where(q <= -np.pi, np.pi, q)
    return np.where(inside, p, q)


class TestNormPhases:
    EDGES = [np.pi, -np.pi, np.nextafter(np.pi, 4.0), np.nextafter(np.pi, 0.0),
             np.nextafter(-np.pi, -4.0), np.nextafter(-np.pi, 0.0), 3 * np.pi,
             -7 * np.pi, 0.0, -0.0]

    def inputs(self):
        rng = np.random.default_rng(17)
        inside = rng.uniform(-np.pi, np.pi, 500)
        inside = inside[inside > -np.pi]
        edges_inside = np.array([np.pi, np.nextafter(np.pi, 0.0),
                                 np.nextafter(-np.pi, 0.0), 0.0, -0.0])
        yield np.concatenate([inside, edges_inside])            # all inside
        yield np.concatenate([rng.uniform(-40.0, 40.0, 500), self.EDGES])  # mixed
        yield np.array(self.EDGES)
        yield np.empty(0)

    def test_bitwise_equal_to_three_step_reduction(self):
        for p in self.inputs():
            got = _norm_phases(p.copy())
            assert got.tobytes() == _norm_phases_three_step(p).tobytes()
            assert np.all((got > -np.pi) & (got <= np.pi))

    def test_inside_phases_come_back_as_the_same_array(self):
        p = np.array([0.5, -np.pi + 1e-9, np.pi])
        assert _norm_phases(p) is p
        q = np.array([0.5, -np.pi])
        assert _norm_phases(q) is not q


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
        w = CustomWeights([1, 0.25, 1 / 9])
        out = backward_shift(cvec([0, 1, 2, 3]), w)
        got = [c.real for c in to_complex(out)]
        assert got == pytest.approx([1.0, 0.5, 1 / 3], rel=1e-15)

    def test_backward_kills_first_basis_vector(self):
        out = backward_shift(SeqVector.basis(L1, 4, 1), WeightSeq.inv_squares())
        assert norm(out) == LOG_ZERO

    def test_unweighted_backward_is_plain_shift(self):
        out = backward_shift(cvec([1 + 1j, 2, 3]), WeightSeq.ones())
        assert list(to_complex(out)) == pytest.approx([2, 3])

    def test_backward_on_singleton_flags_exhaustion(self):
        out = backward_shift(cvec([5.0]), WeightSeq.ones())
        assert len(out) == 0 and out.is_exhausted

    def test_forward_maps_e1_to_e2(self):
        out = forward_shift(SeqVector.basis(L1, 1, 1), WeightSeq.ones())
        assert out.coord(1).is_zero
        assert to_complex(out.coord(2)) == 1

    def test_forward_divides(self):
        w = CustomWeights([1, 0.25])
        out = forward_shift(cvec([1, 1]), w)
        assert [c.real for c in to_complex(out)] == pytest.approx([0, 1, 4])

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 24))
        hi = rng.uniform(-1e6, 1e6, n) * 10.0 ** rng.integers(-8, 8, n)
        hi[rng.random(n) < 0.15] = LOG_ZERO
        v = SeqVector(L1, hi, np.zeros(n), rng.uniform(-3.1, 3.1, n))
        for w in (WeightSeq.ones(), WeightSeq.inv_squares(), WeightSeq.linear(),
                  CustomWeights(rng.uniform(1e-8, 1e8, n + 1))):
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

    @pytest.mark.parametrize("powers", [[3, 0, 1, 19, 20, 25, 7], [5, 2], [20, 21], []])
    def test_array_of_powers_is_a_block_of_int_powers(self, powers):
        # row r holds the bits of the int power k[r], padded with canonical
        # zeros; power 0 is v itself and powers >= len(v) are all padding
        rng = np.random.default_rng(7)
        hi = rng.uniform(-5, 5, 20)
        hi[4] = LOG_ZERO
        v = SeqVector(L1, hi, rng.normal(0, 1e-16, 20), rng.uniform(-3, 3, 20))
        w = WeightSeq.inv_squares()
        block = shift_pow(v, w, np.array(powers, dtype=int))
        width = max([20 - k for k in powers if k < 20], default=0)
        assert block.hi.shape == (len(powers), width) and len(block) == width
        for r, k in enumerate(powers):
            one = shift_pow(v, w, k)
            for got, want, pad in ((block.hi, one.hi, LOG_ZERO), (block.lo, one.lo, 0.0),
                                   (block.phase, one.phase, 0.0)):
                assert got[r, :len(one)].tobytes() == want.tobytes()
                assert np.all(got[r, len(one):] == pad)


class TestCoefficientOperators:
    def test_derivative_of_square(self):
        out = derivative(cvec([0, 0, 1], SpaceTag.hc(1)))
        assert [c.real for c in to_complex(out)] == pytest.approx([0, 2])

    def test_derivative_of_constant(self):
        out = derivative(cvec([3], SpaceTag.hc(1)))
        assert len(out) == 0 or norm(out) == LOG_ZERO

    def test_derivative_term_by_term(self):
        coeffs = [1 / math.factorial(j) for j in range(6)]
        out = derivative(cvec(coeffs, SpaceTag.hc(1)))
        want = [(j + 1) * coeffs[j + 1] for j in range(5)]
        assert [c.real for c in to_complex(out)] == pytest.approx(want, rel=1e-15)

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
        assert to_complex(derivative_at_zero(v, 2)) == pytest.approx(10.0)
        assert derivative_at_zero(v, 9).is_zero


class TestTranslate:
    def test_z_plus_one(self):
        out = translate(cvec([0, 1], SpaceTag.hc(1)))
        assert [c.real for c in to_complex(out)] == pytest.approx([1, 1])

    def test_square_expands(self):
        out = translate(cvec([0, 0, 1], SpaceTag.hc(1)))
        assert [c.real for c in to_complex(out)] == pytest.approx([1, 2, 1])

    def test_constant_unchanged(self):
        out = translate(cvec([4.5], SpaceTag.hc(1)))
        assert to_complex(out)[0] == pytest.approx(4.5)

    def test_double_translate_is_shift_by_two(self):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=31) + 1j * rng.normal(size=31)
        v = cvec(coeffs, SpaceTag.hc(1))
        twice = translate(translate(v))
        direct = translate_by(v, 2)
        assert np.allclose(to_complex(twice), to_complex(direct), rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        f = cvec(rng.normal(size=12), SpaceTag.hc(1))
        g = cvec(rng.normal(size=12), SpaceTag.hc(1))
        lam = LogComplex.from_complex(2 - 1j)
        lhs = translate(f.scale(lam).add(g))
        rhs = translate(f).scale(lam).add(translate(g))
        assert np.allclose(to_complex(lhs), to_complex(rhs), rtol=1e-12)

    def test_eval_at_integer(self):
        # f(z) = 1 + 2z + z^3 at z = 3: 1 + 6 + 27 = 34
        f = cvec([1, 2, 0, 1], SpaceTag.hc(1))
        assert to_complex(eval_at_integer(f, 3)) == pytest.approx(34.0)

    @pytest.mark.parametrize("point", [-1, -2, -7])
    def test_eval_at_negative_integer(self, point):
        rng = np.random.default_rng(15)
        a = rng.normal(size=9) + 1j * rng.normal(size=9)
        f = cvec(a, SpaceTag.hc(1))
        got = to_complex(eval_at_integer(f, point))
        scale = float(np.sum(np.abs(a) * abs(point) ** np.arange(9)))
        dense = complex(np.polyval(a[::-1], point))
        via_translate = to_complex(translate_by(f, point).coord(1))
        assert abs(got - dense) <= 1e-14 * scale
        assert abs(got - via_translate) <= 1e-14 * scale

    def test_negative_translation_inverts(self):
        rng = np.random.default_rng(14)
        f = cvec(rng.normal(size=9), SpaceTag.hc(1))
        # the round trip cancels intermediates of size C(8, j) 2^8, so the
        # residue sits at that scale times machine epsilon
        back = translate_by(translate_by(f, 2), -2)
        assert np.allclose(to_complex(back), to_complex(f), atol=1e-11)
        # f(z - 2) at z = 2 is f(0)
        got = to_complex(eval_at_integer(translate_by(f, -2), 2))
        assert got == pytest.approx(complex(to_complex(f)[0]), rel=1e-10)

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
        assert to_complex(eval_functional(cvec([3, 7, 1]))) == pytest.approx(3.0)

    def test_zero_vector(self):
        assert eval_functional(SeqVector.zeros(L1, 3)).is_zero

    def test_value_at_origin(self):
        assert to_complex(eval_functional(cvec([2, 1], SpaceTag.hc(1)))) == pytest.approx(2.0)


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
        assert np.allclose(to_complex(back), to_complex(v))

    def test_log_form_beyond_float_range(self):
        big = SeqVector(L1, np.array([1234.5]), np.array([1e-14]), np.array([0.7]))
        obj = vector_to_json(big)
        assert obj == {"space": "l1", "log": [1234.5], "lo": [1e-14], "phase": [0.7]}
        back = vector_from_json(obj)
        assert back.hi[0] == 1234.5 and back.lo[0] == 1e-14 and back.phase[0] == 0.7

    def test_exact_zero_roundtrip(self):
        v = SeqVector.zeros(L1, 2)
        obj = vector_to_json(v)
        assert obj["log"] == ["-inf", "-inf"]  # a string: the file stays strict JSON
        back = vector_from_json(json.loads(json.dumps(obj, allow_nan=False)))
        assert norm(back) == LOG_ZERO
        _assert_canonical_zeros(back)

    def test_rational_coordinate(self):
        obj = {"space": "l1", "coords": [{"num": "3", "den": "4"},
                                         {"num": "-1", "den": "2"}]}
        v = vector_from_json(obj)
        assert to_complex(v)[0] == pytest.approx(0.75)
        assert to_complex(v)[1] == pytest.approx(-0.5)

    def test_complex_fraction_keeps_both_parts(self):
        big = 10**400
        coords = [{"num": "1", "den": "2", "imnum": "1", "imden": "3"},
                  {"num": "0", "den": "5", "imnum": "-2"},  # imden defaults to 1
                  {"num": str(big), "den": "3", "imnum": str(-7 * big // 10)},
                  {"num": "1", "den": str(big), "imnum": "1", "imden": str(big * big)}]
        v = vector_from_json({"space": "l1", "coords": coords})
        with mp.workprec(200):
            exact = [mpc(mp.mpf(1) / 2, mp.mpf(1) / 3), mpc(0, -2),
                     mpc(mp.mpf(big) / 3, -mp.mpf(7 * big // 10)),
                     mpc(mp.mpf(1) / big, mp.mpf(1) / big**2)]
            ref = [(float(mp.log(abs(z))), float(mp.arg(z))) for z in exact]
        for i, (lm, ph) in enumerate(ref):
            assert v.lm[i] == pytest.approx(lm, rel=1e-15, abs=1e-15)
            assert v.phase[i] == pytest.approx(ph, rel=1e-15, abs=1e-300)
        assert to_complex(v)[0] == pytest.approx(0.5 + 1j / 3, rel=1e-15)

    @pytest.mark.parametrize("coord", [
        {"num": "3", "den": "0"}, {"num": "1", "den": "2", "imnum": "1", "imden": "0"}])
    def test_zero_denominator_is_rejected(self, coord):
        with pytest.raises(ParameterRangeError):
            vector_from_json({"space": "l1", "coords": [[1.0, 0.0], coord]})

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, math.nan)])
    def test_from_complex_rejects_nan(self, z):
        with pytest.raises(ParameterRangeError):
            SeqVector.from_complex(L1, [1.0, z])

    def test_order_is_one_indexed(self):
        v = cvec([10, 20, 30])
        obj = vector_to_json(v)
        assert obj["log"][0] == math.log(10.0) and obj["phase"] == [0.0, 0.0, 0.0]
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
            text = json.dumps(vector_to_json(v), allow_nan=False)
            assert text == json.dumps(_vector_to_json_loop(v))
            # read back bit for bit, the phase -pi reduced to pi as polar_parts does
            back = vector_from_json(json.loads(text))
            assert back.hi.tobytes() == v.hi.tobytes() and back.lo.tobytes() == v.lo.tobytes()
            want = np.array([polar_parts(h, p)[1] for h, p in zip(v.hi.tolist(),
                                                                  v.phase.tolist())])
            assert back.phase.tobytes() == want.tobytes()

    def test_reader_arrays_match_scalar_path(self):
        coords = [[1.5, -2], [0, 0], [-0.0, 0.0], [0.0, -0.0], [-1, 0], [-1, -0.0],
                  [5e-324, 0.0], [0.0, -5e-324], [1e308, 1e308], [3, 4], ["0.25", "-1e-3"],
                  {"log": 900.0, "phase": 4.0}, {"log": -2000.0, "phase": -math.pi},
                  {"log": 2.0}, {"log": float("-inf"), "phase": 1.0},
                  {"num": "-3", "den": "4"}, {"num": "0", "den": "5"},
                  {"num": "10000000000000000000001", "den": "3"}]
        # log-polar phases outside (-pi, pi] reduce as normalize_phase does,
        # and a -inf log (a float or the string "-inf") is canonical zero
        coords += [{"log": 1.0, "phase": p} for p in (
            math.pi, -math.pi, math.nextafter(math.pi, 4.0), 3 * math.pi, -3 * math.pi,
            7.5, -7.5, 1e6, -1e17, 2 * math.pi, -0.0)]
        coords += [{"log": float("-inf"), "phase": 2.0}, {"log": "-inf", "phase": -9.0},
                   {"log": "-inf"}, {"log": -1e308, "phase": 4.0},
                   {"log": "1e3", "phase": "-4"}]

        def scalar(e):
            if isinstance(e, dict) and "log" in e:
                return LogComplex.from_polar(float(e["log"]), float(e.get("phase", 0.0)))
            if isinstance(e, dict):  # a real fraction: log|num| - log den, phase 0 or pi
                q = Fraction(int(e["num"]), int(e["den"]))
                if q == 0:
                    return LogComplex.zero()
                return LogComplex(math.log(abs(q.numerator)) - math.log(q.denominator),
                                  0.0 if q > 0 else math.pi)
            return LogComplex.from_complex(complex(float(e[0]), float(e[1])))

        v = vector_from_json({"space": "HC", "param": 2, "coords": coords})
        ref = SeqVector.from_logc(SpaceTag.hc(2), [scalar(e) for e in coords])
        assert v.space == ref.space
        for a, b in ((v.hi, ref.hi), (v.lo, ref.lo), (v.phase, ref.phase)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert vector_from_json({"space": "l1", "coords": []}).hi.shape == (0,)

    def test_reader_rejects_nan_log(self):
        obj = {"space": "l1", "coords": [[1.0, 0.0], {"log": float("nan"), "phase": 0.0}]}
        with pytest.raises(ParameterRangeError):
            vector_from_json(obj)

    @pytest.mark.parametrize("log", [1.0, float("-inf")])
    def test_reader_rejects_nan_phase(self, log):
        obj = {"space": "l1", "coords": [{"log": log, "phase": float("nan")}]}
        with pytest.raises(ParameterRangeError):
            vector_from_json(obj)

    @pytest.mark.parametrize("pair", [[math.nan, 0.0], [0.0, math.nan]])
    def test_reader_rejects_nan_pair(self, pair):
        obj = {"space": "l1", "coords": [[1.0, 0.0], pair]}
        with pytest.raises(ParameterRangeError):
            vector_from_json(obj)

    @given(st.sampled_from([L1, SpaceTag.lp(1.5), SpaceTag.c0(), SpaceTag.cn(3),
                            SpaceTag.hc(2)]),
           st.lists(st.tuples(
               st.one_of(st.just(LOG_ZERO), st.floats(-1e6, 1e6), st.floats(700.0, 1e300),
                         st.floats(-1e300, -745.0)),
               st.one_of(st.just(0.0), st.floats(-1e-10, 1e-10)),
               st.one_of(st.sampled_from([math.pi, -math.pi, 0.0, -0.0]),
                         st.floats(-4.0, 4.0))), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_file_roundtrip_bit_exact(self, space, coords):
        # a vector as the library makes it (phases in (-pi, pi]) reads back
        # from its file bit for bit, exact zeros, lo parts and -0.0 included
        hi, lo, ph = (np.array([c[i] for c in coords], dtype=float) for i in range(3))
        v = SeqVector(space, hi, lo, _norm_phases(ph))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "v.json")
            write_vector(path, v)
            with open(path, encoding="utf-8") as fh:
                json.load(fh, parse_constant=_reject_constant)  # strict JSON
            back = read_vector(path)
        assert back.space == v.space
        for part in ("hi", "lo", "phase"):
            assert getattr(back, part).tobytes() == getattr(v, part).tobytes()

    def test_column_phases_reduce_as_polar_parts(self):
        ph = [math.pi, -math.pi, math.nextafter(math.pi, 4.0), 3 * math.pi, -3 * math.pi,
              7.5, -7.5, 1e6, -1e17, 2 * math.pi, -0.0, 0.3]
        log = [1.0] * (len(ph) - 1) + ["-inf"]
        v = vector_from_json({"space": "l1", "log": log, "lo": [0.0] * len(ph),
                              "phase": ph})
        want = np.array([polar_parts(float(l), p)[1] for l, p in zip(log, ph)])
        assert v.phase.tobytes() == want.tobytes()
        assert v.hi[-1] == LOG_ZERO and v.hi[0] == 1.0

    @pytest.mark.parametrize("column, entry", [
        ("log", math.nan), ("log", math.inf), ("log", "inf"), ("log", "0.5"), ("log", True),
        ("log", [1.0]), ("lo", math.nan), ("lo", -math.inf), ("lo", "-inf"),
        ("phase", math.nan), ("phase", math.inf), ("phase", None)])
    def test_column_reader_rejects_entry(self, column, entry):
        obj = {"space": "l1", "log": [0.0, "-inf"], "lo": [0.0, 0.0], "phase": [0.5, 0.0]}
        obj[column][0] = entry
        with pytest.raises(ParameterRangeError, match=f"column '{column}'"):
            vector_from_json(obj)

    @pytest.mark.parametrize("edit", [
        {"lo": [0.0]}, {"phase": [0.5, 0.0, 0.0]}, {"log": 0.0}, {"phase": {"0": 0.5}},
        {"lo": "0.0"}])
    def test_column_reader_rejects_shape(self, edit):
        obj = {"space": "l1", "log": [0.0, "-inf"], "lo": [0.0, 0.0], "phase": [0.5, 0.0]}
        obj.update(edit)
        with pytest.raises(ParameterRangeError):
            vector_from_json(obj)

    @pytest.mark.parametrize("workload, count, digest", [
        ("certify", 7, "1c271d0681e7d28f3c0ecf54900d0eeb024d2d311bc935b7c6e456a806e3ff42"),
        ("orbit", 200, "ea13f378b16b4fe783db58034ecbabee63a55618727440e96460442caedcd51c")])
    def test_bench_inputs_read_to_pinned_bytes(self, workload, count, digest, tmp_path):
        # the bench writes its seed-7 inputs as [re, im] pairs, {"log",
        # "phase"} objects and fractions; the digest of the bytes they read to
        # was taken from the reader before it took the column form
        name = "bench_tasks_for_reader_test"
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "tasks.py")
        tasks = sys.modules.setdefault(name, importlib.util.module_from_spec(spec))
        spec.loader.exec_module(tasks)
        tasks.build_round(workload, 7, tmp_path)
        h, n = hashlib.sha256(), 0
        for path in sorted(tmp_path.glob("*.json")):
            obj = json.loads(path.read_text(encoding="utf-8"))
            for vec in obj.get("vectors", [obj]):
                assert "coords" in vec
                v = vector_from_json(vec)
                h.update(v.hi.tobytes() + v.lo.tobytes() + v.phase.tobytes())
                n += 1
        assert (n, h.hexdigest()) == (count, digest)


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _assert_canonical_zeros(v):
    """Every zero coordinate has ``lo`` and phase +0.0 (not -0.0)."""
    zero = v.hi == LOG_ZERO
    for a in (v.lo, v.phase):
        assert np.all(a[zero] == 0.0) and not np.any(np.signbit(a[zero]))


class TestCanonicalZero:
    """Only the constructor sets ``lo`` and phase of zero coordinates; every
    operation's result comes out canonical through it."""

    def messy(self, rng, n, zeros):
        lo = rng.normal(0.0, 1e-17, n)
        ph = rng.uniform(-np.pi, np.pi, n)
        hi = rng.uniform(-2.0, 2.0, n)
        hi[list(zeros)] = LOG_ZERO
        return hi, lo, ph

    def test_constructor_canonicalizes_vectors_and_blocks(self):
        rng = np.random.default_rng(31)
        hi, lo, ph = self.messy(rng, 9, (0, 4, 8))
        lo[[0, 4]], ph[[0, 4]], ph[8] = 5.0, -0.0, -2.5  # garbage, -0.0 included
        v = SeqVector(L1, hi, lo, ph)
        _assert_canonical_zeros(v)
        live = hi != LOG_ZERO
        assert v.lo[live].tobytes() == lo[live].tobytes()
        assert v.phase[live].tobytes() == ph[live].tobytes()
        block = SeqVector(L1, *(np.stack([a, a[::-1]]) for a in (hi, lo, ph)))
        assert block.hi.shape == (2, 9)
        _assert_canonical_zeros(block)

    def test_operations_give_canonical_zeros(self):
        rng = np.random.default_rng(32)
        v = SeqVector(SpaceTag.hc(1), *self.messy(rng, 12, (2, 5, 6)))
        w = WeightSeq.inv_squares()
        block = shift_pow(v, w, np.array([0, 1, 3, 11, 12, 15]))
        assert block.hi.shape == (6, 12)
        outs = [block, shift_pow(v, w, 4), backward_shift(v, w), forward_shift(v, w),
                forward_pow(v, w, 3), v.neg(), v.add(v.neg()), v.sub(v),
                v.add(SeqVector.zeros(v.space, 15)), v.scale(LogComplex(0.5, 3.0))]
        # log_matvec: a dead row, a cancelling row and a live one
        T = np.array([[LOG_ZERO, LOG_ZERO], [0.0, 0.0], [0.0, -1.0]])
        outs.append(log_matvec(T, np.array([0.3, 0.3 + np.pi]), L1))
        for out in outs:
            assert np.any(out.hi == LOG_ZERO)
            _assert_canonical_zeros(out)

    def test_closed_form_block_gives_canonical_zeros(self):
        from hyperorbit.dynamics import closed_form_state, ledger, m_l1
        rng = np.random.default_rng(33)
        x = cvec(rng.uniform(0.5, 2.0, 20) * np.exp(1j * rng.uniform(-3, 3, 20)))
        y = cvec(np.concatenate([[0.0], rng.uniform(0.5, 2.0, 15)]))
        led = ledger(m_l1(), (x, y), 12)
        block = closed_form_state(m_l1(), (x, y), led, np.arange(1, 13))
        assert np.all(block.hi[:, -1] == LOG_ZERO)  # rows padded to the widest
        _assert_canonical_zeros(block)


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
        assert np.exp(w.logs(3)) == pytest.approx([1.0, 1 / 4, 1 / 9], rel=1e-15)
        assert w.log_at(2) == -2 * math.log(2)

    def test_custom_weights_must_be_positive(self):
        with pytest.raises(ParameterRangeError):
            CustomWeights([1.0, -2.0])
