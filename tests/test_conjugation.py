"""Host bases, the factor map, and the conjugated operator."""

import math

import numpy as np
import pytest

from hyperorbit.arith import LOG_ZERO
from hyperorbit.conjugation import (
    FactorMap,
    basis_from_json,
    basis_to_json,
    build_N,
    commutation_check,
    host_basis,
    pushforward_orbit_check,
)
from hyperorbit.dynamics import apply, m_l1
from hyperorbit.errors import ParameterRangeError
from hyperorbit.spaces import SeqVector, SpaceTag, norm

L1 = SpaceTag.l1()


def rand_vec(rng, n, scale=1.0):
    return SeqVector.from_complex(
        L1, scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))


class TestBases:
    def test_identity_exact(self):
        b = host_basis("identity", 50)
        assert b.biorthogonality_residual() == 0.0
        assert b.bound() == 1.0

    def test_diagonal_scaling_cancels(self):
        b = host_basis("diagonal", 50)
        assert b.biorthogonality_residual() == 0.0
        assert b.bound() == pytest.approx(1.0, abs=1e-15)

    def test_banded_back_substitution(self):
        b = host_basis("banded", 200, u=0.3)
        assert b.biorthogonality_residual() <= 1e-13
        assert b.bound() <= 1.5

    def test_biorthogonality_across_sizes(self):
        for n in (10, 100, 1000):
            for kind in ("identity", "diagonal", "banded"):
                assert host_basis(kind, n).biorthogonality_residual() <= 1e-12

    def test_parameter_ranges(self):
        with pytest.raises(ParameterRangeError):
            host_basis("diagonal", 10, scales=np.full(10, 3.0))
        with pytest.raises(ParameterRangeError):
            host_basis("banded", 10, u=0.6)
        with pytest.raises(ParameterRangeError):
            host_basis("unknown", 10)


class TestConjugatedOperator:
    def test_identity_basis_reduces_to_source(self):
        basis = host_basis("identity", 20)
        op = build_N(basis)
        rng = np.random.default_rng(0)
        u = rng.normal(size=20) + 1j * rng.normal(size=20)
        # N(e_k, e_1) = w_{k-1} e_{k-1}, zero for k = 1
        for k in (2, 5, 11):
            out = op.apply_dense(np.eye(20)[k - 1].astype(complex),
                                 np.eye(20)[0].astype(complex))
            want = np.zeros(20, dtype=complex)
            want[k - 2] = 1.0 / (k - 1) ** 2
            assert np.allclose(out, want, atol=1e-15)
        out = op.apply_dense(np.eye(20)[0].astype(complex),
                             np.eye(20)[0].astype(complex))
        assert np.allclose(out, 0.0)

    def test_vanishing_first_functional(self):
        basis = host_basis("identity", 12)
        op = build_N(basis)
        rng = np.random.default_rng(1)
        u = rand_vec(rng, 12)
        v = SeqVector.from_complex(L1, [0.0] + [1.0] * 11)
        assert norm(op.apply(u, v)) == LOG_ZERO

    def test_diagonal_basis_pairs(self):
        basis = host_basis("diagonal", 16)
        op = build_N(basis)
        # N(x_k, x_1) = x_{k-1} / (k-1)^2
        for k in (3, 7):
            out = op.apply_dense(basis.columns[:, k - 1], basis.columns[:, 0])
            want = basis.columns[:, k - 2] / (k - 1) ** 2
            assert np.allclose(out, want, atol=1e-15)


class TestFactorMap:
    def test_basis_vectors_are_images_exactly(self):
        for kind in ("identity", "diagonal", "banded"):
            basis = host_basis(kind, 30)
            phi = FactorMap(basis)
            for nn in (1, 2, 15, 30):
                img = phi(SeqVector.basis(L1, 30, nn))
                want = basis.vector(nn)
                assert np.array_equal(img.hi, want.hi)
                assert np.array_equal(img.phase, want.phase)

    def test_linear_on_log_domain_vectors(self):
        basis = host_basis("banded", 25)
        phi = FactorMap(basis)
        rng = np.random.default_rng(2)
        u, v = rand_vec(rng, 25), rand_vec(rng, 25)
        lhs = phi(u.add(v))
        rhs = phi(u).add(phi(v))
        assert norm(lhs.sub(rhs)) <= norm(rhs) + math.log(1e-12)


class TestLogMatvec:
    @pytest.mark.parametrize("kind", ["diagonal", "banded"])
    def test_matches_dense_complex(self, kind):
        basis = host_basis(kind, 200)
        phi, op = FactorMap(basis), build_N(basis)
        rng = np.random.default_rng(31)
        u, v = rand_vec(rng, 200), rand_vec(rng, 200)
        uc, vc = u.to_complex(), v.to_complex()
        want = basis.columns @ uc
        assert np.allclose(phi(u).to_complex(), want, rtol=1e-13, atol=0)
        want = op.apply_dense(uc, vc)
        got = op.apply(u, v).to_complex()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        got = op.functional(3, v).to_complex()
        assert got == pytest.approx(basis.rows[2] @ vc, rel=1e-13)

    def test_single_live_term_is_bit_exact(self):
        basis = host_basis("diagonal", 40)
        op = build_N(basis)
        rng = np.random.default_rng(32)
        v = rand_vec(rng, 40)
        for l in (1, 7, 40):
            got = op.functional(l, v)
            d = SeqVector.from_complex(L1, [basis.rows[l - 1, l - 1]])
            assert got.log_mag == d.hi[0] + v.lm[l - 1]
            assert got.phase == v.phase[l - 1]  # the diagonal entries are real


class TestCommutation:
    def test_identity_residual_zero(self):
        basis = host_basis("identity", 60)
        rep = commutation_check(m_l1(), build_N(basis), basis, 60)
        assert rep.max_basis_residual == 0.0
        assert rep.max_random_residual <= 1e-14

    def test_basis_pairs_with_first_slot(self):
        # both sides on (e_k, e_1) equal w_{k-1} x_{k-1}
        basis = host_basis("identity", 30)
        op = build_N(basis)
        spec = m_l1()
        phi = FactorMap(basis)
        for k in (2, 9, 30):
            e_k = SeqVector.basis(L1, 30, k)
            e_1 = SeqVector.basis(L1, 30, 1)
            lhs = phi(apply(spec, (e_k, e_1))._padded(30))
            rhs = op.apply(phi(e_k), phi(e_1))
            assert norm(lhs.sub(rhs)) == LOG_ZERO

    def test_all_kinds_within_tolerance(self):
        for kind in ("identity", "diagonal", "banded"):
            basis = host_basis(kind, 200)
            rep = commutation_check(m_l1(), build_N(basis), basis, 200)
            assert rep.max_residual <= 1e-10, kind


class TestPushforward:
    def mk_contraction(self, rng, n):
        return rand_vec(rng, n, scale=0.002)

    def test_identity_is_exact(self):
        basis = host_basis("identity", 80)
        rng = np.random.default_rng(3)
        init = (self.mk_contraction(rng, 80), self.mk_contraction(rng, 80))
        rep = pushforward_orbit_check(m_l1(), build_N(basis), basis, init, 40)
        assert rep.ok
        assert all(r == LOG_ZERO for r in rep.residual_logs)

    def test_diagonal_fifty_steps(self):
        basis = host_basis("diagonal", 120)
        rng = np.random.default_rng(4)
        init = (self.mk_contraction(rng, 120), self.mk_contraction(rng, 120))
        rep = pushforward_orbit_check(m_l1(), build_N(basis), basis, init, 50)
        assert rep.ok and rep.steps == 50

    def test_banded_fifty_steps(self):
        basis = host_basis("banded", 120)
        rng = np.random.default_rng(5)
        init = (self.mk_contraction(rng, 120), self.mk_contraction(rng, 120))
        rep = pushforward_orbit_check(m_l1(), build_N(basis), basis, init, 50)
        assert rep.ok

    def test_zero_functional_start_gives_zero_orbits(self):
        basis = host_basis("banded", 40)
        rng = np.random.default_rng(6)
        x = rand_vec(rng, 40)
        y = SeqVector.from_complex(L1, [0.0] + [0.5] * 39)
        rep = pushforward_orbit_check(m_l1(), build_N(basis), basis, (x, y), 10)
        assert rep.ok


class TestBasisInterchange:
    def test_roundtrip_all_kinds(self):
        import json
        for kind in ("identity", "diagonal", "banded"):
            basis = host_basis(kind, 25)
            obj = json.loads(json.dumps(basis_to_json(basis)))
            assert len(obj["vectors"]) == 25
            assert len(obj["functionals"]) == 25
            back = basis_from_json(obj)
            assert np.allclose(back.columns, basis.columns, atol=1e-15)
            assert np.allclose(back.rows, basis.rows, atol=1e-15)
            assert back.biorthogonality_residual() <= 1e-12
