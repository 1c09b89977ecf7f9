"""Host bases, the factor map, and the conjugated operator."""

import math

import numpy as np
import pytest

from hyperorbit.arith import LOG_ZERO, LogComplex
from hyperorbit.conjugation import (
    FactorMap,
    HostBilinear,
    _log_polar,
    _LogMatrix,
    build_N,
    commutation_check,
    host_basis,
    pushforward_orbit_check,
)
from hyperorbit.dynamics import apply, iterate_bc, m_l1
from hyperorbit.errors import ParameterRangeError
from hyperorbit.spaces import (
    SeqVector,
    SpaceTag,
    _dd_add,
    _norm_phases,
    backward_shift,
    eval_functional,
    norm,
)
from oracles import to_complex

L1 = SpaceTag.l1()


def rand_vec(rng, n, scale=1.0):
    return SeqVector.from_complex(
        L1, scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))


def apply_dense(op, u, v):
    """Dense reference for ``op.apply``: plain complex evaluation of
    ``x_1*(v) * sum_{l >= 2} x_l*(u) w_{l-1} x_{l-1}`` (tame magnitudes)."""
    basis, N = op.basis, op.basis.size
    mix = basis.columns[:, : N - 1] * np.exp(m_l1().weights.logs(N - 1))
    return (basis.rows[0] @ v) * (mix @ (basis.rows[1:] @ u))


def functional(op, l, v):
    """``x_l*(v)`` in the log domain, read from the operator's functional
    matrix on the pair (v, v): row l-1 for l >= 2, the last row for l = 1."""
    N = op.basis.size
    v = v._padded(N).truncate(N)
    pair = SeqVector(L1, *(np.concatenate((a, a)) for a in (v.hi, v.lo, v.phase)))
    return op._functionals.matvec(pair).coord(N if l == 1 else l - 1)


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
            out = apply_dense(op, np.eye(20)[k - 1].astype(complex),
                                 np.eye(20)[0].astype(complex))
            want = np.zeros(20, dtype=complex)
            want[k - 2] = 1.0 / (k - 1) ** 2
            assert np.allclose(out, want, atol=1e-15)
        out = apply_dense(op, np.eye(20)[0].astype(complex),
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
            out = apply_dense(op, basis.columns[:, k - 1], basis.columns[:, 0])
            want = basis.columns[:, k - 2] / (k - 1) ** 2
            assert np.allclose(out, want, atol=1e-15)


class TestFactorMap:
    def test_basis_vectors_are_images_exactly(self):
        for kind in ("identity", "diagonal", "banded"):
            basis = host_basis(kind, 30)
            phi = FactorMap(basis)
            for nn in (1, 2, 15, 30):
                img = phi(SeqVector.basis(L1, 30, nn))
                want = SeqVector.from_complex(L1, basis.columns[:, nn - 1])
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
        uc, vc = to_complex(u), to_complex(v)
        want = basis.columns @ uc
        assert np.allclose(to_complex(phi(u)), want, rtol=1e-13, atol=0)
        want = apply_dense(op, uc, vc)
        got = to_complex(op.apply(u, v))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        got = to_complex(functional(op, 3, v))
        assert got == pytest.approx(basis.rows[2] @ vc, rel=1e-13)

    def test_single_live_term_is_bit_exact(self):
        basis = host_basis("diagonal", 40)
        op = build_N(basis)
        rng = np.random.default_rng(32)
        v = rand_vec(rng, 40)
        for l in (1, 7, 40):
            got = functional(op, l, v)
            d = SeqVector.from_complex(L1, [basis.rows[l - 1, l - 1]])
            assert got.log_mag == d.hi[0] + v.lm[l - 1]
            assert got.phase == v.phase[l - 1]  # the diagonal entries are real


class TestCommutation:
    def test_identity_residual_zero(self):
        basis = host_basis("identity", 60)
        rep = commutation_check(build_N(basis), 60, np.random.default_rng(0))
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
            rep = commutation_check(build_N(basis), 200, np.random.default_rng(0))
            assert rep.max_residual <= 1e-10, kind


class TestPushforward:
    def mk_contraction(self, rng, n):
        return rand_vec(rng, n, scale=0.002)

    def test_identity_is_exact(self):
        basis = host_basis("identity", 80)
        rng = np.random.default_rng(3)
        init = (self.mk_contraction(rng, 80), self.mk_contraction(rng, 80))
        rep = pushforward_orbit_check(build_N(basis), init, 40)
        assert rep.ok
        assert all(r == LOG_ZERO for r in rep.residual_logs)

    def test_diagonal_fifty_steps(self):
        basis = host_basis("diagonal", 120)
        rng = np.random.default_rng(4)
        init = (self.mk_contraction(rng, 120), self.mk_contraction(rng, 120))
        rep = pushforward_orbit_check(build_N(basis), init, 50)
        assert rep.ok and rep.steps == 50

    def test_banded_fifty_steps(self):
        basis = host_basis("banded", 120)
        rng = np.random.default_rng(5)
        init = (self.mk_contraction(rng, 120), self.mk_contraction(rng, 120))
        rep = pushforward_orbit_check(build_N(basis), init, 50)
        assert rep.ok

    def test_zero_functional_start_gives_zero_orbits(self):
        basis = host_basis("banded", 40)
        rng = np.random.default_rng(6)
        x = rand_vec(rng, 40)
        y = SeqVector.from_complex(L1, [0.0] + [0.5] * 39)
        rep = pushforward_orbit_check(build_N(basis), (x, y), 10)
        assert rep.ok


def _same_bits(a: SeqVector, b: SeqVector) -> bool:
    return all(getattr(a, p).tobytes() == getattr(b, p).tobytes()
               for p in ("hi", "lo", "phase"))


def _block_rows(rng, N):
    """One row of each kind a block holds: full width, padded with canonical
    zeros, one live term, all zero, and a zero first coordinate (a zero
    first functional in every built-in basis)."""
    full = rand_vec(rng, N)
    return [full, rand_vec(rng, N - 5),
            SeqVector.basis(L1, N, 3).scale(LogComplex(-0.4, 2.0)),
            SeqVector.zeros(L1, N),
            SeqVector(L1, np.r_[LOG_ZERO, full.hi[1:]], np.r_[0.0, full.lo[1:]],
                      np.r_[0.0, full.phase[1:]])]


KINDS = ["identity", "diagonal", "banded"]


class TestBlockRows:
    """Row k of a block call has the bits of the one-vector call on row k."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_matvec_rows(self, kind):
        N = 30
        op = build_N(host_basis(kind, N))
        rows = _block_rows(np.random.default_rng(71), N)
        block = SeqVector.stack(rows)
        for matrix in (op.phi._cols, op._mix_log):
            out = matrix.matvec(block)
            assert out.hi.shape == (len(rows), matrix.shape[0])
            for k, r in enumerate(rows):
                assert _same_bits(out.row(k), matrix.matvec(r))

    @pytest.mark.parametrize("kind", KINDS)
    def test_host_apply_rows(self, kind):
        N = 30
        op = build_N(host_basis(kind, N))
        rows = _block_rows(np.random.default_rng(72), N)
        K = len(rows)
        # v runs one row behind u, so each kind of row meets each slot
        vs = rows[1:] + rows[:1]
        out = op.apply(SeqVector.stack(rows), SeqVector.stack(vs))
        for k in range(K):
            assert _same_bits(out.row(k), op.apply(rows[k], vs[k]))
        # a zero first functional annihilates the whole row
        assert (out.row(K - 2).hi == LOG_ZERO).all()


def _old_commutation_random(host_op, samples, rng):
    """Reference: the random part of the commutation check pair by pair, with
    the draws in the check's order (the basis part draws nothing)."""
    phi, N = host_op.phi, host_op.basis.size
    worst = 0.0
    for _ in range(max(1, min(samples, N) // 5)):
        uu = SeqVector.from_complex(L1, rng.normal(size=N) + 1j * rng.normal(size=N))
        vv = SeqVector.from_complex(L1, rng.normal(size=N) + 1j * rng.normal(size=N))
        r = norm(phi(apply(m_l1(), (uu, vv))._padded(N)).sub(host_op.apply(phi(uu), phi(vv))))
        worst = max(worst, math.exp(min(r, 50.0)) if r > LOG_ZERO else 0.0)
    return worst


def _old_pushforward_logs(host_op, init, steps):
    """Reference: the push-forward residual and bound logs state by state."""
    phi = host_op.phi
    h_prev2, h_prev1 = phi(init[0]), phi(init[1])
    resid, bound = [], []
    for src in iterate_bc(m_l1(), init, steps).states:
        h = host_op.apply(h_prev2, h_prev1)
        h_prev2, h_prev1 = h_prev1, h
        resid.append(norm(phi(src).truncate(len(src)).sub(h.truncate(len(src)))))
        bound.append(math.log(1e-9) + float(np.logaddexp(0.0, norm(h))))
    return resid, bound


class TestBlockChecks:
    """The block-built checks give the numbers of their pair-by-pair and
    state-by-state forms, and still fail on a host operator that is off."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_commutation_matches_pair_by_pair(self, kind):
        op = build_N(host_basis(kind, 80))
        rep = commutation_check(op, 60, np.random.default_rng(73))
        assert rep.max_random_residual == _old_commutation_random(
            op, 60, np.random.default_rng(73))

    @pytest.mark.parametrize("kind", KINDS)
    def test_pushforward_matches_state_by_state(self, kind):
        op = build_N(host_basis(kind, 80))
        rng = np.random.default_rng(74)
        init = (rand_vec(rng, 80, 0.002), rand_vec(rng, 80, 0.002))
        rep = pushforward_orbit_check(op, init, 30)
        assert (rep.residual_logs, rep.bound_logs) == _old_pushforward_logs(op, init, 30)

    @staticmethod
    def scaled(monkeypatch, log_factor):
        apply_n = HostBilinear.apply
        monkeypatch.setattr(HostBilinear, "apply", lambda self, u, v: apply_n(
            self, u, v).scale(LogComplex(log_factor, 0.0)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_host_scaled_by_e_1e_3_fails_pushforward(self, kind, monkeypatch):
        op = build_N(host_basis(kind, 80))
        rng = np.random.default_rng(75)
        init = (rand_vec(rng, 80, 0.002), rand_vec(rng, 80, 0.002))
        assert pushforward_orbit_check(op, init, 50).ok
        self.scaled(monkeypatch, 1e-3)
        assert not pushforward_orbit_check(op, init, 50).ok

    @pytest.mark.parametrize("kind", KINDS)
    def test_host_scaled_by_e_1e_6_fails_commutation(self, kind, monkeypatch):
        op = build_N(host_basis(kind, 80))
        assert commutation_check(op, 50, np.random.default_rng(76)).max_residual <= 1e-10
        self.scaled(monkeypatch, 1e-6)
        assert commutation_check(op, 50, np.random.default_rng(76)).max_residual > 1e-10


class TestLiveEntryKernel:
    """``_LogMatrix`` holds a matrix by its live entries."""

    @staticmethod
    def sparse_matrix(rng, n_out, n_in, density):
        m = rng.normal(size=(n_out, n_in)) + 1j * rng.normal(size=(n_out, n_in))
        m *= np.exp(rng.uniform(-5.0, 5.0, (n_out, n_in)))
        m[rng.random((n_out, n_in)) > density] = 0.0
        m[[2, 5]] = 0.0                        # rows with no entries
        m[7] = 0.0
        m[7, [0, 1]] = [1.5 - 0.5j, -1.5 + 0.5j]  # cancels on equal inputs
        return m

    @pytest.mark.parametrize("n_vec", [9, 30, 45])
    def test_matches_dense_complex(self, n_vec):
        rng = np.random.default_rng(41)
        m = self.sparse_matrix(rng, 20, 30, 0.3)
        m[9] = 0.0
        m[9, 3] = 2.0                          # live only on a zero coordinate
        mat = _LogMatrix(*_log_polar(m))
        z = rng.normal(size=n_vec) + 1j * rng.normal(size=n_vec)
        z[1] = z[0]
        z[[3, 6]] = 0.0
        got = mat.matvec(SeqVector.from_complex(L1, z))
        zc = np.zeros(30, dtype=complex)
        zc[: min(n_vec, 30)] = z[:30]
        want = m @ zc
        scale = np.abs(m) @ np.abs(zc)
        assert len(got) == 20
        assert np.all(np.abs(to_complex(got) - want) <= 1e-14 * scale)
        for r in (2, 5, 7, 9):
            assert (got.hi[r], got.lo[r], got.phase[r]) == (LOG_ZERO, 0.0, 0.0)

    def test_single_terms_carry_lo_through_dd_add(self):
        rng = np.random.default_rng(42)
        n = 25
        hi = rng.uniform(-50.0, 50.0, n)
        lo = hi * rng.uniform(-1e-17, 1e-17, n)
        v = SeqVector(L1, hi, lo, rng.uniform(-np.pi, np.pi, n))
        assert np.all(v.lo != 0.0)
        perm = rng.permutation(n)
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(n), perm] = np.exp(rng.uniform(-30.0, 30.0, n)
                                       + 1j * rng.uniform(-np.pi, np.pi, n))
        log_abs, phase = _log_polar(m)
        got = _LogMatrix(log_abs, phase).matvec(v)
        live = log_abs[np.arange(n), perm]
        want_hi, want_lo = _dd_add(v.hi[perm], v.lo[perm], live)
        assert np.array_equal(got.hi, want_hi)
        assert np.array_equal(got.lo, want_lo)
        assert np.array_equal(got.phase, _norm_phases(
            v.phase[perm] + phase[np.arange(n), perm]))

    def test_identity_equals_the_source_operator_bit_for_bit(self):
        # the expressions the identity basis once short-circuited to
        N = 60
        basis = host_basis("identity", N)
        phi, op = FactorMap(basis), build_N(basis)
        rng = np.random.default_rng(43)
        init = (rand_vec(rng, N, 0.01), rand_vec(rng, N, 0.01))
        states = list(init) + iterate_bc(m_l1(), init, 30).states
        assert any(np.any(s.lo != 0.0) for s in states)
        for u, v in zip(states, states[1:]):
            for got, want in (
                    (phi(v), v._padded(N)),
                    (op.apply(u, v), backward_shift(u._padded(N), m_l1().weights).scale(
                        eval_functional(v._padded(N)))._padded(N))):
                assert np.array_equal(got.hi, want.hi)
                assert np.array_equal(got.lo, want.lo)
                assert np.array_equal(got.phase, want.phase)
