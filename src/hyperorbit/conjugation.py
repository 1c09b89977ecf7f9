"""Biorthogonal host bases, the factor map, and the conjugated bilinear operator.

A host space is simulated in truncated coordinates.  A basis is a pair of
matrices: vectors as columns, coordinate functionals as rows, with
``rows @ columns`` the identity (exactly for the built-in generators, to
triangular back-substitution accuracy for the banded family).  The factor map
sends the k-th canonical vector to the k-th basis vector; the conjugated
operator re-expresses the weighted-shift bilinear map through the basis:

    ``N(u, v) = x_1*(v) * sum_{l >= 2} x_l*(u) w_{l-1} x_{l-1}``

(the l = 1 summand is taken to vanish; its target vector does not exist and
the source operator's matching value is zero).  Verified here: biorthogonality
and boundedness of the basis, the commutation relation on basis pairs and on
random vectors, and state-by-state agreement of the pushed-forward orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import LOG_ZERO
from .dynamics import apply, iterate_bc, m_l1
from .errors import ParameterRangeError
from .report import Check, check_leq
from .spaces import (
    _EXP_FLOOR,
    SeqVector,
    SpaceTag,
    _coords_from_row_sums,
    _dd_add,
    _norm_phases,
    norm,
)

_L1 = SpaceTag.l1()


@dataclass
class MarkushevichBasis:
    """Truncated biorthogonal system: vectors as columns, functionals as rows."""

    size: int
    columns: np.ndarray     # complex, size x size; column n is x_{n+1}
    rows: np.ndarray        # complex, size x size; row n is x_{n+1}*

    def biorthogonality_residual(self) -> float:
        g = self.rows @ self.columns
        return float(np.max(np.abs(g - np.eye(self.size))))

    def bound(self) -> float:
        """``sup_n ||x_n||_1 * ||x_n*||`` with the dual (sup) norm on rows."""
        col_norms = np.sum(np.abs(self.columns), axis=0)
        row_norms = np.max(np.abs(self.rows), axis=1)
        return float(np.max(col_norms * row_norms))


def host_basis(kind: str, N: int, u: float = 0.3) -> MarkushevichBasis:
    """Concrete biorthogonal systems on a truncated host.

    ``identity``: the canonical system.  ``diagonal``: x_n = s_n e_n with
    ``s_n = 1 + 1/(2n)``.  ``banded``: x_n = e_n +
    u 2**(-n) e_{n+1} with |u| < 1/2; functionals come from the exact inverse
    of the unit-triangular band matrix.
    """
    if N < 2:
        raise ParameterRangeError("basis needs N >= 2")
    if kind == "identity":
        eye = np.eye(N, dtype=complex)
        return MarkushevichBasis(N, eye, eye.copy())
    if kind == "diagonal":
        s = (1.0 + 1.0 / (2.0 * np.arange(1, N + 1))).astype(complex)
        return MarkushevichBasis(N, np.diag(s), np.diag(1.0 / s))
    if kind == "banded":
        if abs(u) >= 0.5:
            raise ParameterRangeError("band parameter needs |u| < 1/2")
        cols = np.eye(N, dtype=complex)
        sub = u * 2.0 ** (-np.arange(1, N, dtype=float))
        cols[np.arange(1, N), np.arange(N - 1)] = sub
        # exact inverse of the unit lower bidiagonal: alternating products
        rows = np.eye(N, dtype=complex)
        for n in range(1, N):
            rows[n, :n] = -sub[n - 1] * rows[n - 1, :n]
            # row n starts as e_n; subtract sub * previous row recursively
        return MarkushevichBasis(N, cols, rows)
    raise ParameterRangeError(f"unknown basis kind {kind!r}")


# ---------------------------------------------------------------------------
# factor map and conjugated operator
# ---------------------------------------------------------------------------


def _log_polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log moduli (``-inf`` at zeros) and phases of a complex matrix."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(m)), np.angle(m)


class _LogMatrix:
    """A complex matrix held by its live entries: row, column, log modulus
    and phase of each nonzero entry, sorted by row."""

    def __init__(self, log_abs: np.ndarray, phase: np.ndarray):
        self.shape = log_abs.shape
        self.row, self.col = np.nonzero(log_abs > LOG_ZERO)
        self.log_abs = log_abs[self.row, self.col]
        self.phase = phase[self.row, self.col]
        self._live_rows, self._starts = np.unique(self.row, return_index=True)

    def matvec(self, v: SeqVector) -> SeqVector:
        """Log-domain ``M v`` on l1; ``v`` is zero-padded or cut to the width.

        The live-entry form of :func:`~hyperorbit.spaces.log_matvec`: row
        maxima from one ``maximum.reduceat``, one ``exp`` over the live
        entries, and the re, im and total sums from ``bincount``.  A row whose
        scaled moduli sum to exactly 1 passes its largest term through
        ``_dd_add``, ``lo`` included, so images of canonical vectors keep the
        matrix entries bit for bit and the identity basis is exact.
        """
        n_out, n_in = self.shape
        v = v._padded(n_in)
        t = self.log_abs + v.lm[self.col]
        rowmax = np.full(n_out, LOG_ZERO)
        if t.size:
            rowmax[self._live_rows] = np.maximum.reduceat(t, self._starts)
        scaled = t - np.where(rowmax == LOG_ZERO, 0.0, rowmax)[self.row]
        np.maximum(scaled, _EXP_FLOOR, out=scaled)
        np.exp(scaled, out=scaled)
        psi = self.phase + v.phase[self.col]
        re = np.bincount(self.row, scaled * np.cos(psi), n_out)
        im = np.bincount(self.row, scaled * np.sin(psi), n_out)
        tot = np.bincount(self.row, scaled, n_out)
        hi, ph = _coords_from_row_sums(rowmax, re, im)
        lo = np.zeros(n_out)
        single = tot == 1.0
        if single.any():
            k = np.flatnonzero(single[self.row] & (t == rowmax[self.row]))
            r, c = self.row[k], self.col[k]
            hi[r], lo[r] = _dd_add(v.hi[c], v.lo[c], self.log_abs[k])
            ph[r] = _norm_phases(v.phase[c] + self.phase[k])
        return SeqVector(_L1, hi, lo, ph)


class FactorMap:
    """``phi((a_n)) = sum_l a_l x_l``: dense-range factor onto the host."""

    def __init__(self, basis: MarkushevichBasis):
        self.basis = basis
        self._cols = _LogMatrix(*_log_polar(basis.columns))

    def __call__(self, v: SeqVector) -> SeqVector:
        return self._cols.matvec(v)


class HostBilinear:
    """The bilinear operator conjugated to ``m_l1`` (weights ``1/i^2``) through
    the factor map ``phi``, acting in host coordinates."""

    def __init__(self, basis: MarkushevichBasis):
        self.basis = basis
        self.phi = FactorMap(basis)
        N = basis.size
        rows_log, rows_phase = _log_polar(basis.rows)
        self._first = _LogMatrix(rows_log[:1], rows_phase[:1])
        self._rest = _LogMatrix(rows_log[1:], rows_phase[1:])
        # combined matrix for sum_l x_l*(u) w_{l-1} x_{l-1}: column l-2 is
        # x_{l-1} scaled by w_{l-1}, l = 2..N, the weight added to the log moduli
        cols_log, cols_phase = _log_polar(basis.columns[:, : N - 1])
        self._mix_log = _LogMatrix(cols_log + m_l1().weights.logs(N - 1), cols_phase)

    def apply(self, u: SeqVector, v: SeqVector) -> SeqVector:
        """``N(u, v)`` in the log domain.

        For the identity basis every row has one live term, so this is,
        coordinate for coordinate, the source operator's own computation
        (functional times weighted shift), and the push-forward comparison
        is exact there.
        """
        s = self._first.matvec(v).coord(1)  # x_1*(v)
        if s.is_zero:
            return SeqVector.zeros(_L1, self.basis.size)
        return self._mix_log.matvec(self._rest.matvec(u)).scale(s)


def build_N(basis: MarkushevichBasis) -> HostBilinear:
    """The bilinear operator conjugated to the weighted-shift operator
    ``m_l1`` through ``basis``."""
    return HostBilinear(basis)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class CommutationReport:
    max_basis_residual: float       # linear scale, over all basis pairs
    max_random_residual: float      # linear scale, over random log-domain pairs

    @property
    def max_residual(self) -> float:
        return max(self.max_basis_residual, self.max_random_residual)


def commutation_check(host_op: HostBilinear, samples: int,
                      rng: np.random.Generator) -> CommutationReport:
    """Residual of ``phi(M(u, v)) = N(phi(u), phi(v))`` for M = ``m_l1``, N =
    ``host_op`` and phi its factor map.

    Checked densely on all canonical pairs (k, j <= samples) in plain complex
    arithmetic (magnitudes are tame there) and on random log-domain vectors,
    drawn from ``rng``, through the log-domain operator path.  ``samples``
    must be at least 1.
    """
    if samples < 1:
        raise ParameterRangeError("commutation needs samples >= 1")
    m_spec, basis, phi = m_l1(), host_op.basis, host_op.phi
    N = basis.size
    samples = min(samples, N)
    w = m_spec.weights
    wvals = np.exp(w.logs(N - 1))
    X = basis.columns[:, :samples]

    # all basis pairs at once: N(x_k, x_j) = S_j * R[:, k] with
    # S = x_1*(X) and R = mix @ (rows[1:] @ X), mix[:, l-2] = w_{l-1} x_{l-1};
    # phi(M(e_k, e_j)) = [j == 1] w_{k-1} x_{k-1}
    S = basis.rows[0] @ X
    R = (basis.columns[:, : N - 1] * wvals) @ (basis.rows[1:] @ X)
    lhs = np.zeros((N, samples), dtype=complex)
    for k in range(2, samples + 1):
        lhs[:, k - 1] = wvals[k - 2] * basis.columns[:, k - 2]
    resid_j1 = float(np.max(np.sum(np.abs(S[0] * R - lhs), axis=0)))
    if samples > 1:
        resid_rest = float(np.max(np.abs(S[1:]))
                           * np.max(np.sum(np.abs(R), axis=0)))
    else:
        resid_rest = 0.0
    basis_resid = max(resid_j1, resid_rest)

    max_rand = 0.0
    for _ in range(max(1, samples // 5)):
        uu = SeqVector.from_complex(_L1, rng.normal(size=N) + 1j * rng.normal(size=N))
        vv = SeqVector.from_complex(_L1, rng.normal(size=N) + 1j * rng.normal(size=N))
        lhs_v = phi(apply(m_spec, (uu, vv))._padded(N))
        rhs_v = host_op.apply(phi(uu), phi(vv))
        r = norm(lhs_v.sub(rhs_v))
        max_rand = max(max_rand, math.exp(min(r, 50.0)) if r > LOG_ZERO else 0.0)
    return CommutationReport(basis_resid, max_rand)


@dataclass
class PushforwardReport:
    steps: int
    residual_logs: list      # per step: log ||phi(x_n) - h_n|| on the shared window
    bound_logs: list         # per step: log(tol * (1 + ||h_n||))
    ok: bool


def pushforward_orbit_check(host_op: HostBilinear, init, steps: int) -> PushforwardReport:
    """Iterate the orbits of ``m_l1`` and of ``host_op`` and compare
    ``phi(source state)`` with the host state, phi its factor map.

    The source window shrinks with each shift, so states are compared on the
    coordinates the source window still represents.  The per-step bound,
    1e-9 relative, scales with the host state's norm.
    """
    phi = host_op.phi
    orbit = iterate_bc(m_l1(), init, steps)
    h_prev2, h_prev1 = phi(init[0]), phi(init[1])
    resid_logs, bound_logs = [], []
    for n in range(1, len(orbit.states) + 1):
        h = host_op.apply(h_prev2, h_prev1)
        h_prev2, h_prev1 = h_prev1, h
        src = orbit.states[n - 1]
        L = len(src)
        r = norm(phi(src).truncate(L).sub(h.truncate(L)))
        hn = norm(h)
        bound = math.log(1e-9) + float(np.logaddexp(0.0, hn))
        resid_logs.append(r)
        bound_logs.append(bound)
    ok = not any(r > b for r, b in zip(resid_logs, bound_logs))
    return PushforwardReport(len(resid_logs), resid_logs, bound_logs, ok)


def conjugation_checks(basis: MarkushevichBasis, samples: int, rng) -> list[Check]:
    """The rows of ``conjugate``: the basis is biorthogonal to 1e-12 and
    bounded by 1 + 1/2; ``m_l1`` and :func:`build_N` commute through it to
    1e-10; and a pair drawn from ``rng`` in the contraction ball pushes
    forward for 50 steps, its worst log margin at most 0."""
    rows = [check_leq("biorthogonality", basis.biorthogonality_residual(), 1e-12,
                      "basis-biorthogonality"),
            check_leq("basis-bound", basis.bound(), 1.5, "basis-boundedness")]
    host_op = build_N(basis)
    com = commutation_check(host_op, samples, rng)
    rows.append(check_leq("commutation", com.max_residual, 1e-10, "factor-commutation"))
    n = basis.size
    init = tuple(SeqVector.from_complex(
        _L1, 0.002 * rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
        for _ in range(2))
    push = pushforward_orbit_check(host_op, init, 50)
    worst = max((r - b for r, b in zip(push.residual_logs, push.bound_logs)), default=-1.0)
    rows.append(check_leq("pushforward", worst, 0.0, "orbit-pushforward"))
    return rows
