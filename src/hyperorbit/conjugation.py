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

from .arith import LOG_ZERO, LogComplex
from .dynamics import MultilinearSpec, apply, iterate_bc
from .errors import ParameterRangeError
from .spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    backward_shift,
    eval_functional,
    log_matvec,
    norm,
    vector_from_json,
    vector_to_json,
)

_L1 = SpaceTag.l1()


@dataclass
class MarkushevichBasis:
    """Truncated biorthogonal system: vectors as columns, functionals as rows."""

    kind: str
    size: int
    columns: np.ndarray     # complex, size x size; column n is x_{n+1}
    rows: np.ndarray        # complex, size x size; row n is x_{n+1}*
    eps: float

    def vector(self, n: int) -> SeqVector:
        """Basis vector x_n (1-indexed) as a log-domain vector."""
        return SeqVector.from_complex(_L1, self.columns[:, n - 1])

    def biorthogonality_residual(self) -> float:
        g = self.rows @ self.columns
        return float(np.max(np.abs(g - np.eye(self.size))))

    def bound(self) -> float:
        """``sup_n ||x_n||_1 * ||x_n*||`` with the dual (sup) norm on rows."""
        col_norms = np.sum(np.abs(self.columns), axis=0)
        row_norms = np.max(np.abs(self.rows), axis=1)
        return float(np.max(col_norms * row_norms))


def host_basis(kind: str, N: int, scales=None, u: float = 0.3,
               eps: float = 0.5) -> MarkushevichBasis:
    """Concrete biorthogonal systems on a truncated host.

    ``identity``: the canonical system.  ``diagonal``: x_n = s_n e_n with
    scales in [1/2, 2] (default ``1 + 1/(2n)``).  ``banded``: x_n = e_n +
    u 2**(-n) e_{n+1} with |u| < 1/2; functionals come from the exact inverse
    of the unit-triangular band matrix.
    """
    if N < 2:
        raise ParameterRangeError("basis needs N >= 2")
    if kind == "identity":
        eye = np.eye(N, dtype=complex)
        return MarkushevichBasis(kind, N, eye, eye.copy(), eps)
    if kind == "diagonal":
        if scales is None:
            scales = 1.0 + 1.0 / (2.0 * np.arange(1, N + 1))
        s = np.asarray(scales, dtype=complex)
        if s.size != N or np.any(np.abs(s) < 0.5) or np.any(np.abs(s) > 2.0):
            raise ParameterRangeError("diagonal scales must lie in [1/2, 2]")
        return MarkushevichBasis(kind, N, np.diag(s), np.diag(1.0 / s), eps)
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
        return MarkushevichBasis(kind, N, cols, rows, eps)
    raise ParameterRangeError(f"unknown basis kind {kind!r}")


# ---------------------------------------------------------------------------
# factor map and conjugated operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LogMatrix:
    """A complex matrix as log moduli and phases, with the phases' cosine and
    sine built once, for repeated :func:`~hyperorbit.spaces.log_matvec` calls."""

    log_abs: np.ndarray
    phase: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    @staticmethod
    def from_complex(m: np.ndarray) -> "_LogMatrix":
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(m))
        phase = np.angle(m)
        return _LogMatrix(log_abs, phase, np.cos(phase), np.sin(phase))

    def rows(self, start: int, stop: int | None = None) -> "_LogMatrix":
        sl = slice(start, stop)
        return _LogMatrix(self.log_abs[sl], self.phase[sl], self.cos[sl],
                          self.sin[sl])

    def matvec(self, v: SeqVector) -> SeqVector:
        """Log-domain ``M v`` on l1; ``v`` is zero-padded or cut to the width.

        Rows with a single live term pass that term through directly, so
        images of canonical vectors keep the matrix entries bit for bit.
        """
        n_in = self.log_abs.shape[1]
        v = v._padded(n_in)
        return log_matvec(self.log_abs + v.lm[:n_in], v.phase[:n_in], _L1,
                          entry_phase=(self.phase, self.cos, self.sin))


class FactorMap:
    """``phi((a_n)) = sum_l a_l x_l``: dense-range factor onto the host.

    The identity basis short-circuits to the identity map (bit-exact), since
    host coordinates then coincide with source coordinates.
    """

    def __init__(self, basis: MarkushevichBasis):
        self.basis = basis
        self._cols = _LogMatrix.from_complex(basis.columns)

    def __call__(self, v: SeqVector) -> SeqVector:
        if self.basis.kind == "identity":
            return v._padded(self.basis.size).retag(_L1)
        return self._cols.matvec(v)

    def image_of_basis(self, n: int) -> SeqVector:
        return self.basis.vector(n)


class HostBilinear:
    """The conjugated bilinear operator acting in host coordinates."""

    def __init__(self, basis: MarkushevichBasis, w: WeightSeq | None = None):
        self.basis = basis
        self.w = w or WeightSeq.inv_squares()
        N = basis.size
        self._rows = _LogMatrix.from_complex(basis.rows)
        # combined matrix for sum_l x_l*(u) w_{l-1} x_{l-1}:
        # out = columns[:, l-2] scaled by w_{l-1} * (row_l . u), l = 2..N
        wlog = self.w.logs(N - 1)
        self._mix = (self.basis.columns[:, : N - 1]
                     * np.exp(wlog)[np.newaxis, :])
        self._mix_log = _LogMatrix.from_complex(self._mix)

    def functional(self, l: int, v: SeqVector) -> LogComplex:
        """``x_l*(v)`` in the log domain."""
        return self._rows.rows(l - 1, l).matvec(v).coord(1)

    def apply(self, u: SeqVector, v: SeqVector) -> SeqVector:
        """``N(u, v)`` in the log domain.

        For the identity basis this is, coordinate for coordinate, the source
        operator's own computation (functional times weighted shift), so the
        push-forward comparison is exact there.
        """
        N = self.basis.size
        if self.basis.kind == "identity":
            out = backward_shift(u._padded(N), self.w).scale(
                eval_functional(v._padded(N)))
            return out._padded(N)
        s = self.functional(1, v)
        if s.is_zero:
            return SeqVector.zeros(_L1, N)
        coef = self._rows.rows(1).matvec(u)
        return self._mix_log.matvec(coef).scale(s)

    def apply_dense(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Plain complex evaluation (for tame magnitudes)."""
        s = self.basis.rows[0] @ v
        coef = self.basis.rows[1:] @ u
        return s * (self._mix @ coef)


def build_N(basis: MarkushevichBasis, w: WeightSeq | None = None) -> HostBilinear:
    """The bilinear operator conjugated to the weighted-shift operator."""
    return HostBilinear(basis, w)


# ---------------------------------------------------------------------------
# basis interchange format
# ---------------------------------------------------------------------------


def basis_to_json(basis: MarkushevichBasis) -> dict:
    """Serialize: one vector object per basis vector plus a functional-rows section."""

    def enc(row):
        return vector_to_json(SeqVector.from_complex(_L1, row))

    return {
        "kind": basis.kind,
        "size": basis.size,
        "eps": basis.eps,
        "vectors": [enc(basis.columns[:, n]) for n in range(basis.size)],
        "functionals": [enc(basis.rows[n]) for n in range(basis.size)],
    }


def basis_from_json(obj: dict) -> MarkushevichBasis:
    size = int(obj["size"])
    cols = np.zeros((size, size), dtype=complex)
    rows = np.zeros((size, size), dtype=complex)
    for n, entry in enumerate(obj["vectors"]):
        cols[:, n] = vector_from_json(entry).to_complex()
    for n, entry in enumerate(obj["functionals"]):
        rows[n] = vector_from_json(entry).to_complex()
    return MarkushevichBasis(str(obj["kind"]), size, cols, rows,
                             float(obj.get("eps", 0.5)))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class CommutationReport:
    basis_kind: str
    samples: int
    max_basis_residual: float       # linear scale, over all basis pairs
    max_random_residual: float      # linear scale, over random log-domain pairs

    @property
    def max_residual(self) -> float:
        return max(self.max_basis_residual, self.max_random_residual)


def commutation_check(m_spec: MultilinearSpec, host_op: HostBilinear,
                      basis: MarkushevichBasis, samples: int,
                      rng=None) -> CommutationReport:
    """Residual of ``phi(M(u, v)) = N(phi(u), phi(v))``.

    Checked densely on all canonical pairs (k, j <= samples) in plain complex
    arithmetic (magnitudes are tame there) and on random log-domain vectors
    through the log-domain operator path.
    """
    N = basis.size
    samples = min(samples, N)
    w = m_spec.weights
    wvals = np.exp(w.logs(N - 1))
    X = basis.columns[:, :samples]

    # all basis pairs at once: N(x_k, x_j) = S_j * R[:, k] with
    # S = x_1*(X) and R = mix @ (rows[1:] @ X);
    # phi(M(e_k, e_j)) = [j == 1] w_{k-1} x_{k-1}
    S = basis.rows[0] @ X
    R = host_op._mix @ (basis.rows[1:] @ X)
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

    rng = rng or np.random.default_rng(0)
    phi = FactorMap(basis)
    max_rand = 0.0
    for _ in range(max(1, samples // 5)):
        uu = SeqVector.from_complex(_L1, rng.normal(size=N) + 1j * rng.normal(size=N))
        vv = SeqVector.from_complex(_L1, rng.normal(size=N) + 1j * rng.normal(size=N))
        lhs_v = phi(apply(m_spec, (uu, vv))._padded(N))
        rhs_v = host_op.apply(phi(uu), phi(vv))
        r = norm(lhs_v.sub(rhs_v))
        max_rand = max(max_rand, math.exp(min(r, 50.0)) if r > LOG_ZERO else 0.0)
    return CommutationReport(basis.kind, samples, basis_resid, max_rand)


@dataclass
class PushforwardReport:
    basis_kind: str
    steps: int
    residual_logs: list      # per step: log ||phi(x_n) - h_n|| on the shared window
    bound_logs: list         # per step: log(tol * (1 + ||h_n||))
    ok: bool


def pushforward_orbit_check(m_spec: MultilinearSpec, host_op: HostBilinear,
                            basis: MarkushevichBasis, init, steps: int,
                            tol: float = 1e-9) -> PushforwardReport:
    """Iterate both orbits and compare ``phi(source state)`` with the host state.

    The source window shrinks with each shift, so states are compared on the
    coordinates the source window still represents.  The per-step bound scales
    with the host state's norm.
    """
    phi = FactorMap(basis)
    orbit = iterate_bc(m_spec, init, steps)
    h_prev2, h_prev1 = phi(init[0]), phi(init[1])
    resid_logs, bound_logs = [], []
    ok = True
    for n in range(1, len(orbit.states) + 1):
        h = host_op.apply(h_prev2, h_prev1)
        h_prev2, h_prev1 = h_prev1, h
        src = orbit.states[n - 1]
        L = len(src)
        r = norm(phi(src).truncate(L).sub(h.truncate(L)))
        hn = norm(h)
        bound = math.log(tol) + float(np.logaddexp(0.0, hn))
        resid_logs.append(r)
        bound_logs.append(bound)
        if r > bound:
            ok = False
    return PushforwardReport(basis.kind, len(resid_logs), resid_logs,
                             bound_logs, ok)
