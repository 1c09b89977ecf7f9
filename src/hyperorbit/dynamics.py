"""Orbit engines for both orbit notions, weight ledgers, and asymptotic classification.

Every operator here has the shape "product of coordinate functionals times a
linear operator applied to one slot".  Two orbit notions are implemented:

* the recursive orbit ``x_n = M(x_{n-m}, ..., x_{n-1})`` from an m-tuple of
  initial vectors, which admits closed forms ``(shift power) * c_n * d_n``
  with Fibonacci-exponent scalar ledgers;
* the tree orbit, where level n is level n-1 together with all images
  ``M(z, w)`` of pairs from level n-1, deduplicated by a quantized hash.

The scalar ledgers ``c_n`` (initial-data part) and ``d_n`` (weight part)
satisfy two-term multiplicative recursions driven by a merged scalar sequence;
both the recursion and a direct big-integer-exponent product evaluation are
exposed so each can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .arith import LOG_ZERO, FibCache, LogComplex, logc_prod
from .errors import ParameterRangeError, UnsupportedFormError, WrongSpaceError
from .spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    _add_arrays,
    _scale_arrays,
    backward_shift,
    derivative,
    derivative_at_zero,
    derivative_pow,
    eval_functional,
    log_matvec,
    norm,
    shift_pow,
    translate,
    translate_by,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# operator descriptions
# ---------------------------------------------------------------------------

_MERGE_STYLES = ("alternating_raw", "alternating_deriv", "chain_coords",
                 "chain_deriv", "chain_eval", "none")


@dataclass(frozen=True)
class MultilinearSpec:
    """An m-linear operator of functional-times-shift form.

    ``functional_slots`` (1-indexed) are fed to the first-coordinate
    functional; ``shift_slot`` receives the linear part.  ``merge_style``
    selects how the scalar ledger reads the initial data (raw coordinates vs
    derivative values vs integer-point evaluations), mirroring each operator
    family's own bookkeeping.
    """

    name: str
    arity: int
    functional_slots: tuple[int, ...]
    shift_slot: int
    linear: str                    # "shift" | "derivative" | "translate"
    space: SpaceTag
    weights: WeightSeq | None = None
    symmetrized: bool = False
    merge_style: str = "none"

    def __post_init__(self):
        if self.arity < 2:
            raise ParameterRangeError("multilinear operators here have arity >= 2")
        slots = set(self.functional_slots) | {self.shift_slot}
        if slots != set(range(1, self.arity + 1)):
            raise ParameterRangeError("slots must cover 1..m exactly")
        if len(self.functional_slots) != self.arity - 1:
            raise ParameterRangeError("need m-1 functional slots")
        if self.symmetrized and self.arity != 2:
            raise ParameterRangeError("symmetrization is defined for arity 2 only")
        if self.linear not in ("shift", "derivative", "translate"):
            raise ParameterRangeError(f"unknown linear part {self.linear!r}")
        if self.merge_style not in _MERGE_STYLES:
            raise ParameterRangeError(f"unknown merge style {self.merge_style!r}")

    @property
    def has_closed_form(self) -> bool:
        return not self.symmetrized and self.merge_style != "none"

    def linear_apply(self, v: SeqVector) -> SeqVector:
        if self.linear == "shift":
            return backward_shift(v, self.weights)
        if self.linear == "derivative":
            return derivative(v)
        return translate(v)

    def linear_pow(self, v: SeqVector, k: int) -> SeqVector:
        if self.linear == "shift":
            return shift_pow(v, self.weights, k)
        if self.linear == "derivative":
            return derivative_pow(v, k)
        return translate_by(v, k)


def mc_CN(m: int = 2, k: int = 4) -> MultilinearSpec:
    """m-linear product of first-coordinate functionals with one unweighted shift.

    Acts on the seminormed full sequence space; functionals read the first
    m-1 arguments, the shift acts on the last.
    """
    return MultilinearSpec(
        name="mc_CN", arity=m,
        functional_slots=tuple(range(1, m)), shift_slot=m,
        linear="shift", space=SpaceTag.cn(k), weights=WeightSeq.ones(),
        merge_style="chain_coords")


def m_l1() -> MultilinearSpec:
    """Bilinear ``(x, y) -> y_1 * B_w(x)`` on l1 with weights ``w_i = 1/i**2``."""
    return MultilinearSpec(
        name="m_l1", arity=2, functional_slots=(2,), shift_slot=1,
        linear="shift", space=SpaceTag.l1(), weights=WeightSeq.inv_squares(),
        merge_style="alternating_raw")


def n_transpose(space: SpaceTag | None = None) -> MultilinearSpec:
    """Bilinear ``(x, y) -> y_1 * B(x)`` with unit weights on lp or c0.

    The sequence-space twin of the evaluation-times-derivative operator: the
    unweighted backward shift plays the role the differentiation operator
    plays on entire functions.
    """
    return MultilinearSpec(
        name="n_transpose", arity=2, functional_slots=(2,), shift_slot=1,
        linear="shift", space=space or SpaceTag.c0(), weights=WeightSeq.ones(),
        merge_style="alternating_raw")


def m_fg_prime(k: int = 1) -> MultilinearSpec:
    """Bilinear ``(f, g) -> f(0) * g'`` on entire functions."""
    return MultilinearSpec(
        name="m_fg_prime", arity=2, functional_slots=(1,), shift_slot=2,
        linear="derivative", space=SpaceTag.hc(k),
        merge_style="chain_deriv")


def n_delta_d(k: int = 1) -> MultilinearSpec:
    """Bilinear ``(f, g) -> g(0) * f'`` on entire functions."""
    return MultilinearSpec(
        name="n_delta_d", arity=2, functional_slots=(2,), shift_slot=1,
        linear="derivative", space=SpaceTag.hc(k),
        merge_style="alternating_deriv")


def b_translate(k: int = 1) -> MultilinearSpec:
    """Bilinear ``(g, f) -> g(0) * f(z + 1)`` on entire functions."""
    return MultilinearSpec(
        name="b_translate", arity=2, functional_slots=(1,), shift_slot=2,
        linear="translate", space=SpaceTag.hc(k),
        merge_style="chain_eval")


def m_symmetric() -> MultilinearSpec:
    """Symmetrized shift operator ``(x, y) -> (x_1 B_w(y) + y_1 B_w(x)) / 2`` on l1."""
    return MultilinearSpec(
        name="m_symmetric", arity=2, functional_slots=(2,), shift_slot=1,
        linear="shift", space=SpaceTag.l1(), weights=WeightSeq.inv_squares(),
        symmetrized=True, merge_style="none")


OPERATORS = {
    "mc_CN": mc_CN,
    "m_l1": m_l1,
    "n_transpose": n_transpose,
    "m_fg_prime": m_fg_prime,
    "n_delta_d": n_delta_d,
    "b_translate": b_translate,
    "m_symmetric": m_symmetric,
}


def make_operator(name: str, arity: int | None = None) -> MultilinearSpec:
    if name not in OPERATORS:
        raise ParameterRangeError(
            f"unknown operator {name!r}; registered: {sorted(OPERATORS)}")
    if name == "mc_CN" and arity is not None:
        return mc_CN(arity)
    return OPERATORS[name]()


# ---------------------------------------------------------------------------
# one application and the recursive orbit
# ---------------------------------------------------------------------------


def _check_spaces(spec: MultilinearSpec, args) -> None:
    for a in args:
        if a.space.kind != spec.space.kind:
            raise WrongSpaceError(
                f"{spec.name} expects {spec.space.kind!r} vectors, got {a.space.kind!r}")


def _apply_oriented(spec: MultilinearSpec, args, functional_slots, shift_slot):
    scalar = logc_prod(eval_functional(args[s - 1]) for s in functional_slots)
    shifted = spec.linear_apply(args[shift_slot - 1])
    return shifted.scale(scalar)


HALF = LogComplex(-LN2, 0.0)


def apply(spec: MultilinearSpec, args) -> SeqVector:
    """One application of the operator to an m-tuple of vectors."""
    args = tuple(args)
    if len(args) != spec.arity:
        raise ParameterRangeError(f"{spec.name} has arity {spec.arity}")
    _check_spaces(spec, args)
    out = _apply_oriented(spec, args, spec.functional_slots, spec.shift_slot)
    if spec.symmetrized:
        other = _apply_oriented(
            spec, args, (spec.shift_slot,), spec.functional_slots[0])
        n = min(len(out), len(other))
        out = out.truncate(n).add(other.truncate(n)).scale(HALF)
    return out


@dataclass
class OrbitBC:
    """A recursive orbit: states 1..N from an m-tuple of initial vectors."""

    spec: MultilinearSpec
    initial: tuple
    states: list
    exhausted_at: int | None = None

    def log_norms(self) -> list[float]:
        return [norm(s) for s in self.states]


def iterate_bc(spec: MultilinearSpec, init, steps: int) -> OrbitBC:
    """Direct recursion ``x_n = M(x_{n-m}, ..., x_{n-1})``.

    Stops early, recording ``exhausted_at``, if shifts consume the truncation
    window (states would become empty); exhaustion is recorded, not raised.
    """
    if steps < 1:
        raise ParameterRangeError("steps must be >= 1")
    init = tuple(init)
    window = list(init)
    states: list[SeqVector] = []
    exhausted_at = None
    for n in range(1, steps + 1):
        args = window[-spec.arity:]
        if any(a.is_exhausted for a in args):
            exhausted_at = n
            break
        nxt = apply(spec, args)
        if nxt.is_exhausted:
            exhausted_at = n
            break
        states.append(nxt)
        window.append(nxt)
    return OrbitBC(spec, init, states, exhausted_at)


# ---------------------------------------------------------------------------
# weight ledgers
# ---------------------------------------------------------------------------


def _eval_poly_at_nonneg_int(v: SeqVector, point: int) -> LogComplex:
    """``f(point)`` for integer point >= 0: a one-row log-domain power sum."""
    if point == 0 or len(v) == 0:
        return eval_functional(v)
    terms = np.arange(len(v), dtype=float) * math.log(point) + v.lm
    return log_matvec(terms[np.newaxis, :], v.phase, v.space).coord(1)


def _coord_or_zero(v: SeqVector, i: int) -> LogComplex:
    """Coordinate i (1-indexed), with the tail beyond the window exactly zero."""
    if i > len(v):
        return LogComplex.zero()
    return v.coord(i)


def _merge_sequence(spec: MultilinearSpec, init, N: int) -> list[LogComplex]:
    """The scalar sequence z_1..z_N feeding the two-term c-recursion."""
    if spec.merge_style == "alternating_raw":
        x, y = init
        out = [_coord_or_zero(y, 1)]
        i = 1
        while len(out) < N:
            out.append(_coord_or_zero(x, i + 1))
            if len(out) < N:
                out.append(_coord_or_zero(y, i + 1))
            i += 1
        return out[:N]
    if spec.merge_style == "alternating_deriv":
        f, g = init
        out = [derivative_at_zero(g, 0)]
        i = 1
        while len(out) < N:
            out.append(derivative_at_zero(f, i))
            if len(out) < N:
                out.append(derivative_at_zero(g, i))
            i += 1
        return out[:N]
    if spec.merge_style == "chain_deriv":
        f, g = init
        return [eval_functional(f)] + [derivative_at_zero(g, j)
                                       for j in range(N - 1)]
    if spec.merge_style == "chain_eval":
        g, f = init
        return [eval_functional(g)] + [_eval_poly_at_nonneg_int(f, j)
                                       for j in range(N - 1)]
    raise UnsupportedFormError(f"{spec.name} has no merged scalar sequence")


@dataclass
class WeightLedger:
    """The scalar sequences c_n and d_n of a closed-form orbit, in log form.

    ``c_n`` obeys ``c_1 = z_1``, ``c_2 = z_1 z_2``, ``c_n = c_{n-1} c_{n-2} z_n``
    over the merged sequence ``z``; for the product-of-functionals chain
    (style ``chain_coords``) the recursion instead multiplies the previous m-1
    first coordinates, as that family requires.  ``d_n`` collects weight
    products: ``d_1 = 1``, ``d_2 = w_1``,
    ``d_n = d_{n-1} d_{n-2} w_1 ... w_{floor(n/2)}``.
    """

    spec: MultilinearSpec
    c_vals: list          # [c_1 .. c_N]
    d_vals: list          # [d_1 .. d_N]
    merge: list           # z_1 .. z_N (empty for chain_coords)
    zero_from: int | None = None

    def c(self, n: int) -> LogComplex:
        return self.c_vals[n - 1]

    def d(self, n: int) -> LogComplex:
        return self.d_vals[n - 1]

    def cd(self, n: int) -> LogComplex:
        return self.c_vals[n - 1].mul(self.d_vals[n - 1])

    def __len__(self) -> int:
        return len(self.c_vals)

    # -- direct evaluations (exact Fibonacci exponents), used as cross-checks

    def direct_c(self, n: int, cache: FibCache | None = None) -> LogComplex:
        """``prod_i z_i ** F(n+1-i)`` with exact big-integer exponents."""
        if not self.merge:
            raise UnsupportedFormError(
                f"{self.spec.name} ledger has no two-term merge form")
        cache = cache or FibCache(n + 1)
        out = LogComplex.one()
        for i in range(1, n + 1):
            out = out.mul(self.merge[i - 1].pow_int(cache(n + 1 - i)))
        return out

    def direct_d(self, n: int, cache: FibCache | None = None) -> LogComplex:
        """``prod_l w_l ** (F(n+3-2l) - 1)`` for l = 1..floor(n/2)."""
        w = self.spec.weights
        if w is None:
            return LogComplex.one()
        cache = cache or FibCache(n + 3)
        out = LogComplex.one()
        for l in range(1, n // 2 + 1):
            e = cache(n + 3 - 2 * l) - 1
            out = out.mul(LogComplex(w.log_at(l), 0.0).pow_int(e))
        return out


def ledger(spec: MultilinearSpec, init, N: int) -> WeightLedger:
    """Build the weight ledger for steps 1..N entirely in the log domain.

    A zero merge entry makes ``c_n`` exactly zero from some index on; the
    ledger records that index and keeps going.
    """
    if N < 2:
        raise ParameterRangeError("ledger needs N >= 2")
    if spec.symmetrized or spec.merge_style == "none":
        raise UnsupportedFormError(f"{spec.name} has no scalar ledger")
    init = tuple(init)

    # d_n: weight products, identity for families whose merge absorbs weights
    d_vals = [LogComplex.one()]
    if spec.merge_style in ("alternating_raw", "chain_coords") and spec.weights is not None:
        w = spec.weights
        cum = w.cum(N // 2 + 1)
        d_vals.append(LogComplex(float(cum[1]), 0.0))
        for n in range(3, N + 1):
            step = LogComplex(float(cum[n // 2]), 0.0)
            d_vals.append(d_vals[-1].mul(d_vals[-2]).mul(step))
    else:
        d_vals = [LogComplex.one()] * N
    d_vals = d_vals[:N] + [LogComplex.one()] * (N - len(d_vals))

    if spec.merge_style == "chain_coords":
        # product-of-functionals chain: c_n = c_{n-1} * prod of the first
        # coordinates of states n-m .. n-2 (initial vectors for indices <= 0)
        m = spec.arity
        x0 = init[-1]
        c_vals: list[LogComplex] = []

        def first_coord(i: int) -> LogComplex:
            if i <= 0:
                return _coord_or_zero(init[i + m - 1], 1)
            return c_vals[i - 1].mul(_coord_or_zero(x0, i + 1))

        for n in range(1, N + 1):
            prev = c_vals[n - 2] if n >= 2 else LogComplex.one()
            c_vals.append(prev.mul(
                logc_prod(first_coord(i) for i in range(n - m, n - 1))))
        merge: list[LogComplex] = []
    else:
        merge = _merge_sequence(spec, init, N)
        c_vals = [merge[0], merge[0].mul(merge[1])]
        for n in range(3, N + 1):
            c_vals.append(c_vals[-1].mul(c_vals[-2]).mul(merge[n - 1]))

    zero_from = None
    for i, c in enumerate(c_vals, start=1):
        if c.is_zero:
            zero_from = i
            break
    return WeightLedger(spec, c_vals, d_vals, merge, zero_from)


def closed_form_state(spec: MultilinearSpec, init, ledg: WeightLedger,
                      n: int) -> SeqVector:
    """State n straight from the closed form (shift power times c_n d_n).

    Families with the shift on the newest slot are a single power chain on the
    last initial vector; families with the shift on the oldest slot alternate
    between the two initial vectors (even steps read the second, odd the
    first).
    """
    if not spec.has_closed_form:
        raise UnsupportedFormError(f"{spec.name} has no derived closed form")
    if n > len(ledg):
        raise ParameterRangeError(f"ledger covers only {len(ledg)} steps")
    init = tuple(init)
    cd = ledg.cd(n)
    if spec.merge_style in ("chain_coords", "chain_deriv", "chain_eval"):
        base = spec.linear_pow(init[-1], n)
    else:
        if n % 2 == 0:
            base = spec.linear_pow(init[1], n // 2)
        else:
            base = spec.linear_pow(init[0], (n + 1) // 2)
    return base.scale(cd)


def closed_form_agreement(orbit: OrbitBC, closed_form=None) -> float:
    """Worst relative log-magnitude gap between direct states and closed forms.

    For each state n, the largest ``|cf - direct| / max(1, |direct|)`` over
    the direct state's live coordinates, with ``cf`` recomputed independently
    by ``closed_form`` (default :func:`closed_form_state`, same signature;
    a negative control passes a perturbed one); 0.0 when no state has a live
    coordinate.
    """
    closed_form = closed_form or closed_form_state
    spec, init = orbit.spec, orbit.initial
    led = ledger(spec, init, len(orbit.states))
    worst = 0.0
    for n, d in enumerate(orbit.states, start=1):
        cf = closed_form(spec, init, led, n)
        live = ~np.isneginf(d.lm)
        if live.any():
            rel = np.max(np.abs(cf.lm[live] - d.lm[live])
                         / np.maximum(1.0, np.abs(d.lm[live])))
            worst = max(worst, float(rel))
    return worst


# ---------------------------------------------------------------------------
# the tree orbit
# ---------------------------------------------------------------------------


def _quant_keys(hi, lo, phase, q: float):
    """Dedup keys of a block of states held as ``(rows, n)`` arrays.

    Coordinate j of a row keys as the float pair
    ``(rint(lm / q), rint(phase / q))``, an exact zero as ``(-inf, 0)``.  For
    every finite value these floats are equal exactly when
    ``int(round(.))`` is, and unlike int64 they cannot overflow; the
    ``+ 0.0`` folds ``-0.0`` into ``0.0``, so equal keys have equal bytes.
    Returns the key block ``(rows, n, 2)`` and each row's width, one past its
    last nonzero coordinate.  A row's key is its first ``width`` pairs as
    bytes: windows that differ only by trailing exact zeros describe the same
    state and key alike, so padding to a common ``n`` changes no key.
    """
    live = ~np.isneginf(hi)
    keys = np.empty(hi.shape + (2,))
    keys[..., 0] = np.where(live, np.rint((hi + lo) / q) + 0.0, LOG_ZERO)
    keys[..., 1] = np.where(live, np.rint(phase / q) + 0.0, 0.0)
    width = np.zeros(len(hi), dtype=int)
    if hi.shape[1]:
        width = np.where(live.any(axis=1),
                         hi.shape[1] - np.argmax(live[:, ::-1], axis=1), 0)
    return keys, width


def _quantize(v: SeqVector, q: float) -> bytes:
    """Dedup key of one state: the one-row case of :func:`_quant_keys`."""
    keys, width = _quant_keys(v.hi[np.newaxis], v.lo[np.newaxis],
                              v.phase[np.newaxis], q)
    return keys[0, :width[0]].tobytes()


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Ascending index of the first row of each distinct key row."""
    flat = keys.reshape(len(keys), 2 * keys.shape[1])
    if flat.size == 0:
        return np.arange(0)
    rows = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)  # stable: first occurrence
    return np.sort(first)


def _quant_distance(a: SeqVector, b: SeqVector) -> float:
    n = max(len(a), len(b))
    a, b = a._padded(n), b._padded(n)
    la, lb = a.lm, b.lm
    za, zb = np.isneginf(la), np.isneginf(lb)
    if not np.array_equal(za, zb):
        return math.inf
    live = ~za
    if not live.any():
        return 0.0
    dl = np.max(np.abs(la[live] - lb[live]))
    dp = np.max(np.abs(np.angle(np.exp(1j * (a.phase[live] - b.phase[live])))))
    return max(float(dl), float(dp))


@dataclass
class OrbitTreeGK:
    """Levels of the pairwise-image orbit tree with quantized deduplication.

    Per level, ``candidate_counts`` states were generated: the previous
    level's states plus one image per ordered pair.  Each is kept (it is in
    ``levels``), dropped as a duplicate, or dropped because shifts consumed
    its window, so ``candidate_counts == level_sizes + duplicate_counts +
    exhausted_counts`` level by level.  At an aborted level the two drop
    counts cover only the candidates examined before the abort.
    """

    spec: MultilinearSpec
    q: float
    levels: list            # list of list[SeqVector]
    hash_sets: list         # list of set[bytes], keys from _quantize
    candidate_counts: list  # states generated per level before dedup
    aborted_at_level: int | None = None
    containment: list | None = None   # per-depth bool, if checked
    duplicate_counts: list = field(default_factory=list)
    exhausted_counts: list = field(default_factory=list)

    @property
    def level_sizes(self) -> list[int]:
        return [len(lv) for lv in self.levels]

    def contains(self, state: SeqVector, level: int, slack: float = 2.0) -> bool:
        """Hash membership at a level, with a near-miss distance fallback."""
        if _quantize(state, self.q) in self.hash_sets[level]:
            return True
        tol = slack * self.q
        return any(_quant_distance(state, s) <= tol for s in self.levels[level])


# elements (candidate rows times padded image width) per array of one block
# of a tree level; bounds the level pass's peak memory
_TREE_BLOCK = 1 << 12


def _outer(parts, s_log, s_ph, img, sc):
    """Rows ``scalar[sc[r]] * image[img[r]]``: a batched :meth:`SeqVector.scale`.

    A zero scalar gives a canonical zero row, as ``scale`` does.
    """
    zero = np.isneginf(s_log[sc])
    hi, lo, ph = _scale_arrays(*(a[img] for a in parts),
                               np.where(zero, 0.0, s_log[sc])[:, np.newaxis],
                               s_ph[sc][:, np.newaxis])
    hi[zero], lo[zero], ph[zero] = LOG_ZERO, 0.0, 0.0
    return hi, lo, ph


def _candidates(spec: MultilinearSpec, parts, lens, s_log, s_ph, rows, L):
    """Candidate rows ``M(z, w)`` for flat pair indices ``rows = z * L + w``.

    ``parts`` are the images' padded ``(L, W)`` hi/lo/phase arrays (canonical
    zero padding) and ``lens`` their true lengths.  Returns the candidates'
    padded hi/lo/phase, true lengths (0 = exhausted) and image indices, the
    same bits :func:`apply` gives pair by pair.
    """
    pair = np.divmod(rows, L)
    img, sc = pair[spec.shift_slot - 1], pair[spec.functional_slots[0] - 1]
    hi, lo, ph = _outer(parts, s_log, s_ph, img, sc)
    n = lens[img]
    if spec.symmetrized:
        ohi, olo, oph = _outer(parts, s_log, s_ph, sc, img)
        n = np.minimum(n, lens[sc])
        cut = np.arange(hi.shape[1]) >= n[:, np.newaxis]
        hi[cut] = ohi[cut] = LOG_ZERO
        lo[cut] = olo[cut] = ph[cut] = oph[cut] = 0.0
        hi, lo, ph = _scale_arrays(*_add_arrays(hi, lo, ph, ohi, olo, oph),
                                   HALF.log_mag, HALF.phase)
    return hi, lo, ph, n, img


def _tree_level(spec: MultilinearSpec, prev: list, images: list, scalars: list,
                seen: set, q: float, cap: int):
    """One tree level: ``prev`` plus each new image of a pair from it.

    Pairs run in z-major order, in blocks of at most ``_TREE_BLOCK``
    elements; a candidate is kept when its key is not yet in ``seen``, which
    is updated in place.  Returns the level, the exhausted and examined
    candidate counts, and whether ``cap`` aborted it.
    """
    L = len(prev)
    lens = np.array([len(im) for im in images])
    width = int(lens.max(initial=0))
    parts = (np.full((L, width), LOG_ZERO), np.zeros((L, width)), np.zeros((L, width)))
    for i, im in enumerate(images):
        for a, b in zip(parts, (im.hi, im.lo, im.phase)):
            a[i, :len(im)] = b
    s_log = np.array([s.log_mag for s in scalars])
    s_ph = np.array([s.phase for s in scalars])

    out = list(prev)
    exhausted = 0
    step = max(1, _TREE_BLOCK // max(width, 1))
    for r0 in range(0, L * L, step):
        rows = np.arange(r0, min(L * L, r0 + step))
        hi, lo, ph, n, img = _candidates(spec, parts, lens, s_log, s_ph, rows, L)
        live = np.flatnonzero(n)
        keys, kw = _quant_keys(hi[live], lo[live], ph[live], q)
        picked, stop = [], None
        for j in _first_rows(keys):
            k = keys[j, :kw[j]].tobytes()
            if k not in seen:
                seen.add(k)
                picked.append(live[j])
                if len(out) + len(picked) > cap:
                    stop = int(live[j])
                    break
        for a, b, c, m, i in zip(hi[picked], lo[picked], ph[picked],
                                 n[picked], img[picked]):
            out.append(SeqVector(prev[i].space, a[:m], b[:m], c[:m]))
        if stop is not None:
            exhausted += int(np.count_nonzero(n[:stop] == 0))
            return out, exhausted, r0 + stop + 1, True
        exhausted += len(rows) - len(live)
    return out, exhausted, L * L, False


def gk_tree(spec: MultilinearSpec, x: SeqVector, y: SeqVector, depth: int,
            q: float = 1e-7, cap: int = 10**6,
            check_containment: bool = True) -> OrbitTreeGK:
    """Build tree-orbit levels 0..depth: each level adds all pairwise images.

    Level 0 is {x, y}.  States are deduplicated by quantizing log magnitude
    and phase to ``q`` (exact zero hashes canonically); floating states never
    repeat bit-exactly, so dedup without quantization would be vacuous.  A
    level exceeding ``cap`` aborts with the partial result recorded.

    A level is one array pass: each state's linear image and functional
    scalar are computed once, the images of all ordered pairs ``(z, w)``
    (z-major, as :func:`apply` would give them one by one) form an outer
    product of scalars with padded images, and their keys are quantized and
    deduplicated together.
    """
    if spec.arity != 2:
        raise ParameterRangeError("the tree orbit is defined for arity 2")
    if depth < 0 or q <= 0:
        raise ParameterRangeError("need depth >= 0 and q > 0")
    if depth:
        _check_spaces(spec, (x, y))

    cur: list[SeqVector] = []
    seen: set = set()
    for s in (x, y):
        h = _quantize(s, q)
        if h not in seen:
            seen.add(h)
            cur.append(s)
    tree = OrbitTreeGK(spec, q, [cur], [seen], [2],
                       duplicate_counts=[2 - len(cur)], exhausted_counts=[0])

    images: list[SeqVector] = []
    scalars: list[LogComplex] = []
    for lvl in range(1, depth + 1):
        prev = tree.levels[-1]
        for v in prev[len(images):]:
            images.append(spec.linear_apply(v))
            scalars.append(logc_prod((eval_functional(v),)))
        seen = set(tree.hash_sets[-1])
        nxt, exhausted, examined, aborted = _tree_level(
            spec, prev, images, scalars, seen, q, cap)
        tree.levels.append(nxt)
        tree.hash_sets.append(seen)
        tree.candidate_counts.append(len(prev) + len(prev) ** 2)
        tree.exhausted_counts.append(exhausted)
        tree.duplicate_counts.append(examined - (len(nxt) - len(prev)) - exhausted)
        if aborted:
            tree.aborted_at_level = lvl
            break

    if check_containment and tree.aborted_at_level is None:
        orbit = iterate_bc(spec, (x, y), depth) if depth >= 1 else None
        flags = []
        for n in range(1, depth + 1):
            if orbit is None or n > len(orbit.states):
                flags.append(False)
            else:
                flags.append(tree.contains(orbit.states[n - 1], n))
        tree.containment = flags
    return tree


# ---------------------------------------------------------------------------
# asymptotic classification
# ---------------------------------------------------------------------------


class OrbitClass(Enum):
    CONVERGES_TO_ZERO = "converges_to_zero"
    BOUNDED = "bounded"
    ESCAPING = "escaping"
    UNDECIDED = "undecided"


def classify_orbit(orbit: OrbitBC, horizon: int | None = None,
                   tol: float = 1e-12, consecutive: int = 10) -> OrbitClass:
    """Classify an orbit from its norm sequence.

    Convergence requires the last stretch of at least ``consecutive`` norms to
    sit below ``tol`` and be monotone non-increasing through the end of the
    horizon (a transient dip is not convergence).  Any norm above ``1/tol``
    classifies as escaping.
    """
    states = orbit.states if horizon is None else orbit.states[:horizon]
    if not states:
        return OrbitClass.UNDECIDED
    norms = [norm(s) for s in states]
    log_tol = math.log(tol)

    if any(v > -log_tol for v in norms):
        return OrbitClass.ESCAPING

    run = 0
    for i, v in enumerate(norms):
        if v < log_tol and (i == 0 or norms[i] <= norms[i - 1]):
            run += 1
        else:
            run = 0
    if run >= consecutive:
        return OrbitClass.CONVERGES_TO_ZERO

    init_sup = max(norm(s) for s in orbit.initial)
    if max(norms) <= init_sup + LN2:
        return OrbitClass.BOUNDED
    return OrbitClass.UNDECIDED


# ---------------------------------------------------------------------------
# the weight-collapse inequality
# ---------------------------------------------------------------------------


@dataclass
class CollapseReport:
    """Outcome of the doubly-exponential weight-collapse check."""

    ok: bool
    k_log: float
    delta_log: float
    margins: list          # log|c_n| - bound_n for n = 1..N (must be <= 0)
    first_violation: int | None = None
    detail: str = ""


def collapse_constant(N: int) -> tuple[float, float]:
    """Log of the constant k and of the threshold delta = 1/(4k).

    k is the smallest value (at least 1) that satisfies, over the tested
    range, both ``k * 2**(2**(n/2)) >= (n-2)! * 2**(2**((n-1)/2))`` and the
    analogous bound with ``(n-1)!`` needed when the recursion's new factor is
    the (n-1)-th derivative; the doubly exponential term dominates any
    factorial, so the maximum is attained at small n.
    """
    k_log = 0.0
    for n in range(3, max(N + 3, 64)):
        e_half = 2.0 ** (n / 2.0)
        e_prev = 2.0 ** ((n - 1) / 2.0)
        e_next = 2.0 ** ((n + 1) / 2.0)
        k_log = max(k_log, math.lgamma(n - 1) + (e_prev - e_half) * LN2)
        k_log = max(k_log, math.lgamma(n) + (e_half + e_prev - e_next) * LN2)
    delta_log = -k_log - 2.0 * LN2
    return k_log, delta_log


def verify_weight_collapse(f0, g: SeqVector, N: int) -> CollapseReport:
    """Check ``|c_n| <= 1 / (k * 2**(2**(n/2)))`` for n <= N by direct recursion.

    Preconditions (reported as a hypothesis violation, not a bound failure):
    all monomial coefficients of g have modulus at most 1 (so the n-th
    derivative at 0 is at most n!), and ``|f(0)| < delta = 1/(4k)``.
    """
    if isinstance(f0, LogComplex):
        f0c = f0
    else:
        f0c = LogComplex.from_real(abs(float(f0)))
    k_log, delta_log = collapse_constant(N)

    lm = g.lm
    if lm.size and float(np.max(lm)) > 1e-12:
        return CollapseReport(False, k_log, delta_log, [],
                              detail="hypothesis-violation: a coefficient of g "
                                     "exceeds modulus 1")
    if not f0c.is_zero and f0c.log_mag >= delta_log:
        return CollapseReport(False, k_log, delta_log, [],
                              detail="hypothesis-violation: |f(0)| >= delta")

    c_prev2 = f0c                                  # c_1 = f(0)
    c_prev1 = f0c.mul(derivative_at_zero(g, 0))    # c_2 = f(0) g(0)
    cs = [c_prev2, c_prev1]
    for n in range(2, N):
        nxt = c_prev1.mul(c_prev2).mul(derivative_at_zero(g, n - 1))
        cs.append(nxt)
        c_prev2, c_prev1 = c_prev1, nxt
    margins = []
    first_violation = None
    for n in range(1, N + 1):
        bound = -k_log - (2.0 ** (n / 2.0)) * LN2
        c = cs[n - 1]
        m = (LOG_ZERO if c.is_zero else c.log_mag) - bound
        margins.append(m)
        if m > 0 and first_violation is None:
            first_violation = n
    return CollapseReport(first_violation is None, k_log, delta_log,
                          margins, first_violation)
