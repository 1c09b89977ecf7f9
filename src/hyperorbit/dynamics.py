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
from .report import Check, check_leq
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
    eval_at_integer,
    eval_functional,
    norm,
    shift_pow,
    translate,
    translate_by,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# operator descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultilinearSpec:
    """An m-linear operator of functional-times-shift form.

    ``functional_slots`` (1-indexed) are fed to the first-coordinate
    functional; ``shift_slot`` receives the linear part.  Which slot that is
    and what the linear part is decide the scalar ledger and the closed form
    (:attr:`chain`, :attr:`has_closed_form`).
    """

    name: str
    arity: int
    functional_slots: tuple[int, ...]
    shift_slot: int
    linear: str                    # "shift" | "derivative" | "translate"
    space: SpaceTag
    weights: WeightSeq | None = None
    symmetrized: bool = False

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

    @property
    def chain(self) -> bool:
        """The linear part acts on the newest slot: the orbit is one power
        chain on the last initial vector.  Otherwise a bilinear orbit
        alternates between the two initial vectors."""
        return self.shift_slot == self.arity

    @property
    def has_closed_form(self) -> bool:
        return not self.symmetrized and (
            self.arity == 2 or (self.chain and self.linear == "shift"))

    def linear_apply(self, v: SeqVector) -> SeqVector:
        if self.linear == "shift":
            return backward_shift(v, self.weights)
        if self.linear == "derivative":
            return derivative(v)
        return translate(v)

    def linear_pow(self, v: SeqVector, k) -> SeqVector:
        """``L**k v``; a 1-D array of powers gives a block, one row per power.

        The shift and the derivative take the whole array in one call; a
        translation is one :func:`translate_by` per power, all rows as wide
        as ``v``.
        """
        if self.linear == "shift":
            return shift_pow(v, self.weights, k)
        if self.linear == "derivative":
            return derivative_pow(v, k)
        if np.ndim(k) == 0:
            return translate_by(v, k)
        hi, lo, ph = (np.empty((len(k), len(v))) for _ in range(3))
        for r, j in enumerate(k):
            t = translate_by(v, int(j))
            hi[r], lo[r], ph[r] = t.hi, t.lo, t.phase
        return SeqVector(v.space, hi, lo, ph)


def mc_CN(m: int = 2) -> MultilinearSpec:
    """m-linear product of first-coordinate functionals with one unweighted shift.

    Acts on the seminormed full sequence space; functionals read the first
    m-1 arguments, the shift acts on the last.
    """
    return MultilinearSpec(
        name="mc_CN", arity=m,
        functional_slots=tuple(range(1, m)), shift_slot=m,
        linear="shift", space=SpaceTag.cn(4), weights=WeightSeq.ones())


def m_l1() -> MultilinearSpec:
    """Bilinear ``(x, y) -> y_1 * B_w(x)`` on l1 with weights ``w_i = 1/i**2``."""
    return MultilinearSpec(
        name="m_l1", arity=2, functional_slots=(2,), shift_slot=1,
        linear="shift", space=SpaceTag.l1(), weights=WeightSeq.inv_squares())


def n_transpose() -> MultilinearSpec:
    """Bilinear ``(x, y) -> y_1 * B(x)`` with unit weights on c0.

    The sequence-space twin of the evaluation-times-derivative operator: the
    unweighted backward shift plays the role the differentiation operator
    plays on entire functions.
    """
    return MultilinearSpec(
        name="n_transpose", arity=2, functional_slots=(2,), shift_slot=1,
        linear="shift", space=SpaceTag.c0(), weights=WeightSeq.ones())


def m_fg_prime() -> MultilinearSpec:
    """Bilinear ``(f, g) -> f(0) * g'`` on entire functions."""
    return MultilinearSpec(
        name="m_fg_prime", arity=2, functional_slots=(1,), shift_slot=2,
        linear="derivative", space=SpaceTag.hc(1))


def n_delta_d() -> MultilinearSpec:
    """Bilinear ``(f, g) -> g(0) * f'`` on entire functions."""
    return MultilinearSpec(
        name="n_delta_d", arity=2, functional_slots=(2,), shift_slot=1,
        linear="derivative", space=SpaceTag.hc(1))


def b_translate() -> MultilinearSpec:
    """Bilinear ``(g, f) -> g(0) * f(z + 1)`` on entire functions."""
    return MultilinearSpec(
        name="b_translate", arity=2, functional_slots=(1,), shift_slot=2,
        linear="translate", space=SpaceTag.hc(1))


def m_symmetric() -> MultilinearSpec:
    """Symmetrized shift operator ``(x, y) -> (x_1 B_w(y) + y_1 B_w(x)) / 2`` on l1."""
    return MultilinearSpec(
        name="m_symmetric", arity=2, functional_slots=(2,), shift_slot=1,
        linear="shift", space=SpaceTag.l1(), weights=WeightSeq.inv_squares(),
        symmetrized=True)


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


def _coord_or_zero(v: SeqVector, i: int) -> LogComplex:
    """Coordinate i (1-indexed), with the tail beyond the window exactly zero."""
    if i > len(v):
        return LogComplex.zero()
    return v.coord(i)


def _read_power(spec: MultilinearSpec, v: SeqVector, i: int) -> LogComplex:
    """The functional of ``L**i v`` for the linear part L, weights left out
    (``d_n`` collects them): coordinate i+1, ``f^(i)(0)`` or ``f(i)``."""
    if spec.linear == "shift":
        return _coord_or_zero(v, i + 1)
    if spec.linear == "derivative":
        return derivative_at_zero(v, i)
    return eval_at_integer(v, i)


def _merge_sequence(spec: MultilinearSpec, init, N: int) -> list[LogComplex]:
    """The scalar sequence z_1..z_N feeding the two-term c-recursion.

    A chain reads the first initial vector's functional, then the powers
    0, 1, ... of the second; an alternating orbit reads ``z_n`` from power
    ``n // 2`` of initial vector ``n mod 2`` (0-indexed).
    """
    if spec.chain:
        return [eval_functional(init[0])] + [_read_power(spec, init[1], j)
                                             for j in range(N - 1)]
    return [_read_power(spec, init[n % 2], n // 2) for n in range(1, N + 1)]


@dataclass
class WeightLedger:
    """The scalar sequences c_n and d_n of a closed-form orbit, in log form.

    ``c_n`` obeys ``c_1 = z_1``, ``c_2 = z_1 z_2``, ``c_n = c_{n-1} c_{n-2} z_n``
    over the merged sequence ``z``; for the product-of-functionals chain
    (a shift on the newest slot) the recursion instead multiplies the
    previous m-1 first coordinates, as that family requires.  ``d_n``
    collects weight products: ``d_1 = 1``, ``d_2 = w_1``,
    ``d_n = d_{n-1} d_{n-2} w_1 ... w_{floor(n/2)}``.
    """

    spec: MultilinearSpec
    c_vals: list          # [c_1 .. c_N]
    d_vals: list          # [d_1 .. d_N]
    merge: list           # z_1 .. z_N (empty for a shift chain)
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
    if not spec.has_closed_form:
        raise UnsupportedFormError(f"{spec.name} has no scalar ledger")
    init = tuple(init)

    # d_n: weight products; the other linear parts carry no weights
    one = LogComplex.one()
    d_vals = [one] * N
    if spec.linear == "shift":
        cum = spec.weights.cum(N // 2 + 1)
        d_vals = [one, LogComplex(float(cum[1]), 0.0)]
        for n in range(3, N + 1):
            step = LogComplex(float(cum[n // 2]), 0.0)
            d_vals.append(d_vals[-1].mul(d_vals[-2]).mul(step))

    if spec.chain and spec.linear == "shift":
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


def _scale_rows(hi, lo, ph, s_log, s_ph):
    """Row r of a block times scalar r: a batched :meth:`SeqVector.scale`.

    A zero scalar gives a zero row, as ``scale`` does.
    """
    zero = s_log == LOG_ZERO
    hi, lo, ph = _scale_arrays(hi, lo, ph, np.where(zero, 0.0, s_log)[:, np.newaxis],
                               s_ph[:, np.newaxis])
    hi[zero] = LOG_ZERO
    return hi, lo, ph


def closed_form_state(spec: MultilinearSpec, init, ledg: WeightLedger,
                      n) -> SeqVector:
    """State n straight from the closed form (linear power times c_n d_n).

    Families with the linear part on the newest slot are a single power
    chain on the last initial vector; the others alternate between the two
    initial vectors (even steps read the second, odd the first).

    ``n`` is one step or a 1-D array of steps.  One step gives the state at
    its true length.  An array gives a block, one row per step, padded with
    canonical zeros (see :class:`SeqVector`): each initial vector's powers
    come from one :meth:`MultilinearSpec.linear_pow` call, and the rows are
    scaled by the ``c_n d_n`` column at once.  The bits of each row are
    those of ``linear_pow(v, k).scale(ledg.cd(n))`` step by step.
    """
    if not spec.has_closed_form:
        raise UnsupportedFormError(f"{spec.name} has no derived closed form")
    ks = np.atleast_1d(np.asarray(n, dtype=int))
    if ks.size and ks.max() > len(ledg):
        raise ParameterRangeError(f"ledger covers only {len(ledg)} steps")
    init = tuple(init)
    if spec.chain:
        sources = [(init[-1], ks, np.arange(ks.size))]
    else:
        odd = ks % 2 == 1
        sources = [(init[0], (ks[odd] + 1) // 2, np.flatnonzero(odd)),
                   (init[1], ks[~odd] // 2, np.flatnonzero(~odd))]
    blocks = [(spec.linear_pow(v, powers), rows)
              for v, powers, rows in sources if rows.size]
    width = max((len(b) for b, _ in blocks), default=0)
    hi = np.full((ks.size, width), LOG_ZERO)
    lo, ph = np.zeros_like(hi), np.zeros_like(hi)
    for b, rows in blocks:
        hi[rows, :len(b)], lo[rows, :len(b)], ph[rows, :len(b)] = b.hi, b.lo, b.phase
    cd = [ledg.cd(int(k)) for k in ks]
    hi, lo, ph = _scale_rows(hi, lo, ph, np.array([c.log_mag for c in cd]),
                             np.array([c.phase for c in cd]))
    if np.ndim(n) == 0:
        hi, lo, ph = hi[0], lo[0], ph[0]
    space = blocks[0][0].space if blocks else init[-1].space
    return SeqVector(space, hi, lo, ph)


def closed_form_agreement(orbit: OrbitBC, closed_form) -> float:
    """Worst relative log-magnitude gap between direct states and closed forms.

    The largest ``|cf - direct| / max(1, |direct|)`` over the live
    coordinates of every direct state, with ``cf`` recomputed independently
    by ``closed_form`` (:func:`closed_form_state`, or a perturbed one with
    its signature for a negative control) in one call for the steps
    ``1..N``.  The direct states are padded as wide as that block and
    reduced with one masked ``np.max``, so a NaN anywhere in the compared
    coordinates gives NaN, which fails any bound.  0.0 when no state has a
    live coordinate.
    """
    spec, init, states = orbit.spec, orbit.initial, orbit.states
    # ledger entries do not depend on its length, which must be at least 2
    led = ledger(spec, init, max(2, len(states)))
    cf = closed_form(spec, init, led, np.arange(1, len(states) + 1)).lm
    direct = np.full(cf.shape, LOG_ZERO)
    for r, d in enumerate(states):
        direct[r, :len(d)] = d.lm
    live = direct != LOG_ZERO
    d = direct[live]
    rel = np.abs(cf[live] - d) / np.maximum(1.0, np.abs(d))
    return float(np.max(rel, initial=0.0))


def closed_form_checks(orbit: OrbitBC, closed_form) -> list[Check]:
    """The ``closed-form-agreement`` row, :func:`closed_form_agreement` with
    ``closed_form`` at most 1e-9; none without a closed form or a state."""
    if not (orbit.spec.has_closed_form and orbit.states):
        return []
    return [check_leq("closed-form-agreement", closed_form_agreement(orbit, closed_form),
                      1e-9, "orbit-closed-form")]


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

    def contains(self, state: SeqVector, level: int) -> bool:
        """Hash membership at a level, with a near-miss fallback: any state
        within two quanta."""
        if _quantize(state, self.q) in self.hash_sets[level]:
            return True
        return any(_quant_distance(state, s) <= 2.0 * self.q for s in self.levels[level])


# elements (candidate rows times padded image width) per array of one block
# of a tree level; bounds the level pass's peak memory
_TREE_BLOCK = 1 << 12


def _outer(parts, s_log, s_ph, img, sc):
    """Rows ``scalar[sc[r]] * image[img[r]]``: a batched :meth:`SeqVector.scale`."""
    return _scale_rows(*(a[img] for a in parts), s_log[sc], s_ph[sc])


def _candidates(spec: MultilinearSpec, parts, lens, s_log, s_ph, rows, L):
    """Candidate rows ``M(z, w)`` for flat pair indices ``rows = z * L + w``.

    ``parts`` are the images' padded ``(L, W)`` hi/lo/phase arrays (canonical
    zero padding) and ``lens`` their true lengths.  Returns the candidates'
    padded hi/lo/phase, true lengths (0 = exhausted) and image indices, the
    same bits :func:`apply` gives pair by pair (zeros become canonical in
    the :class:`SeqVector` constructor; the keys ignore them).
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
            q: float = 1e-7, cap: int = 10**6) -> OrbitTreeGK:
    """Build tree-orbit levels 0..depth: each level adds all pairwise images.

    Level 0 is {x, y}.  States are deduplicated by quantizing log magnitude
    and phase to ``q`` (exact zero hashes canonically); floating states never
    repeat bit-exactly, so dedup without quantization would be vacuous.  A
    level exceeding ``cap`` aborts with the partial result recorded.  A tree
    that does not abort records whether each level contains the state of the
    direct orbit at that step.

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

    if tree.aborted_at_level is None:
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


CONVERGENCE_RUN = 10  # non-increasing norms below tol in a row that mean convergence


def checked_tol(tol: float) -> float:
    """``tol`` if it is finite and > 0; else :class:`ParameterRangeError`."""
    if not 0 < tol < math.inf:
        raise ParameterRangeError("tol must be finite and > 0")
    return tol


def classify_orbit(orbit: OrbitBC, tol: float = 1e-12) -> OrbitClass:
    """Classify an orbit from its norm sequence.

    Convergence requires the last stretch of at least ``CONVERGENCE_RUN``
    norms to sit below ``tol`` and be monotone non-increasing through the
    last state (a transient dip is not convergence).  Any norm above
    ``1/tol`` classifies as escaping.  An orbit with no state or with a NaN
    norm is undecided.  ``tol`` must pass :func:`checked_tol`.
    """
    log_tol = math.log(checked_tol(tol))
    norms = [norm(s) for s in orbit.states]
    if not norms or any(math.isnan(v) for v in norms):
        return OrbitClass.UNDECIDED

    if any(v > -log_tol for v in norms):
        return OrbitClass.ESCAPING

    run = 0
    for i, v in enumerate(norms):
        if v < log_tol and (i == 0 or norms[i] <= norms[i - 1]):
            run += 1
        else:
            run = 0
    if run >= CONVERGENCE_RUN:
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
    """Check ``|c_n| <= 1 / (k * 2**(2**(n/2)))`` for n <= N on the ledger of
    :func:`m_fg_prime`, ``c_n = c_{n-1} c_{n-2} g^(n-2)(0)`` from ``c_1 = f(0)``.

    Preconditions (reported as a hypothesis violation, not a bound failure):
    all monomial coefficients of g have modulus at most 1 (so the n-th
    derivative at 0 is at most n!), and ``|f(0)| < delta = 1/(4k)``.
    """
    f0c = f0 if isinstance(f0, LogComplex) else LogComplex.from_real(abs(float(f0)))
    k_log, delta_log = collapse_constant(N)

    lm = g.lm
    if lm.size and float(np.max(lm)) > 1e-12:
        return CollapseReport(False, k_log, delta_log, [],
                              detail="hypothesis-violation: a coefficient of g "
                                     "exceeds modulus 1")
    if not f0c.is_zero and f0c.log_mag >= delta_log:
        return CollapseReport(False, k_log, delta_log, [],
                              detail="hypothesis-violation: |f(0)| >= delta")

    # c_n of the orbit of (f, g) under (f, g) -> f(0) g', with f = f(0)
    f = SeqVector(g.space, [f0c.log_mag], [0.0], [f0c.phase])
    cs = ledger(m_fg_prime(), (f, g), max(2, N)).c_vals
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
