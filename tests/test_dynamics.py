"""Orbit engines, weight ledgers, the tree orbit, and asymptotic classification."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hyperorbit import dynamics
from hyperorbit.arith import LOG_ZERO, FibCache, LogComplex
from hyperorbit.dynamics import (
    OPERATORS,
    MultilinearSpec,
    OrbitClass,
    _quant_distance,
    _quantize,
    apply,
    b_translate,
    classify_orbit,
    closed_form_agreement,
    closed_form_state,
    collapse_constant,
    gk_tree,
    iterate_bc,
    ledger,
    m_fg_prime,
    m_l1,
    m_symmetric,
    make_operator,
    mc_CN,
    n_delta_d,
    n_transpose,
    verify_weight_collapse,
)
from hyperorbit.errors import (
    ParameterRangeError,
    UnsupportedFormError,
    WrongSpaceError,
)
from hyperorbit.report import check_leq
from hyperorbit.spaces import SeqVector, SpaceTag, WeightSeq, norm
from oracles import to_complex

L1 = SpaceTag.l1()
HC = SpaceTag.hc(1)


def cvec(values, space=L1):
    return SeqVector.from_complex(space, values)


def rand_vec(rng, space, n, lo=0.5, hi=2.0):
    mags = rng.uniform(lo, hi, n)
    ph = rng.uniform(-np.pi, np.pi, n)
    return SeqVector.from_complex(space, mags * np.exp(1j * ph))


ARITY2_CLOSED = {
    "m_l1": (m_l1, L1),
    "n_transpose": (n_transpose, SpaceTag.c0()),
    "m_fg_prime": (m_fg_prime, HC),
    "n_delta_d": (n_delta_d, HC),
    "b_translate": (b_translate, HC),
}


class TestApply:
    def test_weighted_coordinate_formula(self):
        spec = m_l1()
        # w = (1, 1/4, ...): y_1 * (w_1 x_2, w_2 x_3) = 5 * (2, 3/4)
        x = cvec([1, 2, 3])
        y = cvec([5, 0, 0])
        out = apply(spec, (x, y))
        assert [c.real for c in to_complex(out)] == pytest.approx([10.0, 3.75])

    def test_functional_annihilates(self):
        spec = m_l1()
        out = apply(spec, (cvec([1, 2, 3]), cvec([0, 9, 9])))
        assert norm(out) == LOG_ZERO

    def test_symmetric_diagonal_is_induced_square_map(self):
        # M(x, x) = x_1 B_w(x)
        spec = m_symmetric()
        rng = np.random.default_rng(0)
        x = rand_vec(rng, L1, 10)
        got = apply(spec, (x, x))
        from hyperorbit.spaces import backward_shift, eval_functional
        want = backward_shift(x, spec.weights).scale(eval_functional(x))
        assert np.allclose(got.lm, want.lm, atol=1e-12)
        dph = np.angle(np.exp(1j * (got.phase - want.phase)))
        assert np.max(np.abs(dph)) < 1e-12

    def test_arity_and_space_checks(self):
        spec = m_l1()
        with pytest.raises(ParameterRangeError):
            apply(spec, (cvec([1]),))
        with pytest.raises(WrongSpaceError):
            apply(spec, (cvec([1], HC), cvec([1], HC)))


class TestIterate:
    def test_zero_first_coordinates_kill_orbit(self):
        spec = m_l1()
        x = cvec([0, 1, 1, 1, 1])
        orbit = iterate_bc(spec, (x, x), 6)
        assert all(norm(s) == LOG_ZERO for s in orbit.states)

    def test_hand_recursion_ones(self):
        # unweighted shift on all-ones vectors: state 4 is (1, 1, 1)
        spec = n_transpose()
        v = cvec([1, 1, 1, 1, 1], SpaceTag.c0())
        orbit = iterate_bc(spec, (v, v), 4)
        s4 = orbit.states[3]
        assert len(s4) == 3
        assert [c.real for c in to_complex(s4)] == pytest.approx([1, 1, 1])

    def test_window_exhaustion_recorded(self):
        spec = m_l1()
        orbit = iterate_bc(spec, (cvec([1, 1]), cvec([1, 1])), 10)
        assert orbit.exhausted_at is not None
        assert len(orbit.states) < 10

    def test_translation_orbit_by_hand(self):
        # f1 = 2, f2 = 1 + z: state 3 = f1(0)^2 f2(0) f2(1) * f2(z + 3)
        spec = b_translate()
        f1 = cvec([2.0], HC)
        f2 = cvec([1.0, 1.0], HC)
        orbit = iterate_bc(spec, (f1, f2), 3)
        s3 = to_complex(orbit.states[2])
        assert s3[0].real == pytest.approx(32.0, rel=1e-12)
        assert s3[1].real == pytest.approx(8.0, rel=1e-12)

    def test_product_chain_matches_closed_form(self):
        # arity 3: states are c_n B^n(x0) on the seminormed sequence space
        spec = mc_CN(3)
        rng = np.random.default_rng(1)
        init = tuple(rand_vec(rng, SpaceTag.cn(4), 40) for _ in range(3))
        orbit = iterate_bc(spec, init, 15)
        led = ledger(spec, init, 15)
        for n in range(1, 16):
            cf = closed_form_state(spec, init, led, n)
            d = orbit.states[n - 1]
            assert np.allclose(cf.lm, d.lm, atol=1e-9)


class TestLedger:
    def make_pair(self, seed=3, n=40):
        rng = np.random.default_rng(seed)
        return rand_vec(rng, L1, n), rand_vec(rng, L1, n)

    def test_d1_is_one(self):
        x, y = self.make_pair()
        led = ledger(m_l1(), (x, y), 6)
        assert led.d(1).log_mag == 0.0

    def test_d4_unrolls(self):
        x, y = self.make_pair()
        led = ledger(m_l1(), (x, y), 6)
        w = WeightSeq.inv_squares()
        want = 4 * w.log_at(1) + w.log_at(2)
        assert led.d(4).log_mag == pytest.approx(want, abs=1e-12)

    def test_c3_exponents(self):
        x, y = self.make_pair()
        led = ledger(m_l1(), (x, y), 6)
        want = (y.coord(1).pow_int(2).mul(x.coord(2)).mul(y.coord(2)))
        assert led.c(3).log_mag == pytest.approx(want.log_mag, rel=1e-12)

    def test_recursion_vs_direct_exponents(self):
        x, y = self.make_pair()
        led = ledger(m_l1(), (x, y), 25)
        cache = FibCache(30)
        for n in range(1, 26):
            r, d = led.c(n), led.direct_c(n, cache)
            scale = max(1.0, abs(d.log_mag))
            assert abs(r.log_mag - d.log_mag) <= 1e-10 * scale

    def test_d_recursion_vs_closed_form(self):
        x, y = self.make_pair()
        led = ledger(m_l1(), (x, y), 25)
        cache = FibCache(30)
        for n in range(1, 26):
            r, d = led.d(n), led.direct_d(n, cache)
            scale = max(1.0, abs(d.log_mag))
            assert abs(r.log_mag - d.log_mag) <= 1e-10 * scale

    def test_zero_coordinate_flagged(self):
        x = cvec([1, 0, 1, 1, 1, 1, 1, 1])
        y = cvec([1, 1, 1, 1, 1, 1, 1, 1])
        led = ledger(m_l1(), (x, y), 8)
        assert led.zero_from == 2  # z_2 = x_2 = 0 makes c_2 exactly zero
        assert led.c(8).is_zero

    def test_no_ledger_for_symmetrized(self):
        x, y = self.make_pair()
        with pytest.raises(UnsupportedFormError):
            ledger(m_symmetric(), (x, y), 5)

    def test_no_ledger_for_three_linear_shift_on_first_slot(self):
        spec = MultilinearSpec(
            name="first_slot_cn", arity=3, functional_slots=(2, 3), shift_slot=1,
            linear="shift", space=SpaceTag.cn(4), weights=WeightSeq.ones())
        assert not spec.chain and not spec.has_closed_form
        rng = np.random.default_rng(5)
        init = tuple(rand_vec(rng, SpaceTag.cn(4), 12) for _ in range(3))
        with pytest.raises(UnsupportedFormError):
            ledger(spec, init, 5)

    def test_product_chain_recursion_form(self):
        # the m-term recursion: c_{m+j+1} = c_{j+1} ... c_{j+m}
        #                                   * [x0]_{j+2} ... [x0]_{j+m}
        m = 3
        spec = mc_CN(m)
        rng = np.random.default_rng(4)
        init = tuple(rand_vec(rng, SpaceTag.cn(4), 30) for _ in range(m))
        led = ledger(spec, init, 20)
        x0 = init[-1]
        for j in range(1, 20 - m):
            want = LogComplex.one()
            for i in range(j + 1, j + m + 1):
                want = want.mul(led.c(i))
            for l in range(j + 2, j + m + 1):
                want = want.mul(x0.coord(l))
            got = led.c(m + j + 1)
            assert got.log_mag == pytest.approx(want.log_mag, rel=1e-12, abs=1e-12)


class TestClosedFormAgreement:
    def test_log_magnitudes_to_40_steps(self):
        rng = np.random.default_rng(7)
        for name, (factory, space) in ARITY2_CLOSED.items():
            spec = factory()
            for _ in range(5):
                init = (rand_vec(rng, space, 200), rand_vec(rng, space, 200))
                orbit = iterate_bc(spec, init, 40)
                led = ledger(spec, init, 40)
                for n in range(1, len(orbit.states) + 1):
                    cf = closed_form_state(spec, init, led, n)
                    d = orbit.states[n - 1]
                    live = ~np.isneginf(d.lm)
                    assert len(cf) == len(d)
                    rel = np.abs(cf.lm[live] - d.lm[live]) / np.maximum(
                        1.0, np.abs(d.lm[live]))
                    assert np.max(rel) <= 1e-9, (name, n)

    def test_phases_to_24_steps(self):
        # double-precision phase noise grows with Fibonacci weight between
        # independent evaluation routes; 24 steps is where 1e-9 is attainable
        rng = np.random.default_rng(8)
        for name, (factory, space) in ARITY2_CLOSED.items():
            spec = factory()
            init = (rand_vec(rng, space, 80), rand_vec(rng, space, 80))
            orbit = iterate_bc(spec, init, 24)
            led = ledger(spec, init, 24)
            for n in range(1, len(orbit.states) + 1):
                cf = closed_form_state(spec, init, led, n)
                d = orbit.states[n - 1]
                live = ~np.isneginf(d.lm)
                dph = np.angle(np.exp(1j * (cf.phase[live] - d.phase[live])))
                assert np.max(np.abs(dph)) <= 1e-9, (name, n)

    def test_positive_real_data_has_exact_zero_phases(self):
        rng = np.random.default_rng(9)
        spec = m_l1()
        init = (cvec(rng.uniform(0.5, 2, 100)), cvec(rng.uniform(0.5, 2, 100)))
        orbit = iterate_bc(spec, init, 40)
        led = ledger(spec, init, 40)
        for n in range(1, 41):
            assert np.all(orbit.states[n - 1].phase == 0.0)
            assert closed_form_state(spec, init, led, n).phase.max() == 0.0

    @pytest.mark.parametrize("window", [40, 140])
    def test_translate_on_first_slot_has_derived_closed_form(self, window):
        # (f, g) -> g(0) f(z + 1): not registered, but its shape (arity 2,
        # translate on the oldest slot) gives an alternating closed form
        spec = replace(b_translate(), name="translate_first",
                       functional_slots=(2,), shift_slot=1)
        assert not spec.chain and spec.has_closed_form
        rng = np.random.default_rng(11)
        init = (rand_vec(rng, HC, window), rand_vec(rng, HC, window))
        orbit = iterate_bc(spec, init, 30)
        assert len(orbit.states) == 30
        assert closed_form_agreement(orbit, closed_form_state) <= 1e-9

    def test_unsupported_for_symmetrized(self):
        rng = np.random.default_rng(10)
        init = (rand_vec(rng, L1, 10), rand_vec(rng, L1, 10))
        led = ledger(m_l1(), init, 5)
        with pytest.raises(UnsupportedFormError):
            closed_form_state(m_symmetric(), init, led, 3)


def _ref_closed_form(spec, init, led, n):
    """Per-step reference: one linear power of one initial vector, then one scale."""
    if spec.chain:
        base = spec.linear_pow(init[-1], n)
    elif n % 2 == 0:
        base = spec.linear_pow(init[1], n // 2)
    else:
        base = spec.linear_pow(init[0], (n + 1) // 2)
    return base.scale(led.cd(n))


def _translate_first():
    return replace(b_translate(), name="translate_first",
                   functional_slots=(2,), shift_slot=1)


BLOCK_FAMILIES = {
    "m_l1": (m_l1, L1),
    "n_transpose": (n_transpose, SpaceTag.c0()),
    "m_fg_prime": (m_fg_prime, HC),
    "n_delta_d": (n_delta_d, HC),
    "b_translate": (b_translate, HC),
    "translate_first": (_translate_first, HC),
    "mc_CN3": (lambda: mc_CN(3), SpaceTag.cn(4)),
}


def _assert_block_matches_reference(spec, init, steps):
    """Every row of the block for steps 1..steps, and every one-step call,
    has the reference's bits; block rows are padded with canonical zeros."""
    led = ledger(spec, init, steps)
    ks = np.arange(1, steps + 1)
    block = closed_form_state(spec, init, led, ks)
    refs = [_ref_closed_form(spec, init, led, int(n)) for n in ks]
    width = max(len(r) for r in refs)
    assert block.hi.shape == block.lo.shape == block.phase.shape == (steps, width)
    assert len(block) == width
    pad = (np.full(width, LOG_ZERO), np.zeros(width), np.zeros(width))
    for r, (n, ref) in enumerate(zip(ks, refs)):
        one = closed_form_state(spec, init, led, n)
        assert len(one) == len(ref), (spec.name, n)
        w = len(ref)
        for got, single, want, zero in zip((block.hi, block.lo, block.phase),
                                           (one.hi, one.lo, one.phase),
                                           (ref.hi, ref.lo, ref.phase), pad):
            assert got[r, :w].tobytes() == want.tobytes(), (spec.name, n)
            assert got[r, w:].tobytes() == zero[w:].tobytes(), (spec.name, n)
            assert single.tobytes() == want.tobytes(), (spec.name, n)
    return led, block


class TestClosedFormBlock:
    @pytest.mark.parametrize("name", sorted(BLOCK_FAMILIES))
    @pytest.mark.parametrize("windows, steps", [
        ((60, 45, 52), 25),   # unequal lengths, powers inside the windows
        ((14, 9, 11), 30),    # powers at and beyond both windows
    ])
    def test_rows_match_per_step_reference(self, name, windows, steps):
        factory, space = BLOCK_FAMILIES[name]
        spec = factory()
        rng = np.random.default_rng(sum(windows) + steps)
        init = tuple(rand_vec(rng, space, n) for n in windows[:spec.arity])
        _assert_block_matches_reference(spec, init, steps)

    @pytest.mark.parametrize("name", ["m_l1", "n_delta_d"])
    @pytest.mark.parametrize("zero_at, zero_from", [((1, 1), 1), ((0, 2), 2)])
    def test_zero_ledger_gives_canonical_zero_rows(self, name, zero_at, zero_from):
        # a zero y_1 (or x_2) zeroes c_n, and with it every row, from
        # zero_from on
        factory, space = BLOCK_FAMILIES[name]
        rng = np.random.default_rng(21)
        vals = [rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-3, 3, n))
                for n in (30, 24)]
        vals[zero_at[0]][zero_at[1] - 1] = 0.0
        init = tuple(cvec(v, space) for v in vals)
        led, block = _assert_block_matches_reference(factory(), init, 20)
        assert led.zero_from == zero_from
        assert np.all(block.hi[zero_from - 1:] == LOG_ZERO)
        assert not np.any(block.phase[zero_from - 1:])
        assert all(np.any(row > LOG_ZERO) for row in block.hi[:zero_from - 1])

    def test_perturbed_closed_form_is_caught(self):
        # negative control: a closed form off by 1e-6 in log magnitude on
        # every step of the block must fail the 1e-9 bound
        rng = np.random.default_rng(22)
        for name, (factory, space) in BLOCK_FAMILIES.items():
            spec = factory()
            init = tuple(rand_vec(rng, space, 40) for _ in range(spec.arity))
            orbit = iterate_bc(spec, init, 12)

            def perturbed(spec, init, led, n):
                return closed_form_state(spec, init, led, n).scale(LogComplex(1e-6, 0.0))

            assert closed_form_agreement(orbit, closed_form_state) <= 1e-9, name
            assert closed_form_agreement(orbit, perturbed) > 1e-9, name

    def test_nan_state_fails_the_agreement(self):
        rng = np.random.default_rng(23)
        init = (rand_vec(rng, L1, 30), rand_vec(rng, L1, 30))
        orbit = iterate_bc(m_l1(), init, 10)
        s = orbit.states[4]
        hi = s.hi.copy()
        hi[3] = np.nan
        orbit.states[4] = SeqVector(s.space, hi, s.lo, s.phase)
        worst = closed_form_agreement(orbit, closed_form_state)
        assert math.isnan(worst)
        assert not check_leq("closed-form-agreement", worst, 1e-9, "orbit-closed-form").ok


class TestTreeOrbit:
    def test_level_zero(self):
        rng = np.random.default_rng(11)
        x, y = rand_vec(rng, L1, 8), rand_vec(rng, L1, 8)
        tree = gk_tree(m_l1(), x, y, 0)
        assert tree.level_sizes == [2]

    def test_level_one_at_most_six(self):
        rng = np.random.default_rng(12)
        x, y = rand_vec(rng, L1, 8), rand_vec(rng, L1, 8)
        tree = gk_tree(m_l1(), x, y, 1)
        assert tree.candidate_counts[1] == 2 + 4
        assert tree.level_sizes[1] <= 6

    def test_zero_initials_collapse(self):
        z = SeqVector.zeros(L1, 6)
        tree = gk_tree(m_l1(), z, z, 3)
        assert tree.level_sizes == [1, 1, 1, 1]

    def test_recursive_orbit_contained(self):
        rng = np.random.default_rng(13)
        x, y = rand_vec(rng, L1, 12), rand_vec(rng, L1, 12)
        tree = gk_tree(m_l1(), x, y, 3, q=1e-9)
        assert tree.containment == [True] * 3

    def test_deep_tree_on_coefficient_lattice(self):
        # unweighted shift with diagonal initials keeps the coefficient
        # products on a small lattice, so depth 6 stays buildable
        x = cvec([0.9] * 12, SpaceTag.c0())
        tree = gk_tree(n_transpose(), x, x, 6, q=1e-7)
        assert tree.aborted_at_level is None
        assert tree.containment == [True] * 6
        assert tree.level_sizes[0] == 1  # the two initials coincide

    def test_cap_aborts_with_partial_result(self):
        rng = np.random.default_rng(14)
        x, y = rand_vec(rng, L1, 12), rand_vec(rng, L1, 12)
        tree = gk_tree(m_l1(), x, y, 5, q=1e-9, cap=30)
        assert tree.aborted_at_level is not None
        assert tree.containment is None  # an aborted tree skips containment

    def test_sizes_respect_pre_dedup_bound(self):
        rng = np.random.default_rng(15)
        x, y = rand_vec(rng, L1, 10), rand_vec(rng, L1, 10)
        tree = gk_tree(m_l1(), x, y, 3)
        for lvl in range(1, 4):
            assert tree.level_sizes[lvl] <= tree.candidate_counts[lvl]

    def test_depth_seven_lattice(self):
        x = cvec([0.9] * 12, SpaceTag.c0())
        tree = gk_tree(n_transpose(), x, x, 7, q=1e-7)
        assert tree.level_sizes == [1, 2, 5, 15, 44, 120, 307, 749]
        assert tree.containment == [True] * 7

    @pytest.mark.parametrize("name,sizes,depth", [
        ("n_transpose", (12, 12), 6), ("n_transpose", (12, 7), 8),
        ("m_l1", (4, 2), 3), ("m_symmetric", (12, 7), 3)])
    def test_work_counters_partition_candidates(self, name, sizes, depth):
        # constant initials on a lattice (the n_transpose rows) make many
        # duplicates; unequal windows make exhausted candidates
        rng = np.random.default_rng(44)
        if name == "n_transpose":
            w = LogComplex(0.0, 2.0 * math.pi / 3.0)
            x, y = (SeqVector.from_logc(SpaceTag.c0(), [w] * n) for n in sizes)
        else:
            x, y = (rand_vec(rng, L1, n) for n in sizes)
        tree = gk_tree(OPERATORS[name](), x, y, depth, q=1e-7)
        assert len(tree.duplicate_counts) == len(tree.exhausted_counts) == depth + 1
        for lvl in range(depth + 1):
            assert tree.candidate_counts[lvl] == (tree.level_sizes[lvl]
                                                  + tree.duplicate_counts[lvl]
                                                  + tree.exhausted_counts[lvl])
        assert sum(tree.duplicate_counts) + sum(tree.exhausted_counts) > 0

    def test_symmetrized_operator_tree(self):
        # the symmetrized operator admits no closed form but its tree orbit
        # and containment check work the same way
        rng = np.random.default_rng(16)
        x, y = rand_vec(rng, L1, 10), rand_vec(rng, L1, 10)
        tree = gk_tree(m_symmetric(), x, y, 3, q=1e-9)
        assert tree.containment == [True] * 3


def _ref_key(v, q):
    """The per-coordinate tuple key the tree used before its array pass."""
    lm = v.lm
    key = []
    for i in range(len(v)):
        if np.isneginf(lm[i]):
            key.append(("z",))
        else:
            key.append((int(round(lm[i] / q)), int(round(v.phase[i] / q))))
    while key and key[-1] == ("z",):
        key.pop()
    return tuple(key)


def _ref_tree(spec, x, y, depth, q, cap=10**6):
    """Pair-by-pair reference: one ``apply`` and one tuple key per pair."""
    seen, cur = set(), []
    for s in (x, y):
        if _ref_key(s, q) not in seen:
            seen.add(_ref_key(s, q))
            cur.append(s)
    levels, sets, counts, aborted = [cur], [seen], [2], None
    drops = [(2 - len(cur), 0)]
    for lvl in range(1, depth + 1):
        prev = levels[-1]
        nxt, seen, ok = list(prev), set(sets[-1]), True
        counts.append(len(prev) + len(prev) ** 2)
        dup = exh = 0
        for z in prev:
            for w in prev:
                cand = apply(spec, (z, w))
                if cand.is_exhausted:
                    exh += 1
                    continue
                if _ref_key(cand, q) in seen:
                    dup += 1
                    continue
                seen.add(_ref_key(cand, q))
                nxt.append(cand)
                if len(nxt) > cap:
                    ok = False
                    break
            if not ok:
                break
        levels.append(nxt)
        sets.append(seen)
        drops.append((dup, exh))
        if not ok:
            aborted = lvl
            break
    return levels, sets, counts, aborted, drops


def _ref_contains(levels, sets, state, level, q):
    return (_ref_key(state, q) in sets[level]
            or any(_quant_distance(state, s) <= 2.0 * q for s in levels[level]))


def _assert_tree_matches_reference(spec, x, y, depth, q, cap=10**6):
    tree = gk_tree(spec, x, y, depth, q=q, cap=cap)
    levels, sets, counts, aborted, drops = _ref_tree(spec, x, y, depth, q, cap)
    assert tree.level_sizes == [len(lv) for lv in levels]
    assert tree.candidate_counts == counts
    assert list(zip(tree.duplicate_counts, tree.exhausted_counts)) == drops
    assert tree.aborted_at_level == aborted
    for got_level, ref_level in zip(tree.levels, levels):
        for got, ref in zip(got_level, ref_level):
            assert got.space == ref.space
            for part in ("hi", "lo", "phase"):
                assert getattr(got, part).tobytes() == getattr(ref, part).tobytes()
    probes = [s for lv in levels for s in lv]
    if aborted is None:
        orbit = iterate_bc(spec, (x, y), depth)
        ref_flags = [n <= len(orbit.states)
                     and _ref_contains(levels, sets, orbit.states[n - 1], n, q)
                     for n in range(1, depth + 1)]
        assert tree.containment == ref_flags
        probes += orbit.states
    for lvl, (got_set, ref_set) in enumerate(zip(tree.hash_sets, sets)):
        assert len(got_set) == len(ref_set)
        for s in probes:
            assert (_quantize(s, q) in got_set) == (_ref_key(s, q) in ref_set)
    return tree


class TestTreeMatchesPairwiseReference:
    """The array level pass gives the pair-by-pair loop's levels bit for bit."""

    @pytest.mark.parametrize("name,space", [
        ("n_transpose", SpaceTag.c0()), ("m_l1", L1), ("m_symmetric", L1),
        ("m_fg_prime", HC), ("b_translate", HC)])
    def test_generic_pairs(self, name, space):
        rng = np.random.default_rng(40)
        x, y = rand_vec(rng, space, 8), rand_vec(rng, space, 8)
        depth = 2 if name == "b_translate" else 3
        _assert_tree_matches_reference(OPERATORS[name](), x, y, depth, 1e-9)

    @pytest.mark.parametrize("name", ["n_transpose", "m_l1", "m_symmetric"])
    def test_constant_lattice(self, name):
        x = SeqVector.from_logc(SpaceTag.c0() if name == "n_transpose" else L1,
                                [LogComplex(-0.3, 1.1)] * 12)
        _assert_tree_matches_reference(OPERATORS[name](), x, x, 4, 1e-7)

    @pytest.mark.parametrize("name,space", [
        ("n_transpose", SpaceTag.c0()), ("m_symmetric", L1), ("m_fg_prime", HC)])
    def test_zero_initials(self, name, space):
        # an all-zero initial and one with a zero first coordinate: zero
        # scalars give canonical zero rows and zero states dedup to one key
        rng = np.random.default_rng(41)
        zero = SeqVector.zeros(space, 9)
        y = rand_vec(rng, space, 9)
        y = SeqVector(space, np.r_[LOG_ZERO, y.hi[1:]], y.lo, y.phase)
        _assert_tree_matches_reference(OPERATORS[name](), zero, y, 3, 1e-9)

    def test_unequal_lengths_exhaust_mid_level(self):
        # windows 12 and 7 of a cube root of unity keep the tree small enough
        # to reach level 7, where the shortest rows' images run out
        w = LogComplex(0.0, 2.0 * math.pi / 3.0)
        x = SeqVector.from_logc(SpaceTag.c0(), [w] * 12)
        y = SeqVector.from_logc(SpaceTag.c0(), [w] * 7)
        tree = _assert_tree_matches_reference(n_transpose(), x, y, 8, 1e-7)
        assert tree.exhausted_counts[:7] == [0] * 7
        assert 0 < tree.exhausted_counts[7] < tree.candidate_counts[7]

    @pytest.mark.parametrize("name,space", [
        ("n_transpose", SpaceTag.c0()), ("m_l1", L1), ("m_symmetric", L1),
        ("m_fg_prime", HC)])
    def test_short_windows_exhaust_mid_level(self, name, space):
        rng = np.random.default_rng(42)
        x, y = rand_vec(rng, space, 4), rand_vec(rng, space, 2)
        tree = _assert_tree_matches_reference(OPERATORS[name](), x, y, 3, 1e-9)
        assert 0 < tree.exhausted_counts[2] < tree.candidate_counts[2]

    @pytest.mark.parametrize("sizes,cap", [
        ((12, 12), 3), ((12, 12), 30), ((12, 12), 31), ((4, 2), 24), ((4, 2), 100)])
    def test_cap_abort_gives_identical_partial_level(self, sizes, cap):
        # the (4, 2) windows abort before (cap 24) and after (cap 100) the
        # exhausted rows of their level
        rng = np.random.default_rng(14)
        x, y = (rand_vec(rng, L1, n) for n in sizes)
        tree = _assert_tree_matches_reference(m_l1(), x, y, 5, 1e-9, cap=cap)
        assert tree.aborted_at_level is not None
        assert tree.level_sizes[-1] == cap + 1


    @pytest.mark.parametrize("block", [1, 40, 97])
    def test_blocks_split_levels_without_changing_them(self, block, monkeypatch):
        # blocks far smaller than a level: duplicates across blocks are caught
        # through the seen set, and the cap aborts inside a later block
        monkeypatch.setattr(dynamics, "_TREE_BLOCK", block)
        w = LogComplex(0.0, 2.0 * math.pi / 3.0)
        x = SeqVector.from_logc(SpaceTag.c0(), [w] * 12)
        y = SeqVector.from_logc(SpaceTag.c0(), [w] * 7)
        _assert_tree_matches_reference(n_transpose(), x, y, 8, 1e-7)
        rng = np.random.default_rng(45)
        u, v = rand_vec(rng, L1, 6), rand_vec(rng, L1, 3)
        _assert_tree_matches_reference(m_symmetric(), u, v, 3, 1e-9)
        _assert_tree_matches_reference(m_l1(), u, v, 4, 1e-9, cap=60)


class TestTreeKeys:
    def test_negative_zero_rounding_folds(self):
        # lm / q in (-0.5, 0) rounds to -0.0 and must key as +0.0 does
        q = 1e-7
        a = SeqVector(L1, [-0.3 * q, 0.0], [0.0, 0.0], [0.2 * q, -0.4 * q])
        b = SeqVector(L1, [0.3 * q, 0.0], [0.0, 0.0], [-0.2 * q, 0.4 * q])
        assert np.signbit(np.rint(a.lm[0] / q))
        assert _quantize(a, q) == _quantize(b, q)
        assert _ref_key(a, q) == _ref_key(b, q)

    def test_trailing_zeros_key_alike(self):
        rng = np.random.default_rng(43)
        v = rand_vec(rng, L1, 9)
        v9 = SeqVector(L1, np.r_[v.hi[:6], [LOG_ZERO] * 3], v.lo, v.phase)
        v12 = v9._padded(12)
        assert len(v12) == 12 and len(v9) == 9
        assert _quantize(v12, 1e-9) == _quantize(v9, 1e-9)
        assert _quantize(v9, 1e-9) != _quantize(v9.truncate(5), 1e-9)

    def test_huge_log_magnitude_keys_without_overflow(self):
        # lm / q far beyond int64: the float key still separates what the
        # integer tuple key separates and merges what it merges
        q = 1e-7
        base = SeqVector(L1, [1e15, -1e15, 2.0], [0.0, 0.0, 0.0], [0.5, -1.0, 3.0])
        same = SeqVector(L1, [1e15, -1e15, 2.0], [1e-9, 0.0, 0.0], [0.5, -1.0, 3.0])
        other = SeqVector(L1, [np.nextafter(1e15, 2e15), -1e15, 2.0],
                          [0.0, 0.0, 0.0], [0.5, -1.0, 3.0])
        assert abs(_ref_key(base, q)[0][0]) > 2**63
        for a, b in [(base, same), (base, other), (same, other)]:
            same = _ref_key(a, q) == _ref_key(b, q)
            assert (_quantize(a, q) == _quantize(b, q)) == same
        assert _quantize(base, q) != _quantize(other, q)


class TestClassification:
    def test_contraction_ball_converges(self):
        rng = np.random.default_rng(16)
        spec = m_l1()
        mk = lambda: rand_vec(rng, L1, 120, lo=0.001, hi=0.004)
        orbit = iterate_bc(spec, (mk(), mk()), 60)
        assert classify_orbit(orbit) is OrbitClass.CONVERGES_TO_ZERO

    def test_shift_annihilation_converges(self):
        spec = m_l1()
        e1 = SeqVector.basis(L1, 30, 1)
        orbit = iterate_bc(spec, (e1, e1), 15)
        assert classify_orbit(orbit) is OrbitClass.CONVERGES_TO_ZERO

    def test_large_initials_escape(self):
        spec = m_l1()
        big = cvec([10.0] * 100)
        orbit = iterate_bc(spec, (big, big), 60)
        assert classify_orbit(orbit) is OrbitClass.ESCAPING

    def test_unit_diagonal_orbit_is_bounded(self):
        # unweighted shift with all-ones initials: every state is all ones,
        # sup norm constant at 1: neither converging nor escaping
        spec = n_transpose()
        v = cvec([1.0] * 12, SpaceTag.c0())
        orbit = iterate_bc(spec, (v, v), 8)
        assert classify_orbit(orbit) is OrbitClass.BOUNDED

    def test_transient_dip_is_not_convergence(self):
        # 9 tiny norms then growth again must not classify as converging
        spec = m_l1()
        big = cvec([6.0] * 80)
        orbit = iterate_bc(spec, (big, big), 50)
        assert classify_orbit(orbit) is not OrbitClass.CONVERGES_TO_ZERO


class TestWeightCollapse:
    def g_unit_ball(self, rng, n=60):
        # monomial coefficients of modulus <= 1, bounded away from zero
        mags = rng.uniform(0.3, 1.0, n)
        ph = rng.uniform(-np.pi, np.pi, n)
        return SeqVector.from_complex(HC, mags * np.exp(1j * ph))

    def test_bound_holds_under_hypotheses(self):
        rng = np.random.default_rng(17)
        g = self.g_unit_ball(rng)
        k_log, delta_log = collapse_constant(40)
        f0 = LogComplex(delta_log + math.log(0.999), 0.0)
        rep = verify_weight_collapse(f0, g, 40)
        assert rep.ok
        assert all(m <= 0 for m in rep.margins)

    def test_zero_f0_trivial(self):
        rng = np.random.default_rng(18)
        rep = verify_weight_collapse(0.0, self.g_unit_ball(rng), 30)
        assert rep.ok
        assert rep.margins[5] == LOG_ZERO - (-rep.k_log - (2 ** 3.0) * math.log(2))

    def test_boundary_probe(self):
        rng = np.random.default_rng(19)
        g = self.g_unit_ball(rng)
        _, delta_log = collapse_constant(40)
        ok_probe = verify_weight_collapse(
            LogComplex(delta_log + math.log(0.999), 0.0), g, 40)
        assert ok_probe.ok

    def test_hypothesis_violation_flagged(self):
        rng = np.random.default_rng(20)
        g = self.g_unit_ball(rng)
        rep = verify_weight_collapse(10.0, g, 20)
        assert not rep.ok and "hypothesis-violation" in rep.detail

    def test_big_coefficient_flagged(self):
        big_g = cvec([1.0, 3.0], HC)
        rep = verify_weight_collapse(1e-9, big_g, 10)
        assert not rep.ok and "hypothesis-violation" in rep.detail


class TestRegistry:
    # operator -> (chain, has_closed_form): the shape alone decides both
    SHAPES = {
        "mc_CN": (True, True),
        "m_l1": (False, True),
        "n_transpose": (False, True),
        "m_fg_prime": (True, True),
        "n_delta_d": (False, True),
        "b_translate": (True, True),
        "m_symmetric": (False, False),
    }

    def test_shape_decides_closed_form(self):
        assert sorted(self.SHAPES) == sorted(OPERATORS)
        for name, want in self.SHAPES.items():
            spec = make_operator(name)
            assert (spec.chain, spec.has_closed_form) == want, name
        spec = mc_CN(4)
        assert spec.chain and spec.has_closed_form

    def test_all_registered(self):
        assert sorted(OPERATORS) == sorted(
            ["mc_CN", "m_l1", "n_transpose", "m_fg_prime", "n_delta_d",
             "b_translate", "m_symmetric"])

    def test_make_operator_arity(self):
        assert make_operator("mc_CN", 4).arity == 4
        assert make_operator("m_l1").arity == 2
        with pytest.raises(ParameterRangeError):
            make_operator("nope")
