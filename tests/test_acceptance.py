"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on failure)
and asserts both the property and the runtime.
"""

import math
import time

import numpy as np

from hyperorbit.arith import FibCache, LogComplex, a_closed, a_recursion, check_fib_identities
from hyperorbit.conjugation import (
    build_N,
    commutation_check,
    host_basis,
    pushforward_orbit_check,
)
from hyperorbit.constructions import (
    companion_pair,
    delta_d_pair,
    gap_schedule_search,
    hc_Q_blocks,
    symmetric_preimage_certificates,
    universal_y_l1,
)
from hyperorbit.dynamics import (
    OrbitClass,
    b_translate,
    classify_orbit,
    closed_form_agreement,
    closed_form_state,
    collapse_constant,
    gk_tree,
    iterate_bc,
    m_fg_prime,
    m_l1,
    n_delta_d,
    n_transpose,
    verify_weight_collapse,
)
from hyperorbit.rational import qvec
from hyperorbit.report import CheckFamily
from hyperorbit.spaces import SeqVector, SpaceTag
from oracles import entry, steering_exact

L1 = SpaceTag.l1()
HC = SpaceTag.hc(1)


def _report(record, num, ok, detail, dt, budget):
    status = "PASS" if ok and dt < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status}  {detail}  [{dt:.2f}s / {budget:.0f}s]")
    record({"number": num, "status": status, "detail": detail,
            "seconds": dt, "budget": budget})
    assert ok, f"criterion {num}: {detail}"
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


def rand_vec(rng, space, n, lo=0.5, hi=2.0):
    mags = rng.uniform(lo, hi, n)
    ph = rng.uniform(-np.pi, np.pi, n)
    return SeqVector.from_complex(space, mags * np.exp(1j * ph))


def test_01_integer_identity_suite(acceptance_record):
    t0 = time.perf_counter()
    rep = check_fib_identities(200, FibCache(200))
    dt = time.perf_counter() - t0
    _report(acceptance_record, 1, rep.ok,
            f"{rep.checked} exact identity instances covered, {rep.computed} computed",
            dt, 5.0)


def test_02_exponent_sequence_closed_form(acceptance_record):
    t0 = time.perf_counter()
    a = a_recursion(10**4)
    ok = a[1:] == [a_closed(n) for n in range(1, 10**4 + 1)]
    dt = time.perf_counter() - t0
    _report(acceptance_record, 2, ok, "a_n recursion == closed form for n <= 1e4", dt, 1.0)


def test_03_closed_form_vs_direct_orbit(acceptance_record):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    families = [
        (m_l1(), L1), (n_transpose(), SpaceTag.c0()),
        (m_fg_prime(), HC), (n_delta_d(), HC), (b_translate(), HC),
    ]
    worst = 0.0
    for spec, space in families:
        for _ in range(100):
            init = (rand_vec(rng, space, 200), rand_vec(rng, space, 200))
            steps = int(rng.integers(10, 41))
            orbit = iterate_bc(spec, init, steps)
            # np.maximum lets a NaN agreement through, so that it fails
            worst = np.maximum(worst, closed_form_agreement(orbit, closed_form_state))
    dt = time.perf_counter() - t0
    _report(acceptance_record, 3, worst <= 1e-9,
            f"5 operators x 100 inits, worst log-magnitude rel {worst:.2e}",
            dt, 30.0)


def test_04_weight_identity_to_200(acceptance_record):
    t0 = time.perf_counter()
    # the exact exponent route to n = min(200, 401), then the recursion route
    # on a literally built companion pair to n = min(15, 401 // 2) (its noise
    # grows with Fibonacci weight, so it is meaningful only for small n)
    rng = np.random.default_rng(1004)
    y = SeqVector.from_complex(L1, rng.uniform(0.4, 2.5, 402)
                               * np.exp(1j * rng.uniform(-np.pi, np.pi, 402)))
    _, certs = companion_pair(y)
    ok = all(c.ok for c in certs)
    dt = time.perf_counter() - t0
    _report(acceptance_record, 4, ok, "c_2n d_2n = 2^n n!^2 certified to n = 200", dt, 5.0)


def test_05_universal_vector_certificates(acceptance_record):
    t0 = time.perf_counter()
    sch = gap_schedule_search(4)
    _, certs = universal_y_l1(sch)
    ok = all(c.ok for c in certs)
    rows = sum(len(c) if isinstance(c, CheckFamily) else 1 for c in certs)
    dt = time.perf_counter() - t0
    _report(acceptance_record, 5, ok,
            f"schedule {sch.ns[1:]}, {rows} certificates, "
            f"window {len(sch.z)}", dt, 120.0)


def test_06_exact_steering(acceptance_record):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    count = 0
    ok = True
    for m in (2, 3):
        for _ in range(10):
            heads = [qvec([int(rng.integers(1, 9))]) for _ in range(m - 1)]
            x0 = qvec([int(rng.integers(1, 9)) for _ in range(10)])
            tgt = qvec([int(rng.integers(-20, 21)) for _ in
                        range(int(rng.integers(1, 6)))])
            k = int(rng.integers(1, 7))
            ok = ok and steering_exact(m, heads + [x0], tgt, k)
            count += 1
    dt = time.perf_counter() - t0
    _report(acceptance_record, 6, ok, f"{count} exact rational steering targets (m = 2, 3)",
            dt, 10.0)


def test_07_reciprocal_pair_unity(acceptance_record):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(50):
        mags = np.exp(rng.uniform(-math.log(2), math.log(2), 31))
        ph = rng.uniform(-np.pi, np.pi, 31)
        coeffs = [mags[i] * np.exp(1j * ph[i]) / math.factorial(i)
                  for i in range(31)]
        g = SeqVector.from_complex(HC, coeffs)
        _, certs = delta_d_pair(g)
        worst = max(worst, entry(certs, "reciprocal-coefficient").measured.max())
        assert all(c.ok for c in certs)
    dt = time.perf_counter() - t0
    _report(acceptance_record, 7, worst <= 1e-9,
            f"50 random pairs, worst f^(n)(0) prod g^(i)(0) residual = {worst:.2e} "
            f"for n <= 30", dt, 10.0)


def test_08_universal_entire_function_blocks(acceptance_record):
    t0 = time.perf_counter()
    qb = hc_Q_blocks(3)
    ok = all(c.ok for c in qb.certificates)
    # weight collapse under the stated hypotheses
    rng = np.random.default_rng(1008)
    mags = rng.uniform(0.3, 1.0, 60)
    g = SeqVector.from_complex(
        HC, mags * np.exp(1j * rng.uniform(-np.pi, np.pi, 60)))
    _, delta_log = collapse_constant(40)
    rep = verify_weight_collapse(LogComplex(delta_log + math.log(0.999), 0.0),
                                 g, 40)
    ok = ok and rep.ok
    dt = time.perf_counter() - t0
    _report(acceptance_record, 8, ok,
            f"blocks at {qb.ns}, unit weights + coefficient bounds + "
            "collapse bound to n = 40", dt, 60.0)


def test_09_symmetric_preimage_residuals(acceptance_record):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    ok = True
    for _ in range(50):
        support = int(rng.integers(1, 11))
        vals = rng.normal(size=support) + 1j * rng.normal(size=support)
        x0 = SeqVector.from_complex(L1, list(vals))
        _, _, certs = symmetric_preimage_certificates(x0, rng)  # 20 lambdas
        ok = ok and all(c.ok for c in certs)
    dt = time.perf_counter() - t0
    _report(acceptance_record, 9, ok, "50 targets x 20 lambdas, relative residual <= 1e-12",
            dt, 5.0)


def test_10_conjugation_residuals(acceptance_record):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    ok = True
    details = []
    for kind in ("identity", "diagonal", "banded"):
        basis = host_basis(kind, 200)
        com = commutation_check(build_N(basis), 200, rng)
        ok = ok and com.max_residual <= 1e-10
        mk = lambda: SeqVector.from_complex(
            L1, 0.002 * rng.uniform(0.2, 1.0, 200)
            * np.exp(1j * rng.uniform(-np.pi, np.pi, 200)))
        push = pushforward_orbit_check(build_N(basis), (mk(), mk()), 50)
        ok = ok and push.ok and push.steps == 50
        details.append(f"{kind}:{com.max_residual:.1e}")
    dt = time.perf_counter() - t0
    _report(acceptance_record, 10, ok, "commutation on all 200^2 pairs + 50-step push-forward "
            f"({', '.join(details)})", dt, 30.0)


def test_11_limit_ball(acceptance_record):
    t0 = time.perf_counter()
    spec = m_l1()
    rng = np.random.default_rng(1011)
    ok = True
    for _ in range(100):
        n = 150
        raw = rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        raw = raw / (np.sum(np.abs(raw)) * rng.uniform(1.05, 4.0))  # inside B
        x = SeqVector.from_complex(L1, raw)
        raw2 = rng.uniform(0.2, 1.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        raw2 = raw2 / (np.sum(np.abs(raw2)) * rng.uniform(1.05, 4.0))
        y = SeqVector.from_complex(L1, raw2)
        orbit = iterate_bc(spec, (x, y), 60)
        ok = ok and classify_orbit(orbit) is OrbitClass.CONVERGES_TO_ZERO
        norms = orbit.log_norms()
        ok = ok and all(norms[i + 1] <= norms[i]
                        for i in range(spec.arity - 1, len(norms) - 1))
    for _ in range(100):
        big = rand_vec(rng, L1, 150, lo=1.5, hi=10.0)
        big2 = rand_vec(rng, L1, 150, lo=1.5, hi=10.0)
        orbit = iterate_bc(spec, (big, big2), 60)
        ok = ok and classify_orbit(orbit) is not OrbitClass.CONVERGES_TO_ZERO
    dt = time.perf_counter() - t0
    _report(acceptance_record, 11, ok, "100 contraction-ball orbits converge monotonically; "
            "100 large orbits never converge", dt, 30.0)


def test_12_tree_orbit(acceptance_record):
    t0 = time.perf_counter()
    x = SeqVector.from_complex(SpaceTag.c0(), [0.9] * 12)
    tree = gk_tree(n_transpose(), x, x, 6, q=1e-7)
    ok = tree.aborted_at_level is None
    ok = ok and tree.containment == [True] * 6
    ok = ok and all(tree.level_sizes[l] <= tree.candidate_counts[l]
                    for l in range(1, 7))
    rng = np.random.default_rng(1012)
    xr = rand_vec(rng, L1, 12)
    yr = rand_vec(rng, L1, 12)
    tree2 = gk_tree(m_l1(), xr, yr, 3, q=1e-9)
    ok = ok and tree2.containment == [True] * 3
    ok = ok and all(tree2.level_sizes[l] <= tree2.candidate_counts[l]
                    for l in range(1, 4))
    # a generic pair at depth 4, where the dedup loop dominates
    xg, yg = rand_vec(rng, SpaceTag.c0(), 12), rand_vec(rng, SpaceTag.c0(), 12)
    tree3 = gk_tree(n_transpose(), xg, yg, 4)
    ok = ok and tree3.containment == [True] * 4
    ok = ok and all(c == s + d + e for c, s, d, e in zip(
        tree3.candidate_counts, tree3.level_sizes, tree3.duplicate_counts,
        tree3.exhausted_counts))
    dt = time.perf_counter() - t0
    _report(acceptance_record, 12, ok,
            f"depth-6 containment, level sizes {tree.level_sizes}; generic depth 4, "
            f"level sizes {tree3.level_sizes}", dt, 30.0)
