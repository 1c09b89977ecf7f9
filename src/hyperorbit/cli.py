"""Command-line front end: run verifications, build constructions, emit reports.

Subcommands: ``identities``, ``orbit``, ``build``, ``conjugate``, ``julia``.
Every run produces a single JSON report (to ``--out`` or stdout).  Exit codes:
0 all checks pass, 1 at least one check failed, 2 input error.  The only
randomness (sample vectors) is seeded; reports are deterministic for fixed
inputs and seeds up to wall-time fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .arith import ASeq, FibCache, LogComplex, check_fib_identities, fib_partial_sum_ok
from .constructions import (
    DenseTestSeq,
    companion_x,
    delta_d_pair,
    gap_schedule_search,
    hc_Q_blocks,
    julia_ray_bisection,
    stacked_primitive_g,
    symmetric_preimage,
    universal_y_l1,
    weight_identity_certificates,
    weight_identity_recursion_error,
)
from .conjugation import build_N, commutation_check, host_basis, pushforward_orbit_check
from .dynamics import (
    OPERATORS,
    classify_orbit,
    closed_form_agreement,
    closed_form_state,
    iterate_bc,
    make_operator,
)
from .errors import BadBracketError, HyperorbitError, ParameterRangeError
from .rational import q_iterate, q_vector_from_json, q_vector_to_json
from .report import Check, RunReport, check_flag, check_leq
from .spaces import (
    LOG_ZERO,
    SeqVector,
    SpaceTag,
    WeightSeq,
    norm,
    read_vector,
    vector_from_json,
    vector_to_json,
    write_vector,
)

TRACE_COORD_LIMIT = 10**4


class InputError(Exception):
    """Bad file, unparsable JSON, or unusable parameters (exit code 2)."""


# what reading a malformed vector file or entry raises; each is an input error
_VECTOR_ERRORS = (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
                  IndexError, ParameterRangeError)


def _read_vector_input(path):
    """Read a single vector file, mapping any malformation to an input error."""
    try:
        return read_vector(path)
    except _VECTOR_ERRORS as exc:
        raise InputError(f"cannot read vector file {path}: {exc}") from exc


def _load_init(path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read init file {path}: {exc}") from exc
    if isinstance(obj, dict) and "vectors" in obj:
        return list(obj["vectors"])
    if isinstance(obj, dict):
        return [obj]
    if isinstance(obj, list):
        return obj
    raise InputError(f"init file {path} holds neither a vector nor a vector list")


def _emit_path(out, name: str) -> str:
    base = os.path.dirname(out) if out else "."
    return os.path.join(base or ".", name)


def _write_trace(path, orbit_states, rational=False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n, state in enumerate(orbit_states, start=1):
            if rational:
                rec = {"n": n, "coords": q_vector_to_json(state)["coords"]}
            else:
                rec = {"n": n, "log_norm": norm(state)}
                if len(state) <= TRACE_COORD_LIMIT:
                    rec["coords"] = vector_to_json(state)["coords"]
                if rec["log_norm"] == LOG_ZERO:
                    rec["log_norm"] = "-inf"
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_identities(args) -> RunReport:
    rep = RunReport("identities", {"max_n": args.max_n, "a_max": args.a_max,
                                   "corrupt_cache": bool(args.corrupt_cache)})
    cache = FibCache(args.max_n)
    if args.corrupt_cache:
        cache._corrupt_for_testing(max(3, args.max_n // 2))
    idrep = check_fib_identities(args.max_n, cache)
    rep.parameters["identity_instances"] = idrep.checked
    rep.add(check_flag("fib-identities", idrep.ok, "fib-even-sum-and-vajda"))
    rep.add(check_flag("fib-partial-sums", fib_partial_sum_ok(min(args.max_n, 500)),
                       "fib-partial-sum"))
    try:
        ASeq(args.a_max)
        rep.add(check_flag("a-seq-closed-form", True, "a-seq-closed-form"))
    except AssertionError:
        rep.add(check_flag("a-seq-closed-form", False, "a-seq-closed-form"))
    return rep.finish()


def cmd_orbit(args) -> RunReport:
    vectors = _load_init(args.init)
    rep = RunReport("orbit", {"operator": args.operator, "init": args.init,
                              "steps": args.steps, "rational": bool(args.rational),
                              "tol": args.tol, "seed": args.seed})
    if args.rational:
        if args.operator != "mc_CN":
            raise InputError("rational iteration is exact only for mc_CN")
        init = [q_vector_from_json(v) for v in vectors]
        states = q_iterate(len(init), init, args.steps)
        rep.parameters["arity"] = len(init)
        rep.add(check_flag("exact-iteration", True, "orbit-recursion"))
        if args.trace:
            _write_trace(args.trace, states, rational=True)
        return rep.finish()

    if args.operator not in OPERATORS:
        raise InputError(f"unknown operator {args.operator!r}; "
                         f"registered: {sorted(OPERATORS)}")
    spec = make_operator(args.operator, arity=len(vectors))
    try:
        init = tuple(vector_from_json(v) for v in vectors)
    except _VECTOR_ERRORS as exc:
        raise InputError(f"bad vector in init file: {exc}") from exc
    orbit = iterate_bc(spec, init, args.steps)
    rep.parameters["states"] = len(orbit.states)
    if orbit.exhausted_at is not None:
        rep.parameters["window_exhausted_at"] = orbit.exhausted_at

    if spec.has_closed_form and orbit.states:
        # the closed form is read from this module, where a negative control
        # can replace it
        worst = closed_form_agreement(orbit, closed_form_state)
        rep.add(check_leq("closed-form-agreement", worst, 1e-9,
                          "orbit-closed-form"))
    cls = classify_orbit(orbit, tol=args.tol)
    rep.parameters["classification"] = cls.value
    if args.trace:
        _write_trace(args.trace, orbit.states)
    return rep.finish()


def _build_companion(args, rep: RunReport) -> None:
    if not args.init:
        raise InputError("companion build needs --init with the base vector")
    y = _read_vector_input(args.init)
    a = ASeq(len(y) + 2)
    w = WeightSeq.inv_squares()
    x = companion_x(y, w, a)
    write_vector(_emit_path(args.out, "companion_x.json"), x)
    n_exact = min(200, len(y) - 1)
    rep.extend(weight_identity_certificates(n_exact, w, ASeq(n_exact),
                                            raise_on_failure=False))
    n_rec = min(15, (len(y) - 1) // 2)
    if n_rec >= 1:
        for n, dlog, dph in weight_identity_recursion_error(y, w, a, n_rec):
            target = n * math.log(2.0) + 2.0 * math.lgamma(n + 1.0)
            rep.add(check_leq("recursion-identity", max(dlog, dph),
                              1e-8 * max(1.0, target), "companion-weight-identity", n))


def _build_universal(args, rep: RunReport) -> None:
    dense = DenseTestSeq()
    w = WeightSeq.inv_squares()
    blocks = args.blocks or 3
    schedule = gap_schedule_search(dense, w, ASeq(10), blocks)
    rep.parameters["schedule"] = schedule.ns[1:]
    z, certs = universal_y_l1(schedule, dense, w, raise_on_failure=False)
    write_vector(_emit_path(args.out, "universal_y.json"), z)
    rep.extend(certs)
    for r in schedule.records:
        rep.add(check_flag("gap-minimality",
                           r["violated_at_prev"] is None or r["violated_at_prev"] > 0,
                           "gap-schedule", r["j"]))
        rep.add(check_flag("gap-monotone",
                           r["tail_monotone"] and r["derivative_negative"],
                           "gap-schedule", r["j"]))


def _build_delta_d(args, rep: RunReport) -> None:
    if args.init:
        g = _read_vector_input(args.init)
    else:
        g = stacked_primitive_g(DenseTestSeq(), blocks=8)
    f, certs = delta_d_pair(g, raise_on_failure=False)
    write_vector(_emit_path(args.out, "delta_d_f.json"), f)
    rep.extend(certs)


def _build_q_blocks(args, rep: RunReport) -> None:
    K = args.blocks or 3
    qb = hc_Q_blocks(DenseTestSeq(), K, raise_on_failure=False)
    rep.parameters["block_tops"] = qb.ns
    write_vector(_emit_path(args.out, "q_universal.json"), qb.Q)
    rep.extend(qb.certificates)


def _build_symmetric(args, rep: RunReport) -> None:
    if not args.init:
        raise InputError("symmetric_preimage needs --init with the target vector")
    x0 = _read_vector_input(args.init)
    rng = np.random.default_rng(args.seed)
    w = WeightSeq.inv_squares()
    base = norm(x0)
    for t in range(20):
        lam = LogComplex.from_complex(complex(rng.uniform(0.5, 8.0)
                                              * np.exp(1j * rng.uniform(-np.pi, np.pi))))
        x, y, resid = symmetric_preimage(x0, lam, w)
        rel = resid - base if base > LOG_ZERO else resid
        rep.add(check_leq("preimage-residual", rel if rel > LOG_ZERO else -1e9,
                          math.log(1e-12), "symmetric-preimage", t))
        if t == 0:
            write_vector(_emit_path(args.out, "preimage_x.json"), x)
            write_vector(_emit_path(args.out, "preimage_y.json"), y)


_BUILDERS = {
    "companion": _build_companion,
    "universal_l1": _build_universal,
    "delta_d": _build_delta_d,
    "q_blocks": _build_q_blocks,
    "symmetric_preimage": _build_symmetric,
}


def cmd_build(args) -> RunReport:
    if args.target not in _BUILDERS:
        raise InputError(f"unknown build target {args.target!r}; "
                         f"available: {sorted(_BUILDERS)}")
    rep = RunReport("build", {"target": args.target, "init": args.init,
                              "blocks": args.blocks, "seed": args.seed})
    try:
        _BUILDERS[args.target](args, rep)
    except HyperorbitError as exc:
        # the message varies with the input; the check keeps a stable tag
        print(f"build input rejected: {exc}", file=sys.stderr)
        rep.add(Check(type(exc).__name__, "fail", 1.0, 0.0, "build-input"))
    return rep.finish()


def cmd_conjugate(args) -> RunReport:
    rep = RunReport("conjugate", {"basis": args.basis, "size": args.size,
                                  "samples": args.samples, "band_u": args.band_u,
                                  "seed": args.seed})
    basis = host_basis(args.basis, args.size, u=args.band_u)
    rep.add(check_leq("biorthogonality", basis.biorthogonality_residual(),
                      1e-12, "basis-biorthogonality"))
    rep.add(check_leq("basis-bound", basis.bound(), 1.0 + basis.eps,
                      "basis-boundedness"))
    op = build_N(basis)
    spec = make_operator("m_l1")
    rng = np.random.default_rng(args.seed)
    com = commutation_check(spec, op, basis, args.samples, rng)
    rep.add(check_leq("commutation", com.max_residual, 1e-10,
                      "factor-commutation"))
    mk = lambda: SeqVector.from_complex(
        SpaceTag.l1(), 0.002 * rng.uniform(0.2, 1.0, args.size)
        * np.exp(1j * rng.uniform(-np.pi, np.pi, args.size)))
    push = pushforward_orbit_check(spec, op, basis, (mk(), mk()), 50)
    worst = max((r - b for r, b in zip(push.residual_logs, push.bound_logs)),
                default=-1.0)
    rep.add(check_leq("pushforward", worst, 0.0, "orbit-pushforward"))
    return rep.finish()


def cmd_julia(args) -> RunReport:
    rep = RunReport("julia", {"init": args.init, "bracket": args.bracket,
                              "tol": args.tol})
    v = _read_vector_input(args.init)
    t_lo, t_hi = args.bracket
    probe = julia_ray_bisection(WeightSeq.inv_squares(), v, t_lo, t_hi,
                                tol=args.tol)
    rep.parameters["bracket_final"] = [probe.t_lo, probe.t_hi]
    rep.parameters["classifications"] = [probe.class_lo.value, probe.class_hi.value]
    rep.parameters["bisection_steps"] = probe.bisection_steps
    rep.add(check_leq("bracket-width", probe.width, args.tol, "basin-boundary-bracket"))
    rep.add(check_flag("endpoint-flip",
                       probe.class_lo.value == "converges_to_zero"
                       and probe.class_hi.value != "converges_to_zero",
                       "basin-boundary-bracket"))
    return rep.finish()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperorbit",
        description="verify and build the constructions of multilinear "
                    "hypercyclic dynamics at desk scale")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report here (default stdout)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled vectors (default 0)")
        sp.add_argument("--tol", type=float, default=1e-12,
                        help="tolerance where the command takes one")

    sp = sub.add_parser("identities", help="exact integer identity suite")
    sp.add_argument("--max-n", type=int, default=200)
    sp.add_argument("--a-max", type=int, default=10000)
    sp.add_argument("--corrupt-cache", action="store_true",
                    help="negative control: damage the cache; the run must fail")
    common(sp)
    sp.set_defaults(fn=cmd_identities)

    sp = sub.add_parser("orbit", help="iterate an operator and cross-check")
    sp.add_argument("--operator", required=True)
    sp.add_argument("--init", required=True, help="JSON file with the initial vectors")
    sp.add_argument("--steps", type=int, default=40)
    sp.add_argument("--trace", help="write a JSON-lines state trace here")
    sp.add_argument("--rational", action="store_true",
                    help="exact rational iteration (mc_CN only)")
    common(sp)
    sp.set_defaults(fn=cmd_orbit)

    sp = sub.add_parser("build", help="run a construction and certify it")
    sp.add_argument("--target", required=True)
    sp.add_argument("--init", help="input vector file (target-dependent)")
    sp.add_argument("--blocks", type=int, help="blocks for universal_l1/q_blocks")
    common(sp)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("conjugate", help="host-basis commutation and push-forward")
    sp.add_argument("--basis", default="identity",
                    choices=["identity", "diagonal", "banded"])
    sp.add_argument("--size", type=int, default=200)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--band-u", type=float, default=0.3)
    common(sp)
    sp.set_defaults(fn=cmd_conjugate)

    sp = sub.add_parser("julia", help="bisect a ray toward the zero-basin boundary")
    sp.add_argument("--init", required=True, help="direction vector file")
    sp.add_argument("--bracket", type=float, nargs=2, required=True,
                    metavar=("LO", "HI"))
    common(sp)
    sp.set_defaults(fn=cmd_julia)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rep = args.fn(args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BadBracketError as exc:
        print(f"bad-bracket: {exc}", file=sys.stderr)
        return 1
    except HyperorbitError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    rep.write(args.out)
    return 0 if rep.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
