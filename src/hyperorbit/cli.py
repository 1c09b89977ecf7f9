"""Command-line front end: run verifications, build constructions, emit reports.

Subcommands: ``identities``, ``orbit``, ``build``, ``conjugate``, ``julia``.
Each one reads its inputs, calls the library module that decides its rows
(``arith``, ``dynamics`` and ``rational``, ``constructions``,
``conjugation``), writes what it built and reports; the only row made here is
the ``build-input`` row of a rejected build.
Every run produces a single JSON report (to ``--out`` or stdout).  Exit codes:
0 all checks pass, 1 at least one check failed, 2 input error.  The only
randomness (sample vectors) is seeded; reports are deterministic for fixed
inputs and seeds up to wall-time fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .arith import FibCache, identity_checks
from .constructions import (
    companion_pair,
    delta_d_pair,
    gap_schedule_search,
    hc_Q_blocks,
    julia_bracket,
    stacked_primitive_g,
    symmetric_preimage_certificates,
    universal_y_l1,
)
from .conjugation import conjugation_checks, host_basis
from .dynamics import (
    OPERATORS,
    checked_tol,
    classify_orbit,
    closed_form_checks,
    closed_form_state,
    iterate_bc,
    make_operator,
)
from .errors import BadBracketError, HyperorbitError, ParameterRangeError, WrongSpaceError
from .rational import exact_orbit_checks, q_vector_from_json, q_vector_to_json
from .report import RunReport, _num, check_flag
from .spaces import (
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
                  IndexError, OverflowError, ParameterRangeError)


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
                rec = {"n": n, "log_norm": _num(norm(state))}
                if len(state) <= TRACE_COORD_LIMIT:  # then the record reads as a vector
                    rec.update(vector_to_json(state))
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
    rows, counts = identity_checks(args.max_n, args.a_max, cache)
    rep.parameters.update(counts)
    rep.extend(rows)
    return rep.finish()


def cmd_orbit(args) -> RunReport:
    vectors = _load_init(args.init)
    rep = RunReport("orbit", {"operator": args.operator, "init": args.init,
                              "steps": args.steps, "rational": bool(args.rational),
                              "tol": args.tol})
    if args.operator not in OPERATORS:
        raise InputError(f"unknown operator {args.operator!r}; "
                         f"registered: {sorted(OPERATORS)}")
    try:
        spec = make_operator(args.operator, arity=len(vectors))
    except ParameterRangeError as exc:
        raise InputError(f"{len(vectors)} init vectors for {args.operator}: {exc}") from exc
    if len(vectors) != spec.arity:
        raise InputError(f"{spec.name} takes {spec.arity} init vectors, "
                         f"got {len(vectors)}")
    if args.rational and spec.name != "mc_CN":
        raise InputError("rational iteration is exact only for mc_CN")
    checked_tol(args.tol)  # both modes record it, so both reject what it cannot be
    try:
        init = tuple(vector_from_json(v) for v in vectors)
        exact = tuple(q_vector_from_json(v) for v in vectors) if args.rational else None
    except _VECTOR_ERRORS as exc:
        raise InputError(f"bad vector in init file: {exc}") from exc
    orbit = iterate_bc(spec, init, args.steps)
    if args.rational:
        states, rows = exact_orbit_checks(exact, orbit.states, args.steps)
        rep.parameters["arity"] = len(exact)
        rep.extend(rows)
        if args.trace:
            _write_trace(args.trace, states, rational=True)
        return rep.finish()

    rep.parameters["states"] = len(orbit.states)
    if orbit.exhausted_at is not None:
        rep.parameters["window_exhausted_at"] = orbit.exhausted_at
    # the closed form is read from this module, where a negative control can
    # replace it
    rep.extend(closed_form_checks(orbit, closed_form_state))
    rep.parameters["classification"] = classify_orbit(orbit, tol=args.tol).value
    if args.trace:
        _write_trace(args.trace, orbit.states)
    return rep.finish()


def _build_companion(args, rep: RunReport) -> None:
    if not args.init:
        raise InputError("companion build needs --init with the base vector")
    x, certs = companion_pair(_read_vector_input(args.init))
    write_vector(_emit_path(args.out, "companion_x.json"), x)
    rep.extend(certs)


def _build_universal(args, rep: RunReport) -> None:
    schedule = gap_schedule_search(3 if args.blocks is None else args.blocks)
    rep.parameters["schedule"] = schedule.ns[1:]
    certs = universal_y_l1(schedule)
    write_vector(_emit_path(args.out, "universal_y.json"), schedule.z)
    rep.extend(certs)


def _build_delta_d(args, rep: RunReport) -> None:
    if args.init:
        g = _read_vector_input(args.init)
    else:
        g = stacked_primitive_g(8)
    f, certs = delta_d_pair(g)
    write_vector(_emit_path(args.out, "delta_d_f.json"), f)
    rep.extend(certs)


def _build_q_blocks(args, rep: RunReport) -> None:
    qb = hc_Q_blocks(3 if args.blocks is None else args.blocks)
    rep.parameters["block_tops"] = qb.ns
    write_vector(_emit_path(args.out, "q_universal.json"), qb.Q)
    rep.extend(qb.certificates)


def _build_symmetric(args, rep: RunReport) -> None:
    if not args.init:
        raise InputError("symmetric_preimage needs --init with the target vector")
    x, y, certs = symmetric_preimage_certificates(_read_vector_input(args.init),
                                                  np.random.default_rng(args.seed))
    write_vector(_emit_path(args.out, "preimage_x.json"), x)
    write_vector(_emit_path(args.out, "preimage_y.json"), y)
    rep.extend(certs)


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
        rep.add(check_flag(type(exc).__name__, False, "build-input"))
    return rep.finish()


def cmd_conjugate(args) -> RunReport:
    rep = RunReport("conjugate", {"basis": args.basis, "size": args.size,
                                  "samples": args.samples, "band_u": args.band_u,
                                  "seed": args.seed})
    basis = host_basis(args.basis, args.size, u=args.band_u)
    rep.extend(conjugation_checks(basis, args.samples, np.random.default_rng(args.seed)))
    return rep.finish()


def cmd_julia(args) -> RunReport:
    rep = RunReport("julia", {"init": args.init, "bracket": args.bracket,
                              "tol": args.tol})
    v = _read_vector_input(args.init)
    probe, rows = julia_bracket(v, *args.bracket, args.tol)
    rep.parameters["bracket_final"] = [probe.t_lo, probe.t_hi]
    rep.parameters["classifications"] = [probe.class_lo.value, probe.class_hi.value]
    rep.parameters["bisection_steps"] = probe.bisection_steps
    rep.extend(rows)
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

    sp = sub.add_parser("identities", help="exact integer identity suite")
    sp.add_argument("--max-n", type=int, default=200)
    sp.add_argument("--a-max", type=int, default=10000)
    sp.add_argument("--corrupt-cache", action="store_true",
                    help="negative control: damage the cache; the run must fail")
    sp.set_defaults(fn=cmd_identities)

    sp = sub.add_parser("orbit", help="iterate an operator and cross-check")
    sp.add_argument("--operator", required=True)
    sp.add_argument("--init", required=True, help="JSON file with the initial vectors")
    sp.add_argument("--steps", type=int, default=40)
    sp.add_argument("--trace", help="write a JSON-lines state trace here")
    sp.add_argument("--rational", action="store_true",
                    help="exact rational iteration (mc_CN only)")
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="classification threshold (default 1e-12)")
    sp.set_defaults(fn=cmd_orbit)

    sp = sub.add_parser("build", help="run a construction and certify it")
    sp.add_argument("--target", required=True)
    sp.add_argument("--init", help="input vector file (target-dependent)")
    sp.add_argument("--blocks", type=int, help="blocks for universal_l1/q_blocks")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the symmetric_preimage scales (default 0)")
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("conjugate", help="host-basis commutation and push-forward")
    sp.add_argument("--basis", default="identity",
                    choices=["identity", "diagonal", "banded"])
    sp.add_argument("--size", type=int, default=200)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--band-u", type=float, default=0.3)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the sampled vectors (default 0)")
    sp.set_defaults(fn=cmd_conjugate)

    sp = sub.add_parser("julia", help="bisect a ray toward the zero-basin boundary")
    sp.add_argument("--init", required=True, help="direction vector file")
    sp.add_argument("--bracket", type=float, nargs=2, required=True,
                    metavar=("LO", "HI"))
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="largest bracket width (default 1e-12)")
    sp.set_defaults(fn=cmd_julia)
    for sp in sub.choices.values():
        sp.add_argument("--out", help="write the JSON report here (default stdout)")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rep = args.fn(args)
    except (InputError, OSError, json.JSONDecodeError, ParameterRangeError,
            WrongSpaceError) as exc:
        # unusable parameters or spaces; build has reported its own as checks
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
