"""Seeded inputs, task rounds and output checks for the three workloads.

A workload is a *round*: a fixed list of tasks that the timed loop repeats.
Each task is one in-process call of a public entry point of ``hyperorbit``
(``cli.main`` where a subcommand exists, ``dynamics.gk_tree`` for the tree,
``dynamics.ledger`` plus the direct ledger products for the ledger task) and a
check of its output.  Inputs are generated from the seed and written as files
in the CLI's JSON vector format: ``[re, im]`` pairs, ``{"log", "phase"}``
objects and ``{"num", "den"}`` fractions.  The program sees only those files
and the arguments.

Workload design (why each was chosen is also recorded in ``BENCHMARK.json``):

* ``orbit`` -- ``hyperorbit orbit`` on random init pairs, the five closed-form
  families of acceptance criterion 03.  A round is the full factorial
  family x window x steps (5 x 5 x 4 = 100 tasks), interleaved so that every
  family recurs every five tasks.  Check: exit 0 and the report's
  ``closed-form-agreement`` <= 1e-9.
* ``tree`` -- ``dynamics.gk_tree`` alternating generic random 12-coordinate
  pairs at depth 3 (``n_transpose`` and ``m_l1``) with constant-coordinate
  inits ``x = y = [c] * 12`` at depth 5 (``n_transpose``), where dedup
  dominates; a round is 3 generic and 2 constant trees.  Generic depth 4 is
  avoided: it takes about 25 s.  Check: no abort, containment all true,
  level sizes <= candidate counts.
* ``certify`` -- one of each certifying subcommand (``identities``, every
  ``build`` target, ``conjugate`` on three bases, ``julia``, exact
  ``orbit --rational``) plus a library ledger task; ``build --target
  q_blocks`` runs three times and ``build --target delta_d`` twice, so the
  median task falls inside a kind whose input the seed does not change.
  Cheap and expensive tasks alternate.  Check: exit 0 with every report check passing, or for
  the ledger the 1e-10 relative bound between recursion and direct product.

The round is the same for every seed: the seed changes coordinates, constants
and sample seeds, never the mix, so seeds can be compared.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("orbit", "tree", "certify")

ORBIT_FAMILIES = (
    ("m_l1", "l1", None),
    ("n_transpose", "c0", None),
    ("m_fg_prime", "hc", 1),
    ("n_delta_d", "hc", 1),
    ("b_translate", "hc", 1),
)
ORBIT_WINDOWS = (140, 170, 200, 240, 280)
ORBIT_STEPS = (10, 20, 30, 40)
CLOSED_FORM_TOL = 1e-9

TREE_COORDS = 12
TREE_GENERIC_DEPTH = 3
TREE_CONST_DEPTH = 5

LEDGER_REL_TOL = 1e-10  # the bound tests/test_dynamics.py uses


@dataclass
class Task:
    """One unit of closed-loop work: ``call`` runs the program once and
    ``check`` says whether its output is correct."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


# ---------------------------------------------------------------------------
# JSON vector format
# ---------------------------------------------------------------------------


def _rand_complex(rng, n, lo=0.5, hi=2.0):
    return rng.uniform(lo, hi, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


def pair_coords(z) -> list:
    return [[float(c.real), float(c.imag)] for c in z]


def logpolar_coords(z) -> list:
    return [{"log": float(np.log(abs(c))), "phase": float(np.angle(c))} for c in z]


def fraction_coords(nums, dens) -> list:
    return [{"num": str(int(a)), "den": str(int(b))} for a, b in zip(nums, dens)]


def vector_obj(space: str, param, coords) -> dict:
    obj = {"space": space, "coords": coords}
    if param is not None:
        obj["param"] = param
    return obj


def _write(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report_all_pass(out) -> bool:
    """CLI task output ``(exit code, report path)``: exit 0 and every check passes."""
    rc, path = out
    if rc != 0:
        return False
    rep = _load_report(path)
    checks = rep.get("checks", [])
    return (rep.get("status") == "pass" and bool(checks)
            and all(c.get("status") == "pass" for c in checks))


def orbit_agrees(out) -> bool:
    """Orbit output: exit 0 and ``closed-form-agreement`` measured <= 1e-9."""
    rc, path = out
    if rc != 0:
        return False
    rep = _load_report(path)
    agree = [c for c in rep.get("checks", []) if c.get("name") == "closed-form-agreement"]
    if len(agree) != 1:
        return False
    measured = agree[0].get("measured")
    return isinstance(measured, (int, float)) and measured <= CLOSED_FORM_TOL


def tree_ok(tree) -> bool:
    """Tree output: no abort, containment all true, level sizes <= candidates."""
    return (tree.aborted_at_level is None
            and bool(tree.containment) and all(tree.containment)
            and len(tree.level_sizes) == len(tree.candidate_counts)
            and all(s <= c for s, c in zip(tree.level_sizes, tree.candidate_counts)))


def ledger_ok(worst_rel: float) -> bool:
    return worst_rel <= LEDGER_REL_TOL


# ---------------------------------------------------------------------------
# task constructors
# ---------------------------------------------------------------------------


def cli_task(kind: str, argv: list, report_path: str, check=report_all_pass) -> Task:
    """A ``hyperorbit`` subcommand run in process; its report goes to ``report_path``."""
    from hyperorbit import cli

    full = list(argv) + ["--out", report_path]
    # cli.main is looked up on every call so the span recorder's wrapper is used
    return Task(kind, lambda: (cli.main(full), report_path), check)


def tree_task(kind: str, operator: str, x_path: str, y_path: str, depth: int) -> Task:
    from hyperorbit import dynamics
    from hyperorbit.spaces import read_vector

    spec = dynamics.make_operator(operator)
    x, y = read_vector(x_path), read_vector(y_path)
    return Task(kind, lambda: dynamics.gk_tree(spec, x, y, depth), tree_ok)


def ledger_task(kind: str, pair_path: str, n_max: int) -> Task:
    """Recursive ledger to ``n_max``, then both direct products for every n."""
    from hyperorbit import dynamics
    from hyperorbit.arith import FibCache
    from hyperorbit.spaces import vector_from_json

    with open(pair_path, encoding="utf-8") as fh:
        x, y = (vector_from_json(v) for v in json.load(fh)["vectors"])
    spec = dynamics.m_l1()

    def call():
        led = dynamics.ledger(spec, (x, y), n_max)
        cache = FibCache(n_max + 3)
        worst = 0.0
        for n in range(1, n_max + 1):
            for rec, direct in ((led.c(n), led.direct_c(n, cache)),
                                (led.d(n), led.direct_d(n, cache))):
                scale = max(1.0, abs(direct.log_mag))
                worst = max(worst, abs(rec.log_mag - direct.log_mag) / scale)
        return worst

    return Task(kind, call, ledger_ok)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def orbit_round(seed: int, workdir) -> list[Task]:
    rng = _rng("orbit", seed)
    out = []
    report = os.path.join(workdir, "orbit_report.json")
    # k walks all window x steps pairs (5 and 4 are coprime); the family
    # changes fastest so every prefix of the round has the same family mix
    for k in range(len(ORBIT_WINDOWS) * len(ORBIT_STEPS)):
        window = ORBIT_WINDOWS[k % len(ORBIT_WINDOWS)]
        steps = ORBIT_STEPS[k % len(ORBIT_STEPS)]
        for name, space, param in ORBIT_FAMILIES:
            x = vector_obj(space, param, pair_coords(_rand_complex(rng, window)))
            y = vector_obj(space, param, logpolar_coords(_rand_complex(rng, window)))
            path = _write(os.path.join(workdir, f"orbit_{k:02d}_{name}.json"),
                          {"vectors": [x, y]})
            out.append(cli_task(
                f"orbit/{name}/w{window}",
                ["orbit", "--operator", name, "--init", path, "--steps", str(steps)],
                report, orbit_agrees))
    return out


def tree_round(seed: int, workdir) -> list[Task]:
    rng = _rng("tree", seed)
    out = []
    # 3 generic : 2 constant, so the median sits inside one mode, not between
    plan = [("generic", "n_transpose", "c0"), ("const", "n_transpose", "c0"),
            ("generic", "m_l1", "l1"), ("const", "n_transpose", "c0"),
            ("generic", "n_transpose", "c0")]
    for i, (shape, operator, space) in enumerate(plan):
        xp = os.path.join(workdir, f"tree_{i}_x.json")
        yp = os.path.join(workdir, f"tree_{i}_y.json")
        if shape == "generic":
            _write(xp, vector_obj(space, None, pair_coords(_rand_complex(rng, TREE_COORDS))))
            _write(yp, vector_obj(space, None, pair_coords(_rand_complex(rng, TREE_COORDS))))
            depth = TREE_GENERIC_DEPTH
        else:
            c = _rand_complex(rng, 1)[0]
            obj = vector_obj(space, None, logpolar_coords([c] * TREE_COORDS))
            _write(xp, obj)
            _write(yp, obj)
            depth = TREE_CONST_DEPTH
        out.append(tree_task(f"tree/{shape}/{operator}", operator, xp, yp, depth))
    return out


def certify_round(seed: int, workdir) -> list[Task]:
    rng = _rng("certify", seed)
    sub_seed = lambda: str(int(rng.integers(0, 2**31)))

    def out(name):
        d = os.path.join(workdir, name)
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, "report.json")

    companion_y = _write(os.path.join(workdir, "companion_y.json"), vector_obj(
        "l1", None, pair_coords(_rand_complex(rng, 100))))
    x0 = np.concatenate([_rand_complex(rng, 1, 2.0, 4.0), _rand_complex(rng, 3, 0.05, 0.5)])
    symmetric_x0 = _write(os.path.join(workdir, "symmetric_x0.json"),
                          vector_obj("l1", None, pair_coords(x0)))
    factorials = np.array([math.factorial(i) ** 2 for i in range(1, 60)], dtype=float)
    direction = np.concatenate([[rng.uniform(0.8, 1.25)],
                                rng.uniform(0.5, 2.0, 59) / factorials]).astype(complex)
    julia_direction = _write(os.path.join(workdir, "julia_direction.json"),
                             vector_obj("l1", None, pair_coords(direction)))
    signs = rng.choice([-1, 1], 13)
    nums, dens = signs * rng.integers(1, 10, 13), rng.integers(1, 10, 13)
    rational_init = _write(os.path.join(workdir, "rational_init.json"), {"vectors": [
        vector_obj("cn", 4, fraction_coords(nums[:1], dens[:1])),
        vector_obj("cn", 4, fraction_coords(nums[1:], dens[1:]))]})
    ledger_pair = _write(os.path.join(workdir, "ledger_pair.json"), {"vectors": [
        vector_obj("l1", None, pair_coords(_rand_complex(rng, 60))),
        vector_obj("l1", None, logpolar_coords(_rand_complex(rng, 60)))]})
    ledger_n = int(rng.integers(25, 41))

    def q_blocks(j):
        return cli_task("build/q_blocks", ["build", "--target", "q_blocks", "--blocks", "3"],
                        out(f"q_blocks_{j}"))

    def delta_d(j):
        return cli_task("build/delta_d", ["build", "--target", "delta_d"], out(f"delta_d_{j}"))

    # 15 tasks: six kinds are faster than build/q_blocks and six slower, so
    # the median task latency is that of the middle of its three runs.  Its
    # input does not depend on the seed, so neither does the kind the median
    # falls in; the seed-dependent julia and ledger costs stay on either side.
    return [
        cli_task("identities", ["identities", "--max-n", "200"], out("identities")),
        cli_task("build/companion", ["build", "--target", "companion",
                                     "--init", companion_y], out("companion")),
        q_blocks(0),
        cli_task("build/universal_l1", ["build", "--target", "universal_l1",
                                        "--blocks", "4"], out("universal")),
        delta_d(0),
        cli_task("julia", ["julia", "--init", julia_direction, "--bracket", "1.0", "20.0",
                           "--tol", "1e-9"], out("julia")),
        cli_task("conjugate/identity", ["conjugate", "--basis", "identity", "--size", "200",
                                        "--seed", sub_seed()], out("conj_identity")),
        q_blocks(1),
        cli_task("conjugate/diagonal", ["conjugate", "--basis", "diagonal", "--size", "200",
                                        "--seed", sub_seed()], out("conj_diagonal")),
        cli_task("build/symmetric_preimage", ["build", "--target", "symmetric_preimage",
                                              "--init", symmetric_x0, "--seed", sub_seed()],
                 out("symmetric")),
        cli_task("conjugate/banded", ["conjugate", "--basis", "banded", "--size", "200",
                                      "--seed", sub_seed()], out("conj_banded")),
        cli_task("orbit/rational", ["orbit", "--operator", "mc_CN", "--init", rational_init,
                                    "--rational", "--steps", "10"], out("rational")),
        q_blocks(2),
        delta_d(1),
        ledger_task("ledger", ledger_pair, ledger_n),
    ]


ROUNDS = {"orbit": orbit_round, "tree": tree_round, "certify": certify_round}


def build_round(workload: str, seed: int, workdir) -> list[Task]:
    """Generate the workload's inputs under ``workdir`` and return its round."""
    os.makedirs(workdir, exist_ok=True)
    return ROUNDS[workload](seed, workdir)


def warmup_tasks(round_: list[Task]) -> list[Task]:
    """The first task of each kind: fills per-size caches before timing starts."""
    seen, out = set(), []
    for t in round_:
        if t.kind not in seen:
            seen.add(t.kind)
            out.append(t)
    return out
