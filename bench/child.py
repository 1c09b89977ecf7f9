"""One workload process: set up, then run the closed loop and write the result.

Started by ``run.py``; not meant to be run by hand.  Set-up is everything
from process start to the first timed task: ``import hyperorbit``, seeded
input generation and a warm-up pass over one task of each kind.  In
``setup`` mode the process stops there.  In ``measure`` mode it then repeats
the workload's round in a closed loop (one client, next task when the last
returns) until ``--seconds`` have passed at a round boundary.  With
``--trace 1`` untraced rounds alternate with rounds under the span recorder
for ``--seconds`` each, so both rates come from the same warmed process and
the same stretch of machine time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MAX_ERRORS = 5


def run_task(task, recorder=None):
    """Run one task; returns (verified, latency seconds, error or None)."""
    err = None
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = task.call()
        else:
            with recorder.task(task.kind):
                out = task.call()
    except (Exception, SystemExit) as exc:  # a task that raises counts as failed
        return False, time.perf_counter() - t0, f"{task.kind}: {exc!r}"
    latency = time.perf_counter() - t0
    try:
        ok = bool(task.check(out))
    except Exception as exc:  # an unreadable output fails its check
        ok, err = False, f"{task.kind}: check raised {exc!r}"
    if not ok and err is None:
        err = f"{task.kind}: check failed"
    return ok, latency, err


def _new_loop() -> dict:
    return {"rounds": 0, "round_s": [], "round_verified": [], "attempted": 0, "failed": 0,
            "latencies_s": [], "kinds": [], "errors": []}


def _run_round(round_, loop: dict, recorder=None) -> None:
    start, verified = time.perf_counter(), 0
    for task in round_:
        ok, latency, err = run_task(task, recorder)
        loop["latencies_s"].append(latency)
        loop["kinds"].append(task.kind)
        verified += ok
        if not ok:
            loop["failed"] += 1
            if len(loop["errors"]) < MAX_ERRORS:
                loop["errors"].append(err)
    loop["round_s"].append(time.perf_counter() - start)
    loop["round_verified"].append(verified)
    loop["rounds"] += 1
    loop["attempted"] += len(round_)


def closed_loop(round_, seconds: float) -> dict:
    """Repeat ``round_`` until ``seconds`` have passed at a round boundary."""
    loop = _new_loop()
    t0 = time.perf_counter()
    while True:
        _run_round(round_, loop)
        if time.perf_counter() - t0 >= seconds:
            return loop


def alternating_loop(round_, seconds: float, recorder) -> tuple[dict, dict]:
    """Untraced and traced rounds alternate for ``seconds`` each, so a change
    in machine speed during the run hits both and the overhead stays visible."""
    plain, traced = _new_loop(), _new_loop()
    t0 = time.perf_counter()
    while True:
        _run_round(round_, plain)
        with recorder:
            _run_round(round_, traced, recorder)
        if time.perf_counter() - t0 >= 2 * seconds:
            return plain, traced


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--result", required=True, help="write the result JSON here")
    p.add_argument("--spans", help="traced runs write every span here")
    args = p.parse_args(argv)

    if not (SRC / "hyperorbit" / "__init__.py").is_file():
        print(f"hyperorbit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import hyperorbit
    if Path(hyperorbit.__file__).resolve().parent != SRC / "hyperorbit":
        print(f"imported hyperorbit from {hyperorbit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tasks

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        round_ = tasks.build_round(args.workload, args.seed, workdir)
        warm = [run_task(t) for t in tasks.warmup_tasks(round_)]
        result = {"first_task_clock": time.perf_counter(),
                  "warmup_failed": sum(not ok for ok, _, _ in warm),
                  "warmup_errors": [e for ok, _, e in warm if not ok][:MAX_ERRORS]}
        if args.mode == "measure" and not args.trace:
            result["untraced"] = closed_loop(round_, args.seconds)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif args.mode == "measure":
            from spans import SpanRecorder
            rec = SpanRecorder()
            result["untraced"], traced = alternating_loop(round_, args.seconds, rec)
            traced["per_layer"] = rec.metrics(traced["rounds"])
            traced["missing_targets"] = rec.missing
            traced["gk_tree_level_sizes"] = rec.tree_levels[
                :len(rec.tree_levels) // traced["rounds"]]
            result["traced"] = traced
            if args.spans:
                rec.write(args.spans, {"workload": args.workload, "seed": args.seed,
                                       "rounds": traced["rounds"]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
