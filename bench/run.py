"""hyperorbit benchmark: one closed-loop client, three workloads, checked outputs.

Usage (from the repository root)::

    python3 bench/run.py --workload orbit|tree|certify --seed N --seconds S --trace 0|1

Each workload runs in its own process (``bench/child.py``), so set-up time
and peak memory belong to it.  The process makes its inputs from ``--seed``,
warms up, then repeats the workload's round of tasks for ``--seconds``; every
task's output is checked (``bench/tasks.py``).

``--trace 0`` reports the end-to-end metrics: ``tasks_per_s`` (verified
tasks per second, median over rounds), ``task_ms_p50``, ``task_ms_tail`` (the
highest percentile with at least ten samples beyond it; the percentile and
the sample count are printed too), ``verified_frac`` (verified / attempted;
``failed_frac`` is printed beside it), ``setup_s`` and ``peak_rss_mb``.
Set-up is measured ``SETUP_RUNS`` times (set-up-only processes before and
after the measuring one, so the samples span the run and a slow spell of the
machine at its start does not set the figure) and its median is reported.
``--trace 1`` reports the per-layer metrics of ``bench/spans.py``, per round
of the workload, from traced rounds that alternate with untraced ones in the
same process; the ratio of their rates is the tracing overhead.

Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A run record with
versions, machine, seed and details goes to ``bench/results/``, and traced
runs also write their spans there.  Exit code 0 on a completed run (even one
with failed tasks, which ``correct`` and ``failed`` report); non-zero, with no
JSON line, when the benchmark cannot run, e.g. without the library sources.

The benchmark's own tests: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("orbit", "tree", "certify")
SETUP_RUNS = 3
BUDGET_S = 170.0  # the whole command, all workload processes included

E2E_UNITS = {
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "verified_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail_rank(n: int) -> tuple[int, float]:
    """Index into ascending samples, and its percentile, of the highest
    percentile that still has at least ten samples beyond it."""
    if n <= 10:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def latency_stats(latencies_s) -> dict:
    s = sorted(latencies_s)
    idx, pct = tail_rank(len(s))
    return {"samples": len(s), "p50_ms": 1000.0 * statistics.median(s),
            "tail_ms": 1000.0 * s[idx], "tail_percentile": pct}


def per_kind_medians(loop: dict) -> dict:
    by_kind: dict[str, list] = {}
    for kind, lat in zip(loop["kinds"], loop["latencies_s"]):
        by_kind.setdefault(kind, []).append(lat)
    return {k: {"n": len(v), "median_ms": 1000.0 * statistics.median(v)}
            for k, v in by_kind.items()}


def loop_rate(loop: dict) -> float:
    """Verified tasks per second: the median over rounds, so a burst of load
    from outside the benchmark that spans a few rounds does not move it."""
    return statistics.median(v / s for v, s in zip(loop["round_verified"], loop["round_s"]))


def run_child(args, mode: str, tag: str, deadline: float) -> tuple[dict, float]:
    """Run one workload process; returns its result and its launch clock."""
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f".child-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--result", str(result_path)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")]
    launched = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - launched))
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), launched
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process ran past the {BUDGET_S:.0f} s budget") from exc
    finally:
        result_path.unlink(missing_ok=True)


def run_record(args) -> dict:
    """What a result needs to be compared with another: versions and machine."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": version("numpy"),
        "mpmath": version("mpmath"), "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "git_commit": git_commit(ROOT),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git (so no
    parent directory is searched); None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args) -> tuple[dict, dict, dict]:
    """Returns (metric values, their units, details for the run record)."""
    deadline = time.perf_counter() + BUDGET_S
    if args.trace:
        res, _ = run_child(args, "measure", "trace", deadline)
        untraced, traced = res["untraced"], res["traced"]
        from spans import per_layer_metric_units
        units = per_layer_metric_units()
        values = {k: traced["per_layer"][k] for k in units}
        details = {
            "untraced_tasks_per_s": loop_rate(untraced),
            "traced_tasks_per_s": loop_rate(traced),
            "trace_overhead_frac": loop_rate(untraced) / loop_rate(traced) - 1.0,
            "rounds": traced["rounds"],
            "missing_targets": traced["missing_targets"],
            "gk_tree_level_sizes": traced["gk_tree_level_sizes"],
        }
        loops = (untraced, traced)
    else:
        setups, res = [], None
        for i in range(SETUP_RUNS):
            mode = "measure" if i == SETUP_RUNS // 2 else "setup"
            out, launched = run_child(args, mode, str(i), deadline)
            setups.append(out["first_task_clock"] - launched)
            if mode == "measure":
                res = out
        loop = res["untraced"]
        lat = latency_stats(loop["latencies_s"])
        values = {
            "tasks_per_s": loop_rate(loop),
            "task_ms_p50": lat["p50_ms"],
            "task_ms_tail": lat["tail_ms"],
            "verified_frac": 1.0 - loop["failed"] / loop["attempted"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = E2E_UNITS
        details = {
            "samples": lat["samples"], "tail_percentile": lat["tail_percentile"],
            "failed_frac": loop["failed"] / loop["attempted"],
            "rounds": loop["rounds"], "loop_s": sum(loop["round_s"]),
            "mean_tasks_per_s": (loop["attempted"] - loop["failed"]) / sum(loop["round_s"]),
            "setup_samples_s": setups, "per_kind": per_kind_medians(loop),
        }
        loops = (loop,)
    details["attempted"] = sum(l["attempted"] for l in loops)
    details["failed"] = sum(l["failed"] for l in loops)
    details["warmup_failed"] = res["warmup_failed"]
    details["errors"] = (res["warmup_errors"] + [e for l in loops for e in l["errors"]])[:10]
    return values, units, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hyperorbit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "hyperorbit" / "__init__.py").is_file():
        print(f"benchmark: no hyperorbit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))

    try:
        values, units, details = measure(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.trace:
        print(f"trace_overhead_frac {details['trace_overhead_frac']:.4g} fraction")
    else:
        print(f"task_ms_p50.samples {details['samples']} count")
        print(f"task_ms_tail.percentile {details['tail_percentile']:.2f} %")
        print(f"failed_frac {details['failed_frac']:.6g} fraction")

    record = {"record": run_record(args), "metrics": {
        k: {"value": v, "unit": units[k]} for k, v in values.items()}, "details": details}
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"run record: {record_path.relative_to(ROOT)}")

    correct = details["failed"] == 0 and details["warmup_failed"] == 0
    print(json.dumps({"correct": correct, "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
