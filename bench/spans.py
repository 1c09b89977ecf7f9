"""Span recorder for the traced run: per-layer calls, busy time and self time.

The recorder wraps public functions of ``hyperorbit`` from outside the
library.  Library modules import functions by name, so a function is replaced
in the module that defines it *and* at every ``hyperorbit`` module attribute
that refers to it (``spaces.translate_by`` is also ``dynamics.translate_by``,
and ``spaces.translate`` reaches it through the ``spaces`` globals).  Methods
are replaced on their class.  ``LogComplex`` methods are deliberately not
wrapped: they run millions of times and the wrapper would swamp them.

Each call records a span ``(id, parent, task, function, start, end)``.  Spans
stay in memory and are written out once, at the end of the run.  Self time is
a span's duration minus the durations of its child spans; busy time counts
only the outermost activation of a function, so recursion is not counted
twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# module-relative names; the per-layer metrics are "<target>.calls|busy_s|self_s"
TARGETS = (
    "cli.main",
    "report.RunReport.write",
    "arith.phase_times_int",
    "arith.check_fib_identities",
    "spaces.translate_by",
    "spaces.shift_pow",
    "spaces.backward_shift",
    "spaces.derivative",
    "spaces.derivative_pow",
    "spaces.norm",
    "spaces.vector_from_json",
    "spaces.write_vector",
    "rational.q_iterate",
    "dynamics.apply",
    "dynamics.iterate_bc",
    "dynamics.ledger",
    "dynamics.closed_form_state",
    "dynamics.classify_orbit",
    "dynamics.gk_tree",
    "dynamics.WeightLedger.direct_c",
    "dynamics.WeightLedger.direct_d",
    "constructions.gap_schedule_search",
    "constructions.universal_y_l1",
    "constructions.companion_x",
    "constructions.weight_identity_certificates",
    "constructions.hc_Q_blocks",
    "constructions.delta_d_pair",
    "constructions.symmetric_preimage",
    "constructions.julia_ray_bisection",
    "conjugation.host_basis",
    "conjugation.build_N",
    "conjugation.commutation_check",
    "conjugation.pushforward_orbit_check",
    "conjugation.HostBilinear.apply",
    "conjugation.FactorMap.__call__",
)

# work counters read from public return values
COUNTERS = (
    "dynamics.gk_tree.candidates",
    "dynamics.gk_tree.states",
    "dynamics.gk_tree.kept_ratio",
    "dynamics.iterate_bc.states",
    "dynamics.iterate_bc.exhausted",
)

STAT_UNITS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))


def per_layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{t}.{stat}": unit for t in TARGETS for stat, unit in STAT_UNITS}
    for c in COUNTERS:
        out[c] = "ratio" if c.endswith("kept_ratio") else "count"
    return out


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hyperorbit" or name.startswith("hyperorbit."))]


class SpanRecorder:
    """Wraps the ``TARGETS`` while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.spans: list[tuple] = []
        self.calls = [0] * len(TARGETS)
        self.busy = [0.0] * len(TARGETS)
        self.self_time = [0.0] * len(TARGETS)
        self.counts = dict.fromkeys(("candidates", "states", "orbit_states", "exhausted"), 0)
        self.tree_levels: list[list[int]] = []
        self.missing: list[str] = []
        self._active = [0] * len(TARGETS)
        self._stack: list[list] = []   # [span id, start, child time]
        self._task = -1
        self._next_id = 0
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> "SpanRecorder":
        """Wrap every target; counts and spans accumulate across installs."""
        self.missing = []
        modules = _package_modules()
        for idx, target in enumerate(TARGETS):
            modname, *path = target.split(".")
            module = importlib.import_module("hyperorbit." + modname)
            if len(path) == 1:
                original = getattr(module, path[0], None)
                if original is None:
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(idx, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, original))
                            setattr(m, attr, wrapper)
            else:
                cls = getattr(module, path[0], None)
                original = None if cls is None else vars(cls).get(path[1])
                if original is None:
                    self.missing.append(target)
                    continue
                self._undo.append((cls, path[1], original))
                setattr(cls, path[1], self._wrap(idx, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _begin(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _end(self, frame, fn: int) -> tuple[float, float]:
        """Close a span; returns its duration and its self time."""
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((frame[0], -1 if parent is None else parent[0], self._task,
                           fn, frame[1] - self._t0, end - self._t0))
        return dur, dur - frame[2]

    @contextlib.contextmanager
    def task(self, kind: str):
        """One benchmark task: the root span that its library calls share."""
        if kind not in self.names:
            self.names.append(kind)
        frame = self._begin()
        self._task = frame[0]
        try:
            yield
        finally:
            self._end(frame, self.names.index(kind))
            self._task = -1

    def _wrap(self, idx: int, fn):
        rec = self
        count = {"dynamics.gk_tree": self._count_tree,
                 "dynamics.iterate_bc": self._count_orbit}.get(TARGETS[idx])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._active[idx] += 1
            frame = rec._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur, self_s = rec._end(frame, idx)
                rec._active[idx] -= 1
                rec.calls[idx] += 1
                rec.self_time[idx] += self_s
                if rec._active[idx] == 0:
                    rec.busy[idx] += dur
            if count is not None:
                count(result)
            return result

        return wrapper

    def _count_tree(self, tree) -> None:
        # summed over levels, so states <= candidates holds level by level
        self.counts["candidates"] += sum(tree.candidate_counts)
        self.counts["states"] += sum(tree.level_sizes)
        self.tree_levels.append(list(tree.level_sizes))

    def _count_orbit(self, orbit) -> None:
        self.counts["orbit_states"] += len(orbit.states)
        self.counts["exhausted"] += orbit.exhausted_at is not None

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of the workload (name -> value)."""
        out = {}
        for i, t in enumerate(TARGETS):
            out[f"{t}.calls"] = self.calls[i] / rounds
            out[f"{t}.busy_s"] = self.busy[i] / rounds
            out[f"{t}.self_s"] = self.self_time[i] / rounds
        c = self.counts
        out["dynamics.gk_tree.candidates"] = c["candidates"] / rounds
        out["dynamics.gk_tree.states"] = c["states"] / rounds
        out["dynamics.gk_tree.kept_ratio"] = (c["states"] / c["candidates"]
                                              if c["candidates"] else 0.0)
        out["dynamics.iterate_bc.states"] = c["orbit_states"] / rounds
        out["dynamics.iterate_bc.exhausted"] = c["exhausted"] / rounds
        return out

    def write(self, path, extra: dict | None = None) -> None:
        """Write every span (times in seconds from recorder creation)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**(extra or {}),
                       "span_fields": ["id", "parent", "task", "name", "start_s", "end_s"],
                       "names": self.names,
                       "spans": self.spans}, fh, separators=(",", ":"))
