"""Machine-readable run reports: named checks with measured values and bounds."""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Check:
    """One verified inequality or equality, with its measured value and bound.

    ``verifies`` is a stable identifier of the property being checked, so
    reports can be compared across runs and versions.  ``index`` locates one
    instance of a per-index family (a block, a coordinate, a step); the report
    names it ``name[index]``.
    """

    name: str
    status: str              # "pass" | "fail" | "skip"
    measured: float | None = None
    bound: float | None = None
    verifies: str = ""
    index: int | None = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    @property
    def margin(self) -> float | None:
        if self.measured is None or self.bound is None:
            return None
        return self.measured - self.bound

    def to_json(self) -> dict:
        def _num(x):
            if x is None:
                return None
            if math.isnan(x):
                return "nan"  # strict JSON has no NaN, as it has no infinity
            if math.isinf(x):
                return "-inf" if x < 0 else "inf"
            return x
        return {
            "name": self.name if self.index is None else f"{self.name}[{self.index}]",
            "status": self.status,
            "measured": _num(self.measured),
            "bound": _num(self.bound),
            "margin": _num(self.margin),
            "verifies": self.verifies,
        }


def check_leq(name: str, measured: float, bound: float, verifies: str = "",
              index: int | None = None) -> Check:
    measured, bound = float(measured), float(bound)
    return Check(name, "pass" if measured <= bound else "fail", measured, bound,
                 verifies, index)


def check_flag(name: str, ok: bool, verifies: str = "",
               index: int | None = None) -> Check:
    return Check(name, "pass" if ok else "fail", 0.0 if ok else 1.0, 0.0, verifies,
                 index)


@dataclass
class RunReport:
    """A command run: parameters, checks, and wall time; fails if any check fails."""

    command: str
    parameters: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time: float = 0.0
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def finish(self) -> "RunReport":
        self.wall_time = time.perf_counter() - self._t0
        return self

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "checks": [c.to_json() for c in self.checks],
            "wall_time": self.wall_time,
        }

    def write(self, path=None) -> None:
        """Write the report as JSON to ``path`` (stdout when ``None``).

        Top-level fields are indented as ``json.dumps(indent=2)`` lays them
        out, and each check is one line.  ``json.loads`` of the text equals
        :meth:`to_json`, key order included.
        """
        parts = []
        for key, value in self.to_json().items():
            parts.append((",\n  " if parts else "{\n  ") + json.dumps(key) + ": ")
            if key == "checks" and value:
                parts.extend(_check_lines(value))
            else:
                parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        parts.append("\n}\n")
        if path is None:
            sys.stdout.writelines(parts)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(parts)


_CHECKS_PER_CALL = 1024  # bounds the encoded text held at once


def _check_lines(checks):
    """The JSON list of ``checks`` (dicts), one per line, in text pieces.

    Each piece is one call of the C encoder: with ``indent`` set, ``json``
    falls back to its pure-Python encoder, which dominates the write of a
    large report.  Checks are flat objects and a quote inside a string is
    escaped, so '}, {"' occurs only between two checks.
    """
    yield "[\n    "
    for k in range(0, len(checks), _CHECKS_PER_CALL):
        if k:
            yield ",\n    "
        # the encoder's output is not bound to a name, so it is freed before
        # the next piece is encoded; keeping it alive one piece longer
        # fragmented the heap and raised the process's peak RSS
        yield (json.dumps(checks[k:k + _CHECKS_PER_CALL])[1:-1]
               .replace('}, {"', '},\n    {"'))
    yield "\n  ]"
