"""Machine-readable run reports: named checks with measured values and bounds."""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of a str

import numpy as np


def _num(x):
    if x is None:
        return None
    if math.isnan(x):
        return "nan"  # strict JSON has no NaN, as it has no infinity
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return x


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


@dataclass(slots=True)
class CheckFamily:
    """The checks ``measured[k] <= bound[k]`` of indices ``first + k``, held as
    columns and written as one report entry.  A NaN fails its row."""

    name: str
    verifies: str
    first: int
    measured: np.ndarray
    bound: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.measured <= self.bound

    @property
    def ok(self) -> bool:
        return bool(self.passed.all())

    def __len__(self) -> int:
        return len(self.measured)

    def to_json(self) -> dict:
        """The entry: name, status, ``verifies``, ``first``, the two columns,
        every failing index, and the largest margin with its index (a NaN
        margin counts as the largest).  The margins are not written: they are
        ``measured - bound``."""
        passed = self.passed
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN margin, as in Check
            margin = self.measured - self.bound
        worst = int(np.argmax(margin))
        return {
            "name": self.name,
            "status": "pass" if passed.all() else "fail",
            "verifies": self.verifies,
            "first": self.first,
            "measured": _nums(self.measured),
            "bound": _nums(self.bound),
            "failing": (self.first + np.flatnonzero(~passed)).tolist(),
            "worst_index": self.first + worst,
            "worst_margin": _num(float(margin[worst])),
        }


def _nums(values: np.ndarray) -> list:
    """``_num(v)`` for each v of a float column."""
    out = values.tolist()
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        out[k] = _num(out[k])
    return out


@dataclass
class RunReport:
    """A command run: parameters, checks, and wall time; fails if any check fails.

    ``checks`` holds :class:`Check` rows and :class:`CheckFamily` entries in
    report order."""

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

    def _fields(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "checks": self.checks,
            "wall_time": self.wall_time,
        }

    def to_json(self) -> dict:
        out = self._fields()
        out["checks"] = [c.to_json() for c in self.checks]
        return out

    def write(self, path=None) -> None:
        """Write the report as JSON to ``path`` (stdout when ``None``).

        Top-level fields are indented as ``json.dumps(indent=2)`` lays them
        out, and each entry of ``checks`` is one line.  ``json.loads`` of the
        text equals :meth:`to_json`, key order included.
        """
        parts = []
        for key, value in self._fields().items():
            parts.append((",\n  " if parts else "{\n  ") + json.dumps(key) + ": ")
            if key == "checks":
                lines = ",\n    ".join(_entry_lines(value))
                parts.append(f"[\n    {lines}\n  ]" if value else "[]")
            else:
                parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        parts.append("\n}\n")
        if path is None:
            sys.stdout.writelines(parts)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(parts)


def _line(name, status, measured, bound, margin, verifies) -> str:
    """One check's report line from its six fields, each already JSON text:
    the text ``json.dumps`` writes for the check's :meth:`Check.to_json` dict."""
    return (f'{{"name": {name}, "status": {status}, "measured": {measured}, '
            f'"bound": {bound}, "margin": {margin}, "verifies": {verifies}}}')


def _value_text(x) -> str:
    """``json.dumps(x)`` for a value of :meth:`Check.to_json`."""
    return float.__repr__(x) if isinstance(x, float) else json.dumps(x)


def _entry_lines(checks):
    """``json.dumps(c.to_json())`` for each entry; a row's line is built from
    its fields."""
    for c in checks:
        if isinstance(c, CheckFamily):
            yield json.dumps(c.to_json())
        else:
            name, status, measured, bound, margin, verifies = c.to_json().values()
            yield _line(_json_str(name), _json_str(status), _value_text(measured),
                        _value_text(bound), _value_text(margin), _json_str(verifies))
