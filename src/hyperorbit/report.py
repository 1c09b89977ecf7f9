"""Machine-readable run reports: named checks with measured values and bounds."""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
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
    """A per-index family of ``measured <= bound`` checks held as columns.

    Row k is ``check_leq(name, measured[k], bound[k], verifies, index[k])``;
    iterating yields those rows.  A NaN measured value or bound fails its row.
    """

    name: str
    verifies: str
    index: np.ndarray
    measured: np.ndarray
    bound: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.measured <= self.bound

    @property
    def ok(self) -> bool:
        return bool(self.passed.all())

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        for i, m, b, p in zip(self.index.tolist(), self.measured.tolist(),
                              self.bound.tolist(), self.passed.tolist()):
            yield Check(self.name, "pass" if p else "fail", m, b, self.verifies, i)


class CheckList:
    """Checks in report order: single :class:`Check` rows and whole
    :class:`CheckFamily` columns.  Iterating yields ``Check`` rows throughout,
    and ``len`` counts them."""

    __slots__ = ("parts",)

    def __init__(self):
        self.parts = []

    def append(self, check: Check) -> None:
        self.parts.append(check)

    def extend(self, checks) -> None:
        if isinstance(checks, CheckFamily):
            self.parts.append(checks)
        elif isinstance(checks, CheckList):
            self.parts.extend(checks.parts)
        else:
            self.parts.extend(checks)

    def __iter__(self):
        for part in self.parts:
            if isinstance(part, CheckFamily):
                yield from part
            else:
                yield part

    def __len__(self) -> int:
        return sum(len(p) if isinstance(p, CheckFamily) else 1 for p in self.parts)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.parts)


@dataclass
class RunReport:
    """A command run: parameters, checks, and wall time; fails if any check fails."""

    command: str
    parameters: dict = field(default_factory=dict)
    checks: CheckList = field(default_factory=CheckList)
    wall_time: float = 0.0
    _t0: float = field(default_factory=time.perf_counter, repr=False)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def extend(self, checks) -> None:
        """Append rows, a :class:`CheckList` or one :class:`CheckFamily`."""
        self.checks.extend(checks)

    def finish(self) -> "RunReport":
        self.wall_time = time.perf_counter() - self._t0
        return self

    @property
    def ok(self) -> bool:
        return self.checks.ok

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
        out, and each check is one line.  ``json.loads`` of the text equals
        :meth:`to_json`, key order included.
        """
        parts = []
        for key, value in self._fields().items():
            parts.append((",\n  " if parts else "{\n  ") + json.dumps(key) + ": ")
            if key == "checks":
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


def _line(name, status, measured, bound, margin, verifies) -> str:
    """One check's report line from its six fields, each already JSON text:
    the text ``json.dumps`` writes for the check's :meth:`Check.to_json` dict."""
    return (f'{{"name": {name}, "status": {status}, "measured": {measured}, '
            f'"bound": {bound}, "margin": {margin}, "verifies": {verifies}}}')


def _value_text(x) -> str:
    """``json.dumps(x)`` for a value of :meth:`Check.to_json`."""
    return float.__repr__(x) if isinstance(x, float) else json.dumps(x)


def _float_texts(values: np.ndarray) -> list:
    """``json.dumps(_num(v))`` for each v: ``float.__repr__``, with NaN and
    the infinities as quoted strings."""
    texts = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = f'"{texts[k]}"'
    return texts


def _family_lines(fam: CheckFamily):
    """The report lines of ``fam``'s rows, made from its columns."""
    name = json.dumps(fam.name)[:-1]  # its closing quote follows the index
    verifies = json.dumps(fam.verifies)
    for k in range(0, len(fam), _CHECKS_PER_CALL):
        sl = slice(k, k + _CHECKS_PER_CALL)
        measured, bound = fam.measured[sl], fam.bound[sl]
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN margin, as in Check
            margin = measured - bound
        for i, p, m, b, g in zip(fam.index[sl].tolist(), (measured <= bound).tolist(),
                                 _float_texts(measured), _float_texts(bound),
                                 _float_texts(margin)):
            yield _line(f'{name}[{i}]"', '"pass"' if p else '"fail"', m, b, g, verifies)


def _lines(checks: CheckList):
    for part in checks.parts:
        if isinstance(part, CheckFamily):
            yield from _family_lines(part)
        else:
            name, status, measured, bound, margin, verifies = part.to_json().values()
            yield _line(_json_str(name), _json_str(status), _value_text(measured),
                        _value_text(bound), _value_text(margin), _json_str(verifies))


def _check_lines(checks: CheckList):
    """The JSON list of ``checks``, one per line, in text pieces of at most
    ``_CHECKS_PER_CALL`` lines, so the text held at once stays bounded."""
    lines = _lines(checks)
    sep = "[\n    "
    while group := list(islice(lines, _CHECKS_PER_CALL)):
        # the joined piece is not bound to a name, so it is freed before the
        # next piece is built; keeping it alive one piece longer fragmented
        # the heap and raised the process's peak RSS
        yield sep + ",\n    ".join(group)
        sep = ",\n    "
    yield "[]" if sep == "[\n    " else "\n  ]"
