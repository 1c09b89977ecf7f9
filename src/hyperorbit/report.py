"""Machine-readable run reports: named checks with measured values and bounds.

Also the one JSON form of a float column, which report families and vector
files both write: :func:`encode_column` and :func:`decode_column`.
"""

from __future__ import annotations

import base64
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterRangeError


def encode_column(values: np.ndarray) -> str:
    """A float column as one JSON string: the base64 of its little-endian
    float64 bytes.  Lossless for every value, NaN and infinities included."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_column(text: str, key: str) -> np.ndarray:
    """The float64 array :func:`encode_column` wrote as ``text``, a new
    native-endian array; ``key`` names the column in the error.  Text that is
    not base64, or bytes that are not whole float64 values, raise
    :class:`ParameterRangeError`."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ParameterRangeError(f"column {key!r} is not base64: {exc}") from exc
    if len(raw) % 8:
        raise ParameterRangeError(
            f"column {key!r} holds {len(raw)} bytes, not whole float64 values")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _num(x):
    if math.isnan(x):
        return "nan"  # strict JSON has no NaN, as it has no infinity
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return x


@dataclass(slots=True)
class Check:
    """One verified inequality ``measured <= bound``; a NaN fails it.

    ``verifies`` is a stable identifier of the property being checked, so
    reports can be compared across runs and versions.  A property checked per
    index (a block, a coordinate, a step) is a :class:`CheckFamily`.
    """

    name: str
    measured: float
    bound: float
    verifies: str

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound

    @property
    def margin(self) -> float:
        return self.measured - self.bound

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.ok else "fail",
            "measured": _num(self.measured),
            "bound": _num(self.bound),
            "margin": _num(self.margin),
            "verifies": self.verifies,
        }


def check_leq(name: str, measured: float, bound: float, verifies: str) -> Check:
    return Check(name, float(measured), float(bound), verifies)


def check_flag(name: str, ok: bool, verifies: str) -> Check:
    """A yes/no property as a check: measured 0 (yes) or 1 (no) against 0."""
    return Check(name, 0.0 if ok else 1.0, 0.0, verifies)


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
        """The entry: name, status, ``verifies``, ``first``, the two columns
        (each an :func:`encode_column` string), every failing index, and the
        largest margin with its index (a NaN margin counts as the largest).
        The margins are not written: they are ``measured - bound``."""
        passed = self.passed
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN margin, as in Check
            margin = self.measured - self.bound
        worst = int(np.argmax(margin))
        return {
            "name": self.name,
            "status": "pass" if passed.all() else "fail",
            "verifies": self.verifies,
            "first": self.first,
            "measured": encode_column(self.measured),
            "bound": encode_column(self.bound),
            "failing": (self.first + np.flatnonzero(~passed)).tolist(),
            "worst_index": self.first + worst,
            "worst_margin": _num(float(margin[worst])),
        }


def flag_family(name: str, verifies: str, first: int, ok) -> CheckFamily:
    """Per-index yes/no properties as a family: measured 0 (yes) or 1 (no)
    against 0, as :func:`check_flag` makes one."""
    ok = np.asarray(ok, dtype=bool)
    return CheckFamily(name, verifies, first, np.where(ok, 0.0, 1.0), np.zeros(ok.size))


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
        out, and each entry of ``checks`` is one line.  ``json.loads`` of the
        text equals :meth:`to_json`, key order included.
        """
        parts = []
        for key, value in self.to_json().items():
            parts.append((",\n  " if parts else "{\n  ") + json.dumps(key) + ": ")
            if key == "checks":
                lines = ",\n    ".join(map(json.dumps, value))
                parts.append(f"[\n    {lines}\n  ]" if value else "[]")
            else:
                parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        parts.append("\n}\n")
        if path is None:
            sys.stdout.writelines(parts)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(parts)
