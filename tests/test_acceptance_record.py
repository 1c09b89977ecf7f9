"""``pytest --acceptance-record PATH``: each criterion's record in one JSON list."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_record_lists_each_criterion_in_run_order(tmp_path):
    out = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "test_02 or test_01",
         "--acceptance-record", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = json.loads(out.read_text(encoding="utf-8"))
    assert [r["number"] for r in records] == [1, 2]
    for r in records:
        assert set(r) == {"number", "status", "detail", "seconds", "budget"}
        assert r["status"] == "PASS" and 0 <= r["seconds"] < r["budget"]
    assert "a_n recursion" in records[1]["detail"]
