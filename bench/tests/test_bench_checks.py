"""Negative controls: the benchmark's checks must be able to fail.

Run with ``python -m pytest bench/tests``.
"""

import json

import pytest

import child
import tasks
from hyperorbit import cli
from hyperorbit.arith import LogComplex


def _write_report(path, checks, status="pass"):
    path.write_text(json.dumps({"status": status, "checks": checks}))
    return str(path)


def test_corrupt_cache_exits_1_and_counts_as_failed(tmp_path):
    report = str(tmp_path / "report.json")
    bad = tasks.cli_task("identities", ["identities", "--max-n", "200", "--corrupt-cache"],
                         report)
    rc, _ = bad.call()
    assert rc == 1
    ok, _, err = child.run_task(bad)
    assert not ok and "check failed" in err


def test_identities_positive_control(tmp_path):
    good = tasks.cli_task("identities", ["identities", "--max-n", "200"],
                          str(tmp_path / "report.json"))
    assert child.run_task(good)[0]


def test_perturbed_closed_form_counts_as_failed(tmp_path, monkeypatch):
    orbit_task = tasks.build_round("orbit", 7, tmp_path)[0]
    assert child.run_task(orbit_task)[0]

    exact = cli.closed_form_state

    def perturbed(spec, init, led, n):
        # shift every log magnitude by 1e-6: far beyond the 1e-9 agreement bound
        return exact(spec, init, led, n).scale(LogComplex(1e-6, 0.0))

    monkeypatch.setattr(cli, "closed_form_state", perturbed)
    ok, _, _ = child.run_task(orbit_task)
    assert not ok


def test_orbit_check_reads_the_bound_not_only_the_exit_code(tmp_path):
    def agreement(measured):
        return _write_report(tmp_path / f"r{measured}.json", [
            {"name": "closed-form-agreement", "status": "pass", "measured": measured}])

    assert tasks.orbit_agrees((0, agreement(1e-12)))
    assert not tasks.orbit_agrees((0, agreement(2e-9)))
    assert not tasks.orbit_agrees((1, agreement(1e-12)))
    assert not tasks.orbit_agrees((0, _write_report(tmp_path / "none.json", [])))


def test_report_check_needs_every_check_to_pass(tmp_path):
    passing = {"name": "a", "status": "pass"}
    failing = {"name": "b", "status": "fail"}
    assert tasks.report_all_pass((0, _write_report(tmp_path / "a.json", [passing])))
    assert not tasks.report_all_pass((0, _write_report(tmp_path / "b.json",
                                                       [passing, failing])))
    assert not tasks.report_all_pass((0, _write_report(tmp_path / "c.json", [])))


class _Tree:
    def __init__(self, sizes, counts, containment, aborted=None):
        self.level_sizes, self.candidate_counts = sizes, counts
        self.containment, self.aborted_at_level = containment, aborted


@pytest.mark.parametrize("tree, ok", [
    (_Tree([2, 6], [2, 6], [True]), True),
    (_Tree([2, 6], [2, 6], [False]), False),
    (_Tree([2, 6], [2, 6], [True], aborted=1), False),
    (_Tree([2, 7], [2, 6], [True]), False),
    (_Tree([2, 6], [2, 6], []), False),
])
def test_tree_check(tree, ok):
    assert tasks.tree_ok(tree) is ok


def test_ledger_check_bound():
    assert tasks.ledger_ok(1e-12)
    assert not tasks.ledger_ok(1e-9)


def test_closed_loop_counts_raising_and_failing_tasks():
    def boom():
        raise ValueError("boom")

    round_ = [tasks.Task("good", lambda: 1, lambda out: out == 1),
              tasks.Task("wrong", lambda: 2, lambda out: out == 1),
              tasks.Task("raises", boom, lambda out: True),
              tasks.Task("exits", lambda: cli.main(["--no-such-flag"]), lambda out: True)]
    loop = child.closed_loop(round_, 0.0)
    assert loop["rounds"] == 1
    assert loop["attempted"] == 4 and loop["failed"] == 3
    assert len(loop["errors"]) == 3
