"""Count determinism, an unseen seed, and the span recorder's wrapping.

Run with ``python -m pytest bench/tests``.
"""

import numpy as np
import pytest

import child
import tasks
from hyperorbit import dynamics, spaces
from hyperorbit.spaces import SeqVector, SpaceTag
from spans import SpanRecorder, TARGETS, per_layer_metric_units

SEED, OTHER_SEED = 20260, 97


def traced_round(workload, seed, tmp_path):
    round_ = tasks.build_round(workload, seed, tmp_path / f"{workload}-{seed}")
    rec = SpanRecorder()
    plain, traced = child.alternating_loop(round_, 0.0, rec)
    for loop in (plain, traced):
        assert loop["rounds"] == 1 and loop["failed"] == 0, loop["errors"]
    return rec.metrics(1), rec.tree_levels


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_calls_repeat_exactly_and_another_seed_verifies(workload, tmp_path):
    first, levels_a = traced_round(workload, SEED, tmp_path / "a")
    second, levels_b = traced_round(workload, SEED, tmp_path / "b")
    calls = [k for k in first if k.endswith(".calls")]
    assert {k: first[k] for k in calls} == {k: second[k] for k in calls}
    assert levels_a == levels_b
    assert first["cli.main.calls"] + first["dynamics.gk_tree.calls"] > 0

    other = child.closed_loop(tasks.build_round(workload, OTHER_SEED, tmp_path / "c"), 0.0)
    assert other["attempted"] > 0 and other["failed"] == 0, other["errors"]


def test_tree_makes_no_translate_or_phase_calls(tmp_path):
    metrics, levels = traced_round("tree", SEED, tmp_path)
    assert metrics["spaces.translate_by.calls"] == 0
    assert metrics["arith.phase_times_int.calls"] == 0
    assert metrics["spaces.vector_from_json.calls"] == 0
    assert metrics["dynamics.gk_tree.calls"] == len(levels) == 5
    assert 0 < metrics["dynamics.gk_tree.kept_ratio"] < 1


def test_metric_names_cover_targets_and_counters():
    names = per_layer_metric_units()
    assert len(names) == 3 * len(TARGETS) + 5
    assert all(len(n) <= 64 for n in names)


def _hc(n):
    rng = np.random.default_rng(0)
    return SeqVector.from_complex(SpaceTag.hc(1), rng.uniform(0.5, 2.0, n) + 0j)


def test_wrapper_reaches_by_name_import_sites_and_is_removed():
    original = spaces.translate_by
    with SpanRecorder() as rec:
        assert dynamics.translate_by is spaces.translate_by is not original
        spaces.translate(_hc(20))             # through the spaces globals
        dynamics.b_translate().linear_pow(_hc(20), 2)   # through dynamics' import
        dynamics.WeightLedger.direct_d       # methods are wrapped on the class
    assert spaces.translate_by is original and dynamics.translate_by is original
    assert rec.calls[TARGETS.index("spaces.translate_by")] == 2
    assert rec.missing == []


def test_self_time_excludes_children():
    spec = dynamics.make_operator("n_transpose")
    x = SeqVector.from_complex(SpaceTag.c0(), [0.7 + 0.2j] * 12)
    with SpanRecorder() as rec:
        with rec.task("tree"):
            dynamics.gk_tree(spec, x, x, 3)
    m = rec.metrics(1)
    tree_busy = m["dynamics.gk_tree.busy_s"]
    inner = sum(m[f"{t}.self_s"] for t in TARGETS)
    assert m["dynamics.gk_tree.self_s"] < tree_busy
    assert inner == pytest.approx(tree_busy, rel=1e-9)
    root = [s for s in rec.spans if s[1] == -1]
    assert len(root) == 1 and all(s[2] == root[0][0] for s in rec.spans)
