"""Command-line interface: exit codes, report format, traces, determinism."""

import argparse
import cmath
import dataclasses
import importlib.util
import json
import math
import os
import sys

import numpy as np
import pytest

from fractions import Fraction

from hyperorbit import arith, cli, conjugation, constructions, rational, spaces
from hyperorbit.arith import LogComplex, normalize_phase
from hyperorbit.cli import main
from hyperorbit.constructions import companion_x, factorial_tail_direction, phi_map
from hyperorbit.rational import QComplex, q_coord_from_json, q_iterate
from hyperorbit.report import Check, CheckFamily, RunReport, check_flag, check_leq
from hyperorbit.spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    read_vector,
    shift_pow,
    vector_from_json,
    vector_to_json,
    write_vector,
)
from oracles import a_naive, to_complex

L1 = SpaceTag.l1()


@pytest.fixture()
def init_file(tmp_path):
    path = tmp_path / "init.json"
    vecs = {"vectors": [
        {"space": "l1", "coords": [[0.002, 0.0005]] * 60},
        {"space": "l1", "coords": [[0.003, -0.001]] * 60},
    ]}
    path.write_text(json.dumps(vecs))
    return str(path)


def run(args, tmp_path, name="report.json"):
    out = tmp_path / name
    rc = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return rc, report


class TestExitCodes:
    def test_identities_pass(self, tmp_path):
        rc, rep = run(["identities", "--max-n", "60"], tmp_path)
        assert rc == 0 and rep["status"] == "pass"
        # 30 even sums and C(60, 3) Vajda instances covered; the 61 cache
        # entries, the 30 sums and j = 1, 2 of every row (m, i) computed
        rows = sum(min(2, 60 - m - i) for m in range(1, 59) for i in range(1, 60 - m))
        assert rep["parameters"]["identity_instances_covered"] == 30 + math.comb(60, 3)
        assert rep["parameters"]["identity_instances_computed"] == 61 + 30 + rows

    def test_minimal_range(self, tmp_path):
        rc, rep = run(["identities", "--max-n", "3", "--a-max", "5"], tmp_path)
        assert rc == 0

    def test_corrupted_cache_fails(self, tmp_path):
        rc, rep = run(["identities", "--max-n", "60", "--corrupt-cache"], tmp_path)
        assert rc == 1 and rep["status"] == "fail"

    @pytest.mark.parametrize("max_n", [200, 1200])
    def test_corrupted_cache_fails_both_fibonacci_rows(self, max_n, tmp_path):
        # the partial sums read the cache the audit checked, to the same index
        rc, rep = run(["identities", "--max-n", str(max_n), "--a-max", "50",
                       "--corrupt-cache"], tmp_path)
        assert rc == 1
        assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == [
            "fib-identities", "fib-partial-sums"]

    def test_wrong_closed_form_fails(self, tmp_path, monkeypatch):
        # negative control: a closed form off by one at a single n
        exact = arith.a_closed
        monkeypatch.setattr(arith, "a_closed", lambda n: exact(n) + (n == 37))
        rc, rep = run(["identities", "--max-n", "60", "--a-max", "50"], tmp_path)
        assert rc == 1
        assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == [
            "a-seq-closed-form"]

    def test_unknown_operator_is_input_error(self, init_file, tmp_path):
        rc = main(["orbit", "--operator", "nope", "--init", init_file])
        assert rc == 2

    def test_malformed_init_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["orbit", "--operator", "m_l1", "--init", str(bad)])
        assert rc == 2

    def test_missing_file_is_input_error(self):
        rc = main(["orbit", "--operator", "m_l1", "--init", "/nonexistent.json"])
        assert rc == 2

    @pytest.mark.parametrize("nan", [{"log": math.nan, "phase": 0.0}, [math.nan, 0.0]])
    @pytest.mark.parametrize("argv", [
        ["orbit", "--operator", "n_delta_d"],
        ["julia", "--bracket", "1.0", "20.0"],
        ["build", "--target", "delta_d"],
    ])
    def test_nan_coordinate_is_input_error(self, argv, nan, tmp_path, capsys):
        # a NaN coordinate is unusable input, like unparsable JSON: exit 2
        # and no report
        vec = {"space": "hc", "param": 1, "coords": [[1.0, 0.0], nan]}
        path = tmp_path / "v.json"
        obj = {"vectors": [vec, vec]} if argv[0] == "orbit" else vec
        path.write_text(json.dumps(obj))
        out = tmp_path / "report.json"
        rc = main(argv + ["--init", str(path), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"log": [1.0, math.nan]}, "column 'log' holds a NaN or an infinity"),
        ({"lo": [0.0, math.inf]}, "column 'lo' holds a NaN or an infinity"),
        ({"log": [1.0, math.inf]}, "column 'log' holds a NaN or an infinity"),
        ({"log": [1.0, "inf"]}, "column 'log' holds 'inf', not a number"),
        ({"phase": [0.0, "-inf"]}, "column 'phase' holds a NaN or an infinity"),
        ({"lo": [0.0]}, "column lengths 2, 1, 2 differ"),
        ({"phase": 0.5}, "column 'phase' is not a list")])
    @pytest.mark.parametrize("argv", [
        ["orbit", "--operator", "n_delta_d"],
        ["julia", "--bracket", "1.0", "20.0"],
        ["build", "--target", "delta_d"],
    ])
    def test_malformed_column_is_input_error(self, argv, edit, message, tmp_path, capsys):
        # a malformed column-form vector is unusable input: exit 2, no
        # report, and the reader's message after "input error:"
        vec = {"space": "hc", "param": 1, "log": [1.0, "-inf"], "lo": [0.0, 0.0],
               "phase": [0.0, 0.0], **edit}
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"vectors": [vec, vec]} if argv[0] == "orbit" else vec))
        out = tmp_path / "report.json"
        rc = main(argv + ["--init", str(path), "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert message in err.split("input error:", 1)[1]

    @pytest.mark.parametrize("operator, space, count, rational", [
        ("m_l1", "l1", 3, False), ("m_l1", "l1", 1, False),
        ("mc_CN", "cn", 1, False), ("mc_CN", "cn", 1, True)])
    def test_init_count_off_arity_is_input_error(self, operator, space, count,
                                                 rational, tmp_path, capsys):
        # the orbit and its ledger would read different initial vectors; a
        # one-vector rational mc_CN orbit would be a plain shift
        coord = {"num": "1", "den": "2"} if rational else [0.5, 0.1]
        vec = {"space": space, "coords": [coord] * 8}
        if space == "cn":
            vec["param"] = 4
        path = tmp_path / "init.json"
        path.write_text(json.dumps({"vectors": [vec] * count}))
        out = tmp_path / "report.json"
        rc = main(["orbit", "--operator", operator, "--init", str(path),
                   "--out", str(out)] + (["--rational"] if rational else []))
        assert rc == 2 and not out.exists()
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("coord", [
        {"num": "3", "den": "0"}, {"num": "1", "den": "2", "imnum": "1", "imden": "0"}])
    @pytest.mark.parametrize("argv", [
        ["orbit", "--operator", "mc_CN"],
        ["orbit", "--operator", "mc_CN", "--rational"],
        ["build", "--target", "delta_d"],
    ])
    def test_zero_denominator_is_input_error(self, argv, coord, tmp_path, capsys):
        vec = {"space": "cn" if argv[0] == "orbit" else "hc", "param": 4,
               "coords": [{"num": "1", "den": "2"}, coord]}
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"vectors": [vec, vec]} if argv[0] == "orbit" else vec))
        out = tmp_path / "report.json"
        rc = main(argv + ["--init", str(path), "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("coord", [
        "1/2", {"den": "2"}, {"num": "x", "den": "2"}, [0.5], [math.inf, 0.0], None])
    def test_malformed_rational_coordinate_is_input_error(self, coord, tmp_path, capsys):
        # the exact reader maps bad entries to input errors, as the float one does
        vec = {"space": "cn", "param": 4, "coords": [{"num": "1", "den": "2"}, coord]}
        path = tmp_path / "init.json"
        path.write_text(json.dumps({"vectors": [vec, vec]}))
        out = tmp_path / "report.json"
        rc = main(["orbit", "--operator", "mc_CN", "--rational", "--init", str(path),
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "input error" in capsys.readouterr().err

    def test_rational_column_form_is_input_error_that_names_coords(self, tmp_path,
                                                                   capsys):
        vec = vector_to_json(vector_from_json(
            {"space": "cn", "param": 4, "coords": [[0.5, 0.0], [0.25, 0.0]]}))
        path = tmp_path / "init.json"
        path.write_text(json.dumps({"vectors": [vec, vec]}))
        out = tmp_path / "report.json"
        rc = main(["orbit", "--operator", "mc_CN", "--rational", "--init", str(path),
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err.split("input error:", 1)[1]
        assert "'coords' list of fractions" in err and "[re, im] pairs" in err
        assert "log-modulus columns hold rounded logarithms" in err

    def test_complex_fraction_orbit_runs_both_ways(self, tmp_path):
        coords = [{"num": "1", "den": "2", "imnum": "1", "imden": "3"},
                  {"num": "10" + "0" * 400, "den": "3", "imnum": "-7" + "0" * 399}]
        vec = {"space": "cn", "param": 4, "coords": coords * 4}
        path = tmp_path / "init.json"
        path.write_text(json.dumps({"vectors": [vec, vec]}))
        for extra in ([], ["--rational"]):
            rc, rep = run(["orbit", "--operator", "mc_CN", "--init", str(path),
                           "--steps", "3"] + extra, tmp_path)
            assert rc == 0 and rep["status"] == "pass"

    @pytest.mark.parametrize("argv", [
        ["orbit", "--operator", "m_l1", "--init", "l1_pair", "--steps", "0"],
        ["identities", "--max-n", "2"],
        ["identities", "--a-max", "0"],
        ["conjugate", "--size", "1"],
        ["conjugate", "--basis", "banded", "--band-u", "0.7"],
        ["orbit", "--operator", "m_l1", "--init", "c0_pair"],
        ["julia", "--init", "c0_direction", "--bracket", "1", "20"],
        ["julia", "--init", "l1_direction", "--bracket", "1", "inf"],
        ["julia", "--init", "l1_direction", "--bracket", "nan", "20"],
        ["julia", "--init", "l1_direction", "--bracket", "1", "20", "--tol", "0"],
        ["julia", "--init", "l1_direction", "--bracket", "1", "20", "--tol", "-1"],
        ["julia", "--init", "l1_direction", "--bracket", "1", "20", "--tol", "inf"],
        ["julia", "--init", "l1_direction", "--bracket", "1", "20", "--tol", "nan"],
        ["conjugate", "--size", "20", "--samples", "0"],
        ["conjugate", "--size", "20", "--samples", "-3"],
        ["orbit", "--operator", "m_l1", "--init", "l1_pair", "--tol", "0"],
        ["orbit", "--operator", "m_l1", "--init", "l1_pair", "--tol", "-1"],
        ["orbit", "--operator", "m_l1", "--init", "l1_pair", "--tol", "inf"],
        ["orbit", "--operator", "m_l1", "--init", "l1_pair", "--tol", "nan"],
        ["orbit", "--operator", "mc_CN", "--init", "cn_pair", "--rational", "--tol", "0"],
        ["orbit", "--operator", "mc_CN", "--init", "cn_pair", "--rational", "--tol", "-1"],
        ["orbit", "--operator", "mc_CN", "--init", "cn_pair", "--rational", "--tol", "inf"],
        ["orbit", "--operator", "mc_CN", "--init", "cn_pair", "--rational", "--tol", "nan"],
        ["orbit", "--operator", "b_translate", "--init", "hc_pair_600", "--steps", "2"],
    ], ids=["steps-0", "max-n-2", "a-max-0", "size-1", "band-u-0.7", "m_l1-on-c0", "julia-on-c0",
            "julia-bracket-inf", "julia-bracket-nan", "julia-tol-0", "julia-tol-neg",
            "julia-tol-inf", "julia-tol-nan", "samples-0", "samples-neg", "orbit-tol-0",
            "orbit-tol-neg", "orbit-tol-inf", "orbit-tol-nan", "rational-tol-0",
            "rational-tol-neg", "rational-tol-inf", "rational-tol-nan",
            "translate-past-degree-cap"])
    def test_unusable_parameter_is_input_error(self, argv, tmp_path, capsys):
        # a parameter out of range or a vector of the wrong space: exit 2 and
        # no report, like unreadable input
        vec = lambda space: {"space": space, "coords": [[1.0, 0.0], [0.2, 0.1], [0.1, 0.0]]}
        files = {"l1_pair": {"vectors": [vec("l1")] * 2},
                 "c0_pair": {"vectors": [vec("c0")] * 2}, "c0_direction": vec("c0"),
                 "cn_pair": {"vectors": [dict(vec("cn"), param=4)] * 2},
                 "hc_pair_600": {"vectors": [{"space": "hc", "param": 1,
                                              "coords": [[0.5, 0.0]] * 600}] * 2},
                 "l1_direction": {"space": "l1", "coords": [
                     [1.0 / math.factorial(i) ** 2, 0.0] for i in range(60)]}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv]
        out = tmp_path / "report.json"
        rc = main(argv + ["--out", str(out)])
        assert rc == 2 and not out.exists()
        assert "input error" in capsys.readouterr().err

    def test_bad_bracket_is_check_failure(self, tmp_path):
        d = tmp_path / "dir.json"
        write_vector(d, SeqVector.from_complex(L1, [1.0, 1.0, 0, 0, 0, 0]))
        rc = main(["julia", "--init", str(d), "--bracket", "0.5", "50.0"])
        assert rc == 1

    def test_inverted_bracket_is_check_failure(self, tmp_path):
        d = tmp_path / "dir.json"
        coeffs = [1.0] + [1.0 / math.factorial(i) ** 2 for i in range(1, 40)]
        write_vector(d, SeqVector.from_complex(L1, coeffs))
        rc = main(["julia", "--init", str(d), "--bracket", "20.0", "1.0"])
        assert rc == 1


class TestOrbitCommand:
    def test_contraction_ball_classifies(self, init_file, tmp_path):
        rc, rep = run(["orbit", "--operator", "m_l1", "--init", init_file,
                       "--steps", "40"], tmp_path)
        assert rc == 0
        assert rep["parameters"]["classification"] == "converges_to_zero"
        names = [c["name"] for c in rep["checks"]]
        assert "closed-form-agreement" in names

    def test_one_step_orbit(self, init_file, tmp_path):
        rc, rep = run(["orbit", "--operator", "m_l1", "--init", init_file,
                       "--steps", "1"], tmp_path)
        assert rc == 0 and rep["parameters"]["states"] == 1
        agree = [c for c in rep["checks"] if c["name"] == "closed-form-agreement"]
        assert len(agree) == 1 and agree[0]["status"] == "pass"

    def test_zero_init_trace(self, tmp_path):
        init = tmp_path / "zero.json"
        init.write_text(json.dumps({"vectors": [
            {"space": "l1", "coords": [[0, 0]] * 10},
            {"space": "l1", "coords": [[0, 0]] * 10}]}))
        trace = tmp_path / "trace.jsonl"
        rc = main(["orbit", "--operator", "m_l1", "--init", str(init),
                   "--steps", "5", "--trace", str(trace), "--out",
                   str(tmp_path / "r.json")])
        assert rc == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == 5
        assert all(l["log_norm"] == "-inf" for l in lines)
        # each state's columns, its exact zeros as the string "-inf"
        assert [len(l["log"]) for l in lines] == [9, 9, 8, 8, 7]
        assert all(set(l["log"]) == {"-inf"} and set(l["lo"]) == set(l["phase"]) == {0.0}
                   for l in lines)

    def test_companion_orbit_hits_target_weights(self, tmp_path):
        # even states of the companion pair are 2^n n!^2 B_w^n(y)
        rng = np.random.default_rng(21)
        y = SeqVector.from_complex(L1, rng.uniform(0.5, 2.0, 40))
        w = WeightSeq.inv_squares()
        x = companion_x(y)
        init = tmp_path / "pair.json"
        from hyperorbit.spaces import vector_to_json
        init.write_text(json.dumps({"vectors": [vector_to_json(x),
                                                vector_to_json(y)]}))
        trace = tmp_path / "trace.jsonl"
        rc = main(["orbit", "--operator", "m_l1", "--init", str(init),
                   "--steps", "16", "--trace", str(trace),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        for n in range(1, 9):
            rec = lines[2 * n - 1]
            want = shift_pow(y, w, n)
            scale = n * math.log(2.0) + 2.0 * math.lgamma(n + 1.0)
            got = to_complex(vector_from_json(rec)).real
            want_c = np.exp(scale) * to_complex(want).real
            assert np.allclose(got, want_c, rtol=1e-6)

    def test_rational_orbit(self, tmp_path):
        init = tmp_path / "q.json"
        init.write_text(json.dumps({"vectors": [
            {"space": "cn", "param": 4,
             "coords": [{"num": "1", "den": "1"}]},
            {"space": "cn", "param": 4,
             "coords": [{"num": "1", "den": "1"}] * 6}]}))
        trace = tmp_path / "t.jsonl"
        rc = main(["orbit", "--operator", "mc_CN", "--init", str(init),
                   "--rational", "--steps", "3", "--trace", str(trace),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 3
        assert "num" in json.loads(lines[0])["coords"][0]

    def test_rational_needs_product_chain(self, init_file, tmp_path):
        rc = main(["orbit", "--operator", "m_l1", "--init", init_file,
                   "--rational"])
        assert rc == 2


class TestExactIteration:
    """``orbit --rational`` checks the exact states against the float orbit."""

    @staticmethod
    def pair_init(tmp_path, first=(0.1, 0.0)):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"vectors": [
            {"space": "cn", "param": 4, "coords": [list(first)]},
            {"space": "cn", "param": 4,
             "coords": [[1e-20, 0.0], [0.1, -0.3], [3.0, 0.0], [0.0, 0.0], [0.7, 0.2]]}]}))
        return str(path)

    def test_pairs_read_as_exact_doubles(self):
        assert q_coord_from_json([0.1, 0.0]) == QComplex(Fraction(0.1), Fraction(0))
        assert not q_coord_from_json([1e-20, 0.0]).is_zero
        assert q_coord_from_json([0.0, -0.3]).im == Fraction(-0.3)

    def test_pair_orbit_agrees_with_float_orbit(self, tmp_path):
        rc, rep = run(["orbit", "--operator", "mc_CN", "--init", self.pair_init(tmp_path),
                       "--rational", "--steps", "4"], tmp_path)
        (chk,) = [c for c in rep["checks"] if c["name"] == "exact-iteration"]
        assert rc == 0 and chk["status"] == "pass"
        assert 0.0 <= chk["measured"] <= 1e-9 and chk["bound"] == 1e-9

    @pytest.mark.parametrize("part", [math.nan, math.inf])
    def test_non_finite_pair_is_input_error(self, part, tmp_path, capsys):
        rc = main(["orbit", "--operator", "mc_CN", "--rational", "--init",
                   self.pair_init(tmp_path, (part, 0.0)),
                   "--out", str(tmp_path / "report.json")])
        assert rc == 2 and not (tmp_path / "report.json").exists()
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["scale", "zero"])
    def test_perturbed_exact_state_fails(self, change, tmp_path, monkeypatch):
        # negative control: one exact coordinate of one state changed
        def perturbed(m, init, steps):
            states = q_iterate(m, init, steps)
            c = states[1][0]
            states[1][0] = (QComplex.of(0) if change == "zero"
                            else c * QComplex.of(Fraction(1000001, 1000000)))
            return states

        monkeypatch.setattr(rational, "q_iterate", perturbed)
        rc, rep = run(["orbit", "--operator", "mc_CN", "--init", self.pair_init(tmp_path),
                       "--rational", "--steps", "4"], tmp_path)
        (chk,) = [c for c in rep["checks"] if c["name"] == "exact-iteration"]
        assert rc == 1 and chk["status"] == "fail"


class TestBuildCommand:
    def test_universal_three_blocks(self, tmp_path):
        rc, rep = run(["build", "--target", "universal_l1", "--blocks", "3"],
                      tmp_path)
        assert rc == 0 and rep["status"] == "pass"
        assert os.path.exists(tmp_path / "universal_y.json")
        names = {c["name"].split("[")[0] for c in rep["checks"]}
        assert {"block-norm", "phi-bound", "universality-residual"} <= names

    def test_companion_with_zero_coordinate_fails(self, tmp_path):
        y = tmp_path / "y.json"
        y.write_text(json.dumps(
            {"space": "l1", "coords": [[1, 0], [0, 0], [1, 0], [1, 0]]}))
        rc, rep = run(["build", "--target", "companion", "--init", str(y)],
                      tmp_path)
        assert rc == 1
        assert any(c["name"] == "ZeroCoordinateError" for c in rep["checks"])

    def test_companion_good_vector(self, tmp_path):
        y = tmp_path / "y.json"
        rng = np.random.default_rng(22)
        from hyperorbit.spaces import vector_to_json
        y.write_text(json.dumps(vector_to_json(
            SeqVector.from_complex(L1, rng.uniform(0.5, 2.0, 50)))))
        rc, rep = run(["build", "--target", "companion", "--init", str(y)],
                      tmp_path)
        assert rc == 0
        assert os.path.exists(tmp_path / "companion_x.json")

    def test_symmetric_preimage(self, tmp_path):
        x0 = tmp_path / "x0.json"
        x0.write_text(json.dumps({"space": "l1",
                                  "coords": [[3, 0], [0, 0], [0, 0]]}))
        rc, rep = run(["build", "--target", "symmetric_preimage",
                       "--init", str(x0)], tmp_path)
        assert rc == 0 and rep["status"] == "pass"
        assert len([c for c in rep["checks"]
                    if c["name"].startswith("preimage-residual")]) == 20

    def test_q_blocks(self, tmp_path):
        rc, rep = run(["build", "--target", "q_blocks", "--blocks", "3"],
                      tmp_path)
        assert rc == 0
        assert os.path.exists(tmp_path / "q_universal.json")

    def test_delta_d_default_input(self, tmp_path):
        rc, rep = run(["build", "--target", "delta_d"], tmp_path)
        assert rc == 0
        assert os.path.exists(tmp_path / "delta_d_f.json")

    def test_delta_d_zero_coefficient_fails_with_stable_tag(self, tmp_path, capsys):
        # two different bad inputs at one path: the reports are equal once
        # wall_time is dropped, and the message goes to stderr
        path = tmp_path / "g.json"
        reports = []
        for coords in ([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.5]] * 4 + [[0.0, 0.0]]):
            path.write_text(json.dumps({"space": "hc", "param": 1, "coords": coords}))
            rc, rep = run(["build", "--target", "delta_d", "--init", str(path)],
                          tmp_path)
            assert rc == 1 and rep["status"] == "fail"
            assert [c["verifies"] for c in rep["checks"]] == ["build-input"]
            assert "nonzero coefficients" in capsys.readouterr().err
            del rep["wall_time"]
            reports.append(rep)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("target, space", [
        ("companion", {"space": "l1"}), ("delta_d", {"space": "hc", "param": 1})])
    def test_empty_vector_is_build_input_failure(self, target, space, tmp_path):
        # a vector with no coordinates reaches the builder's range check
        path = tmp_path / "v.json"
        path.write_text(json.dumps(dict(space, coords=[])))
        rc, rep = run(["build", "--target", target, "--init", str(path)], tmp_path)
        assert rc == 1 and rep["status"] == "fail"
        assert [(c["name"], c["verifies"]) for c in rep["checks"]] == [
            ("ParameterRangeError", "build-input")]

    @pytest.mark.parametrize("target, vector", [
        ("q_blocks", "q_universal.json"), ("universal_l1", "universal_y.json")])
    def test_zero_blocks_is_build_input_failure(self, target, vector, tmp_path):
        # --blocks 0 reaches the builder's range check; it is not the default
        rc, rep = run(["build", "--target", target, "--blocks", "0"], tmp_path)
        assert rc == 1 and rep["status"] == "fail"
        assert rep["parameters"]["blocks"] == 0
        assert [(c["name"], c["verifies"]) for c in rep["checks"]] == [
            ("ParameterRangeError", "build-input")]
        assert not os.path.exists(tmp_path / vector)

    def test_unknown_target(self, tmp_path):
        rc = main(["build", "--target", "nope"])
        assert rc == 2


def _scale_coord(obj, k, factor):
    """Multiply coordinate k (0-based) of a column-form vector object by
    ``factor``: its log moves by ``log |factor|`` and its phase turns by
    ``arg factor``; a zero factor makes it the canonical zero."""
    if factor == 0:
        obj["log"][k], obj["lo"][k], obj["phase"][k] = "-inf", 0.0, 0.0
    else:
        obj["log"][k] += math.log(abs(factor))
        obj["phase"][k] = normalize_phase(obj["phase"][k] + cmath.phase(factor))


def _edit_coord(path, k, factor):
    """Multiply coordinate k (0-based) of a written vector file."""
    obj = json.loads(path.read_text())
    _scale_coord(obj, k, factor)
    path.write_text(json.dumps(obj))


class TestDeltaDFile:
    """The written ``delta_d_f.json`` is the f that ``reciprocal-coefficient``
    certifies."""

    @pytest.fixture()
    def written(self, tmp_path):
        rc, _ = run(["build", "--target", "delta_d"], tmp_path)
        assert rc == 0
        g = constructions.stacked_primitive_g(8)
        return g, tmp_path / "delta_d_f.json"

    def test_file_is_certified_vector(self, written):
        # the file holds f bit for bit, its nonzero lo parts included
        g, path = written
        f, _ = constructions.delta_d_pair(g)
        on_disk = read_vector(path)
        assert np.count_nonzero(f.lo) == 39
        for part in ("hi", "lo", "phase"):
            assert getattr(on_disk, part).tobytes() == getattr(f, part).tobytes()

    @pytest.mark.parametrize("k, factor, measured", [
        (1, 1.0 + 1e-6, 1.0e-6), (5, 1.0 + 1e-6, 3.0e-7), (20, 1.0 + 1e-6, 3.4e-8),
        (43, 1.0 + 1e-6, 1.3e-8), (20, cmath.exp(1e-6j), 1.0e-6)])
    def test_edited_file_fails_at_that_index(self, written, k, factor, measured):
        # f^(k)(0) off by relative 1e-6 moves its log by 1e-6, which the log
        # residual divides by the sum of the log moduli of row k; turned by
        # 1e-6 rad, it moves the phase residual by 1e-6
        g, path = written
        _edit_coord(path, k, factor)
        certs = constructions.reciprocal_coefficient_checks(g, read_vector(path))
        assert [(c.name, c.index) for c in certs if not c.ok] == [
            ("reciprocal-coefficient", k)]
        assert certs[k - 1].measured == pytest.approx(measured, rel=0.05)


class TestWrittenFiles:
    """Each build target writes the vectors it built, bit for bit (``delta_d``
    in ``TestDeltaDFile``)."""

    @staticmethod
    def built(target, path):
        """File name -> the vector ``target`` builds from its input at ``path``."""
        if target == "companion":
            return {"companion_x.json": companion_x(read_vector(path))}
        if target == "universal_l1":
            return {"universal_y.json": constructions.gap_schedule_search(3).z}
        if target == "q_blocks":
            return {"q_universal.json": constructions.hc_Q_blocks(3).Q}
        x, y, _ = constructions.symmetric_preimage_certificates(
            read_vector(path), np.random.default_rng(0))
        return {"preimage_x.json": x, "preimage_y.json": y}

    @pytest.mark.parametrize("target, nonzero_lo", [
        ("companion", [0]), ("universal_l1", [5]), ("q_blocks", [0]),
        ("symmetric_preimage", [3, 3])])
    def test_file_reads_back_bit_for_bit(self, target, nonzero_lo, tmp_path):
        path = tmp_path / "input.json"
        rc, _ = run(["build", "--target", target] + _target_input(target, path), tmp_path)
        assert rc == 0
        built = self.built(target, path)
        assert [np.count_nonzero(v.lo) for v in built.values()] == nonzero_lo
        for name, v in built.items():
            on_disk = read_vector(tmp_path / name)
            assert on_disk.space == v.space
            for part in ("hi", "lo", "phase"):
                assert getattr(on_disk, part).tobytes() == getattr(v, part).tobytes()


def _corrupt_cache(monkeypatch, path, args):
    """F(3) one too large in every Fibonacci cache the builders make."""
    class Cache(constructions.FibCache):
        def __init__(self, prefill):
            super().__init__(prefill)
            self._corrupt_for_testing(3)

    monkeypatch.setattr(constructions, "FibCache", Cache)


def _wrong_closed_form(monkeypatch, path, args):
    """a_37 one too large in the closed form the builders read."""
    exact = constructions.a_closed
    monkeypatch.setattr(constructions, "a_closed", lambda n: exact(n) + (n == 37))


def _faulty_writer(monkeypatch, k, factor):
    """The vector writer puts coordinate k (0-based) off by ``factor``: the
    file, and a read-back the builder certifies, hold the edit."""
    write = spaces.vector_to_json

    def faulty(v):
        obj = write(v)
        _scale_coord(obj, k, factor)
        return obj

    monkeypatch.setattr(spaces, "vector_to_json", faulty)
    monkeypatch.setattr(constructions, "vector_to_json", faulty)


def _edit_written_f(monkeypatch, path, args):
    """Coordinate 20 of ``delta_d_f.json`` off by relative 1e-6."""
    _faulty_writer(monkeypatch, 20, 1.0 + 1e-6)


def _edit_written_x(monkeypatch, path, args):
    """x_6 of ``companion_x.json`` off by 1 %."""
    _faulty_writer(monkeypatch, 5, 1.01)


def _edit_built_x(monkeypatch, path, args):
    """x_6 of the built companion vector off by relative 1e-6."""
    build = constructions.companion_x

    def perturbed(y):
        x = build(y)
        hi = x.hi.copy()
        hi[5] += 1e-6
        return SeqVector(x.space, hi, x.lo, x.phase)

    monkeypatch.setattr(constructions, "companion_x", perturbed)


def _wrong_weights(monkeypatch, path, args):
    """The builder and its certificates get w_l = l instead of 1 / l^2."""
    monkeypatch.setattr(WeightSeq, "inv_squares", staticmethod(WeightSeq.linear))


def _edit_universal_z(monkeypatch, k, new_hi):
    """Coordinate k (0-based) of the searched universal vector gets log
    modulus ``new_hi(old)``; the certificates and the file see the edit."""
    search = constructions.gap_schedule_search

    def edited(blocks):
        sch = search(blocks)
        hi = sch.z.hi.copy()
        hi[k] = new_hi(hi[k])
        return dataclasses.replace(sch, z=SeqVector(sch.z.space, hi, sch.z.lo, sch.z.phase))

    monkeypatch.setattr(cli, "gap_schedule_search", edited)


# the 3-block schedule is n = [0, 94, 1132]: block 2 sits at 0-based 94, 95
def _unit_block_coordinate(monkeypatch, path, args):
    """z_95, the first coordinate of block 2, set to modulus 1."""
    _edit_universal_z(monkeypatch, 94, lambda h: 0.0)


def _scaled_block_coordinate(monkeypatch, path, args):
    """z_95 multiplied by 10."""
    _edit_universal_z(monkeypatch, 94, lambda h: h + math.log(10.0))


def _shrunk_filler(monkeypatch, path, args):
    """The filler z_101 divided by e^2000 (Phi(z) has margins near -1430)."""
    _edit_universal_z(monkeypatch, 100, lambda h: h - 2000.0)


def _large_filler(monkeypatch, path, args):
    """The filler z_201 set to modulus 10."""
    _edit_universal_z(monkeypatch, 200, lambda h: math.log(10.0))


def _search_past_first(monkeypatch, path, args):
    """The gap scan returns one past the least passing n."""
    first = constructions._first_passing
    monkeypatch.setattr(constructions, "_first_passing",
                        lambda margins, start, j: first(margins, start, j) + 1)


def _flat_base_margin(monkeypatch, path, args):
    """The first-gap margin is a constant -1, so it stops decreasing."""
    monkeypatch.setattr(constructions, "_base_margin", lambda n: 0.0 * n - 1.0)


def _small_scan_cap(monkeypatch, path, args):
    """The gap scan stops at n = 50, before n_2 = 94."""
    monkeypatch.setattr(constructions, "SCAN_CAP", 50)


def _one_block(monkeypatch, path, args):
    """``--blocks 1``."""
    args[args.index("--blocks") + 1] = "1"


def _shift_twice(monkeypatch, path, args):
    """The preimage builder shifts x0 twice instead of once."""
    shift = constructions.forward_pow
    monkeypatch.setattr(constructions, "forward_pow", lambda v, w, k: shift(v, w, k + 1))


def _zero_blocks(monkeypatch, path, args):
    """``--blocks 0``."""
    args[args.index("--blocks") + 1] = "0"


def _turned_phase(monkeypatch, path, args):
    """Every phase reduction of the q_blocks solver turned by 1e-6 rad."""
    reduce = constructions.phase_times_int
    monkeypatch.setattr(constructions, "phase_times_int",
                        lambda phase, n: reduce(phase, n) + 1e-6)


def _scaled_dense(monkeypatch, factors):
    """Dense test value ``(k, i)`` multiplied by ``factors[(k, i)]``."""
    value = constructions.dense_value
    monkeypatch.setattr(constructions, "dense_value",
                        lambda k, i: value(k, i) * factors.get((k, i), 1.0))


def _small_block_coefficient(monkeypatch, path, args):
    """The first test coefficient of block 2 divided by 1e100 (alpha_2 grows
    to about e^143, past 2^(n_1 + 1) = 16)."""
    _scaled_dense(monkeypatch, {(2, 0): 1e-100})


def _large_block_coefficients(monkeypatch, path, args):
    """The first and third test coefficients of block 2 times 1e300 (beta_2
    grows to about e^14.4, past 2^(n_2) = 2^16)."""
    _scaled_dense(monkeypatch, {(2, 0): 1e300, (2, 2): 1e300})


def _zero_block_coefficient(monkeypatch, path, args):
    """The third test coefficient of block 2 set to zero."""
    _scaled_dense(monkeypatch, {(2, 2): 0.0})


def _no_coordinates(monkeypatch, path, args):
    """The input vector file with its coordinates removed."""
    obj = json.loads(path.read_text())
    obj.update(log=[], lo=[], phase=[])
    path.write_text(json.dumps(obj))


def _zero_coordinate(monkeypatch, path, args):
    """The input vector file with its second coordinate set to zero."""
    _edit_coord(path, 1, 0.0)


def _hc_target(monkeypatch, path, args):
    """The input vector file tagged as an entire function."""
    obj = json.loads(path.read_text())
    obj.update(space="hc", param=1)
    path.write_text(json.dumps(obj))


def _target_input(target, path):
    """Write the input file of ``target`` at ``path``; return the CLI arguments."""
    if target in ("universal_l1", "q_blocks"):
        return ["--blocks", "3"]
    if target == "delta_d":
        v = constructions.stacked_primitive_g(8)
    elif target == "companion":
        v = SeqVector.from_complex(L1, np.random.default_rng(22).uniform(0.5, 2.0, 40))
    else:
        v = SeqVector.from_complex(L1, [3.0, -1.0 + 0.5j, 0.25])
    path.write_text(json.dumps(vector_to_json(v)))
    return ["--init", str(path)]


def _corrupt_cache_arg(monkeypatch, path, args):
    """``--corrupt-cache``: F(30) one too large in the cache both Fibonacci
    rows read."""
    args.append("--corrupt-cache")


def _wrong_a_closed(monkeypatch, path, args):
    """a_37 one too large in the closed form ``identities`` compares."""
    exact = arith.a_closed
    monkeypatch.setattr(arith, "a_closed", lambda n: exact(n) + (n == 37))


def _perturbed_closed_form(monkeypatch, path, args):
    """Every closed-form state ``orbit`` reads scaled by e^(1e-6)."""
    exact = cli.closed_form_state
    monkeypatch.setattr(cli, "closed_form_state", lambda spec, init, led, n: exact(
        spec, init, led, n).scale(LogComplex(1e-6, 0.0)))


def _perturbed_exact_state(monkeypatch, path, args):
    """Coordinate 1 of exact state 2 multiplied by 1 + 1e-6."""
    exact = rational.q_iterate

    def perturbed(m, init, steps):
        states = exact(m, init, steps)
        states[1][0] = states[1][0] * QComplex.of(Fraction(1000001, 1000000))
        return states

    monkeypatch.setattr(rational, "q_iterate", perturbed)


def _edited_basis(monkeypatch, edit):
    """The host basis ``conjugate`` builds, with ``edit`` applied to it."""
    build = cli.host_basis

    def edited(kind, N, u):
        basis = build(kind, N, u=u)
        edit(basis)
        return basis

    monkeypatch.setattr(cli, "host_basis", edited)


def _off_functional(monkeypatch, path, args):
    """The functional x_1* reads x_2 with weight 1e-9: no longer biorthogonal."""
    _edited_basis(monkeypatch, lambda b: b.rows.__setitem__((0, 1), 1e-9))


def _doubled_vector(monkeypatch, path, args):
    """x_1 doubled: ||x_1|| ||x_1*|| = 2, past the bound 1.5."""
    _edited_basis(monkeypatch, lambda b: b.columns.__setitem__((0, 0), 2.0))


def _scaled_host_operator(monkeypatch, path, args):
    """Every value of the host operator N scaled by e^(1e-3)."""
    apply_n = conjugation.HostBilinear.apply
    monkeypatch.setattr(conjugation.HostBilinear, "apply", lambda self, u, v: apply_n(
        self, u, v).scale(LogComplex(1e-3, 0.0)))


def _tol_below_spacing(monkeypatch, path, args):
    """``--tol 1e-300``, below the spacing of doubles at the boundary."""
    args[args.index("--tol") + 1] = "1e-300"


def _orbit_argv(path):
    path.write_text(json.dumps({"vectors": [
        {"space": "l1", "coords": [[0.002, 0.0005]] * 60},
        {"space": "l1", "coords": [[0.003, -0.001]] * 60}]}))
    return ["orbit", "--operator", "m_l1", "--init", str(path), "--steps", "20"]


def _rational_orbit_argv(path):
    path.write_text(json.dumps({"vectors": [
        {"space": "cn", "param": 4, "coords": [[0.1, 0.0]]},
        {"space": "cn", "param": 4,
         "coords": [[1e-20, 0.0], [0.1, -0.3], [3.0, 0.0], [0.0, 0.0], [0.7, 0.2]]}]}))
    return ["orbit", "--operator", "mc_CN", "--init", str(path), "--rational",
            "--steps", "4"]


def _julia_argv(path):
    write_vector(path, factorial_tail_direction(60))
    return ["julia", "--init", str(path), "--bracket", "1.0", "20.0", "--tol", "1e-6"]


# the subcommands other than build: each writes its input file at the path and
# returns its arguments
SUBCOMMANDS = {
    "identities": lambda path: ["identities", "--max-n", "60", "--a-max", "50"],
    "orbit": _orbit_argv,
    "orbit-rational": _rational_orbit_argv,
    "conjugate": lambda path: ["conjugate", "--basis", "identity", "--size", "60",
                               "--samples", "20"],
    "julia": _julia_argv,
}


def _command(target, path):
    """The arguments that run ``target``, a key of ``SUBCOMMANDS`` or a build
    target, with its input file written at ``path``."""
    if target in SUBCOMMANDS:
        return SUBCOMMANDS[target](path)
    return ["build", "--target", target] + _target_input(target, path)


# every check name each subcommand and each of the five build targets emits
# -> a mutation that fails a check of that name; the mutation patches the
# library (monkeypatch), writes the input file or edits the arguments.  The
# exponent families never read g, f, y or x: only a damaged Fibonacci cache
# or, for two-exponent-is-n, a wrong closed form fails them (see
# test_object_edits_pass_exponent_families)
MUTATIONS = {
    "identities": {
        "fib-identities": _corrupt_cache_arg,
        "fib-partial-sums": _corrupt_cache_arg,
        "a-seq-closed-form": _wrong_a_closed,
    },
    "orbit": {
        "closed-form-agreement": _perturbed_closed_form,
    },
    "orbit-rational": {
        "exact-iteration": _perturbed_exact_state,
    },
    "conjugate": {
        "biorthogonality": _off_functional,
        "basis-bound": _doubled_vector,
        "commutation": _scaled_host_operator,
        "pushforward": _scaled_host_operator,
    },
    "julia": {
        "bracket-width": _tol_below_spacing,
    },
    "delta_d": {
        "reciprocal-exponent-telescopes": _corrupt_cache,
        "reciprocal-coefficient": _edit_written_f,
        "ParameterRangeError": _no_coordinates,
        "ZeroCoordinateError": _zero_coordinate,
    },
    "companion": {
        "y-exponent-telescopes": _corrupt_cache,
        "w-exponent-is-minus-one": _corrupt_cache,
        "two-exponent-is-n": _wrong_closed_form,
        "weight-identity-value": _wrong_weights,
        "recursion-identity": _edit_written_x,
        "ParameterRangeError": _no_coordinates,
        "ZeroCoordinateError": _zero_coordinate,
    },
    "universal_l1": {
        "block-norm": _unit_block_coordinate,
        "phi-bound": _shrunk_filler,
        "universality-residual": _scaled_block_coordinate,
        "l1-norm": _large_filler,
        "gap-minimality": _search_past_first,
        "gap-monotone": _flat_base_margin,
        "ParameterRangeError": _one_block,
        "SearchOverflowError": _small_scan_cap,
    },
    "symmetric_preimage": {
        "preimage-residual": _shift_twice,
        "ParameterRangeError": _hc_target,
    },
    "q_blocks": {
        "unit-weight": _turned_phase,
        "alpha-bound": _small_block_coefficient,
        "beta-bound": _large_block_coefficients,
        "ParameterRangeError": _zero_blocks,
        "ZeroCoordinateError": _zero_block_coefficient,
    },
}
EXPONENT_FAMILIES = {"reciprocal-exponent-telescopes", "y-exponent-telescopes",
                     "w-exponent-is-minus-one", "two-exponent-is-n"}


class TestMutationTable:
    """A check name that no mutation of its input or build fails shows nothing."""

    @staticmethod
    def build(target, tmp_path, monkeypatch, mutate=None):
        path = tmp_path / "input.json"
        args = _command(target, path)
        if mutate is not None:
            mutate(monkeypatch, path, args)
        rc, rep = run(args, tmp_path)
        return rc, {(c["name"].split("[")[0], c["status"]) for c in rep["checks"]}

    @pytest.mark.parametrize("target", sorted(MUTATIONS))
    def test_table_covers_every_emitted_name(self, target, tmp_path, monkeypatch):
        rc, rows = self.build(target, tmp_path, monkeypatch)
        assert rc == 0
        errors = {name for name in MUTATIONS[target] if name.endswith("Error")}
        assert {name for name, _ in rows} | errors == set(MUTATIONS[target])

    @pytest.mark.parametrize("target, name", [
        (t, n) for t in sorted(MUTATIONS) for n in sorted(MUTATIONS[t])])
    def test_mutation_fails_its_name(self, target, name, tmp_path, monkeypatch):
        rc, rows = self.build(target, tmp_path, monkeypatch, MUTATIONS[target][name])
        assert rc == 1 and (name, "fail") in rows

    def test_written_x_fails_recursion_identity(self, tmp_path, monkeypatch):
        # the recursion rows read x as companion_x.json holds it: with x_6
        # off by 1 % there, every row from n = 5 on fails, and nothing else
        path = tmp_path / "input.json"
        args = _target_input("companion", path)
        _edit_written_x(monkeypatch, path, args)
        rc, rep = run(["build", "--target", "companion"] + args, tmp_path)
        assert rc == 1
        assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == [
            f"recursion-identity[{n}]" for n in range(5, 16)]

    @pytest.mark.parametrize("target, failing", [
        ("q_blocks", [f"unit-weight[{n}]" for n in (4, 5, 17, 18, 31, 32)]),
        ("symmetric_preimage", ["preimage-residual[0]"])])
    def test_written_vector_off_by_half_fails(self, target, failing, tmp_path,
                                              monkeypatch):
        # the rows read the vectors as the files hold them: with coordinate 2
        # of q_universal.json off by 50 %, every unit weight fails; with it off
        # in preimage_x.json and preimage_y.json, the row of the written pair
        path = tmp_path / "input.json"
        args = _target_input(target, path)
        _faulty_writer(monkeypatch, 2, 1.5)
        rc, rep = run(["build", "--target", target] + args, tmp_path)
        assert rc == 1
        assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == failing

    def test_written_universal_vector_fails_like_its_edit(self, tmp_path, monkeypatch):
        # the rows read z as universal_y.json holds it: z_95 times 10 in the
        # file fails the rows that the same edit of the built z fails
        args = ["build", "--target", "universal_l1", "--blocks", "3"]
        failing = {}
        for name, mutate in (("built", _scaled_block_coordinate),
                             ("written", lambda mp, path, args: _faulty_writer(mp, 94, 10.0))):
            with monkeypatch.context() as mp:
                mutate(mp, None, args)
                (tmp_path / name).mkdir()
                rc, rep = run(args, tmp_path / name)
            failing[name] = rc, [c["name"] for c in rep["checks"] if c["status"] == "fail"]
        assert failing["built"] == failing["written"] == (1, ["universality-residual[2]"])
        z = constructions.gap_schedule_search(3).z
        lm = read_vector(tmp_path / "written" / "universal_y.json").lm
        assert lm[94] == pytest.approx(z.lm[94] + math.log(10.0), rel=1e-15)

    @pytest.mark.parametrize("target, mutate", [
        ("delta_d", _edit_written_f), ("companion", _edit_built_x),
        ("companion", _edit_written_x), ("companion", _wrong_weights)])
    def test_object_edits_pass_exponent_families(self, target, mutate, tmp_path,
                                                 monkeypatch):
        # a finding kept as a test: the exponent families certify the
        # Fibonacci arithmetic of the construction, not the built vector
        rc, rows = self.build(target, tmp_path, monkeypatch, mutate)
        assert rc == 1
        assert not {name for name, status in rows
                    if status == "fail"} & EXPONENT_FAMILIES


@pytest.fixture(scope="module")
def bench_tasks():
    """``bench/tasks.py``, loaded by path and only read: the benchmark's
    output checks."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tasks.py")
    spec = importlib.util.spec_from_file_location("bench_tasks_under_test", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


class TestBenchReportCheck:
    """The benchmark's ``report_all_pass`` reads a family entry's status."""

    ARGS = ["build", "--target", "universal_l1", "--blocks", "3"]

    @staticmethod
    def forced_pass(path):
        # the report's own status set to pass: only the entries can fail it
        rep = json.loads(path.read_text())
        rep["status"] = "pass"
        path.write_text(json.dumps(rep))
        return str(path)

    def test_passing_universal_report(self, bench_tasks, tmp_path):
        rc, rep = run(self.ARGS, tmp_path)
        assert rc == 0 and "phi-bound" in [c["name"] for c in rep["checks"]]
        assert bench_tasks.report_all_pass((rc, str(tmp_path / "report.json")))

    def test_failing_phi_bound_family(self, bench_tasks, tmp_path, monkeypatch):
        args = list(self.ARGS)
        _shrunk_filler(monkeypatch, None, args)
        rc, rep = run(args, tmp_path)
        assert rc == 1
        assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == ["phi-bound"]
        path = tmp_path / "report.json"
        assert not bench_tasks.report_all_pass((0, str(path)))
        assert not bench_tasks.report_all_pass((0, self.forced_pass(path)))

    def test_nan_in_measured_column(self, bench_tasks, tmp_path):
        rep = RunReport("build", {"target": "x"})
        rep.add(check_flag("flag", True, "f"))
        rep.add(CheckFamily("col", "c", 1, np.array([0.0, math.nan]), np.ones(2)))
        path = tmp_path / "report.json"
        rep.finish().write(path)
        assert not bench_tasks.report_all_pass((0, str(path)))
        assert not bench_tasks.report_all_pass((0, self.forced_pass(path)))


class TestClosedFormOracle:
    """The builders read a_n from ``a_closed``; with the values of the literal
    defining sum (``a_naive``) in its place their outputs keep every byte."""

    N = 4200  # past n = 4193, the largest the 3-block gap scan evaluates

    @pytest.fixture(scope="class")
    def naive(self):
        values = a_naive(self.N)
        table = np.array(values, dtype=np.int64)
        return lambda n: table[n] if isinstance(n, np.ndarray) else values[n]

    @staticmethod
    def outputs(tmp_path):
        rng = np.random.default_rng(23)
        y = SeqVector.from_complex(L1, rng.uniform(0.4, 2.5, 120)
                                   * np.exp(1j * rng.uniform(-3, 3, 120)))
        vecs = [companion_x(y), phi_map(y)]
        tmp_path.mkdir()
        rc, _ = run(["build", "--target", "universal_l1", "--blocks", "3"], tmp_path)
        assert rc == 0
        lines = (tmp_path / "report.json").read_bytes().splitlines(True)
        return ([b"".join(a.tobytes() for a in (v.hi, v.lo, v.phase)) for v in vecs],
                b"".join(l for l in lines if b'"wall_time"' not in l),
                (tmp_path / "universal_y.json").read_bytes())

    def test_outputs_byte_equal(self, naive, tmp_path, monkeypatch):
        want = self.outputs(tmp_path / "closed")
        monkeypatch.setattr(constructions, "a_closed", naive)
        assert self.outputs(tmp_path / "naive") == want


class TestConjugateCommand:
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "banded"])
    def test_all_bases_pass(self, kind, tmp_path):
        rc, rep = run(["conjugate", "--basis", kind, "--size", "120",
                       "--samples", "40"], tmp_path)
        assert rc == 0 and rep["status"] == "pass"

    def test_one_factor_map_and_host_operator_per_run(self, tmp_path, monkeypatch):
        # the commutation and push-forward checks share one build_N and its
        # factor map
        counts = {"FactorMap": 0, "HostBilinear": 0}
        for cls in (conjugation.FactorMap, conjugation.HostBilinear):
            def counting(self, basis, init=cls.__init__, name=cls.__name__):
                counts[name] += 1
                init(self, basis)

            monkeypatch.setattr(cls, "__init__", counting)
        rc, _ = run(["conjugate", "--basis", "banded", "--size", "60"], tmp_path)
        assert rc == 0 and counts == {"FactorMap": 1, "HostBilinear": 1}

    def test_identity_commutation_residual_zero(self, tmp_path):
        rc, rep = run(["conjugate", "--basis", "identity", "--size", "80",
                       "--samples", "30"], tmp_path)
        comm = [c for c in rep["checks"] if c["name"] == "commutation"][0]
        assert comm["measured"] <= 1e-14


class TestJuliaCommand:
    def test_factorial_tail_bracket(self, tmp_path):
        d = tmp_path / "dir.json"
        coeffs = [1.0] + [1.0 / math.factorial(i) ** 2 for i in range(1, 60)]
        write_vector(d, SeqVector.from_complex(L1, coeffs))
        rc, rep = run(["julia", "--init", str(d), "--bracket", "1.0", "20.0",
                       "--tol", "1e-6"], tmp_path)
        assert rc == 0
        assert rep["parameters"]["classifications"][0] == "converges_to_zero"
        width = [c for c in rep["checks"] if c["name"] == "bracket-width"][0]
        assert width["measured"] <= 1e-6

    @pytest.mark.parametrize("tol", ["1e-300", "5e-324"])
    def test_tol_below_float_spacing_fails_on_width(self, tol, tmp_path, capsys):
        # the boundary sits near t = 7.62, where doubles are 8.9e-16 apart: no
        # bracket meets tol, so the width check fails on the narrowest
        # bracket whose ends re-verify, and the run is not a bad bracket
        d = tmp_path / "dir.json"
        write_vector(d, factorial_tail_direction(60))
        rc, rep = run(["julia", "--init", str(d), "--bracket", "1.0", "20.0",
                       "--tol", tol], tmp_path)
        assert rc == 1 and rep["status"] == "fail"
        checks = {c["name"]: c for c in rep["checks"]}
        assert list(checks) == ["bracket-width"] and checks["bracket-width"]["status"] == "fail"
        lo, hi = rep["parameters"]["bracket_final"]
        assert 7.0 < lo < hi < 8.0 and hi - lo == checks["bracket-width"]["measured"] < 1e-14
        c_lo, c_hi = rep["parameters"]["classifications"]
        assert c_lo == "converges_to_zero" != c_hi
        assert "bad-bracket" not in capsys.readouterr().err


class TestReportContract:
    def test_every_check_names_its_property(self, tmp_path):
        rc, rep = run(["identities", "--max-n", "40"], tmp_path)
        for c in rep["checks"]:
            assert c["verifies"]
            assert c["status"] in ("pass", "fail", "skip")
            assert "measured" in c and "bound" in c and "margin" in c

    def test_deterministic_reports(self, init_file, tmp_path):
        rc1, rep1 = run(["orbit", "--operator", "m_l1", "--init", init_file,
                         "--steps", "20"], tmp_path, "a.json")
        rc2, rep2 = run(["orbit", "--operator", "m_l1", "--init", init_file,
                         "--steps", "20"], tmp_path, "b.json")
        rep1.pop("wall_time"), rep2.pop("wall_time")
        assert rep1 == rep2

    def test_report_records_every_option(self, tmp_path):
        # each option other than --out and --trace is a key of the report's
        # parameters: an option the report does not record is one nothing reads
        runs = {"build": _command("q_blocks", tmp_path / "q.json")}
        runs.update((name, SUBCOMMANDS[name](tmp_path / f"{name}.json"))
                    for name in ("identities", "orbit", "conjugate", "julia"))
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(runs)
        missing = {}
        for name, argv in runs.items():
            rc, rep = run(argv, tmp_path, f"{name}_report.json")
            assert rc == 0
            options = {a.dest for a in sub.choices[name]._actions
                       if a.option_strings and a.dest not in ("help", "out", "trace")}
            missing[name] = sorted(options - set(rep["parameters"]))
        assert missing == dict.fromkeys(runs, [])

    def test_parser_reuse_keeps_calls_independent(self, tmp_path):
        rc1, rep1 = run(["identities", "--max-n", "30", "--corrupt-cache"], tmp_path, "a.json")
        rc2, rep2 = run(["identities", "--max-n", "30"], tmp_path, "b.json")
        assert (rc1, rc2) == (1, 0)
        assert rep2["parameters"]["corrupt_cache"] is False


def _report_with_checks(checks):
    rep = RunReport("build", {"target": "x", "init": None, "schedule": [0, 3],
                              "nested": {"a": [], "b": {}}})
    rep.extend(checks)
    return rep.finish()


class TestReportLayout:
    AWKWARD = [
        check_leq("plain", 0.5, 1.0, "p", 3),
        check_leq("inf-bound", 2.0, math.inf, "p"),
        Check('brace}, {"name": "x"', "fail", None, -math.inf, 'quote " and \\ }, {"'),
        Check("unicode-é≤", "skip", verifies="line\nbreak"),
        check_flag("flag", True, "f", 0),
    ]

    # columns of indices 3 .. 9: NaN fails its row; inf <= inf passes, with a
    # NaN margin
    FAMILY = CheckFamily(
        "col", "c", 3,
        np.array([math.nan, -math.inf, 2.0, 3.5, -1e-300, 0.1 + 0.2, math.inf]),
        np.array([1.0, 0.0, math.inf, 3.0, 0.0, 0.3, math.inf]))
    # (measured, bound) pairs with a non-finite value or a rounding edge
    SPECIAL = [(math.nan, 1.0), (-math.inf, 0.0), (2.0, math.inf), (3.5, 3.0),
               (-1e-300, 0.0), (0.1 + 0.2, 0.3), (math.inf, math.inf)]

    @classmethod
    def _family(cls, rows):
        """A family of indices 0 .. rows-1: random columns with the special
        pairs spread from the first row to the last (a NaN and inf <= inf
        when there are only two rows)."""
        rng = np.random.default_rng(rows)
        measured, bound = rng.uniform(-2.0, 2.0, (2, rows))
        pairs = cls.SPECIAL if rows >= len(cls.SPECIAL) else [cls.SPECIAL[0],
                                                                cls.SPECIAL[-1]]
        at = np.linspace(0, rows - 1, len(pairs)).round().astype(int)
        measured[at], bound[at] = np.array(pairs).T
        return CheckFamily("big", "b", 0, measured, bound)

    @pytest.mark.parametrize("rows", [1024, 2])
    def test_text_parses_to_report_with_one_line_per_check(self, tmp_path, rows):
        rep = _report_with_checks(self.AWKWARD[:2] + [self.FAMILY] + self.AWKWARD[2:]
                                  + [self._family(rows)])
        path = tmp_path / "r.json"
        rep.write(path)
        text = path.read_text(encoding="utf-8")
        # key order too: dumps of both sides must agree
        assert json.dumps(json.loads(text)) == json.dumps(rep.to_json())
        lines = text.splitlines()
        start = lines.index('  "checks": [')
        entries = rep.to_json()["checks"]
        body = lines[start + 1: start + 1 + len(entries)]
        assert lines[start + 1 + len(entries)] == "  ],"
        for line, entry in zip(body, entries):
            assert line.startswith("    {")
            assert json.loads(line.strip().rstrip(",")) == entry
        assert body[2] == "    " + json.dumps(self.FAMILY.to_json()) + ","
        assert body[-1] == "    " + json.dumps(rep.checks[-1].to_json())

    @pytest.mark.parametrize("rows", [1024, 2])
    def test_family_writes_the_bytes_of_its_rows(self, tmp_path, rows):
        fam = self._family(rows)
        rep = _report_with_checks(self.AWKWARD[:2] + [fam] + self.AWKWARD[2:])
        rep.write(tmp_path / "r.json")
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        lines = text.splitlines()
        line = lines[lines.index('  "checks": [') + 3]
        assert line == "    " + json.dumps(fam.to_json()) + ","

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        entry = json.loads(line.strip().rstrip(","), parse_constant=reject)
        rows_ = [check_leq(fam.name, m, b, fam.verifies, fam.first + k)
                 for k, (m, b) in enumerate(zip(fam.measured, fam.bound))]
        row_json = [c.to_json() for c in rows_]
        # each value has the text the row would write for it
        for key in ("measured", "bound"):
            assert json.dumps(entry[key]) == json.dumps([r[key] for r in row_json])
        assert entry["failing"] == [c.index for c in rows_ if not c.ok]
        assert entry["status"] == rep.status == "fail" and not rep.ok
        assert (rows_[0].status, rows_[-1].status) == ("fail", "pass")  # NaN, inf <= inf
        margins = [c.margin for c in rows_]
        nans = [k for k, m in enumerate(margins) if math.isnan(m)]
        worst = nans[0] if nans else max(range(rows), key=margins.__getitem__)
        assert entry["worst_index"] == fam.first + worst
        assert json.dumps(entry["worst_margin"]) == json.dumps(row_json[worst]["margin"])

    def test_family_is_one_entry_with_the_status_of_its_rows(self):
        fam = self.FAMILY
        rows = [check_leq(fam.name, m, b, fam.verifies, fam.first + k)
                for k, (m, b) in enumerate(zip(fam.measured, fam.bound))]
        assert [c.status for c in rows] == ["fail", "pass", "pass", "fail", "pass",
                                            "fail", "pass"]
        assert len(fam) == 7 and not fam.ok
        assert fam.to_json() == {
            "name": "col", "status": "fail", "verifies": "c", "first": 3,
            "measured": ["nan", "-inf", 2.0, 3.5, -1e-300, 0.1 + 0.2, "inf"],
            "bound": [1.0, 0.0, "inf", 3.0, 0.0, 0.3, "inf"],
            "failing": [c.index for c in rows if not c.ok],
            # a NaN margin counts as the largest
            "worst_index": 3, "worst_margin": "nan"}
        # without a NaN, the largest margin of the rows and its index
        ok = CheckFamily("ok", "c", 10, np.array([1.0, -math.inf, 2.0]),
                         np.array([2.0, 0.0, 2.25]))
        got = ok.to_json()
        assert (ok.ok, got["status"], got["failing"]) == (True, "pass", [])
        assert (got["worst_index"], got["worst_margin"]) == (12, -0.25)

    def test_family_alone_decides_status(self):
        ok = CheckFamily("f", "v", 1, np.zeros(3), np.ones(3))
        rep = _report_with_checks([check_flag("flag", True, "f"), ok])
        assert rep.ok and rep.status == "pass"
        rep.add(CheckFamily("g", "v", 1, np.array([0.0, math.nan]), np.ones(2)))
        assert not rep.ok and rep.status == "fail"

    def test_nan_measurement_fails_and_stays_strict_json(self, tmp_path):
        rep = _report_with_checks([check_leq("nan", math.nan, 1e-9, "p"),
                                   check_leq("inf", -math.inf, 1e-9, "p")])
        assert [c.status for c in rep.checks] == ["fail", "pass"] and not rep.ok
        rep.write(tmp_path / "r.json")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        got = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
        nan, inf = got["checks"]
        assert nan["measured"] == nan["margin"] == "nan"
        assert inf["measured"] == inf["margin"] == "-inf"
        # a family's non-finite values too
        rep.add(self.FAMILY)
        rep.write(tmp_path / "f.json")
        got = json.loads((tmp_path / "f.json").read_text(), parse_constant=reject)
        assert got["checks"][2] == self.FAMILY.to_json()

    def test_empty_checks_keep_the_indented_layout(self, tmp_path, capsys):
        rep = _report_with_checks([])
        rep.write(tmp_path / "r.json")
        text = (tmp_path / "r.json").read_text(encoding="utf-8")
        assert text == json.dumps(rep.to_json(), indent=2) + "\n"
        rep.write()
        assert capsys.readouterr().out == text

    def test_stdout_path(self, capsys):
        assert main(["identities", "--max-n", "20"]) == 0
        out = capsys.readouterr().out
        rep = json.loads(out)
        lines = out.splitlines()
        assert len(rep["checks"]) == 3
        assert sum(line.startswith('    {"name": ') for line in lines) == 3
