"""Command-line interface: exit codes, report format, traces, determinism."""

import json
import math
import os

import numpy as np
import pytest

from hyperorbit.arith import ASeq
from hyperorbit.cli import main
from hyperorbit.constructions import companion_x
from hyperorbit import report
from hyperorbit.report import Check, RunReport, check_flag, check_leq
from hyperorbit.spaces import (
    SeqVector,
    SpaceTag,
    WeightSeq,
    shift_pow,
    write_vector,
)

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

    def test_minimal_range(self, tmp_path):
        rc, rep = run(["identities", "--max-n", "3", "--a-max", "5"], tmp_path)
        assert rc == 0

    def test_corrupted_cache_fails(self, tmp_path):
        rc, rep = run(["identities", "--max-n", "60", "--corrupt-cache"], tmp_path)
        assert rc == 1 and rep["status"] == "fail"

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

    def test_companion_orbit_hits_target_weights(self, tmp_path):
        # even states of the companion pair are 2^n n!^2 B_w^n(y)
        rng = np.random.default_rng(21)
        y = SeqVector.from_complex(L1, rng.uniform(0.5, 2.0, 40))
        w = WeightSeq.inv_squares()
        x = companion_x(y, w, ASeq(42))
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
            got = np.array([c[0] for c in rec["coords"]])
            want_c = np.exp(scale) * want.to_complex().real
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

    def test_unknown_target(self, tmp_path):
        rc = main(["build", "--target", "nope"])
        assert rc == 2


class TestConjugateCommand:
    @pytest.mark.parametrize("kind", ["identity", "diagonal", "banded"])
    def test_all_bases_pass(self, kind, tmp_path):
        rc, rep = run(["conjugate", "--basis", kind, "--size", "120",
                       "--samples", "40"], tmp_path)
        assert rc == 0 and rep["status"] == "pass"

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


class TestReportContract:
    def test_every_check_names_its_property(self, tmp_path):
        rc, rep = run(["identities", "--max-n", "40"], tmp_path)
        for c in rep["checks"]:
            assert c["verifies"]
            assert c["status"] in ("pass", "fail", "skip")
            assert "measured" in c and "bound" in c and "margin" in c

    def test_deterministic_reports(self, init_file, tmp_path):
        rc1, rep1 = run(["orbit", "--operator", "m_l1", "--init", init_file,
                         "--steps", "20", "--seed", "7"], tmp_path, "a.json")
        rc2, rep2 = run(["orbit", "--operator", "m_l1", "--init", init_file,
                         "--steps", "20", "--seed", "7"], tmp_path, "b.json")
        rep1.pop("wall_time"), rep2.pop("wall_time")
        assert rep1 == rep2

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

    @pytest.mark.parametrize("per_call", [1024, 2])
    def test_text_parses_to_report_with_one_line_per_check(self, per_call, tmp_path,
                                                           monkeypatch):
        monkeypatch.setattr(report, "_CHECKS_PER_CALL", per_call)
        rep = _report_with_checks(self.AWKWARD)
        path = tmp_path / "r.json"
        rep.write(path)
        text = path.read_text(encoding="utf-8")
        # key order too: dumps of both sides must agree
        assert json.dumps(json.loads(text)) == json.dumps(rep.to_json())
        lines = text.splitlines()
        start = lines.index('  "checks": [')
        body = lines[start + 1: start + 1 + len(self.AWKWARD)]
        assert lines[start + 1 + len(self.AWKWARD)] == "  ],"
        for line, check in zip(body, rep.to_json()["checks"]):
            assert line.startswith("    {")
            assert json.loads(line.strip().rstrip(",")) == check

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
