import json

import numpy as np
import pytest

from polyjac import PolySystem, load_system_json
from polyjac.cli import main
from polyjac.presets import CIRCLE_CUBIC_ROOT_POS, circle_cubic_system
from polyjac.system import dump_system_json


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dump_system_json(circle_cubic_system())))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_solve_converged_is_zero(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["--out", str(out), "solve", "circle-cubic", "--x0", "0.5,1.0"]) == 0

    def test_missing_file_is_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1
        assert "cannot read input" in capsys.readouterr().err

    def test_bad_subcommand_is_one(self, capsys):
        assert main(["frobnicate", "circle-cubic"]) == 1

    def test_bad_state_length_is_one(self, capsys):
        assert main(["solve", "circle-cubic", "--x0", "1.0"]) == 1

    def test_numerical_failure_is_two(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(
            ["--out", str(out), "solve", "circle-cubic", "--max-iter", "1", "--tol", "1e-14",
             "--x0", "0.5,1.0", "--method", "jacobi"]
        )
        assert code == 2
        assert read_json(str(out))["status"] != "converged"

    def test_singular_jacobian_is_two(self, tmp_path):
        # f(U) = U^2 - 1 has a singular Jacobian at U0 = 0
        s = PolySystem(L=np.zeros((1, 1)), quad=np.ones((1, 1, 1)),
                       cubic=np.zeros((1, 1, 1, 1)), const=-np.ones(1))
        path, out = tmp_path / "system.json", tmp_path / "t.json"
        path.write_text(json.dumps(dump_system_json(s)))
        assert main(["--out", str(out), "solve", str(path), "--x0", "0", "--method", "newton"]) == 2
        assert read_json(str(out))["status"] == "singular_jacobian"

    def test_integrate_divergence_is_two(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(
            ["--format", "csv", "--out", str(out), "integrate", "burgers", "--n", "32",
             "--re", "100", "--h", "2.0", "--steps", "50"]
        )
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_malformed_json_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1


class TestMalformedInput:
    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            {"n": [2], "L": [[1.0]], "F": [1.0]},
            {"n": 2, "rhs": [1]},
            {"n": 2, "rhs": {"op": "sum", "children": [1]}},
            {"n": 2, "rhs": {"op": "linear", "matrix": np.eye(3).tolist()}},
            {"n": 2, "rhs": {"op": "linear", "matrix": np.ones((3, 2)).tolist()}},
        ],
        ids=[
            "top-level-list",
            "non-integer-n",
            "rhs-list",
            "child-not-object",
            "dim-mismatch",
            "output-length-mismatch",
        ],
    )
    def test_exits_one_with_one_line(self, tmp_path, capsys, doc):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main(["integrate", str(path), "--h", "0.1", "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestSolve:
    def test_json_trace_reloadable_and_accurate(self, tmp_path, system_file):
        out = tmp_path / "trace.json"
        assert main(["--out", str(out), "solve", system_file, "--x0", "0.5,1.0"]) == 0
        d = read_json(str(out))
        assert d["status"] == "converged"
        final = np.array(d["iterates"][-1])
        assert final[0] == pytest.approx(CIRCLE_CUBIC_ROOT_POS[0], abs=1e-8)
        assert final[1] == pytest.approx(CIRCLE_CUBIC_ROOT_POS[1], abs=1e-8)

    def test_csv_trace_parseable(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(
            ["--format", "csv", "--out", str(out), "solve", "circle-cubic", "--x0", "0.5,1.0"]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iter,U0,U1,residual"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(CIRCLE_CUBIC_ROOT_POS[0], abs=1e-6)

    def test_sor_unit_omega_matches_gauss_seidel(self, tmp_path):
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps({
            "n": 2,
            "L": [[2.0, 0.3], [0.2, 2.5]],
            "quadratic": [[0, 0, 0, 0.1], [1, 1, 1, 0.1]],
            "cubic": [],
            "F": [-1.0, -1.0],
        }))
        a = tmp_path / "gs.json"
        b = tmp_path / "sor.json"
        base = ["solve", str(sys_file), "--x0", "1.0,1.0", "--tol", "1e-10"]
        assert main(["--out", str(a)] + base + ["--method", "gauss-seidel"]) == 0
        assert main(["--out", str(b)] + base + ["--method", "sor", "--omega", "1.0"]) == 0
        da, db = read_json(str(a)), read_json(str(b))
        assert da["iterates"] == db["iterates"]

    def test_all_root_finders_agree(self, tmp_path):
        finals = []
        for method in ("newton", "classic-rank1", "modified-rank1"):
            out = tmp_path / f"{method}.json"
            assert main(
                ["--out", str(out), "solve", "circle-cubic", "--method", method,
                 "--x0", "0.5,1.0"]
            ) == 0
            finals.append(np.array(read_json(str(out))["iterates"][-1]))
        for f in finals[1:]:
            assert np.abs(f - finals[0]).max() <= 1e-8


class TestCheckJacobian:
    def test_report_shape_and_tolerances(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--seed", "3", "--out", str(out), "check-jacobian", "circle-cubic"]) == 0
        d = read_json(str(out))
        assert d["states_checked"] == 20
        assert d["max_fd_rel_error"] < 1e-6
        for r in d["reports"]:
            assert r["identity_residual_quadratic"] < 1e-10
            assert r["identity_residual_cubic"] < 1e-10

    def test_seeded_runs_bit_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["--seed", "42", "check-jacobian", "circle-cubic", "--random-states", "5"]
        assert main(["--out", str(a)] + argv) == 0
        assert main(["--out", str(b)] + argv) == 0
        assert a.read_text() == b.read_text()

    def test_explicit_state(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["--out", str(out), "check-jacobian", "circle-cubic", "--state", "1.0,1.0"]
        ) == 0
        d = read_json(str(out))
        assert d["states_checked"] == 1
        assert d["reports"][0]["state"] == [1.0, 1.0]

    def test_supplied_exact_jacobian_deviates_near_zero(self, tmp_path):
        J = circle_cubic_system().jacobian(np.array([1.0, 1.0]))
        jac_file = tmp_path / "J.json"
        jac_file.write_text(json.dumps(J.tolist()))
        out = tmp_path / "r.json"
        assert main(
            ["--out", str(out), "check-jacobian", "circle-cubic", "--state", "1.0,1.0",
             "--jacobian", str(jac_file)]
        ) == 0
        assert read_json(str(out))["max_deviation"] < 1e-12

    def test_wrong_shape_jacobian_is_usage_error(self, tmp_path, capsys):
        jac_file = tmp_path / "J.json"
        jac_file.write_text("[[1.0]]")
        assert main(["check-jacobian", "circle-cubic", "--jacobian", str(jac_file)]) == 1


class TestStability:
    def test_burgers_report_fields(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["--out", str(out), "stability", "burgers", "--n", "32", "--re", "100"]) == 0
        d = read_json(str(out))
        assert d["dimension"] == 32
        assert 0.0 < d["burgers_a_priori_bound"] <= d["euler_bound_linf"] * (1 + 1e-12)
        assert d["rk4_bound_linf"] == pytest.approx(1.3925 * d["euler_bound_linf"])

    def test_negdef_certificate_on_decay_system(self, tmp_path):
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps({
            "n": 2,
            "L": [[-2.0, 0.0], [0.0, -3.0]],
            "quadratic": [],
            "cubic": [],
            "F": [0.0, 0.0],
        }))
        out = tmp_path / "s.json"
        assert main(["--out", str(out), "stability", str(sys_file), "--state", "1.0,1.0"]) == 0
        d = read_json(str(out))
        assert d["negdef_certificate"] is True
        assert d["euler_bound_linf"] == pytest.approx(2.0 / 3.0)
        assert d["pseudo_jacobian_bound_relaxed"] <= d["pseudo_jacobian_bound_tight"] * (1 + 1e-12)


class TestIntegrate:
    def test_csv_trajectory_shape(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(
            ["--format", "csv", "--out", str(out), "integrate", "burgers", "--n", "16",
             "--re", "50", "--h", "0.001", "--steps", "10", "--report"]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t," + ",".join(f"U{i}" for i in range(16)) + ",h_bound,negdef"
        assert len(lines) == 12  # header + initial state + 10 steps

    def test_json_trajectory_reloadable(self, tmp_path):
        out = tmp_path / "traj.json"
        assert main(
            ["--out", str(out), "integrate", "circle-cubic", "--method", "implicit-euler",
             "--h", "0.01", "--steps", "5", "--x0", "0.1,0.1"]
        ) == 0
        d = read_json(str(out))
        assert d["status"] == "completed"
        assert len(d["states"]) == 6

    def test_scan_reports_threshold_above_bound(self, tmp_path):
        out = tmp_path / "scan.json"
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps({
            "n": 1, "L": [[-1.0]], "quadratic": [], "cubic": [], "F": [0.0],
        }))
        assert main(
            ["--out", str(out), "integrate", str(sys_file), "--scan", "--h-lo", "1.0",
             "--h-hi", "4.0", "--horizon", "1500", "--x0", "1.0"]
        ) == 0
        d = read_json(str(out))
        assert d["blowup_threshold"] == pytest.approx(2.0, rel=0.02)

    def test_scan_without_bracket_is_usage_error(self, capsys):
        assert main(["integrate", "circle-cubic", "--scan"]) == 1

    def test_missing_h_is_usage_error(self, capsys):
        assert main(["integrate", "circle-cubic"]) == 1


class TestRoundTrip:
    def test_dumped_system_file_round_trips_through_cli_input(self, tmp_path, system_file):
        s = load_system_json(read_json(system_file))
        s2 = circle_cubic_system()
        np.testing.assert_allclose(s.L, s2.L)
        np.testing.assert_allclose(s.quad, s2.quad)
        out = tmp_path / "trace.json"
        assert main(["--out", str(out), "solve", system_file, "--x0=-1.0,0.2"]) == 0
        assert read_json(str(out))["status"] == "converged"
