import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import paracyl.checks as checks
import paracyl.cli as cli
import paracyl.field as field
import paracyl.ljmodel as ljmodel
from paracyl.checks import CheckResult, field_suite, free_suite, lj_suite
from paracyl.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from paracyl.pcf import pcf_poly
from paracyl.polys import DEGREE_CAP


SRC = Path(cli.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_matches_closed_forms(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "5")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "D_0(z) = exp(-z^2/4)"
        assert lines[1] == "D_1(z) = z exp(-z^2/4)"
        assert lines[2] == "D_2(z) = (z^2 - 1) exp(-z^2/4)"
        assert lines[3] == "D_3(z) = (z^3 - 3z) exp(-z^2/4)"
        assert lines[4] == "D_4(z) = (z^4 - 6z^2 + 3) exp(-z^2/4)"
        assert lines[5] == "D_5(z) = (z^5 - 10z^3 + 15z) exp(-z^2/4)"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "0")
        assert code == EXIT_OK
        assert out.splitlines() == ["D_0(z) = exp(-z^2/4)"]

    def test_extends_beyond_the_closed_form_table(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "7")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert len(lines) == 8
        assert lines[6].startswith("D_6(z) = (z^6 - 15z^4 + 45z^2 - 15)")
        assert lines[7].startswith("D_7(z) = (z^7 - 21z^5 + 105z^3 - 105z)")

    def test_streamed_ladder_renders_like_pcf_poly(self, capsys):
        code, out, _ = run(capsys, "table", "--n", str(DEGREE_CAP))
        assert code == EXIT_OK
        assert out.splitlines() == [cli._table_line(n, pcf_poly(n).poly.coeffs) for n in range(DEGREE_CAP + 1)]

    def test_cap_exceeded_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table", "--n", "500")
        assert code == EXIT_USAGE
        assert "error" in err


class TestEval:
    def test_single_point_default(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "2")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[1] == "x,z,D_n,psi_n"
        assert lines[2] == "0,0,-1,-0.531125966014"

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "0", "--lo", "-1", "--hi", "1", "--step", "0.5")
        rows = out.splitlines()[2:]
        assert code == EXIT_OK
        assert len(rows) == 5
        assert rows[2].startswith("0,0,1,")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mu", "1e308", "--omega", "1e308"],  # z_scale overflows
            ["--mu", "1e-308", "--omega", "1e-308"],
            ["--hbar", "1e-300", "--omega", "1e-300"],  # E_n underflows to 0
        ],
    )
    def test_out_of_range_derived_scales_are_usage_errors(self, capsys, flags):
        code, out, err = run(capsys, "eval", "--n", "3", *flags, "--lo", "0", "--hi", "1", "--step", "0.5")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("n", ["-1", "201"])
    def test_order_outside_the_cap_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "eval", "--n", n)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: order")

    def test_overflowing_level_fails_before_any_output(self, capsys):
        # printed E_n=inf in its header
        argv = ["--n", "200", "--omega", "1e306", "--lo", "0", "--hi", "1e-150", "--step", "1e-150"]
        code, out, err = run(capsys, "eval", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: energy E_200 = hbar omega (n + 1/2) overflows\n"


class TestGridLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--lo", "0", "--hi", "1", "--step", "1e-6"],  # one row over the limit
            ["eval", "--lo", "0", "--hi", "1", "--step", "1e-12"],
            ["eval", "--lo", "0", "--hi", "1", "--step", "1e-320"],  # count overflows a float
            ["figure1", "--lo", "0", "--hi", "1", "--step", "1e-12"],
            ["eval", "--lo", "0", "--hi", "1", "--step", "inf"],  # one row at lo + inf * 0 = nan
            ["figure1", "--lo", "0", "--hi", "1", "--step", "inf"],
            ["eval", "--lo", "nan", "--hi", "1", "--step", "0.5"],
            ["eval", "--lo", "0", "--hi", "5e-323", "--step", "5e-324"],  # subnormal step
            ["figure2", "--sigma", "1e-320"],  # subnormal r step 0.005 sigma
        ],
    )
    def test_oversized_grid_fails_on_the_count_before_allocating(self, capsys, monkeypatch, tmp_path, argv):
        def no_allocation(*args, **kwargs):
            raise AssertionError("grid allocated before its row count was checked")

        monkeypatch.setattr(cli.np, "arange", no_allocation)
        if argv[0].startswith("figure"):
            argv = [*argv, "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_subnormal_z_step_is_usage_error(self, capsys):
        # x step 1e-300 is normal; z_scale = sqrt(2e-20) takes the z step to 1.4e-310
        code, out, err = run(
            capsys, "eval", "--mu", "1e-10", "--omega", "1e-10", "--lo", "0", "--hi", "1e-299", "--step", "1e-300"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: z step")

    def test_smallest_normal_step_is_allowed(self, capsys):
        step = repr(sys.float_info.min)
        code, out, _ = run(capsys, "eval", "--lo", "0", "--hi", step, "--step", step)
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4

    def test_grid_at_the_row_limit_is_allowed(self):
        assert len(cli._grid(0.0, 0.999999, 1e-6)) == cli.MAX_GRID_ROWS

    def test_grid_matches_the_stepped_sum(self):
        lo, step = -6.0, 0.05
        assert cli._grid(lo, 6.0, step).tolist() == [lo + i * step for i in range(241)]


class TestSpectrum:
    def test_ladder(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "3", "--omega", "2")
        assert code == EXIT_OK
        assert out.splitlines() == ["n,E_n", "0,1", "1,3", "2,5", "3,7"]

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["--omega", "1e-320", "--mu", "1e16"], "omega"),  # printed 4.99994433591e-321 for 5e-321
            (["--omega", "1e-318", "--mu", "1e14"], "omega"),
            (["--omega", "1e-300", "--mu", "1e14", "--hbar", "1e-10"], "level spacing hbar omega"),
        ],
    )
    def test_subnormal_parameter_or_spacing_is_usage_error(self, capsys, argv, name):
        code, out, err = run(capsys, "spectrum", "--n", "1", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {name} = ") and "is subnormal" in err
        assert len(err.splitlines()) == 1

    def test_overflowing_level_fails_before_any_output(self, capsys):
        # printed 2,inf and 3,inf after the levels 0 and 1
        code, out, err = run(capsys, "spectrum", "--n", "3", "--omega", "1e300", "--hbar", "1e8")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: energy E_3 = hbar omega (n + 1/2) overflows\n"

    def test_largest_finite_level_is_printed(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "1", "--omega", "1e300", "--hbar", "1e8")
        assert code == EXIT_OK
        assert out.splitlines() == ["n,E_n", "0,5e+307", "1,1.5e+308"]


class TestField:
    def test_continuous_branch(self, capsys):
        code, out, _ = run(capsys, "field", "--q", "1", "--efield", "1", "--n", "2")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "gamma = 0.707106781187"
        assert lines[1] == "gamma^2 = 0.5"
        assert lines[2] == "x_min = -1"
        assert lines[3] == "e_min = -0.5"
        assert lines[4] == "n,E_n"
        # gamma^2 carries one rounding from squaring fl(1/sqrt(2)), so the
        # ladder values are compared numerically
        for row, expected in zip(lines[5:], (0.0, 1.0, 2.0)):
            n_s, e_s = row.split(",")
            assert float(e_s) == pytest.approx(expected, abs=1e-14)

    def test_integer_branch(self, capsys):
        code, out, _ = run(capsys, "field", "--gamma-sq", "1", "--n", "1")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert "m,E_m,pcf_index" in lines
        idx = lines.index("m,E_m,pcf_index")
        assert lines[idx + 1 :] == ["-1,-0.5,0", "0,0.5,1", "1,1.5,2"]

    def test_negative_n_fails_before_any_output(self, capsys):
        code, out, err = run(capsys, "field", "--n", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --n must be non-negative\n"

    def test_bad_gamma_sq_is_usage_error(self, capsys):
        code, _, err = run(capsys, "field", "--gamma-sq", "0")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_overflowing_charge_field_product_is_usage_error(self, capsys):
        code, out, err = run(capsys, "field", "--q", "1e308", "--efield", "1e308")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "q E" in err

    @pytest.mark.parametrize("omega", ["1e120", "1e-120"])
    @pytest.mark.parametrize("branch", [["--q", "1", "--efield", "1"], ["--gamma-sq", "2"]])
    def test_field_unit_out_of_range_is_usage_error(self, capsys, omega, branch):
        # omega^3 overflows (1e120) or underflows to 0 (1e-120).
        code, out, err = run(capsys, "field", "--omega", omega, *branch)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: derived field unit sqrt(2 mu hbar omega^3) = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("branch", [["--q", "1e-200", "--efield", "1"], ["--gamma-sq", "2"]])
    def test_subnormal_field_unit_radicand_is_usage_error(self, capsys, branch):
        # 2 mu hbar omega^3 = 2e-315 is subnormal: gamma would read 2.2360679792e-43, not ...775e-43.
        code, out, err = run(capsys, "field", "--omega", "1e-105", *branch)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: derived field unit sqrt(2 mu hbar omega^3) = ")
        assert "subnormal" in err and err.count("\n") == 1

    @pytest.mark.parametrize("q", ["1e-170", "1e-160"])
    def test_depth_of_a_tiny_coupling_matches_mpmath(self, capsys, q):
        # (q E)^2 underflows: e_min read -0 and -4.99994433591e-121.
        code, out, _ = run(capsys, "field", "--omega", "1e-100", "--q", q, "--efield", "1")
        assert code == EXIT_OK
        label, value = out.splitlines()[3].split(" = ")
        with mpmath.workdps(40):
            want = -(mpmath.mpf(float(q)) ** 2) / (2 * mpmath.mpf(1e-100) ** 2)
        assert label == "e_min"
        assert float(value) == pytest.approx(float(want), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize(
        "argv,level",
        [
            (["--q", "0", "--n", "1000", "--hbar", "1e306"], "E_1000 = hbar omega (n + 1/2 - gamma^2)"),
            (["--gamma-sq", "1", "--n", "10000", "--hbar", "1e306"], "E_10000 = hbar omega (m + 1/2)"),
        ],
    )
    def test_overflowing_level_fails_before_any_output(self, capsys, argv, level):
        code, out, err = run(capsys, "field", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: energy {level} overflows\n"


class TestLadderLimits:
    @pytest.mark.parametrize(
        "argv,rows",
        [
            (["field", "--gamma-sq", "1000000000", "--n", "1"], 1000000002),
            (["field", "--gamma-sq", "999999"], 1999999),
            (["lj", "--gamma-sq", "1000001"], 1000001),
            (["figure2", "--gamma-sq", "1000000000"], 1000000000),
            (["verify", "--gamma-sq", "499999"], 1000001),
            (["verify", "--suite", "field", "--gamma-sq", "1000000000"], 2000000003),
            (["verify", "--suite", "lj", "--gamma-sq", "1000001"], 1000001),
            (["spectrum", "--n", "1000000000000"], 1000000000001),
            (["field", "--n", "1000000"], 1000001),
        ],
    )
    def test_oversized_ladder_fails_on_the_count_before_building(
        self, capsys, monkeypatch, tmp_path, argv, rows
    ):
        def no_ladder(*args, **kwargs):
            raise AssertionError("ladder built before its row count was checked")

        # The handlers import the field, L-J and check builders when they run,
        # so those are replaced in their home modules; checks holds its own copies.
        monkeypatch.setattr(cli, "energy", no_ladder)
        for module, builder in (
            (field, "integer_branch_spectrum"),
            (field, "energy_shifted"),
            (ljmodel, "bound_levels"),
            (checks, "free_suite"),
            (checks, "integer_branch_spectrum"),
            (checks, "bound_levels"),
        ):
            monkeypatch.setattr(module, builder, no_ladder)
        if argv[0] == "figure2":
            argv = [*argv, "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: ladder of {rows} rows exceeds the limit of {cli.MAX_GRID_ROWS}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_ladder_at_the_row_limit_is_allowed(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(field, "integer_branch_spectrum", lambda *args: built.append(args) or [])
        code, _, _ = run(capsys, "field", "--gamma-sq", "999999", "--n", "0")
        assert code == EXIT_OK
        assert [(g, m_max) for g, m_max, _ in built] == [(999999, 0)]  # m = -999999 .. 0


class TestLj:
    def test_ladder_and_estimate(self, capsys):
        code, out, _ = run(capsys, "lj", "--epsilon", "1", "--gamma-sq", "2", "--delta-e", "0.5")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert "r_min = 1.12246204831" in lines
        assert "u_min = -1" in lines
        assert "level_spacing = 0.5" in lines
        idx = lines.index("m,E_m")
        assert lines[idx + 1 : idx + 3] == ["-2,-0.75", "-1,-0.25"]
        assert "estimated_gamma_sq = 2" in lines
        assert "estimate_residual = 0" in lines

    @pytest.mark.parametrize("command", ["lj", "figure2"])
    def test_overflowing_minimum_is_a_usage_error(self, capsys, tmp_path, command):
        out_csv = tmp_path / "x.csv"
        argv = [command, "--sigma", "1.7976931348623157e308"]
        if command == "figure2":
            argv += ["--out", str(out_csv)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: well minimum r_min = 2^(1/6) sigma overflows for sigma = 1.7976931348623157e+308\n"
        assert not out_csv.exists()

    def test_spacing_above_depth_prints_one_plain_warning(self, capsys):
        code, out, err = run(capsys, "lj", "--gamma-sq", "5000", "--delta-e", "0.3", "--epsilon", "7e-21")
        assert code == EXIT_OK
        assert err == "warning: level spacing 0.3 exceeds well depth 7e-21; clamping gamma_sq to 1\n"
        for raw in ("UserWarning", ".py:", "Traceback"):
            assert raw not in err
        lines = out.splitlines()
        assert lines[-2:] == ["estimated_gamma_sq = 1", f"estimate_residual = {format(1.0 - 7e-21 / 0.3, '.12g')}"]
        assert len(lines) == 5 + 5000 + 2

    def test_spacing_warning_is_plain_through_the_console(self):
        proc = subprocess.run(
            [sys.executable, "-m", "paracyl.cli", "lj", "--delta-e", "2", "--epsilon", "1"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == "warning: level spacing 2.0 exceeds well depth 1.0; clamping gamma_sq to 1\n"

    @pytest.mark.parametrize("epsilon,delta_e", [("1", "1e-320"), ("1e308", "1e-300")])
    def test_overflowing_estimate_fails_before_any_output(self, capsys, epsilon, delta_e):
        code, out, err = run(capsys, "lj", "--epsilon", epsilon, "--delta-e", delta_e)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: epsilon / delta_e overflows")


class TestSubnormalLjParameters:
    @pytest.mark.parametrize(
        "argv,name",
        [
            (["lj", "--gamma-sq", "3", "--sigma", "1e-320"], "sigma"),  # printed r_min = 1.12251714735e-320
            (["figure2", "--epsilon", "1e-320"], "epsilon"),  # wrote the level -8.74990258785e-321
            (["verify", "--suite", "lj", "--sigma", "1e-320"], "sigma"),  # reported FAIL minimum-search
            (["verify", "--suite", "all", "--epsilon", "1e-320"], "epsilon"),
        ],
    )
    def test_is_usage_error_before_any_output(self, capsys, tmp_path, argv, name):
        if argv[0] == "figure2":
            argv = [*argv, "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {name} = ") and "is subnormal" in err
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestSubnormalLjLevel:
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure2"],  # wrote the level -1,-1.14999999998e-313
            ["lj"],
            ["verify", "--suite", "lj"],
            ["verify", "--suite", "all"],
        ],
    )
    def test_is_usage_error_before_any_output(self, capsys, tmp_path, argv):
        argv = [*argv, "--epsilon", "2.3e-308", "--gamma-sq", "100000"]
        if argv[0] == "figure2":
            argv = [*argv, "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: smallest level epsilon / (2 gamma_sq) = 1.15e-313 is below")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_smallest_normal_level_is_allowed(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        epsilon = repr(2 * sys.float_info.min)
        code, _, _ = run(capsys, "figure2", "--epsilon", epsilon, "--gamma-sq", "1", "--out", str(out_path))
        assert code == EXIT_OK
        assert (tmp_path / "x_levels.csv").read_text().splitlines() == ["m,E_m", "-1,-2.22507385851e-308"]


class TestFigure1:
    def test_default_grid(self, capsys, tmp_path):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "figure1", "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        assert code == EXIT_OK
        assert lines[0] == "z,D0,D1,D2,D3"
        assert len(lines) == 242  # header + 241 rows
        assert "0,1,0,-1,0" in lines

    def test_boundary_decay(self, capsys, tmp_path):
        # |D_3(+-6)| is about 0.0244, and all four fall below 1e-3 once
        # |z| >= 8 (the Gaussian factor wins over the cubic).
        out_path = tmp_path / "wide.csv"
        run(capsys, "figure1", "--lo", "-10", "--hi", "10", "--step", "0.1", "--out", str(out_path))
        for line in out_path.read_text().splitlines()[1:]:
            values = [float(v) for v in line.split(",")]
            if abs(values[0]) >= 6.0:
                assert all(abs(v) < 0.025 for v in values[1:])
            if abs(values[0]) >= 8.0:
                assert all(abs(v) < 1e-3 for v in values[1:])

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "figure1", "--out", str(a))
        run(capsys, "figure1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_reversed_range_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure1", "--lo", "6", "--hi", "-6", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert "error" in err

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "figure1", "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == EXIT_IO
        assert "I/O error" in err


class TestFigure2:
    def test_curves_and_levels(self, capsys, tmp_path):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "figure2", "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "r,U_lj,V_harm"
        r_min = 2.0 ** (1.0 / 6.0)
        min_rows = [l for l in lines[1:] if abs(float(l.split(",")[0]) - r_min) < 1e-9]
        assert len(min_rows) == 1
        _, u, v = (float(s) for s in min_rows[0].split(","))
        assert u == pytest.approx(-1.0, abs=1e-9)
        assert v == pytest.approx(-1.0, abs=1e-9)
        sigma_rows = [l for l in lines[1:] if l.split(",")[0] == "1"]
        assert sigma_rows and float(sigma_rows[0].split(",")[1]) == 0.0

        levels = (tmp_path / "fig2_levels.csv").read_text().splitlines()
        assert levels == ["m,E_m", "-4,-0.875", "-3,-0.625", "-2,-0.375", "-1,-0.125"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "figure2", "--out", str(a))
        run(capsys, "figure2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_levels.csv").read_bytes() == (tmp_path / "b_levels.csv").read_bytes()

    def test_fitted_force_constant(self, capsys, tmp_path):
        out_path = tmp_path / "fit.csv"
        run(capsys, "figure2", "--fit-k", "--gamma-sq", "1", "--out", str(out_path))
        # k = mu omega^2 = 1 for epsilon = gamma_sq = 1; half-curvature at
        # r_min + 0.1 lifts the parabola by 0.005
        lines = out_path.read_text().splitlines()
        r_min = 2.0 ** (1.0 / 6.0)
        row = min(lines[1:], key=lambda l: abs(float(l.split(",")[0]) - (r_min + 0.1)))
        v = float(row.split(",")[2])
        d = float(row.split(",")[0]) - r_min
        assert v == pytest.approx(-1.0 + 0.5 * d * d, abs=1e-12)

    @pytest.mark.parametrize(
        "flags,k",
        [(["--epsilon", "1e300", "--sigma", "1e-300"], "inf"), (["--epsilon", "1e-300"], "0.0")],
    )
    def test_fitted_force_constant_out_of_range_is_usage_error(self, capsys, tmp_path, flags, k):
        # omega = epsilon / gamma_sq, so omega^2 overflows (1e300) or underflows to 0 (1e-300).
        code, out, err = run(capsys, "figure2", "--fit-k", *flags, "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: derived force constant k = mu omega^2 = {k} is out of the double range\n"
        assert list(tmp_path.iterdir()) == []

    def test_infinite_force_constant_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "figure2", "--k", "inf", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --k must be positive and finite\n"
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_free_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "free")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") == 7
        assert "orthonormality" in out

    def test_lj_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lj", "--gamma-sq", "2")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_field_suite_single_gamma_sq(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "field", "--gamma-sq", "1")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "branch-consistency" in out

    def test_nonpositive_gamma_sq_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "field", "--gamma-sq", "0")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            checks, "free_suite", lambda: [CheckResult("free", "synthetic", False, "forced failure", ())]
        )
        code, out, _ = run(capsys, "verify", "--suite", "free")
        assert code == EXIT_VERIFY_FAIL
        assert "FAIL" in out

    def test_default_run_prints_the_registry(self, capsys):
        records = free_suite() + field_suite() + lj_suite()
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert out.splitlines() == [
            f"{'PASS' if r.ok else 'FAIL'}  [{r.suite}] {r.name}: {r.detail}" for r in records
        ] + [f"verify: {len(records)}/{len(records)} checks passed"]

    @pytest.mark.parametrize(
        "sigma,epsilon", [("1e-6", "1"), ("3.4e-10", "1.65e-21"), ("100", "1"), ("1e4", "1")]
    )
    def test_lj_suite_passes_at_any_scale(self, capsys, sigma, epsilon):
        code, out, _ = run(capsys, "verify", "--suite", "lj", "--sigma", sigma, "--epsilon", epsilon)
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_minimum_search_sees_a_moved_minimum_at_atomic_scale(self, capsys, monkeypatch):
        lj_potential = checks.lj_potential
        monkeypatch.setattr(checks, "lj_potential", lambda r, spec: lj_potential(r / 1.01, spec))
        code, out, _ = run(capsys, "verify", "--suite", "lj", "--sigma", "3.4e-10", "--epsilon", "1.65e-21")
        assert code == EXIT_VERIFY_FAIL
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL  [lj] minimum-search: ")


class TestRuntimeNeedsOnlyNumpy:
    """The CLI runs with the test extras refused at import, so ``verify`` never leans on them."""

    GUARD = """
import sys

REFUSED = {"scipy", "sympy", "mpmath", "hypothesis"}
attempts = []


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in REFUSED:
            attempts.append(name)
            raise ImportError(f"{name} is a test extra")
        return None


sys.meta_path.insert(0, Refuse())
from paracyl.cli import main

code = main(sys.argv[1:])
if attempts:
    sys.stderr.write(f"refused imports: {attempts}\\n")
    code = 99
sys.exit(code)
"""

    @staticmethod
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", TestRuntimeNeedsOnlyNumpy.GUARD, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
            timeout=300,
        )

    def test_verify_all(self):
        proc = self.run("verify", "--suite", "all")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.splitlines()[-1] == "verify: 16/16 checks passed"

    def test_eval_at_the_order_cap(self):
        proc = self.run("eval", "--n", str(DEGREE_CAP), "--lo", "-25", "--hi", "25", "--step", "0.5")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        lines = proc.stdout.splitlines()
        assert lines[1] == "x,z,D_n,psi_n" and len(lines) == 2 + 101

    def test_the_guard_refuses_a_test_extra(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.GUARD.replace("from paracyl.cli import main", "import mpmath"), "verify"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1 and "ImportError: mpmath is a test extra" in proc.stderr


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["table", "--bogus"]) == EXIT_USAGE

    def test_missing_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK


# The modules each subcommand loads, besides ``paracyl`` and ``paracyl.cli``.
CORE = {"numerics", "oscillator", "pcf", "polys"}
LOADS = {
    "table": CORE,
    "eval": CORE,
    "spectrum": CORE,
    "figure1": CORE,
    "field": CORE | {"field"},
    "lj": CORE | {"field", "ljmodel"},
    "figure2": CORE | {"field", "ljmodel"},
    "verify": CORE | {"checks", "field", "ljmodel"},
}

_REPORT_MODULES = """
import json, sys
from paracyl.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("paracyl."))
print(json.dumps([code, loaded]), file=sys.stderr)
"""


class TestSubcommandImports:
    ARGV = {
        "table": ["--n", "3"],
        "eval": ["--n", "3", "--lo", "-1", "--hi", "1", "--step", "0.5"],
        "spectrum": ["--n", "3"],
        "figure1": ["--step", "0.5"],
        "field": ["--n", "2"],
        "lj": [],
        "figure2": [],
        "verify": ["--suite", "all"],
    }

    @pytest.mark.parametrize("command", sorted(LOADS))
    def test_a_subcommand_loads_only_its_own_modules(self, tmp_path, command):
        argv = [command, *self.ARGV[command]]
        if command.startswith("figure"):
            argv += ["--out", str(tmp_path / "out.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", _REPORT_MODULES, *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
            timeout=120,
        )
        code, loaded = json.loads(proc.stderr.splitlines()[-1])
        assert code == EXIT_OK
        assert set(loaded) == LOADS[command] | {"cli"}
