"""The chunked table writer against the per-row rendering it replaced.

Each expected output is rebuilt here from the library values with the old
per-row code, so the comparison holds whatever libm the values come from.
"""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import paracyl.cli as cli
from paracyl.cli import EXIT_IO, EXIT_OK, main
from paracyl.field import FieldSpec, energy_shifted, gamma_of, integer_branch_spectrum, potential_minimum
from paracyl.ljmodel import (
    R_MIN_FACTOR,
    LJSpec,
    bound_levels,
    estimate_gamma_sq,
    fit_oscillator,
    harmonic_curve,
    lj_minimum,
    lj_potential,
)
from paracyl.oscillator import OscillatorSpec, energy, norm_const
from paracyl.pcf import eval_D

SRC = Path(cli.__file__).resolve().parents[1]


def old_fmt(v) -> str:
    return format(float(v), ".12g")


def old_line(row) -> str:
    """The per-row path the writer replaced."""
    return ",".join(format(float(v), ".12g") for v in row) + "\n"


def assert_same_lines(actual: str, expected: str) -> None:
    """Exact text equality, compared line by line so a failure reports the first differing line
    instead of a diff of megabytes."""
    assert actual.splitlines(keepends=True) == expected.splitlines(keepends=True)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class RecordingFile:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


EDGE_FLOATS = [
    math.nan,
    -math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    sys.float_info.min,
    sys.float_info.max,
    -sys.float_info.max,
    1e16,
    123456789012.5,
    0.1,
]

VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(10**6), 10**6),
)
TABLES = st.integers(1, 5).flatmap(lambda w: st.tuples(st.just(w), st.lists(st.tuples(*[VALUES] * w), max_size=40)))


class TestEmit:
    @given(TABLES)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_bytes_equal_the_per_row_path(self, table):
        width, rows = table
        fh = io.StringIO()
        cli._emit(fh, rows, width)
        assert fh.getvalue() == "".join(old_line(row) for row in rows)

    def test_one_write_per_chunk(self):
        rows = [(i, i / 7.0, -(i**0.5)) for i in range(2 * cli._CHUNK_ROWS + 5)]
        fh = RecordingFile()
        cli._emit(fh, iter(rows), 3)
        assert [w.count("\n") for w in fh.writes] == [cli._CHUNK_ROWS, cli._CHUNK_ROWS, 5]
        assert_same_lines("".join(fh.writes), "".join(old_line(row) for row in rows))



class TestCommandsRenderLikeThePerRowPath:
    def test_eval(self, capsys):
        lo, hi, step, n = -4.0, 4.0, 5e-4, 7
        spec = OscillatorSpec(mu=1.0, omega=2.5, hbar=1.0)
        x = cli._grid(lo, hi, step)
        z = spec.z_scale * x
        d = eval_D(n, z)
        expected = (
            f"# n={n} mu={old_fmt(spec.mu)} omega={old_fmt(spec.omega)} "
            f"hbar={old_fmt(spec.hbar)} E_n={old_fmt(energy(n, spec))}\n"
            "x,z,D_n,psi_n\n"
        )
        rows = zip(x.tolist(), z.tolist(), d.tolist(), (norm_const(n, spec) * d).tolist())
        expected += "".join(old_line(row) for row in rows)
        argv = ["eval", "--n", str(n), "--omega", "2.5", "--lo", str(lo), "--hi", str(hi), "--step", str(step)]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert len(x) > 2 * cli._CHUNK_ROWS
        assert_same_lines(out, expected)

    def test_figure1(self, capsys, tmp_path):
        z = cli._grid(-8.0, 8.0, 1e-3)
        rows = zip(z.tolist(), *(eval_D(n, z).tolist() for n in range(4)))
        path = tmp_path / "fig1.csv"
        code, out, _ = run(capsys, "figure1", "--lo", "-8", "--hi", "8", "--step", "1e-3", "--out", str(path))
        assert code == EXIT_OK
        assert out == f"wrote {path} ({len(z)} rows)\n"
        assert_same_lines(path.read_text(encoding="utf-8"), "z,D0,D1,D2,D3\n" + "".join(old_line(row) for row in rows))

    def test_figure2_both_files(self, capsys, tmp_path):
        spec = LJSpec(epsilon=2.0, sigma=1.5, gamma_sq=6)
        k = 40.0
        r_grid = cli._grid(0.95 * spec.sigma, 2.0 * spec.sigma, 0.005 * spec.sigma).tolist()
        r_min = R_MIN_FACTOR * spec.sigma
        if min(abs(r - r_min) for r in r_grid) > 1e-12 * spec.sigma:
            r_grid.append(r_min)
            r_grid.sort()
        rows = [(r, lj_potential(r, spec), harmonic_curve(r, spec, k)) for r in r_grid]
        path, levels = tmp_path / "fig2.csv", tmp_path / "fig2_levels.csv"
        argv = ["figure2", "--epsilon", "2", "--sigma", "1.5", "--gamma-sq", "6", "--k", "40", "--out", str(path)]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out == f"wrote {path} ({len(rows)} rows) and {levels}\n"
        assert_same_lines(path.read_text(encoding="utf-8"), "r,U_lj,V_harm\n" + "".join(old_line(row) for row in rows))
        levels_rows = bound_levels(spec)
        assert_same_lines(levels.read_text(encoding="utf-8"), "m,E_m\n" + "".join(old_line(row) for row in levels_rows))

    def test_spectrum(self, capsys):
        spec = OscillatorSpec(mu=1.0, omega=1.7, hbar=1.0)
        top = 2 * cli._CHUNK_ROWS + 3
        expected = "n,E_n\n" + "".join(f"{n},{old_fmt(energy(n, spec))}\n" for n in range(top + 1))
        code, out, _ = run(capsys, "spectrum", "--n", str(top), "--omega", "1.7")
        assert code == EXIT_OK
        assert_same_lines(out, expected)

    def test_field_continuous_branch(self, capsys):
        spec = OscillatorSpec()
        fld = FieldSpec(q=0.3, efield=-2.0)
        gamma = gamma_of(fld, spec)
        x_min, e_min = potential_minimum(fld, spec)
        top = cli._CHUNK_ROWS + 10
        expected = (
            f"gamma = {old_fmt(gamma)}\ngamma^2 = {old_fmt(gamma * gamma)}\n"
            f"x_min = {old_fmt(x_min)}\ne_min = {old_fmt(e_min)}\nn,E_n\n"
        )
        expected += "".join(f"{n},{old_fmt(energy_shifted(n, gamma, spec))}\n" for n in range(top + 1))
        code, out, _ = run(capsys, "field", "--q", "0.3", "--efield", "-2", "--n", str(top))
        assert code == EXIT_OK
        assert_same_lines(out, expected)

    def test_field_integer_branch(self, capsys):
        spec = OscillatorSpec(mu=1.0, omega=0.8, hbar=1.0)
        g, m_max = 3000, 2500
        gamma = math.sqrt(g)
        fld = FieldSpec(q=gamma * math.sqrt(2.0 * spec.mu * spec.hbar * spec.omega**3), efield=1.0)
        x_min, e_min = potential_minimum(fld, spec)
        expected = (
            f"gamma = {old_fmt(gamma)}\ngamma^2 = {old_fmt(gamma * gamma)}\n"
            f"x_min = {old_fmt(x_min)}\ne_min = {old_fmt(e_min)}\nm,E_m,pcf_index\n"
        )
        expected += "".join(f"{m},{old_fmt(e)},{idx}\n" for m, e, idx in integer_branch_spectrum(g, m_max, spec))
        code, out, _ = run(capsys, "field", "--gamma-sq", str(g), "--n", str(m_max), "--omega", "0.8")
        assert code == EXIT_OK
        assert_same_lines(out, expected)

    def test_lj(self, capsys):
        spec = LJSpec(epsilon=3.0, sigma=1.0, gamma_sq=5000)
        r_min, u_min = lj_minimum(spec)
        g, residual = estimate_gamma_sq(3.0, 0.25)
        expected = (
            f"r_min = {old_fmt(r_min)}\nu_min = {old_fmt(u_min)}\n"
            f"omega = {old_fmt(fit_oscillator(spec).omega)}\n"
            f"level_spacing = {old_fmt(spec.epsilon / spec.gamma_sq)}\nm,E_m\n"
        )
        expected += "".join(f"{m},{old_fmt(e)}\n" for m, e in bound_levels(spec))
        expected += f"estimated_gamma_sq = {g}\nestimate_residual = {old_fmt(residual)}\n"
        code, out, _ = run(capsys, "lj", "--epsilon", "3", "--gamma-sq", "5000", "--delta-e", "0.25")
        assert code == EXIT_OK
        assert_same_lines(out, expected)


class TestThroughAPipe:
    ARGV = ["eval", "--n", "4", "--lo", "-5", "--hi", "5", "--step", "1e-4"]  # 100 001 rows, about 5 MB

    def spawn(self, **kwargs):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        return subprocess.Popen([sys.executable, "-m", "paracyl.cli", *self.ARGV], env=env, **kwargs)

    def test_piped_stdout_equals_the_in_process_output(self, capsys):
        code, expected, _ = run(capsys, *self.ARGV)
        assert code == EXIT_OK
        proc = self.spawn(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_OK
        assert err == b""
        assert_same_lines(out.decode("utf-8"), expected)

    def test_reader_closing_the_pipe_is_an_io_error(self):
        proc = self.spawn(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"# n=4 ")
        proc.stdout.close()
        err = proc.stderr.read().decode("utf-8")
        assert proc.wait(timeout=120) == EXIT_IO
        assert err.startswith("I/O error: ")
        assert "Traceback" not in err
