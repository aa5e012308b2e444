"""The chunked table writer against the per-row rendering it replaced.

Each expected output is rebuilt here from the library values with the old
per-row code, so the comparison holds whatever libm the values come from.
"""

import contextlib
import functools
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import paracyl.cli as cli
from paracyl.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
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
from paracyl.pcf import eval_D, pcf_rodrigues_poly
from paracyl.polys import DEGREE_CAP

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


#: Array values: ``EDGE_FLOATS``, the largest subnormal and -tiny, +-1e300, and
#: integers (small, at and past 10**12, and past 2**53).
ARRAY_EDGES = EDGE_FLOATS + [
    math.nextafter(sys.float_info.min, 0.0),
    -sys.float_info.min,
    1e300,
    -1e300,
    1.0,
    -3.0,
    999999999999.0,
    1e12,
    -123456789012345.0,
    2.0**53 + 2.0,
]


class TestEmit:
    @given(TABLES)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_bytes_equal_the_per_row_path(self, table):
        width, rows = table
        columns = [np.array([row[j] for row in rows], dtype=float) for j in range(width)]
        fh = io.StringIO()
        cli._emit(fh, *columns)
        assert fh.getvalue() == "".join(old_line(row) for row in rows)

    def test_one_write_per_chunk(self):
        rows = [(i, i / 7.0, -(i**0.5)) for i in range(2 * cli._CHUNK_ROWS + 5)]
        fh = RecordingFile()
        cli._emit(fh, *cli._columns(rows, 3))
        assert [w.count("\n") for w in fh.writes] == [cli._CHUNK_ROWS, cli._CHUNK_ROWS, 5]
        assert_same_lines("".join(fh.writes), "".join(old_line(row) for row in rows))

    @pytest.mark.parametrize("width", [1, 2, 4, 5])
    def test_edge_values_with_one_write_per_chunk(self, width):
        count = 2 * cli._CHUNK_ROWS + 7
        rng = np.random.default_rng(width)
        columns = [np.array(ARRAY_EDGES)[rng.integers(len(ARRAY_EDGES), size=count)] for _ in range(width)]
        columns[0][: len(ARRAY_EDGES)] = ARRAY_EDGES  # every edge value, in the first chunk
        fh = RecordingFile()
        cli._emit(fh, *columns)
        assert [w.count("\n") for w in fh.writes] == [cli._CHUNK_ROWS, cli._CHUNK_ROWS, 7]
        expected = "".join(old_line(row) for row in zip(*(c.tolist() for c in columns)))
        assert_same_lines("".join(fh.writes), expected)
        seen = set(fh.writes[0].replace("\n", ",").split(","))
        assert {"0", "-0", "4.94065645841e-324", "-4.94065645841e-324", "1e+300", "-1e+300"} <= seen
        assert {"1", "-3", "999999999999", "1e+12", "inf", "-inf", "nan"} <= seen

    def test_an_integer_column_renders_as_integers(self):
        count = cli._CHUNK_ROWS + 3
        n = np.arange(-2, count - 2)
        big = np.full(count, 2**53 + 1)  # upcast to the double 2**53, as '%.12g' rounds the int
        fh = RecordingFile()
        cli._emit(fh, n, n / 8.0, big)
        assert [w.count("\n") for w in fh.writes] == [cli._CHUNK_ROWS, 3]
        expected = "".join(old_line(row) for row in zip(n.tolist(), (n / 8.0).tolist(), big.tolist()))
        assert_same_lines("".join(fh.writes), expected)
        assert fh.writes[0].startswith("-2,-0.25,9.00719925474e+15\n-1,-0.125,")

    def test_rows_of_mixed_numbers_become_double_columns(self):
        rows = [(-3, -0.75, 0), (2**53 + 1, 0.1, 10**15)]
        x, y, z = cli._columns(rows, 3)
        assert x.dtype == y.dtype == z.dtype == np.float64
        assert (x.tolist(), y.tolist(), z.tolist()) == ([-3.0, 2.0**53], [-0.75, 0.1], [0.0, 1e15])
        assert [c.shape for c in cli._columns([], 2)] == [(0,), (0,)]

    def test_the_working_set_of_a_chunk_stays_below_the_percent_path(self):
        x = -5.0 + 0.0025 * np.arange(cli._CHUNK_ROWS)
        columns = [x, 1.3 * x, eval_D(131, 1.3 * x), 0.37 * eval_D(131, 1.3 * x)]
        cli._emit(io.StringIO(), *columns)  # the renderer's tables are built on first use

        def peak(write_chunk) -> int:
            tracemalloc.start()
            try:
                write_chunk()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        class Sink:
            def write(self, text):
                pass

        def by_percent():  # the path the renderer replaced
            values = np.column_stack(columns).ravel().tolist()
            Sink().write(("%.12g,%.12g,%.12g,%.12g\n" * cli._CHUNK_ROWS) % tuple(values))

        assert peak(lambda: cli._emit(Sink(), *columns)) < peak(by_percent)


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


#: Flag values of the fuzz: NaN, infinities, subnormals, zeros, huge and
#: out-of-range values, and ordinary ones.
FUZZ_FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, sys.float_info.min, 0.0, -0.0]
        + [1e-300, 1e300, -1e300, sys.float_info.max, -sys.float_info.max, 1e154, 1e-154, 0.5, 1.0, 2.0]
    ),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-40.0, 40.0),
)
FUZZ_ORDERS = st.one_of(st.integers(-3, 205), st.sampled_from([-(10**6), 10**6, 10**7, 10**12, 2**63]))
#: Grids and ladders the fuzz runs: near 10^4 rows, or past the row limit (rejected before any work).
FUZZ_ROWS = 12000
#: Scale flags: the default, ordinary values, or hostile ones.
FUZZ_SCALES = st.one_of(st.just(1.0), st.floats(0.05, 20.0), FUZZ_FLOATS)
#: Grids: ordinary ones of up to about 10^4 rows, or any three hostile values.
FUZZ_GRIDS = st.one_of(
    st.tuples(st.floats(-40.0, 40.0), st.floats(0.0, 80.0), st.integers(1, 10000) | st.integers(9000, 10000)).map(
        lambda g: (g[0], g[0] + g[1], g[1] / g[2] if g[1] > 0 else 0.5)
    ),
    st.tuples(FUZZ_FLOATS, FUZZ_FLOATS, st.one_of(st.just(0.01), FUZZ_FLOATS)),
)


def flag(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def fuzz_rows(lo: float, hi: float, step: float) -> float:
    """About the row count of the grid ``lo, hi, step``, inf where it is not a grid."""
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step) and step > 0 and hi >= lo):
        return math.inf
    return (hi - lo) / step + 1


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_rejection(code: int, out: str, err: str) -> None:
    assert code == EXIT_USAGE, (code, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_finite_numbers(text: str) -> None:
    """Every number in ``text`` is finite: the values of 'name = value' lines and the fields of CSV lines."""
    for line in text.splitlines():
        for field in line.split(" = ")[1:] if " = " in line else line.split(","):
            try:
                value = float(field)
            except ValueError:  # a column name
                continue
            assert math.isfinite(value), line


#: The --gamma-sq of the fuzz: ordinary counts or hostile ones.
FUZZ_COUNTS = st.one_of(st.integers(-3, 60), FUZZ_ORDERS)
#: L-J and field flags: the scales, or values at the top of the double range, where 4 epsilon,
#: sigma^2 or mu omega^2 overflow.
FUZZ_HUGE = st.one_of(FUZZ_SCALES, st.floats(1e150, sys.float_info.max))
#: verify's --gamma-sq: log-uniform up to the row limit, or the last count a suite accepts or the first it refuses.
FUZZ_LADDERS = st.one_of(
    st.floats(0.0, 6.0).map(lambda e: round(10**e)),
    # The field suite builds 2 g + 3 rows, the L-J suite g.
    st.sampled_from(
        [(cli.MAX_GRID_ROWS - 3) // 2, (cli.MAX_GRID_ROWS - 1) // 2, cli.MAX_GRID_ROWS, cli.MAX_GRID_ROWS + 1]
    ),
)


#: A ``table`` line: D_k(z) = exp(-z^2/4), with a polynomial factor before the
#: Gaussian, in parentheses when it has more than one term.
TABLE_LINE = re.compile(r"D_(\d+)\(z\) = (?:\((.+)\) |(\S+) )?exp\(-z\^2/4\)")
#: One term of a factor: a magnitude, a power of z, or a magnitude times a power.
TABLE_TERM = re.compile(r"(\d*)(?:z(?:\^(\d+))?)?")


def parse_table_line(line: str) -> tuple[int, tuple[int, ...]]:
    """The order k and the coefficients of the factor (index i holds that of z^i) of a ``table`` line.

    Also checks the canonical form: powers strictly descending, no
    magnitude 1 written before a power of z, and no zero term.
    """
    m = TABLE_LINE.fullmatch(line)
    assert m is not None, line
    k, factor = int(m[1]), m[2] or m[3] or "1"
    assert (m[2] is not None) == (" " in factor), line
    first, *rest = re.split(r" ([+-]) ", factor)
    signs = ["-" if first.startswith("-") else "+", *rest[::2]]
    terms = [first.removeprefix("-"), *rest[1::2]]
    coeffs: dict[int, int] = {}
    for sign, term in zip(signs, terms):
        t = TABLE_TERM.fullmatch(term)
        assert t is not None and term, line
        has_z = "z" in term
        power = (int(t[2]) if t[2] else 1) if has_z else 0
        assert t[1] != ("1" if has_z else "") and not t[1].startswith("0"), line
        assert not coeffs or power < min(coeffs), line
        coeffs[power] = int(t[1] or "1") * (-1 if sign == "-" else 1)
    return k, tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


@functools.lru_cache(maxsize=None)
def rodrigues_coeffs(k: int) -> tuple[int, ...]:
    return pcf_rodrigues_poly(k).poly.coeffs


class TestFuzz:
    """Hostile flags: exit 2 with nothing on stdout, or exit 0 with the bytes of the per-row path.

    ``table`` prints the factors of the substitution route; each line must
    parse back to the coefficients of the independent Rodrigues route.

    ``figure2``, ``lj`` and ``field`` are held to the weaker contract: exit 2
    with nothing on stdout and no file, or exit 0 printing and writing only
    finite numbers.  ``verify`` exits 2 the same way, or exits 0 with every
    record a PASS.
    """

    # --n in -3..210: the ends of the accepted range 0..DEGREE_CAP and the orders just past each.
    @given(
        n=st.one_of(
            st.integers(-3, -1),
            st.sampled_from([0, DEGREE_CAP, DEGREE_CAP + 1]),
            st.integers(0, DEGREE_CAP),
            st.integers(DEGREE_CAP + 1, 210),
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_table(self, n):
        code, out, err = run_quietly(["table", "--n", flag(n)])
        if not 0 <= n <= DEGREE_CAP:
            assert_clean_rejection(code, out, err)
            return
        assert (code, err) == (EXIT_OK, "")
        lines = out.split("\n")
        assert lines.pop() == "" and len(lines) == n + 1
        for k, line in enumerate(lines):
            assert parse_table_line(line) == (k, rodrigues_coeffs(k))

    @given(n=st.one_of(st.integers(0, 200), FUZZ_ORDERS), spec=st.tuples(*[FUZZ_SCALES] * 3), grid=FUZZ_GRIDS)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_eval(self, n, spec, grid):
        lo, hi, step = grid
        assume(not (FUZZ_ROWS < fuzz_rows(lo, hi, step) <= cli.MAX_GRID_ROWS))
        argv = ["eval", "--n", flag(n), *(f"--{k}={flag(v)}" for k, v in zip(("mu", "omega", "hbar"), spec))]
        code, out, err = run_quietly([*argv, f"--lo={flag(lo)}", f"--hi={flag(hi)}", f"--step={flag(step)}"])
        if code != EXIT_OK:
            assert_clean_rejection(code, out, err)
            return
        osc = OscillatorSpec(*spec)
        x = cli._grid(lo, hi, step)
        z = osc.z_scale * x
        d = eval_D(n, z)
        expected = (
            f"# n={n} mu={old_fmt(osc.mu)} omega={old_fmt(osc.omega)} "
            f"hbar={old_fmt(osc.hbar)} E_n={old_fmt(energy(n, osc))}\nx,z,D_n,psi_n\n"
        )
        rows = zip(x.tolist(), z.tolist(), d.tolist(), (norm_const(n, osc) * d).tolist())
        assert_same_lines(out, expected + "".join(old_line(row) for row in rows))
        assert err == ""

    @given(grid=FUZZ_GRIDS)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_figure1(self, grid):
        lo, hi, step = grid
        assume(not (FUZZ_ROWS < fuzz_rows(lo, hi, step) <= cli.MAX_GRID_ROWS))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fig1.csv")
            argv = ["figure1", f"--lo={flag(lo)}", f"--hi={flag(hi)}", f"--step={flag(step)}", "--out", path]
            code, out, err = run_quietly(argv)
            if code != EXIT_OK:
                assert_clean_rejection(code, out, err)
                assert not os.path.exists(path)
                return
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
        z = cli._grid(lo, hi, step)
        rows = zip(z.tolist(), *(eval_D(k, z).tolist() for k in range(4)))
        assert out == f"wrote {path} ({len(z)} rows)\n"
        assert_same_lines(text, "z,D0,D1,D2,D3\n" + "".join(old_line(row) for row in rows))
        assert err == ""

    @given(n=st.one_of(st.integers(0, 10000), FUZZ_ORDERS), spec=st.tuples(*[FUZZ_SCALES] * 3))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_spectrum(self, n, spec):
        assume(not (FUZZ_ROWS < n + 1 <= cli.MAX_GRID_ROWS))
        argv = ["spectrum", "--n", flag(n), *(f"--{k}={flag(v)}" for k, v in zip(("mu", "omega", "hbar"), spec))]
        code, out, err = run_quietly(argv)
        if code != EXIT_OK:
            assert_clean_rejection(code, out, err)
            return
        osc = OscillatorSpec(*spec)
        assert_same_lines(out, "n,E_n\n" + "".join(f"{k},{old_fmt(energy(k, osc))}\n" for k in range(n + 1)))
        assert err == ""

    @given(
        lj=st.tuples(FUZZ_HUGE, FUZZ_HUGE, FUZZ_COUNTS),
        k=FUZZ_HUGE,
        fit=st.tuples(st.booleans(), FUZZ_HUGE, FUZZ_HUGE),
    )
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_figure2(self, lj, k, fit):
        epsilon, sigma, g = lj
        assume(not (FUZZ_ROWS < g <= cli.MAX_GRID_ROWS))
        fit_k, mu, hbar = fit
        argv = ["figure2", f"--epsilon={flag(epsilon)}", f"--sigma={flag(sigma)}", f"--gamma-sq={flag(g)}"]
        argv += [f"--k={flag(k)}", f"--mu={flag(mu)}", f"--hbar={flag(hbar)}", *(["--fit-k"] if fit_k else [])]
        with tempfile.TemporaryDirectory() as tmp:
            path, levels = os.path.join(tmp, "fig2.csv"), os.path.join(tmp, "fig2_levels.csv")
            code, out, err = run_quietly([*argv, "--out", path])
            if code != EXIT_OK:
                assert_clean_rejection(code, out, err)
                assert os.listdir(tmp) == []
                return
            with open(path, encoding="utf-8") as fh, open(levels, encoding="utf-8") as lh:
                curve, ladder = fh.read(), lh.read()
        assert out == f"wrote {path} ({curve.count(chr(10)) - 1} rows) and {levels}\n"
        assert err == ""
        assert curve.startswith("r,U_lj,V_harm\n") and ladder.startswith("m,E_m\n")
        assert_finite_numbers(curve)
        assert_finite_numbers(ladder)

    @given(
        lj=st.tuples(FUZZ_HUGE, FUZZ_HUGE, FUZZ_COUNTS),
        delta_e=st.none() | FUZZ_HUGE,
        spec=st.tuples(FUZZ_HUGE, FUZZ_HUGE),
    )
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_lj(self, lj, delta_e, spec):
        epsilon, sigma, g = lj
        assume(not (FUZZ_ROWS < g <= cli.MAX_GRID_ROWS))
        argv = ["lj", f"--epsilon={flag(epsilon)}", f"--sigma={flag(sigma)}", f"--gamma-sq={flag(g)}"]
        argv += [f"--mu={flag(spec[0])}", f"--hbar={flag(spec[1])}"]
        code, out, err = run_quietly([*argv, *([] if delta_e is None else [f"--delta-e={flag(delta_e)}"])])
        if code != EXIT_OK:
            assert_clean_rejection(code, out, err)
            return
        assert out.startswith("r_min = ") and "\nm,E_m\n" in out
        assert_finite_numbers(out)
        assert all(line.startswith("warning: ") for line in err.splitlines())

    @given(
        fld=st.tuples(FUZZ_HUGE, FUZZ_HUGE),
        gamma_sq=st.none() | FUZZ_COUNTS,
        n=st.none() | FUZZ_COUNTS,
        spec=st.tuples(*[FUZZ_HUGE] * 3),
    )
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_field(self, fld, gamma_sq, n, spec):
        if gamma_sq is None:
            rows = (5 if n is None else n) + 1
        else:
            rows = (gamma_sq if n is None else n) + gamma_sq + 1
        assume(not (FUZZ_ROWS < rows <= cli.MAX_GRID_ROWS))
        argv = ["field", f"--q={flag(fld[0])}", f"--efield={flag(fld[1])}"]
        argv += [*(f"--{k}={flag(v)}" for k, v in zip(("mu", "omega", "hbar"), spec))]
        argv += [] if gamma_sq is None else [f"--gamma-sq={gamma_sq}"]
        code, out, err = run_quietly([*argv, *([] if n is None else [f"--n={n}"])])
        if code != EXIT_OK:
            assert_clean_rejection(code, out, err)
            return
        assert out.startswith("gamma = ")
        assert_finite_numbers(out)
        assert err == ""

    @given(
        suite=st.sampled_from(["free", "field", "lj", "all"]),
        gamma_sq=st.none() | FUZZ_COUNTS | FUZZ_LADDERS,
        lj=st.tuples(FUZZ_HUGE, FUZZ_HUGE),
    )
    # Fewer examples than the other fuzzes: a ladder near the row limit takes 0.5-1 s.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_verify(self, suite, gamma_sq, lj):
        """Exit 2 with one error line, or exit 0 with every record PASS and a k/k summary.

        Every suite exits 2 when the L-J suite would refuse ``--epsilon`` and ``--sigma``.
        """
        argv = ["verify", f"--suite={suite}", f"--epsilon={flag(lj[0])}", f"--sigma={flag(lj[1])}"]
        code, out, err = run_quietly([*argv, *([] if gamma_sq is None else [f"--gamma-sq={gamma_sq}"])])
        if code != EXIT_OK or lj_refuses(*lj, gamma_sq):
            assert_clean_rejection(code, out, err)
            return
        *records, summary = out.splitlines()
        assert [line for line in records if not line.startswith("PASS  [")] == []
        assert summary == f"verify: {len(records)}/{len(records)} checks passed"
        assert err == ""

    @pytest.mark.parametrize(
        "flags,error",
        [
            (["--epsilon=nan", "--sigma=-1"], "epsilon must be positive and finite"),
            (["--sigma=0"], "sigma must be positive and finite"),
            (["--epsilon=5e-324"], "epsilon = 5e-324 is subnormal (below 2.2250738585072014e-308)"),
            (["--sigma=1e308"], "the minimum search runs to r = 2 sigma, which overflows for sigma = 1e+308"),
        ],
    )
    def test_verify_refuses_the_lj_flags_for_every_suite(self, flags, error):
        for suite in ("free", "field", "lj", "all"):
            assert run_quietly(["verify", f"--suite={suite}", *flags]) == (EXIT_USAGE, "", f"error: {error}\n")


def lj_refuses(epsilon, sigma, gamma_sq):
    """Whether the L-J suite refuses its well: ``LJSpec`` raises, or the search to r = 2 sigma overflows."""
    try:
        LJSpec(epsilon, sigma, 2 if gamma_sq is None else gamma_sq)
    except ValueError:
        return True
    return not math.isfinite(2.0 * sigma)


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
        with proc.stderr:
            err = proc.stderr.read().decode("utf-8")
        assert proc.wait(timeout=120) == EXIT_IO
        assert err.startswith("I/O error: ")
        assert "Traceback" not in err
