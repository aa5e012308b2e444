"""Command-line front end.

One subcommand per run: closed-form tables, pointwise evaluation, spectrum
ladders, verification suites, and CSV emitters for the two standard plots.
All configuration is via long-form flags; defaults are mu = omega = hbar = 1.

Exit statuses: 0 success, 1 verification failure, 2 usage error, 3 I/O error.

The module's imports load with Python's cyclic garbage collector paused, on
every launch path.  An import of the module turns the collector back on if it
was on; under ``python -m``, and under the ``paracyl`` console script, whose
launcher (``_launch``) turns it off before this module loads, that is left to
``entry``, the process entry of both launch paths, which freezes what the
imports made before the handler runs and all that is left before shutdown.
``main`` and library imports leave the collector as they found it.
"""

from __future__ import annotations

import gc

# numpy's import makes ~20 k objects: they load with the collector paused.  As
# ``__main__``, it stays off until ``entry`` has frozen them, since turning it
# on first would make the next allocation collect them all (about 2 ms).
_collecting = gc.isenabled()
gc.disable()
try:
    import argparse
    import math
    import os
    import sys
    import warnings
    from pathlib import Path
    from typing import TYPE_CHECKING

    import numpy as np

    # ``checks``, ``field``, ``ljmodel`` and ``oscillator`` are imported by the
    # handlers that use them, so that ``table`` and ``figure1`` load only
    # ``polys``, ``pcf`` and ``grids``, and ``eval`` and ``spectrum`` add
    # ``oscillator``.
    from .grids import grid_count
    from .pcf import _pcf_rows, eval_D
    from .polys import DEGREE_CAP, _expand, _hermite_rows
finally:
    if _collecting and __name__ != "__main__":
        gc.enable()
    del _collecting

if TYPE_CHECKING:
    from .oscillator import OscillatorSpec

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: Row limit of the grids (``eval``, ``figure1``) and ladders (``field --gamma-sq``,
#: ``lj``, ``figure2``, ``verify --gamma-sq``) that are built in memory.
MAX_GRID_ROWS = 10**6

#: Rows per chunk of ``_emit``, rendered as one string and written by one
#: ``write``: enough to make the per-call cost vanish, few enough that a
#: chunk's text stays small next to the table.
_CHUNK_ROWS = 4096


def _fmt(v) -> str:
    """12 significant digits, '.' separator; integers render compactly."""
    return format(float(v), ".12g")


def _emit(fh, *columns) -> None:
    """Write equal-length ``columns`` to ``fh`` as CSV lines, ``_CHUNK_ROWS`` rows per write.

    ``render.csv_rows`` renders each chunk: each value as ``'%.12g' % v``
    renders it (``format(float(v), '.12g')`` makes the same string), an
    integer column as its doubles, as ``'%.12g'`` converts an integer.
    Only the handlers that write tables call this, so only they load
    ``render``.
    """
    from .render import csv_rows

    for i in range(0, len(columns[0]), _CHUNK_ROWS):
        fh.write(csv_rows([c[i : i + _CHUNK_ROWS] for c in columns]))


def _columns(rows, width: int) -> np.ndarray:
    """The columns of ``rows`` (tuples of ``width`` numbers) as doubles, one row of the result each."""
    return np.array(rows, dtype=float).reshape(-1, width).T


def _check_rows(what: str, count: int) -> None:
    """Reject a table of ``count`` rows before anything is built."""
    if count > MAX_GRID_ROWS:
        raise ValueError(f"{what} of {count} rows exceeds the limit of {MAX_GRID_ROWS}")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if step < sys.float_info.min:
        raise ValueError(f"grid step {step!r} is subnormal (below {sys.float_info.min!r})")
    if hi < lo:
        raise ValueError("range needs hi >= lo")
    count = grid_count(lo, hi, step)
    _check_rows("grid", count)
    return lo + step * np.arange(count)


def _check_gaussian(z_max: float) -> None:
    """Reject a grid whose largest |z|, ``z_max``, takes D_0 = e^{-z^2/4} below the smallest normal double.

    There ``eval_D`` returns subnormal values or 0.0 for every order (the
    bound is |z| = 2 sqrt(-ln 2^-1022) = 53.2314...), so the table would
    print zeros; D_0 is computed as ``eval_D`` computes it.
    """
    if np.exp(-(z_max * z_max) / 4.0) < sys.float_info.min:
        raise ValueError(
            f"e^(-z^2/4) at |z| = {_fmt(z_max)} is below the smallest normal double, "
            "so every D_n there would print as 0 or lose digits: keep |z| <= 53.23"
        )


def _poly_str(coeffs: tuple[int, ...], var: str = "z") -> str:
    """``coeffs`` (index k holds the coefficient of var^k) as text, highest power first."""
    if not any(coeffs):
        return "0"
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def _spec_from_args(args) -> OscillatorSpec:
    from .oscillator import OscillatorSpec

    return OscillatorSpec(mu=args.mu, omega=args.omega, hbar=args.hbar)


def _write_csv(path: str, header: str, *columns) -> None:
    """Write ``header`` and the ``_emit`` lines of ``columns``, one per header name."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        _emit(fh, *columns)


# ---------------------------------------------------------------------------
# subcommand handlers


def _table_line(n: int, coeffs: tuple[int, ...]) -> str:
    """The ``table`` line of D_n, whose polynomial factor has coefficients ``coeffs``."""
    s = _poly_str(coeffs)
    if s == "1":
        return f"D_{n}(z) = exp(-z^2/4)"
    if " " in s:
        return f"D_{n}(z) = ({s}) exp(-z^2/4)"
    return f"D_{n}(z) = {s} exp(-z^2/4)"


def _cmd_table(args) -> int:
    if args.n < 0 or args.n > DEGREE_CAP:
        raise ValueError(f"--n must be in 0..{DEGREE_CAP}")
    # One walk up the ladder of P_n: O(n) work per line.
    for n, row in zip(range(args.n + 1), _pcf_rows(_hermite_rows())):
        print(_table_line(n, _expand(n, row)))
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .oscillator import energy, norm_const

    spec = _spec_from_args(args)
    x = _grid(args.lo, args.hi, args.step)
    if spec.z_scale * args.step < sys.float_info.min:
        raise ValueError(f"z step z_scale * step = {spec.z_scale * args.step!r} is subnormal")
    edge = max(-x[0].item(), x[-1].item())  # the largest |x|, at an end of the grid
    if not math.isfinite(spec.z_scale * edge):
        raise ValueError(f"z = z_scale * x overflows: z_scale = {spec.z_scale!r}, |x| up to {edge!r}")
    _check_gaussian(spec.z_scale * edge)
    z = spec.z_scale * x
    d = eval_D(args.n, z)  # also rejects --n outside 0..DEGREE_CAP
    print(
        f"# n={args.n} mu={_fmt(spec.mu)} omega={_fmt(spec.omega)} "
        f"hbar={_fmt(spec.hbar)} E_n={_fmt(energy(args.n, spec))}"
    )
    print("x,z,D_n,psi_n")
    _emit(sys.stdout, x, z, d, norm_const(args.n, spec) * d)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .oscillator import energy

    spec = _spec_from_args(args)
    if args.n < 0:
        raise ValueError("--n must be non-negative")
    _check_rows("ladder", args.n + 1)
    energy(args.n, spec)  # the top level is the largest: a ValueError here, before any output
    print("n,E_n")
    count = args.n + 1
    _emit(sys.stdout, np.arange(count), np.fromiter((energy(n, spec) for n in range(count)), float, count))
    return EXIT_OK


def _cmd_field(args) -> int:
    from .field import FieldSpec, _field_unit, energy_shifted, gamma_of, integer_branch_spectrum, potential_minimum

    spec = _spec_from_args(args)
    if args.gamma_sq is not None:
        if args.gamma_sq < 1:
            raise ValueError("--gamma-sq must be a positive integer")
        m_max = args.n if args.n is not None else args.gamma_sq
        _check_rows("ladder", m_max + args.gamma_sq + 1)
        gamma = math.sqrt(args.gamma_sq)
        qe = gamma * _field_unit(spec)
        fld = FieldSpec(q=qe, efield=1.0)
    else:
        fld = FieldSpec(q=args.q, efield=args.efield)
        gamma = gamma_of(fld, spec)
        n_max = args.n if args.n is not None else 5
        if n_max < 0:
            raise ValueError("--n must be non-negative")
        _check_rows("ladder", n_max + 1)
    x_min, e_min = potential_minimum(fld, spec)
    # An overflowing level is a ValueError here, before any output.
    if args.gamma_sq is not None:
        levels = integer_branch_spectrum(args.gamma_sq, m_max, spec)
    else:  # E_n is monotone in n, so the end levels bound the rest
        energy_shifted(0, gamma, spec), energy_shifted(n_max, gamma, spec)
    print(f"gamma = {_fmt(gamma)}")
    print(f"gamma^2 = {_fmt(gamma * gamma)}")
    print(f"x_min = {_fmt(x_min)}")
    print(f"e_min = {_fmt(e_min)}")
    if args.gamma_sq is not None:
        print("m,E_m,pcf_index")
        _emit(sys.stdout, *_columns(levels, 3))
    else:
        print("n,E_n")
        count = n_max + 1
        levels = np.fromiter((energy_shifted(n, gamma, spec) for n in range(count)), float, count)
        _emit(sys.stdout, np.arange(count), levels)
    return EXIT_OK


def _cmd_lj(args) -> int:
    from .ljmodel import LJSpec, bound_levels, estimate_gamma_sq, fit_oscillator, lj_minimum

    spec = LJSpec(epsilon=args.epsilon, sigma=args.sigma, gamma_sq=args.gamma_sq)
    _check_rows("ladder", spec.gamma_sq)
    osc = fit_oscillator(spec, mu=args.mu, hbar=args.hbar)
    estimate = None
    if args.delta_e is not None:
        # The clamp warning becomes one plain stderr line; the block holds only
        # this call, so warnings raised anywhere else keep their filters.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            estimate = estimate_gamma_sq(args.epsilon, args.delta_e)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    r_min, u_min = lj_minimum(spec)
    print(f"r_min = {_fmt(r_min)}")
    print(f"u_min = {_fmt(u_min)}")
    print(f"omega = {_fmt(osc.omega)}")
    print(f"level_spacing = {_fmt(spec.epsilon / spec.gamma_sq)}")
    print("m,E_m")
    _emit(sys.stdout, *_columns(bound_levels(spec), 2))
    if estimate is not None:
        g, residual = estimate
        print(f"estimated_gamma_sq = {g}")
        print(f"estimate_residual = {_fmt(residual)}")
    return EXIT_OK


def _cmd_figure1(args) -> int:
    if not args.lo < args.hi:
        raise ValueError("needs --lo < --hi")
    z = _grid(args.lo, args.hi, args.step)
    _check_gaussian(max(-z[0].item(), z[-1].item()))
    columns = [eval_D(n, z) for n in range(4)]
    _write_csv(args.out, "z,D0,D1,D2,D3", z, *columns)
    print(f"wrote {args.out} ({len(z)} rows)")
    return EXIT_OK


def _levels_path(out: str) -> str:
    p = Path(out)
    return str(p.with_name(p.stem + "_levels" + (p.suffix or ".csv")))


def _check_distinct(out: str, levels_out: str) -> None:
    """Reject two output paths that name one file: equal resolved paths, or one existing file."""
    same = os.path.realpath(out) == os.path.realpath(levels_out)
    if not same and os.path.exists(out) and os.path.exists(levels_out):
        same = os.path.samefile(out, levels_out)
    if same:
        raise ValueError(f"--out {out} and --levels-out {levels_out} name the same file")


def _cmd_figure2(args) -> int:
    from .ljmodel import R_MIN_FACTOR, LJSpec, bound_levels, fit_oscillator, harmonic_curve, lj_potential

    levels_out = args.levels_out or _levels_path(args.out)
    _check_distinct(args.out, levels_out)
    spec = LJSpec(epsilon=args.epsilon, sigma=args.sigma, gamma_sq=args.gamma_sq)
    _check_rows("ladder", spec.gamma_sq)
    if args.fit_k:
        osc = fit_oscillator(spec, mu=args.mu, hbar=args.hbar)
        try:
            k = osc.mu * osc.omega**2
        except OverflowError:
            k = math.inf
    else:
        k = args.k
    if not (math.isfinite(k) and k > 0):
        if args.fit_k:
            raise ValueError(f"derived force constant k = mu omega^2 = {k!r} is out of the double range")
        raise ValueError("--k must be positive and finite")
    r_grid = _grid(0.95 * spec.sigma, 2.0 * spec.sigma, 0.005 * spec.sigma).tolist()
    r_min = R_MIN_FACTOR * spec.sigma
    if min(abs(r - r_min) for r in r_grid) > 1e-12 * spec.sigma:
        r_grid.append(r_min)
        r_grid.sort()
    rows = [(r, lj_potential(r, spec), harmonic_curve(r, spec, k)) for r in r_grid]
    r, u, v = _columns(rows, 3)
    for name, column in (("U_lj", u), ("V_harm", v)):
        bad = ~np.isfinite(column)
        if bad.any():
            raise ValueError(f"{name} at r = {_fmt(r[bad][0])} is {_fmt(column[bad][0])}, out of the double range")
    _write_csv(args.out, "r,U_lj,V_harm", r, u, v)
    _write_csv(levels_out, "m,E_m", *_columns(bound_levels(spec), 2))
    print(f"wrote {args.out} ({len(rows)} rows) and {levels_out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = args.gamma_sq
    if g is not None:
        if g < 1:
            raise ValueError("--gamma-sq must be a positive integer")
        if args.suite != "free":
            # The field suite builds the ladder m = -g .. g + 2, the L-J suite g levels.
            _check_rows("ladder", g if args.suite == "lj" else 2 * g + 3)

    from .checks import field_suite, free_suite, lj_spec, lj_suite

    lj_args = (args.epsilon, args.sigma) if g is None else (args.epsilon, args.sigma, g)
    lj_spec(*lj_args)  # every suite checks --epsilon and --sigma, as the L-J suite does
    records = []
    if args.suite in ("free", "all"):
        records.extend(free_suite())
    if args.suite in ("field", "all"):
        records.extend(field_suite() if g is None else field_suite([g]))
    if args.suite in ("lj", "all"):
        records.extend(lj_suite(*lj_args))
    for check in records:
        status = "PASS" if check.ok else "FAIL"
        print(f"{status}  [{check.suite}] {check.name}: {check.detail}")
    failed = [c for c in records if not c.ok]
    print(f"verify: {len(records) - len(failed)}/{len(records)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=1.0, help="reduced mass (default 1)")
    p.add_argument("--omega", type=float, default=1.0, help="angular frequency (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="reduced Planck constant (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracyl",
        description="Harmonic-oscillator eigensystems in parabolic-cylinder form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print the polynomial factors of D_0..D_n")
    p.add_argument("--n", type=int, default=5, help="highest index to print (default 5)")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("eval", help="evaluate D_n and psi_n on a grid of x values")
    p.add_argument("--n", type=int, default=0, help="quantum number (default 0)")
    _add_spec_flags(p)
    p.add_argument("--lo", type=float, default=0.0, help="first x (default 0)")
    p.add_argument("--hi", type=float, default=0.0, help="last x (default 0)")
    p.add_argument("--step", type=float, default=1.0, help="x step (default 1)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("spectrum", help="print the free-oscillator energy ladder")
    p.add_argument("--n", type=int, default=8, help="highest level (default 8)")
    _add_spec_flags(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("field", help="uniform-field coupling, minimum, and ladder")
    p.add_argument("--q", type=float, default=1.0, help="charge (default 1)")
    p.add_argument("--efield", type=float, default=1.0, help="field magnitude (default 1)")
    p.add_argument("--gamma-sq", type=int, default=None, help="use the integer branch with this gamma^2")
    p.add_argument("--n", type=int, default=None, help="highest label to print")
    _add_spec_flags(p)
    p.set_defaults(handler=_cmd_field)

    p = sub.add_parser("lj", help="Lennard-Jones well and its harmonic ladder")
    p.add_argument("--epsilon", type=float, default=1.0, help="well depth (default 1)")
    p.add_argument("--sigma", type=float, default=1.0, help="length parameter (default 1)")
    p.add_argument("--gamma-sq", type=int, default=4, help="bound-state count (default 4)")
    p.add_argument("--delta-e", type=float, default=None, help="observed level spacing to invert")
    p.add_argument("--mu", type=float, default=1.0, help="reduced mass (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="reduced Planck constant (default 1)")
    p.set_defaults(handler=_cmd_lj)

    p = sub.add_parser("figure1", help="CSV of D_0..D_3 over a z grid")
    p.add_argument("--lo", type=float, default=-6.0, help="first z (default -6)")
    p.add_argument("--hi", type=float, default=6.0, help="last z (default 6)")
    p.add_argument("--step", type=float, default=0.05, help="z step (default 0.05)")
    p.add_argument("--out", type=str, default="figure1.csv", help="output CSV path")
    p.set_defaults(handler=_cmd_figure1)

    p = sub.add_parser("figure2", help="CSV of the L-J well, harmonic curve, and levels")
    p.add_argument("--epsilon", type=float, default=1.0, help="well depth (default 1)")
    p.add_argument("--sigma", type=float, default=1.0, help="length parameter (default 1)")
    p.add_argument("--k", type=float, default=70.0, help="harmonic force constant (default 70)")
    p.add_argument("--gamma-sq", type=int, default=4, help="bound-state count (default 4)")
    p.add_argument("--fit-k", action="store_true", help="derive k = mu omega^2 from the fitted oscillator")
    p.add_argument("--mu", type=float, default=1.0, help="reduced mass for --fit-k (default 1)")
    p.add_argument("--hbar", type=float, default=1.0, help="hbar for --fit-k (default 1)")
    p.add_argument("--out", type=str, default="figure2.csv", help="output CSV path")
    p.add_argument("--levels-out", type=str, default=None, help="levels CSV path (default <out>_levels.csv)")
    p.set_defaults(handler=_cmd_figure2)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--suite", choices=["free", "field", "lj", "all"], default="all")
    p.add_argument("--gamma-sq", type=int, default=None, help="restrict field suite to one gamma^2")
    p.add_argument("--epsilon", type=float, default=1.0, help="L-J well depth (default 1)")
    p.add_argument("--sigma", type=float, default=1.0, help="L-J length parameter (default 1)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> int:
    """Process entry of ``python -m paracyl.cli`` and of the ``paracyl`` console script.

    Runs ``main`` between two ``gc.freeze()`` calls: the first takes what the
    imports made out of every collection the handler triggers, and the second
    leaves the shutdown collection nothing to traverse.  Cyclic garbage made
    before either call is left for the operating system to reclaim.
    """
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
