"""The traced surface: the names the benchmark's tracer wraps.

``perfbench/tracer.py`` wraps every function in ``paracyl.__all__`` and the
``__call__`` of ``Eigenstate`` and ``ShiftedState``.  Pinning both here makes
any change to what a traced benchmark run sees show up as a test failure.
The package resolves those names on first use; the tests below pin that
each resolves to its home module's object and that nothing loads before.
The README's library tour is run against the package too, so a name the
package no longer has cannot stay in the documentation.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paracyl

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "DEGREE_CAP",
    "Eigenstate",
    "FieldSpec",
    "Grid1D",
    "LJSpec",
    "OscillatorSpec",
    "PcfPolyPart",
    "PolyZ",
    "QuadratureRule",
    "R_MIN_FACTOR",
    "ShiftedState",
    "bound_levels",
    "curvature_matched_k",
    "energy",
    "energy_shifted",
    "estimate_gamma_sq",
    "eval_D",
    "expectation_x",
    "expectation_x_shifted",
    "field_hamiltonian_residual",
    "fit_oscillator",
    "gamma_of",
    "gauss_hermite_rule",
    "golden_section_minimize",
    "hamiltonian_residual",
    "harmonic_curve",
    "hermite_recurrence",
    "hermite_rodrigues",
    "integer_branch_spectrum",
    "lj_minimum",
    "lj_potential",
    "norm_const",
    "overlap",
    "pcf_poly",
    "pcf_rodrigues_poly",
    "poly_derivative",
    "poly_eval",
    "potential_minimum",
]


def test_all_is_pinned():
    assert sorted(paracyl.__all__) == PUBLIC


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from paracyl import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_a_name_is_the_attribute_of_its_home_module(name):
    home = importlib.import_module(f"paracyl.{paracyl._HOME_OF[name]}")
    value = getattr(paracyl, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__
    assert vars(paracyl)[name] is value  # kept: the next read is a plain lookup


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'paracyl' has no attribute 'no_such_name'$"):
        getattr(paracyl, "no_such_name")
    assert not hasattr(paracyl, "_pcf_rows")


def run_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('paracyl.')))"


def test_dir_lists_the_public_names_without_loading_them():
    # In a fresh process: here earlier tests have already read names into the package namespace.
    out = run_python(f"import paracyl; print(sorted(set(paracyl.__all__) - set(dir(paracyl)))); {LOADED}")
    assert out == "[]\n[]\n"


def test_import_loads_no_submodule_until_a_name_is_read():
    out = run_python(f"import paracyl; {LOADED}; paracyl.eval_D; {LOADED}")
    assert out == "[]\n['paracyl.numerics', 'paracyl.pcf', 'paracyl.polys']\n"


def test_a_bare_submodule_name_resolves():
    out = run_python("import paracyl; print(paracyl.numerics.__name__, hasattr(paracyl, 'cli'))")
    assert out == "paracyl.numerics False\n"


@pytest.mark.parametrize("cls", [paracyl.Eigenstate, paracyl.ShiftedState])
def test_state_types_define_their_own_call(cls):
    assert "__call__" in vars(cls)


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    run_python(re.search(r"```python\n(.*?)```", tour, re.S).group(1))
