"""The traced surface: the names the benchmark's tracer wraps.

``perfbench/tracer.py`` wraps every function in ``paracyl.__all__`` and the
``__call__`` of ``Eigenstate`` and ``ShiftedState``.  Pinning both here makes
any change to what a traced benchmark run sees show up as a test failure.
The README's library tour is run against the package too, so a name the
package no longer has cannot stay in the documentation.
"""

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


@pytest.mark.parametrize("cls", [paracyl.Eigenstate, paracyl.ShiftedState])
def test_state_types_define_their_own_call(cls):
    assert "__call__" in vars(cls)


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
