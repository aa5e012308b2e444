"""Outside-in tracer for the paracyl package.

``Tracer.install`` wraps every public function of paracyl (the functions in
``paracyl.__all__``, ``cli.main``, and the ``__call__`` of ``Eigenstate`` and
``ShiftedState``) on every module binding that holds it.  Rebinding only the
defining module would miss calls made through ``from .x import y`` copies,
which ``cli``, ``oscillator`` and ``field`` hold.  Nothing in ``src/`` is
changed; ``uninstall`` restores the original bindings.

Each call records a span ``[name, layer, start, end, parent, op, size,
raised]`` in memory.  ``flush`` derives the per-layer aggregates from the
recorded spans and clears them; the aggregates are what a traced process
writes out.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("polys", "pcf", "numerics", "oscillator", "field", "ljmodel", "cli")

NAME, LAYER, START, END, PARENT, OP, SIZE, RAISED = range(8)

_OSC_STATES = ("eval_psi", "Eigenstate.__call__")
_FIELD_STATES = ("eval_psi_shifted", "ShiftedState.__call__")
_STATE_CALLS = ("Eigenstate.__call__", "ShiftedState.__call__")
#: Functions whose inclusive time is reported (nested calls counted once).
_INCLUSIVE = {
    "pcf_poly": "pcf.pcf_poly_s",
    "gauss_hermite_rule": "numerics.rule_build_s",
    "overlap": "numerics.overlap_s",
    "hamiltonian_residual": "oscillator.residual_s",
    "field_hamiltonian_residual": "field.residual_s",
}
_COUNTED = {
    "pcf_poly": "pcf.pcf_poly_calls",
    "eval_D": "pcf.eval_D_calls",
    "ode_residual": "pcf.ode_residual_calls",
    "gauss_hermite_rule": "numerics.rule_calls",
    "overlap": "numerics.overlap_calls",
}
# Names whose presence among a span's ancestors the derivation needs.
_WATCHED = sorted(set(_INCLUSIVE) | set(_OSC_STATES) | set(_FIELD_STATES))
_BIT = {name: 1 << i for i, name in enumerate(_WATCHED)}
_ANY_STATE = sum(_BIT[name] for name in _OSC_STATES + _FIELD_STATES)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


#: Work sizes recorded on a span: points passed to ``poly_eval`` (1 for a
#: scalar) and grid points of ``hamiltonian_residual``.
_SIZERS = {
    "poly_eval": lambda a, kw: getattr(_arg(a, kw, 1, "t"), "size", 1),
    "hamiltonian_residual": lambda a, kw: _arg(a, kw, 2, "grid").npoints,
}


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Span recorder that wraps paracyl's public functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, layer, sizer = self.spans, self._stack, _layer(fn), _SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, False]
            if sizer is not None:
                rec[SIZE] = sizer(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every binding of every public function in loaded paracyl modules."""
        import paracyl
        import paracyl.cli

        originals = {getattr(paracyl, n): n for n in paracyl.__all__}
        originals[paracyl.cli.main] = "main"
        wrappers = {fn: self._wrap(fn, n) for fn, n in originals.items() if isinstance(fn, types.FunctionType)}
        for modname, module in list(sys.modules.items()):
            if modname != "paracyl" and not modname.startswith("paracyl."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for cls in (paracyl.Eigenstate, paracyl.ShiftedState):
            original = cls.__dict__["__call__"]
            self._patched.append((cls, "__call__", original))
            setattr(cls, "__call__", self._wrap(original, f"{cls.__name__}.__call__"))

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def flush(self) -> dict[str, float]:
        """Per-layer aggregates of the recorded spans; clears the spans."""
        if self._stack:
            raise RuntimeError("flush inside an open span")
        agg = derive(self.spans)
        self.spans.clear()
        return agg


def derive(spans: list[list]) -> dict[str, float]:
    """Sum self time, calls, errors and the named counters over ``spans``.

    A span's self time is its duration minus the durations of its direct
    children (spans of one thread nest, so children never overlap).  An
    exception counts once per layer: a raising span is not counted again
    when its parent in the same layer re-raises it.
    """
    agg: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    above = [0] * len(spans)  # bitmask of watched names among the ancestors
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child_time[p] += s[END] - s[START]
            above[i] = above[p] | _BIT.get(spans[p][NAME], 0)
    for i, s in enumerate(spans):
        name, layer, dur = s[NAME], s[LAYER], s[END] - s[START]
        agg[f"{layer}.self_s"] += dur - child_time[i]
        agg[f"{layer}.calls"] += 1
        if s[RAISED]:
            p = s[PARENT]
            if p < 0 or not (spans[p][RAISED] and spans[p][LAYER] == layer):
                agg[f"{layer}.errors"] += 1
        if name in _INCLUSIVE and not above[i] & _BIT[name]:
            agg[_INCLUSIVE[name]] += dur
        if name in _COUNTED:
            agg[_COUNTED[name]] += 1
        if name == "poly_eval":
            agg["polys.poly_eval_points"] += s[SIZE]
        elif name == "hamiltonian_residual":
            agg["oscillator.residual_points"] += s[SIZE]
        if name in _STATE_CALLS and above[i] & _BIT["overlap"]:
            agg["numerics.integrand_evals"] += 1
        if not above[i] & _ANY_STATE:
            if name in _OSC_STATES:
                agg["oscillator.state_calls"] += 1
            elif name in _FIELD_STATES:
                agg["field.state_calls"] += 1
    return dict(agg)
