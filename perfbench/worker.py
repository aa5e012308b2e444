"""Long-lived paracyl library session for the ``library_warm`` workload.

Usage: python worker.py [--trace]

Imports paracyl, builds the Gauss-Hermite rules of ``workloads.RULE_SIZES``,
then prints one JSON line ``{"ready": ...}``.  After that it reads one JSON
request per line on stdin and answers each with one JSON line on stdout,
until stdin closes.
A request is ``{"op": {...}, "trace": bool}``; with ``trace`` the outside-in
tracer is installed for that request only and its aggregates are returned.
A request ``{"reference": true}`` is answered with the time of
``reference_loop``, the host-speed reference of library operations.
Library calls go through the ``paracyl`` package attributes, as a user's
``import paracyl`` code would, so the tracer sees them.
"""

import json
import math
import sys
import time

_t0 = time.perf_counter()
import paracyl  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from tracer import Tracer  # noqa: E402
from workloads import RULE_SIZES  # noqa: E402


def library_op(op: dict) -> dict:
    """Gram block, eigen-residuals and a shifted <x> for one index window."""
    spec = paracyl.OscillatorSpec()
    rule = paracyl.gauss_hermite_rule(op["k"])
    indices = range(op["start"], op["start"] + op["window"])
    states = [paracyl.Eigenstate(n, spec) for n in indices]
    gram = [
        paracyl.overlap(a, b, spec.gaussian_scale, rule)
        for i, a in enumerate(states)
        for b in states[i:]
    ]
    grid = paracyl.Grid1D(-op["half_span"], op["half_span"], op["h"])
    residuals = [paracyl.hamiltonian_residual(n, spec, grid) for n in indices]
    shifted = paracyl.ShiftedState.continuous(op["start"], op["gamma"], spec)
    xbar = paracyl.expectation_x_shifted(shifted, rule)
    return {"gram": gram, "residuals": residuals, "xbar": xbar}


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += math.exp(-1e-5 * i) * (i % 7)
    return time.perf_counter() - t


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    tracer = Tracer()
    if trace:
        tracer.op = -1
        tracer.install()
    for k in RULE_SIZES:
        paracyl.gauss_hermite_rule(k)
    setup = {}
    if trace:
        tracer.uninstall()
        setup = tracer.flush()
    _reply({"ready": True, "import_s": IMPORT_S, "setup": setup})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("reference"):
            _reply({"reference_s": reference_loop()})
            continue
        if request["trace"]:
            tracer.op = request["id"]
            tracer.install()
        try:
            result = library_op(request["op"])
        except Exception as exc:  # the op fails; the session keeps serving
            result = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            if request["trace"]:
                tracer.uninstall()
        _reply({"result": result, "trace": tracer.flush() if request["trace"] else {}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
