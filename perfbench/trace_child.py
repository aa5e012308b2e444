"""Run one ``paracyl`` command with the outside-in tracer installed.

Usage: python trace_child.py OP_ID AGG_JSON ARGV...

Behaves like ``python -m paracyl.cli ARGV...`` (same stdout, stderr and exit
status) and also writes the per-layer aggregates of the run, plus the time
the package import took, to AGG_JSON.
"""

import json
import sys
import time

_t0 = time.perf_counter()
import paracyl  # noqa: E402
import paracyl.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    op, out, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return paracyl.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        agg = tracer.flush()
        agg["paracyl.import_s"] = IMPORT_S
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(agg, fh)


if __name__ == "__main__":
    sys.exit(main())
