"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --workload eval_cli --seeds 1-10 --seconds 20 [--trace 0|1] [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for every metric
the median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median.  With ``--out`` it also stores those figures,
every raw value, each run's summary lines and the machine's description in
a JSON file, under ``untraced`` or ``traced`` and the workload name,
keeping what the file already holds; the recorded baseline in this
directory was made that way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    out_path = Path(args.out) if args.out else None
    report = json.loads(out_path.read_text(encoding="utf-8")) if out_path and out_path.exists() else {}
    report.update(machine=machine(), seconds=args.seconds)
    section = report.setdefault("traced" if args.trace else "untraced", {})
    for workload in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            *summary, last = out.strip().splitlines()
            result = json.loads(last)
            runs.append({"seed": seed, **result, "summary": summary})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        names = list(runs[0]["metrics"])
        stats = {n: summarise([r["metrics"][n]["value"] for r in runs]) for n in names}
        for n in names:
            s = stats[n]
            print(f"  {n:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        section[workload] = {"stats": stats, "runs": runs}
        if out_path:
            out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
