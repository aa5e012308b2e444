"""Seeded operation generators, one per workload.

Each generator maps a seed to an endless sequence of operations.  An
operation is a plain dict holding everything needed to run it (the argv of a
``paracyl`` command, or the arguments of a library request) plus the fields
the oracles need to check its output.  The program under test receives only
the argv or the call arguments.

Operations come in small shuffled blocks, and each block holds the same mix
(for example three low-order and three high-order requests).  Orders
follow golden-ratio sequences from seeded starts, which cover their range
evenly in every prefix.  A run completes a time-bounded prefix of the
sequence, so any two seeds measure nearly the same distribution of work,
which keeps run-to-run spread small, and the float-evaluation accuracy
defect above n ~ 30 is always in the sample.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

#: The orders the paper and the repository's acceptance gates cover.
LOW_N = (0, 10)
#: The rest of what the CLI accepts (``polys.DEGREE_CAP`` is 200).
HIGH_N = (11, 200)
#: Gauss-Hermite rule sizes a library session uses and warms in set-up.
RULE_SIZES = (64, 128, 256)
#: Consecutive indices in one library Gram block.
WINDOW = 6
#: ``eval``/``figure1`` grids hold about 10^4 rows.
ROWS = (9500, 10500)
#: Rows of each ``eval``/``figure1`` output checked against mpmath.
SAMPLED_ROWS = 16


def _rng(workload: str, seed: int) -> random.Random:
    # Seeding with a string is stable across processes and Python builds.
    return random.Random(f"{workload}/{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _golden(rng: random.Random, lo: int, hi: int):
    """Integers in [lo, hi] from the sequence u + k/phi (mod 1), u seeded.

    Every prefix of the sequence covers the range almost evenly, so order
    statistics of a run's costs hardly depend on the seed.
    """
    u = rng.random()
    while True:
        yield lo + int(u * (hi - lo + 1))
        u = (u + 0.6180339887498949) % 1.0


def _blocks(block, rng: random.Random) -> Iterator[dict]:
    while True:
        chunk = block(rng)
        rng.shuffle(chunk)
        yield from chunk


# verify_cli: the user's main path.  Every process pays a cold 64-point rule
# build, 66+17 Python-loop overlaps, exact route equivalence to n = 50 and 19
# grid residuals: heavy on numerics, moderate on pcf/polys/oscillator/field.
# It is where a faster rule build or a check registry must show.
def verify_cli(seed: int) -> Iterator[dict]:
    rng = _rng("verify_cli", seed)

    def block(rng):
        ops = [_verify_op([])]
        for _ in range(3):
            ops.append(
                _verify_op(
                    [
                        f"--gamma-sq={rng.randint(1, 8)}",
                        f"--epsilon={_log_uniform(rng, 0.1, 10.0)!r}",
                        f"--sigma={_log_uniform(rng, 0.5, 2.0)!r}",
                    ]
                )
            )
        return ops

    return _blocks(block, rng)


def _verify_op(flags: list[str]) -> dict:
    # The suites evaluate float states up to n = 10.
    return {"kind": "verify", "argv": ["verify", "--suite", "all", *flags], "max_n": LOW_N[1]}


# eval_cli: heavy on pcf/polys scalar evaluation and cli formatting and
# output, and touches no quadrature at all, so it is the "no change" control
# for numerics work and the target of a faster D_n kernel.  Half the eval
# ops draw n from the paper's range and half from the rest of what the CLI
# accepts; the high half keeps the known accuracy cliff visible as failures.
def eval_cli(seed: int) -> Iterator[dict]:
    rng = _rng("eval_cli", seed)
    low, high = _golden(rng, *LOW_N), _golden(rng, *HIGH_N)

    def block(rng):
        ops = [_figure1_op(rng) for _ in range(2)]
        ops += [_eval_op(rng, next(low)) for _ in range(3)]
        ops += [_eval_op(rng, next(high)) for _ in range(3)]
        return ops

    return _blocks(block, rng)


def _eval_op(rng: random.Random, n: int) -> dict:
    omega = _log_uniform(rng, 0.5, 2.0)
    # Cover the oscillatory region: turning point sqrt(2n+1) plus 3 in z.
    half = (math.sqrt(2 * n + 1) + 3.0) / math.sqrt(2.0 * omega)
    step = 2.0 * half / (rng.randint(*ROWS) - 1)
    argv = ["eval", f"--n={n}", f"--omega={omega!r}", f"--lo={-half!r}", f"--hi={half!r}", f"--step={step!r}"]
    return {"kind": "eval", "argv": argv, "n": n, "omega": omega, "samples": _samples(rng), "max_n": n}


def _figure1_op(rng: random.Random) -> dict:
    step = 12.0 / (rng.randint(*ROWS) - 1)
    # The runner appends --out with a path of its own.
    return {"kind": "figure1", "argv": ["figure1", f"--step={step!r}"], "samples": _samples(rng), "max_n": 3}


def _samples(rng: random.Random) -> list[float]:
    return [rng.random() for _ in range(SAMPLED_ROWS)]


# library_warm: one long-lived process that builds its rules once in set-up,
# so rule building moves into setup_s and high-order overlaps dominate
# latency.  A Gram-matrix or rule-build rewrite must show here as well as in
# verify_cli, and a D_n kernel here as well as in eval_cli.  The window start
# follows the same half-low/half-high split as eval_cli.
def library_warm(seed: int) -> Iterator[dict]:
    rng = _rng("library_warm", seed)
    # Low windows use each warmed rule once per block.  A high window uses
    # the smallest warmed rule that integrates its Gram block exactly (a
    # k-point rule is exact for psi_i psi_j while i + j <= 2k - 1), so the
    # high starts are split into the bands the three rules serve.
    bands, lo = {}, HIGH_N[0]
    for k in RULE_SIZES:
        hi = min(k, HIGH_N[1] + 1) - WINDOW
        bands[k], lo = _golden(rng, lo, hi), hi + 1
    lows = {k: _golden(rng, *LOW_N) for k in RULE_SIZES}

    def block(rng):
        ops = [_library_op(next(low), k, rng) for k, low in lows.items()]
        return ops + [_library_op(next(band), k, rng) for k, band in bands.items()]

    return _blocks(block, rng)


def _library_op(start: int, k: int, rng: random.Random) -> dict:
    return {
        "kind": "library",
        "start": start,
        "window": WINDOW,
        "k": k,
        "gamma": rng.uniform(-1.0, 1.0),
        "h": 1e-3,
        "half_span": 6.0,
        "max_n": start + WINDOW - 1,
    }


GENERATORS = {"verify_cli": verify_cli, "eval_cli": eval_cli, "library_warm": library_warm}


def generate(workload: str, seed: int) -> Iterator[dict]:
    """The endless operation sequence of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed)
