"""Seeded inputs, timed operations and correctness gates of the workloads.

Inputs are stratified rather than drawn independently: dimensions cycle,
exponents and radii follow golden-ratio sequences from a seeded offset.  Every
seed then gets the same mix of cheap and expensive inputs, so run-to-run
spread reflects the program and not the luck of the draw, while no two inputs
of a run share a radius.

Failure classes (an operation that hits any of them counts as failed):
``refused`` (a package error), ``crashed`` (any other exception),
``nonfinite``, ``out_of_range`` (outside [G_inf, G_1]: G_p falls as p grows),
``p2_mismatch`` (p = 2 off ``g_2_closed`` by more than 1e-7 relative),
``not_increasing`` and ``cli_exit`` (sweeps), ``cert_gap`` and
``cert_violation`` (certificates), ``criterion_fail`` (battery).

A failed operation on an acceptance-box input makes the run incorrect, except
for the accuracy classes ``p2_mismatch`` and ``cert_gap`` (see run.py): the
seed already misses the p = 2 gate for n = 5, r above about 0.935 (numeric
error up to 2.5e-7 against the closed form, which mpmath confirms to 1e-15),
so those misses are counted as failures and reported, not treated as a broken
run.
"""

from __future__ import annotations

import csv
import io
import math
import random
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from hypschwarz import cli, errors, solver, verify
from hypschwarz.kernel import BallContext

P2_REL_TOL = 1e-7
CERT_GAP_LIMIT = 1e-6
SWEEP_STEPS = 100
SWEEP_R_MAX = 0.95
CERT_DRAWS = 1000
P_MIN, P_MAX = 1.1, 20.0
# Each input is timed in this many interleaved rounds and keeps its fastest
# time.  Points and certificates last milliseconds, so one hiccup can double
# one time; a sweep curve lasts a third of a second and averages hiccups out.
ROUNDS = {"sweep": 1, "scatter": 3, "certify": 3}
# Whether reference speed samples (speed.py) are also taken inside an
# operation: a sweep curve lasts a third of a second, across which the machine
# speed moves; a sample inside a millisecond operation would only disturb it.
SAMPLE_INSIDE = {"sweep": True, "scatter": False, "certify": False}
# Inputs per round for each second of the run's budget: the rounds take about
# the budget at the seed's speed.  The count depends on the budget only, so
# every commit is measured on the same inputs.
INPUTS_PER_SECOND = {"sweep": 3.0, "scatter": 100.0, "certify": 12.0}

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0
_BRONZE = math.sqrt(3.0) - 1.0


def _frac(x: float) -> float:
    return x - math.floor(x)


def _log_uniform(u: float) -> float:
    return math.exp(math.log(P_MIN) + u * (math.log(P_MAX) - math.log(P_MIN)))


@dataclass(frozen=True)
class Item:
    """One workload input.  ``box`` marks the acceptance box n in {3,4,5},
    r <= 0.95; only box items are timed and gated for correctness."""

    n: int
    p: float
    r: float
    box: bool = True
    draw_seed: int = 0


class Stream:
    """The seeded input sequence of one workload; ``item(i)`` is the i-th op."""

    def __init__(self, workload: str, seed: int):
        rng = random.Random(f"{workload}:{seed}")
        self.workload = workload
        self.u = [rng.random() for _ in range(6)]
        self.draw_base = rng.randrange(2 ** 30)

    def _seq(self, k: int, step: float, j: int) -> float:
        return _frac(self.u[k] + j * step)

    def setup_item(self) -> Item:
        """The first answer timed by set-up: a fixed mid-range input, jittered."""
        return Item(4, 3.0, 0.5 + 0.01 * self.u[5], draw_seed=self.draw_base)

    def item(self, i: int) -> Item:
        if self.workload == "sweep":
            # Blocks of 25 curves: five at p = 2 and one in each of twenty
            # log-uniform exponent strata.  A run holds few curves, and curve
            # cost varies steeply and unevenly with p, so p sits near the
            # stratum centre (seeded jitter of a fifth of its width) and the
            # median curve is the same curve under every seed.
            # r is the jittered --r-min; --r-max stays at SWEEP_R_MAX.
            k = i % 25
            if k % 5 == 2:
                p = 2.0
            else:
                stratum = k - (k + 2) // 5
                jitter = 0.4 + 0.2 * self._seq(0, _GOLD, i)
                p = _log_uniform((stratum + jitter) / 20.0)
            return Item(3 + i % 3, p, 0.01 + 0.01 * self._seq(1, _SILVER, i))
        if self.workload == "certify":
            p = 2.0 if i % 5 == 1 else _log_uniform(self._seq(0, _GOLD, i))
            r = 0.01 + 0.94 * self._seq(1, _SILVER, i)
            return Item(3 + i % 3, p, r, draw_seed=self.draw_base + i)
        if self.workload == "scatter":
            if i % 5 != 4:  # four in five from the acceptance box
                k = i - i // 5
                p = 2.0 if k % 5 == 1 else _log_uniform(self._seq(0, _GOLD, k))
                return Item(3 + k % 3, p, 0.01 + 0.94 * self._seq(1, _SILVER, k))
            j = i // 5  # domain edge: n up to 30, r up to 0.99
            n = 3 + int(28 * self._seq(2, _GOLD, j))
            p = 2.0 if j % 5 == 0 else _log_uniform(self._seq(3, _BRONZE, j))
            u = self._seq(4, _SILVER, j)
            r = 0.95 + 0.04 * u if n <= 5 else 0.01 + 0.98 * u
            return Item(n, p, r, box=False)
        raise ValueError(f"workload {self.workload!r} has no input stream")


@dataclass
class Outcome:
    """Result of one timed operation."""

    seconds: float
    box: bool
    failure: str | None = None
    results: int = 1          # correct results produced (radius points for a sweep)
    p2_rel_err: float = 0.0   # worst p = 2 deviation seen
    bytes_out: int = 0


def _classify(exc: BaseException) -> str:
    module = type(exc).__module__
    return "refused" if module == errors.__name__ else "crashed"


def _value_gate(n: int, p: float, r: float, value: float) -> tuple[str | None, float]:
    """Failure class of a returned G_p(r) value, and its p = 2 deviation."""
    if not math.isfinite(value):
        return "nonfinite", 0.0
    g_inf = solver.g_inf_closed(n, r)[1]
    g_one = solver.g_1_closed(n, r)[1]
    if not g_inf <= value <= g_one:
        return "out_of_range", 0.0
    if p == 2.0 and r > 0.0:
        closed = solver.g_2_closed(n, r)
        err = abs(value - closed) / closed
        return ("p2_mismatch" if err > P2_REL_TOL else None), err
    return None, 0.0


# Each run_* times one operation, then gates its output inside ``untraced()``
# so that a tracer does not record the reference computations.


def run_sweep(item: Item, out_path: str, untraced=nullcontext) -> Outcome:
    argv = [
        "gp", "--n", str(item.n), "--p", repr(item.p),
        "--r-min", repr(item.r), "--r-max", repr(SWEEP_R_MAX),
        "--steps", str(SWEEP_STEPS), "--output", out_path,
    ]
    started = perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a measured outcome, not a harness error
        return Outcome(perf_counter() - started, True, _classify(exc), 0)
    seconds = perf_counter() - started
    if code != 0:
        return Outcome(seconds, True, "cli_exit", 0)
    with open(out_path, encoding="utf-8") as handle:
        text = handle.read()
    rows = list(csv.DictReader(io.StringIO(text)))
    outcome = Outcome(seconds, True, None, len(rows), bytes_out=len(text.encode()))
    values = []
    with untraced():
        for row in rows:
            r, value = float(row["r"]), float(row["g_value"])
            failure, err = _value_gate(item.n, item.p, r, value)
            outcome.p2_rel_err = max(outcome.p2_rel_err, err)
            outcome.failure = outcome.failure or failure
            values.append(value)
    if len(rows) != SWEEP_STEPS:
        outcome.failure = outcome.failure or "cli_exit"
    elif not all(b > a for a, b in zip(values, values[1:])):
        outcome.failure = outcome.failure or "not_increasing"
    if outcome.failure:
        outcome.results = 0
    return outcome


def run_point(item: Item, untraced=nullcontext) -> Outcome:
    started = perf_counter()
    try:
        result = solver.g_p(BallContext(item.n, item.p), item.r)
    except Exception as exc:
        return Outcome(perf_counter() - started, item.box, _classify(exc), 0)
    outcome = Outcome(perf_counter() - started, item.box)
    with untraced():
        outcome.failure, outcome.p2_rel_err = _value_gate(item.n, item.p, item.r, result.g_value)
    outcome.results = 0 if outcome.failure else 1
    return outcome


def run_cert(item: Item, untraced=nullcontext) -> Outcome:
    ctx = BallContext(item.n, item.p)
    started = perf_counter()
    try:
        sharp = verify.verify_sharpness(ctx, item.r)
        sampled = verify.random_bound_check(ctx, item.r, count=CERT_DRAWS, seed=item.draw_seed)
    except Exception as exc:
        return Outcome(perf_counter() - started, True, _classify(exc), 0)
    outcome = Outcome(perf_counter() - started, True)
    if not sharp.rel_gap <= CERT_GAP_LIMIT:
        outcome.failure = "cert_gap"
    elif sampled.violations:
        outcome.failure = "cert_violation"
    outcome.results = 0 if outcome.failure else 1
    return outcome


def run_check() -> tuple[float, int, list[str], int]:
    """``hypschwarz check`` in-process: (seconds, exit code, criterion lines, bytes)."""
    buffer = io.StringIO()
    started = perf_counter()
    with redirect_stdout(buffer):
        code = cli.main(["check"])
    seconds = perf_counter() - started
    text = buffer.getvalue()
    lines = [line for line in text.splitlines() if line.startswith("CRITERION ")]
    return seconds, code, lines, len(text.encode())


def solver_caches():
    """The memo caches of the solver module, cleared between operations so
    that no timed repetition reuses another operation's solve."""
    return [
        obj for obj in vars(solver).values()
        if callable(getattr(obj, "cache_clear", None))
        and getattr(obj, "__module__", None) == solver.__name__
    ]
