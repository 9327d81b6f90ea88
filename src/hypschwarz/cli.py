"""Command line interface.

Subcommands mirror the library surface: ``gp`` and ``astar`` evaluate the
sharp bound and its optimal shift over a radius or sweep, ``uh`` and ``grad``
print the closed-form quantities, the ``verify-*`` commands run the
certification routines, and ``check`` executes the full acceptance battery.

Exit codes: 0 on success, 1 on usage or domain errors, 2 when a verification
command detects a property violation.  Output is byte deterministic: floats
are rendered with repr-faithful precision and rows always end with a bare
newline.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import BracketError, CapUnderflowError, DomainError, NonConvergenceError
from .kernel import BallContext
from .objective import ObjectiveParams, big_f
from .quadrature import DEFAULT_ORDER
from .solver import _shift_curve, g_inf_closed, g_p_curve, grad_constant
from .verify import _bound_checks, _sharpness, cap_sequence_check


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; reserve 2 for violations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell(value) -> tuple[str, bool]:
    """(token, bare): ints bare, floats to 17 digits, strings and infinities quoted."""
    if isinstance(value, str):
        return value, False
    if isinstance(value, int):
        return str(value), True
    value = float(value)
    if math.isinf(value):
        return str(value), False
    return format(value, ".17g"), True


def _render(fmt: str, rows) -> str:
    if fmt == "text":
        return "".join(f"{row}\n" for row in rows)
    cells = [[(key, *_cell(value)) for key, value in row.items()] for row in rows]
    if fmt == "csv":
        lines = [",".join(rows[0])] + [",".join(token for _, token, _ in row) for row in cells]
        return "\n".join(lines) + "\n"
    objects = (
        "  {" + ", ".join(f'"{key}": ' + (token if bare else f'"{token}"') for key, token, bare in row) + "}"
        for row in cells
    )
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _radii(args) -> list:
    sweep = (args.r_min, args.r_max, args.steps)
    if args.r is not None:
        if sweep != (None, None, None):
            args.parser.error("give either --r or the sweep flags, not both")
        return [args.r]
    if None in sweep:
        args.parser.error("need --r, or all of --r-min/--r-max/--steps")
    if args.steps < 1:
        args.parser.error("--steps must be >= 1")
    return [float(x) for x in np.linspace(args.r_min, args.r_max, args.steps)]


def _gp(args):
    ctx = BallContext(args.n, args.p)
    rows = [{"r": r, "a_star": res.a_star, "g_value": res.g_value,
             "method": res.method, "est_error": res.est_error}
            for r, res in zip(args.radii, g_p_curve(ctx, args.radii, args.order))]
    return rows, False


def _astar(args):
    ctx = BallContext(args.n, args.p)
    if not 1.0 < ctx.p < math.inf:  # closed forms: no F to report
        return [{"r": r, "a_star": res.a_star, "f_residual": 0.0}
                for r, res in zip(args.radii, g_p_curve(ctx, args.radii, args.order))], False
    rows = [{"r": r, "a_star": a_star,
             "f_residual": big_f(ObjectiveParams(ctx, r, args.order), a_star) if r > 0.0 else 0.0}
            for r, a_star in _shift_curve(ctx, args.radii, args.order)]
    return rows, False


def _uh(args):
    return [{"r": r, "u_h": g_inf_closed(args.n, r)[1]} for r in args.radii], False


def _grad(args):
    ctx = BallContext(args.n, args.p)
    return [{"n": ctx.n, "p": ctx.p, "c_p": grad_constant(ctx)}], False


def _swept(ctx, radii, order):
    """g_p's stand-in for the verify-* commands: the GpResult at a radius of
    one g_p_curve sweep over ``radii``, solved on first use, so that their
    sweeps solve by continuation and report gp's rows."""
    results = {}

    def bound_of(_ctx, r, _order):
        if not results:
            results.update(zip(radii, g_p_curve(ctx, radii, order)))
        return results[r]

    return bound_of


def _verify_sharpness(args):
    ctx = BallContext(args.n, args.p)
    bound_of = _swept(ctx, args.radii, args.order)
    reports = [_sharpness(ctx, r, args.order, bound_of) for r in args.radii]
    rows = [{"n": ctx.n, "p": ctx.p, "r": report.r, "g_bound": report.g_bound,
             "attained": report.attained, "u_at_zero": report.u_at_zero,
             "rel_gap": report.rel_gap} for report in reports]
    return rows, not all(report.passed for report in reports)


def _verify_bound(args):
    ctx = BallContext(args.n, args.p)
    bound_of = _swept(ctx, args.radii, args.order)
    reports = _bound_checks(ctx, args.radii, args.count, args.seed, args.order, bound_of)
    rows = [{"n": ctx.n, "p": ctx.p, "r": r, "count": report.count, "seed": report.seed,
             "violations": report.violations, "max_ratio": report.max_ratio}
            for r, report in zip(args.radii, reports)]
    return rows, any(row["violations"] for row in rows)


def _verify_capseq(args):
    report = cap_sequence_check(args.n, args.r, args.i_max)
    rows = [
        {"i": i, "u_i": u_i, "g1_closed": report.g1, "rel_gap": gap}
        for i, u_i, gap in zip(report.indices, report.values, report.rel_gaps)
    ]
    return rows, not report.passed


def _check(args):
    from .acceptance import run_all

    results = run_all()
    return [result.line() for result in results], not all(result.passed for result in results)


_FLAGS = {
    "n": [("--n", dict(type=int, required=True, help="ambient dimension, >= 3"))],
    "p": [("--p", dict(type=float, required=True, help='boundary norm exponent; "inf" accepted'))],
    "radii": [
        ("--r", dict(type=float, help="single radius in [0, 1)")),
        ("--r-min", dict(type=float)),
        ("--r-max", dict(type=float)),
        ("--steps", dict(type=int, help="sweep length when using --r-min/--r-max")),
    ],
    "order": [("--order", dict(type=int, default=DEFAULT_ORDER,
                               help=f"quadrature order (default: {DEFAULT_ORDER})"))],
    "draws": [("--count", dict(type=int, default=1000)), ("--seed", dict(type=int, default=42))],
    "capseq": [
        ("--r", dict(type=float, required=True, help="radius in (0, 1)")),
        ("--i-max", dict(type=int, default=64)),
    ],
    "output": [
        ("--format", dict(choices=("csv", "json"), default="csv")),
        ("--output", dict(help="write to this file instead of stdout")),
    ],
}

#: name -> (help text, flag groups, function returning (rows, violated)); each
#: row is a dict whose keys are the output columns.
COMMANDS = {
    "gp": ("sharp bound G_p(r) with its optimal shift",
           ("n", "p", "radii", "order", "output"), _gp),
    "astar": ("optimal shift and stationarity residual",
              ("n", "p", "radii", "order", "output"), _astar),
    "uh": ("closed-form sup-norm bound on the axis", ("n", "radii", "output"), _uh),
    "grad": ("sharp gradient constant at the origin", ("n", "p", "output"), _grad),
    "verify-sharpness": ("attain the bound with extremal data",
                         ("n", "p", "radii", "order", "output"), _verify_sharpness),
    "verify-bound": ("random boundary data against the bound",
                     ("n", "p", "radii", "order", "draws", "output"), _verify_bound),
    "verify-capseq": ("p = 1 minimizing sequence against its limit",
                      ("n", "capseq", "output"), _verify_capseq),
    "check": ("run the full acceptance battery", (), _check),
}


@lru_cache(maxsize=1)  # parsing leaves the parser as it was; building it costs milliseconds
def build_parser() -> _Parser:
    parser = _Parser(prog="hypschwarz", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, groups, rows) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for group in groups:
            for flag, options in _FLAGS[group]:
                sub.add_argument(flag, **options)
        sub.set_defaults(rows=rows, parser=sub)
        if "output" not in groups:
            sub.set_defaults(format="text", output=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "steps" in vars(args):
        args.radii = _radii(args)
    try:
        if vars(args).get("order", DEFAULT_ORDER) < 2:
            raise DomainError(f"--order must be >= 2, got {args.order}")
        rows, violated = args.rows(args)
    except (DomainError, BracketError, NonConvergenceError, CapUnderflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _render(args.format, rows)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 2 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
