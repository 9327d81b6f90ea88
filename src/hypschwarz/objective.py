"""The shifted-kernel objective and its stationarity function.

For a fixed dimension, radius r and conjugate exponent q in (1, inf), the
quantity minimized over the shift a = e^s is

    Phi(a) = ( integral |K(r, .) - a|^q dsigma )^(1/q) = a ( integral |d|^q dsigma )^(1/q),

which is strictly convex in a; d = K/a - 1 = expm1(log K - s) keeps the
digits that K - a, a difference of two numbers near 1 at small r, loses.
Its stationarity is governed by

    F(r, a) = integral (K - a) |K - a|^(q-2) dsigma = a^(q-1) integral sign(d) |d|^(q-1) dsigma,

strictly decreasing in a, with d(Phi)/da = -Phi^(1-q) * F.  Every integrand
here is smooth except where K crosses the level a, so all integrals use the
breakpoint-aware rule split at that crossing.

Each function here only supplies values, fn(log K, t): powers of d on log
K at the nodes of a shift's one site, ``_shift_site`` (a site of
``quadrature`` split where K crosses the shift, on the lean layout but for
``dF_da``'s), summed by its one pass ``_site_sums``.  F and its slope (a
second row of F's one power |d|^(q-1)) are one stack of values; Phi and
the doubled-order Phi of ``est_error`` are one pass.  So Phi(a*) costs one
power and one panel sum on the site of the solve's last F, and the
residual F(a*) is that F.
``_phi_and_refined`` takes a list of (s, site) points: a sweep holds the
site of each radius's last F and sums Phi on a chunk of them, one pass per
group of ``quadrature._stacks``, which also gives the group's shifts and
scales in its shape, every point's values the bits of a pass on its site
alone.  The public functions check their arguments (``ObjectiveParams``)
and enter ``quadrature._overflow_guard``; the private ones run under their
caller's (``solver.solve_a_star``, ``solver.g_p_curve``, ``cli._astar``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import _EXP_MAX, BallContext, _log_range, _split_point, check_radius
from .quadrature import DEFAULT_ORDER, _checked, _overflow_guard, _site, _site_sums, _stacks
from .special import check_order

# Floor applied to |d| in negative-exponent integrands: a quadrature node can
# land within one rounding step of the crossing, where the computed deviation
# may be exactly 0 although the true distance never is.
_DEV_FLOOR = 2.0 ** -52
# The linear regime: below it a* = 1 and G_p(r) = C_p r to double precision (``solver._linear``).
_R_LIN = 2.0 ** -60


@dataclass(frozen=True)
class ObjectiveParams:
    """Evaluation site for the objective: context, radius in [_R_LIN, 1),
    rule order.  Below _R_LIN (r = 0 included) a* = 1 and G_p(r) = C_p r.
    r and the order are checked here, after p, and stored as a float and an int.
    """

    ctx: BallContext
    r: float
    order: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        _check_exponent(self.ctx, "the objective")
        object.__setattr__(self, "r", check_radius(self.r))
        if self.r < _R_LIN:
            raise DomainError(f"objective is defined for r in [2^-60, 1), got {self.r!r}: below it, the "
                              "linear regime, a* = 1 and G_p(r) = C_p r")
        object.__setattr__(self, "order", check_order(self.order))


def _check_exponent(ctx: BallContext, what: str) -> None:
    """Refuse p outside (1, inf), and p whose conjugate q = p/(p-1) rounds to 1."""
    if 1.0 < ctx.p < math.inf and ctx.q == 1.0:
        raise DomainError(f"{what} needs q = p/(p-1) > 1, but at p = {ctx.p!r} q rounds to 1 "
                          "in double precision")
    if not (math.isfinite(ctx.q) and ctx.q > 1.0):
        raise DomainError(f"{what} applies to p in (1, inf) only, got p = {ctx.p!r}")


def _exp(x: float, fn=math.exp) -> float:
    """fn(x) for math.exp or math.expm1, inf where Python raises OverflowError."""
    return fn(x) if x <= _EXP_MAX else math.inf


def _log_shift(a: float) -> float:
    """log a for a public function's shift a, refused unless positive and finite."""
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"shift must be positive and finite, got {a!r}")
    return math.log(a)


def phi(params: ObjectiveParams, a: float) -> float:
    """Phi(a) = (integral |K - a|^q dsigma)^(1/q).

    d = K/a - 1 is divided by its largest size m = max(e^(l-s) - 1, 1 - e^(-l-s))
    first: |d|^q overflows near r = 1 for large q, a m (integral |d/m|^q)^(1/q) not.
    """
    with _overflow_guard():
        s = _log_shift(a)
        points = [(s, _shift_site(params.ctx.n, params.r, params.order, s))]
        return _checked(_phi_and_refined(params.ctx, params.order, points, False)[0][0])


def _shift_site(n: int, r: float, order: int, s: float, lean: bool = True):
    """The one builder of the site split where K(r, .) crosses e^s
    (``quadrature._site``), on which F, its slope and Phi at a = e^s sum:
    on the lean layout (``quadrature._layout``), as |d|^(q-1) and |d|^q
    vanish at the crossing like a power, but for ``dF_da``, whose
    |d|^(q-2) is singular there."""
    return _site(n, r, order, _split_point(n, r, s), lean)


def _phi_and_refined(ctx: BallContext, order: int, points, refine: bool) -> list[list[float]]:
    """[Phi(e^s) at ``order``, at est_error's reference order (``_site_sums``)]
    at each (s, site of ``_shift_site``) of ``points``, or [Phi(e^s)]
    without ``refine``, unchecked (non-finite where Phi is): the bits of the
    point's own phi calls.  The points of one layout are one stacked site
    pass (``_stacks``): a sweep holds the site of each radius's last F and
    sums them together.  The order is one already checked."""
    q, shifts, sizes = ctx.q, [], []
    for s, site in points:
        ell = _log_range(ctx.n, site[0])
        shifts.append(s)
        sizes.append(max(_exp(ell - s, math.expm1), -math.expm1(-ell - s)))
    phis: list = [None] * len(points)
    for rows, site, shift, scale in _stacks([site for _, site in points], shifts, [1.0 / size for size in sizes]):

        def values(log_kernel, _):
            dev = log_kernel - shift
            np.expm1(dev, out=dev)
            np.multiply(dev, scale, out=dev)
            np.abs(dev, out=dev)
            dev **= q
            return dev

        for k, *totals in zip(rows, *_site_sums(ctx.n, order, site, values, refine)):
            factor = _exp(shifts[k]) * sizes[k]
            phis[k] = [factor * total ** (1.0 / q) for total in totals]
    return phis


def big_f(params: ObjectiveParams, a: float) -> float:
    """F(r, a) = integral (K - a)|K - a|^(q-2) dsigma, decreasing in a,
    integrated as a^(q-1) integral sign(d) |d|^(q-1) dsigma, d = K/a - 1."""
    with _overflow_guard():
        return _f_and_slope(params.ctx, params.r, params.order, _log_shift(a), False)[0]


def _f_and_slope(ctx: BallContext, r: float, order: int, s: float, slope: bool, lean: bool = True):
    """(F, dF/ds) at the shift a = e^s on ``_shift_site`` (lean or not) for
    checked arguments, or (F, None) without the slope, from one power |d|^(q-1):
    F's row is its copysign, the slope row that power over max(|d|, floor),
    the one definition of dF/ds = a dF/da.  F is refused where non-finite
    (where a^(q-1) underflows, its integral overflows); the slope comes as
    it is: a caller that only steers by it keeps F's points.
    """
    q = ctx.q

    def rows(log_kernel, _):
        dev = log_kernel - s
        np.expm1(dev, out=dev)
        out = np.empty((1 + slope, *dev.shape))
        power = np.abs(dev, out=out[0])
        power **= q - 1.0
        if slope:
            size = np.abs(dev)
            np.divide(power, np.maximum(size, _DEV_FLOOR, out=size), out=out[1])
        np.copysign(power, dev, out=power)
        return out

    totals, = _site_sums(ctx.n, order, _shift_site(ctx.n, r, order, s, lean), rows)
    scale = _exp((q - 1.0) * s)
    return _checked(scale * totals[0]), (1.0 - q) * scale * totals[1] if slope else None


def dF_da(params: ObjectiveParams, a: float) -> float:
    """dF/da = (1 - q) * integral |K - a|^(q-2) dsigma < 0, the slope row of
    ``_f_and_slope``, refused where non-finite.  Its panel sums shrink by
    2^-(q-1) toward the crossing, and the tail past the innermost panel is
    summed from that ratio, however near 1 (README, "Numerical notes").
    """
    with _overflow_guard():
        return _checked(_f_and_slope(params.ctx, params.r, params.order, _log_shift(a), True, lean=False)[1] / a)
