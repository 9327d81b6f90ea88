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
The two private sums take lists of points.  ``_f_and_slope`` takes
(r, s, slope) points: a sweep's F pass, the next F of every open solve,
builds the new sites of each layout in one node pass
(``quadrature._new_sites``) and sums an F row for every point and a slope
row for those that ask, one pass per layout.  ``_phi_and_refined`` takes
(s, site) points: a sweep holds a copy of the site of each radius's last F
and sums Phi on a chunk of them, one pass per group of
``quadrature._stacks``, which also gives the group's shifts and scales in
its shape.  Every point's values are the bits of a pass on its site alone.
The public functions check their arguments (``ObjectiveParams``) and enter
``quadrature._overflow_guard``; the private ones run under their caller's
(``solver.solve_a_star``, ``solver.g_p_curve``, ``cli._astar``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import _EXP_MAX, BallContext, _log_range, _split_point, check_radius
from .quadrature import DEFAULT_ORDER, _checked, _new_sites, _overflow_guard, _site, _site_sums, _stacks
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
        return _checked(_f_and_slope(params.ctx, params.order, [(params.r, _log_shift(a), False)])[0][0])


def _f_and_slope(ctx: BallContext, order: int, points, lean: bool = True) -> list[tuple]:
    """[(F, dF/ds, site)] at each (r, s, slope) of ``points``, the shift
    a = e^s at r, for checked arguments: dF/ds = a dF/da is None unless
    ``slope``, and the site is the point's ``_shift_site`` (lean or not).
    Both come from one power |d|^(q-1): F's row is its copysign, the slope
    row that power over max(|d|, floor), the one definition of dF/ds.  Both
    are unchecked: the caller refuses a non-finite F (where a^(q-1)
    underflows, its integral overflows), and a caller that only steers by
    the slope keeps F's points.  One point sums on its lone site; several
    are one stacked site pass for each layout (``quadrature._new_sites``),
    with F rows for every point and slope rows for the points that ask for
    one, its points' sites built in one node pass: every row the bits of a
    pass on its point's site alone.
    """
    q, n = ctx.q, ctx.n
    if len(points) == 1:  # no stacking machinery
        (r, s, slope), = points
        site = _shift_site(n, r, order, s, lean)
        totals = _f_rows(ctx, order, site, s, int(slope))
        scale = _exp((q - 1.0) * s)
        return [(scale * totals[0], (1.0 - q) * scale * totals[1] if slope else None, site)]
    # the points that ask for a slope first: a stack's slope rows are its first sites'
    ranked = sorted(range(len(points)), key=lambda k: not points[k][2])
    t0s = [_split_point(n, points[k][0], points[k][1]) for k in ranked]
    results: list = [None] * len(points)
    for rows, stack, sites in _new_sites(n, order, [points[k][0] for k in ranked], t0s, lean):
        rows = [ranked[k] for k in rows]
        slopes = sum(points[k][2] for k in rows)
        totals = _f_rows(ctx, order, stack, np.array([points[k][1] for k in rows])[:, None, None], slopes)
        for i, k in enumerate(rows):
            scale = _exp((q - 1.0) * points[k][1])
            slope = (1.0 - q) * scale * totals[len(rows) + i] if i < slopes else None
            results[k] = (scale * totals[i], slope, sites[i])
    return results


def _f_rows(ctx: BallContext, order: int, site, shift, slopes: int) -> list[float]:
    """The totals of ``_f_and_slope``'s rows on ``site``, a lone site or a
    stack, at the shift s (a float, or a column of one per site): F's row,
    sign(d) |d|^(q-1), for each site, then the slope row, |d|^(q-1) over
    max(|d|, floor), for each of its first ``slopes``, both unscaled."""
    q = ctx.q

    def values(log_kernel, _):
        dev = log_kernel - shift
        np.expm1(dev, out=dev)
        if dev.ndim == 2:  # a lone site's rows, as a stack of one
            dev = dev[None]
        sites = len(dev)
        out = np.empty((sites + slopes, *dev.shape[1:]))
        power = np.abs(dev, out=out[:sites])
        power **= q - 1.0
        if slopes:
            size = np.abs(dev[:slopes], out=out[sites:])
            np.divide(power[:slopes], np.maximum(size, _DEV_FLOOR, out=size), out=size)
        np.copysign(power, dev, out=power)
        return out

    totals, = _site_sums(ctx.n, order, site, values)
    return totals


def dF_da(params: ObjectiveParams, a: float) -> float:
    """dF/da = (1 - q) * integral |K - a|^(q-2) dsigma < 0, the slope row of
    ``_f_and_slope``, refused where non-finite.  Its panel sums shrink by
    2^-(q-1) toward the crossing, and the tail past the innermost panel is
    summed from that ratio, however near 1 (README, "Numerical notes").
    """
    with _overflow_guard():
        (f_value, slope, _), = _f_and_slope(params.ctx, params.order, [(params.r, _log_shift(a), True)], lean=False)
        _checked(f_value)
        return _checked(slope / a)
