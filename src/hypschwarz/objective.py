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

Each function here only supplies values, fn(log K, s^2): powers of d on log K
at the nodes of a shift's sites (``quadrature``'s, split where K crosses
the shift, on the lean layout but for ``dF_da``'s), summed by the one pass
``_site_sums``.  F and its slope (a second row of F's one power |d|^(q-1))
are one stack of values; Phi and the doubled-order Phi of ``est_error`` are
one pass.  So the Phi(a*) of a lone solve costs one power and one panel sum
on the site of its last F, and the residual F(a*) is that F.

The two private sums take lists of points and build the sites they sum on
(``_sites``, the one place that chooses a builder): one point sums on its
cached ``quadrature._site``, so the Phi of a lone solve reads its last F's
site; several are one node pass for each layout (``quadrature._new_sites``)
and one stacked site pass.  Both take points of one n, each with its own
conjugate exponent q.  ``_f_and_slope`` takes (r, s, q, slope) points: an F
pass, the next F of every open solve of every curve, sums an F row for
every point and a slope row for those that ask.  ``_phi_and_refined`` takes
(r, s, q) points: the G pass of a chunk of solved radii, and the battery's
Brent cross-checks of one n at every open cell.  Every point's values are the
bits of a pass on its site alone.  No site is handed out: a caller passes
numbers and gets numbers.  The public functions check their arguments
(``ObjectiveParams``) and enter ``quadrature._overflow_guard``; the private
ones run under their caller's (``solver.solve_a_star``,
``solver._g_p_curves``, ``cli._astar``, ``acceptance._stationarity``,
``acceptance._phi_minimizers``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import _EXP_MAX, BallContext, _log_range, _split_point, check_radius
from .quadrature import DEFAULT_ORDER, _checked, _new_sites, _overflow_guard, _site, _site_sums
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
        points = [(params.r, _log_shift(a), params.ctx.q)]
        return _checked(_phi_and_refined(params.ctx.n, params.order, points, False)[0][0])


def _sites(n: int, order: int, points, lean: bool):
    """(rows, site, s, runs) for each group of the sites split where K(r, .)
    crosses e^s at the (r, s, q, ...) of ``points``, lean or not, and its
    runs of equal q (``_runs``): one point on its cached ``quadrature._site``
    (a hit right after a lone solve), s a float; several in one node pass for
    each layout (``quadrature._new_sites``), s a column against the rows.
    The one place that chooses a builder (README)."""
    if len(points) == 1:
        r, s, q = points[0][:3]
        return (((0,), _site(n, r, order, _split_point(n, r, s), lean), s, ((None, q),)),)
    t0s = [_split_point(n, point[0], point[1]) for point in points]
    return [(rows, stack, np.array([points[k][1] for k in rows])[:, None, None], _runs(points, rows))
            for rows, stack in _new_sites(n, order, [point[0] for point in points], t0s, lean)]


def _runs(points, rows) -> list[tuple]:
    """(slice, q) of each run of ``rows`` with equal q = point[2], in row
    order, the slice None for a run of them all.  Each run is raised with
    its scalar q, the one way to keep a lone pass's bits: numpy's power
    takes fast paths at the exponents 2 and 0.5 for a scalar, not a column."""
    runs, start, q = [], 0, points[rows[0]][2]
    for i in range(1, len(rows)):
        if points[rows[i]][2] != q:
            runs.append((slice(start, i), q))
            start, q = i, points[rows[i]][2]
    runs.append((slice(start, len(rows)) if start else None, q))
    return runs


def _phi_and_refined(n: int, order: int, points, refine: bool) -> list[list[float]]:
    """[Phi(e^s) at ``order``, at est_error's reference order (``_site_sums``)]
    at each (r, s, q) of ``points``, Phi of the conjugate exponent q, or
    [Phi(e^s)] without ``refine``, unchecked (non-finite where Phi is): the
    bits of the point's own phi calls, on the lean sites of ``_sites``,
    each run of equal q raised by its scalar q.  The order is one already
    checked."""
    phis: list = [None] * len(points)
    for rows, site, shift, runs in _sites(n, order, points, True):
        sizes = []  # the largest |d| of each row
        for k in rows:
            ell, s = _log_range(n, points[k][0]), points[k][1]
            sizes.append(down if (down := -math.expm1(-ell - s)) > (up := _exp(ell - s, math.expm1)) else up)
        scale = 1.0 / sizes[0] if len(rows) == 1 else 1.0 / np.array(sizes)[:, None, None]

        def values(log_kernel, _):
            dev = log_kernel - shift
            np.expm1(dev, dev)
            dev *= scale
            np.abs(dev, dev)
            for run, q in runs:
                part = dev if run is None else dev[run]
                part **= q
            return dev

        totals = _site_sums(n, order, site, values, refine)
        for i, k in enumerate(rows):
            _, s, q = points[k]
            factor = _exp(s) * sizes[i]
            phis[k] = [factor * total[i] ** (1.0 / q) for total in totals]
    return phis


def big_f(params: ObjectiveParams, a: float) -> float:
    """F(r, a) = integral (K - a)|K - a|^(q-2) dsigma, decreasing in a,
    integrated as a^(q-1) integral sign(d) |d|^(q-1) dsigma, d = K/a - 1."""
    with _overflow_guard():
        point = (params.r, _log_shift(a), params.ctx.q, False)
        return _checked(_f_and_slope(params.ctx.n, params.order, [point])[0][0])


def _f_and_slope(n: int, order: int, points, lean: bool = True) -> list[tuple]:
    """[(F, dF/ds)] at each (r, s, q, slope) of ``points`` of one n, the
    shift a = e^s at r and F of the conjugate exponent q, for checked
    arguments, on the sites of ``_sites`` (lean or not): dF/ds = a dF/da is
    None unless ``slope``.  Both come from one power |d|^(q-1), each run of
    equal q raised by its scalar q: F's row is its copysign, the slope row
    that power over max(|d|, floor), the one definition of dF/ds.  Both are
    unchecked: the caller refuses a non-finite F (where a^(q-1) underflows,
    its integral overflows), and a caller that only steers by the slope
    keeps F's points.  Every site has an F row, and the sites of the points
    that ask a slope row, which ``quadrature._site_sums`` reads as further
    rows of a stack's first sites: so the points that ask come first.
    Every row has the bits of a pass on its point's site alone.
    """
    asking, results = 0, [None] * len(points)
    while asking < len(points) and points[asking][3]:  # the points that ask, the first ones
        asking += 1
    for rows, site, shift, runs in _sites(n, order, points, lean):
        slopes = bisect_left(rows, asking)  # the rows that ask, the first ones

        def values(log_kernel, _):
            dev = log_kernel - shift
            np.expm1(dev, dev)
            if slopes:  # the F rows of every site, then the slope rows of the first ones
                out = np.empty((len(dev) + slopes, *dev.shape[1:]))
                power, size = out[:len(dev)], out[len(dev):]
                asked = np.abs(dev, power)[:slopes]
                np.maximum(asked, _DEV_FLOOR, out=size)
            else:
                out = power = np.abs(dev)
            for run, q in runs:
                part = power if run is None else power[run]
                part **= q - 1.0
            if slopes:
                np.divide(asked, size, size)
            np.copysign(power, dev, power)
            return out

        totals, = _site_sums(n, order, site, values)
        for i, k in enumerate(rows):
            _, s, q, _ = points[k]
            scale = _exp((q - 1.0) * s)
            results[k] = (scale * totals[i], (1.0 - q) * scale * totals[len(rows) + i] if i < slopes else None)
    return results


def dF_da(params: ObjectiveParams, a: float) -> float:
    """dF/da = (1 - q) * integral |K - a|^(q-2) dsigma < 0, the slope row of
    ``_f_and_slope``, refused where non-finite.  Its panel sums shrink by
    2^-(q-1) toward the crossing, and the tail past the innermost panel is
    summed from that ratio, however near 1 (README, "Numerical notes").
    """
    with _overflow_guard():
        point = (params.r, _log_shift(a), params.ctx.q, True)
        (f_value, slope), = _f_and_slope(params.ctx.n, params.order, [point], lean=False)
        _checked(f_value)
        return _checked(slope / a)
