"""The shifted-kernel objective and its stationarity function.

For a fixed dimension, radius r and conjugate exponent q in (1, inf), the
quantity minimized over the shift a is

    Phi(a) = ( integral |K(r, .) - a|^q dsigma )^(1/q),

which is strictly convex in a.  Its stationarity is governed by

    F(r, a) = integral (K - a) |K - a|^(q-2) dsigma,

strictly decreasing in a, with d(Phi)/da = -Phi^(1-q) * F.  Every integrand
here is smooth except where K crosses the level a, so all integrals use the
breakpoint-aware rule split at that crossing.

A site is the graded rule's node set split at one point t0 with K at its
nodes; it depends on (n, r, order, t0) only, and the last two built are
kept.  Every kernel-weighted integral is one pass on a site, ``_site_sums``:
F, its slope dF/da (a second row of F's power), Phi, the doubled-order Phi
of ``est_error`` (the outer panels of its layout spliced in, on no site of
its own) and the certificates' data in ``verify`` differ only in the values
summed.  So Phi(a*) and the residual F(a*) cost one power and one panel sum
on the site of the solve's last F, and a certificate right after g_p reads
the site of a*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernel import BallContext, _axis_kernel, check_radius, crossing_point, kernel_range
from .quadrature import (DEFAULT_ORDER, _checked, _graded_nodes, _outer_nodes, _panel_sums,
                         _side_total)

# Floor applied to |K - a| in negative-exponent integrands: a quadrature node
# can land within one rounding step of the crossing, where the computed
# difference may be exactly 0 although the true distance never is.
_DEV_FLOOR = 2.0 ** -52


@dataclass(frozen=True)
class ObjectiveParams:
    """Evaluation site for the objective: context, radius in (0, 1), rule order.

    At r = 0 the kernel is identically 1: a*(0) = 1 and G_p(0) = 0 exactly.
    """

    ctx: BallContext
    r: float
    order: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        _check_exponent(self.ctx, "the objective")
        if check_radius(self.r) == 0.0:
            raise DomainError("objective is defined for r in (0, 1); a*(0) = 1 and G_p(0) = 0")


def _check_exponent(ctx: BallContext, what: str) -> None:
    """Refuse p outside (1, inf), and p whose conjugate q = p/(p-1) rounds to 1."""
    if 1.0 < ctx.p < math.inf and ctx.q == 1.0:
        raise DomainError(f"{what} needs q = p/(p-1) > 1, but at p = {ctx.p!r} q rounds to 1 "
                          "in double precision")
    if not (math.isfinite(ctx.q) and ctx.q > 1.0):
        raise DomainError(f"{what} applies to p in (1, inf) only, got p = {ctx.p!r}")


def _split_point(ctx: BallContext, r: float, a: float) -> float:
    """Where K(r, .) crosses the level a; where it never does, the pole where
    K comes nearest to a: t = 1 for a level above the range, t = -1 below."""
    t0 = crossing_point(ctx, r, a)
    return (1.0 if a > 1.0 else -1.0) if t0 is None else t0


@lru_cache(maxsize=2, typed=True)  # typed: an order of 128.0 must miss 128's site and be refused
def _site(n: int, r: float, order: int, t0: float):
    """(K, node set): the graded rule's node set split at t0 and the kernel
    K(r, .) at its nodes, read-only."""
    nodes = _graded_nodes(n, order, t0)
    kernel = _axis_kernel(n, r, nodes[0])
    kernel.setflags(write=False)
    return kernel, nodes


def _site_sums(n: int, r: float, order: int, t0: float, fn, refine: int = 0) -> list[float]:
    """Zonal integrals of fn(K, t), values at the nodes of the site split at
    t0, unchecked (non-finite where a value or a sum is): a list of one for
    an array of values, of one per row for a stack of them.

    With ``refine``, the same integrals at the order ``refine`` follow.  The
    two layouts differ only on the outer panels of each side, every panel at
    a pole (``_outer_nodes``); each inner panel has the same 12 nodes at the
    same offsets in both.  So fn is evaluated on those outer panels alone,
    their sums replace the first order's, and the panels are added up again
    in the same left-to-right loop: the bits of a full evaluation.
    """
    # Overflow leaves non-finite values, and so non-finite sums.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, nodes = _site(n, r, order, t0)
        per_panel = _panel_sums(fn(kernel, nodes[0]), nodes)
        rows = [per_panel.tolist()]
        if refine:
            outer = _outer_nodes(n, refine, t0)
            outer_sums = _panel_sums(fn(_axis_kernel(n, r, outer[0]), outer[0]), outer)
            per_panel[..., :outer_sums.shape[-1]] = outer_sums
            rows.append(per_panel.tolist())
    totals = []
    for sums in rows:
        for sides in sums if per_panel.ndim == 3 else [sums]:
            totals.append(_side_total(n, sides, nodes[4]))
    return totals


def _site_integral(n: int, r: float, order: int, t0: float, fn):
    """``_site_sums`` refused where non-finite: a float for one integral, a list for more."""
    totals = [_checked(total) for total in _site_sums(n, r, order, t0, fn)]
    return totals if len(totals) > 1 else totals[0]


def phi(params: ObjectiveParams, a: float) -> float:
    """Phi(a) = (integral |K - a|^q dsigma)^(1/q).

    The deviation is divided by s = max(kmax - a, a - kmin), its largest
    size over the sphere, before the power is taken: |K - a|^q itself
    overflows near r = 1 for large q while Phi = s * (integral |(K - a)/s|^q
    dsigma)^(1/q) is finite.
    """
    return _phi_and_refined(params, a, 0)[0]


def _phi_and_refined(params: ObjectiveParams, a: float, order: int) -> list[float]:
    """[Phi(a) at params.order, Phi(a) at ``order``], the bits of two phi
    calls from one site pass; [Phi(a)] alone for order 0."""
    ctx, r, q = params.ctx, params.r, params.ctx.q
    kmin, kmax = kernel_range(ctx, r)
    s = max(kmax - a, a - kmin) or 1.0  # 0 only where the range collapses onto a

    def values(kernel, _):
        dev = kernel - a
        dev /= s
        np.abs(dev, out=dev)
        dev **= q
        return dev

    totals = _site_sums(ctx.n, r, params.order, _split_point(ctx, r, a), values, order)
    return [s * _checked(total) ** (1.0 / q) for total in totals]


def big_f(params: ObjectiveParams, a: float) -> float:
    """F(r, a) = integral (K - a)|K - a|^(q-2) dsigma, decreasing in a.

    The integrand is written |K - a|^(q-1) with the sign of K - a, which is
    bounded for every q > 1.
    """
    ctx, r, q = params.ctx, params.r, params.ctx.q

    def values(kernel, _):
        dev = kernel - a
        power = np.abs(dev)
        power **= q - 1.0
        return np.copysign(power, dev, out=power)

    return _checked(_site_sums(ctx.n, r, params.order, _split_point(ctx, r, a), values)[0])


def _f_and_slope(params: ObjectiveParams, a: float) -> tuple[float, float]:
    """(F(a), dF/da) from one power on one site: F has big_f's bits, and the
    slope row, |K - a|^(q-1) / max(|K - a|, floor) for |K - a|^(q-2), is the
    one definition of dF/da.  F is refused like big_f's; the slope is
    returned as it comes, non-finite included, because a caller that only
    steers by it must not lose a point F answers.
    """
    ctx, r, q = params.ctx, params.r, params.ctx.q
    floor = _DEV_FLOOR * max(1.0, abs(a))

    def rows(kernel, _):
        dev = kernel - a
        size = np.abs(dev)
        power = size ** (q - 1.0)
        out = np.empty((2, *dev.shape))
        np.copysign(power, dev, out=out[0])
        np.divide(power, np.maximum(size, floor, out=size), out=out[1])
        return out

    f_value, slope = _site_sums(ctx.n, r, params.order, _split_point(ctx, r, a), rows)
    return _checked(f_value), (1.0 - q) * slope


def dF_da(params: ObjectiveParams, a: float) -> float:
    """dF/da = (1 - q) * integral |K - a|^(q-2) dsigma < 0, the slope row of
    ``_f_and_slope``, refused where non-finite.  Its panel sums shrink by
    2^-(q-1) toward the crossing, and the tail past the innermost panel is
    summed from that ratio, however near 1 (README, "Numerical notes").
    """
    return _checked(_f_and_slope(params, a)[1])
