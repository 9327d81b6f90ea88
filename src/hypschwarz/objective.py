"""The shifted-kernel objective and its stationarity function.

For a fixed dimension, radius r and conjugate exponent q in (1, inf), the
quantity minimized over the shift a is

    Phi(a) = ( integral |K(r, .) - a|^q dsigma )^(1/q),

which is strictly convex in a.  Its stationarity is governed by

    F(r, a) = integral (K - a) |K - a|^(q-2) dsigma,

strictly decreasing in a, with d(Phi)/da = -Phi^(1-q) * F.  Every integrand
here is smooth except where K crosses the level a, so all integrals route
through the breakpoint-aware rule with that crossing declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernel import BallContext, check_radius, crossing_point, poisson_szego_axis
from .quadrature import DEFAULT_ORDER, integrate_with_breakpoint

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
        if not (math.isfinite(self.ctx.q) and self.ctx.q > 1.0):
            raise DomainError(
                f"objective needs a finite conjugate exponent q > 1, got q = {self.ctx.q!r}"
            )
        if check_radius(self.r) == 0.0:
            raise DomainError("objective is defined for r in (0, 1); a*(0) = 1 and G_p(0) = 0")
        if self.order < 2:
            raise DomainError(f"rule order must be >= 2, got {self.order!r}")


def _deviation_integral(params: ObjectiveParams, a: float, weight_fn) -> float:
    """Breakpoint-routed integral of weight_fn(K - a), split where K = a."""
    if not math.isfinite(a):
        raise DomainError(f"shift must be finite, got {a!r}")
    ctx, r = params.ctx, params.r
    t0 = crossing_point(ctx, r, a)

    def integrand(t):
        return weight_fn(poisson_szego_axis(ctx, r, t) - a)

    return integrate_with_breakpoint(ctx.n, params.order, integrand, t0)


def phi(params: ObjectiveParams, a: float) -> float:
    """Phi(a) = (integral |K - a|^q dsigma)^(1/q)."""
    q = params.ctx.q
    value = _deviation_integral(params, a, lambda dev: np.abs(dev) ** q)
    return value ** (1.0 / q)


def big_f(params: ObjectiveParams, a: float) -> float:
    """F(r, a) = integral (K - a)|K - a|^(q-2) dsigma, decreasing in a.

    The integrand is written sign(K - a) |K - a|^(q-1), which is bounded for
    every q > 1.
    """
    q = params.ctx.q
    return _deviation_integral(
        params, a, lambda dev: np.sign(dev) * np.abs(dev) ** (q - 1.0)
    )


def dF_da(params: ObjectiveParams, a: float) -> float:
    """dF/da = (1 - q) * integral |K - a|^(q-2) dsigma  (always negative).

    For q < 2 the integrand has an integrable singularity at the crossing;
    the graded rule absorbs it.
    """
    q = params.ctx.q
    floor = _DEV_FLOOR * max(1.0, abs(a)) if q < 2.0 else 0.0
    return (1.0 - q) * _deviation_integral(
        params, a, lambda dev: np.maximum(np.abs(dev), floor) ** (q - 2.0)
    )
