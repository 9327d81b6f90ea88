"""The invariant (hyperbolic) Poisson kernel of the unit ball, restricted to
evaluation points on a fixed axis.

With the evaluation point at distance r along the axis and a boundary point
whose axis coordinate is t = <eta, axis>, the kernel depends on (r, t) only:

    K(r, t) = ((1 - r^2) / (1 + r^2 - 2 r t)) ** (n - 1).

All helpers accept scalar or ndarray ``t``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .special import check_dimension


def conjugate_exponent(p: float) -> float:
    """Holder conjugate q with 1/p + 1/q = 1; maps 1 <-> inf."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class BallContext:
    """Dimension and exponent pair fixed for a whole computation.

    ``q`` is always the Holder conjugate of ``p``; exactly one of the two may
    be infinite.
    """

    n: int
    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_dimension(self.n))
        if not (self.p == math.inf or (math.isfinite(self.p) and self.p >= 1.0)):
            raise DomainError(f"exponent p must lie in [1, inf], got {self.p!r}")
        object.__setattr__(self, "q", conjugate_exponent(float(self.p)))


def check_radius(r: float) -> float:
    if not (0.0 <= r < 1.0 and math.isfinite(r)):
        raise DomainError(f"radius must lie in [0, 1), got {r!r}")
    return float(r)


def poisson_szego_axis(ctx: BallContext, r: float, t):
    """Kernel value K(r, t); vectorized over t.

    Evaluated in log space: the value spans ((1-r)/(1+r))^(n-1) up to its
    reciprocal, which overflows a naive power for r near 1 and large n.
    """
    r = check_radius(r)
    t = np.asarray(t, dtype=float)
    if t.size and not (-1.0 <= t.min() and t.max() <= 1.0):
        raise DomainError("axis coordinate t must lie in [-1, 1]")
    logk = (ctx.n - 1) * (math.log1p(-r * r) - np.log1p(r * r - 2.0 * r * t))
    out = np.exp(logk)
    return out if out.ndim else float(out)


def kernel_range(ctx: BallContext, r: float) -> tuple[float, float]:
    """(min, max) of K(r, .) over t in [-1, 1].

    The minimum sits at t = -1, the maximum at t = +1, and their product
    is exactly 1.  Raises DomainError once the minimum drops below the
    smallest normal double, where 1/min would overflow.
    """
    r = check_radius(r)
    lo = ((1.0 - r) / (1.0 + r)) ** (ctx.n - 1)
    if lo < sys.float_info.min:
        raise DomainError(
            f"kernel range leaves double precision at n={ctx.n}, r={r}: "
            f"((1-r)/(1+r))^(n-1) = {lo!r} is below {sys.float_info.min!r}"
        )
    return lo, 1.0 / lo


def crossing_point(ctx: BallContext, r: float, a: float):
    """The unique t where K(r, t) = a, or None when no crossing exists.

    Solving K = a for t gives

        t = (1 + r^2)/(2r) - ((1 - r^2)/(2r)) * a^(1/(1-n)),

    which lies in [-1, 1] exactly when a is within the kernel's range.
    """
    r = check_radius(r)
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"level must be positive and finite, got {a!r}")
    if r == 0.0:
        if a != 1.0:
            raise DomainError("constant kernel at r = 0 never attains a != 1")
        return None  # K - 1 vanishes identically; no isolated crossing
    t = (1.0 + r * r) / (2.0 * r) - (1.0 - r * r) / (2.0 * r) * a ** (1.0 / (1.0 - ctx.n))
    if -1.0 <= t <= 1.0:
        return float(t)
    return None
