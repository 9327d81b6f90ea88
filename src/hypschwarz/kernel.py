"""The invariant (hyperbolic) Poisson kernel of the unit ball, restricted to
evaluation points on a fixed axis.

With the evaluation point at distance r along the axis and a boundary point
whose axis coordinate is t = <eta, axis>, the kernel depends on (r, t) only:

    K(r, t) = ((1 - r^2) / (1 + r^2 - 2 r t)) ** (n - 1).

All helpers accept scalar or ndarray ``t``.
"""

from __future__ import annotations

import math
import numbers
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
    be infinite.  ``p`` is stored as a float, so equal contexts print alike.
    """

    n: int
    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_dimension(self.n))
        p = self.p
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not (
                p == math.inf or (math.isfinite(p) and p >= 1.0)):
            raise DomainError(f"exponent p must lie in [1, inf], got {p!r}")
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "q", conjugate_exponent(self.p))


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
    out = np.exp(_log_kernel(ctx.n, r, np.atleast_1d(t)))
    return out if t.ndim else float(out[0])


def _log_kernel(n: int, r, t: np.ndarray) -> np.ndarray:
    """log K(r, t) = (n - 1) (log(1 - r^2) - log(1 + r^2 - 2 r t)), a new
    array built in place, at a radius in [0, 1) and an array t (of one
    dimension or more) of values in [-1, 1], unchecked: the nodes of a
    quadrature rule are cosines and need no check.  For a list of radii,
    one per row of t's leading axis (a stack of sites), each row is the bits
    of its radius alone: the same operations, the radii's constants in a
    column."""
    if isinstance(r, list):
        if min(r) < sys.float_info.min:
            return np.stack([_log_kernel(n, rk, row) for rk, row in zip(r, t)])
        columns = np.array([(2.0 * rk, rk * rk, math.log1p(-rk * rk)) for rk in r]).T
        two_r, r_sq, gap = columns.reshape(3, -1, *(1,) * (t.ndim - 1))
    elif r < sys.float_info.min:  # r^2 is 0: log K = 2 (n - 1) r t, rounded after the factor
        return (2.0 * (n - 1) * r) * t
    else:
        two_r, r_sq, gap = 2.0 * r, r * r, math.log1p(-r * r)
    log_k = two_r * t
    np.subtract(r_sq, log_k, out=log_k)
    np.log1p(log_k, out=log_k)
    np.subtract(gap, log_k, out=log_k)
    log_k *= n - 1
    return log_k


# math.exp and math.expm1 raise OverflowError past this.
_EXP_MAX = math.log(sys.float_info.max)


def _log_range(n: int, r: float) -> float:
    """l = log K(r, 1) = -log K(r, -1): log K ranges over [-l, l]."""
    return (n - 1) * (math.log1p(r) - math.log1p(-r))


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


def _split_point(n: int, r: float, s: float) -> float:
    """The t where K(r, t) = e^s, at r in (0, 1), unchecked.  Solving K = e^s
    for t gives, with sigma = s/(n - 1),

        t = (1 - e^-sigma + r^2 (1 + e^-sigma)) / (2r),

    which lies in [-1, 1] exactly when s is within the range [-l, l] of
    log K.  Outside it, the pole where K comes nearest to the level: t = 1
    for a level above the range, t = -1 below."""
    sigma = s / (n - 1)
    return min(max((-math.expm1(-sigma) + r * r * (1.0 + math.exp(-sigma))) / (2.0 * r), -1.0), 1.0)
