"""The invariant (hyperbolic) Poisson kernel of the unit ball, restricted to
evaluation points on a fixed axis.

With the evaluation point at distance r along the axis and a boundary point
whose axis coordinate is t = <eta, axis>, the kernel depends on (r, t) only:

    K(r, t) = ((1 - r^2) / (1 + r^2 - 2 r t)) ** (n - 1).

All helpers accept scalar or ndarray ``t``.  ``_log_kernel`` takes a point
by s^2 = sin^2(theta/2) = (1 - t)/2 and r as its ``_kernel_constants``:
floats, or a stack's columns (``quadrature._new_sites``).  As 1 + r^2 - 2 r t
= (1 - r)^2 + 4 r s^2, log K = (n - 1) (log1p(r) - log1p(-r) - log1p(4 r s^2
/ (1 - r)^2)), with no cancellation at the pole t = 1.
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
        if not (type(p) is float or isinstance(p, numbers.Real) and not isinstance(p, bool)) or not (
                p == math.inf or (math.isfinite(p) and p >= 1.0)):
            raise DomainError(f"exponent p must lie in [1, inf], got {p!r}")
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "q", conjugate_exponent(self.p))


def check_radius(r: float) -> float:
    """r as a float if it is a numbers.Real in [0, 1), not a bool (a float passes the cheap first test)."""
    if not ((isinstance(r, float) or isinstance(r, numbers.Real) and not isinstance(r, bool))
            and 0.0 <= r < 1.0 and math.isfinite(r)):
        raise DomainError(f"radius must lie in [0, 1), got {r!r}")
    return float(r) + 0.0  # + 0.0 turns -0.0 into 0.0, an equal key of g_p's memo


def poisson_szego_axis(ctx: BallContext, r: float, t):
    """Kernel value K(r, t); vectorized over t.

    Evaluated in log space: the value spans ((1-r)/(1+r))^(n-1) up to its
    reciprocal, which overflows a naive power for r near 1 and large n.
    """
    r = check_radius(r)
    t = np.asarray(t, dtype=float)
    if t.size and not (-1.0 <= t.min() and t.max() <= 1.0):
        raise DomainError("axis coordinate t must lie in [-1, 1]")
    s_sq = 0.5 * (1.0 - np.atleast_1d(t))
    out = np.exp(_log_kernel(ctx.n, _kernel_constants(r), s_sq, out=s_sq))
    return out if t.ndim else float(out[0])


def _kernel_constants(r: float) -> tuple[float, float]:
    """(4r / (1 - r)^2, log1p(r) - log1p(-r)): what ``_log_kernel`` takes of
    the radius, the second log K(r, 1) / (n - 1)."""
    return 4.0 * r / ((1.0 - r) * (1.0 - r)), math.log1p(r) - math.log1p(-r)


def _log_kernel(n: int, constants, s_sq: np.ndarray, out=None) -> np.ndarray:
    """log K(r, t) = (n - 1) (log1p(r) - log1p(-r) - log1p(4 r s^2 / (1 - r)^2)),
    a new array built in place (or ``out``, which may be s_sq), from the
    ``_kernel_constants`` of r in [0, 1) (on a stack, columns against the
    rows of s_sq) at an array s_sq of half-angle squares s^2 = (1 - t)/2 in
    [0, 1], unchecked: a rule's nodes are angles.  4 r / (1 - r)^2 is at most
    2^108, and 0 at r = 0, where log K is 0."""
    scale, peak = constants
    log_k = np.multiply(scale, s_sq, out)
    np.log1p(log_k, log_k)
    np.subtract(peak, log_k, log_k)
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
    t = (-math.expm1(-sigma) + r * r * (1.0 + math.exp(-sigma))) / (2.0 * r)
    return -1.0 if t < -1.0 else (1.0 if t > 1.0 else t)
