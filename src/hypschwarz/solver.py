"""Optimal shift and the sharp axial bound G_p(r).

For p in (1, inf) the bound is G_p(r) = Phi(a*) where a* = a*(r) is the
unique root of the stationarity function F(r, .) inside the kernel's value
range.  One loop on log a finds it from F alone: it steps outward from a
start until F changes sign, evaluating a range end only when a step lands on
it, then takes Chandrupatla's steps (inverse quadratic interpolation where it
is safe, bisection otherwise) until the bracket is 2^-44 wide in log a.  That
resolves the root of the computed F; where F's quadrature noise near a*
exceeds its slope times 2^-44, another start can move a* by more (17 times
that at n = 4, p = 1.5, r = 0.99, with G still far inside est_error).  The
stopping rule is scale-free: F scales like |K - a|^(q-1), which for p near 1
at small r lies far below any fixed residual.  A cold solve starts from log
a* interpolated in 1/p through the closed forms below; along a sweep
(g_p_curve) from a* extrapolated through the radii solved before it, except
at p = 2, where the cold start a = 1 is the root.  The endpoint exponents
have closed forms:

  p = 1:    a* is the midpoint of the kernel range, G_1 its half-width;
  p = 2:    a* = 1 and G_2^2 = (1-r^2)^(2n-2) 2F1(2n-2, (3n-2)/2; n/2; r^2) - 1;
  p = inf:  a* = ((1-r^2)/(1+r^2))^(n-1) and G_inf(r) is the harmonic measure
            split along the equator, an explicit hypergeometric expression
            with elementary forms in dimensions 3, 4, 5.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import hyp2f1

from .errors import BracketError, DomainError, NonConvergenceError
from .kernel import BallContext, check_radius, kernel_range
from .objective import ObjectiveParams, big_f, phi
from .quadrature import _PANEL_NODES, _ROUNDING_FLOOR, DEFAULT_ORDER
from .special import alpha_q, check_dimension

# Width in log a at which the root bracket counts as resolved.
_LOG_A_TOL = 2.0 ** -44
_MAX_ITER = 200
_BRACKET_MARGIN = 1e-12
# First step in log a of a solve without a guess: a share of the start's
# |log a|, with a floor.  Mean F per cold solve moves by at most 4% for shares
# from 1/16 to 1/2 and floors from 1/128 to 1/4 (7.0 to 7.2 per solve on 300
# points with n in {3, 4, 5}, p in [1.1, 20], r in [0.01, 0.95]).
_COLD_SHARE = 1.0 / 8.0
_COLD_STEP = 1.0 / 32.0
# kernel_range refuses ranges past e^(+-708.4), so clamping a predicted log a*
# to this keeps its exp finite and positive and every root reachable.
_LOG_GUESS_MAX = 708.0

_METHODS = ("numeric", "closed_p1", "closed_pinf")


@dataclass(frozen=True)
class GpResult:
    """One evaluated point of the sharp bound."""

    ctx: BallContext
    r: float
    a_star: float
    g_value: float
    method: str
    est_error: float

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")
        if not self.a_star > 0.0:
            raise DomainError(f"optimal shift must be positive, got {self.a_star!r}")
        if self.g_value < 0.0 or self.est_error < 0.0:
            raise DomainError("bound value and error estimate must be nonnegative")


def solve_a_star(ctx: BallContext, r: float, order: int = DEFAULT_ORDER,
                 guess: float | None = None, width: float = 0.0) -> float:
    """Root of F(r, .) in the open kernel range; a*(0) = 1 exactly.

    One loop on log a, one F evaluation per step.  It starts at the guess (a
    shift) with a first step of ``width``, or without one at log a*
    interpolated quadratically in 1/p through its closed forms at p = inf, 2
    and 1 (a = 1 at p = 2) with a first step of _COLD_SHARE of |log a|, at
    least _COLD_STEP; either start is clamped into the range.  While F is
    known on one side of the root only, the next point steps outward to the
    other side, the step growing eightfold and clamped at the range end; an
    end is evaluated only when a step lands on it, and must then have the
    sign of a bracket.  Then Chandrupatla's rule: with a the newest point, b
    the bracket end where F has the other sign and c the point the last
    evaluation displaced, the step is inverse quadratic interpolation through
    the three where it stays well inside the bracket, else bisection (the
    secant before c exists).  Iterates stay half a tolerance inside the
    bracket, so a root next to one end is confirmed by a sign change.  The
    guess changes the cost, and the root only within the band where the
    computed F's quadrature noise outweighs its slope (2^-44 in log a).
    """
    if not (math.isfinite(ctx.q) and ctx.q > 1.0):
        raise DomainError("shift optimization applies to p in (1, inf) only")
    r = check_radius(r)
    if r == 0.0:
        return 1.0
    params = ObjectiveParams(ctx, r, order)
    kmin, kmax = kernel_range(ctx, r)
    margin = _BRACKET_MARGIN * (kmax - kmin)
    lo_end, hi_end = math.log(kmin + margin), math.log(kmax - margin)
    if guess is None:  # log a* at p = inf, 2 and 1, interpolated in x = 1/p
        x = 1.0 / ctx.p
        l_inf = (ctx.n - 1) * (math.log1p(-r * r) - math.log1p(r * r))
        s = 2.0 * (x - 0.5) * ((x - 1.0) * l_inf + x * math.log(0.5 * (kmin + kmax)))
        width = max(_COLD_SHARE * abs(s), _COLD_STEP)
    elif not (isinstance(guess, (int, float)) and 0.0 < guess < math.inf):
        raise DomainError(f"guess must be a positive finite shift, got {guess!r}")
    else:
        s, width = math.log(guess), max(width, _LOG_A_TOL)
    s, step = min(max(s, lo_end), hi_end), width
    a = fa = b = fb = c = fc = None  # newest point, opposite-sign point, displaced point
    for _ in range(_MAX_ITER):
        fs = big_f(params, math.exp(s))
        if s in (lo_end, hi_end) and not (fs > 0.0 if s == lo_end else fs < 0.0):
            raise BracketError(
                f"no sign change across the kernel range at r={r}: F({math.exp(s)})={fs}"
            )
        if fs == 0.0:
            return math.exp(s)
        if a is None or (fs > 0.0) == (fa > 0.0):
            a, fa, c, fc = s, fs, a, fa
        else:
            a, fa, b, fb, c, fc = s, fs, a, fa, b, fb
        if b is None:
            s, step = (min(s + step, hi_end) if fs > 0.0 else max(s - step, lo_end)), 8.0 * step
            continue
        if abs(a - b) <= _LOG_A_TOL:
            return math.exp(a)
        t = fa / (fa - fb)  # the first bracketed step: secant
        if c is not None:
            xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)) if iqi else 0.5
        s = min(max(a + t * (b - a), min(a, b) + 0.5 * _LOG_A_TOL), max(a, b) - 0.5 * _LOG_A_TOL)
    raise NonConvergenceError(f"no root resolved after {_MAX_ITER} iterations at r={r}, q={ctx.q}")


def g_1_closed(n: int, r: float) -> tuple[float, float]:
    """Chebyshev-center solution for p = 1: best sup-distance to a constant.

    a* = (max + min)/2 and G_1 = (max - min)/2 over the kernel range; the
    pair satisfies a*^2 - G_1^2 = 1 because the range endpoints multiply to 1.
    G_1 is evaluated as (1 - min^2) / (2 min), with 1 - min^2 from expm1 and
    log1p: the difference max - min cancels at small r (5.5e-2 relative at
    r = 1e-15).
    """
    ctx = BallContext(n, 1.0)
    kmin, kmax = kernel_range(ctx, r)
    gap = -math.expm1(2.0 * (n - 1) * math.log1p(-2.0 * r / (1.0 + r)))
    return 0.5 * (kmax + kmin), gap / (2.0 * kmin)


def g_2_closed(n: int, r: float) -> float:
    """Explicit G_2(r) = sqrt((1-r^2)^(2n-2) 2F1(2n-2, (3n-2)/2; n/2; r^2) - 1).

    Evaluated in Euler-transformed form, G_2^2 + 1 =
    (1-r^2)^(1-n) 2F1(1-n, 2-3n/2; n/2; r^2), whose series terminates after
    n terms with all terms positive.
    """
    check_radius(r)
    n = check_dimension(n)
    if r == 0.0:
        return 0.0
    second_moment = ((1.0 - r) * (1.0 + r)) ** (1 - n) * float(
        hyp2f1(1.0 - n, 2.0 - 1.5 * n, n / 2.0, r * r)
    )
    return math.sqrt(second_moment - 1.0)


def g_inf_closed(n: int, r: float) -> tuple[float, float]:
    """(a*, G_inf(r)) for p = inf.

    a* = ((1-r^2)/(1+r^2))^(n-1) is the kernel value on the equator, and

      G_inf(r) = 2^n r (1-r^2)^(n-1) Gamma(n/2)^2
                 / (pi (1+r^2)^n Gamma(n-1)) * 2F1(1, n/2; 3/2; w),
      w = (2r/(1+r^2))^2.

    The Euler transform's factor (1-w)^((1-n)/2) cancels the (1-r^2) powers,
    which leaves the form evaluated here,

      G_inf(r) = 2^n r Gamma(n/2)^2 / (pi (1+r^2) Gamma(n-1))
                 * 2F1(1/2, (3-n)/2; 3/2; w),

    free of any 1 - w (the series terminates for odd n).  Measured against a
    60-digit mpmath evaluation of the first form at every n in [3, 100] and
    29 radii in [0.01, 0.999], the relative error is at most 1.4e-13.
    Raises DomainError once a* drops below the smallest normal double.
    """
    check_radius(r)
    n = check_dimension(n)
    a_star = ((1.0 - r * r) / (1.0 + r * r)) ** (n - 1)
    if a_star < sys.float_info.min:
        raise DomainError(
            f"optimal shift leaves double precision at n={n}, r={r}: "
            f"((1-r^2)/(1+r^2))^(n-1) = {a_star!r} is below {sys.float_info.min!r}"
        )
    if r == 0.0:
        return a_star, 0.0
    w = (2.0 * r / (1.0 + r * r)) ** 2
    log_pref = (
        n * math.log(2.0)
        + math.log(r)
        + 2.0 * math.lgamma(n / 2.0)
        - math.log(math.pi)
        - math.log1p(r * r)
        - math.lgamma(n - 1.0)
    )
    return a_star, math.exp(log_pref) * float(hyp2f1(0.5, (3.0 - n) / 2.0, 1.5, w))


def uh_elementary(n: int, r: float) -> float:
    """Elementary forms of G_inf in dimensions 3, 4, 5 (cross-check targets)."""
    check_radius(r)
    rr = r * r
    if n == 3:
        return 2.0 * r / (1.0 + rr)
    if n == 4:
        return 4.0 * r * (1.0 - rr) / (math.pi * (1.0 + rr) ** 2) + (4.0 / math.pi) * math.atan(r)
    if n == 5:
        return (3.0 * r + 2.0 * r * rr + 3.0 * rr * rr * r) / (1.0 + rr) ** 3
    raise DomainError(f"elementary form available for n in {{3, 4, 5}}, got {n!r}")


def g_p(ctx: BallContext, r: float, order: int = DEFAULT_ORDER) -> GpResult:
    """The sharp bound G_p(r) with the optimal shift and an error estimate.

    Dispatch: p = 1 and p = inf return their closed forms (est_error 0);
    every finite p > 1 is solved numerically, with est_error from doubling
    the rule order (p = 2 instead reports the deviation from its closed form)
    and never below the rounding of the panel sums behind G.
    """
    r = check_radius(r)
    if ctx.p == 1.0:
        a_star, g_val = g_1_closed(ctx.n, r)
        return GpResult(ctx, r, a_star, g_val, "closed_p1", 0.0)
    if ctx.p == math.inf:
        a_star, g_val = g_inf_closed(ctx.n, r)
        return GpResult(ctx, r, a_star, g_val, "closed_pinf", 0.0)
    return _g_p_numeric(ctx, r, order)


@lru_cache(maxsize=4096, typed=True)  # a float order must not reuse an int order's solve
def _g_p_numeric(ctx: BallContext, r: float, order: int) -> GpResult:
    return _numeric_result(ctx, r, order, solve_a_star(ctx, r, order))


def _numeric_result(ctx: BallContext, r: float, order: int, a_star: float) -> GpResult:
    """G_p = Phi(a*) and its est_error, for a numerically solved shift."""
    if r == 0.0:
        return GpResult(ctx, r, a_star, 0.0, "numeric", 0.0)
    g_val = float(phi(ObjectiveParams(ctx, r, order), a_star))
    if ctx.p == 2.0:
        est = abs(g_val - g_2_closed(ctx.n, r))
    else:
        # Phi is stationary at a*, so re-solving at the doubled order is not
        # needed to estimate the quadrature error of the bound itself.  Every
        # order below 8 * _PANEL_NODES has _PANEL_NODES nodes per panel; the
        # reference doubles that count.
        refined = ObjectiveParams(ctx, r, 2 * max(order, 8 * _PANEL_NODES))
        est = abs(g_val - float(phi(refined, a_star)))
    # Order doubling cannot see the rounding both orders share.
    return GpResult(ctx, r, a_star, g_val, "numeric", max(est, _ROUNDING_FLOOR * g_val))


def g_p_curve(ctx: BallContext, radii, order: int = DEFAULT_ORDER) -> list[GpResult]:
    """g_p at every radius of a sweep, each shift solve started from its neighbours.

    For finite p > 1 other than 2, log a* at each new radius is predicted by
    quadratic extrapolation in r through the last three radii solved (linear
    through two, a cold solve before that); the first step is twice the gap
    between the quadratic and linear predictions (a tenth of the last step in
    log a* with two).  At p = 2 every radius is solved cold, from its root
    a = 1, so the rows are g_p's bit for bit.  A radius already solved reuses
    that solve.  Each G is computed right after its radius's solve, while the
    site of the solve's last F is still held.  Results depend on (ctx,
    radii, order) only: the per-point memo of g_p is neither read nor
    filled.  Where F overflows at the kernel-range ends but not near a* (p
    near 1 at larger r), a warm solve answers although g_p refuses.
    """
    if not 1.0 < ctx.p < math.inf:
        return [g_p(ctx, r, order) for r in radii]
    results: dict[float, GpResult] = {}
    curve = []
    for r, a_star in _shift_curve(ctx, radii, order):
        if r not in results:
            results[r] = _numeric_result(ctx, r, order, a_star)
        curve.append(results[r])
    return curve


def _shift_curve(ctx: BallContext, radii, order: int):
    """(r, a*) at every radius of a sweep for finite p > 1, yielded as each
    is solved: g_p_curve's continued solves without Phi."""
    solved: dict[float, float] = {}
    history: list[tuple[float, float]] = []  # (r, log a*) of each radius solved, in order
    for r in map(check_radius, radii):
        if r not in solved:
            solved[r] = _continued_solve(ctx, r, order, history[-3:])
            history.append((r, math.log(solved[r])))
        yield r, solved[r]


def _continued_solve(ctx: BallContext, r: float, order: int, known) -> float:
    """solve_a_star at r, guessed from up to three known (radius, log a*) pairs.

    At p = 2, F(a) = 1 - a and the cold start a = 1 is the root; a guess
    would only extrapolate the solves' last-bit jitter, so it solves cold.
    """
    if len(known) < 2 or ctx.p == 2.0:
        return solve_a_star(ctx, r, order)
    (r1, s1), (r2, s2) = known[-2:]
    linear = s2 + (r - r2) * (s2 - s1) / (r2 - r1)
    if len(known) == 2:
        guess, width = linear, 0.1 * abs(s2 - s1)
    else:
        r0, s0 = known[0]
        curvature = ((s2 - s1) / (r2 - r1) - (s1 - s0) / (r1 - r0)) / (r2 - r0)
        guess = linear + curvature * (r - r2) * (r - r1)
        width = 2.0 * abs(guess - linear)
    guess = min(max(guess, -_LOG_GUESS_MAX), _LOG_GUESS_MAX)
    return solve_a_star(ctx, r, order, guess=math.exp(guess), width=width)


def grad_constant(ctx: BallContext) -> float:
    """Sharp gradient-at-origin constant 2(n-1) alpha_q^(1/q).

    The p = 1 endpoint is the q -> inf limit, where alpha_q^(1/q) -> 1.
    """
    n = ctx.n
    if ctx.p == 1.0:
        return 2.0 * (n - 1.0)
    return 2.0 * (n - 1.0) * alpha_q(n, ctx.q) ** (1.0 / ctx.q)
