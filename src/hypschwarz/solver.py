"""Optimal shift and the sharp axial bound G_p(r).

For p in (1, inf) the bound is G_p(r) = Phi(a*) where a* = a*(r) is the
unique root of the stationarity function F(r, .) inside the kernel's value
range.  One loop on s = log a finds it from F (``_solve``) and hands
that s, not a rounded a*, to Phi.  It resolves the root of the computed F:
where F's quadrature noise near a* exceeds its slope times the tolerance,
another start can move a* by more (17 times that at n = 4, p = 1.5,
r = 0.99, with G still far inside est_error).  The endpoint exponents have
closed forms:

  p = 1:    a* is the midpoint of the kernel range, G_1 its half-width;
  p = 2:    a* = 1 and G_2^2 = (1-r^2)^(2n-2) 2F1(2n-2, (3n-2)/2; n/2; r^2) - 1;
  p = inf:  a* = ((1-r^2)/(1+r^2))^(n-1) and G_inf(r) is the harmonic measure
            split along the equator, a hypergeometric expression summed by
            a positive recurrence, with elementary forms in dimensions 3, 4, 5.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NonConvergenceError
from .kernel import _EXP_MAX, BallContext, _log_range, check_radius, kernel_range
from .objective import ObjectiveParams, _check_exponent, _f_and_slope, _phi_and_refined, _shift_site
from .quadrature import _ROUNDING_FLOOR, DEFAULT_ORDER, _checked, _overflow_guard
from .special import alpha_q, check_dimension, check_order

# Width in log a at which the root bracket counts as resolved (times 2l, l < 1/2).
_LOG_A_TOL = 2.0 ** -44
_MAX_ITER = 200
# First step in log a of a solve without a guess: a share of the start's
# |log a|, with a floor.  Mean F per cold solve moves by at most 4% for shares
# from 1/16 to 1/2 and floors from 1/128 to 1/4 (7.0 to 7.2 per solve on 300
# points with n in {3, 4, 5}, p in [1.1, 20], r in [0.01, 0.95]).
_COLD_SHARE = 1.0 / 8.0
_COLD_STEP = 1.0 / 32.0

_METHODS = ("numeric", "closed_p1", "closed_pinf")
# Radii of a sweep whose G and est_error are summed in one stacked site pass.
# Each chunk's fixed cost is about 40 numpy calls; a stack takes 5.3 KB a
# radius at order 128.  At 12 a 100-radius sweep mostly faults under one
# page back in from the C library's heap trims (46 to 369 pages at 25,
# README), and the twice as many chunks of 6 made sweeps about 3% longer.
_CHUNK = 12


@dataclass(frozen=True)
class GpResult:
    """One evaluated point of the sharp bound."""

    ctx: BallContext
    r: float
    a_star: float
    g_value: float
    method: str
    est_error: float
    log_a_star: float  # the s of G: the solve's own, unrounded, or a closed form's

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")
        if not (self.a_star > 0.0 and math.isfinite(self.log_a_star)):
            raise DomainError(f"need a* > 0 and a finite log a*, got {self.a_star!r}, {self.log_a_star!r}")
        if self.g_value < 0.0 or self.est_error < 0.0:
            raise DomainError("bound value and error estimate must be nonnegative")


def solve_a_star(ctx: BallContext, r: float, order: int = DEFAULT_ORDER) -> float:
    """Root of F(r, .) in the open kernel range; a*(0) = 1 exactly: the
    cold solve of ``_solve``, rounded to a* = e^s."""
    with _overflow_guard():
        return math.exp(_solve(ctx, r, order, None, 0.0))


def _solve(ctx: BallContext, r: float, order: int, start: float | None, width: float) -> float:
    """The root of F(r, .) as s = log a*, unrounded.

    One loop on s = log a, one F evaluation per step, inside the range
    (-l, l) of log K, at whose ends F's signs are known (positive at -l).
    It starts at the log guess ``start`` with a first step of ``width``, or
    at log a* interpolated quadratically in 1/p through its closed forms at
    p = inf, 2 and 1, with a first step of _COLD_SHARE of |log a|, at least
    _COLD_STEP.  Until F changes sign it steps outward, eightfold each time
    and at most half the way to the range end; reaching that end within the
    tolerance raises DomainError.  A guessed solve steers its first three
    such steps: to Newton's root from the slope that comes with the guess's
    F, then to secant roots, each a quarter tolerance past the root, while
    the slope is negative and finite.  Then Chandrupatla's rule (newest
    point a, bracket end b, displaced point c): inverse quadratic
    interpolation where it stays well inside the bracket, else bisection,
    iterates half a tolerance inside, so a steered point a quarter past the
    root is followed by one a quarter short of it.  The tolerance is 2^-44
    in log a, times 2l where l < 1/2, and never below the spacing of doubles
    at l (at subnormal r, 2^-44 2l underflows).  The guess changes the cost,
    and the root only where F's quadrature noise outweighs its slope.  The
    caller holds ``quadrature._overflow_guard``.
    """
    order = check_order(order)
    _check_exponent(ctx, "shift optimization")
    r = check_radius(r)
    if r == 0.0:
        return 0.0
    params = ObjectiveParams(ctx, r, order)
    ell = _log_range(ctx.n, r)  # F > 0 at log a = -ell, F < 0 at ell
    tol = max(_LOG_A_TOL * min(1.0, 2.0 * ell), math.ulp(ell))
    if start is None:  # log a* at p = inf, 2 and 1, interpolated in x = 1/p
        x = 1.0 / ctx.p
        l_inf, l_one = _closed_log_a(ctx.n, r, math.inf), _closed_log_a(ctx.n, r, 1.0)
        s = 2.0 * (x - 0.5) * ((x - 1.0) * l_inf + x * l_one)
        width = max(_COLD_SHARE * abs(s), _COLD_STEP)
    else:
        s, width = start, max(width, tol)
    s, step = min(max(s, tol - ell), ell - tol), width
    # A guessed solve steers its first three unbracketed steps: by its slope
    # from the guess's own site, then by the secant through its last two points.
    steered = 3 if start is not None else 0
    a = fa = b = fb = c = fc = None  # newest point, opposite-sign point, displaced point
    for _ in range(_MAX_ITER):
        fs, slope = _f_and_slope(params, s, steered == 3)
        if fs == 0.0:
            return s
        if a is None or (fs > 0.0) == (fa > 0.0):
            a, fa, c, fc = s, fs, a, fa
        else:
            a, fa, b, fb, c, fc = s, fs, a, fa, b, fb
        if b is None:
            end = ell if fs > 0.0 else -ell
            if abs(end - s) <= tol:
                raise DomainError(f"no sign change of F at r={r} up to the end log a = {end!r}")
            if 0 < steered < 3:
                slope = (fa - fc) / (a - c) if a != c else math.nan
            # the root of the slope's line, a quarter tolerance past it
            target = s - fs / slope + math.copysign(0.25 * tol, fs) if (
                steered and -math.inf < slope < 0.0) else math.nan
            if -ell < target < ell:
                s = target
            else:
                s, step = s + math.copysign(min(step, 0.5 * abs(end - s)), fs), 8.0 * step
            steered = max(steered - 1, 0)
            continue
        if abs(a - b) <= tol:
            return a
        t = fa / (fa - fb)  # the first bracketed step: secant
        if c is not None:
            xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)) if iqi else 0.5
        s = min(max(a + t * (b - a), min(a, b) + 0.5 * tol), max(a, b) - 0.5 * tol)
    raise NonConvergenceError(f"no root resolved after {_MAX_ITER} iterations at r={r}, q={ctx.q}")


def _closed_log_a(n: int, r: float, p: float) -> float:
    """log a* at p = 1, log cosh l (the midpoint of log K's range [-l, l]), or at p = inf."""
    if p == 1.0:
        ell = _log_range(n, r)
        return ell + math.log1p(0.5 * math.expm1(-2.0 * ell))
    return (n - 1) * (math.log1p(-r * r) - math.log1p(r * r))


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
    n terms with all terms positive: with ``tail`` the sum of those past the
    first, G_2^2 = expm1((1-n) log(1-r^2) + log1p(tail)), which never forms
    the moment minus 1.  Below r = 2^-511, where r^2 leaves the normal
    doubles, G_2 = C_2 r = 2(n-1)/sqrt(n) r: its relative error, about n r^2,
    is below 2^-53 for every n < 2^969.  Raises DomainError where G_2^2
    leaves double range.
    """
    r = check_radius(r)
    n = check_dimension(n)
    if r < 2.0 ** -511:
        return 2.0 * (n - 1) / math.sqrt(n) * r
    z, term, tail = r * r, 1.0, 0.0
    for k in range(n - 1):
        term *= (1.0 - n + k) * (2.0 - 1.5 * n + k) / ((0.5 * n + k) * (k + 1.0)) * z
        tail += term
    # log(1 - r^2): a rounded r^2 near 1 would cost 1/(1 - r^2) of its rounding
    log_gap = math.log1p(-z) if z < 0.25 else math.log((1.0 - r) * (1.0 + r))
    log_moment = (1 - n) * log_gap + math.log1p(tail)
    if not log_moment <= _EXP_MAX:
        raise DomainError(f"G_2^2 leaves double range at n={n}, r={r}")
    return math.sqrt(math.expm1(log_moment))


def g_inf_closed(n: int, r: float) -> tuple[float, float]:
    """(a*, G_inf(r)) for p = inf.

    a* = ((1-r^2)/(1+r^2))^(n-1) is the kernel value on the equator, and

      G_inf(r) = 2^n r (1-r^2)^(n-1) Gamma(n/2)^2
                 / (pi (1+r^2)^n Gamma(n-1)) * 2F1(1, n/2; 3/2; y^2),
      y = 2r/(1+r^2).

    The Euler transform's factor (1-y^2)^((1-n)/2) cancels the (1-r^2)
    powers, and 2F1(1/2, (3-n)/2; 3/2; y^2) = I_{n-3} / y with
    I_m = integral from 0 to y of (1-x^2)^(m/2) dx, which leaves

      G_inf(r) = 2^n r Gamma(n/2)^2 / (pi (1+r^2) Gamma(n-1)) * I_{n-3} / y.

    Integration by parts gives I_m = (y c^m + m I_{m-2}) / (m+1) with
    c = (1-r^2)/(1+r^2), from I_0 = y (odd n) or I_{-1} = asin y = 2 atan r
    (even n, without asin's loss of digits as y -> 1); every term is
    positive.  The prefactor's exponential multiplies I / y, not I, so
    nothing underflows at small r.  Against mpmath at n in 3..30, 40, 50,
    64, 80, 100 and 13 radii from 1e-300 to 0.999 the relative error is at
    most 1.1e-13, the rounding of exp of a prefactor log near -690; against
    ``uh_elementary`` at n = 3, 4, 5 it is at most 1.8e-15.
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
    y = 2.0 * r / (1.0 + r * r)
    c = (1.0 - r) * (1.0 + r) / (1.0 + r * r)
    m, integral = (0, y) if n % 2 else (-1, 2.0 * math.atan(r))  # I_0 or I_-1
    while m < n - 3:
        m += 2
        integral = (y * c ** m + m * integral) / (m + 1)
    log_pref = (
        n * math.log(2.0)
        + math.log(r)
        + 2.0 * math.lgamma(n / 2.0)
        - math.log(math.pi)
        - math.log1p(r * r)
        - math.lgamma(n - 1.0)
    )
    return a_star, math.exp(log_pref) * (integral / y)


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
    """The sharp bound G_p(r), a* and est_error: ``g_p_curve`` at r alone, memoized.

    Closed forms (p = 1, inf) report est_error 0, numeric ones the change
    from doubling the rule order (at p = 2 the deviation from its closed
    form), never below the rounding of the panel sums behind G.  Doubling
    the order refines the outer panels of the graded rule, the only ones
    whose node count grows with it: with 256 nodes on every panel instead of
    the inner ones' 12, an F or Phi integral moved by at most 5e-16 of the
    integral of |f| (n from 3 to 300, r from 0.1 to 0.99, p from 1.05 to
    20).  So the doubled-order Phi evaluates those outer panels only and
    takes the inner panel sums of Phi(a*): the bits of a full evaluation.
    """
    order = check_order(order)
    return _g_p_numeric(ctx, check_radius(r), order)


@lru_cache(maxsize=4096, typed=True)  # a float order must not reuse an int order's solve
def _g_p_numeric(ctx: BallContext, r: float, order: int) -> GpResult:
    return g_p_curve(ctx, [r], order)[0]


def _numeric_results(ctx: BallContext, order: int, held) -> list[tuple[float, GpResult]]:
    """(r, GpResult) for each held (s, site) of a solved radius, from one
    stacked site pass on the site of each solve's last F: G_p = Phi(a*) and
    est_error (|G_p - G_2| at p = 2, else the gap to Phi(a*) at quadrature's
    reference order) for the solved s = log a*; only a* is rounded to e^s.
    Radius by radius, as g_p would, the first to refuse raises."""
    results = []
    refine = ctx.p != 2.0
    for (s, site), values in zip(held, _phi_and_refined(ctx, order, held, refine)):
        r, g_val = site[0], _checked(values[0])
        # Phi is stationary at a*: its error needs no solve at the reference order.
        est = abs(g_val - (_checked(values[1]) if refine else g_2_closed(ctx.n, r)))
        # Order doubling cannot see the rounding both orders share: an ulp for
        # each panel sum, and at subnormal r n - 1 spacings 2^-1074 of log K.
        floor = max(_ROUNDING_FLOOR * g_val, (ctx.n - 1) * math.ulp(0.0))
        results.append((r, GpResult(ctx, r, math.exp(s), g_val, "numeric", max(est, floor), s)))
    return results


def g_p_curve(ctx: BallContext, radii, order: int = DEFAULT_ORDER) -> list[GpResult]:
    """g_p at every radius of a sweep, each shift solve started from its neighbours.

    Every GpResult is built here: closed forms at p = 1 and inf.  For finite
    p > 1 other than 2, log a* at each new radius is predicted by
    extrapolation in r through the last six radii solved (through all of
    them while there are two to five, a cold solve before that); the first
    step is twice the gap between that prediction and the one without the
    oldest radius.  The solve takes a Newton step from the guess, and mostly
    needs three F evaluations.  At p = 2 every radius is solved cold, from
    its root a = 1, so the rows are g_p's bit for bit.  A radius already
    solved reuses that solve.  Each solved radius holds the site of its
    solve's last F; every _CHUNK radii, and at the end of the sweep, one
    stacked site pass sums G and est_error on the held sites, each row the
    bits of a pass on its site alone.  Refusals come in sweep order: where a
    solve refuses, the radii held before it are summed first, and the first
    of them to refuse its G is raised in its place.  Results depend on (ctx,
    radii, order) only: the per-point memo of g_p is neither read nor
    filled.  Where F overflows near a kernel-range end but not near a* (p
    near 1 at larger r), a warm solve answers although g_p refuses.
    """
    order = check_order(order)
    if ctx.p in (1.0, math.inf):
        closed, method = (g_1_closed, "closed_p1") if ctx.p == 1.0 else (g_inf_closed, "closed_pinf")
        return [GpResult(ctx, r, *closed(ctx.n, r), method, 0.0, _closed_log_a(ctx.n, r, ctx.p))
                for r in map(check_radius, radii)]
    results: dict[float, GpResult | None] = {}
    sweep, held, refusal = [], [], None  # held: (s, site) of each radius solved since the last pass
    with _overflow_guard():
        try:
            for r, s in _shift_curve(ctx, radii, order):
                sweep.append(r)
                if r in results:
                    continue
                if r == 0.0:
                    results[r] = GpResult(ctx, r, 1.0, 0.0, "numeric", 0.0, 0.0)
                    continue
                results[r] = None
                held.append((s, _shift_site(ctx.n, r, order, s)))
                if len(held) == _CHUNK:
                    chunk, held = held, []
                    results.update(_numeric_results(ctx, order, chunk))
        except (DomainError, NonConvergenceError) as exc:
            refusal = exc
        results.update(_numeric_results(ctx, order, held))
    if refusal is not None:
        raise refusal
    return [results[r] for r in sweep]


def _shift_curve(ctx: BallContext, radii, order: int):
    """(r, log a*) at every radius of a sweep for finite p > 1, yielded as
    each is solved: g_p_curve's continued solves without Phi."""
    solved: dict[float, float] = {}
    history: list[tuple[float, float]] = []  # (r, log a*) of each radius solved, in order
    for r in map(check_radius, radii):
        if r not in solved:
            solved[r] = _continued_solve(ctx, r, order, history[-6:])
            history.append((r, solved[r]))
        yield r, solved[r]


def _continued_solve(ctx: BallContext, r: float, order: int, known) -> float:
    """log a* at r, solved from a guess through up to six known (radius, log a*) pairs.

    The guess is log a* extrapolated through all of them in Newton's
    divided-difference form, newest radius first; its first step is twice
    the last term, the gap between the predictions through all the pairs and
    through all but the oldest.  At p = 2, F(a) = 1 - a and the cold start
    a = 1 is the root; a guess would only extrapolate the solves' last-bit
    jitter, so it solves cold, as it does from a NaN guess: at tiny, close
    radii the differences overflow, and inf - inf leaves NaN.
    """
    if len(known) < 2 or ctx.p == 2.0:
        return _solve(ctx, r, order, None, 0.0)
    radii = [rk for rk, _ in reversed(known)]
    diffs = [sk for _, sk in reversed(known)]
    for k in range(1, len(diffs)):  # diffs[i] becomes the divided difference over radii[:i + 1]
        for i in range(len(diffs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (radii[i] - radii[i - k])
    guess, term = 0.0, 1.0
    for rk, diff in zip(radii, diffs):
        last = diff * term
        guess, term = guess + last, term * (r - rk)
    return _solve(ctx, r, order, None if math.isnan(guess) else guess, 2.0 * abs(last))


def grad_constant(ctx: BallContext) -> float:
    """Sharp gradient-at-origin constant 2(n-1) alpha_q^(1/q).

    The p = 1 endpoint is the q -> inf limit, where alpha_q^(1/q) -> 1.
    """
    n = ctx.n
    if ctx.p == 1.0:
        return 2.0 * (n - 1.0)
    return 2.0 * (n - 1.0) * alpha_q(n, ctx.q) ** (1.0 / ctx.q)
