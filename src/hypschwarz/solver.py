"""Optimal shift and the sharp axial bound G_p(r).

For p in (1, inf) the bound is G_p(r) = Phi(a*) where a* = a*(r) is the
unique root of the stationarity function F(r, .) inside the kernel's value
range.  One loop on s = log a finds it from F (``_steps``, a generator
that yields each point, receives F there and makes every decision of its
solve) and hands that s, not a rounded a*, to Phi.  One driver runs every
solve, of one radius, of a sweep's many or of several curves of one n
(``_lockstep``): it opens radii, each pass gives every open solve its next
F in one ``_f_and_slope`` call, and it returns each curve's records, whose
first refusal one function raises (``_raise_first``).  Every solve steers
its first step by the slope that comes with its first F, one more row of
that F's pass.  The solver deals in numbers: every F or Phi pass builds the
sites it sums on.  It resolves the root of the computed F: where F's
quadrature noise near a* exceeds its slope times the tolerance, another
start can move a* by more (17 times that at n = 4, p = 1.5, r = 0.99, with
G still far inside est_error).  The endpoint exponents have closed forms:

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
from itertools import islice

from .errors import DomainError, NonConvergenceError
from .kernel import _EXP_MAX, BallContext, _log_range, check_radius, kernel_range
from .objective import _R_LIN, _check_exponent, _f_and_slope, _phi_and_refined
from .quadrature import _ROUNDING_FLOOR, DEFAULT_ORDER, _checked, _overflow_guard
from .special import alpha_q, check_dimension, check_order

# Width in log a at which the root bracket counts as resolved (times 2l, l < 1/2).
_LOG_A_TOL = 2.0 ** -44
_MAX_ITER = 200
# First step in log a of a solve without a guess: a share of the start's
# |log a|, with a floor, taken only where the Newton or secant point of a
# steered step is unusable.  Mean F per cold solve moves by at most 1.1% for
# shares from 1/16 to 1/2 and floors from 1/128 to 1/4 (6.49 to 6.56 per solve
# on 300 points with n in {3, 4, 5}, p in [1.1, 20], r in [0.01, 0.95]; 6.98
# to 7.36 when only guessed solves steered).
_COLD_SHARE = 1.0 / 8.0
_COLD_STEP = 1.0 / 32.0

_METHODS = ("numeric", "linear", "closed_p1", "closed_pinf")
# Radii of a sweep whose G and est_error are summed in one stacked site pass,
# and the most solves of a sweep open at once, whose F passes are stacked
# site passes of at most as many sites.  Each G chunk's fixed cost is about
# 40 numpy calls, and the twice as many chunks of 6 made sweeps about 3%
# longer; a chunk's stacks grow with it, and at 25 a 100-radius sweep
# faulted 46 to 369 pages back in from the C library's heap trims (README).
_CHUNK = 12
# A guessed radius of a sweep opens before the radius ahead of it has an
# estimate where its first step in log a is at most _SPECULATE.  A guessed
# solve's second point is an estimate where its step from the guess is
# within the guess's first step and at most _TRUSTED_STEP.  On 126 sweeps (n
# in {3, 4, 5, 10, 30, 100}, p from 1.01 to 1000, up, down and geometric to
# r = 0.99; 89 answer) the costliest took 17.1 F per radius with no such cap (a poor
# Newton point at p = 1.1 from r = 0.99 down misguides the radii opened from
# it), 5.6 at 0.1 and 5.2 at 0.01 and 0.001, as many as sequential solves
# took; passes per radius rise as the cap falls (0.91, 0.97 and 1.08 on
# average).
_SPECULATE = 1e-5
_TRUSTED_STEP = 1e-2


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
        if not (0.0 <= self.g_value < math.inf and 0.0 <= self.est_error < math.inf):
            raise DomainError(f"need a finite G and est_error >= 0, got {self.g_value!r}, {self.est_error!r}")


def solve_a_star(ctx: BallContext, r: float, order: int = DEFAULT_ORDER) -> float:
    """Root of F(r, .) in the open kernel range, 1 below _R_LIN: the cold
    solve of ``_lockstep`` at r alone, rounded to a* = e^s.  The exponent
    is refused before the radius."""
    order = check_order(order)
    _check_exponent(ctx, "shift optimization")
    with _overflow_guard():
        slots = _lockstep(ctx.n, [(ctx, [r])], order)
    _raise_first(slots)
    return math.exp(slots[0][0][1])


def _steps(ctx: BallContext, r: float, order: int, start: float | None, width: float):
    """The one solve loop on s = log a, a generator: it yields the next
    point of ``objective._f_and_slope``, (r, s, q, slope, estimate) with r
    checked by its caller, whether it needs dF/ds there and whether s is its
    estimate of log a* (a guessed solve's second point alone, within
    min(max(width, tol), _TRUSTED_STEP) of its clamped start), receives
    (F, dF/ds) at it, and returns (s, F(s)) at the root s = log a* of
    F(r, .), unrounded; (0, 0) below _R_LIN, with no point.

    One F evaluation per step, inside the range (-l, l) of log K, at whose
    ends F's signs are known (positive at -l).  It starts at the log guess
    ``start`` with a first step of ``width``, or, from a None or NaN start,
    cold at log a* interpolated quadratically in 1/p through its closed
    forms at p = inf, 2 and 1, with a first step of _COLD_SHARE of |log a|,
    at least _COLD_STEP.  Until F changes sign it steps outward, eightfold
    each time and at most half the way to the range end; reaching that end
    within the tolerance raises DomainError.  Every solve steers its first
    three such steps: to Newton's root from the slope that comes with its
    first F, then to secant roots, each a quarter tolerance past the root,
    while the slope is negative and finite.  Then Chandrupatla's rule
    (newest point a, bracket end b, displaced point c): inverse quadratic
    interpolation where it stays well inside the bracket, else bisection,
    iterates half a tolerance inside, so a steered point a quarter past the
    root is followed by one a quarter short of it.  The tolerance tol is
    2^-44 in log a, times 2l where l < 1/2.  The start changes the cost, and
    the root only where F's quadrature noise outweighs its slope: a cold
    solve at p = 2 starts at its root a = 1 and takes about 2 F.  A
    non-finite F is refused.  The order is one already checked.
    """
    _check_exponent(ctx, "shift optimization")
    if r < _R_LIN:
        return 0.0, 0.0
    ell = _log_range(ctx.n, r)  # F > 0 at log a = -ell, F < 0 at ell
    # min and max here and below as conditionals: the same picks at a tenth of the builtins' cost
    tol, trust = _LOG_A_TOL * (x if (x := 2.0 * ell) < 1.0 else 1.0), -1.0  # a cold solve has no estimate
    if start is None or math.isnan(start):  # log a* at p = inf, 2 and 1, interpolated in x = 1/p
        x = 1.0 / ctx.p
        l_inf, l_one = _closed_log_a(ctx.n, r, math.inf), _closed_log_a(ctx.n, r, 1.0)
        s = 2.0 * (x - 0.5) * ((x - 1.0) * l_inf + x * l_one)
        width = _COLD_STEP if _COLD_STEP > (w := _COLD_SHARE * abs(s)) else w
    else:
        s, width = start, (tol if tol > width else width)
        trust = _TRUSTED_STEP if _TRUSTED_STEP < width else width
    s, step = (tol - ell if tol - ell > s else (ell - tol if ell - tol < s else s)), width  # ell > tol
    # Every solve steers its first three unbracketed steps: by its slope at
    # its start, then by the secant through its last two points.
    steered, first = 3, s  # and the clamped start its estimate is measured from
    a = fa = b = fb = c = fc = None  # newest point, opposite-sign point, displaced point
    for i in range(_MAX_ITER):
        fs, slope = yield r, s, ctx.q, steered == 3, i == 1 and abs(s - first) <= trust
        fs = _checked(fs)
        if fs == 0.0:
            return s, fs
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
                s, step = s + math.copysign(h if (h := 0.5 * abs(end - s)) < step else step, fs), 8.0 * step
            steered -= steered > 0
            continue
        if abs(a - b) <= tol:
            return a, fa
        t = fa / (fa - fb)  # the first bracketed step: secant
        if c is not None:
            xi, ph = (a - b) / (c - b), (fa - fb) / (fc - fb)
            iqi = ph * ph < xi and (1.0 - ph) ** 2 < 1.0 - xi
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)) if iqi else 0.5
        lo, hi = (b + 0.5 * tol, a - 0.5 * tol) if b < a else (a + 0.5 * tol, b - 0.5 * tol)
        s = hi if hi < (m := lo if lo > (v := a + t * (b - a)) else v) else m  # min(max(v, lo), hi)
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
    ctx, r = BallContext(n, 1.0), check_radius(r)
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
    r = check_radius(r)
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
    r = check_radius(r)
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

    Closed forms (p = 1, inf) report est_error 0, ``_linear`` ones the c_2
    term and C_p's rounding, numeric ones the change from doubling the rule
    order (at p = 2 the deviation from its closed form), never below the
    rounding of the panel sums behind G.  Doubling the order refines the
    outer panels of the graded rule, the only ones whose node count grows
    with it: with 256 nodes on every panel instead of the inner ones' 12, an
    F or Phi integral moved by at most 5e-16 of the integral of |f| (n from
    3 to 300, r from 0.1 to 0.99, p from 1.05 to 20).  So the doubled-order
    Phi evaluates those outer panels only and takes the inner panel sums of
    Phi(a*): the bits of a full evaluation.
    """
    order = check_order(order)  # refused before the radius
    return _g_p_numeric(ctx, check_radius(r), order)


@lru_cache(maxsize=4096)
def _g_p_numeric(ctx: BallContext, r: float, order: int) -> GpResult:
    return g_p_curve(ctx, (r,), order)[0]


def _numeric_results(n: int, order: int, chunk, refine: bool) -> None:
    """Put in the result slot of each ``_lockstep`` record of ``chunk``
    (solved radii, all at p = 2 or none, each slot holding its context) its
    GpResult, or the refusal of its G, from one ``_phi_and_refined`` pass,
    which builds the sites of the solves' last F anew (a lone one is still
    cached): G_p = Phi(a*) and est_error (with ``refine``, the gap to Phi(a*)
    at quadrature's reference order, else |G_p - G_2|) for the solved
    s = log a*; only a* is rounded to e^s."""
    points = [(record[0], record[1], record[3].q) for record in chunk]
    for record, values in zip(chunk, _phi_and_refined(n, order, points, refine)):
        r, s, _, ctx = record
        try:
            g_val = _checked(values[0])
            if g_val == 0.0:  # G_p(r) > 0 at r > 0: a 0 is an underflow of Phi
                raise DomainError(f"G_p(r) underflows to 0 at n={n}, p={ctx.p}, r={r}")
            # Phi is stationary at a*: its error needs no solve at the reference order.
            est = abs(g_val - (_checked(values[1]) if refine else g_2_closed(n, r)))
            # Order doubling cannot see the rounding both orders share: an ulp for each panel sum.
            record[3] = GpResult(ctx, r, math.exp(s), g_val, "numeric", max(est, _ROUNDING_FLOOR * g_val), s)
        except DomainError as refusal:
            record[3] = refusal


def _linear(ctx: BallContext, r: float) -> GpResult:
    """G_p(r) = C_p r (1 + c_2 r^2 + ...) below _R_LIN at finite p, a* = 1:
    est_error is the c_2 term (|c_2| <= 2.7 n^2 for n <= 300, p >= 1.01),
    taken as 4 n^2 r^2 G, the rounding of C_p's log-gamma sum and an ulp of
    G; 0 at r = 0."""
    n, q, g_val = ctx.n, ctx.q, grad_constant(ctx) * r
    logs = abs(math.lgamma(n / 2.0)) + abs(math.lgamma((1.0 + q) / 2.0)) + abs(math.lgamma((n + q) / 2.0))
    est = g_val * (4.0 * n * n * r * r + 2.0 ** -50 * (1.0 + (logs + 1.0) / q)) + math.ulp(g_val) if r else 0.0
    return GpResult(ctx, r, 1.0, g_val, "linear", est, 0.0)


def g_p_curve(ctx: BallContext, radii, order: int = DEFAULT_ORDER) -> list[GpResult]:
    """g_p at every radius of a sweep: closed forms at p = 1 and inf, else
    the one-curve case of ``_g_p_curves``, its shift solves in lockstep.

    At p = 2 every radius is solved cold, from its root a = 1, so the rows
    are g_p's bit for bit.  Results depend on (ctx, radii, order) only: the
    per-point memo of g_p is neither read nor filled.  Where F overflows
    near a kernel-range end but not near a* (p near 1 at larger r), a warm
    solve answers although g_p refuses.
    """
    order = check_order(order)
    if ctx.p in (1.0, math.inf):
        closed, method = (g_1_closed, "closed_p1") if ctx.p == 1.0 else (g_inf_closed, "closed_pinf")
        return [GpResult(ctx, r, *closed(ctx.n, r), method, 0.0, _closed_log_a(ctx.n, r, ctx.p))
                for r in map(check_radius, radii)]
    return _g_p_curves(ctx.n, [(ctx, list(radii))], order)[0]


def _g_p_curves(n: int, curves, order: int) -> list[list[GpResult]]:
    """The g_p_curve rows of each (ctx, radii) of ``curves`` (one n, finite
    p > 1, radii a sequence, a checked order) from one ``_lockstep``, under
    one overflow guard: ``_linear`` rows below _R_LIN (after the solve's
    exponent check), and a repeated radius reuses its first solve and
    result, both in its first occurrence's record.  The solved radii of each
    curve up to its refusal take their G and est_error from
    ``_numeric_results`` passes of _CHUNK radii, those at p = 2 first, each
    row the bits of a pass on its site alone.  The refusal raised is
    ``_raise_first``'s, the first of g_p_curve on each curve in turn."""
    parts = ([], [])  # the solved records at p = 2 and the others
    with _overflow_guard():
        slots = _lockstep(n, curves, order)
        for (ctx, _), records in zip(curves, slots):
            for record in records:
                if isinstance(record[2], Exception):
                    break  # the curve's refusal: no radius past it is summed
                if record[3] is None and record[0] < _R_LIN:  # a repeat shares its first occurrence's record
                    record[3] = _linear(ctx, record[0])
                elif record[3] is None:  # its context until the G pass puts its GpResult there
                    record[3] = ctx
                    parts[ctx.p != 2.0].append(record)
        for refine, part in zip((False, True), parts):
            for i in range(0, len(part), _CHUNK):
                _numeric_results(n, order, part[i:i + _CHUNK], refine)
    _raise_first(slots)
    return [[record[3] for record in records] for records in slots]


def _raise_first(slots) -> None:
    """Raise the first refusal in ``_lockstep``'s records ``slots``, in curve
    order, then sweep order, a record's outcome (its radius check or solve)
    before its result (its G): the one sequential curves would raise."""
    for records in slots:
        for record in records:
            if isinstance(record[2], Exception):
                raise record[2]
            if isinstance(record[3], Exception):
                raise record[3]


class _Curve:
    """One curve of ``_lockstep``: its context and radii; the record
    [radius, log a* estimate, outcome, result] of each distinct radius
    opened, by radius, in sweep order; the record of each radius opened (a
    refused radius check has its own); its solves open, and whether it
    refused (then no radius opens; its open solves run to their end)."""

    __slots__ = ("ctx", "radii", "firsts", "slots", "open", "refused")

    def __init__(self, ctx: BallContext, radii) -> None:
        self.ctx, self.radii, self.firsts, self.slots = ctx, radii, {}, []
        self.open, self.refused = 0, False


def _lockstep(n: int, curves, order: int) -> list[list[list]]:
    """The records of each (ctx, radii) of ``curves`` (one n, finite
    p > 1, radii a sequence), one for each radius opened, in sweep order,
    once no solve is open; it raises nothing.  A record is [radius, log a*
    estimate, outcome, result]: the outcome (s, F) at the root s, or a
    refusal, never None; the result slot is the caller's, and
    ``_raise_first`` raises the first refusal.  Each radius, checked
    (``check_radius``) where it opens, points at one record: a repeat at its
    first occurrence's, a refused check at one of its own.  Past a curve's
    refusal none of its radii opens, and no solve is dropped: its open ones
    and the other curves run to their end.  The driver opens radii, runs
    passes and fills records; each solve (``_steps``) makes its own
    decisions.  Each pass gives every open solve its next F in one
    ``_f_and_slope`` call, every row the bits of a lone F, so each curve
    solves as it would alone; passes follow one another until a solve ends,
    refuses or flags its estimate, and only then do radii open.  A curve
    has at most _CHUNK solves open, and opens its distinct radii in order,
    the first two and every one at p = 2 (where a = 1 is the root) cold.
    Any other starts from log a* extrapolated in r through the curve's
    latest six estimates (``_extrapolate``), with a first step of twice the
    last term, once the radius before it has an estimate (a root or a
    flagged point), or at once where that step is at most _SPECULATE; a NaN
    guess (at tiny, close radii the differences overflow) solves cold.  A
    new solve's first point asks for the slope, so new solves go to the
    front, where ``_f_and_slope`` wants them."""
    curves = [_Curve(*curve) for curve in curves]
    solves = []  # [curve, record, steps, next point], newest first
    while True:
        for curve in curves:
            ctx, radii, firsts, slots = curve.ctx, curve.radii, curve.firsts, curve.slots
            # a radius held back waits on an open solve: with none open, every radius before it has an estimate
            while len(slots) < len(radii) and not curve.refused and curve.open < _CHUNK:
                try:
                    r = check_radius(radii[len(slots)])
                except DomainError as refusal:
                    slots.append([None, None, refusal, None])
                    curve.refused = True
                    break
                if r in firsts:
                    slots.append(firsts[r])
                    continue
                start, width = None, 0.0
                if len(firsts) >= 2 and ctx.p != 2.0:
                    # (radius, estimate) of the latest six estimates, newest first
                    known = list(islice(((e[0], e[1]) for e in reversed(firsts.values()) if e[1] is not None), 6))
                    if len(known) < 2:
                        break
                    start, width = _extrapolate(r, known)
                    if known[0][0] != next(reversed(firsts)) and not width <= _SPECULATE:
                        break  # the radius before it has no estimate yet
                record = firsts[r] = [r, None, None, None]
                slots.append(record)
                try:
                    steps = _steps(ctx, r, order, start, width)
                    point = next(steps)
                except StopIteration as solved:  # below _R_LIN: no F
                    record[1], record[2] = solved.value[0], solved.value
                except (DomainError, NonConvergenceError) as refusal:
                    record[2], curve.refused = refusal, True
                else:  # its first point asks for the slope: those come first in an F pass
                    solves.insert(0, [curve, record, steps, point])
                    curve.open += 1
        if not solves:  # with none open, every curve has opened its every radius or refused
            return [curve.slots for curve in curves]
        points, moved = [solve[3] for solve in solves], False
        while not moved:  # a pass that ends every solve moves
            passed, points = _f_and_slope(n, order, points), []
            for i, solve in enumerate(solves):  # enumerate, not zip: half its cost here
                try:
                    point = solve[3] = solve[2].send(passed[i])
                except StopIteration as solved:
                    solve[1][1], solve[1][2], moved = solved.value[0], solved.value, True
                    solve[0].open -= 1
                except (DomainError, NonConvergenceError) as refusal:  # its curve opens no more
                    solve[1][2], solve[0].refused, moved = refusal, True, True
                else:
                    points.append(point)
                    if point[4]:  # the estimate a guessed solve flags
                        solve[1][1], moved = point[1], True
        solves = [solve for solve in solves if solve[1][2] is None]


def _extrapolate(r: float, known) -> tuple[float, float]:
    """(guess, first step): log a* at r extrapolated through the (radius,
    log a*) pairs of ``known``, newest first, in Newton's divided-difference
    form, and twice its last term, the gap between the predictions through
    all the pairs and through all but the oldest."""
    radii, diffs = [rk for rk, _ in known], [sk for _, sk in known]
    for k in range(1, len(diffs)):  # diffs[i] becomes the divided difference over radii[:i + 1]
        for i in range(len(diffs) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (radii[i] - radii[i - k])
    guess, term = 0.0, 1.0
    for rk, diff in zip(radii, diffs):
        last = diff * term
        guess, term = guess + last, term * (r - rk)
    return guess, 2.0 * abs(last)


def grad_constant(ctx: BallContext) -> float:
    """Sharp gradient-at-origin constant 2(n-1) alpha_q^(1/q).

    The p = 1 endpoint is the q -> inf limit, where alpha_q^(1/q) -> 1.
    """
    n = ctx.n
    if ctx.p == 1.0:
        return 2.0 * (n - 1.0)
    return 2.0 * (n - 1.0) * alpha_q(n, ctx.q) ** (1.0 / ctx.q)
