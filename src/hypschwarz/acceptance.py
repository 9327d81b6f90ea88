"""End-to-end acceptance criteria.

Each criterion function exercises one published guarantee of the package at
its stated tolerance and returns a :class:`CriterionResult`; ``run_all``
executes the whole battery.  The same runners back ``hypschwarz check`` and
the acceptance test module, so the gate is identical everywhere.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

# numpy 2 loads these on first use: for the graded panels' Gauss-Legendre
# rules and the random draws.  Importing them here charges their import
# (about 20-30 ms) to loading the battery, not to whichever criterion runs
# first.
import numpy.polynomial  # noqa: F401
import numpy.random  # noqa: F401

from .kernel import BallContext, kernel_range
from .objective import _f_and_slope, _phi_and_refined
from .quadrature import DEFAULT_ORDER, _checked, _overflow_guard, _site_integral
from .solver import (
    _g_p_curves,
    _lockstep,
    g_1_closed,
    g_2_closed,
    g_inf_closed,
    g_p,
    g_p_curve,
    grad_constant,
    solve_a_star,
    uh_elementary,
)
from .verify import (
    CAPSEQ_GAP_LIMIT,
    _bound_checker,
    _grad_reports,
    _gradient_extremal_ratio,
    _random_poly_draws,
    _sharpness,
    corollary_l2_batch,
    corollary_l2_check,
    verify_sharpness,
)

# Brent's golden-section fraction, (3 - sqrt(5)) / 2.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0

_DIMS = (3, 4, 5)
_FINITE_PS = (1.5, 2.0, 3.0, 5.0)
_RADII = (0.2, 0.5, 0.8)
# Rule order of criteria 1 and 4.  Its 64-point panels resolve the kernel
# peak near t = 1 (the pole sits at (1+r^2)/(2r), just outside).
_ORDER = 512


def brent_minimize(fn, lo: float, hi: float, tol: float) -> float:
    """Brent's derivative-free minimizer for a unimodal function on [lo, hi]:
    the steps of ``_brent_steps``, each point's value from fn.

    Used as the derivative-free cross-check against root-based optimizers:
    it calls fn only.  The one-search case of ``_minimize_together``.
    """
    return _minimize_together([(lo, hi, tol)], lambda _, points: [fn(points[0])])[0]


def _minimize_together(brackets, values) -> list[float]:
    """Brent's minimizer on each (lo, hi, tol) of ``brackets``, all in
    lockstep: each round, values(open, points) gives the value at the next
    point of every open search, ``open`` their indices into ``brackets`` and
    ``points`` those points, and each search takes its own.  So every
    minimizer is the one its search finds alone."""
    found: list = [None] * len(brackets)
    searches = []  # [index, steps, next point] of each open search
    for k, bracket in enumerate(brackets):
        steps = _brent_steps(*bracket)
        searches.append([k, steps, next(steps)])
    while searches:
        for search, value in zip(searches, values([k for k, _, _ in searches], [u for _, _, u in searches])):
            try:
                search[2] = search[1].send(value)
            except StopIteration as done:
                found[search[0]] = done.value
        searches = [search for search in searches if found[search[0]] is None]
    return found


def _brent_steps(lo: float, hi: float, tol: float):
    """Brent's minimizer on [lo, hi] as a generator: it yields each point,
    receives the function's value there, and returns its minimizer.

    Parabolic steps through the last three points where they fall well
    inside the bracket, golden-section steps elsewhere (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5).  Every
    step is at least tol / 4 long.  It stops once its best point is within
    tol / 2 of both ends of the bracket, which then is at most tol wide, and
    returns that point.  ``_minimize_together`` drives them.
    """
    a, b = lo, hi
    step_min = 0.25 * tol
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = yield x
    d = e = 0.0
    while max(x - a, b - x) > 0.5 * tol:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(e) > step_min:
            # vertex of the parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept a step inside the bracket, shorter than half the one before last
            parabolic = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
            e = d
        if parabolic:
            d = p / q
            if min(x + d - a, b - x - d) < 0.5 * tol:
                d = step_min if x < mid else -step_min
        else:
            e = (b if x < mid else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= step_min else math.copysign(step_min, d))
        fu = yield u
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def _phi_minimizers(n: int, cells) -> list[float]:
    """Brent's minimizer of Phi at each (q, r, lo, hi, tol) of ``cells``
    (one n, rule order _ORDER), all in lockstep (``_minimize_together``):
    each round gives every open cell its next Phi in one ``_phi_and_refined``
    pass, every row the bits of a lone ``phi`` call there, under one
    overflow guard.  So each minimizer is ``brent_minimize``'s on that phi,
    bit for bit."""
    def values(open_cells, points):
        at = [(cells[k][1], math.log(u), cells[k][0]) for k, u in zip(open_cells, points)]
        return [_checked(value) for value, in _phi_and_refined(n, _ORDER, at, False)]

    with _overflow_guard():
        return _minimize_together([cell[2:] for cell in cells], values)


def _stationarity(n: int, curves) -> list[tuple]:
    """(a*, F, dF/da, Phi) of each one-radius (ctx, [r]) of ``curves`` (one
    n, order _ORDER): the cold solves in one ``_lockstep``, then three
    stacked passes at the rounded a*, the bits of solve_a_star, big_f, dF_da
    and phi, checked as they check them."""
    a_stars = [0.0] * len(curves)
    with _overflow_guard():
        for k, entry in _lockstep(n, curves, _ORDER):
            a_stars[k] = math.exp(entry[1])
        points = [(r, math.log(a_star), ctx.q) for (ctx, (r,)), a_star in zip(curves, a_stars)]
        lean = _f_and_slope(n, _ORDER, [(*point, False) for point in points])
        full = _f_and_slope(n, _ORDER, [(*point, True) for point in points], lean=False)
        phis = _phi_and_refined(n, _ORDER, points, False)
    rows = []
    for a_star, (f_value, _), (f_full, slope), (value,) in zip(a_stars, lean, full, phis):
        _checked(f_full)
        rows.append((a_star, _checked(f_value), _checked(slope / a_star), _checked(value)))
    return rows


@functools.lru_cache(maxsize=None)
def _p2_curve(n: int) -> dict:
    """Criterion 2's g_p_curve at p = 2 and r = 0, 0.1, ..., 0.8 by radius, each radius solved cold:
    g_p's rows bit for bit, three of them the finite grid's p = 2 cells (``_finite_cells``)."""
    radii = [float(r) for r in np.arange(0.0, 0.8001, 0.1)]
    return dict(zip(radii, g_p_curve(BallContext(n, 2.0), radii)))


@functools.lru_cache(maxsize=1)
def _finite_cells() -> dict:
    """g_p at each (n, p, r) of the finite grid, bit for bit, built once for criteria 5 and 7: the
    p = 2 cells from ``_p2_curve``, the others from one lockstep of one-radius curves per n."""
    cells = {}
    for n in _DIMS:
        curves = [(BallContext(n, p), [r]) for p in _FINITE_PS if p != 2.0 for r in _RADII]
        for (ctx, (r,)), (result,) in zip(curves, _g_p_curves(n, curves, DEFAULT_ORDER)):
            cells[n, ctx.p, r] = result
        cells.update({(n, 2.0, r): _p2_curve(n)[r] for r in _RADII})
    return cells


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"CRITERION {self.index} [{status}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _criterion(index: int, name: str, budget: float | None = None):
    """Turn a check returning (passed, detail) into a timed criterion.

    A criterion with a budget in seconds also fails when it runs longer, and
    its detail reports the elapsed time against that budget.
    """

    def wrap(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            started = time.perf_counter()
            passed, detail = check()
            elapsed = time.perf_counter() - started
            if budget is not None:
                passed = passed and elapsed < budget
                detail = f"{detail}, elapsed {elapsed:.2f}s (budget {budget:g}s)"
            return CriterionResult(index, name, passed, detail, elapsed)

        return criterion

    return wrap


@_criterion(1, "boundary-norm table, dims 3-5", budget=1.0)
def criterion_1():
    """Elementary G_inf forms in dimensions 3-5 reproduced by both routes."""
    worst = 0.0
    for n in _DIMS:
        for r in (0.1, 0.25, 0.5, 0.75, 0.9):
            target = uh_elementary(n, r)
            a_star, closed = g_inf_closed(n, r)
            numeric, = _site_integral(n, r, _ORDER, 0.0,
                                      lambda log_kernel, _: np.abs(np.exp(log_kernel) - a_star))
            worst = max(worst, abs(closed - target), abs(numeric - target))
    return worst <= 1e-8, f"max abs deviation {worst:.2e}"


@_criterion(2, "p = 2 closed form", budget=5.0)
def criterion_2():
    """Numeric p = 2 bound against its hypergeometric closed form."""
    worst_g = 0.0
    worst_a = 0.0
    for n in _DIMS:
        for r, res in _p2_curve(n).items():
            worst_g = max(worst_g, abs(res.g_value - g_2_closed(n, r)))
            worst_a = max(worst_a, abs(res.a_star - 1.0))
    passed = worst_g <= 1e-8 and worst_a <= 1e-10
    return passed, f"max |g - closed| {worst_g:.2e}, max |a* - 1| {worst_a:.2e}"


@_criterion(3, "p = 1 closed form and cap sequence", budget=5.0)
def criterion_3():
    """p = 1 closed form vs direct sup-distance minimization; cap sequence."""
    worst = 0.0
    for n in _DIMS:
        ctx = BallContext(n, 1.0)
        for r in _RADII:
            kmin, kmax = kernel_range(ctx, r)
            sup_dist = lambda a: max(kmax - a, a - kmin)
            center = brent_minimize(sup_dist, kmin, kmax, 1e-13 * max(1.0, kmax))
            a_closed, g_closed = g_1_closed(n, r)
            worst = max(
                worst,
                abs(center - a_closed) / a_closed,
                abs(sup_dist(center) - g_closed) / g_closed,
            )
    # At p = 1 the sharpness report compares the index-64 cap pair with G_1.
    cap = verify_sharpness(BallContext(3, 1.0), 0.5)
    limit = format(CAPSEQ_GAP_LIMIT, ".0e").replace("e-0", "e-")
    return (
        worst <= 1e-12 and cap.passed,
        f"max rel dev {worst:.2e}, cap-64 gap {cap.rel_gap:.2e} (limit {limit})",
    )


@_criterion(4, "shift stationarity")
def criterion_4():
    """Stationarity of the optimal shift on the (n, p, r) grid.

    The derivative-free cross-check (Brent's method on Phi alone, from the
    whole kernel range) targets 1e-7 agreement on the shift.  At cells
    where the objective is flat on that scale (its curvature makes the
    minimum location unresolvable to 1e-7 in double precision) the
    comparison instead uses the standard resolution limit of derivative-free
    minimization, sqrt(c * eps * Phi / Phi''), documented in the ledger.
    The twelve shift solves of one n, F, dF/da and Phi at their a*
    (``_stationarity``) and the twelve cross-checks (``_phi_minimizers``)
    each run in lockstep.
    """
    worst_res = 0.0
    worst_ratio = 0.0
    limited_cells = 0
    ok_signs = True
    ok_origin = True
    eps = 2.0 ** -52
    for n in _DIMS:
        cells, shifts = [], []  # Brent's (q, r, lo, hi, tol) and (a*, its tolerance, resolution) per cell
        curves = [(BallContext(n, p), [r]) for p in _FINITE_PS for r in _RADII]
        ok_origin &= all(solve_a_star(ctx, 0.0) == 1.0 for ctx, _ in curves[::len(_RADII)])
        for (ctx, (r,)), (a_star, residual, slope, value) in zip(curves, _stationarity(n, curves)):
            worst_res = max(worst_res, abs(residual))
            ok_signs &= slope < 0.0
            kmin, kmax = kernel_range(ctx, r)
            width = kmax - kmin
            cells.append((ctx.q, r, kmin + 1e-12 * width, kmax - 1e-12 * width, 1e-9 * max(1.0, a_star)))
            curvature = -slope * value ** (1.0 - ctx.q)
            shifts.append((a_star, 1e-7 * max(1.0, a_star), math.sqrt(64.0 * eps * value / curvature)))
        for (a_star, base_tol, resolution), direct in zip(shifts, _phi_minimizers(n, cells)):
            if resolution > base_tol:
                limited_cells += 1
            worst_ratio = max(worst_ratio, abs(direct - a_star) / max(base_tol, resolution))
    passed = worst_res <= 1e-9 and worst_ratio <= 1.0 and ok_signs and ok_origin
    return passed, (
        f"max |F(a*)| {worst_res:.2e}, worst Brent gap at {worst_ratio:.2f} of its "
        f"tolerance ({limited_cells} flat cells on the resolution limit), "
        f"slopes negative: {ok_signs}, a*(0)=1: {ok_origin}"
    )


@_criterion(5, "sharpness gap", budget=30.0)
def criterion_5():
    """Extremal data attains the bound on the full grid plus p = inf."""
    cells = _finite_cells()
    reports = [
        _sharpness(cells[n, p, r], DEFAULT_ORDER) if p < math.inf else verify_sharpness(BallContext(n, p), r)
        for n in _DIMS for p in _FINITE_PS + (math.inf,) for r in _RADII
    ]
    worst = max(report.rel_gap for report in reports)
    return all(report.passed for report in reports), f"max relative gap {worst:.2e}"


@_criterion(6, "gradient constant")
def criterion_6():
    """Gradient constant: attained by the moment extremal, matched by the
    r -> 0 slope G_p(h)/h, never exceeded by random data."""
    worst_extremal = 0.0
    for n in _DIMS:
        for p in _FINITE_PS + (math.inf,):
            ctx = BallContext(n, p)
            ratio = _gradient_extremal_ratio(ctx)
            worst_extremal = max(worst_extremal, abs(ratio - grad_constant(ctx)) / grad_constant(ctx))
    worst_fd = 0.0
    h = 1e-4
    for n in (3, 4):
        for p in (2.0, 3.0, math.inf):
            ctx = BallContext(n, p)
            slope = g_p(ctx, h).g_value / h
            worst_fd = max(worst_fd, abs(slope - grad_constant(ctx)) / grad_constant(ctx))
    violations = 0
    worst_random = 0.0
    for n in _DIMS:
        # one draw pass for the five exponents: random_grad_check's reports
        draws = _random_poly_draws(n, 1000, 42, DEFAULT_ORDER)
        for p in _FINITE_PS + (math.inf,):
            ctx = BallContext(n, p)
            report, = _grad_reports(ctx, (grad_constant(ctx),), draws)
            violations += report.violations
            worst_random = max(worst_random, report.max_ratio)
    passed = worst_extremal <= 1e-9 and worst_fd <= 1e-2 and violations == 0
    return passed, (
        f"extremal gap {worst_extremal:.2e}, slope gap {worst_fd:.2e}, "
        f"random violations {violations} (max ratio {worst_random:.6f})"
    )


@_criterion(7, "random bound property", budget=60.0)
def criterion_7():
    """Random boundary data never violates the bound (two seeds, full grid)."""
    violations = 0
    worst = 0.0
    cells = _finite_cells()
    for seed in (7, 42):
        for n in _DIMS:
            # one draw pass for the four exponents, one set of norms for the three radii
            draws = _random_poly_draws(n, 1000, seed, DEFAULT_ORDER)
            for p in _FINITE_PS:
                ctx = BallContext(n, p)
                check = _bound_checker(ctx, draws)
                for r in _RADII:
                    report = check(cells[n, p, r])
                    violations += report.violations
                    worst = max(worst, report.max_ratio)
    return violations == 0, f"violations {violations} over 72000 draws, max ratio {worst:.6f}"


@_criterion(8, "growth and range")
def criterion_8():
    """Monotone growth in r; the p = inf bound stays inside [0, 1)."""
    radii = [float(r) for r in np.arange(0.0, 0.9501, 0.05)]
    monotone = True
    inf_in_range = True
    for n in _DIMS:
        # the four numeric curves of one n in one lockstep
        numeric = dict(zip(_FINITE_PS, _g_p_curves(n, [(BallContext(n, p), radii) for p in _FINITE_PS], DEFAULT_ORDER)))
        for p in (1.0,) + _FINITE_PS + (math.inf,):
            values = [res.g_value for res in (numeric[p] if p in numeric else g_p_curve(BallContext(n, p), radii))]
            monotone &= all(b > a for a, b in zip(values, values[1:]))
            if p == math.inf:
                inf_in_range &= all(0.0 <= v < 1.0 for v in values)
    near_boundary = all(g_inf_closed(n, 0.999)[1] > 0.99 for n in _DIMS)
    inf_in_range &= all(g_inf_closed(n, 0.999)[1] < 1.0 for n in _DIMS)
    return monotone and inf_in_range and near_boundary, (
        f"strictly increasing: {monotone}, G_inf in [0,1): {inf_in_range}, "
        f"G_inf(0.999) > 0.99: {near_boundary}"
    )


@_criterion(9, "L2 corollary constants")
def criterion_9():
    """Empirical comparison of the two candidate L2 gradient constants."""
    lines = []
    all_moment = True
    for n in _DIMS:
        moment, sqrt_form = corollary_l2_batch(n, count=1000, seed=42)
        all_moment &= moment.violations == 0
        lines.append(
            f"n={n}: moment constant 2(n-1)/sqrt(n) holds {moment.count - moment.violations}"
            f"/{moment.count} (max ratio {moment.max_ratio:.6f}); sqrt(2(n-1)) holds "
            f"{sqrt_form.count - sqrt_form.violations}/{sqrt_form.count} "
            f"(max ratio {sqrt_form.max_ratio:.6f})"
        )
    witness = corollary_l2_check(3, [0.0, 1.0])
    lines.append(
        f"witness g(t)=t, n=3: lhs {witness.lhs:.9f}, sqrt-form rhs {witness.rhs_sqrt:.9f} "
        f"(holds: {witness.holds_sqrt}), moment-form rhs {witness.rhs_moment:.9f} "
        f"(holds: {witness.holds_moment})"
    )
    lines.append(
        "resolution: the moment-based constant is the one the sharp gradient bound "
        "guarantees for scalar zonal data; the sqrt form is smaller for n >= 3 and the "
        "linear witness exceeds it"
    )
    return all_moment and witness.holds_moment, "; ".join(lines)


def run_all() -> list[CriterionResult]:
    return [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(),
        criterion_8(),
        criterion_9(),
    ]
