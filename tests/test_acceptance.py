"""Acceptance battery: one test per criterion, each printing its report line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion, or ``hypschwarz check`` for the same battery from the
command line.
"""

import math
import sys
import types

import numpy as np
import pytest

from hypschwarz import acceptance, quadrature, verify
from hypschwarz.acceptance import brent_minimize
from hypschwarz.kernel import BallContext, kernel_range
from hypschwarz.objective import ObjectiveParams, big_f, dF_da, phi
from hypschwarz.solver import g_p, solve_a_star


def _run(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_supnorm_bound_table():
    _run(acceptance.criterion_1)


def test_criterion_2_l2_bound_closed_form():
    _run(acceptance.criterion_2)


def test_criterion_3_l1_chebyshev_center():
    _run(acceptance.criterion_3)


def test_criterion_4_stationarity_and_minimization():
    _run(acceptance.criterion_4)


def test_criterion_5_extremal_data_attains_bound():
    _run(acceptance.criterion_5)


def test_criterion_6_gradient_constant():
    _run(acceptance.criterion_6)


def test_criterion_7_random_bound_sampling():
    _run(acceptance.criterion_7)


def test_criterion_8_monotonicity_and_range():
    _run(acceptance.criterion_8)


def test_criterion_9_l2_corollary_report():
    _run(acceptance.criterion_9)


def _sup_distance(n, r):
    """Criterion 3's V-shaped sup-distance at p = 1, its interval, its
    tolerance and its minimizer, the midpoint of the kernel range."""
    kmin, kmax = kernel_range(BallContext(n, 1.0), r)
    return (lambda a: max(kmax - a, a - kmin)), kmin, kmax, 1e-13 * max(1.0, kmax), 0.5 * (kmin + kmax)


# (fn, lo, hi, tol, argmin) of the minimizer tests
_BRENT_CASES = [
    # smooth, strictly convex and lopsided; its minimum value is 0, so
    # rounding does not flatten it within 1e-9 of the minimizer
    (lambda x: math.expm1(x - math.log(2.0)) - (x - math.log(2.0)), -3.0, 5.0, 1e-9,
     math.log(2.0)),
    # flat-bottomed: zero curvature at the minimum
    (lambda x: (x - 0.3) ** 4, 0.0, 1.0, 1e-9, 0.3),
    # monotone: the minimum at an end of the interval
    (lambda x: x, 0.0, 1.0, 1e-9, 0.0),
    # V-shaped, as in criterion 3
    _sup_distance(3, 0.5),
    _sup_distance(5, 0.8),
]


def _plateau(x):
    """Every point of [0.2, 0.4] is a minimizer."""
    return max(abs(x - 0.3) - 0.1, 0.0) ** 2


class TestBrentMinimize:
    @pytest.mark.parametrize("fn, lo, hi, tol, argmin", _BRENT_CASES)
    def test_within_tol_of_the_minimizer(self, fn, lo, hi, tol, argmin):
        points = []
        found = brent_minimize(lambda x: points.append(x) or fn(x), lo, hi, tol)
        assert abs(found - argmin) <= tol
        assert all(lo <= x <= hi for x in points)

    def test_plateau_returns_a_point_within_tol_of_it(self):
        tol = 1e-9
        found = brent_minimize(_plateau, 0.0, 1.0, tol)
        assert 0.2 - tol <= found <= 0.4 + tol

    def test_calls_only_the_function_it_is_given(self):
        def fn(x):
            return (x - 0.25) ** 2

        called = []

        def profile(frame, event, arg):
            if event == "call":
                called.append(frame.f_code)

        sys.setprofile(profile)
        try:
            brent_minimize(fn, 0.0, 1.0, 1e-9)
        finally:
            sys.setprofile(None)
        # besides fn, only Brent's own code runs: its lockstep driver, its
        # step generator and the code they hold
        own = {code for outer in (brent_minimize, acceptance._minimize_together, acceptance._brent_steps)
               for code in (outer.__code__, *(const for const in outer.__code__.co_consts
                                              if isinstance(const, types.CodeType)))}
        assert called[0] is brent_minimize.__code__
        assert fn.__code__ in called and set(called[1:]) <= own | {fn.__code__}

    def test_lockstep_is_each_minimizer_alone(self):
        # every function of this class, the plateau included, in one
        # _minimize_together, each search given its own function's values
        cases = [*_BRENT_CASES, (_plateau, 0.0, 1.0, 1e-9, None)]
        rounds = []

        def values(open_cases, points):
            rounds.append(len(open_cases))
            return [cases[k][0](x) for k, x in zip(open_cases, points)]

        found = acceptance._minimize_together([case[1:4] for case in cases], values)
        assert rounds[0] == len(cases) and rounds[-1] >= 1 and rounds == sorted(rounds, reverse=True)
        for (fn, lo, hi, tol, _), value in zip(cases, found):
            assert value.hex() == brent_minimize(fn, lo, hi, tol).hex()


def _criterion_4_cells(n):
    """Criterion 4's Brent cells at n, (q, r, lo, hi, tol) with p major, and
    their ObjectiveParams."""
    cells, params = [], []
    for p in acceptance._FINITE_PS:
        ctx = BallContext(n, p)
        for r in acceptance._RADII:
            a_star = solve_a_star(ctx, r, acceptance._ORDER)
            kmin, kmax = kernel_range(ctx, r)
            width = kmax - kmin
            cells.append((ctx.q, r, kmin + 1e-12 * width, kmax - 1e-12 * width, 1e-9 * max(1.0, a_star)))
            params.append(ObjectiveParams(ctx, r, acceptance._ORDER))
    return cells, params


def test_criterion_4_lockstep_minimizers_are_the_sequential_ones():
    # the twelve cells of one n in lockstep, each round one stacked Phi pass,
    # against brent_minimize on the public phi, cell by cell
    for n in acceptance._DIMS:
        cells, params = _criterion_4_cells(n)
        together = acceptance._phi_minimizers(n, cells)
        assert len(together) == 12
        for (_, _, lo, hi, tol), prm, found in zip(cells, params, together):
            alone = brent_minimize(lambda a: phi(prm, a), lo, hi, tol)
            assert found.hex() == alone.hex(), (n, prm.ctx.p, prm.r)


def test_criterion_4_cross_check_calls(monkeypatch):
    # Phi calls of the cross-check per (n, p, r) cell; a golden-section
    # search from the same interval to the same tolerance takes 52.6 on
    # average and 64 at most
    counts = []
    real_steps = acceptance._brent_steps

    def counted(lo, hi, tol):
        steps, calls = real_steps(lo, hi, tol), []
        counts.append(calls)
        point = next(steps)
        while True:
            calls.append(point)
            try:
                point = steps.send((yield point))
            except StopIteration as done:
                return done.value

    monkeypatch.setattr(acceptance, "_brent_steps", counted)
    assert acceptance.criterion_4().passed
    assert len(counts) == 36
    assert sum(map(len, counts)) / len(counts) <= 30.0 and max(map(len, counts)) <= 50


def test_random_draw_data_is_built_once_per_key(monkeypatch):
    # criterion 7 sums the pole-site kernel moments once per (n, r), 9 in
    # place of 72, and both criteria draw once per (n, seed): criterion 6 3
    # times in place of 15, criterion 7 6 in place of 24
    draws, moment_passes = [], []
    real_rng, real_integral = np.random.default_rng, verify._site_integral
    monkeypatch.setattr(np.random, "default_rng", lambda seed: draws.append(seed) or real_rng(seed))
    monkeypatch.setattr(verify, "_site_integral",
                        lambda n, r, order, t0, fn: moment_passes.append((n, r, t0))
                        or real_integral(n, r, order, t0, fn))
    assert acceptance.criterion_6().passed
    assert draws == [42] * 3 and moment_passes == []
    draws.clear()
    verify._pole_moments.cache_clear()
    assert acceptance.criterion_7().passed
    assert draws == [7] * 3 + [42] * 3
    assert sorted(moment_passes) == [(n, r, 1.0) for n in acceptance._DIMS for r in acceptance._RADII]


def test_criterion_4_stacked_rows_are_the_public_calls():
    # the twelve shifts of one n in one lockstep, then F, dF/da and Phi at
    # them in three stacked passes: solve_a_star, big_f, dF_da and phi
    # there, bit for bit
    for n in acceptance._DIMS:
        curves = [(BallContext(n, p), [r]) for p in acceptance._FINITE_PS for r in acceptance._RADII]
        rows = acceptance._stationarity(n, curves)
        assert len(rows) == 12
        for (ctx, (r,)), row in zip(curves, rows):
            prm = ObjectiveParams(ctx, r, acceptance._ORDER)
            a_star = solve_a_star(ctx, r, acceptance._ORDER)
            alone = (a_star, big_f(prm, a_star), dF_da(prm, a_star), phi(prm, a_star))
            assert [v.hex() for v in row] == [v.hex() for v in alone], (n, ctx.p, r)


def test_finite_grid_is_g_p():
    # criteria 5 and 7 read the 36 finite cells from one lockstep per n
    cells = acceptance._finite_cells()
    assert len(cells) == 36
    for (n, p, r), result in cells.items():
        assert result == g_p(BallContext(n, p), r), (n, p, r)
