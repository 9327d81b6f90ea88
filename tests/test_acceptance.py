"""Acceptance battery: one test per criterion, each printing its report line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion, or ``hypschwarz check`` for the same battery from the
command line.
"""

import math
import sys

import pytest

from hypschwarz import acceptance, quadrature
from hypschwarz.acceptance import brent_minimize
from hypschwarz.kernel import BallContext, kernel_range


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


class TestBrentMinimize:
    @pytest.mark.parametrize("fn, lo, hi, tol, argmin", [
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
    ])
    def test_within_tol_of_the_minimizer(self, fn, lo, hi, tol, argmin):
        points = []
        found = brent_minimize(lambda x: points.append(x) or fn(x), lo, hi, tol)
        assert abs(found - argmin) <= tol
        assert all(lo <= x <= hi for x in points)

    def test_plateau_returns_a_point_within_tol_of_it(self):
        # every point of [0.2, 0.4] is a minimizer
        tol = 1e-9
        found = brent_minimize(lambda x: max(abs(x - 0.3) - 0.1, 0.0) ** 2, 0.0, 1.0, tol)
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
        assert called[0] is brent_minimize.__code__
        assert set(called[1:]) == {fn.__code__}


def test_criterion_4_cross_check_calls(monkeypatch):
    # Phi calls of the cross-check per (n, p, r) cell; a golden-section
    # search from the same interval to the same tolerance takes 52.6 on
    # average and 64 at most
    counts = []

    def counted(fn, lo, hi, tol):
        calls = []
        found = brent_minimize(lambda a: calls.append(a) or fn(a), lo, hi, tol)
        counts.append(len(calls))
        return found

    monkeypatch.setattr(acceptance, "brent_minimize", counted)
    assert acceptance.criterion_4().passed
    assert len(counts) == 36
    assert sum(counts) / len(counts) <= 30.0 and max(counts) <= 50


def test_criterion_4_reads_phi_at_the_shift_on_its_cached_site(monkeypatch):
    built = []
    real_nodes = quadrature._graded_nodes
    monkeypatch.setattr(quadrature, "_graded_nodes",
                        lambda *args: built.append(args) or real_nodes(*args))
    solved = []
    real_solve = acceptance.solve_a_star

    def solve(*args):
        solved.append(real_solve(*args))
        return solved[-1]

    builds_at_shift = []
    real_phi = acceptance.phi

    def phi(params, a):
        before = len(built)
        value = real_phi(params, a)
        if a == solved[-1]:
            builds_at_shift.append(len(built) - before)
        return value

    monkeypatch.setattr(acceptance, "solve_a_star", solve)
    monkeypatch.setattr(acceptance, "phi", phi)
    quadrature._site.cache_clear()
    assert acceptance.criterion_4().passed
    assert builds_at_shift == [0] * 36
