import math

import numpy as np
import pytest

from hypschwarz.errors import BracketError, DomainError, NonConvergenceError
from hypschwarz import solver
from hypschwarz.kernel import BallContext, crossing_point, kernel_range, poisson_szego_axis
from hypschwarz.objective import ObjectiveParams, big_f, dF_da, phi
from hypschwarz.quadrature import integrate_with_breakpoint
from hypschwarz.solver import (
    GpResult,
    g_1_closed,
    g_2_closed,
    g_inf_closed,
    g_p,
    g_p_curve,
    grad_constant,
    solve_a_star,
    uh_elementary,
)
from hypschwarz.acceptance import brent_minimize
from conftest import count_f_evals, mp_crossing, mp_kernel, mp_zonal


def anchored_log_start(ctx, r):
    """log a* at p = inf, 2 and 1 (the equator value, 0, the log of the
    kernel range's midpoint), interpolated quadratically in 1/p."""
    x = 1.0 / ctx.p
    kmin, kmax = kernel_range(ctx, r)
    l_inf = (ctx.n - 1) * (math.log1p(-r * r) - math.log1p(r * r))
    return 2.0 * (x - 0.5) * ((x - 1.0) * l_inf + x * math.log(0.5 * (kmin + kmax)))


class TestSolveAStar:
    def test_center_is_exact(self):
        assert solve_a_star(BallContext(3, 3.0), 0.0) == 1.0

    def test_p2_shift_is_one(self):
        ctx = BallContext(4, 2.0)
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert abs(solve_a_star(ctx, r) - 1.0) < 1e-10

    def test_residual_and_slope_at_root(self):
        for n, p, r in ((3, 1.5, 0.5), (4, 3.0, 0.7), (5, 5.0, 0.3)):
            ctx = BallContext(n, p)
            a = solve_a_star(ctx, r)
            prm = ObjectiveParams(ctx, r)
            assert abs(big_f(prm, a)) <= 1e-9
            assert dF_da(prm, a) < 0.0

    def test_agrees_with_direct_minimization(self):
        ctx = BallContext(3, 3.0)
        r = 0.5
        a = solve_a_star(ctx, r)
        prm = ObjectiveParams(ctx, r)
        lo, hi = kernel_range(ctx, r)
        a_direct = brent_minimize(lambda x: phi(prm, x), lo, hi, 1e-10)
        assert a == pytest.approx(a_direct, abs=1e-7)

    def test_relative_residual_on_small_exponent_grid(self):
        # |F(a*)| against the same integral without sign cancellation, which
        # scales like F itself; for p near 1 at small r both are far below
        # any absolute tolerance
        for n in (3, 4, 5):
            for p in (1.01, 1.05, 1.1, 1.2, 1.5, 2.5, 5.0, 20.0):
                ctx = BallContext(n, p)
                for r in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 0.95):
                    try:
                        a = solve_a_star(ctx, r)
                    except DomainError:
                        continue  # |K - a|^(q-1) overflows (p = 1.01, large r)
                    scale = integrate_with_breakpoint(
                        n, 128,
                        lambda t: np.abs(poisson_szego_axis(ctx, r, t) - a) ** (ctx.q - 1.0),
                        crossing_point(ctx, r, a),
                    )
                    assert abs(big_f(ObjectiveParams(ctx, r), a)) <= 1e-10 * scale, (n, p, r)

    def test_small_radius_against_mpmath(self):
        # a* by 45 bisections of the mpmath F on [a0 (1 - 1e-8), a0 (1 + 1e-8)],
        # a0 the double-precision root, then G_p at that a*:
        #   q = mpf(p) / (mpf(p) - 1); mp.dps = 40
        #   dev = lambda a: lambda t: mp_kernel(n, r, t) - a
        #   F = lambda a: mp_zonal(n, lambda t: sign(dev(a)(t)) * abs(dev(a)(t)) ** (q - 1),
        #                          split=[mp_crossing(n, r, a)], dps=40)
        #   G = mp_zonal(n, lambda t: abs(dev(a)(t)) ** q, split=[mp_crossing(n, r, a)],
        #                dps=40) ** (1 / q)
        for n, p, r, a_ref, g_ref in (
            (3, 1.05, 0.01, 1.0006910369187645433, 0.034535523981310136),
            (3, 1.1, 0.03, 1.0054085164944144757, 0.09598836881582991),
        ):
            res = g_p(BallContext(n, p), r)
            assert res.a_star == pytest.approx(a_ref, rel=1e-9)
            assert res.g_value == pytest.approx(g_ref, rel=1e-9)

    def test_refuses_missing_sign_change(self):
        with pytest.raises(BracketError):
            g_p(BallContext(30, 2.0), 0.9705)
        with pytest.raises(BracketError):
            solve_a_star(BallContext(30, 2.0), 0.9705, guess=1.0)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITER", 2)
        with pytest.raises(NonConvergenceError):
            solve_a_star(BallContext(4, 3.0), 0.5)

    def test_bisection_bounds_cost_where_f_spans_many_orders(self, monkeypatch):
        # F at the bracket ends differs by about 1e44 here; halving the stale
        # end alone took 174 and 198 evaluations
        calls = count_f_evals(monkeypatch)
        for n, p, r in ((30, 1.1, 0.8), (100, 1.01, 0.01)):
            calls.clear()
            solve_a_star(BallContext(n, p), r)
            assert len(calls) <= 40, (n, p, r)

    def test_guess_at_the_root_is_cheap(self, monkeypatch):
        calls = count_f_evals(monkeypatch)
        for n, p, r in ((4, 3.0, 0.5), (3, 1.1, 0.03), (5, 10.0, 0.8), (4, 2.0, 0.7)):
            ctx = BallContext(n, p)
            a_star = solve_a_star(ctx, r)
            calls.clear()
            assert solve_a_star(ctx, r, guess=a_star) == pytest.approx(a_star, rel=1e-12)
            assert len(calls) <= 6, (n, p, r)
            # a guess past a range end is clamped into it and still finds the root
            for guess in (1e-300, 1e300):
                assert solve_a_star(ctx, r, guess=guess) == pytest.approx(a_star, rel=1e-12)
        for guess in (0.0, -1.0, math.nan, math.inf, "1"):
            with pytest.raises(DomainError, match="guess"):
                solve_a_star(BallContext(4, 3.0), 0.5, guess=guess)

    def test_cold_solve_leaves_range_ends_alone(self, monkeypatch):
        # a solve without a guess starts at the anchored shift and evaluates a
        # range end only when a step lands on it; these roots lie well inside
        shifts = []
        for name in ("big_f", "_f_and_slope"):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda prm, a, real=real: shifts.append(a) or real(prm, a))
        for n, p, r in ((4, 3.0, 0.5), (3, 1.1, 0.03)):
            ctx = BallContext(n, p)
            kmin, kmax = kernel_range(ctx, r)
            shifts.clear()
            solve_a_star(ctx, r)
            assert shifts[0] == pytest.approx(math.exp(anchored_log_start(ctx, r)), rel=1e-14)
            assert all(kmin * (1.0 + 1e-9) < a < kmax * (1.0 - 1e-9) for a in shifts), (n, p, r)

    def test_anchored_start_lies_inside_the_kernel_range(self, monkeypatch):
        # the interpolated log a* never leaves [log kmin, log kmax]: it is at
        # least log kmin at p = inf, exactly 0 at p = 2 and log of the midpoint
        # at p = 1; a cold solve evaluates F there first, clamped into its
        # bracket like a guess (the margin 1e-12 (kmax - kmin) exceeds kmin
        # by far where n r is large)
        class FirstShift(Exception):
            pass

        def first_shift(prm, a):
            raise FirstShift(a)

        monkeypatch.setattr(solver, "big_f", first_shift)
        monkeypatch.setattr(solver, "_f_and_slope", first_shift)
        checked = 0
        for n in (3, 4, 5, 10, 30, 100):
            for p in (1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0):
                ctx = BallContext(n, p)
                for r in (0.01, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                    try:
                        kmin, kmax = kernel_range(ctx, r)
                    except DomainError:
                        continue  # the range leaves double precision
                    start = anchored_log_start(ctx, r)
                    assert math.log(kmin) < start < math.log(kmax), (n, p, r)
                    margin = 1e-12 * (kmax - kmin)
                    clamped = min(max(start, math.log(kmin + margin)), math.log(kmax - margin))
                    with pytest.raises(FirstShift) as first:
                        solve_a_star(ctx, r)
                    assert first.value.args[0] == pytest.approx(math.exp(clamped), rel=1e-14)
                    if p == 2.0 and clamped == start:
                        assert first.value.args[0] == 1.0
                    checked += 1
        assert checked == 329

    def test_cold_solve_cost(self, monkeypatch):
        # the Illinois loop stepping out from a = 1 took 13.5 F per solve here
        calls = count_f_evals(monkeypatch)
        solves = 0
        for n in (3, 4, 5):
            for p in (1.1, 1.5, 3.0, 10.0, 20.0):
                for r in (0.05, 0.5, 0.9):
                    solve_a_star(BallContext(n, p), r)
                    solves += 1
        assert len(calls) / solves <= 9.0

    def test_rejects_endpoint_exponents(self):
        with pytest.raises(DomainError):
            solve_a_star(BallContext(3, 1.0), 0.5)
        with pytest.raises(DomainError):
            solve_a_star(BallContext(3, math.inf), 0.5)


class TestGpCurve:
    def test_matches_point_solves(self):
        # a* within the solver's 2^-44 resolution (plus F's rounding near the
        # root); G within the point's est_error
        for n, p, r_max in ((3, 1.1, 0.95), (4, 1.5, 0.95), (5, 2.0, 0.95), (3, 3.0, 0.95),
                            (5, 10.0, 0.95), (4, 100.0, 0.95), (10, 1.1, 0.95), (10, 3.0, 0.75),
                            (30, 1.5, 0.6), (100, 2.0, 0.12)):
            ctx = BallContext(n, p)
            ascending = [float(r) for r in np.linspace(0.01, r_max, 30)]
            geometric = [float(r) for r in np.geomspace(0.01, r_max, 30)]
            for radii in (ascending, ascending[::-1], geometric, geometric[::-1]):
                for r, res in zip(radii, g_p_curve(ctx, radii)):
                    point = g_p(ctx, r)
                    assert res.r == r and res.method == "numeric"
                    assert res.a_star == pytest.approx(point.a_star, rel=1e-12), (n, p, r)
                    assert abs(res.g_value - point.g_value) <= (
                        point.est_error + 1e-13 * point.g_value), (n, p, r)

    def test_cost_per_radius(self, monkeypatch):
        # cold solves take 6.4 to 9.8 F per radius on these sweeps, and warm
        # ones took 5.0 to 5.7 with a quadratic guess and no Newton step
        calls = count_f_evals(monkeypatch)
        radii = [float(r) for r in np.linspace(0.01, 0.95, 100)]
        for n, p in ((4, 3.0), (5, 20.0), (3, 1.1)):
            calls.clear()
            g_p_curve(BallContext(n, p), radii)
            assert len(calls) / len(radii) <= 4.0, (n, p)

    def test_unusable_slope_falls_back_to_the_outward_step(self, monkeypatch):
        # a slope that is non-finite, zero or of the wrong sign only costs
        # steps: the bracket, and so the root, still comes from F alone
        ctx, r = BallContext(4, 3.0), 0.5
        a_star = solve_a_star(ctx, r)
        real = solver._f_and_slope
        for bad in (math.nan, math.inf, -math.inf, 0.0, 1.0):
            monkeypatch.setattr(solver, "_f_and_slope", lambda prm, a: (real(prm, a)[0], bad))
            for guess in (a_star * 0.99, a_star * 1.01):
                assert solve_a_star(ctx, r, guess=guess) == pytest.approx(a_star, rel=1e-12)

    def test_p2_sweep_solves_each_radius_cold(self, monkeypatch):
        # at p = 2, F(a) = 1 - a and the cold start a = 1 is the root; a guess
        # extrapolated from earlier solves costs more F, so the sweep's rows and
        # F count are those of cold point solves
        calls = count_f_evals(monkeypatch)
        radii = [float(r) for r in np.linspace(0.01, 0.95, 100)]
        for n in (3, 4, 5):
            ctx = BallContext(n, 2.0)
            calls.clear()
            curve = g_p_curve(ctx, radii)
            swept = len(calls)
            solver._g_p_numeric.cache_clear()
            calls.clear()
            assert curve == [g_p(ctx, r) for r in radii], n
            assert swept == len(calls), n

    def test_repeated_and_unordered_radii(self):
        same = g_p_curve(BallContext(3, 3.0), [0.5] * 4)
        assert same == [g_p(BallContext(3, 3.0), 0.5)] * 4
        for radii in ([0.9, 0.7, 0.5, 0.3, 0.1, 0.05],
                      [0.0, 0.2, 0.5, 0.55, 0.9],
                      [0.3, 0.0, 0.3, 0.6, 0.0, 0.31, 0.8, 0.6],
                      [0.4]):
            for p in (1.0, 2.0, 3.0, 1.3, math.inf):
                ctx = BallContext(4, p)
                curve = g_p_curve(ctx, radii)
                assert [res.r for res in curve] == radii
                for r, res in zip(radii, curve):
                    point = g_p(ctx, r)
                    assert res.method == point.method
                    assert res.a_star == pytest.approx(point.a_star, rel=1e-12), (p, radii, r)
                    assert res.g_value == pytest.approx(point.g_value, rel=1e-12, abs=1e-300)
        assert g_p_curve(BallContext(4, 3.0), [0.4]) == [g_p(BallContext(4, 3.0), 0.4)]
        assert g_p_curve(BallContext(4, 3.0), []) == []

    def test_sweep_answers_where_the_point_refuses(self):
        # at q = 101 a cold solve steps out to next to the upper kernel-range
        # end, where |K - a|^100 overflows; the warm solve stays near a*, where F
        # and Phi are finite, and its bracket is sign-checked at interior points
        ctx = BallContext(3, 1.01)
        radii = [float(r) for r in np.linspace(0.9, 0.949, 8)]
        with pytest.raises(DomainError, match="non-finite"):
            g_p(ctx, 0.949)
        curve = g_p_curve(ctx, radii)
        values = [res.g_value for res in curve]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert g_inf_closed(3, 0.949)[1] <= values[-1] <= g_1_closed(3, 0.949)[1]
        assert math.isfinite(values[-1]) and curve[-1].est_error <= 1e-10 * values[-1]
        assert values[0] == g_p(ctx, 0.9).g_value


class TestClosedForms:
    def test_p1_reference_point(self):
        a_star, g1 = g_1_closed(3, 0.5)
        assert a_star == pytest.approx(41.0 / 9.0, rel=1e-14)
        assert g1 == pytest.approx(40.0 / 9.0, rel=1e-14)

    def test_p1_hyperbolic_identity(self):
        # the kernel range endpoints multiply to 1, so a*^2 - G_1^2 = 1;
        # the float difference of the squares carries eps * a*^2 of roundoff
        for n in (3, 4, 6):
            for r in (0.1, 0.4, 0.8, 0.95):
                a_star, g1 = g_1_closed(n, r)
                slack = max(1e-12, 8.0 * 2.0 ** -52 * a_star * a_star)
                assert a_star * a_star - g1 * g1 == pytest.approx(1.0, abs=slack)

    def test_p1_against_mpmath(self):
        # (kmax - kmin)/2 cancelled at small r: 3.3e-5 off at r = 1e-12 and
        # 5.5e-2 at r = 1e-15.  What is left is the rounding of kmin, about
        # 2 (n - 1) ulps of (1 - r)/(1 + r) raised to n - 1: 2.1e-14 at
        # n = 100, r = 0.25, and within 2e-14 up to n = 30.
        pytest.importorskip("mpmath")
        from mpmath import mp

        radii = np.concatenate([np.geomspace(1e-15, 0.999, 121), np.arange(0.05, 0.951, 0.05)])
        with mp.workdps(50):
            for n in (3, 4, 5, 10, 30, 100):
                tol = max(2e-14, 3.0 * (n - 1) * 2.0 ** -53)
                for r in map(float, radii):
                    try:
                        g1 = g_1_closed(n, r)[1]
                    except DomainError:  # kernel_range refuses n = 100 from r = 0.9985
                        assert n == 100 and r > 0.998
                        continue
                    kmin = ((1 - mp.mpf(r)) / (1 + mp.mpf(r))) ** (n - 1)
                    ref = (1 / kmin - kmin) / 2
                    assert abs(g1 - ref) <= tol * ref, (n, r, g1, ref)

    def test_p2_reference_point(self):
        assert g_2_closed(3, 0.5) == pytest.approx(1.539600717839002, rel=1e-13)
        assert g_2_closed(3, 0.0) == 0.0

    def test_pinf_matches_elementary_forms(self):
        for n in (3, 4, 5):
            for r in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                _, g_val = g_inf_closed(n, r)
                assert g_val == pytest.approx(uh_elementary(n, r), abs=1e-10)

    def test_pinf_near_boundary(self):
        for n in (3, 4, 5):
            _, g_val = g_inf_closed(n, 0.999)
            assert g_val == pytest.approx(uh_elementary(n, 0.999), rel=5e-10)
            assert g_val < 1.0

    def test_pinf_reference_points(self):
        assert uh_elementary(4, 0.5) == pytest.approx(0.8959119613381721, rel=1e-15)
        assert uh_elementary(5, 0.5) == pytest.approx(0.944, rel=1e-15)
        _, g3 = g_inf_closed(3, 0.5)
        assert g3 == pytest.approx(0.8, rel=1e-14)

    def test_elementary_form_rejects_other_dimensions(self):
        with pytest.raises(DomainError):
            uh_elementary(6, 0.5)

    def test_pinf_refuses_underflowing_shift(self):
        # a* = ((1-r^2)/(1+r^2))^(n-1) is 0.0 in doubles at n = 100, r = 0.9999
        with pytest.raises(DomainError, match=r"n=100, r=0.9999.*below"):
            g_inf_closed(100, 0.9999)
        with pytest.raises(DomainError, match="leaves double precision"):
            g_p(BallContext(100, math.inf), 0.9999)

    def test_pinf_shift_is_equator_value(self):
        ctx = BallContext(3, math.inf)
        r = 0.6
        a_star, _ = g_inf_closed(3, r)
        assert a_star == pytest.approx(float(poisson_szego_axis(ctx, r, 0.0)), rel=1e-14)

    def test_pinf_numeric_integral_agrees(self):
        # the L^1 deviation from the equator value, split at its crossing t = 0
        for n, r in ((3, 0.5), (4, 0.7), (5, 0.9)):
            ctx = BallContext(n, math.inf)
            a_star, g_val = g_inf_closed(n, r)
            numeric = integrate_with_breakpoint(
                n, 512, lambda t: np.abs(poisson_szego_axis(ctx, r, t) - a_star), 0.0
            )
            assert numeric == pytest.approx(g_val, abs=1e-8)


class TestGpDispatch:
    def test_method_tags_and_estimates(self):
        res1 = g_p(BallContext(3, 1.0), 0.5)
        assert res1.method == "closed_p1" and res1.est_error == 0.0
        res_inf = g_p(BallContext(3, math.inf), 0.5)
        assert res_inf.method == "closed_pinf" and res_inf.est_error == 0.0
        res2 = g_p(BallContext(3, 2.0), 0.5)
        assert res2.method == "numeric" and res2.est_error <= 1e-10
        res3 = g_p(BallContext(3, 3.0), 0.5)
        assert res3.method == "numeric" and res3.est_error <= 1e-10

    def test_numeric_estimate_has_a_rounding_floor(self):
        # order doubling reads exactly 0.0 at (10, 1.5, 0.1), where G is
        # 4.4e-16 G off; at (3, 1.5, 0.9) it read 2.5e-16 G for a 5.3e-15 G error
        for n in (3, 4, 10):
            for p in (1.1, 1.5, 2.0, 3.0, 10.0):
                for r in (0.01, 0.1, 0.5):
                    res = g_p(BallContext(n, p), r)
                    assert res.method == "numeric" and res.est_error > 0.0, (n, p, r)
        n, p, r = 3, 1.5, 0.9
        res = g_p(BallContext(n, p), r)
        a, q = res.a_star, res.ctx.q
        ref = mp_zonal(n, lambda t: abs(mp_kernel(n, r, t) - a) ** q,
                       split=[mp_crossing(n, r, a)]) ** (1.0 / q)
        assert abs(res.g_value - ref) <= res.est_error

    def test_estimate_refines_the_panels_at_low_orders(self):
        # orders below 104 share 12 nodes per panel, so doubling an order below
        # 52 compared a rule with itself: at (5, 10, 0.9) order 48 reported
        # 2.9e-14 for an error of 2.7e-3 against order 1024.  Doubling the
        # panel nodes gets the error within a factor of 2 (1 + 2e-5 there)
        for n, p, r in ((5, 10.0, 0.9), (4, 3.0, 0.5), (3, 1.5, 0.9), (4, 1.3, 0.8)):
            ctx = BallContext(n, p)
            ref = g_p(ctx, r, order=1024)
            for order in (16, 48):
                res = g_p(ctx, r, order=order)
                assert abs(res.g_value - ref.g_value) <= 2.0 * res.est_error + ref.est_error, (
                    n, p, r, order)

    def test_center_point(self):
        res = g_p(BallContext(4, 3.0), 0.0)
        assert res.a_star == 1.0 and res.g_value == 0.0

    def test_increasing_in_radius(self):
        ctx = BallContext(3, 2.0)
        values = [g_p(ctx, r).g_value for r in np.arange(0.1, 0.95, 0.1)]
        assert np.all(np.diff(values) > 0.0)

    def test_result_validation(self):
        ctx = BallContext(3, 2.0)
        with pytest.raises(DomainError):
            GpResult(ctx, 0.5, 1.0, 1.0, "magic", 0.0)
        with pytest.raises(DomainError):
            GpResult(ctx, 0.5, 0.0, 1.0, "numeric", 0.0)
        with pytest.raises(DomainError):
            GpResult(ctx, 0.5, 1.0, -1.0, "numeric", 0.0)


class TestGradConstant:
    def test_dimension_three_values(self):
        assert grad_constant(BallContext(3, 1.0)) == 4.0
        assert grad_constant(BallContext(3, 2.0)) == pytest.approx(
            4.0 / math.sqrt(3.0), rel=1e-14
        )
        assert grad_constant(BallContext(3, math.inf)) == pytest.approx(2.0, rel=1e-14)

    def test_p1_equals_two_n_minus_two(self):
        for n in (3, 4, 5, 7):
            assert grad_constant(BallContext(n, 1.0)) == 2.0 * (n - 1.0)

    def test_slope_at_center_matches(self):
        # the secant G_p(h)/h tends to C_p as h -> 0
        h = 1e-4
        for n, p in ((3, 2.0), (4, 3.0), (3, math.inf)):
            ctx = BallContext(n, p)
            assert g_p(ctx, h).g_value / h == pytest.approx(grad_constant(ctx), rel=1e-6)
