import math

import numpy as np
import pytest

from hypschwarz.errors import DomainError, NonConvergenceError
from hypschwarz import objective, quadrature, solver
from hypschwarz.kernel import BallContext, _split_point, kernel_range, poisson_szego_axis
from hypschwarz.objective import ObjectiveParams, _phi_and_refined, big_f, dF_da, phi
from hypschwarz.quadrature import _ROUNDING_FLOOR, integrate_with_breakpoint
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
from conftest import (avx512_targets, count_f_evals, count_site_builds, f_passes, mp_crossing, mp_g_2, mp_g_even,
                      mp_kernel, mp_zonal, solve_from)


def anchored_log_start(ctx, r):
    """log a* at p = inf, 2 and 1 (the equator value, 0, the log of the
    kernel range's midpoint), interpolated quadratically in 1/p."""
    x = 1.0 / ctx.p
    kmin, kmax = kernel_range(ctx, r)
    l_inf = (ctx.n - 1) * (math.log1p(-r * r) - math.log1p(r * r))
    return 2.0 * (x - 0.5) * ((x - 1.0) * l_inf + x * math.log(0.5 * (kmin + kmax)))


def guessed(ctx, r, guess):
    """a* from a solve started at the shift ``guess``, with the least first step."""
    return math.exp(solve_from(ctx, r, 128, math.log(guess), 0.0)[0])


def log_range(n, r):
    """l with log K(r, .) ranging over [-l, l]."""
    return (n - 1) * math.log((1.0 + r) / (1.0 - r))


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
                        _split_point(ctx.n, r, math.log(a)),
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
            assert res.a_star == pytest.approx(a_ref, rel=1e-9, abs=0)
            assert res.g_value == pytest.approx(g_ref, rel=1e-9, abs=0)

    def test_refuses_missing_sign_change(self, monkeypatch):
        # F is positive at the lower end of the range of log K and negative at
        # the upper one, so those ends are never evaluated; the absolute
        # margin 1e-12 (kmax - kmin) once cut a* = 1 out of the bracket here.
        # The order-128 rule misses part of the kernel peak at the pole
        # (ROADMAP open item 1), which moves the computed root to 0.989
        ctx = BallContext(30, 2.0)
        a_star = solve_a_star(ctx, 0.9705)
        assert a_star == pytest.approx(guessed(ctx, 0.9705, 1.0), rel=1e-12, abs=0)
        assert abs(a_star - 1.0) < 0.02
        # an F that never changes sign is refused next to the end it walks to
        real = solver._f_and_slope
        monkeypatch.setattr(solver, "_f_and_slope",
                            lambda *args: [(1.0, slope) for _, slope in real(*args)])
        with pytest.raises(DomainError, match="no sign change") as refused:
            solve_a_star(BallContext(4, 3.0), 0.5)
        end = float(str(refused.value).rsplit(" = ", 1)[1])
        assert end == pytest.approx(log_range(4, 0.5), rel=1e-15, abs=0)
        with pytest.raises(DomainError, match="no sign change"):
            guessed(BallContext(4, 3.0), 0.5, 2.0)

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
            assert guessed(ctx, r, a_star) == pytest.approx(a_star, rel=1e-12, abs=0)
            assert len(calls) <= 6, (n, p, r)
            # the solve returns its root with its last F, the bits of an F call there
            s, f = solve_from(ctx, r, 128, math.log(a_star), 0.0)
            assert f == objective._f_and_slope(n, 128, [(r, s, ctx.q, False)])[0][0], (n, p, r)
            # a guess past a range end is clamped into it and still finds the root
            for guess in (1e-300, 1e300):
                assert guessed(ctx, r, guess) == pytest.approx(a_star, rel=1e-12, abs=0)

    def test_cold_solve_leaves_range_ends_alone(self, monkeypatch):
        # a solve without a guess starts at the anchored shift and never
        # evaluates F at an end of the range of log K, where its sign is known
        logs = []
        real = solver._f_and_slope
        # _f_and_slope(n, order, [(r, s, q, slope)])
        monkeypatch.setattr(solver, "_f_and_slope", lambda *args: logs.append(args[2][0][1]) or real(*args))
        for n, p, r in ((4, 3.0, 0.5), (3, 1.1, 0.03), (30, 2.0, 0.9705), (3, 3.0, 1e-12)):
            ctx = BallContext(n, p)
            ell = log_range(n, r)
            logs.clear()
            solve_a_star(ctx, r)
            assert logs[0] == pytest.approx(anchored_log_start(ctx, r), rel=1e-14, abs=1e-15)
            # 1e-9 inside each end in log a (its share of l where l is 1e-6
            # or less: l = 4e-12 at r = 1e-12), and 1e-9 of l where l > 1
            margin = 1e-9 * (max(1.0, ell) if ell > 1e-6 else ell)
            assert all(abs(s) < ell - margin for s in logs), (n, p, r)

    def test_anchored_start_lies_inside_the_kernel_range(self, monkeypatch):
        # the interpolated log a* never leaves [log kmin, log kmax]: it is at
        # least log kmin at p = inf, exactly 0 at p = 2 and log of the midpoint
        # at p = 1; a cold solve evaluates F there first (its clamp into the
        # range, a tolerance inside each end, leaves it where it is)
        class FirstShift(Exception):
            pass

        def first_shift(n, order, points):
            raise FirstShift(points[0][1])

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
                    with pytest.raises(FirstShift) as first:
                        solve_a_star(ctx, r)
                    assert first.value.args[0] == pytest.approx(start, rel=1e-14, abs=1e-15)
                    if p == 2.0:
                        assert first.value.args[0] == 0.0
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


class TestSteeredStart:
    """Every solve, cold or guessed, steers its first step by the slope that
    comes with its first F."""

    def test_a_new_solve_asks_for_the_slope_first(self, monkeypatch):
        passes = []
        real = solver._f_and_slope
        monkeypatch.setattr(solver, "_f_and_slope", lambda n, order, points: passes.append(points) or real(
            n, order, points))
        ctx, r = BallContext(4, 3.0), 0.5
        for start in (None, math.log(solve_a_star(ctx, r)) + 0.01):
            passes.clear()
            solve_from(ctx, r, 128, start, 0.0)
            assert [point[3] for points in passes for point in points] == [True] + [False] * (len(passes) - 1)
        # in a sweep each radius asks once, with its first point, and the
        # points that ask come first in their pass
        passes.clear()
        radii = [float(r) for r in np.linspace(0.01, 0.95, 40)]
        g_p_curve(ctx, radii)
        seen = set()
        for points in passes:
            slopes = [slope for _, _, _, slope in points]
            assert slopes == sorted(slopes, reverse=True)
            assert slopes == [radius not in seen for radius, *_ in points]
            seen.update(radius for radius, *_ in points)
        assert seen == set(radii)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_p2_cold_solve_cost(self, n, monkeypatch):
        # the cold start a = 1 is the root, and the first F's slope steers
        # across it: 2, 1, 3 F at (3, r) for r = 0.1, 0.5, 0.9, 2, 2, 3 at
        # n = 4 and 2, 2, 3 at n = 5 (3, 1, 4, 3, 3, 4, 3, 3, 6 when cold
        # solves stepped out unsteered)
        calls = count_f_evals(monkeypatch)
        for r, most in ((0.1, 2), (0.5, 2), (0.9, 3)):
            solver._g_p_numeric.cache_clear()
            calls.clear()
            g_p(BallContext(n, 2.0), r)
            assert len(calls) <= most, r

    def test_cold_g_p_cost_is_pinned(self, monkeypatch):
        # 372 F over these 60 cold g_p (371 with the kernel on 1 + r^2 - 2 r t
        # and nodes from cos and sin, 415 when only guessed solves steered);
        # a change of the solve that moves this count moves the cost of every
        # one-point call
        calls = count_f_evals(monkeypatch)
        for n in (3, 4, 5):
            for p in (1.1, 1.5, 2.0, 3.0, 10.0):
                for r in (0.05, 0.3, 0.6, 0.9):
                    solver._g_p_numeric.cache_clear()
                    g_p(BallContext(n, p), r)
        assert len(calls) == 372, f"{len(calls)} F, numpy's AVX512 targets {avx512_targets()}"

    @pytest.mark.parametrize("n, p, r, evals", [(4, 3.0, 0.5, 8), (5, 1.5, 0.9, 14), (3, 2.0, 0.5, 2),
                                                (10, 20.0, 0.9, 7)])
    def test_lone_path_passes_are_pinned(self, n, p, r, evals, monkeypatch):
        # a cold g_p is one F pass and one site build per F, then one G pass,
        # refined but at p = 2, on the site of its last F, still cached: a
        # driver that adds a pass or builds a site again shows here
        calls, built, g_passes = count_f_evals(monkeypatch), count_site_builds(monkeypatch), []
        real = solver._phi_and_refined
        monkeypatch.setattr(solver, "_phi_and_refined", lambda n_, order, points, refine: g_passes.append(
            (len(points), refine)) or real(n_, order, points, refine))
        quadrature._site.cache_clear()
        solver._g_p_numeric.cache_clear()
        g_p(BallContext(n, p), r)
        dispatch = f"numpy's AVX512 targets {avx512_targets()}"
        assert (len(calls), f_passes(calls)) == (evals, evals), dispatch
        assert g_passes == [(1, p != 2.0)], dispatch
        assert len(built) == evals, dispatch


GRID_PS = (1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0)
GRID_RADII = (0.01, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


class TestDomainGrid:
    """The (n, p, r) grid of n in {3, 4, 5, 10, 30, 100}, p in GRID_PS and r
    in GRID_RADII: every point answers within its error estimate of order
    2048, or refuses with DomainError (F or Phi leaves double range, as at
    p = 1.01 for most r).  An absolute bracket margin once refused 85 of its
    336 points with "no sign change"."""

    @pytest.mark.parametrize("p", GRID_PS)
    @pytest.mark.parametrize("n", (3, 4, 5, 10, 30, 100))
    def test_answers_within_est_error_or_refuses(self, n, p):
        ctx = BallContext(n, p)
        for r in GRID_RADII:
            try:
                res = g_p(ctx, r)
            except DomainError as exc:
                assert "non-finite" in str(exc), (n, p, r)
                continue
            ref = g_p(ctx, r, 2048)
            assert abs(res.g_value - ref.g_value) <= max(10.0 * res.est_error, 1e-13 * res.g_value), (
                n, p, r)

    def test_most_points_answer(self):
        answered = 0
        for n in (3, 4, 5, 10, 30, 100):
            for p in GRID_PS:
                for r in GRID_RADII:
                    try:
                        g_p(BallContext(n, p), r)
                        answered += 1
                    except DomainError:
                        pass
        assert answered >= 280

    # Known defect, ROADMAP open items 1 and 21: G_p >= G_inf at every p,
    # but at r = 0.99 and large p these answers lie below G_inf (1.0 to 13
    # digits) by more than their est_error: G 0.254, 0.244, 0.00126 and
    # 0.00111 with est_error 0.655, 0.629, 0.433 and 0.381, the only such
    # points of a scan of n in {3, 4, 5, 10, 30}, p from 1.01 to 1e5 and r
    # from 0.01 to 0.999.  Strict: passes once the pole side is resolved.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="pole-side kernel peak, ROADMAP open items 1 and 21")
    @pytest.mark.parametrize("n, p", [(10, 1000.0), (10, 1e5), (30, 1000.0), (30, 1e5)])
    def test_large_p_answers_reach_g_inf(self, n, p):
        res = g_p(BallContext(n, p), 0.99)
        assert res.g_value + res.est_error >= g_inf_closed(n, 0.99)[1]

    def test_lean_layout_against_the_full_one(self, monkeypatch):
        # The shift's own sites have the lean layout (20 panels a side, 10
        # nodes on an inner one).  Patched to the full 27 x 12, every point
        # answers or refuses as before; G moves by less than the sum of the
        # two est_errors (3.1% of it), by at most 5e-15 of G where the full
        # est_error is below 1e-13 G (7.4e-16), and log a* by at most 1e-10
        # (2.4e-11)
        def grid():
            solver._g_p_numeric.cache_clear()
            quadrature._site.cache_clear()
            results = {}
            for n in (3, 4, 5, 10, 30, 100):
                for p in GRID_PS:
                    for r in GRID_RADII:
                        try:
                            results[n, p, r] = g_p(BallContext(n, p), r)
                        except DomainError as exc:
                            results[n, p, r] = str(exc)
            return results

        lean = grid()
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "_LEAN_PANELS", quadrature._PANELS)
            patch.setattr(quadrature, "_LEAN_NODES", quadrature._PANEL_NODES)
            full = grid()
        solver._g_p_numeric.cache_clear()
        quadrature._site.cache_clear()
        answered = 0
        for key, res in lean.items():
            ref = full[key]
            if isinstance(res, str) or isinstance(ref, str):
                assert res == ref, key
                continue
            answered += 1
            gap = abs(res.g_value - ref.g_value)
            assert gap <= res.est_error + ref.est_error, key
            if ref.est_error < 1e-13 * ref.g_value:
                assert gap <= 5e-15 * ref.g_value, key
            assert abs(res.log_a_star - ref.log_a_star) <= 1e-10, key
        assert answered >= 280

    def test_largest_n_keeps_the_full_layout(self):
        # J(2^25 + 3) = 22 outer panels, more than the lean layout's 20: the
        # shift's sites keep the full one.  A lean layout of 20 outer panels,
        # none inner, read 1.0477332373960323e-05 here, 5.2e-10 off and 4
        # times its est_error.  Before every solve steered its first step by
        # its slope this read 1.047733236854567e-05, 2.1e-15 away, within the
        # est_errors 3.3e-15 and 1.3e-15; with the kernel on 1 + r^2 - 2 r t
        # and nodes from cos and sin, 1.0477332366458804e-05, 1.1e-19 away
        solver._g_p_numeric.cache_clear()
        assert g_p(BallContext(2 ** 25 + 3, 3.0), 1e-9).g_value == 1.0477332366458916e-05

    def test_underflowing_g_is_refused(self):
        # G_p(r) > 0 at r > 0, but Phi(a*) underflowed to 0 at these points,
        # with est_error 0 (or G_2 at p = 2): a silently wrong answer
        for n, p, r in ((300, 1.9, 0.8), (1000, 1.9, 0.3), (1000, 2.1, 0.3), (300, 2.0, 0.8), (1000, 2.0, 0.3)):
            with pytest.raises(DomainError, match=rf"underflows to 0 at n={n}, p={p}, r={r}$"):
                g_p(BallContext(n, p), r)
        # in a sweep the G pass of the held r = 0.8 refuses first, as it precedes r = 0.9 in sweep order
        with pytest.raises(DomainError, match=r"underflows to 0 at n=300, p=2.0, r=0.8$"):
            g_p_curve(BallContext(300, 2.0), [float(r) for r in np.linspace(0.1, 0.9, 9)])

    @pytest.mark.parametrize("p", (1.01, 1.1, 2.0, 3.0, 10.0))
    @pytest.mark.parametrize("n", (3, 5, 10))
    def test_small_radius_slope_is_the_gradient_constant(self, n, p):
        # G_p(r) = C_p r (1 + O(r^2)).  K - a cancelled here: at (3, 3) G was
        # 7e-5 off C_p r at r = 1e-12, twice it at 1e-15 and refused at 1e-18.
        # At the subnormal r = 1e-310 Phi's scale 1/max|d| overflowed.  Below
        # it the solve's tolerance 2^-44 2l underflowed to 0 (no root resolved
        # at (3, 3, 1e-315)), and est_error read 0 where G is an ulp coarse
        ctx = BallContext(n, p)
        c_p = grad_constant(ctx)
        for r in (1e-8, 1e-12, 1e-15, 1e-50, 1e-300, 1e-310, 1e-315, 1e-320, 5e-324):
            res = g_p(ctx, r)
            assert res.est_error >= math.ulp(res.g_value), (n, p, r)
            assert abs(res.g_value - c_p * r) <= max(10.0 * res.est_error, 1e-14 * res.g_value), (
                n, p, r)

    def test_subnormal_radii_answer_within_est_error(self):
        # below the smallest normal double r^2 is 0 and G = C_p r; n - 1
        # subnormal spacings of log K are the error floor (est_error 99 ulps
        # at (100, 3, 5e-324))
        for n in (3, 5, 10, 100):
            for p in (1.1, 3.0, 10.0, 1e6):
                ctx = BallContext(n, p)
                c_p = grad_constant(ctx)
                for r in (1e-308, 1e-310, 1e-315, 1e-320, 5e-324):
                    res = g_p(ctx, r)
                    assert res.est_error >= math.ulp(res.g_value), (n, p, r)
                    assert abs(res.g_value - c_p * r) <= max(10.0 * res.est_error, math.ulp(res.g_value)), (
                        n, p, r)

    def test_subnormal_radii_within_an_ulp_of_the_slope(self):
        # solved on log K at subnormal r, G was more than an ulp off C_p r at
        # 18 of these points (13 ulps at (100, 3, 5e-324)), then at 2 (154
        # ulps at (100, 1.01, 1e-315)); the linear regime gives C_p r itself
        for n in (3, 5, 10, 100):
            for p in (1.01, 1.1, 2.0, 3.0, 10.0, 1e6):
                ctx = BallContext(n, p)
                c_p = grad_constant(ctx)
                for r in (1e-315, 1e-320, 5e-324):
                    res = g_p(ctx, r)
                    assert (res.method, res.g_value) == ("linear", c_p * r), (n, p, r)
                    assert res.est_error >= math.ulp(res.g_value), (n, p, r)


class TestLinearRegime:
    """Below objective._R_LIN = 2^-60 a finite-p GpResult is G = C_p r, a* = 1,
    tagged "linear"."""

    def test_error_bound_holds_against_mpmath(self):
        # est_error covers |G - C_p r| with 50-digit C_p, q the context's own
        # double; the worst point, (5, 1e15, 1e-300), uses 0.55 of it
        from mpmath import mp

        worst = 0.0
        with mp.workdps(50):
            for n in (3, 4, 5, 10, 30, 100, 300, 1000, 3000, 10000):
                for p in (1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0, 1e6, 1e15):
                    ctx = BallContext(n, p)
                    q, half = mp.mpf(ctx.q), mp.mpf(n) / 2
                    alpha = mp.gamma(half) * mp.gamma((1 + q) / 2) / (mp.sqrt(mp.pi) * mp.gamma(half + q / 2))
                    c_p = 2 * (n - 1) * alpha ** (1 / q)
                    for r in (2.0 ** -61, 1e-30, 1e-300, 1e-310, 5e-324):
                        res = g_p(ctx, r)
                        assert (res.method, res.a_star, res.log_a_star) == ("linear", 1.0, 0.0), (n, p, r)
                        error = abs(mp.mpf(res.g_value) - c_p * mp.mpf(r))
                        assert error <= res.est_error, (n, p, r)
                        worst = max(worst, float(error / mp.mpf(res.est_error)))
        assert worst > 0.1, worst

    @pytest.mark.parametrize("p", (1.01, 2.0, 3.0, 1e6))
    def test_threshold(self, p):
        ctx = BallContext(4, p)
        below, at = math.nextafter(2.0 ** -60, 0.0), 2.0 ** -60
        assert [row.method for row in g_p_curve(ctx, [below, at, 0.0])] == ["linear", "numeric", "linear"]
        assert g_p(ctx, below).g_value == grad_constant(ctx) * below
        assert g_p(ctx, 0.0) == GpResult(ctx, 0.0, 1.0, 0.0, "linear", 0.0, 0.0)
        assert solve_a_star(ctx, below) == 1.0 and solve_from(ctx, below, 128, None, 0.0) == (0.0, 0.0)
        # the numeric row at 2^-60 is C_p r within its own est_error
        res = g_p(ctx, at)
        assert abs(res.g_value - grad_constant(ctx) * at) <= res.est_error + 1e-14 * res.g_value


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
                    assert res.a_star == pytest.approx(point.a_star, rel=1e-12, abs=0), (n, p, r)
                    assert abs(res.g_value - point.g_value) <= (
                        point.est_error + 1e-13 * point.g_value), (n, p, r)

    def test_cost_per_radius(self, monkeypatch):
        # cold solves take 6.4 to 9.8 F per radius on these sweeps, and warm
        # ones took 5.0 to 5.7 with a quadratic guess and no Newton step; the
        # solves in lockstep take 3.4 to 3.8 F in 0.62 to 0.69 passes
        calls = count_f_evals(monkeypatch)
        radii = [float(r) for r in np.linspace(0.01, 0.95, 100)]
        for n, p in ((4, 3.0), (5, 20.0), (3, 1.1)):
            calls.clear()
            g_p_curve(BallContext(n, p), radii)
            assert len(calls) / len(radii) <= 4.0, (n, p)
            assert f_passes(calls) / len(radii) <= 0.75, (n, p)

    def test_sweep_cost_is_pinned(self, monkeypatch):
        # F evaluations and F passes of four 100-radius sweeps, exactly: a
        # change to the opening policy that keeps every root's bits can still
        # move when radii open, and so these counts (with the kernel on
        # 1 + r^2 - 2 r t and nodes from cos and sin: 337 in 61, 369 in 67, 367
        # in 64 and 514 in 215)
        calls = count_f_evals(monkeypatch)
        up = [float(r) for r in np.linspace(0.01, 0.95, 100)]
        down = [float(r) for r in np.linspace(0.99, 0.01, 100)]
        for (n, p), radii, pinned in (((4, 3.0), up, (342, 61)), ((5, 20.0), up, (363, 66)),
                                      ((3, 1.1), up, (363, 63)), ((10, 1.1), down, (500, 206))):
            calls.clear()
            g_p_curve(BallContext(n, p), radii)
            assert (len(calls), f_passes(calls)) == pinned, (n, p, f"numpy's AVX512 targets {avx512_targets()}")

    def test_steep_sweeps(self, monkeypatch):
        # log a* falls steeply with r at p near 1: with no cap on the step of a
        # trusted Newton point, one far from the root misguided the radii
        # opened from it (17 F per radius at (10, 1.1)).  Solved one after
        # another these sweeps took at most 4.96 F per radius
        calls = count_f_evals(monkeypatch)
        down = [float(r) for r in np.linspace(0.99, 0.01, 100)]
        sweeps = [((n, p), down) for n, p in ((3, 1.1), (5, 1.1), (10, 1.1), (10, 1.5))] + [
            ((100, 1.1), [float(r) for r in np.linspace(0.4, 0.01, 100)]),
            ((100, 1.1), [float(r) for r in np.geomspace(1e-6, 0.4, 100)]),
            ((10, 1.1), [float(r) for r in np.geomspace(1e-6, 0.99, 100)])]
        for (n, p), radii in sweeps:
            ctx = BallContext(n, p)
            calls.clear()
            curve = g_p_curve(ctx, radii)
            assert len(calls) / len(radii) <= 5.5, (n, p, radii[0])
            rising = sorted(curve, key=lambda row: row.r)
            assert all(b.g_value > a.g_value for a, b in zip(rising, rising[1:])), (n, p, radii[0])
            for row in curve:
                try:
                    point = g_p(ctx, row.r)
                except DomainError:
                    continue
                assert abs(row.g_value - point.g_value) <= point.est_error + 1e-13 * point.g_value, (n, p, row.r)

    def test_unusable_slope_falls_back_to_the_outward_step(self, monkeypatch):
        # a slope that is non-finite, zero or of the wrong sign only costs
        # steps: the bracket, and so the root, still comes from F alone
        ctx, r = BallContext(4, 3.0), 0.5
        a_star = solve_a_star(ctx, r)
        real = solver._f_and_slope
        for bad in (math.nan, math.inf, -math.inf, 0.0, 1.0):
            monkeypatch.setattr(solver, "_f_and_slope",
                                lambda *args: [(f, bad) for f, _ in real(*args)])
            for guess in (a_star * 0.99, a_star * 1.01):
                assert guessed(ctx, r, guess) == pytest.approx(a_star, rel=1e-12, abs=0)

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
                    assert res.a_star == pytest.approx(point.a_star, rel=1e-12, abs=0), (p, radii, r)
                    assert res.g_value == pytest.approx(point.g_value, rel=1e-12, abs=1e-300)
        assert g_p_curve(BallContext(4, 3.0), [0.4]) == [g_p(BallContext(4, 3.0), 0.4)]
        assert g_p_curve(BallContext(4, 3.0), []) == []

    def test_sweep_answers_where_the_point_refuses(self):
        # at q = 101, F = a^100 integral sign(d) |d|^100 overflows a step away
        # from a* (a* = 746 here); the warm solve stays near a*, where F and
        # Phi are finite, and its bracket is sign-checked at interior points
        ctx = BallContext(3, 1.01)
        radii = [float(r) for r in np.linspace(0.9, 0.959, 8)]
        with pytest.raises(DomainError, match="non-finite"):
            g_p(ctx, 0.959)
        curve = g_p_curve(ctx, radii)
        values = [res.g_value for res in curve]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert g_inf_closed(3, 0.959)[1] <= values[-1] <= g_1_closed(3, 0.959)[1]
        assert math.isfinite(values[-1]) and curve[-1].est_error <= 1e-10 * values[-1]
        assert values[0] == g_p(ctx, 0.9).g_value

    def test_tiny_close_radii_solve_cold_from_a_nan_guess(self):
        # the divided differences of log a* overflow at tiny, close radii, and
        # inf - inf made the guess NaN: F(NaN) was refused as non-finite, for
        # every geometric sweep from 1e-100 or below and for the linspace to
        # 1e-300 (the CLI's `gp --r-min 0 --r-max 1e-300 --steps 100`)
        linspace = [float(r) for r in np.linspace(0.0, 1e-300, 100)]
        for n, p in ((3, 3.0), (4, 1.5), (5, 10.0), (10, 20.0)):
            ctx = BallContext(n, p)
            sweeps = [[float(r) for r in np.geomspace(lo, 0.9, 40)] for lo in (5e-324, 1e-300, 1e-200, 1e-100)]
            for radii in sweeps + [linspace]:
                curve = g_p_curve(ctx, radii)
                assert [row.r for row in curve] == radii
                tol = max(row.est_error for row in curve)
                for row in curve:
                    assert abs(row.g_value - g_p(ctx, row.r).g_value) <= tol, (n, p, radii[0], row.r)


def phi_at(ctx, r, order, s):
    """Phi(e^s) at (ctx, r, order) from a pass on its own site alone, unchecked."""
    return _phi_and_refined(ctx.n, order, [(r, s, ctx.q)], False)[0][0]


class TestCurvesInLockstep:
    """Several curves of one n in one lockstep (``solver._g_p_curves``): one
    F pass a round for every open solve of every curve."""

    @staticmethod
    def key(result):
        return result.ctx, *(float(v).hex() for v in (result.r, result.a_star, result.g_value, result.est_error,
                                                       result.log_a_star)), result.method

    def test_each_curve_is_its_own_sweep(self, monkeypatch):
        # rows and F count of each curve are those of g_p_curve on it alone,
        # with repeats, reversed and empty curves and p = 2 among them
        calls = count_f_evals(monkeypatch)
        down = [float(r) for r in np.linspace(0.9, 0.0, 15)]
        curves = [(BallContext(4, 1.5), [float(r) for r in np.linspace(0.01, 0.95, 30)]),
                  (BallContext(4, 2.0), [0.5, 0.2, 0.5, 0.8]), (BallContext(4, 3.0), []),
                  (BallContext(4, 10.0), down + down[:3]), (BallContext(4, 1.1), [0.7])]
        alone, counts = [], []
        for ctx, radii in curves:
            calls.clear()
            alone.append(g_p_curve(ctx, radii))
            counts.append(len(calls))
        calls.clear()
        together = solver._g_p_curves(4, curves, 128)
        assert len(calls) == sum(counts) and f_passes(calls) < sum(counts)
        assert together[2] == [] and [len(rows) for rows in together] == [len(radii) for _, radii in curves]
        for rows, own in zip(together, alone):
            assert [self.key(row) for row in rows] == [self.key(row) for row in own]

    def test_empty_curves(self):
        ctx = BallContext(4, 3.0)
        assert solver._g_p_curves(4, [], 128) == []
        assert solver._g_p_curves(4, [(ctx, [])], 128) == [[]]
        assert solver._g_p_curves(4, [(ctx, []), (ctx, [0.5]), (ctx, [])], 128)[::2] == [[], []]

    def test_refusal_is_the_first_of_sequential_curves(self):
        # at (40, 3) r = 0.9999 is solved but its G refuses; r = 1.5 and 1.0
        # fail their radius checks; the curves before a refusing one must be
        # through before it is raised, and a later curve's refusal, found
        # first, never replaces it
        answering = (BallContext(40, 3.0), [0.5, 0.9])
        g_refused = (BallContext(40, 3.0), [0.9, 0.9999, 0.5])
        checked = (BallContext(40, 1.5), [0.5, 0.8, 1.5])
        late = (BallContext(40, 5.0), [float(r) for r in np.linspace(0.1, 0.9, 30)] + [1.0])
        for curves in ([answering, g_refused, checked], [answering, checked, g_refused], [late, g_refused],
                       [g_refused, late], [answering, late, checked], [checked, answering]):
            with pytest.raises(DomainError) as sequential:
                for ctx, radii in curves:
                    g_p_curve(ctx, radii)
            with pytest.raises(DomainError) as together:
                solver._g_p_curves(40, curves, 128)
            assert str(together.value) == str(sequential.value)
        # every curve answers: the sequential rows
        assert [len(rows) for rows in solver._g_p_curves(40, [answering, answering], 128)] == [2, 2]


class TestStackedGPass:
    """A sweep sums G and est_error in one stacked site pass per chunk of
    solver._CHUNK radii; every row keeps the bits of its own Phi calls."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 20.0, 1000.0])
    def test_rows_are_the_bits_of_their_own_phi_calls(self, p):
        # n = 100 takes J(100) = 3 outer panels; r = 0 sits inside the first
        # chunk of the 100-radius sweeps, and a repeated radius reuses its row
        chunk = solver._CHUNK
        for n in (3, 4, 5, 30, 100):
            top = 0.85 if n < 100 else 0.4  # (100, 1.1) refuses from r = 0.45 on
            span = [float(r) for r in np.linspace(0.05, top, chunk + 1)]
            hundred = [float(r) for r in np.linspace(0.0, top, 100)]
            repeated = [0.2 * top, 0.6 * top, 0.2 * top, 0.0, 0.6 * top, 0.45 * top]
            sweeps = [([0.5 * top], 128), (span[:chunk], 128), (span, 128), (span, 64), (hundred, 128),
                      (hundred[::-1], 128), (repeated, 128)]
            ctx = BallContext(n, p)
            for radii, order in sweeps:
                curve = g_p_curve(ctx, radii, order)
                assert [row.r for row in curve] == radii
                for row in curve:
                    assert row.method == ("linear" if row.r == 0.0 else "numeric"), (n, p, row.r)
                    assert row.a_star == math.exp(row.log_a_star)
                    if row.r == 0.0:
                        assert (row.a_star, row.g_value, row.est_error, row.log_a_star) == (1.0, 0.0, 0.0, 0.0)
                        continue
                    s = row.log_a_star
                    g_val = phi_at(ctx, row.r, order, s)
                    other = g_2_closed(n, row.r) if p == 2.0 else phi_at(ctx, row.r, 2 * max(order, 96), s)
                    est = max(abs(g_val - other), _ROUNDING_FLOOR * g_val)
                    assert row.g_value.hex() == g_val.hex(), (n, p, order, row.r)
                    assert row.est_error.hex() == est.hex(), (n, p, order, row.r)

    def test_refusals_come_in_sweep_order(self, monkeypatch):
        # at (40, 3) r = 0.9999 is solved but its G refuses; a later radius
        # refused in its solve is raised only where no held radius before it
        # refuses: the sweep raises its first refusal, as a G pass right after
        # each solve would
        ctx = BallContext(40, 3.0)
        with quadrature._overflow_guard():
            assert len(list(solver._lockstep(40, [(ctx, [0.9, 0.9999])], 128))) == 2
        with pytest.raises(DomainError, match="non-finite"):
            g_p_curve(ctx, [0.9, 0.9999, 1.0])
        with pytest.raises(DomainError, match=r"radius must lie in \[0, 1\), got 1.0"):
            g_p_curve(ctx, [0.9, 0.99, 1.0])
        real = solver._steps

        def stopped(ctx_, r, *args):
            if r == 0.99995:
                raise NonConvergenceError("no root resolved (stub)")
            return real(ctx_, r, *args)

        monkeypatch.setattr(solver, "_steps", stopped)
        chunk = solver._CHUNK
        for before in ([0.9], [float(r) for r in np.linspace(0.5, 0.9, chunk - 1)]):
            with pytest.raises(DomainError, match="non-finite"):
                g_p_curve(ctx, before + [0.9999, 0.99995])
            with pytest.raises(NonConvergenceError, match="stub"):
                g_p_curve(ctx, before + [0.99995, 0.9999])

    def test_one_reference_node_build_per_chunk(self, monkeypatch):
        # the G pass builds each chunk's sites in one node pass and est_error's
        # outer nodes once for each chunk's stack; the last chunk, of one
        # radius, sums on its lone site
        chunk = solver._CHUNK
        radii = [float(r) for r in np.linspace(0.05, 0.9, 2 * chunk + 1)]
        outer, passes, built = [], [], count_site_builds(monkeypatch)
        real_outer, real_new = quadrature._outer_nodes, objective._new_sites
        monkeypatch.setattr(quadrature, "_outer_nodes",  # one theta0 per row of the node set
                            lambda n, order, nodes: outer.append((order, np.size(nodes[4]))) or real_outer(n, order, nodes))
        monkeypatch.setattr(objective, "_new_sites",  # the radii of each node pass
                            lambda n, order, rows, *args: passes.append(len(rows)) or real_new(n, order, rows, *args))
        for p in (3.0, 2.0):
            ctx = BallContext(4, p)
            quadrature._site.cache_clear()
            with quadrature._overflow_guard():
                list(solver._lockstep(4, [(ctx, radii)], 128))
            solves, solve_passes = len(built), sorted(passes)
            outer.clear()
            passes.clear()
            quadrature._site.cache_clear()
            g_p_curve(ctx, radii)
            assert sorted(passes) == sorted(solve_passes + [chunk, chunk]), p
            # the last radius's lone site is a hit: its solve's last F was the sweep's last
            assert len(built) == 2 * solves + 2 * chunk, p
            built.clear()
            passes.clear()
            sizes = [rows for _, rows in outer]
            # p = 2: est_error is the gap to the closed form, with no reference pass
            assert sizes == ([chunk, chunk, 1] if p == 3.0 else []), p
            assert all(order == 256 for order, _ in outer)


class TestClosedForms:
    def test_p1_reference_point(self):
        a_star, g1 = g_1_closed(3, 0.5)
        assert a_star == pytest.approx(41.0 / 9.0, rel=1e-14, abs=0)
        assert g1 == pytest.approx(40.0 / 9.0, rel=1e-14, abs=0)

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
        assert g_2_closed(3, 0.5) == pytest.approx(1.539600717839002, rel=1e-13, abs=0)
        assert g_2_closed(3, 0.0) == 0.0

    def test_pinf_matches_elementary_forms(self):
        for n in (3, 4, 5):
            for r in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                _, g_val = g_inf_closed(n, r)
                assert g_val == pytest.approx(uh_elementary(n, r), abs=1e-10)

    def test_pinf_near_boundary(self):
        for n in (3, 4, 5):
            _, g_val = g_inf_closed(n, 0.999)
            assert g_val == pytest.approx(uh_elementary(n, 0.999), rel=5e-10, abs=0)
            assert g_val < 1.0

    # Known defect, ROADMAP open item 9: G_inf is a difference of harmonic
    # measures, below 1, but the rounding of exp of its prefactor's log-gamma
    # sum reads 1.0000000000000144 at (30, 0.999) and 1.0000000000000073 at
    # (64, 0.99).  Strict: passes once the sum keeps its digits.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="log-gamma rounding at large n, ROADMAP open item 9")
    @pytest.mark.parametrize("n, r", ((30, 0.999), (64, 0.99)))
    def test_pinf_below_one_at_large_n(self, n, r):
        assert g_inf_closed(n, r)[1] < 1.0

    def test_pinf_reference_points(self):
        assert uh_elementary(4, 0.5) == pytest.approx(0.8959119613381721, rel=1e-15, abs=0)
        assert uh_elementary(5, 0.5) == pytest.approx(0.944, rel=1e-15, abs=0)
        _, g3 = g_inf_closed(3, 0.5)
        assert g3 == pytest.approx(0.8, rel=1e-14, abs=0)

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
        assert a_star == pytest.approx(float(poisson_szego_axis(ctx, r, 0.0)), rel=1e-14, abs=0)

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

    def test_order_checked_at_every_p(self):
        # the closed forms and a solve at r = 0 answered any order
        for call in (lambda: g_p(BallContext(4, math.inf), 0.5, order=1),
                     lambda: g_p_curve(BallContext(4, 1.0), [0.5], order=1),
                     lambda: solve_a_star(BallContext(4, 3.0), 0.0, order=1)):
            with pytest.raises(DomainError, match="rule order must be an integer >= 2"):
                call()

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
            GpResult(ctx, 0.5, 1.0, 1.0, "magic", 0.0, 0.0)
        with pytest.raises(DomainError):
            GpResult(ctx, 0.5, 0.0, 1.0, "numeric", 0.0, 0.0)
        with pytest.raises(DomainError):
            GpResult(ctx, 0.5, 1.0, -1.0, "numeric", 0.0, 0.0)
        # NaN fails every comparison: `< 0` let it through, and a certificate
        # then read rel_gap NaN, or 0 violations against an infinite bound
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="need a finite G and est_error >= 0"):
                GpResult(ctx, 0.5, 1.0, bad, "numeric", 0.0, 0.0)
            with pytest.raises(DomainError, match="need a finite G and est_error >= 0"):
                GpResult(ctx, 0.5, 1.0, 1.0, "numeric", bad, 0.0)


class TestOneBuilder:
    """g_p is g_p_curve at one radius, memoized: every GpResult is built there."""

    @pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0, math.inf))
    def test_point_is_the_one_radius_curve(self, p):
        ctx = BallContext(4, p)
        for order in (64, 128):
            for r in (0.0, 1e-300, 0.5, 0.99):
                solver._g_p_numeric.cache_clear()
                point, row = g_p(ctx, r, order), g_p_curve(ctx, [r], order)[0]
                assert point == row, (p, order, r)  # field for field
                if 1.0 < p < math.inf:  # the solve of a one-radius sweep is solve_a_star's
                    assert solve_a_star(ctx, r, order) == point.a_star, (p, order, r)

    def test_repeated_calls_return_the_memoized_result(self):
        # closed forms too: they were rebuilt on every call
        for p in (1.0, 1.5, 2.0, math.inf):
            ctx = BallContext(4, p)
            assert g_p(ctx, 0.5) is g_p(ctx, 0.5), p

    def test_cache_clear_empties_the_memo(self):
        ctx = BallContext(4, math.inf)
        first = g_p(ctx, 0.5)
        assert solver._g_p_numeric.cache_info().currsize > 0
        solver._g_p_numeric.cache_clear()
        assert solver._g_p_numeric.cache_info().currsize == 0
        again = g_p(ctx, 0.5)
        assert again is not first and again == first

    @pytest.mark.parametrize("p", (1.0, 3.0, math.inf))
    def test_refusals_are_unchanged(self, p):
        ctx = BallContext(4, p)
        with pytest.raises(DomainError, match=r"^rule order must be an integer >= 2, got 128\.0$"):
            g_p(ctx, 0.5, 128.0)
        with pytest.raises(DomainError, match=r"^rule order must be at most 8192, got 8193$"):
            g_p(ctx, 0.5, 8193)
        with pytest.raises(DomainError, match=r"^radius must lie in \[0, 1\), got 1\.0$"):
            g_p(ctx, 1.0)
        with pytest.raises(DomainError, match=r"^rule order must be an integer >= 2, got 128\.0$"):
            g_p(ctx, -1.0, 128.0)  # the order is checked first


class TestEvenQOracle:
    """g_p against the exact moment form at even q (conftest.mp_g_even)."""

    @pytest.mark.parametrize("n, r", ((3, 0.5), (10, 0.9), (100, 0.9)))
    def test_q2_rows_are_the_closed_g2(self, n, r):
        a_star, g2 = mp_g_even(n, r, 2)
        assert a_star == 1.0 and g2 == pytest.approx(mp_g_2(n, r), rel=1e-15, abs=0)

    @pytest.mark.parametrize("r", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("q", (4, 6))
    @pytest.mark.parametrize("n", (3, 4, 10))
    def test_g_p_within_its_estimate(self, n, q, r):
        # the worst row is 7.6e-11 at (10, 4/3, 0.9), inside its est_error; at
        # (4, 6/5, 0.9) the error, 1.5e-14, is above an est_error of 1.2e-14,
        # so the gate is max(10 est_error, 1e-13 G)
        a_ref, g_ref = mp_g_even(n, r, q)
        res = g_p(BallContext(n, q / (q - 1)), r)
        assert abs(res.g_value - g_ref) <= max(10.0 * res.est_error, 1e-13 * g_ref)
        assert res.a_star == pytest.approx(a_ref, rel=1e-10, abs=0)

    # Known defect, ROADMAP open item 16: at n = 30 the default order leaves
    # G 4.6e-5 off at r = 0.9 (est_error says so).  Strict: passes once the
    # final Phi is taken at the order est_error asks for.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="order-limited G at large n, ROADMAP open item 16")
    def test_large_n_within_1e_13(self):
        g_ref = mp_g_even(30, 0.9, 4)[1]
        assert abs(g_p(BallContext(30, 4 / 3), 0.9).g_value - g_ref) <= 1e-13 * g_ref

    # ROADMAP open item 1: near the boundary the cancellation in
    # 1 + r^2 - 2 r t left G 8.1e-11 off at (3, 4/3, 0.999), where est_error
    # reads 2.8e-12 (relative); the half-angle kernel has none, and G is
    # 2.6e-12 off, the order-doubling gap est_error reports.
    def test_near_the_boundary_within_est_error(self):
        g_ref = mp_g_even(3, 0.999, 4)[1]
        res = g_p(BallContext(3, 4 / 3), 0.999)
        assert abs(res.g_value - g_ref) <= res.est_error


class TestGradConstant:
    def test_dimension_three_values(self):
        assert grad_constant(BallContext(3, 1.0)) == 4.0
        assert grad_constant(BallContext(3, 2.0)) == pytest.approx(
            4.0 / math.sqrt(3.0), rel=1e-14, abs=0
        )
        assert grad_constant(BallContext(3, math.inf)) == pytest.approx(2.0, rel=1e-14, abs=0)

    def test_p1_equals_two_n_minus_two(self):
        for n in (3, 4, 5, 7):
            assert grad_constant(BallContext(n, 1.0)) == 2.0 * (n - 1.0)

    def test_slope_at_center_matches(self):
        # the secant G_p(h)/h tends to C_p as h -> 0
        h = 1e-4
        for n, p in ((3, 2.0), (4, 3.0), (3, math.inf)):
            ctx = BallContext(n, p)
            assert g_p(ctx, h).g_value / h == pytest.approx(grad_constant(ctx), rel=1e-6, abs=0)

    # Known defect, ROADMAP open item 9: alpha_q is exp of a difference of
    # log-gamma values near 2,600 at n = 1000, whose ulps carry into C_p:
    # 2.9e-14, 7.9e-14, 3.6e-13 and 1.1e-13 off 40-digit mpmath (at the
    # package's own q).  Strict: passes once the Gamma ratio keeps its digits.
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="log-gamma rounding at large n, ROADMAP open item 9")
    @pytest.mark.parametrize("p", (1.1, 1.5, 3.0, 10.0))
    def test_large_n_within_1e_14_of_mpmath(self, p):
        mp = pytest.importorskip("mpmath").mp
        ctx = BallContext(1000, p)
        with mp.workdps(40):
            n, q = mp.mpf(1000), mp.mpf(ctx.q)
            alpha = mp.gamma(n / 2) * mp.gamma((1 + q) / 2) / (mp.sqrt(mp.pi) * mp.gamma((n + q) / 2))
            ref = float(2 * (n - 1) * alpha ** (1 / q))
        assert grad_constant(ctx) == pytest.approx(ref, rel=1e-14, abs=0)
