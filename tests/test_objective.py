import math

import numpy as np
import pytest

from hypschwarz import objective, solver
from hypschwarz.errors import BracketError, DomainError
from hypschwarz.kernel import BallContext, crossing_point, kernel_range, poisson_szego_axis
from hypschwarz.objective import _DEV_FLOOR, ObjectiveParams, _split_point, big_f, dF_da, phi
from hypschwarz.quadrature import integrate_with_breakpoint
from hypschwarz.solver import g_1_closed, g_2_closed, g_inf_closed, g_p, solve_a_star
from conftest import central_diff, mp_crossing, mp_kernel, mp_zonal


def params(n, p, r, order=128):
    return ObjectiveParams(BallContext(n, p), r, order)


class TestParams:
    def test_rejects_exponents_without_finite_q(self):
        with pytest.raises(DomainError):
            ObjectiveParams(BallContext(3, 1.0), 0.5)  # q = inf
        with pytest.raises(DomainError):
            ObjectiveParams(BallContext(3, math.inf), 0.5)  # q = 1

    def test_rejects_bad_radius_and_order(self):
        for r in (1.0, -0.1, 0.0):  # r = 0 is solved exactly before the objective
            with pytest.raises(DomainError):
                params(3, 2.0, r)
        # the rule checks the order on the first integral
        for order in (1, 2.5):
            with pytest.raises(DomainError, match="order"):
                big_f(ObjectiveParams(BallContext(3, 2.0), 0.5, order=order), 1.0)


class TestPhi:
    def test_q2_decomposition(self):
        # integral (K - a)^2 = (second moment - 1) + (1 - a)^2
        for n, r in ((3, 0.5), (4, 0.3), (5, 0.7)):
            prm = params(n, 2.0, r, order=256)
            g2 = g_2_closed(n, r)
            for a in (0.5, 1.0, 1.7):
                expected = math.sqrt(g2 * g2 + (1.0 - a) ** 2)
                assert phi(prm, a) == pytest.approx(expected, rel=1e-10)

    def test_frozen_cubic_value(self):
        prm = params(3, 1.5, 0.5)  # q = 3
        value = phi(prm, 2.0)
        assert value == pytest.approx(2.108287782758039, rel=1e-9)
        assert value ** 3 == pytest.approx(9.371080665415818, rel=1e-9)

    def test_convex_in_shift(self):
        prm = params(3, 3.0, 0.6)
        grid = np.linspace(0.3, 2.5, 23)
        values = [phi(prm, float(a)) for a in grid]
        second = np.diff(values, 2)
        assert np.all(second > 0.0)

    def test_scaled_deviation_matches_unscaled(self):
        for n, p, r, a in ((3, 1.5, 0.5, 2.0), (4, 3.0, 0.5, 0.5), (5, 1.1, 0.3, 1.2),
                           (10, 2.0, 0.8, 3.0), (3, 10.0, 0.9, 0.1)):
            prm = params(n, p, r)
            ctx, q = prm.ctx, prm.ctx.q
            unscaled = integrate_with_breakpoint(
                n, 128, lambda t: np.abs(poisson_szego_axis(ctx, r, t) - a) ** q,
                crossing_point(ctx, r, a),
            ) ** (1.0 / q)
            assert phi(prm, a) == pytest.approx(unscaled, rel=1e-14)

    def test_finite_where_unscaled_power_overflows(self):
        # |K - a*|^11 overflows near K = 5e29; the scaled integrand does not
        ctx, r = BallContext(10, 1.1), 0.999
        res = g_p(ctx, r)
        assert math.isfinite(res.g_value) and math.isfinite(res.est_error)
        assert g_inf_closed(10, r)[1] <= res.g_value <= g_1_closed(10, r)[1]
        prm = ObjectiveParams(ctx, r)
        at_min = phi(prm, res.a_star)
        # Phi rises by 2.4e-7 relative at a 1% shift; at a 1e-6 shift its rise
        # is below the quadrature noise that est_error (1.3e-8 G) reports
        for shift in (0.99, 1.01):
            assert phi(prm, res.a_star * shift) > at_min
        for shift in (1.0 - 1e-6, 1.0 + 1e-6):
            assert phi(prm, res.a_star * shift) >= at_min - res.est_error

    def test_collapsed_kernel_range(self):
        # at r = 1e-17 the kernel range rounds to [1, 1]: no scale, no warning
        assert phi(params(3, 3.0, 1e-17), 1.0) == 0.0

    def test_rejects_nonfinite_shift(self):
        prm = params(3, 2.0, 0.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                phi(prm, bad)


class TestBigF:
    def test_q2_is_linear(self):
        prm = params(4, 2.0, 0.6, order=256)
        for a in (0.2, 1.0, 3.5):
            assert big_f(prm, a) == pytest.approx(1.0 - a, abs=1e-10)

    def test_sign_outside_kernel_range(self):
        ctx = BallContext(3, 1.5)
        prm = ObjectiveParams(ctx, 0.5)
        lo, hi = kernel_range(ctx, 0.5)
        assert big_f(prm, lo / 2.0) > 0.0
        assert big_f(prm, hi * 2.0) < 0.0

    def test_decreasing_in_shift(self):
        prm = params(5, 3.0, 0.4)
        grid = np.linspace(0.5, 2.0, 16)
        values = [big_f(prm, float(a)) for a in grid]
        assert np.all(np.diff(values) < 0.0)

    def test_fractional_power_against_mpmath(self):
        pytest.importorskip("mpmath")
        n, r, a = 3, 0.5, 2.0
        prm = params(n, 3.0, r)  # q = 1.5
        split = mp_crossing(n, r, a)

        def f_mp(t):
            dev = mp_kernel(n, r, t) - a
            mag = abs(dev)
            return (1 if dev >= 0 else -1) * mag ** 0.5

        ref = mp_zonal(n, f_mp, split=[split])
        assert big_f(prm, a) == pytest.approx(ref, rel=1e-8)


class TestDfDa:
    def test_q2_is_constant(self):
        prm = params(3, 2.0, 0.5)
        for a in (0.3, 1.0, 2.0):
            assert dF_da(prm, a) == pytest.approx(-1.0, abs=1e-10)

    def test_always_negative(self):
        for p in (1.5, 2.0, 3.0, 5.0):
            prm = params(4, p, 0.6)
            for a in (0.5, 1.0, 1.8):
                assert dF_da(prm, a) < 0.0

    def test_matches_finite_difference_q3(self):
        prm = params(3, 1.5, 0.5)  # q = 3
        a = 1.2
        fd = central_diff(lambda x: big_f(prm, x), a, 1e-5)
        assert dF_da(prm, a) == pytest.approx(fd, rel=1e-7)

    def test_matches_finite_difference_fractional_q(self):
        prm = params(3, 3.0, 0.5)  # q = 1.5
        a = 0.8
        fd = central_diff(lambda x: big_f(prm, x), a, 1e-5)
        assert dF_da(prm, a) == pytest.approx(fd, rel=1e-7)


class TestStationarityIdentity:
    def test_phi_slope_from_big_f(self):
        # d(Phi)/da = -Phi^(1-q) F
        prm = params(3, 1.5, 0.5)  # q = 3
        a = 1.1
        q = prm.ctx.q
        analytic = -phi(prm, a) ** (1.0 - q) * big_f(prm, a)
        fd = central_diff(lambda x: phi(prm, x), a, 1e-5)
        assert analytic == pytest.approx(fd, rel=1e-6)

    def test_crossing_is_declared_breakpoint(self):
        ctx = BallContext(3, 1.5)
        t0 = crossing_point(ctx, 0.5, 2.0)
        assert t0 is not None and -1.0 < t0 < 1.0


def closure_integral(prm, a, weight):
    """The integral of weight(K - a) as one integrand closure: the kernel
    evaluated through its checked public form at the rule's nodes."""
    ctx, r = prm.ctx, prm.r
    return integrate_with_breakpoint(
        ctx.n, prm.order, lambda t: weight(poisson_szego_axis(ctx, r, t) - a),
        _split_point(ctx, r, a),
    )


def closure_phi(prm, a):
    q = prm.ctx.q
    kmin, kmax = kernel_range(prm.ctx, prm.r)
    s = max(kmax - a, a - kmin) or 1.0
    return s * closure_integral(prm, a, lambda dev: np.abs(dev / s) ** q) ** (1.0 / q)


def closure_big_f(prm, a):
    q = prm.ctx.q
    return closure_integral(prm, a, lambda dev: np.sign(dev) * np.abs(dev) ** (q - 1.0))


def closure_dF_da(prm, a):
    q = prm.ctx.q
    floor = _DEV_FLOOR * max(1.0, abs(a)) if q < 2.0 else 0.0
    return (1.0 - q) * closure_integral(
        prm, a, lambda dev: np.maximum(np.abs(dev), floor) ** (q - 2.0))


def outcome(fn, *args):
    """The exact bits of a float result, or the refusal's type."""
    try:
        return fn(*args).hex()
    except DomainError as exc:
        return type(exc).__name__


class TestSharedSite:
    def test_matches_closure_formulation_bit_for_bit(self):
        # F, Phi and dF/da on one shared site give the bits of one integrand
        # closure each, around a*, just inside the range and past both its ends
        for n in (3, 4, 5, 10):
            for p in (1.1, 1.5, 3.0, 10.0):
                for r in (0.05, 0.35, 0.65, 0.95):
                    prm = params(n, p, r)
                    kmin, kmax = kernel_range(prm.ctx, r)
                    try:
                        a_star = solve_a_star(prm.ctx, r)
                    except BracketError:  # n = 10, r = 0.95 at p = 3 and 10
                        a_star = 1.0
                    shifts = [a_star * f for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-9, 0.9, 1.3)]
                    shifts += [kmin / 2.0, kmin * 1.01, kmax * 0.99, kmax * 2.0]
                    for a in shifts:
                        for new, ref in ((big_f, closure_big_f), (phi, closure_phi),
                                         (dF_da, closure_dF_da)):
                            assert outcome(new, prm, a) == outcome(ref, prm, a), (n, p, r, a, new)

    def test_cold_g_p_builds_node_sets_for_its_F_and_refined_phi_only(self, monkeypatch):
        f_calls, built = [], []
        real_big_f, real_nodes = solver.big_f, objective._graded_nodes
        monkeypatch.setattr(solver, "big_f", lambda *args: f_calls.append(1) or real_big_f(*args))
        monkeypatch.setattr(objective, "_graded_nodes",
                            lambda n, order, t0: built.append(order) or real_nodes(n, order, t0))
        objective._site.cache_clear()
        solver._g_p_numeric.cache_clear()
        res = g_p(BallContext(4, 3.0), 0.5)
        # Phi at a* read the site of the solve's last F
        assert len(f_calls) == 8
        assert built == [128] * 8 + [256]
        # the order-256 Phi took the second slot: Phi, F and dF/da at a*
        # read the site of the solve's last F, building nothing
        prm = params(4, 3.0, 0.5)
        assert phi(prm, res.a_star) == res.g_value
        big_f(prm, res.a_star)
        dF_da(prm, res.a_star)
        assert built == [128] * 8 + [256]
