import math

import numpy as np
import pytest

from hypschwarz.errors import DomainError
from hypschwarz.kernel import BallContext, crossing_point, kernel_range
from hypschwarz.objective import ObjectiveParams, big_f, dF_da, phi
from hypschwarz.solver import g_2_closed
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
        with pytest.raises(DomainError):
            ObjectiveParams(BallContext(3, 2.0), 0.5, order=1)


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
