import math
import sys

import numpy as np
import pytest

from hypschwarz import quadrature, solver, verify
from hypschwarz.errors import DomainError
from hypschwarz.kernel import BallContext, _log_range, _split_point, kernel_range
from hypschwarz.objective import (
    _DEV_FLOOR,
    ObjectiveParams,
    _f_and_slope,
    _phi_and_refined,
    big_f,
    dF_da,
    phi,
)
from hypschwarz.quadrature import _ROUNDING_FLOOR, _checked
from hypschwarz.solver import g_1_closed, g_2_closed, g_inf_closed, g_p, g_p_curve, solve_a_star
from conftest import central_diff, count_f_evals, mp_crossing, mp_kernel, mp_zonal


def params(n, p, r, order=128):
    return ObjectiveParams(BallContext(n, p), r, order)


def phi_values(prm, s, refine):
    """_phi_and_refined at the one shift e^s, on its lean site: [Phi] or [Phi, Phi at the reference order]."""
    site = quadrature._site(prm.ctx.n, prm.r, prm.order, _split_point(prm.ctx.n, prm.r, s), True)
    return _phi_and_refined(prm.ctx, prm.order, [(s, site)], refine)[0]


class TestParams:
    def test_rejects_exponents_without_finite_q(self):
        with pytest.raises(DomainError):
            ObjectiveParams(BallContext(3, 1.0), 0.5)  # q = inf
        with pytest.raises(DomainError):
            ObjectiveParams(BallContext(3, math.inf), 0.5)  # q = 1

    def test_names_a_conjugate_that_rounds_to_one(self):
        # past about p = 2^53 the conjugate p/(p-1) rounds to 1.0 although p lies in (1, inf)
        ctx = BallContext(3, 1e16)
        assert ctx.q == 1.0
        with pytest.raises(DomainError, match=r"at p = 1e\+16 q rounds to 1 in double precision"):
            ObjectiveParams(ctx, 0.5)
        with pytest.raises(DomainError, match=r"p in \(1, inf\) only, got p = inf"):
            ObjectiveParams(BallContext(3, math.inf), 0.5)

    def test_rejects_bad_radius_and_order(self):
        for r in (1.0, -0.1, 0.0):  # r = 0 is solved exactly before the objective
            with pytest.raises(DomainError):
                params(3, 2.0, r)
        # below 2^-60 G_p(r) = C_p r (solver._linear): no objective is built there
        for r in (2.0 ** -61, 1e-300, 5e-324):
            with pytest.raises(DomainError, match=r"r in \[2\^-60, 1\).*the linear regime, a\* = 1"):
                params(3, 3.0, r)
        assert params(3, 3.0, 2.0 ** -60).r == 2.0 ** -60
        # the order is checked where it enters: by ObjectiveParams
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
                assert phi(prm, a) == pytest.approx(expected, rel=1e-10, abs=0)

    def test_frozen_cubic_value(self):
        prm = params(3, 1.5, 0.5)  # q = 3
        value = phi(prm, 2.0)
        assert value == pytest.approx(2.108287782758039, rel=1e-9, abs=0)
        assert value ** 3 == pytest.approx(9.371080665415818, rel=1e-9, abs=0)

    def test_convex_in_shift(self):
        prm = params(3, 3.0, 0.6)
        grid = np.linspace(0.3, 2.5, 23)
        values = [phi(prm, float(a)) for a in grid]
        second = np.diff(values, 2)
        assert np.all(second > 0.0)

    def test_scaled_deviation_matches_unscaled(self):
        for n, p, r, a in ((3, 1.5, 0.5, 2.0), (4, 3.0, 0.5, 0.5), (5, 1.1, 0.3, 1.2),
                           (10, 2.0, 0.8, 3.0), (3, 10.0, 0.9, 0.1)):
            # the unscaled a (integral |d|^q)^(1/q) on the same split, reading
            # log K from the same site: only the scaling by m differs
            prm = params(n, p, r)
            q, s = prm.ctx.q, math.log(a)
            total, = quadrature._site_integral(
                n, r, 128, _split_point(n, r, s), lambda log_kernel, _: np.abs(np.expm1(log_kernel - s)) ** q,
            )
            assert phi(prm, a) == pytest.approx(a * total ** (1.0 / q), rel=1e-14, abs=0)

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
        # at r = 1e-17 the kernel range rounds to [1, 1], where K - a kept no
        # digit (Phi read 0.0); the relative deviation keeps them all.  30-digit
        # mp_zonal of |K - 1|^(3/2), split at t = r: 2.1715340932759254e-17
        assert phi(params(3, 3.0, 1e-17), 1.0) == pytest.approx(2.1715340932759254e-17, rel=1e-14, abs=0)

    # Known defect, ROADMAP open item 1: with q = 101, |K - 1|^q peaks at the
    # pole inside one 16-node panel.  Phi reads 14347.499601443056, 7.7e-4
    # below the 40-digit reference 14358.5929687616456
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="pole-side kernel peak, ROADMAP open item 1")
    def test_large_q_within_1e_13_of_mpmath(self):
        prm = params(10, 1.01, 0.5)
        ref = mp_zonal(10, lambda t: abs(mp_kernel(10, 0.5, t) - 1) ** prm.ctx.q,
                       split=[0.5] + [1.0 - 10.0 ** -k for k in range(1, 9)], dps=40, root=prm.ctx.q)
        assert ref == pytest.approx(14358.5929687616456, rel=1e-15)
        assert phi(prm, 1.0) == pytest.approx(ref, rel=1e-13, abs=0)

    # Known defect, ROADMAP open item 1: G_2 is Phi(1) at p = 2, and the
    # order-128 rule misses the pole-side kernel peak.  The worst relative
    # errors on this grid are 2.4e-4 (n = 3), 1.2e-2, 4.7e-2, 2.5e-1, 6.2e-1
    # and 5.3e-1 (n = 100).  Strict: the item's gate, 5e-14 up to n = 30 and
    # 1e-13 at n = 100; g_2_closed itself refuses (100, 0.999).
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="pole-side kernel peak, ROADMAP open item 1")
    def test_g_2_is_phi_at_one_within_the_item_1_gate(self):
        for n in (3, 4, 5, 10, 30, 100):
            for r in (0.01, 0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                if (n, r) != (100, 0.999):
                    assert phi(params(n, 2.0, r), 1.0) == pytest.approx(
                        g_2_closed(n, r), rel=5e-14 if n <= 30 else 1e-13, abs=0), (n, r)

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
        assert big_f(prm, a) == pytest.approx(ref, rel=1e-8, abs=0)


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
        assert dF_da(prm, a) == pytest.approx(fd, rel=1e-7, abs=0)

    def test_matches_finite_difference_fractional_q(self):
        prm = params(3, 3.0, 0.5)  # q = 1.5
        a = 0.8
        fd = central_diff(lambda x: big_f(prm, x), a, 1e-5)
        assert dF_da(prm, a) == pytest.approx(fd, rel=1e-7, abs=0)

    def test_matches_finite_difference_at_large_p(self):
        # q - 1 below 0.074: the panel-sum ratio 2^-(q-1) of |K - a|^(q-2) is
        # above 0.95, where the tail (37% of the integral at p = 20) was dropped
        for p in (15.0, 20.0, 50.0, 100.0):
            for n in (3, 4, 5):
                for r in (0.1, 0.5, 0.8):
                    prm = params(n, p, r)
                    a_star = solve_a_star(prm.ctx, r)
                    for a in (a_star, 0.9 * a_star, 1.1 * a_star):
                        fd = central_diff(lambda x: big_f(prm, x), a, 1e-5 * a)
                        assert dF_da(prm, a) == pytest.approx(fd, rel=1e-6, abs=0), (n, p, r, a)

    def test_matches_finite_difference_past_p_693(self):
        # the ratio 2^-(q-1) of |K - a|^(q-2) passes 0.999 at p = 693; its
        # tail was dropped there, which left dF/da 97% low at p = 700
        for p in (700.0, 1000.0, 5000.0):
            prm = params(4, p, 0.5)
            a_star = solve_a_star(prm.ctx, 0.5)
            fd = central_diff(lambda x: big_f(prm, x), a_star, 1e-5 * a_star)
            assert dF_da(prm, a_star) == pytest.approx(fd, rel=1e-5, abs=0), p

    def test_slope_of_the_first_point(self):
        # F with the slope is big_f's bits, both on the lean layout; the slope
        # in log a over a on the full layout is dF/da's, whose |d|^(q-2) is
        # singular at the crossing.  The lean slope only steers the solve: it
        # is within 4.5e-6 of the full one here (p = 20, q = 1.05)
        for n, p, r in ((3, 1.1, 0.5), (4, 1.5, 0.9), (4, 3.0, 0.5), (5, 20.0, 0.3), (10, 3.0, 0.6)):
            prm = params(n, p, r)
            a_star = solve_a_star(prm.ctx, r)
            kmin, kmax = kernel_range(prm.ctx, r)
            for a in (a_star, a_star * (1.0 + 1e-9), 0.7 * a_star, 1.3 * a_star, kmin / 2.0, kmax * 2.0):
                f_value, slope = _f_and_slope(prm.ctx, r, prm.order, math.log(a), True)
                assert f_value.hex() == big_f(prm, a).hex(), (n, p, r, a)
                _, full_slope = _f_and_slope(prm.ctx, r, prm.order, math.log(a), True, lean=False)
                assert (full_slope / a).hex() == dF_da(prm, a).hex(), (n, p, r, a)
                assert slope == pytest.approx(full_slope, rel=1e-5, abs=0), (n, p, r, a)

    @pytest.mark.parametrize("n, p, r, a, expected", [
        (4, 3.0, 0.5, 1.6, "-0x1.fa62d30720805p-2"),
        (3, 1.5, 0.9, 1.0, "-0x1.cccccccccd1adp+1"),
        (5, 20.0, 0.3, 0.8, "-0x1.7c08c62d11ccap-1"),
    ])
    def test_keeps_the_full_layout(self, n, p, r, a, expected):
        # dF/da is summed on 27 panels of 12 inner nodes: these are its bits
        # from before the lean layout; the solve's lean slope reads
        # -0x1.fa62d2c6c2660p-2, -0x1.cccccccccd1afp+1 and -0x1.7c07f92c3ff53p-1
        assert dF_da(params(n, p, r), a).hex() == expected


class TestRefinedPhi:
    def test_est_error_is_two_full_phi_calls(self):
        # est_error from the outer panels of the doubled order alone is
        # |Phi(order) - Phi(2 max(order, 96))| of two full Phi evaluations at
        # the solve's own log a*, bit for bit
        answered = 0
        for order in (64, 128, 256):
            for n in (3, 4, 5, 10, 30):
                for p in (1.1, 1.5, 3.0, 10.0, 20.0):
                    ctx = BallContext(n, p)
                    for r in (0.05, 0.2, 0.5, 0.8, 0.95):
                        try:
                            res = g_p(ctx, r, order)
                        except DomainError:
                            continue
                        prm = ObjectiveParams(ctx, r, order)
                        refined = ObjectiveParams(ctx, r, 2 * max(order, 96))
                        s, _ = solver._solve(ctx, r, order, None, 0.0)
                        assert res.a_star == math.exp(s)
                        g_val = phi_values(prm, s, False)[0]
                        est = max(abs(g_val - phi_values(refined, s, False)[0]),
                                  _ROUNDING_FLOOR * g_val)
                        assert res.g_value.hex() == g_val.hex(), (order, n, p, r)
                        assert res.est_error.hex() == est.hex(), (order, n, p, r)
                        answered += 1
        assert answered >= 300

    def test_pair_matches_two_phi_calls_off_the_root(self, monkeypatch):
        # interior splits reuse the inner panels; at a split at a pole (a
        # shift outside the kernel range) the outer panels are all of them.
        # Neither builds a site at the doubled order.
        sites, real_site = [], quadrature._site
        monkeypatch.setattr(quadrature, "_site", lambda *args: sites.append(args[2]) or real_site(*args))
        for n, p, r in ((3, 1.1, 0.5), (4, 3.0, 0.9), (5, 20.0, 0.3), (30, 1.5, 0.2)):
            ctx = BallContext(n, p)
            kmin, kmax = kernel_range(ctx, r)
            for a in (0.5 * (kmin + kmax), kmin * 1.01, kmax * 0.99, kmin / 2.0, kmax * 2.0):
                for order in (64, 128):
                    prm = ObjectiveParams(ctx, r, order)
                    sites.clear()
                    pair = phi_values(prm, math.log(a), True)
                    assert sites == [order], (n, p, r, a)
                    expected = (phi(prm, a), phi(ObjectiveParams(ctx, r, 2 * max(order, 96)), a))
                    assert [v.hex() for v in pair] == [v.hex() for v in expected], (n, p, r, a)

    def test_mixed_layouts_in_one_pass_are_each_point_alone(self):
        # one pass over interior splits (one stack, whose r = 2^-60 row, the
        # objective's smallest radius, has a scale near 1e17; its r = 1e-320
        # row had an inf one before the linear regime) and splits at both
        # poles (another layout: one side, every panel outer) gives each
        # point the bits of a pass on it alone
        ctx, ell = BallContext(4, 3.0), lambda r: _log_range(4, r)
        shifts = [(0.5, 0.3 * ell(0.5)), (0.5, ell(0.5) + 0.2), (2.0 ** -60, 0.3 * ell(2.0 ** -60)),
                  (0.3, -0.2 * ell(0.3)), (0.5, -ell(0.5) - 0.1), (0.7, 0.6 * ell(0.7))]
        points = [(s, quadrature._site(4, r, 128, _split_point(4, r, s))) for r, s in shifts]
        nodes = [site[3] for _, site in points]  # t0 = 1 leaves theta0 = 0, t0 = -1 theta0 = pi
        assert nodes[1][4] == 0.0 and nodes[4][4] == math.pi and [len(node_set[5]) for node_set in nodes] == [
            2, 1, 2, 2, 1, 2]
        for refine in (False, True):
            together = _phi_and_refined(ctx, 128, points, refine)
            for point, values in zip(points, together):
                alone, = _phi_and_refined(ctx, 128, [point], refine)
                assert len(values) == 1 + refine and all(map(math.isfinite, values))
                assert [v.hex() for v in values] == [v.hex() for v in alone], (point[1][0], refine)


class TestStationarityIdentity:
    def test_phi_slope_from_big_f(self):
        # d(Phi)/da = -Phi^(1-q) F
        prm = params(3, 1.5, 0.5)  # q = 3
        a = 1.1
        q = prm.ctx.q
        analytic = -phi(prm, a) ** (1.0 - q) * big_f(prm, a)
        fd = central_diff(lambda x: phi(prm, x), a, 1e-5)
        assert analytic == pytest.approx(fd, rel=1e-6, abs=0)

    def test_crossing_is_declared_breakpoint(self):
        ctx = BallContext(3, 1.5)
        t0 = _split_point(ctx.n, 0.5, math.log(2.0))
        assert -1.0 < t0 < 1.0


def closure_integral(prm, a, weight, lean=True):
    """The integral of weight(d), d = K/a - 1 = expm1(log K - log a), as one
    integrand closure of its own pass, on log K of the site split where K
    crosses a, lean or not."""
    ctx, r, s = prm.ctx, prm.r, math.log(a)
    with quadrature._overflow_guard():
        site = quadrature._site(ctx.n, r, prm.order, _split_point(ctx.n, r, s), lean)
        (total,), = quadrature._site_sums(ctx.n, prm.order, site, lambda log_kernel, _: weight(
            np.expm1(log_kernel - s)))
    return _checked(total)


def closure_phi(prm, a):
    # a m (integral |d/m|^q)^(1/q), m = max(e^(l - s) - 1, 1 - e^(-l - s))
    q, s, ell = prm.ctx.q, math.log(a), _log_range(prm.ctx.n, prm.r)
    m = max(math.expm1(ell - s), -math.expm1(-ell - s))
    return _checked(math.exp(s) * m * closure_integral(
        prm, a, lambda dev: np.abs(dev * (1.0 / m)) ** q) ** (1.0 / q))


def closure_big_f(prm, a):
    q = prm.ctx.q
    return _checked(math.exp((q - 1.0) * math.log(a)) * closure_integral(
        prm, a, lambda dev: np.sign(dev) * np.abs(dev) ** (q - 1.0)))


def closure_dF_da(prm, a):
    # the slope row of _f_and_slope: |d|^(q-2) as |d|^(q-1) / max(|d|, floor),
    # times (1 - q) a^(q-1), over a, on the full layout
    q = prm.ctx.q
    closure_integral(prm, a, lambda dev: np.sign(dev) * np.abs(dev) ** (q - 1.0), False)  # refused where F is
    return _checked((1.0 - q) * math.exp((q - 1.0) * math.log(a)) * closure_integral(
        prm, a, lambda dev: np.abs(dev) ** (q - 1.0) / np.maximum(np.abs(dev), _DEV_FLOOR), False) / a)


def outcome(fn, *args):
    """The exact bits of a float result, or the refusal's type."""
    try:
        return fn(*args).hex()
    except DomainError as exc:
        return type(exc).__name__


class TestSharedSite:
    def test_matches_closure_formulation_bit_for_bit(self):
        # F, Phi and dF/da (F's stacked slope row) give the bits of one
        # unstacked integrand closure each, summed on the same site (lean for
        # F and Phi, full for dF/da), around a*,
        # just inside the range and past both its ends
        for n in (3, 4, 5, 10):
            for p in (1.1, 1.5, 3.0, 10.0):
                for r in (0.05, 0.35, 0.65, 0.95):
                    prm = params(n, p, r)
                    kmin, kmax = kernel_range(prm.ctx, r)
                    a_star = solve_a_star(prm.ctx, r)
                    shifts = [a_star * f for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-9, 0.9, 1.3)]
                    shifts += [kmin / 2.0, kmin * 1.01, kmax * 0.99, kmax * 2.0]
                    for a in shifts:
                        for new, ref in ((big_f, closure_big_f), (phi, closure_phi),
                                         (dF_da, closure_dF_da)):
                            assert outcome(new, prm, a) == outcome(ref, prm, a), (n, p, r, a, new)

    def test_cold_g_p_builds_node_sets_for_its_F_and_refined_phi_only(self, monkeypatch):
        f_calls, built, outer = count_f_evals(monkeypatch), [], []
        real_nodes, real_outer = quadrature._graded_nodes, quadrature._outer_nodes
        monkeypatch.setattr(quadrature, "_graded_nodes",
                            lambda n, order, t0, lean: built.append((order, lean)) or real_nodes(n, order, t0, lean))
        monkeypatch.setattr(quadrature, "_outer_nodes",
                            lambda n, order, nodes: outer.append((order, nodes[4])) or real_outer(n, order, nodes))
        quadrature._site.cache_clear()
        solver._g_p_numeric.cache_clear()
        res = g_p(BallContext(4, 3.0), 0.5)
        # Phi at a* read the lean site of the solve's last F; the order-256
        # Phi of est_error built the outer J(4) = 2 panels of each side only,
        # 32 nodes each, and no site
        assert len(f_calls) == 8
        assert built == [(128, True)] * 8
        t0 = _split_point(4, 0.5, math.log(res.a_star))
        assert outer == [(256, math.acos(t0))] and -1.0 < t0 < 1.0
        assert real_outer(4, 256, real_nodes(4, 128, t0, True))[0].shape == (2, 64)
        # Phi and F at a* read the site of the solve's last F, building nothing;
        # dF/da builds its own, on the full layout
        prm = params(4, 3.0, 0.5)
        assert phi(prm, res.a_star) == res.g_value
        big_f(prm, res.a_star)
        assert built == [(128, True)] * 8
        dF_da(prm, res.a_star)
        assert built == [(128, True)] * 8 + [(128, False)] and len(outer) == 1

    def test_one_site_pass_sums_every_kernel_weighted_integral(self):
        # F, its slope, Phi, the doubled-order Phi, the certificates' data and
        # integrands of t alone reach the panel sums and side totals only
        # through the one summation function, _site_sums
        targets = {quadrature._panel_sums.__code__, quadrature._side_total.__code__}
        callers = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in targets:
                caller = frame.f_back
                while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
                    caller = caller.f_back
                callers.add(caller.f_code)

        quadrature._site.cache_clear()
        solver._g_p_numeric.cache_clear()
        ctx = BallContext(4, 3.0)
        sys.setprofile(profile)
        try:
            res = g_p(ctx, 0.5)
            g_p_curve(ctx, [0.3, 0.4, 0.5])  # a guessed solve: F with its slope
            dF_da(ObjectiveParams(ctx, 0.5), res.a_star)
            verify.verify_sharpness(ctx, 0.5)
            verify.random_bound_check(ctx, 0.5)
            integral = quadrature.integrate_with_breakpoint(4, 128, lambda t: t * t, 0.0)
        finally:
            sys.setprofile(None)
        assert integral == pytest.approx(1.0 / 4.0, rel=1e-14, abs=0)  # the mean of t^2 on S^3
        assert callers == {quadrature._site_sums.__code__}
