import math

import numpy as np
import pytest

from hypschwarz.errors import CapUnderflowError, DomainError
from hypschwarz.kernel import BallContext, poisson_szego_axis
from hypschwarz.quadrature import build_rule, cap_rule, integrate_with_breakpoint, integrate_zonal
from conftest import mp_crossing, mp_kernel, mp_zonal


def exact_even_moment(n, k):
    # c_n * integral t^k (1-t^2)^((n-3)/2) dt = Beta-function ratio
    return math.exp(
        math.lgamma(n / 2.0)
        + math.lgamma((k + 1) / 2.0)
        - math.lgamma(0.5)
        - math.lgamma((n + k) / 2.0)
    )


class TestPlainRule:
    def test_weights_sum_to_one(self):
        for n in (3, 4, 5, 6, 8, 10, 30, 100):
            for order in (2, 8, 64, 128, 256, 512):
                rule = build_rule(n, order)
                assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)

    def test_nodes_sorted_and_interior(self):
        rule = build_rule(5, 128)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
        assert np.all(rule.weights > 0.0)

    def test_polynomial_moments(self):
        for n in (3, 5):
            rule = build_rule(n, 6)
            for k in range(12):
                numeric = integrate_zonal(rule, lambda t: t ** k)
                expected = 0.0 if k % 2 else exact_even_moment(n, k)
                assert numeric == pytest.approx(expected, abs=1e-14)

    def test_exactness_stops_at_rule_degree(self):
        rule = build_rule(3, 2)
        wrong = integrate_zonal(rule, lambda t: t ** 4)
        assert abs(wrong - exact_even_moment(3, 4)) > 1e-3

    def test_even_moments_at_order_512(self):
        for n in (3, 4, 6, 10, 30, 100):
            rule = build_rule(n, 512)
            for k in range(0, 65, 2):
                numeric = integrate_zonal(rule, lambda t: t ** k)
                assert numeric == pytest.approx(exact_even_moment(n, k), abs=1e-13)

    def test_rule_is_cached_and_frozen(self):
        rule = build_rule(3, 128)
        assert rule is build_rule(3, 128)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            build_rule(2, 64)
        with pytest.raises(DomainError):
            build_rule(3, 1)


class TestIntegrateZonal:
    def test_constants(self):
        rule = build_rule(4, 64)
        assert integrate_zonal(rule, lambda t: np.ones_like(t)) == pytest.approx(1.0, abs=1e-12)
        # scalar-returning integrand exercises the broadcast path
        assert integrate_zonal(rule, lambda t: 3.0) == pytest.approx(3.0, abs=1e-12)

    def test_kernel_mean(self):
        ctx = BallContext(3, 2.0)
        rule = build_rule(3, 128)
        value = integrate_zonal(rule, lambda t: poisson_szego_axis(ctx, 0.7, t))
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_order_doubling_plateau_for_smooth_integrand(self):
        lo = integrate_zonal(build_rule(4, 128), np.exp)
        hi = integrate_zonal(build_rule(4, 256), np.exp)
        assert lo == pytest.approx(hi, rel=1e-14)

    def test_non_vectorized_integrand_fallback(self):
        # a result shaped unlike the nodes is refused, not re-evaluated per node
        def awkward(t):
            if np.ndim(t):
                return np.full(1, 2.0)  # wrong shape on purpose
            return 2.0

        with pytest.raises(DomainError, match="shape"):
            integrate_zonal(build_rule(3, 32), awkward)
        with pytest.raises(DomainError, match="shape"):
            integrate_with_breakpoint(3, 32, awkward, 0.5)

    def test_rejects_nonfinite_integrand(self):
        with pytest.raises(DomainError):
            integrate_zonal(build_rule(3, 32), lambda t: np.where(t > 0.0, 1.0, np.inf))

    def test_absolute_value_moment_at_high_order(self):
        # |t| is C^0 at zero; the plain rule needs a large order for 1e-8
        value = integrate_zonal(build_rule(3, 8192), np.abs)
        assert value == pytest.approx(0.5, abs=1e-8)


class TestBreakpointRule:
    def test_none_breakpoint_matches_plain_rule(self):
        plain = integrate_zonal(build_rule(3, 128), np.cos)
        assert integrate_with_breakpoint(3, 128, np.cos, None) == plain

    def test_smooth_integrand_consistency(self):
        f = lambda t: np.cos(3.0 * t)
        plain = integrate_zonal(build_rule(3, 256), f)
        split = integrate_with_breakpoint(3, 128, f, 0.2)
        assert split == pytest.approx(plain, rel=1e-12)

    def test_kink_resolved_at_low_order(self):
        value = integrate_with_breakpoint(3, 128, np.abs, 0.0)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_inverse_square_root_singularity(self):
        # c_3 = 1/2, so the integral of |t - 0.3|^(-1/2) is sqrt(1.3) + sqrt(0.7)
        value = integrate_with_breakpoint(
            3, 128, lambda t: np.abs(t - 0.3) ** -0.5, 0.3
        )
        exact = math.sqrt(1.3) + math.sqrt(0.7)
        assert value == pytest.approx(exact, rel=1e-9)

    def test_singular_kernel_deviation_against_mpmath(self):
        pytest.importorskip("mpmath")
        n, r, a = 3, 0.5, 2.0
        ctx = BallContext(n, 2.0)
        t0 = float(mp_crossing(n, r, a))
        numeric = integrate_with_breakpoint(
            n, 128, lambda t: np.abs(poisson_szego_axis(ctx, r, t) - a) ** -0.5, t0
        )
        ref = mp_zonal(
            n,
            lambda t: abs(mp_kernel(n, r, t) - a) ** -0.5,
            split=[mp_crossing(n, r, a)],
        )
        assert numeric == pytest.approx(ref, rel=1e-8)

    def test_breakpoint_at_pole(self):
        # integrable endpoint singularity: c_3 * int (1-t)^(-1/4) dt, at
        # either pole; the empty side, where it is infinite, is never evaluated
        exact = 0.5 * (4.0 / 3.0) * 2.0 ** 0.75
        for sign in (1.0, -1.0):
            value = integrate_with_breakpoint(3, 128, lambda t: (1.0 - sign * t) ** -0.25, sign)
            assert value == pytest.approx(exact, rel=1e-9)

    def test_one_integrand_call_per_integral(self):
        for t0 in (0.3, 1.0, -1.0):
            calls = []

            def f(t):
                calls.append(t)
                return np.abs(t - 0.3)

            integrate_with_breakpoint(3, 128, f, t0)
            assert len(calls) == 1

    def test_rejects_breakpoint_outside_range(self):
        with pytest.raises(DomainError):
            integrate_with_breakpoint(3, 128, np.abs, 1.5)


class TestCapRule:
    def test_cap_measure_dimension_three(self):
        # n = 3: sigma({t >= c}) = (1 - c)/2 exactly
        for c in (0.9, 1.0 - 1e-4, 1.0 - 1e-12):
            nodes, weights = cap_rule(3, c)
            assert float(np.sum(weights)) == pytest.approx((1.0 - c) / 2.0, rel=1e-13)
            assert np.all(nodes >= c) and np.all(nodes <= 1.0)

    def test_cap_first_moment_dimension_three(self):
        c = 0.3
        nodes, weights = cap_rule(3, c)
        assert float(np.dot(weights, nodes)) == pytest.approx((1.0 - c * c) / 4.0, rel=1e-13)

    def test_cap_measure_dimension_four(self):
        c = 0.75
        nodes, weights = cap_rule(4, c)
        exact = (2.0 / math.pi) * (math.pi / 4.0 - 0.5 * (c * math.sqrt(1 - c * c) + math.asin(c)))
        assert float(np.sum(weights)) == pytest.approx(exact, rel=1e-12)

    def test_cap_underflow(self):
        with pytest.raises(CapUnderflowError):
            cap_rule(3, 1.0)
        with pytest.raises(CapUnderflowError):
            cap_rule(3, -1.0)
        with pytest.raises(CapUnderflowError):
            cap_rule(3, 1.0 - 2e-323)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            cap_rule(2, 0.5)
