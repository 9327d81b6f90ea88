import dataclasses
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hypschwarz import quadrature, solver, special, verify
from hypschwarz.errors import CapUnderflowError, DomainError
from hypschwarz.kernel import BallContext, _split_point
from hypschwarz.solver import g_1_closed, grad_constant, uh_elementary
from conftest import count_f_evals, mp_cap_pair, mp_kernel, mp_zonal
from hypschwarz.verify import (
    SHARPNESS_GAP_LIMIT,
    RandomBoundReport,
    corollary_l2_batch,
    corollary_l2_check,
    minimizing_sequence_p1,
    random_bound_check,
    random_grad_check,
    cap_sequence_check,
    verify_sharpness,
)


# radii of the multi-radius bound sweeps, from the centre to near the boundary
SWEEP_RADII = (0.0, 0.3, 0.6, 0.9, 0.99)


def poly_data(n, coeffs):
    """The draw path's (rule, centered coefficient row) of one datum."""
    row = np.zeros((1, 9))
    row[0, :len(coeffs)] = coeffs
    return verify._poly_data(n, row, 128)


# exponents at which the random-draw checker's decisions are compared with
# every draw's exact norm: the large-p ones take the rescaled norms
DECIDING_PS = [1.0, 1.01, 1.5, 2.0, 3.0, 20.0, 1000.0, 1e5, math.inf]


def crafted_rows():
    """Coefficient rows of hand-made data: a zero draw, t^8 (sup at both
    endpoints), -T_3 (sup at interior points too), t (the gradient's extremal
    datum), a row of 0.5 (sup at t = 1) and one seeded random row."""
    rows = np.zeros((6, 9))
    rows[1, 8] = 1.0
    rows[2, [1, 3]] = 3.0, -4.0
    rows[3, 1] = 1.0
    rows[4, :] = 0.5
    rows[5, :] = np.random.default_rng(5).uniform(-1.0, 1.0, 9)
    return rows


def random_draws(n, count, seed):
    """(rule, centered coefficient rows, values at the nodes) of seeded draws."""
    rule, coeffs = verify._random_poly_draws(n, count, seed, 128)
    return rule, coeffs, verify._node_values(rule, coeffs)


def forbid_sups_below_inf(p, monkeypatch):
    """At finite p the checker decides on rule norms and takes no sup."""
    if p != math.inf:
        monkeypatch.setattr(verify, "_poly_sups", lambda coeffs: pytest.fail("a sup taken at finite p"))


def site_builds(monkeypatch):
    """Split points of the node sets built from now on (the site cache emptied)."""
    built = []
    real = quadrature._graded_nodes
    monkeypatch.setattr(quadrature, "_graded_nodes",
                        lambda n, order, t0, lean=False: built.append(t0) or real(n, order, t0, lean))
    quadrature._site.cache_clear()
    return built


class TestZonalBoundaryFunction:
    """Zonal data as polynomial coefficients in t, on the random draws' rule."""

    def test_mean_and_l2_norm_of_identity(self):
        rule, coeffs = poly_data(3, [0.0, 1.0])
        assert -coeffs[0, 0] == pytest.approx(0.0, abs=1e-13)  # the mean, taken off c_0
        norm = verify._poly_norms(BallContext(3, 2.0), rule, coeffs)[0]
        assert norm == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12, abs=0)

    def test_sup_norm_of_identity(self):
        norm = verify._poly_sups(poly_data(3, [0.0, 1.0])[1])[0]
        assert norm == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_centered_removes_mean(self):
        rule, coeffs = poly_data(4, [2.0, 1.0])
        assert 2.0 - coeffs[0, 0] == pytest.approx(2.0, rel=1e-12, abs=0)  # the mean, taken off c_0
        assert verify._node_values(rule, coeffs)[0] @ rule.weights == pytest.approx(0.0, abs=1e-12)


class TestPoissonIntegral:
    """Kernel-weighted integrals on a site of the quadrature."""

    def test_constant_extends_to_itself(self):
        for r in (0.0, 0.3, 0.9):
            u, = quadrature._site_integral(4, r, 256, 1.0, lambda log_kernel, _: np.exp(log_kernel))
            assert u == pytest.approx(1.0, abs=1e-10)

    def test_sign_data_matches_equator_split(self):
        # the extension of sign(t) on the axis is the harmonic-measure gap
        for r in (0.2, 0.5, 0.8):
            u, = quadrature._site_integral(3, r, 128, 0.0, lambda log_kernel, t: np.exp(log_kernel) * np.sign(t))
            assert u == pytest.approx(uh_elementary(3, r), rel=1e-8, abs=0)


class TestExtremalPhi:
    """The extremal data of the sharpness certificate."""

    def test_zero_mean_and_declared_kink(self, monkeypatch):
        # the data is summed on the site of a*, split where K crosses a*
        ctx = BallContext(3, 1.5)
        log_a_star = solver.g_p(ctx, 0.5).log_a_star
        built = site_builds(monkeypatch)
        report = verify_sharpness(ctx, 0.5)
        assert abs(report.u_at_zero) <= 1e-9
        assert built == [_split_point(ctx.n, 0.5, log_a_star)]

    def test_rejects_degenerate_sites(self, monkeypatch):
        # p = 1 has no extremal: its certificate is the cap pair and builds no site
        built = site_builds(monkeypatch)
        report = verify_sharpness(BallContext(3, 1.0), 0.5)
        assert report.u_at_zero == 0.0 and built == []
        with pytest.raises(DomainError):
            verify_sharpness(BallContext(3, 2.0), 0.0)


class TestSharpness:
    def test_extremal_attains_bound(self):
        for n, p, r in ((3, 2.0, 0.5), (4, 3.0, 0.3), (3, math.inf, 0.5)):
            report = verify_sharpness(BallContext(n, p), r)
            assert report.rel_gap <= 1e-6 and report.passed
        inf_report = verify_sharpness(BallContext(3, math.inf), 0.5)
        assert inf_report.g_bound == pytest.approx(0.8, rel=1e-8, abs=0)

    def test_certification_solves_once(self, monkeypatch):
        # extremal data, bound and random draws share g_p's memo cache, so
        # certifying one point evaluates F exactly as often as one cold g_p
        calls = count_f_evals(monkeypatch)
        ctx, r = BallContext(4, 3.0), 0.45
        solver._g_p_numeric.cache_clear()
        solver.g_p(ctx, r)
        cold = len(calls)
        solver._g_p_numeric.cache_clear()
        calls.clear()
        verify_sharpness(ctx, r)
        random_bound_check(ctx, r, count=50, seed=3)
        assert len(calls) == cold > 0

    def test_p1_uses_cap_sequence(self):
        report = verify_sharpness(BallContext(3, 1.0), 0.5)
        assert report.rel_gap <= 0.02 and report.passed
        assert report.g_bound == pytest.approx(40.0 / 9.0, rel=1e-14, abs=0)
        assert report.attained == minimizing_sequence_p1(3, 0.5, 64)

    def test_p1_index_grows_toward_the_boundary(self):
        # a fixed index 64 leaves a cap wide against 1 - r: gap 0.71 at n = 3, r = 0.99
        for n in (3, 5, 10, 30):
            for r in (0.5, 0.9, 0.99, 0.999):
                assert verify_sharpness(BallContext(n, 1.0), r).passed, (n, r)
        # the cap rule's weights underflowed at both; the Moebius form answers
        for n, r in ((60, 0.999), (100, 0.9)):
            assert verify_sharpness(BallContext(n, 1.0), r).passed, (n, r)

    def test_small_radius_p_near_one(self):
        # p near 1 at small r, where F is far below any absolute tolerance
        for n in (3, 4, 5):
            for p in (1.05, 1.1, 1.2):
                for r in (0.01, 0.03, 0.06, 0.1):
                    report = verify_sharpness(BallContext(n, p), r)
                    assert report.rel_gap <= SHARPNESS_GAP_LIMIT and report.passed, (n, p, r)

    # (g_bound, attained, u_at_zero, rel_gap) with G = Phi(a*) from the
    # relative deviation at the solve's own log a* on its lean site, and the
    # extremal data summed on the full layout (12 nodes on every inner
    # panel), attained = integral (K - 1) phi on d = expm1(log K - log a*).
    # Against 40-digit mpmath at each row's own a* = e^(log a*) (split at
    # the crossing and toward the pole), g_bound and attained are within 7
    # ulps at r = 0.2 (6.6 for g_bound at (5, 1.5), whose G is the lean
    # layout's; 5 when G was the full one's, 8 with K phi and K - a*); at
    # r = 0.8 both share the order-128 rule's pole error (ROADMAP open item
    # 1), 28 ulps to 3.8e8 ulps, as they did on the full layout
    @pytest.mark.parametrize("n, p, r, expected", [
        (3, 1.5, 0.2, ("0x1.4770a809ad1f6p-3", "0x1.4770a809ad1abp-3",
                       "-0x1.c7f8d9cd3186dp-46", "0x1.d47a185531295p-47")),
        (3, 1.5, 0.8, ("0x1.0eb2fe9f2ea93p+10", "0x1.0eb2fe9f2ea7dp+10",
                       "-0x1.739a7d5e4cb36p-40", "0x1.54716c110df63p-48")),
        (3, 3.0, 0.2, ("0x1.29b654ddeca75p-2", "0x1.29b654ddeca51p-2",
                       "0x1.17ced602e25b7p-45", "0x1.f7b1e70c35b0ap-48")),
        (3, 3.0, 0.8, ("0x1.1fa0f3e815225p+2", "0x1.1fa0f3e81521cp+2",
                       "0x1.460475d5b783ap-47", "0x1.04d31733d602ep-49")),
        (3, 10.0, 0.2, ("0x1.6fd65dab0f0f4p-2", "0x1.6fd65dab0f06ap-2",
                        "0x1.0df17ec3e75efp-44", "0x1.7f1b599bf817bp-46")),
        (3, 10.0, 0.8, ("0x1.51c84a5af5bc7p+0", "0x1.51c84a5af5af8p+0",
                        "0x1.ab1a35e6ef1aap-45", "0x1.39aedde0135eap-45")),
        (3, math.inf, 0.2, ("0x1.89d89d89d89d5p-2", "0x1.89d89d89d89d4p-2",
                            "-0x1.fffffffffffffp-54", "0x1.4ccccccccccd0p-53")),
        (3, math.inf, 0.8, ("0x1.f3831f3831f33p-1", "0x1.f3831f3b5d4cdp-1",
                            "-0x1.fffffffffffffp-54", "0x1.9fd1220000004p-32")),
        (5, 1.5, 0.2, ("0x1.e3deba8c7a7a3p-1", "0x1.e3deba8c7a806p-1",
                       "0x1.b18c39126ac27p-45", "0x1.a282c2cfd360ap-47")),
        (5, 1.5, 0.8, ("0x1.1e091fa8bdbeep+21", "0x1.1e091fa8bdbf4p+21",
                       "0x1.d81d0f71a0944p-35", "0x1.342d1ba8919ddp-50")),
        (5, 3.0, 0.2, ("0x1.1c60a3c92d077p-1", "0x1.1c60a3c92d077p-1",
                       "0x1.0bed92e32bacdp-51", "0x0.0p+0")),
        (5, 3.0, 0.8, ("0x1.8b352d37dcbd4p+4", "0x1.8b352d37dcbd0p+4",
                       "0x1.c39e9e7529512p-49", "0x1.6141ede65f373p-51")),
        (5, 10.0, 0.2, ("0x1.164e98d4ae285p-1", "0x1.164e98d4ae23bp-1",
                        "0x1.22dba6a325646p-45", "0x1.12adf5bfd8713p-46")),
        (5, 10.0, 0.8, ("0x1.e7d1a1976f6c0p+0", "0x1.e7d1a1976f678p+0",
                        "0x1.0d931541f8b24p-46", "0x1.2f95ea8389b08p-47")),
        (5, math.inf, 0.2, ("0x1.18d1bd9508463p-1", "0x1.18d1bd950845cp-1",
                            "-0x1.8000000000004p-53", "0x1.9867acb867ac5p-50")),
        (5, math.inf, 0.8, ("0x1.ff8bfdef4eb86p-1", "0x1.ff8bfc986936ap-1",
                            "-0x1.8000000000004p-53", "0x1.573344bff7322p-25")),
    ])
    def test_reports_are_pinned(self, n, p, r, expected):
        report = verify_sharpness(BallContext(n, p), r)
        fields = (report.g_bound, report.attained, report.u_at_zero, report.rel_gap)
        assert tuple(value.hex() for value in fields) == expected

    def test_reports_do_not_depend_on_the_python_version(self, monkeypatch):
        # since Python 3.12 builtin sum() of floats is compensated (Neumaier);
        # panel sums that used it moved this pin, and 22 others, there
        def neumaier_sum(values, start=0):
            total, compensation = float(start), 0.0
            for value in values:
                new = total + value
                if abs(total) >= abs(value):
                    compensation += (total - new) + value
                else:
                    compensation += (value - new) + total
                total = new
            return total + compensation if compensation and math.isfinite(compensation) else total

        monkeypatch.setattr(quadrature, "sum", neumaier_sum, raising=False)
        solver._g_p_numeric.cache_clear()
        quadrature._site.cache_clear()
        report = verify_sharpness(BallContext(3, 3.0), 0.2)
        fields = (report.g_bound, report.attained, report.u_at_zero, report.rel_gap)
        assert tuple(value.hex() for value in fields) == (
            "0x1.29b654ddeca75p-2", "0x1.29b654ddeca51p-2",
            "0x1.17ced602e25b7p-45", "0x1.f7b1e70c35b0ap-48")

    def test_one_site_after_the_solve(self, monkeypatch):
        # the extremal data, its extension and its norm share one node set
        for ctx in (BallContext(4, 3.0), BallContext(4, math.inf)):
            solver.g_p(ctx, 0.45)
            built = site_builds(monkeypatch)
            verify_sharpness(ctx, 0.45)
            assert len(built) == 1

    # Known defect, ROADMAP open item 1: at p = inf the attained integral is
    # an order-128 sum on the site split at the equator, compared with the
    # closed-form G_inf, so the kernel peak at the pole shows unmasked near
    # the boundary (rel_gap 1.9e-6, 7.1e-6 and 1.6e-5 at n = 3, 4, 5,
    # r = 0.9).  Strict: these pass once item 1's pole-side rule lands.
    @pytest.mark.xfail(strict=True, reason="pole-side kernel peak, ROADMAP open item 1")
    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_inf_near_the_boundary_at_the_default_order(self, n):
        assert verify_sharpness(BallContext(n, math.inf), 0.9).passed

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_inf_near_the_boundary_at_a_doubled_order(self, n):
        # the bound holds there: order 256 resolves the peak
        report = verify_sharpness(BallContext(n, math.inf), 0.9, 256)
        assert report.rel_gap <= 1e-10 and report.passed

    def test_center_raises(self):
        with pytest.raises(DomainError):
            verify_sharpness(BallContext(3, 2.0), 0.0)

    def test_full_site_split_at_the_solves_own_log_a_star(self, monkeypatch):
        # the certificate sums on the full layout, split at the solve's own
        # log a*, not at log(e^s): at (3, 3, 0.4) the two differ.  The solve
        # left a lean site there, so the certificate builds its own
        ctx, r = BallContext(3, 3.0), 0.4
        solver._g_p_numeric.cache_clear()
        result = solver.g_p(ctx, r)
        assert _split_point(3, r, math.log(result.a_star)) != _split_point(3, r, result.log_a_star)
        built = []
        real = quadrature._graded_nodes
        monkeypatch.setattr(quadrature, "_graded_nodes", lambda *args: built.append(args) or real(*args))
        verify_sharpness(ctx, r)
        assert built == [(3, 128, _split_point(3, r, result.log_a_star), False)]

    def test_numpy_integer_order_shares_one_site(self, monkeypatch):
        # the site and solve caches are keyed by value: every order reaching
        # them passed check_order, and np.int64(128) built one node set here
        # when they were typed
        ctx = BallContext(4, 3.0)
        solver._g_p_numeric.cache_clear()
        solver.g_p(ctx, 0.5)
        built = []
        real = quadrature._graded_nodes
        monkeypatch.setattr(quadrature, "_graded_nodes", lambda *args: built.append(args) or real(*args))
        assert verify_sharpness(ctx, 0.5, np.int64(128)) == verify_sharpness(ctx, 0.5, 128)
        assert len(built) == 1

    def test_result_refuses_a_non_finite_log_a_star(self):
        result = solver.g_p(BallContext(3, 3.0), 0.5)
        for log_a_star in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                dataclasses.replace(result, log_a_star=log_a_star)


class TestSmallRadii:
    """The certificates at small r.  They sum K - 1 = expm1(log K) at the
    solve's own log a*; K - a* and K cancelled there (rel_gap 8.2e-2 at
    (3, 3, 1e-8), 947 of 1000 draws violating at (4, 1.5, 1e-18), the p = 1
    cap pair 0 at r = 1e-300)."""

    RADII = (1e-6, 1e-10, 1e-14, 1e-16, 1e-100, 1e-300)

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 10.0, math.inf))
    @pytest.mark.parametrize("n", (3, 4, 5, 10))
    def test_extremal_data_attain_the_bound(self, n, p):
        for r in self.RADII:
            report = verify_sharpness(BallContext(n, p), r)
            assert report.rel_gap <= 1e-12 and report.passed, (r, report)

    def test_extremal_data_keep_their_digits(self, monkeypatch):
        # d is divided by min(l, 1) before its powers: (2 (n - 1) r)^(q - 1)
        # underflows at q = 101 and 51 from r = 1e-15 down, where the
        # undivided sums read 0 = 0.  Below 2^-60 no site is summed
        sums = []
        real = verify._site_integral
        monkeypatch.setattr(verify, "_site_integral", lambda *args: sums.append(real(*args)) or sums[-1])
        for p in (1.01, 1.02):
            for r in (1e-15, 2.0 ** -60):
                verify_sharpness(BallContext(3, p), r)
                assert len(sums) == 1, (p, r)
                _, attained, power = sums.pop()
                assert attained >= 0.01 * r and power >= 0.005, (p, r, attained, power)

    @pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 10.0, math.inf))
    @pytest.mark.parametrize("n", (3, 4, 5, 10))
    def test_random_draws_keep_their_ratio(self, n, p):
        # max_ratio tends to that of the gradient bound as r -> 0
        ctx = BallContext(n, p)
        near = random_bound_check(ctx, 1e-6).max_ratio
        for r in self.RADII[1:] + (1e-310, 1e-315):
            report = random_bound_check(ctx, r)
            assert report.violations == 0 and abs(report.max_ratio - near) <= 1e-5, (r, report)

    @pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0, math.inf))
    @pytest.mark.parametrize("n", (3, 4, 5, 10, 100))
    def test_subnormal_draws_take_the_gradient_moments(self, n, p):
        # below 2^-60 u(r axis) - u(0) is r times the gradient functional and
        # G_p(r) = C_p r: the report is random_grad_check's.  The pole site's
        # moments read 3 false violations at (100, 2, 1e-310)
        ctx = BallContext(n, p)
        for r in (1e-310, 1e-315):
            assert random_bound_check(ctx, r) == verify.random_grad_check(ctx), r

    @pytest.mark.parametrize("p", (1.0, 1.5, 2.0, 3.0, math.inf))
    @pytest.mark.parametrize("n", (3, 10, 100))
    def test_subnormal_refusal_is_on_the_error_of_g(self, n, p):
        # checked against G / r, every (n, p) refused from 3e-316 down, where
        # G kept too few bits; against C_p, no radius down to 5e-324 is
        # refused, and none violates
        ctx = BallContext(n, p)
        expected = verify.random_grad_check(ctx, count=100)
        assert expected.violations == 0
        for r in [k * 10.0 ** -e for e in range(308, 324) for k in (3.0, 1.0)] + [5e-324]:
            assert random_bound_check(ctx, r, count=100) == expected, r

    @pytest.mark.parametrize("p", (1.5, 3.0, math.inf))
    @pytest.mark.parametrize("n", (3, 4, 10, 100))
    def test_linear_regime_sums_no_kernel(self, n, p, monkeypatch):
        # below 2^-60 G_p(r) = C_p r: the sharpness gap is the gradient
        # extremal data's against C_p, and the draws are random_grad_check's
        kernels = []
        real = quadrature._log_kernel
        monkeypatch.setattr(quadrature, "_log_kernel", lambda n, r, t: kernels.append(r) or real(n, r, t))
        ctx = BallContext(n, p)
        ratio, constant = verify._gradient_extremal_ratio(ctx), grad_constant(ctx)
        for r in (2.0 ** -61, 1e-100, 1e-320, 5e-324):
            report = verify_sharpness(ctx, r)
            assert report.passed and report.rel_gap == abs(constant - ratio) / constant, (r, report)
            assert (report.attained, report.u_at_zero) == (r * ratio, 0.0), (r, report)
            assert random_bound_check(ctx, r, count=100) == random_grad_check(ctx, count=100), r
        assert kernels == []

    @pytest.mark.parametrize("n", (3, 4, 5, 10))
    def test_p1_cap_pair(self, n):
        gaps = [verify_sharpness(BallContext(n, 1.0), r).rel_gap for r in (1e-6, 1e-16, 1e-300)]
        assert max(gaps) <= 1e-4 and max(gaps) - min(gaps) <= 1e-7, gaps
        assert all(cap_sequence_check(n, r).passed for r in (1e-6, 1e-16, 1e-300))


class TestGradAtOrigin:
    """|grad u(0)| = 2 (n - 1) |integral t g dsigma| on the draw path."""

    def test_even_data_has_no_gradient(self):
        assert corollary_l2_check(3, [0.0, 0.0, 1.0]).lhs == pytest.approx(0.0, abs=1e-13)

    def test_identity_data_gradient(self):
        # 2(n-1) * integral t^2 dsigma = 4/3 in dimension 3
        assert corollary_l2_check(3, [0.0, 1.0]).lhs == pytest.approx(4.0 / 3.0, rel=1e-12, abs=0)


class TestMomentExtremal:
    """The data sign(t) |t|^(q-1), which attains the gradient constant."""

    def test_attains_gradient_constant(self):
        for n, p in ((3, 2.0), (4, 3.0), (3, 1.5), (3, math.inf)):
            ctx = BallContext(n, p)
            ratio = verify._gradient_extremal_ratio(ctx) / grad_constant(ctx)
            assert ratio == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_p1_rejected(self):
        with pytest.raises(DomainError):
            verify._gradient_extremal_ratio(BallContext(3, 1.0))

    # |grad u(0)| / ||g||_p, each within 2 ulps of 2 (n - 1) alpha_q^(1/q) in
    # mpmath (4 ulps at p = inf), as on the layout with order // 8 nodes on
    # every panel
    @pytest.mark.parametrize("n, p, expected", [
        (3, 1.5, "0x1.428a2f98d728bp+1"),
        (3, 3.0, "0x1.15f4d44462722p+1"),
        (3, 10.0, "0x1.0557ab9c326bdp+1"),
        (3, math.inf, "0x1.fffffffffffffp+0"),
        (5, 1.5, "0x1.0000000000001p+2"),
        (5, 3.0, "0x1.a83da5d2353dcp+1"),
        (5, 10.0, "0x1.89a0ba516ecf2p+1"),
        (5, math.inf, "0x1.8000000000004p+1"),
    ])
    def test_ratios_are_pinned(self, n, p, expected):
        assert verify._gradient_extremal_ratio(BallContext(n, p)).hex() == expected


class TestRandomChecks:
    def test_bound_holds_on_random_draws(self):
        # at r = 0 the bound G_p(0) = 0 meets the zero-mean data: ratio 0
        for ctx, r in ((BallContext(3, 2.0), 0.5), (BallContext(3, math.inf), 0.5),
                       (BallContext(3, 2.0), 0.0), (BallContext(4, 1.0), 0.0)):
            report = random_bound_check(ctx, r, count=300, seed=7)
            assert report.violations == 0
            assert report.max_ratio <= (1.0 if r else 0.0)

    def test_gradient_bound_holds_on_random_draws(self):
        for ctx in (BallContext(3, 2.0), BallContext(4, math.inf)):
            report = random_grad_check(ctx, count=300, seed=7)
            assert report.violations == 0
            assert report.max_ratio <= 1.0

    def test_seeded_determinism(self):
        ctx = BallContext(4, 3.0)
        first = random_bound_check(ctx, 0.6, count=100, seed=11)
        second = random_bound_check(ctx, 0.6, count=100, seed=11)
        assert first == second

    def test_order_must_be_an_integer(self):
        # order 2.5 answered in g_p and raised scipy's ValueError in the draws;
        # 128.0 is refused even where order 128 is already solved
        ctx = BallContext(3, 2.5)
        solver.g_p(ctx, 0.5, order=128)
        for order in (2.5, 1, True, 128.0):
            with pytest.raises(DomainError, match="order"):
                solver.g_p(ctx, 0.5, order=order)
            with pytest.raises(DomainError, match="order"):
                random_bound_check(ctx, 0.5, count=10, order=order)

    def test_count_validation(self):
        with pytest.raises(DomainError):
            random_bound_check(BallContext(3, 2.0), 0.5, count=0)
        # a count numpy refuses to allocate (before allocating anything)
        with pytest.raises(DomainError, match="count = 2305843009213693952 draws"):
            random_bound_check(BallContext(3, 2.0), 0.5, count=2 ** 61)

    @pytest.mark.parametrize("check", [
        lambda count: random_bound_check(BallContext(3, 2.0), 0.5, count=count),
        lambda count: random_grad_check(BallContext(3, 2.0), count=count),
        lambda count: corollary_l2_batch(3, count=count),
    ], ids=["random_bound_check", "random_grad_check", "corollary_l2_batch"])
    def test_count_must_be_an_integer(self, check):
        # a float count reached numpy as an array shape and raised TypeError
        for count in (2.5, True, "7", 0):
            with pytest.raises(DomainError, match="count"):
                check(count)
        check(np.int64(3))

    def test_seed_validation(self):
        ctx = BallContext(3, 2.0)
        for seed in (-1, 2.5, True, "7"):
            for check in (
                lambda: random_bound_check(ctx, 0.5, count=10, seed=seed),
                lambda: random_grad_check(ctx, count=10, seed=seed),
                lambda: corollary_l2_batch(3, count=10, seed=seed),
            ):
                with pytest.raises(DomainError, match="seed"):
                    check()

    def test_draws_are_one_stream(self):
        # draw i is values 9i..9i+8 of one stream: a smaller count is a prefix;
        # the centered rows take each mean, the row times the rule's moments, off c_0
        stream = np.random.default_rng(11).uniform(-1.0, 1.0, (1000, 9))
        for n, order, count in ((3, 128, 1000), (3, 128, 10), (5, 128, 1000), (3, 64, 1000), (10, 256, 1000)):
            coeffs, draws = verify._random_poly_draws(n, count, 11, order)[1], stream[:count]
            assert np.array_equal(coeffs[:, 1:], draws[:, 1:])
            assert np.array_equal(coeffs[:, 0], draws[:, 0] - draws @ verify._monomials(n, order)[1][:9])
        assert not np.array_equal(verify._random_poly_draws(3, 10, 12, 128)[1][:, 1:], stream[:10, 1:])

    def test_one_draw_pass_per_check(self, monkeypatch):
        calls = []
        real_draws = verify._random_poly_draws
        monkeypatch.setattr(
            verify, "_random_poly_draws", lambda *args: calls.append(1) or real_draws(*args)
        )
        ctx = BallContext(3, 2.0)
        for check in (
            lambda: random_bound_check(ctx, 0.5, count=20),
            lambda: list(map(verify._bound_checker(ctx, 20, 42, 128),
                             solver.g_p_curve(ctx, SWEEP_RADII))),
            lambda: random_grad_check(ctx, count=20),
            lambda: corollary_l2_batch(3, count=20),
        ):
            calls.clear()
            check()
            assert len(calls) == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_sweep_reports_equal_single_radius_ones(self, n):
        # a sweep takes the draws and their norms once; every report is the
        # one random_bound_check gives at that radius, bit for bit
        for p in (1.01, 1.1, 2.0, 3.0, 20.0, 1e5, math.inf):
            ctx = BallContext(n, p)
            for seed in (1, 7, 42):
                single = []
                for r in SWEEP_RADII:
                    try:
                        single.append(random_bound_check(ctx, r, count=1000, seed=seed))
                    except DomainError as exc:  # past the solver's domain
                        single.append(exc)
                        break
                answered = [report for report in single if isinstance(report, RandomBoundReport)]
                check = verify._bound_checker(ctx, 1000, seed, 128)
                swept = [check(solver.g_p(ctx, r)) for r in SWEEP_RADII[:len(answered)]]
                assert swept == answered, (n, p, seed)
                if len(answered) < len(SWEEP_RADII):
                    with pytest.raises(DomainError, match=re.escape(str(single[-1]))):
                        [check(solver.g_p(ctx, r)) for r in SWEEP_RADII]

    def test_deciding_draws_give_the_full_sup_decision(self, monkeypatch):
        # only the draws that can decide take their exact norm (at p = inf
        # their sup); the report is the one from every draw's exact norm
        r = 0.6

        def kernel_powers(log_kernel, t):  # (K - 1) t^k, k = 0..8, as _bound_checker sums them
            return np.cumprod([np.expm1(log_kernel)] + [t] * 8, axis=0)

        for p in DECIDING_PS:
            violated = 0
            with monkeypatch.context() as patch:
                forbid_sups_below_inf(p, patch)
                for seed in range(40):
                    n = (3, 4, 5, 10)[seed % 4]
                    ctx = BallContext(n, p)
                    bound_moments = quadrature._site_integral(n, r, 128, 1.0, kernel_powers)
                    draws = verify._random_poly_draws(n, 1000, seed, 128)
                    norms = verify._exact_norms(ctx, *draws)
                    check = verify._ratio_checker(ctx, *draws)
                    try:
                        checks = [(bound_moments, solver.g_p(ctx, r).g_value)]
                    except DomainError:  # G at (10, 1.01, 0.6) is past the solver's domain (ROADMAP item 13)
                        assert (n, p) == (10, 1.01)
                        checks = []
                    for moments, scale in checks + [(verify._grad_moments(n, 128), grad_constant(ctx))]:
                        lhs = np.abs(draws[1] @ moments)
                        for factor in (1.0, 0.5, 0.0):
                            expected = verify._ratio_check(lhs, factor * scale * norms)
                            assert check(moments, factor * scale) == expected, (p, seed, scale, factor)
                            violated += expected[0] > 0
                    with pytest.raises(DomainError, match="NaN"):
                        check(np.where(np.arange(9) == seed % 9, math.nan, bound_moments), 1.0)
            assert violated >= 40, p  # the halved scale violates on every seed, for at least one check

    def test_deciding_draws_on_crafted_data(self, monkeypatch):
        rows = crafted_rows()
        moments = verify._grad_moments(4, 128)
        for p in DECIDING_PS:
            ctx = BallContext(4, p)
            with monkeypatch.context() as patch:
                forbid_sups_below_inf(p, patch)
                for subset in ([0], [1], [0, 1, 2, 3, 4, 5], [0, 4], [5]):  # a zero draw, count 1, ...
                    draws = verify._poly_data(4, rows[subset], 128)
                    norms = verify._exact_norms(ctx, *draws)
                    lhs = np.abs(draws[1] @ moments)
                    check = verify._ratio_checker(ctx, *draws)
                    for scale in (grad_constant(ctx), 1.0, 1e-3, 0.0):
                        expected = verify._ratio_check(lhs, scale * norms)
                        assert check(moments, scale) == expected, (p, subset, scale)
                    for moment in range(9):  # a NaN moment decides nothing, even for a zero draw
                        with pytest.raises(DomainError, match="NaN"):
                            check(np.where(np.arange(9) == moment, math.nan, moments), 1.0)
            assert check(moments, 1e-3)[0] == 1, p  # subset [5]

    @pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 2.0, 3.0, 20.0, 1000.0, 1e5])
    def test_norm_floors_stay_below_the_exact_norms(self, p):
        # the block power-mean floors, lowered by the margin, never exceed the
        # norms they stand in for: on 40 seeds of 1000 draws per n, zero
        # draws, a single draw and the crafted rows
        def floors_and_norms(n, coeffs):
            ctx = BallContext(n, p)
            rule, centered = verify._poly_data(n, coeffs, 128)
            return verify._norm_floors(ctx, rule, centered), verify._exact_norms(ctx, rule, centered)

        for n in (3, 4, 5, 10, 30, 100):
            for seed in range(40):
                rule, coeffs = verify._random_poly_draws(n, 1000, seed, 128)
                ctx = BallContext(n, p)
                floors = verify._norm_floors(ctx, rule, coeffs)
                assert np.all(floors <= verify._exact_norms(ctx, rule, coeffs)), (n, seed)
            for coeffs in (np.zeros((3, 9)), crafted_rows(), crafted_rows()[5:],
                           np.random.default_rng(n).uniform(-1.0, 1.0, (1, 9))):
                floors, norms = floors_and_norms(n, coeffs)
                assert np.all(floors <= norms), (n, coeffs)
        floors, norms = floors_and_norms(4, np.zeros((2, 9)))
        assert np.array_equal(floors, [0.0, 0.0]) and np.array_equal(norms, [0.0, 0.0])

    def test_few_exact_norms(self, monkeypatch):
        # at finite p too, only the draws that can decide take an exact norm
        rows = []
        real_norms = verify._exact_norms
        monkeypatch.setattr(verify, "_exact_norms",
                            lambda ctx, rule, coeffs: rows.append(len(coeffs)) or real_norms(ctx, rule, coeffs))
        report = random_bound_check(BallContext(4, 3.0), 0.6, count=1000, seed=42)
        assert report.violations == 0 and 1 <= sum(rows) <= 50

    def test_ratio_check_refuses_nan(self):
        # each passed as "no violation", reading (0, nan), (0, 0.0) and (0, nan)
        for lhs, bound in (([math.nan, 0.5], [1.0, 1.0]), ([0.5], [math.nan]), ([math.inf], [math.inf])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="NaN"):
                    verify._ratio_check(lhs, bound)
        # bound 0, and a finite lhs over an infinite bound, still read ratio 0
        assert verify._ratio_check([0.5, 2.0], [0.0, math.inf]) == (0, 0.0)

    @pytest.mark.parametrize("check", [
        lambda: random_bound_check(BallContext(4, math.inf), 0.5, count=1000, seed=42),
        lambda: random_grad_check(BallContext(4, math.inf), count=1000, seed=42),
    ], ids=["random_bound_check", "random_grad_check"])
    def test_few_exact_sups(self, check, monkeypatch):
        # 1 of the 1000 draws needs one here
        rows = []
        real_sups = verify._poly_sups
        monkeypatch.setattr(verify, "_poly_sups", lambda c: rows.append(len(c)) or real_sups(c))
        check()
        assert 1 <= sum(rows) <= 50

    # pinned from the p-norm that took |values|^p in two fresh temporaries;
    # the in-place form is the same arithmetic, so every bit must agree.  The
    # (3, 2, 0.5) and (5, 1.7, 0.9) pins then moved by 2 and 1 ulp when each
    # exact norm came from its own draw alone (node values by einsum, weighted
    # sums row by row, not the draw matrix's products): on these draws the
    # new norms are within 2.3e-16 of 40-digit sums at the same nodes and
    # weights, the old ones within 3.7e-16.  The
    # bound pins follow u(r axis) - u(0) from the moments of K - 1 on the
    # graded rule: each was within 7.4e-15 relative of the ratio at its
    # maximizing draw's 30-digit mpmath u(r axis) - u(0), as the moments of K
    # were of u(r axis) (Gauss-Jacobi kernel sums had it 1e-15, 3e-13 and 2e-8
    # off), with the norms of an earlier Gauss-Jacobi rule, which put them up
    # to 1.1e-13 from these; the p = 2 norms of the n = 3 draws are now
    # within 4.4e-16 of the exact ones.  The (5, 1.7, 0.9) pin moved with G
    # from the lean layout (0.04407694078281198 on the full one): draw 668's
    # ratio with 40-digit mpmath u(r axis) - u(0) and G is 0.044076940782558
    # at its rule norm, 5.8e-12 below both pins (G's pole error, ROADMAP open
    # item 1), and 0.044077124915177 at its exact norm (open item 4)
    @pytest.mark.parametrize("check, expected", [
        (lambda: random_bound_check(BallContext(4, 3.0), 0.6, count=1000, seed=3),
         0.9889803881064768),
        (lambda: random_bound_check(BallContext(3, 2.0), 0.5, count=1000, seed=3),
         0.9957236723260433),
        (lambda: random_bound_check(BallContext(5, 1.7), 0.9, count=1000, seed=3),
         0.044076940782812046),
        (lambda: random_grad_check(BallContext(4, 3.0), count=1000, seed=3),
         0.9940261725469652),
        (lambda: random_grad_check(BallContext(4, math.inf), count=1000, seed=3),
         0.6902115758859212),
    ], ids=["bound-4-3-0.6", "bound-3-2-0.5", "bound-5-1.7-0.9", "grad-4-3", "grad-4-inf"])
    def test_reports_are_pinned(self, check, expected):
        assert check() == RandomBoundReport(1000, 3, 0, expected)

    @pytest.mark.parametrize("check", [
        lambda: random_bound_check(BallContext(4, 3.0), 0.6, count=1000, seed=3),
        lambda: random_grad_check(BallContext(4, 3.0), count=1000, seed=3),
    ], ids=["random_bound_check", "random_grad_check"])
    def test_one_draw_matrix_at_a_time(self, check):
        # the peak stays below one 1000 x 128 matrix of doubles, where a fresh
        # |values| and its power took three: the finite-p floors take no node
        # values, and only the deciding draws are evaluated at the nodes
        check()  # warm the rule, monomial and g_p caches
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 1000 * 128 * 8

    @pytest.mark.parametrize("p", [1.1, 2.0, 3.0, 20.0])
    def test_poly_norms_in_place(self, p):
        # the in-place power, weighting and row sums are the plain arithmetic
        ctx = BallContext(4, p)
        rule, coeffs, values = random_draws(4, 200, 5)
        expected = ((np.abs(values) ** p * rule.weights).sum(axis=1)) ** (1.0 / p)
        assert np.array_equal(verify._poly_norms(ctx, rule, coeffs), expected)

    @pytest.mark.parametrize("p", [1.1, 3.0, 20.0])
    def test_each_norm_from_its_own_draw(self, p):
        # a zero draw's power sum leaves range; it alone is rescaled, where it
        # moved every other draw to its scaled norm.  A draw's norm alone has
        # the bits it has among 200, where a matrix-vector product with the
        # weights gave other bits for about 4 in 10 of these draws
        ctx = BallContext(4, p)
        rule, coeffs, _ = random_draws(4, 200, 5)
        alone = verify._poly_norms(ctx, rule, coeffs)
        norms = verify._poly_norms(ctx, rule, np.vstack([coeffs, np.zeros((1, coeffs.shape[1]))]))
        assert norms[-1] == 0.0 and np.array_equal(norms[:-1], alone)
        singles = [verify._poly_norms(ctx, rule, coeffs[i:i + 1])[0] for i in range(0, 200, 7)]
        assert np.array_equal(singles, alone[::7])

    def test_large_p_draws_in_range_keep_their_unscaled_norms(self):
        # at p = 1000 some draws' power sums stay in range: those keep the
        # unscaled norm's bits, and only the others are rescaled
        p = 1000.0
        ctx = BallContext(3, p)
        rule, coeffs, values = random_draws(3, 1000, 42)
        with np.errstate(over="ignore", under="ignore"):
            sums = (np.abs(values) ** p * rule.weights).sum(axis=1)
        kept = (verify._POWER_SUM_MIN <= sums) & (sums < math.inf)
        assert 0 < np.count_nonzero(kept) < len(kept)
        norms = verify._poly_norms(ctx, rule, coeffs)
        assert np.array_equal(norms[kept], sums[kept] ** (1.0 / p))

    @pytest.mark.parametrize("p", [200.0, 1000.0, 1e5])
    def test_large_p_norms_keep_every_draw(self, p):
        # |value|^p leaves double range: at p = 1000, 301 of these 1000 norms
        # were inf and 48 were 0, each a draw silently counted as ratio 0
        ctx = BallContext(3, p)
        rule, coeffs, values = random_draws(3, 1000, 42)
        logs = p * np.log(np.abs(values)) + np.log(rule.weights)
        top = logs.max(axis=1)  # log of the sum, shifted by the largest term
        expected = np.exp((top + np.log(np.exp(logs - top[:, None]).sum(axis=1))) / p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = verify._poly_norms(ctx, rule, coeffs)
        assert np.allclose(norms, expected, rtol=1e-13, atol=0.0)

    def test_large_p_certificates_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = random_bound_check(BallContext(3, 1000.0), 0.5)
            grad = random_grad_check(BallContext(3, 1000.0))
        assert bound.violations == 0 and 0.5 < bound.max_ratio <= 1.0
        assert grad.violations == 0 and 0.5 < grad.max_ratio <= 1.0

    def test_monomial_table_is_shared_and_read_only(self):
        table, moments = verify._monomials(4, 128)
        assert verify._monomials(4, 128)[0] is table and not table.flags.writeable
        assert verify._monomials(4, 128)[1] is moments and not moments.flags.writeable
        assert np.array_equal(table, verify.build_rule(4, 128).nodes ** np.arange(9)[:, None])

    @pytest.mark.parametrize("order", [8, 128])
    @pytest.mark.parametrize("n", [3, 4, 5, 10, 30])
    def test_moment_vector(self, n, order):
        # the rule's integrals of t^k, k = 0..9: the sphere moments of one coordinate
        exact = [special.alpha_q(n, k) if k % 2 == 0 else 0.0 for k in range(10)]
        assert verify._monomials(n, order)[1] == pytest.approx(exact, rel=0, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5])
def test_draw_extensions_against_mpmath(n):
    # |u(r axis)| of single draws, read back from the ratio to G_inf ||g||_inf
    # (both closed forms); Gauss-Jacobi kernel sums had it 0.78 and 1.6 off at n = 3
    pytest.importorskip("mpmath")
    from mpmath import mp

    ctx = BallContext(n, math.inf)
    for seed in (1, 2):
        centered = verify._random_poly_draws(n, 1, seed, 128)[1][0]
        for r, tol in ((0.99, 1e-12), (0.999, 1e-9)):
            ratio = random_bound_check(ctx, r, count=1, seed=seed).max_ratio
            u = ratio * solver.g_inf_closed(n, r)[1] * verify._poly_sups(centered[None])[0]
            split = [1.0 - (1.0 - r) ** 2 / (2.0 * r) * 10.0 ** k for k in range(3, -1, -1)]
            ref = mp_zonal(n, lambda t: mp_kernel(n, r, t) * mp.polyval(centered[::-1].tolist(), t),
                           split=split)
            assert abs(u - abs(ref)) <= tol, (seed, r, u, ref)


def per_row_sup(coeffs):
    """Reference sup of |polynomial| on [-1, 1]: one root finding per row."""
    poly = np.polynomial.Polynomial(coeffs)
    candidates = [-1.0, 1.0]
    deriv = poly.deriv()
    if deriv.degree() >= 1:
        roots = deriv.roots()
        real = roots[np.abs(roots.imag) < 1e-12].real
        candidates.extend(float(x) for x in real if -1.0 < x < 1.0)
    return float(np.max(np.abs(poly(np.asarray(candidates)))))


class TestPolySups:
    def test_matches_per_row_roots(self):
        coeffs = np.random.default_rng(2024).uniform(-1.0, 1.0, (2000, 9))
        reference = np.array([per_row_sup(c) for c in coeffs])
        assert np.all(np.abs(verify._poly_sups(coeffs) - reference) <= 1e-15 * reference)

    def test_never_below_a_fine_grid(self):
        coeffs = np.random.default_rng(77).uniform(-1.0, 1.0, (200, 9))
        grid = np.cos(np.linspace(0.0, math.pi, 20001))
        grid_max = np.abs(np.polynomial.polynomial.polyval(grid, coeffs.T)).max(axis=1)
        assert np.all(verify._poly_sups(coeffs) >= grid_max * (1.0 - 1e-14))

    def test_vanishing_leading_coefficients(self):
        # vanishing leading coefficients: exact, and no division warning
        coeffs = np.zeros((5, 9))
        coeffs[0, 1] = 1.0                   # t
        coeffs[1, 0] = -3.0                  # constant
        coeffs[2, [0, 2]] = 0.25, -1.0       # 1/4 - t^2
        coeffs[3, [1, 3]] = 3.0, -4.0        # -T_3
        coeffs[4, :8] = 0.5                  # degree 7, sup at t = 1
        reference = [1.0, 3.0, 0.75, 1.0, 4.0]
        assert verify._poly_sups(coeffs) == pytest.approx(reference, rel=1e-15, abs=0)


class TestMinimizingSequence:
    def test_increases_to_the_bound(self):
        n, r = 3, 0.5
        g1 = g_1_closed(n, r)[1]
        values = [minimizing_sequence_p1(n, r, i) for i in (2, 4, 8, 16, 32, 64)]
        assert np.all(np.diff(values) > 0.0)
        assert all(v <= g1 * (1.0 + 1e-9) for v in values)
        assert values[-1] == pytest.approx(g1, rel=0.02, abs=0)

    def test_index_validation(self):
        with pytest.raises(DomainError):
            minimizing_sequence_p1(3, 0.5, 0)
        with pytest.raises(DomainError):
            minimizing_sequence_p1(3, 0.5, 2.5)

    def test_cap_underflow_at_extreme_index(self):
        # a cap of angular radius 1e-170 still answers: u_i is G_1 to rounding
        assert minimizing_sequence_p1(3, 0.5, 10 ** 170) == pytest.approx(40.0 / 9.0, rel=1e-15, abs=0)
        with pytest.raises(CapUnderflowError):
            minimizing_sequence_p1(3, 0.5, 10 ** 400)

    def test_cap_measure_dimension_three(self):
        # n = 3: the cap {angle <= phi} has measure sin^2(phi/2), so the pair is
        # rational in s = 1/(4 i^2) and rho^2; exact in fractions for dyadic r,
        # over caps from 1 - t = 1/8 down to 1 - t = 1/(2 i^2) = 1.0e-12
        for r in (2.0 ** -40, 0.5, 0.9, 0.99, 0.999):
            rho2 = ((1 + Fraction(r)) / (1 - Fraction(r))) ** 2
            for i in (2, 3, 71, 7072, 707107):
                s = Fraction(1, 4 * i * i)
                exact = (rho2 * s / (1 - s + rho2 * s) - s / (rho2 * (1 - s) + s)) / (2 * s)
                assert minimizing_sequence_p1(3, r, i) == pytest.approx(float(exact), rel=1e-13, abs=0), (r, i)

    def test_cap_measure_dimension_four(self):
        # n = 4: the cap {angle <= phi} has measure (phi - sin(phi) cos(phi)) / pi
        from mpmath import mp

        with mp.workdps(60):
            for r in (1e-9, 0.3, 0.75, 0.99):
                rho = (1 + mp.mpf(r)) / (1 - mp.mpf(r))
                for i in (2, 5, 64, 40000):
                    tau = mp.tan(mp.asin(1 / mp.mpf(2 * i)))
                    measure = lambda phi: phi - mp.sin(phi) * mp.cos(phi)
                    ring = measure(2 * mp.atan(rho * tau)) - measure(2 * mp.atan(tau / rho))
                    exact = float(ring / (2 * measure(2 * mp.atan(tau))))
                    assert minimizing_sequence_p1(4, r, i) == pytest.approx(exact, rel=1e-13, abs=0), (r, i)

    def test_cap_underflow(self):
        # the refusal sits where tan(psi/2) = tan(theta/2) (1 - r)/(1 + r) leaves
        # the normal doubles: about 2^-1021 / 3 at r = 1/2, and 2^-1019 / 3 answers
        assert minimizing_sequence_p1(3, 0.5, 2 ** 1018) == pytest.approx(40.0 / 9.0, rel=1e-15, abs=0)
        for n, r, index in ((3, 0.5, 2 ** 1020), (10, 0.999, 2 ** 1012), (3, 0.5, 10 ** 310)):
            with pytest.raises(CapUnderflowError, match="double precision"):
                minimizing_sequence_p1(n, r, index)

    def test_rejects_bad_dimension(self):
        for n in (2, 1, 0, -3, 3.5):
            with pytest.raises(DomainError, match="dimension"):
                minimizing_sequence_p1(n, 0.5, 64)

    def test_matches_mpmath_cap_measures(self):
        # includes four points where the 64-node cap rule of K missed the kernel's peak
        missed = {(10, 0.99, 2), (64, 0.9, 2), (3, 0.99, 2), (30, 0.9, 2)}
        rows = []
        for n in (3, 4, 5, 10, 30, 64, 100):
            for r in (1e-12, 1e-6, 0.1, 0.5, 0.9, 0.99, 0.999):
                if (n - 1) * math.log((1.0 + r) / (1.0 - r)) > 700.0:
                    continue
                rows += [(n, r, i) for i in (2, 4, 16, 64, max(64, math.ceil(4 * n / (1.0 - r))))]
        assert len(rows) == 240 and missed <= set(rows)
        # and caps down to 1 - t = 1 / (2 i^2) = 3.1e-12
        rows += [(3, 0.5, 400000), (10, 0.99, 400000), (100, 1e-6, 400000)]
        for n, r, i in rows:
            exact = mp_cap_pair(n, r, i)
            assert minimizing_sequence_p1(n, r, i) == pytest.approx(exact, rel=1e-13, abs=0), (n, r, i)

    def test_matches_mpmath_at_large_dimensions(self):
        for n, limit in ((300, 1e-12), (1000, 1e-11)):
            for r in (1e-6, 0.1, 0.3):
                for i in (1, 2, 64, max(64, math.ceil(4 * n / (1.0 - r)))):
                    exact = mp_cap_pair(n, r, i, dps=90)
                    assert minimizing_sequence_p1(n, r, i) == pytest.approx(exact, rel=limit, abs=0), (n, r, i)

    def test_moebius_form_against_the_kernel_integral(self):
        # the cap integrals of K itself, by mpmath quadrature in t
        for n, r, i in ((4, 0.9, 16), (10, 0.99, 2)):
            edge = 1.0 - 1.0 / (2.0 * i * i)
            signed = lambda t: mp_kernel(n, r, t) * ((t >= edge) - (t <= -edge))
            ring = mp_zonal(n, signed, split=(-edge, edge))
            cap = mp_zonal(n, lambda t: float(t >= edge), split=(-edge, edge))
            assert minimizing_sequence_p1(n, r, i) == pytest.approx(ring / (2.0 * cap), rel=1e-13, abs=0)

    def test_refusals_and_the_centre(self):
        assert minimizing_sequence_p1(3, 0.0, 64) == 0.0
        with pytest.raises(CapUnderflowError, match="n = 1000"):
            minimizing_sequence_p1(1001, 0.1, 64)
        # G_1 itself is past double range here
        with pytest.raises(DomainError, match="double range"):
            minimizing_sequence_p1(1000, 0.9, 2)

    def test_check_reports_powers_of_two(self):
        report = cap_sequence_check(3, 0.5, 100)
        assert report.indices == (2, 4, 8, 16, 32, 64)
        assert report.g1 == g_1_closed(3, 0.5)[1]
        assert report.values[-1] == minimizing_sequence_p1(3, 0.5, 64)
        assert report.rel_gaps[-1] == abs(report.g1 - report.values[-1]) / report.g1
        assert report.passed

    def test_check_fails_short_of_the_limit(self):
        # u_2 is far below G_1, so a sequence stopped there fails the gap limit
        assert not cap_sequence_check(3, 0.5, 2).passed

    def test_check_validation(self):
        for r, i_max in ((0.0, 64), (0.5, 1)):
            with pytest.raises(DomainError):
                cap_sequence_check(3, r, i_max)

    def test_i_max_must_be_an_integer(self):
        # a float i_max raised AttributeError from int.bit_length
        for i_max in (64.0, 2.5, True, "64", None):
            with pytest.raises(DomainError, match="i_max"):
                cap_sequence_check(3, 0.5, i_max)
        assert cap_sequence_check(3, 0.5, np.int64(64)) == cap_sequence_check(3, 0.5, 64)


class TestCorollary:
    def test_constant_data_holds_trivially(self):
        report = corollary_l2_check(3, [5.0])
        assert report.holds_sqrt and report.holds_moment

    def test_identity_data_separates_the_constants(self):
        report = corollary_l2_check(3, [0.0, 1.0])
        assert report.holds_moment and not report.holds_sqrt
        assert report.lhs == pytest.approx(4.0 / 3.0, rel=1e-9, abs=0)
        assert report.rhs_moment == pytest.approx(4.0 / 3.0, rel=1e-9, abs=0)
        assert report.rhs_sqrt == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-9, abs=0)

    def test_rejects_malformed_datum(self):
        for coeffs in ([], [0.0] * 10, [[0.0, 1.0]], [0.0, math.nan], [math.inf]):
            with pytest.raises(DomainError, match="datum"):
                corollary_l2_check(3, coeffs)
        with pytest.raises(DomainError, match="dimension"):
            corollary_l2_check(2, [0.0, 1.0])

    def test_batch_moment_constant_always_holds(self):
        moment, _ = corollary_l2_batch(3, count=300, seed=5)
        assert moment.count == 300 and moment.violations == 0
        assert moment.max_ratio <= 1.0

    def test_batch_ratio_scale_identity(self):
        # both ratios scale the same lhs, so their max quotient is fixed
        moment, sqrt_form = corollary_l2_batch(4, count=100, seed=9)
        c_sqrt = math.sqrt(6.0)
        c_moment = grad_constant(BallContext(4, 2.0))
        assert sqrt_form.max_ratio / moment.max_ratio == pytest.approx(
            c_moment / c_sqrt, rel=1e-12, abs=0
        )

    def test_batch_moment_report_is_the_gradient_check(self):
        # the moment constant is C_2, so its report is random_grad_check's at p = 2
        moment, sqrt_form = corollary_l2_batch(5, count=200, seed=3)
        assert moment == random_grad_check(BallContext(5, 2.0), count=200, seed=3)
        assert sqrt_form.count == 200 and sqrt_form.seed == 3 and sqrt_form.violations > 0
        for n in (3, 4, 5):
            assert corollary_l2_batch(n)[0] == random_grad_check(BallContext(n, 2.0)), n
