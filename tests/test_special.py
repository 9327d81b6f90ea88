import math

import numpy as np
import pytest

from hypschwarz.errors import DomainError
from hypschwarz.kernel import BallContext
from hypschwarz.solver import g_2_closed, g_inf_closed
from hypschwarz.special import alpha_q
from hypschwarz.quadrature import build_rule, cap_rule, integrate_with_breakpoint
from conftest import mp_g_2, mp_g_inf


class TestGauss2F1:
    """The hypergeometric factors of the closed forms, checked through
    g_2_closed and g_inf_closed against mpmath."""

    def test_against_mpmath_second_moment_sites(self):
        pytest.importorskip("mpmath")
        for n in (3, 4, 5):
            for r in (0.3, 0.5, 0.8, 0.95):
                assert g_2_closed(n, r) == pytest.approx(mp_g_2(n, r), rel=1e-11)

    def test_against_mpmath_equator_sites(self):
        pytest.importorskip("mpmath")
        for n in (3, 4, 5, 6):
            for r in (0.3, 0.7, 0.95, 0.999):
                assert g_inf_closed(n, r)[1] == pytest.approx(mp_g_inf(n, r), rel=1e-10)

    def test_boundary_equator_site_without_cancellation(self):
        # 1 - w is about 1e-6 here, so rounding w to a double moves it by
        # ~1e-10 relative; the transformed series never forms 1 - w
        pytest.importorskip("mpmath")
        assert g_inf_closed(5, 0.999)[1] == pytest.approx(mp_g_inf(5, 0.999), rel=1e-12)

    def test_closed_forms_on_grid_against_mpmath(self):
        pytest.importorskip("mpmath")
        radii = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97, 0.99, 0.995, 0.999)
        for n in (3, 4, 5, 10, 30, 64, 100):
            for r in radii:
                g2 = g_2_closed(n, r)
                g_inf = g_inf_closed(n, r)[1]
                assert math.isfinite(g2) and math.isfinite(g_inf)
                assert g2 == pytest.approx(mp_g_2(n, r), rel=1e-12)
                assert g_inf == pytest.approx(mp_g_inf(n, r), rel=1e-12)


class TestAlphaQ:
    def test_trivial_moments(self):
        assert alpha_q(3, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert alpha_q(3, 1.0) == pytest.approx(0.5, rel=1e-14)
        for n in range(3, 9):
            assert alpha_q(n, 2.0) == pytest.approx(1.0 / n, rel=1e-13)

    def test_decreasing_in_q(self):
        values = [alpha_q(4, q) for q in (0.5, 1.0, 2.0, 3.5, 7.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_quadrature(self):
        import numpy as np

        for n, q in ((3, 1.5), (4, 2.7), (5, 3.3)):
            numeric = integrate_with_breakpoint(n, 256, lambda t: np.abs(t) ** q, 0.0)
            assert numeric == pytest.approx(alpha_q(n, q), rel=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            alpha_q(2, 1.0)
        with pytest.raises(DomainError):
            alpha_q(3, -0.5)
        with pytest.raises(DomainError):
            alpha_q(3, math.inf)


@pytest.mark.parametrize("entry", [
    lambda n: BallContext(n, 2.0),
    lambda n: build_rule(n, 16),
    lambda n: cap_rule(n, 0.5),
    lambda n: alpha_q(n, 1.0),
    lambda n: g_2_closed(n, 0.5),
    lambda n: g_inf_closed(n, 0.5),
], ids=["BallContext", "build_rule", "cap_rule", "alpha_q", "g_2_closed", "g_inf_closed"])
def test_dimension_checked_alike_everywhere(entry):
    # BallContext(np.int64(3), 2.0) was refused with "got np.int64(3)"
    for n in (2, 3.0, np.float64(4.0), True, "3", None):
        with pytest.raises(DomainError, match=r"^dimension must be an integer >= 3, got "):
            entry(n)
    for n in (3, np.int64(3), np.int32(5)):
        entry(n)
    assert type(BallContext(np.int64(4), 2.0).n) is int
