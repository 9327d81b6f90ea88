import dataclasses
import math

import numpy as np
import pytest

from hypschwarz.errors import DomainError
from hypschwarz import quadrature, solver
from hypschwarz.kernel import BallContext, kernel_range
from hypschwarz.objective import ObjectiveParams, phi
from hypschwarz.solver import g_1_closed, g_2_closed, g_inf_closed, g_p, g_p_curve, solve_a_star, uh_elementary
from hypschwarz.special import MAX_ORDER, alpha_q
from hypschwarz.quadrature import build_rule, integrate_with_breakpoint
from hypschwarz.verify import cap_sequence_check, minimizing_sequence_p1
from conftest import mp_g_2, mp_g_inf


class TestGauss2F1:
    """The closed forms, whose defining Gauss hypergeometric functions the
    package sums as a terminating series (g_2_closed) and a positive
    recurrence (g_inf_closed), checked against mpmath's 2F1."""

    def test_against_mpmath_second_moment_sites(self):
        pytest.importorskip("mpmath")
        for n in (3, 4, 5):
            for r in (0.3, 0.5, 0.8, 0.95):
                assert g_2_closed(n, r) == pytest.approx(mp_g_2(n, r), rel=1e-11, abs=0)

    def test_against_mpmath_equator_sites(self):
        pytest.importorskip("mpmath")
        for n in (3, 4, 5, 6):
            for r in (0.3, 0.7, 0.95, 0.999):
                assert g_inf_closed(n, r)[1] == pytest.approx(mp_g_inf(n, r), rel=1e-10, abs=0)

    def test_boundary_equator_site_without_cancellation(self):
        # 1 - w is about 1e-6 here, so rounding w to a double moves it by
        # ~1e-10 relative; the transformed series never forms 1 - w
        pytest.importorskip("mpmath")
        assert g_inf_closed(5, 0.999)[1] == pytest.approx(mp_g_inf(5, 0.999), rel=1e-12, abs=0)

    def test_closed_forms_on_grid_against_mpmath(self):
        pytest.importorskip("mpmath")
        radii = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97, 0.99, 0.995, 0.999)
        for n in (3, 4, 5, 10, 30, 64, 100):
            for r in radii:
                g2 = g_2_closed(n, r)
                g_inf = g_inf_closed(n, r)[1]
                assert math.isfinite(g2) and math.isfinite(g_inf)
                assert g2 == pytest.approx(mp_g_2(n, r), rel=1e-12, abs=0)
                assert g_inf == pytest.approx(mp_g_inf(n, r), rel=1e-12, abs=0)


    def test_g_2_at_small_radii(self):
        # (1-r^2)^(1-n) 2F1(...) - 1 cancelled as G_2 -> 0: 1.7e-5 off at
        # r = 1e-6, 0.29 at 1e-8, and a raw ValueError at (10, 1e-9); C_2 r
        # just below 2^-27 was 5.5e-14 off at n = 1000.  The oracle's
        # moment - 1 cancels to G_2^2, so its digits grow with |log10 r|
        pytest.importorskip("mpmath")
        for n in (3, 4, 5, 10, 30, 100, 1000):
            for r in (1e-3, 1e-6, 0.999 * 2.0 ** -27, 1e-9, 1e-15, 1e-50, 1e-150):
                dps = 80 + 2 * round(-math.log10(r))
                assert g_2_closed(n, r) == pytest.approx(mp_g_2(n, r, dps=dps), rel=1e-15, abs=0), (n, r)

    def test_g_inf_at_small_radii(self):
        pytest.importorskip("mpmath")
        for n in (3, 4, 5, 10, 30, 100):
            for r in (1e-3, 1e-6, 1e-9, 1e-15, 1e-300):
                dps = 40 + round(-math.log10(r))
                assert g_inf_closed(n, r)[1] == pytest.approx(mp_g_inf(n, r, dps=dps), rel=2e-13, abs=0.0), (n, r)

    def test_g_inf_against_elementary_forms(self):
        for n in (3, 4, 5):
            for r in np.linspace(0.001, 0.999, 999):
                assert g_inf_closed(n, r)[1] == pytest.approx(uh_elementary(n, r), rel=1e-14, abs=0.0), (n, r)

    def test_g_2_refuses_past_double_range(self):
        with pytest.raises(DomainError, match="G_2"):
            g_2_closed(1000, 0.999)


class TestAlphaQ:
    def test_trivial_moments(self):
        assert alpha_q(3, 0.0) == pytest.approx(1.0, rel=1e-14, abs=0)
        assert alpha_q(3, 1.0) == pytest.approx(0.5, rel=1e-14, abs=0)
        for n in range(3, 9):
            assert alpha_q(n, 2.0) == pytest.approx(1.0 / n, rel=1e-13, abs=0)

    def test_decreasing_in_q(self):
        values = [alpha_q(4, q) for q in (0.5, 1.0, 2.0, 3.5, 7.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_quadrature(self):
        import numpy as np

        for n, q in ((3, 1.5), (4, 2.7), (5, 3.3)):
            numeric = integrate_with_breakpoint(n, 256, lambda t: np.abs(t) ** q, 0.0)
            assert numeric == pytest.approx(alpha_q(n, q), rel=1e-10, abs=0)

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
    lambda n: minimizing_sequence_p1(n, 0.5, 64),
    lambda n: alpha_q(n, 1.0),
    lambda n: g_2_closed(n, 0.5),
    lambda n: g_inf_closed(n, 0.5),
], ids=["BallContext", "build_rule", "minimizing_sequence_p1", "alpha_q", "g_2_closed", "g_inf_closed"])
def test_dimension_checked_alike_everywhere(entry):
    # BallContext(np.int64(3), 2.0) was refused with "got np.int64(3)"
    for n in (2, 3.0, np.float64(4.0), True, "3", None):
        with pytest.raises(DomainError, match=r"^dimension must be an integer >= 3, got "):
            entry(n)
    for n in (3, np.int64(3), np.int32(5)):
        entry(n)
    assert type(BallContext(np.int64(4), 2.0).n) is int


@pytest.mark.parametrize("entry", [
    lambda order: build_rule(3, order),
    lambda order: integrate_with_breakpoint(3, order, np.cos, 0.2),
    lambda order: solve_a_star(BallContext(4, 3.0), 0.5, order),
    lambda order: g_p(BallContext(4, 3.0), 0.5, order),
    lambda order: g_p_curve(BallContext(4, 3.0), [0.5], order),
], ids=["build_rule", "integrate_with_breakpoint", "solve_a_star", "g_p", "g_p_curve"])
def test_order_checked_alike_everywhere(entry):
    # an order past MAX_ORDER is refused before any rule is built: numpy's
    # dense eigensolvers would allocate (order / 2)^2 doubles or more
    for order in (MAX_ORDER + 1, 2 ** 20, 10 ** 30):
        with pytest.raises(DomainError, match=rf"^rule order must be at most {MAX_ORDER}, got {order}$"):
            entry(order)
    for order in (1, 2.0, True):
        with pytest.raises(DomainError, match=r"^rule order must be an integer >= 2, got "):
            entry(order)
    entry(np.int64(16))


def _bits(value):
    """float.hex() of every float in a result (a float, a tuple or a report),
    other fields as they are; a numpy float32 or float16 has no hex()."""
    if dataclasses.is_dataclass(value):
        return [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return [_bits(v) for v in value]
    return value.hex() if isinstance(value, float) or hasattr(value, "dtype") else value


@pytest.mark.parametrize("kind", (np.float32, np.float16))
@pytest.mark.parametrize("entry", [
    lambda x: g_1_closed(4, x),
    lambda x: g_2_closed(4, x),
    lambda x: g_inf_closed(4, x),
    lambda x: uh_elementary(4, x),
    lambda x: alpha_q(4, x),
    lambda x: kernel_range(BallContext(4, 3.0), x),
    lambda x: minimizing_sequence_p1(4, x, 8),
    lambda x: cap_sequence_check(3, x),
    lambda x: g_p(BallContext(4, 3.0), x),
    lambda x: phi(ObjectiveParams(BallContext(4, 3.0), x), 1.0),
], ids=["g_1_closed", "g_2_closed", "g_inf_closed", "uh_elementary", "alpha_q", "kernel_range",
        "minimizing_sequence_p1", "cap_sequence_check", "g_p", "phi"])
def test_numpy_float_arguments_are_converted_where_they_enter(entry, kind):
    # g_inf_closed(4, np.float32(0.5)) returned float32 values; g_1_closed,
    # alpha_q, cap_sequence_check and phi (ObjectiveParams kept r as given)
    # computed in part in float32.  The caches, keyed by value, are emptied
    # before each call: a site built at a float32 radius answers its float.
    def fresh(arg):
        quadrature._site.cache_clear()
        solver._g_p_numeric.cache_clear()
        return _bits(entry(arg))

    for x in (0.3, 0.5, 0.9):
        arg = kind(x)
        assert fresh(arg) == fresh(float(arg)), x
