import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hypschwarz import solver, verify
from hypschwarz.errors import DomainError
from hypschwarz.kernel import (
    BallContext,
    _split_point,
    check_radius,
    conjugate_exponent,
    kernel_range,
    poisson_szego_axis,
)
from hypschwarz.quadrature import integrate_with_breakpoint
from conftest import mp_kernel


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15, abs=0)


def test_context_derives_conjugate():
    assert BallContext(3, 1.5).q == pytest.approx(3.0, rel=1e-15, abs=0)
    assert BallContext(5, 1.0).q == math.inf
    assert BallContext(5, math.inf).q == 1.0


def test_context_validation():
    with pytest.raises(DomainError):
        BallContext(2, 2.0)
    with pytest.raises(DomainError):
        BallContext(3.0, 2.0)
    with pytest.raises(DomainError):
        BallContext(3, 0.5)
    with pytest.raises(DomainError):
        BallContext(3, math.nan)
    # a p that is not a real number: "3" raised a raw TypeError, and "inf"
    # must not become p = inf by float()
    for p in ("3", "inf", None, True, False):
        with pytest.raises(DomainError, match="exponent p"):
            BallContext(3, p)
    # p is stored as a float: g_p's memo returned the context of its first
    # call, p=1 for BallContext(4, 1.0) after BallContext(4, 1)
    for p in (1, 3, np.int64(3), np.float64(3.0)):
        assert type(BallContext(4, p).p) is float
    solver._g_p_numeric.cache_clear()
    for ctx in (BallContext(4, 1), BallContext(4, 1.0)):
        assert repr(solver.g_p(ctx, 0.5).ctx) == "BallContext(n=4, p=1.0, q=inf)"


def test_check_radius():
    assert check_radius(0) == 0.0
    assert check_radius(0.99) == 0.99
    for bad in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(DomainError):
            check_radius(bad)


def test_radius_that_is_not_a_real_number_is_refused():
    # "0.5", None and 0.5+0j raised a raw TypeError from the range test, and a
    # bool answered as r = 0; a radius is refused as BallContext refuses p:
    # not a bool, and a numbers.Real (Decimal is not one)
    ctx = BallContext(4, 3.0)
    calls = (
        lambda r: solver.g_p(ctx, r),
        lambda r: solver.g_p_curve(ctx, [0.3, r]),
        lambda r: solver.g_p_curve(BallContext(4, math.inf), [r]),
        lambda r: solver.solve_a_star(ctx, r),
        lambda r: verify.verify_sharpness(ctx, r),
        lambda r: verify.minimizing_sequence_p1(4, r, 2),
        lambda r: kernel_range(ctx, r),
    )
    for bad in ("0.5", None, 0.5 + 0j, False, True, np.False_, Decimal("0.5")):
        for call in calls:
            with pytest.raises(DomainError, match=r"^radius must lie in \[0, 1\), got "):
                call(bad)
    for good, r in ((Fraction(1, 2), 0.5), (np.float32(0.5), 0.5), (np.int64(0), 0.0)):
        assert type(check_radius(good)) is float and check_radius(good) == r
        assert solver.g_p(ctx, good) == solver.g_p(ctx, r)
        assert solver.g_p_curve(ctx, [0.3, good]) == solver.g_p_curve(ctx, [0.3, r])
        assert kernel_range(ctx, good) == kernel_range(ctx, r)


def test_kernel_extremes_dimension_three():
    ctx = BallContext(3, 2.0)
    assert poisson_szego_axis(ctx, 0.5, 1.0) == pytest.approx(9.0, rel=1e-14, abs=0)
    assert poisson_szego_axis(ctx, 0.5, -1.0) == pytest.approx(1.0 / 9.0, rel=1e-14, abs=0)


def test_kernel_range_product_is_one():
    for n in (3, 4, 6):
        ctx = BallContext(n, 2.0)
        for r in (0.1, 0.5, 0.9, 0.99):
            lo, hi = kernel_range(ctx, r)
            assert lo * hi == pytest.approx(1.0, rel=1e-14, abs=0)
            assert lo == pytest.approx(((1.0 - r) / (1.0 + r)) ** (n - 1), rel=1e-14, abs=0)


@pytest.mark.parametrize("r", [0.999, 0.9985])
def test_kernel_range_refuses_subnormal_minimum(r):
    # ((1-r)/(1+r))^99 underflows to 0 at r = 0.999 and is subnormal (its
    # reciprocal overflows) at r = 0.9985.
    ctx = BallContext(100, 1.0)
    with pytest.raises(DomainError, match="double precision"):
        kernel_range(ctx, r)
    lo, hi = kernel_range(ctx, 0.998)
    assert lo >= sys.float_info.min and math.isfinite(hi)


def test_kernel_keeps_its_digits_near_the_pole():
    # K in its half-angle form on s^2 = (1 - t)/2 has no cancellation at the
    # pole; the form 1 + r^2 - 2 r t was 1.5e-8 off at (4, 0.9999, 1), 5.8e-11
    # at (3, 0.999, 1) and 7.5e-13 at (4, 0.9999, 0.5)
    from mpmath import mp

    points = [(4, 0.9999, 1.0), (3, 0.999, 1.0), (4, 0.9999, 0.5)]
    points += [(10, 0.99, t) for t in (1.0, 1.0 - 1e-7, 0.5)]
    for n, r, t in points:
        with mp.workdps(50):
            expected = float(mp_kernel(n, r, t))
        value = poisson_szego_axis(BallContext(n, 2.0), r, t)
        assert abs(value - expected) <= 8 * (n - 1) * 2.0 ** -52 * expected, (n, r, t)


def test_kernel_constant_at_origin():
    ctx = BallContext(4, 2.0)
    vals = poisson_szego_axis(ctx, 0.0, np.linspace(-1.0, 1.0, 7))
    assert np.all(vals == 1.0)
    assert poisson_szego_axis(ctx, 0.0, 0.3) == 1.0


def test_kernel_rejects_bad_axis_coordinate():
    ctx = BallContext(3, 2.0)
    with pytest.raises(DomainError):
        poisson_szego_axis(ctx, 0.5, 1.5)


def test_kernel_integrates_to_one():
    # split at the pole, where the kernel peaks
    for n in (3, 4, 5, 6):
        ctx = BallContext(n, 2.0)
        for r, tol in ((0.0, 1e-12), (0.3, 1e-12), (0.5, 1e-12), (0.7, 1e-12), (0.9, 1e-12),
                       (0.99, 1e-12), (0.999, 1e-9)):
            mean = integrate_with_breakpoint(n, 128, lambda t: poisson_szego_axis(ctx, r, t), 1.0)
            assert mean == pytest.approx(1.0, abs=tol)


def test_crossing_point_basics():
    n, r = 3, 0.4
    assert _split_point(n, r, 0.0) == pytest.approx(0.4, rel=1e-14, abs=0)
    lo, hi = kernel_range(BallContext(n, 2.0), r)
    # levels nudged just inside the range cross just inside the endpoints
    near_top = _split_point(n, r, math.log(hi * (1.0 - 1e-9)))
    near_bottom = _split_point(n, r, math.log(lo * (1.0 + 1e-9)))
    assert 1.0 - 1e-8 < near_top <= 1.0
    assert -1.0 <= near_bottom < -1.0 + 1e-8
    # a level outside the range splits at the pole where K comes nearest to it
    assert _split_point(n, r, math.log(hi * 1.01)) == 1.0
    assert _split_point(n, r, math.log(lo * 0.99)) == -1.0


def test_crossing_point_roundtrip():
    for n in (3, 5):
        ctx = BallContext(n, 2.0)
        for r in (0.2, 0.6, 0.9):
            lo, hi = kernel_range(ctx, r)
            for a in np.geomspace(lo * 1.01, hi * 0.99, 9):
                t = _split_point(n, r, math.log(a))
                assert poisson_szego_axis(ctx, r, t) == pytest.approx(float(a), rel=1e-12, abs=0)


def test_crossing_point_increasing_in_level():
    ctx = BallContext(4, 2.0)
    lo, hi = kernel_range(ctx, 0.5)
    levels = np.geomspace(lo * 1.01, hi * 0.99, 12)
    points = [_split_point(4, 0.5, math.log(a)) for a in levels]
    assert all(b > a for a, b in zip(points, points[1:]))
