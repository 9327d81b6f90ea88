import math
import sys

import numpy as np
import pytest

from hypschwarz.errors import DomainError
from hypschwarz.kernel import (
    BallContext,
    check_radius,
    conjugate_exponent,
    crossing_point,
    kernel_range,
    poisson_szego_axis,
)
from hypschwarz.quadrature import integrate_with_breakpoint


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_context_derives_conjugate():
    assert BallContext(3, 1.5).q == pytest.approx(3.0, rel=1e-15)
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


def test_check_radius():
    assert check_radius(0) == 0.0
    assert check_radius(0.99) == 0.99
    for bad in (-0.1, 1.0, 1.5, math.nan):
        with pytest.raises(DomainError):
            check_radius(bad)


def test_kernel_extremes_dimension_three():
    ctx = BallContext(3, 2.0)
    assert poisson_szego_axis(ctx, 0.5, 1.0) == pytest.approx(9.0, rel=1e-14)
    assert poisson_szego_axis(ctx, 0.5, -1.0) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_kernel_range_product_is_one():
    for n in (3, 4, 6):
        ctx = BallContext(n, 2.0)
        for r in (0.1, 0.5, 0.9, 0.99):
            lo, hi = kernel_range(ctx, r)
            assert lo * hi == pytest.approx(1.0, rel=1e-14)
            assert lo == pytest.approx(((1.0 - r) / (1.0 + r)) ** (n - 1), rel=1e-14)


@pytest.mark.parametrize("r", [0.999, 0.9985])
def test_kernel_range_refuses_subnormal_minimum(r):
    # ((1-r)/(1+r))^99 underflows to 0 at r = 0.999 and is subnormal (its
    # reciprocal overflows) at r = 0.9985.
    ctx = BallContext(100, 1.0)
    with pytest.raises(DomainError, match="double precision"):
        kernel_range(ctx, r)
    lo, hi = kernel_range(ctx, 0.998)
    assert lo >= sys.float_info.min and math.isfinite(hi)


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
    ctx = BallContext(3, 2.0)
    assert crossing_point(ctx, 0.4, 1.0) == pytest.approx(0.4, rel=1e-14)
    lo, hi = kernel_range(ctx, 0.4)
    # levels nudged just inside the range cross just inside the endpoints
    # (at the exact endpoints rounding may land epsilon outside, giving None)
    near_top = crossing_point(ctx, 0.4, hi * (1.0 - 1e-9))
    near_bottom = crossing_point(ctx, 0.4, lo * (1.0 + 1e-9))
    assert near_top is not None and 1.0 - 1e-8 < near_top <= 1.0
    assert near_bottom is not None and -1.0 <= near_bottom < -1.0 + 1e-8
    assert crossing_point(ctx, 0.4, hi * 1.01) is None
    assert crossing_point(ctx, 0.4, lo * 0.99) is None


def test_crossing_point_roundtrip():
    for n in (3, 5):
        ctx = BallContext(n, 2.0)
        for r in (0.2, 0.6, 0.9):
            lo, hi = kernel_range(ctx, r)
            for a in np.geomspace(lo * 1.01, hi * 0.99, 9):
                t = crossing_point(ctx, r, float(a))
                assert t is not None
                assert poisson_szego_axis(ctx, r, t) == pytest.approx(float(a), rel=1e-12)


def test_crossing_point_increasing_in_level():
    ctx = BallContext(4, 2.0)
    lo, hi = kernel_range(ctx, 0.5)
    levels = np.geomspace(lo * 1.01, hi * 0.99, 12)
    points = [crossing_point(ctx, 0.5, float(a)) for a in levels]
    assert all(b > a for a, b in zip(points, points[1:]))


def test_crossing_point_degenerate_cases():
    ctx = BallContext(3, 2.0)
    assert crossing_point(ctx, 0.0, 1.0) is None
    with pytest.raises(DomainError):
        crossing_point(ctx, 0.0, 2.0)
    with pytest.raises(DomainError):
        crossing_point(ctx, 0.5, 0.0)
    with pytest.raises(DomainError):
        crossing_point(ctx, 0.5, math.inf)
