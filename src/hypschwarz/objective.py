"""The shifted-kernel objective and its stationarity function.

For a fixed dimension, radius r and conjugate exponent q in (1, inf), the
quantity minimized over the shift a is

    Phi(a) = ( integral |K(r, .) - a|^q dsigma )^(1/q),

which is strictly convex in a.  Its stationarity is governed by

    F(r, a) = integral (K - a) |K - a|^(q-2) dsigma,

strictly decreasing in a, with d(Phi)/da = -Phi^(1-q) * F.  Every integrand
here is smooth except where K crosses the level a, so all integrals use the
breakpoint-aware rule split at that crossing.

A site is the graded rule's node set split at one point t0 with the kernel
K at its nodes; it depends on (n, r, order, t0) only, not on the integrand,
and the last two sites built are kept.  It is the one place where K is
evaluated on rule nodes, apart from the outer panels of a doubled order
below: F, Phi and dF/da subtract their shift from it, so Phi at a solved
a*, and the residual F(a*), cost one power and one panel sum on the site of
the solve's last F.  The first F of a guessed solve comes with dF/da from
the same power (``_f_and_slope``).  The doubled-order Phi of ``est_error``
evaluates K on the outer panels of its layout only (every panel of a split
at a pole) and reuses the inner panel sums of Phi(a*) (``_phi_and_refined``),
so it builds no site and a certificate right after g_p reads the site of
a*.  The certificates in ``verify`` integrate their kernel-weighted data on
sites too, through ``_site_integral``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernel import BallContext, _axis_kernel, check_radius, crossing_point, kernel_range
from .quadrature import (
    DEFAULT_ORDER,
    _checked,
    _graded_nodes,
    _outer_nodes,
    _panel_sum,
    _panel_sums,
    _side_total,
)

# Floor applied to |K - a| in negative-exponent integrands: a quadrature node
# can land within one rounding step of the crossing, where the computed
# difference may be exactly 0 although the true distance never is.
_DEV_FLOOR = 2.0 ** -52


@dataclass(frozen=True)
class ObjectiveParams:
    """Evaluation site for the objective: context, radius in (0, 1), rule order.

    At r = 0 the kernel is identically 1: a*(0) = 1 and G_p(0) = 0 exactly.
    """

    ctx: BallContext
    r: float
    order: int = DEFAULT_ORDER

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ctx.q) and self.ctx.q > 1.0):
            raise DomainError(
                f"objective needs a finite conjugate exponent q > 1, got q = {self.ctx.q!r}"
            )
        if check_radius(self.r) == 0.0:
            raise DomainError("objective is defined for r in (0, 1); a*(0) = 1 and G_p(0) = 0")


def _split_point(ctx: BallContext, r: float, a: float) -> float:
    """Where K(r, .) crosses the level a; where it never does, the pole where
    K comes nearest to a: t = 1 for a level above the range, t = -1 below."""
    t0 = crossing_point(ctx, r, a)
    return (1.0 if a > 1.0 else -1.0) if t0 is None else t0


@lru_cache(maxsize=2, typed=True)  # typed: an order of 128.0 must miss 128's site and be refused
def _site(n: int, r: float, order: int, t0: float):
    """(K, node set): the graded rule's node set split at t0 and the kernel
    K(r, .) at its nodes, read-only."""
    nodes = _graded_nodes(n, order, t0)
    kernel = _axis_kernel(n, r, nodes[0])
    kernel.setflags(write=False)
    return kernel, nodes


def _site_integral(n: int, r: float, order: int, t0: float, fn):
    """Zonal integral of fn(K, t), values at the nodes of the site split at
    t0 (an array, or a stack of them for one integral each)."""
    # Overflow leaves non-finite values, which the panel sum refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, nodes = _site(n, r, order, t0)
        return _panel_sum(n, fn(kernel, nodes[0]), nodes)


def _deviation_integral(params: ObjectiveParams, a: float, weight_fn) -> float:
    """Integral of weight_fn(K - a) on the site split where K = a."""
    ctx, r = params.ctx, params.r
    return _site_integral(
        ctx.n, r, params.order, _split_point(ctx, r, a), lambda kernel, _: weight_fn(kernel - a)
    )


def _phi_scale(params: ObjectiveParams, a: float) -> float:
    kmin, kmax = kernel_range(params.ctx, params.r)
    # s is 0 only where the range collapses onto a (r below about 1e-17),
    # where the deviations need no scale.
    return max(kmax - a, a - kmin) or 1.0


def phi(params: ObjectiveParams, a: float) -> float:
    """Phi(a) = (integral |K - a|^q dsigma)^(1/q).

    The deviation is divided by s = max(kmax - a, a - kmin), its largest
    size over the sphere, before the power is taken: |K - a|^q itself
    overflows near r = 1 for large q while Phi = s * (integral |(K - a)/s|^q
    dsigma)^(1/q) is finite.
    """
    q, s = params.ctx.q, _phi_scale(params, a)
    value = _deviation_integral(params, a, lambda dev: np.abs(dev / s) ** q)
    return s * value ** (1.0 / q)


def _phi_and_refined(params: ObjectiveParams, a: float, order: int) -> tuple[float, float]:
    """(Phi(a) at params.order, Phi(a) at ``order``), the bits of two phi calls.

    The layouts of the two orders differ only on the outer panels of each
    side (``_outer_nodes``): every inner panel has the same 12 nodes at the
    same offsets in both, and a split at a pole has no inner panel.  So the
    second Phi evaluates the kernel and the power on the outer panels of
    ``order`` only, takes the inner panel sums of the first, and adds them
    up in the same left-to-right loop.
    """
    ctx, r = params.ctx, params.r
    n, q, s = ctx.n, ctx.q, _phi_scale(params, a)
    t0 = _split_point(ctx, r, a)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, nodes = _site(n, r, params.order, t0)
        per_panel = _panel_sums(np.abs((kernel - a) / s) ** q, nodes)
        value = s * _checked(_side_total(n, per_panel.tolist(), nodes[4])) ** (1.0 / q)
        outer = _outer_nodes(n, order, t0)
        outer_sums = _panel_sums(np.abs((_axis_kernel(n, r, outer[0]) - a) / s) ** q, outer)
    sides = np.concatenate([outer_sums, per_panel[:, outer_sums.shape[-1]:]], axis=-1)
    return value, s * _checked(_side_total(n, sides.tolist(), nodes[4])) ** (1.0 / q)


def big_f(params: ObjectiveParams, a: float) -> float:
    """F(r, a) = integral (K - a)|K - a|^(q-2) dsigma, decreasing in a.

    The integrand is written |K - a|^(q-1) with the sign of K - a, which is
    bounded for every q > 1.
    """
    q = params.ctx.q
    return _deviation_integral(
        params, a, lambda dev: np.copysign(np.abs(dev) ** (q - 1.0), dev)
    )


def _f_and_slope(params: ObjectiveParams, a: float) -> tuple[float, float]:
    """(F(a), dF/da) from one power on one site; F is big_f's bits.

    |K - a|^(q-2) is taken as |K - a|^(q-1) / max(|K - a|, floor), so the
    two integrands are one stacked panel sum.  F is refused like big_f's; the
    slope is returned as it comes, non-finite included, because a caller
    that only steers by it must not lose a point F answers.
    """
    ctx, r = params.ctx, params.r
    q = ctx.q
    floor = _DEV_FLOOR * max(1.0, abs(a))
    t0 = _split_point(ctx, r, a)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, nodes = _site(ctx.n, r, params.order, t0)
        dev = kernel - a
        size = np.abs(dev)
        power = size ** (q - 1.0)
        per_panel = _panel_sums(np.stack([np.copysign(power, dev), power / np.maximum(size, floor)]),
                                nodes).tolist()
    f_value = _checked(_side_total(ctx.n, per_panel[0], nodes[4]))
    return f_value, (1.0 - q) * _side_total(ctx.n, per_panel[1], nodes[4])


def dF_da(params: ObjectiveParams, a: float) -> float:
    """dF/da = (1 - q) * integral |K - a|^(q-2) dsigma  (always negative).

    For q < 2 the integrand has an integrable singularity at the crossing,
    |t - t0|^(q-2): its panel sums shrink by 2^-(q-1) toward the crossing,
    and the geometric tail past the innermost panel is summed from that
    ratio, however near 1.  Against central differences of big_f it is
    within 5e-7 up to p = 100 (n in {3, 4, 5}, r in {0.1, 0.5, 0.8}, at a*
    and 10% off it), and within 6e-6 at p = 700, 1000 and 5000 (n = 4,
    r = 0.5, at a*).
    """
    q = params.ctx.q
    floor = _DEV_FLOOR * max(1.0, abs(a)) if q < 2.0 else 0.0
    return (1.0 - q) * _deviation_integral(
        params, a, lambda dev: np.maximum(np.abs(dev), floor) ** (q - 2.0)
    )
