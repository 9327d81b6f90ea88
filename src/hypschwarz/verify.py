"""Certification helpers: extremal boundary data, random bound sampling,
the p = 1 minimizing sequence, and the L2 gradient-corollary comparison.

Everything works with zonal boundary functions, i.e. functions of the axis
coordinate t alone; their harmonic extensions at axis points and the
gradient at the origin then reduce to one-dimensional integrals.

Every pass/fail decision of a certificate is made here, against the limits
below: reports carry violation counts or a ``passed`` flag, which the CLI
and the acceptance battery only render.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .kernel import BallContext, check_radius, crossing_point, poisson_szego_axis
from .quadrature import DEFAULT_ORDER, build_rule, cap_rule, integrate_with_breakpoint
from .solver import g_1_closed, g_p, grad_constant

#: Multiplicative slack allowed when checking strict inequalities in floats.
BOUND_SLACK = 1e-7
#: Largest relative gap between extremal data and the bound it attains.
SHARPNESS_GAP_LIMIT = 1e-6
#: Largest relative gap between the last cap-pair value and G_1; the p = 1
#: sequence converges slowly, and at index 64 it is within 2% of its limit
#: for radii up to about 0.75.
CAPSEQ_GAP_LIMIT = 0.02
#: Largest drop between consecutive cap-pair values, relative to G_1.
CAPSEQ_MONOTONE_SLACK = 1e-9

_SUP_GRID_SIZE = 8193


@dataclass
class ZonalBoundaryFunction:
    """Boundary data g(t) with its context, cached mean and p-norm.

    ``kink`` declares a known non-smooth point of g so integrals involving
    it can route through the breakpoint-aware rule.
    """

    g: Callable
    ctx: BallContext
    kink: Optional[float] = None
    order: int = DEFAULT_ORDER
    mean: float = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        self.mean = integrate_with_breakpoint(self.ctx.n, self.order, self.g, self.kink)
        self.norm = self._p_norm()

    def _p_norm(self) -> float:
        p = self.ctx.p
        if p == math.inf:
            grid = np.cos(np.linspace(0.0, math.pi, _SUP_GRID_SIZE))
            return float(np.max(np.abs(np.asarray(self.g(grid), dtype=float))))
        value = integrate_with_breakpoint(
            self.ctx.n, self.order, lambda t: np.abs(self.g(t)) ** p, self.kink
        )
        return value ** (1.0 / p)

    def centered(self) -> "ZonalBoundaryFunction":
        shift = self.mean
        base = self.g
        return ZonalBoundaryFunction(
            g=lambda t: base(t) - shift, ctx=self.ctx, kink=self.kink, order=self.order
        )


def poisson_integral_axis(phi: ZonalBoundaryFunction, r: float) -> float:
    """Harmonic extension of phi evaluated at radius r on the axis."""
    r = check_radius(r)
    ctx = phi.ctx
    return integrate_with_breakpoint(
        ctx.n,
        phi.order,
        lambda t: poisson_szego_axis(ctx, r, t) * phi.g(t),
        phi.kink,
    )


def extremal_phi(ctx: BallContext, r: float, order: int = DEFAULT_ORDER) -> ZonalBoundaryFunction:
    """Boundary data attaining G_p(r): sign(K - a*) |K - a*|^(q-1).

    The exponent q/p equals q - 1, covering p = inf (where the data is the
    bare sign of K - a*).  No extremal exists for p = 1; use
    :func:`minimizing_sequence_p1` there.
    """
    r = check_radius(r)
    if ctx.p == 1.0:
        raise DomainError("p = 1 admits no extremal; use minimizing_sequence_p1")
    if r == 0.0:
        raise DomainError("the bound degenerates at r = 0; extremal data needs r > 0")
    a_star = g_p(ctx, r, order).a_star
    expo = ctx.q - 1.0
    t0 = crossing_point(ctx, r, a_star)

    def data(t):
        dev = poisson_szego_axis(ctx, r, t) - a_star
        return np.sign(dev) * np.abs(dev) ** expo

    return ZonalBoundaryFunction(g=data, ctx=ctx, kink=t0, order=order)


def moment_extremal(ctx: BallContext, order: int = DEFAULT_ORDER) -> ZonalBoundaryFunction:
    """Boundary data attaining the gradient constant: |t|^(q-1) sign(t)."""
    if ctx.p == 1.0:
        raise DomainError("the p = 1 gradient constant is a limit, not attained")
    expo = ctx.q - 1.0

    def data(t):
        t = np.asarray(t, dtype=float)
        return np.sign(t) * np.abs(t) ** expo

    return ZonalBoundaryFunction(g=data, ctx=ctx, kink=0.0, order=order)


@dataclass(frozen=True)
class SharpnessReport:
    """Attained value vs claimed bound for one (ctx, r)."""

    ctx: BallContext
    r: float
    g_bound: float
    attained: float
    u_at_zero: float
    rel_gap: float

    @property
    def passed(self) -> bool:
        """The gap is within SHARPNESS_GAP_LIMIT, or CAPSEQ_GAP_LIMIT for p = 1
        (where ``attained`` is the cap pair at index max(64, ceil(4 n / (1 - r))))."""
        return self.rel_gap <= (CAPSEQ_GAP_LIMIT if self.ctx.p == 1.0 else SHARPNESS_GAP_LIMIT)


def verify_sharpness(ctx: BallContext, r: float, order: int = DEFAULT_ORDER) -> SharpnessReport:
    """Construct the extremal data and compare u(r axis) with G_p * ||phi||_p.

    For p in (1, inf] the relative gap is pure quadrature error.  For p = 1
    the comparison uses the cap-pair minimizing sequence at index
    i = max(64, ceil(4 n / (1 - r))), whose gap is the genuine (slow)
    convergence deficit of that sequence.  The cap's chord radius 1/i must be
    small against 1 - r; with this index the gap is at most 7e-3 for
    n in {3, 5, 10, 30} and every r <= 0.9999.  Where the cap leaves double
    precision (n = 60 from r = 0.999) the call raises CapUnderflowError.
    """
    r = check_radius(r)
    if r == 0.0:
        raise DomainError("sharpness is certified for r in (0, 1)")
    if ctx.p == 1.0:
        bound = g_1_closed(ctx.n, r)[1]
        index = max(64, math.ceil(4 * ctx.n / (1.0 - r)))
        attained = minimizing_sequence_p1(ctx.n, r, index)
        return SharpnessReport(ctx, r, bound, attained, 0.0, abs(bound - attained) / bound)
    phi_star = extremal_phi(ctx, r, order)
    attained = poisson_integral_axis(phi_star, r)
    bound = g_p(ctx, r, order).g_value * phi_star.norm
    gap = abs(bound - attained) / max(bound, 2.0 ** -1022)
    return SharpnessReport(ctx, r, bound, attained, phi_star.mean, gap)


def grad_at_origin(phi: ZonalBoundaryFunction) -> float:
    """|gradient| at the origin of the harmonic extension of zonal data,

        |grad u(0)| = 2 (n - 1) | integral t g(t) dsigma |.
    """
    ctx = phi.ctx
    moment = integrate_with_breakpoint(
        ctx.n, phi.order, lambda t: np.asarray(t, dtype=float) * phi.g(t), phi.kink
    )
    return 2.0 * (ctx.n - 1.0) * abs(moment)


def _poly_sups(coeffs: np.ndarray) -> np.ndarray:
    """Exact sup of |polynomial| on [-1, 1] for each row of ascending coefficients.

    The candidates are both endpoints and the real part of every critical
    point, clipped to [-1, 1].  Each lies in the interval, so none can exceed
    the sup, and every real critical point is among them, so the largest
    value is the sup.  The critical points are the eigenvalues of the
    derivatives' companion matrices: one stacked ``eigvals`` call for the rows
    of each derivative degree (one call in all when every leading coefficient
    is nonzero).
    """
    deriv = coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    degree = ((deriv != 0.0) * np.arange(deriv.shape[1])).max(axis=1)
    points = np.full((len(coeffs), deriv.shape[1] + 1), -1.0)
    points[:, -1] = 1.0
    for m in np.unique(degree[degree > 0]):
        rows = degree == m
        d = deriv[rows, : m + 1]
        companion = np.zeros((len(d), m, m))
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1.0
        companion[:, :, -1] = -d[:, :m] / d[:, m:]
        points[rows, :m] = np.linalg.eigvals(companion).real.clip(-1.0, 1.0)
    values = np.zeros_like(points)
    for c in coeffs.T[::-1]:
        values = values * points + c[:, None]
    return np.abs(values).max(axis=1)


@lru_cache(maxsize=16)
def _monomials(n: int, order: int) -> np.ndarray:
    """Read-only table of t^k, k = 0..8, at the nodes of the (n, order) zonal rule."""
    powers = build_rule(n, order).nodes[None, :] ** np.arange(9)[:, None]
    powers.setflags(write=False)
    return powers


def _random_poly_draws(n: int, count: int, seed: int, order: int):
    """Centered random polynomial draws of degree <= 8 on a zonal rule.

    The coefficients are one ``np.random.default_rng(seed)`` stream, uniform
    on [-1, 1) and read row-major: draw i is values 9i to 9i + 8 of it.  A
    smaller count is therefore a prefix of a larger one, the draws depend on
    neither n nor order, and results do not depend on evaluation order or
    batch size.  Returns the rule, the raw coefficient matrix, the mean of
    each draw, and the centered node values.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise DomainError(f"count must be an integer >= 1, got {count!r}")
    rule = build_rule(n, order)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 9))
    values = coeffs @ _monomials(n, order)
    means = values @ rule.weights
    values -= means[:, None]
    return rule, coeffs, means, values


def _poly_norms(ctx: BallContext, rule, coeffs, means, values) -> np.ndarray:
    """p-norms of the centered draws; exact sup for p = inf.

    For finite p this consumes ``values``: |values|^p is taken in place, so a
    certificate holds one count x order matrix instead of three.  Read
    anything else from ``values`` before calling.
    """
    if ctx.p == math.inf:
        centered = coeffs.copy()
        centered[:, 0] -= means
        return _poly_sups(centered)
    np.abs(values, out=values)
    values **= ctx.p
    return (values @ rule.weights) ** (1.0 / ctx.p)


def _grad_draws(ctx: BallContext, count: int, seed: int, order: int):
    """|grad u(0)| = 2 (n - 1) |integral t g dsigma| and ||g||_p of the random draws."""
    rule, coeffs, means, values = _random_poly_draws(ctx.n, count, seed, order)
    lhs = 2.0 * (ctx.n - 1.0) * np.abs(values @ (rule.weights * rule.nodes))
    return lhs, _poly_norms(ctx, rule, coeffs, means, values)


def _ratio_check(lhs, bound) -> tuple[int, float]:
    """(violations, max ratio) of lhs / bound over one or more data.

    A datum violates when its ratio exceeds 1 + BOUND_SLACK; data with bound
    0 (zero norm, or G_p(0) = 0) count as ratio 0.
    """
    lhs, bound = np.atleast_1d(lhs), np.atleast_1d(bound)
    ratio = np.divide(lhs, bound, out=np.zeros_like(lhs), where=bound > 0.0)
    return int(np.count_nonzero(ratio > 1.0 + BOUND_SLACK)), float(ratio.max())


@dataclass(frozen=True)
class RandomBoundReport:
    count: int
    seed: int
    violations: int
    max_ratio: float


def random_bound_check(
    ctx: BallContext,
    r: float,
    count: int = 1000,
    seed: int = 42,
    order: int = DEFAULT_ORDER,
) -> RandomBoundReport:
    """Sample random centered polynomial boundary data against the bound.

    Tests |u(r axis)| <= G_p(r) ||g||_p * (1 + BOUND_SLACK) over ``count``
    draws.  Degenerate draws with ||g||_p = 0 count as ratio 0.
    """
    r = check_radius(r)
    rule, coeffs, means, values = _random_poly_draws(ctx.n, count, seed, order)
    kern = poisson_szego_axis(ctx, r, rule.nodes)
    lhs = np.abs(values @ (rule.weights * kern))
    norms = _poly_norms(ctx, rule, coeffs, means, values)
    return RandomBoundReport(count, seed, *_ratio_check(lhs, g_p(ctx, r, order).g_value * norms))


def random_grad_check(
    ctx: BallContext,
    count: int = 1000,
    seed: int = 42,
    order: int = DEFAULT_ORDER,
) -> RandomBoundReport:
    """Sample random centered polynomial data against the gradient constant.

    Tests |grad u(0)| <= C_p ||g||_p * (1 + BOUND_SLACK).
    """
    lhs, norms = _grad_draws(ctx, count, seed, order)
    return RandomBoundReport(count, seed, *_ratio_check(lhs, grad_constant(ctx) * norms))


def minimizing_sequence_p1(n: int, r: float, index: int) -> float:
    """Value u_i(r axis) of the i-th normalized cap-pair boundary data.

    The data is +1/(2 sigma) on the polar cap of chord radius 1/i around the
    north pole (axis coordinate t >= 1 - 1/(2 i^2)), -1/(2 sigma) on its
    antipodal mirror, 0 elsewhere: unit L1 norm and zero mean by symmetry.
    The sequence increases to G_1(r) as i grows.
    """
    r = check_radius(r)
    if not (isinstance(index, int) and index >= 1):
        raise DomainError(f"sequence index must be an integer >= 1, got {index!r}")
    ctx = BallContext(n, 1.0)
    # indices past ~1e8 collapse the cap to zero width in doubles; clamping
    # keeps the square finite so they fail as CapUnderflowError, not overflow
    t_edge = 1.0 - 1.0 / (2.0 * min(float(index), 1e150) ** 2)
    nodes, weights = cap_rule(n, t_edge)
    sigma = float(np.sum(weights))
    plus = float(np.dot(weights, poisson_szego_axis(ctx, r, nodes)))
    minus = float(np.dot(weights, poisson_szego_axis(ctx, r, -nodes)))
    return (plus - minus) / (2.0 * sigma)


@dataclass(frozen=True)
class CapSequenceReport:
    """Cap-pair values u_i(r) at i = 2, 4, 8, ... with their gaps to G_1(r)."""

    g1: float
    indices: tuple
    values: tuple
    rel_gaps: tuple

    @property
    def passed(self) -> bool:
        """No value drops below its predecessor by more than
        CAPSEQ_MONOTONE_SLACK * G_1, and the last is within CAPSEQ_GAP_LIMIT."""
        slack = CAPSEQ_MONOTONE_SLACK * self.g1
        pairs = zip(self.values, self.values[1:])
        monotone = all(later >= earlier - slack for earlier, later in pairs)
        return monotone and self.rel_gaps[-1] <= CAPSEQ_GAP_LIMIT


def cap_sequence_check(n: int, r: float, i_max: int = 64) -> CapSequenceReport:
    """The cap-pair sequence at every power of two i <= i_max against G_1(r)."""
    if not 0.0 < check_radius(r):
        raise DomainError("the cap sequence is compared with G_1(r) > 0; r must lie in (0, 1)")
    if i_max < 2:
        raise DomainError(f"the sequence needs i_max >= 2, got {i_max!r}")
    g1 = g_1_closed(n, r)[1]
    indices = tuple(2 ** k for k in range(1, i_max.bit_length()))
    values = tuple(minimizing_sequence_p1(n, r, i) for i in indices)
    return CapSequenceReport(g1, indices, values, tuple(abs(g1 - u_i) / g1 for u_i in values))


@dataclass(frozen=True)
class CorollaryL2Report:
    """Both candidate gradient constants evaluated on one L2 datum.

    ``rhs_sqrt`` uses sqrt(2(n-1)); ``rhs_moment`` uses the moment-based
    constant 2(n-1)/sqrt(n) that follows from the sharp gradient bound at
    q = 2, the one the sharp bound actually guarantees for zonal scalar data.
    """

    n: int
    lhs: float
    rhs_sqrt: float
    rhs_moment: float
    holds_sqrt: bool
    holds_moment: bool


def corollary_l2_check(ctx: BallContext, phi: ZonalBoundaryFunction) -> CorollaryL2Report:
    """Compare |grad u(0)| against both candidate L2 corollary constants."""
    if ctx.p != 2.0:
        raise DomainError("the corollary comparison is specific to p = 2")
    centered = phi.centered()
    lhs = grad_at_origin(centered)
    rms = centered.norm
    rhs_sqrt = math.sqrt(2.0 * (ctx.n - 1.0)) * rms
    rhs_moment = grad_constant(ctx) * rms
    return CorollaryL2Report(
        n=ctx.n,
        lhs=lhs,
        rhs_sqrt=rhs_sqrt,
        rhs_moment=rhs_moment,
        holds_sqrt=_ratio_check(lhs, rhs_sqrt)[0] == 0,
        holds_moment=_ratio_check(lhs, rhs_moment)[0] == 0,
    )


def corollary_l2_batch(
    n: int, count: int = 1000, seed: int = 42, order: int = DEFAULT_ORDER
) -> tuple[RandomBoundReport, RandomBoundReport]:
    """Both corollary constants over one set of seeded random polynomial data.

    Returns the reports of the moment constant 2(n-1)/sqrt(n) and of
    sqrt(2(n-1)), each comparing |grad u(0)| with constant * ||g - mean||_2.
    """
    ctx = BallContext(n, 2.0)
    lhs, rms = _grad_draws(ctx, count, seed, order)
    return tuple(
        RandomBoundReport(count, seed, *_ratio_check(lhs, constant * rms))
        for constant in (grad_constant(ctx), math.sqrt(2.0 * (n - 1.0)))
    )
