"""Certification helpers: the extremal data of the bound and of the gradient
constant, random bound sampling, the p = 1 minimizing sequence, and the L2
gradient-corollary comparison.

All boundary data are zonal (functions of the axis coordinate t alone), so
their extensions at axis points and the gradient at the origin reduce to
one-dimensional integrals.  Kernel-weighted ones are summed on a site of
``objective``: the sharpness data on the site of a*, the random draws'
kernel moments on the site split at the pole.  The draws are polynomials of
degree <= 8, with means, norms and gradient moment on a Gauss-Jacobi rule.

Every pass/fail decision of a certificate is made here, against the limits
below: reports carry violation counts or a ``passed`` flag, which the CLI
and the acceptance battery only render.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernel import BallContext, check_radius, poisson_szego_axis
from .objective import _site_integral, _split_point
from .quadrature import DEFAULT_ORDER, build_rule, cap_rule, integrate_with_breakpoint
from .solver import g_1_closed, g_p, grad_constant
from .special import check_integer

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

# Relative margin by which a draw's sup floor undercuts its exact sup at
# p = inf, far above the rounding of either (``_ratio_checker``).
_SUP_MARGIN = 1e-12
# Smallest unscaled power sum of a draw (the smallest normal double over
# eps): |value|^p terms that underflow then weigh less than an ulp of it.
_POWER_SUM_MIN = 2.0 ** -970


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
    """Compare u(r axis) of the extremal data with G_p * ||phi||_p.

    For p in (1, inf] the data is phi = sign(K - a*) |K - a*|^(q-1) (the
    exponent q/p is q - 1; at p = inf phi is the bare sign, of norm 1).  Its
    mean, u(r axis) = integral K phi dsigma and integral |phi|^p dsigma are
    one stacked panel sum on the site of a*, split where K crosses a*, and
    the relative gap is pure quadrature error.  For p = 1
    the comparison uses the cap-pair minimizing sequence at index
    i = max(64, ceil(4 n / (1 - r))), whose gap is the genuine (slow)
    convergence deficit of that sequence.  The cap's chord radius 1/i must be
    small against 1 - r; with this index the gap is at most 7e-3 for
    n in {3, 5, 10, 30} and every r <= 0.9999.  Where the cap leaves double
    precision (n = 60 from r = 0.999) the call raises CapUnderflowError.
    """
    return _sharpness(ctx, r, order, g_p)


def _sharpness(ctx: BallContext, r: float, order: int, bound_of) -> SharpnessReport:
    """verify_sharpness with the bound's GpResult from bound_of(ctx, r,
    order): g_p, or the CLI's lookup into one g_p_curve sweep."""
    r = check_radius(r)
    if r == 0.0:
        raise DomainError("sharpness is certified for r in (0, 1)")
    if ctx.p == 1.0:
        bound = g_1_closed(ctx.n, r)[1]
        index = max(64, math.ceil(4 * ctx.n / (1.0 - r)))
        attained = minimizing_sequence_p1(ctx.n, r, index)
        return SharpnessReport(ctx, r, bound, attained, 0.0, abs(bound - attained) / bound)
    result = bound_of(ctx, r, order)
    a_star, expo = result.a_star, ctx.q - 1.0

    def sums(kernel, _):
        dev = kernel - a_star
        data = np.sign(dev) * np.abs(dev) ** expo
        return np.stack([data, kernel * data, np.abs(data) ** ctx.p])

    mean, attained, power = _site_integral(
        ctx.n, r, order, _split_point(ctx, r, a_star), sums
    ).tolist()
    bound = result.g_value * power ** (1.0 / ctx.p)  # the norm is 1 at p = inf
    gap = abs(bound - attained) / max(bound, 2.0 ** -1022)
    return SharpnessReport(ctx, r, bound, attained, mean, gap)


def _gradient_extremal_ratio(ctx: BallContext, order: int = DEFAULT_ORDER) -> float:
    """|grad u(0)| / ||g||_p for the data g = sign(t) |t|^(q-1), which attains
    the gradient constant; |grad u(0)| = 2 (n - 1) |integral t g dsigma|.

    Both integrals are one stacked integral split at the kink t = 0.  At
    p = inf the data is sign(t) and the norm (integral |g|^p)^(1/p) is 1.
    """
    if ctx.p == 1.0:
        raise DomainError("the p = 1 gradient constant is a limit, not attained")
    expo = ctx.q - 1.0

    def sums(t):
        data = np.sign(t) * np.abs(t) ** expo
        return np.stack([t * data, np.abs(data) ** ctx.p])

    moment, power = integrate_with_breakpoint(ctx.n, order, sums, 0.0).tolist()
    return 2.0 * (ctx.n - 1.0) * abs(moment) / power ** (1.0 / ctx.p)


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
    batch size.  Returns ``_poly_data`` of them.
    """
    check_integer(seed, 0, "seed")
    check_integer(count, 1, "count")
    return _poly_data(n, np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 9)), order)


def _poly_data(n: int, coeffs: np.ndarray, order: int):
    """The rule, the coefficient rows (ascending, nine each), the mean of
    each polynomial and its centered values at the nodes of the (n, order)
    zonal rule."""
    rule = build_rule(n, order)
    values = coeffs @ _monomials(n, order)
    means = values @ rule.weights
    values -= means[:, None]
    return rule, coeffs, means, values


def _centered(coeffs, means) -> np.ndarray:
    """Coefficient rows of the centered draws: the mean taken off c_0."""
    centered = coeffs.copy()
    centered[:, 0] -= means
    return centered


def _poly_norms(ctx: BallContext, rule, coeffs, means, values) -> np.ndarray:
    """p-norms of the centered draws; exact sup for p = inf.

    For finite p this consumes ``values``: |values|^p is taken in place, so a
    certificate holds one count x order matrix instead of three.  Read
    anything else from ``values`` before calling.  Where a draw's power sum
    leaves double range (large p), every draw is evaluated again and divided
    by its largest |value| before the power.
    """
    if ctx.p == math.inf:
        return _poly_sups(_centered(coeffs, means))
    np.abs(values, out=values)
    with np.errstate(over="ignore"):
        values **= ctx.p
    sums = values @ rule.weights
    if ((_POWER_SUM_MIN <= sums) & (sums < math.inf)).all():
        return sums ** (1.0 / ctx.p)
    values = np.abs(coeffs @ _monomials(rule.n, rule.order) - means[:, None])
    scale = values.max(axis=1)
    scale[scale == 0.0] = 1.0  # a zero draw keeps norm 0
    return scale * (((values / scale[:, None]) ** ctx.p) @ rule.weights) ** (1.0 / ctx.p)


def _ratio_checker(ctx: BallContext, rule, coeffs, means, values):
    """(lhs, scale) -> ``_ratio_check(lhs, scale * norms)`` for the p-norms
    of the draws of ``_poly_data``; consumes ``values`` as ``_poly_norms``.

    At p = inf the norm is the exact sup, and only the draws that can decide
    the result take one.  A draw's floor, its largest |value| at the rule
    nodes and at t = +-1 less _SUP_MARGIN (|mean| + sum |c_k|), undercuts
    its sup by a relative margin of at least _SUP_MARGIN: both are evaluated
    from the same coefficients and mean to within 2e-15 of that sum, which
    is at least the sup.  So lhs / (scale * floor) is an upper bound on the
    ratio (inf where the floor is not positive).  The draw of the largest
    bound takes its exact sup, and so does every draw whose bound exceeds
    min(that draw's ratio, 1 + BOUND_SLACK); any other draw's ratio is at
    most that minimum, so it neither raises the largest ratio nor violates.
    The floors are taken once, and each exact sup at most once, over every
    call of the checker.
    """
    if ctx.p != math.inf:
        norms = _poly_norms(ctx, rule, coeffs, means, values)
        return lambda lhs, scale: _ratio_check(lhs, scale * norms)
    centered = _centered(coeffs, means)
    ends = np.abs(centered @ np.array([-1.0, 1.0]) ** np.arange(9)[:, None]).max(axis=1)
    floors = np.maximum(np.maximum(values.max(axis=1), -values.min(axis=1)), ends)
    floors -= _SUP_MARGIN * (np.abs(means) + np.abs(coeffs).sum(axis=1))
    sups = np.full(len(coeffs), math.nan)  # exact sups taken so far

    def exact(lhs, scale, rows):
        todo = rows & np.isnan(sups)
        if todo.any():
            sups[todo] = _poly_sups(centered[todo])
        return _ratio_check(lhs[rows], scale * sups[rows])

    def check(lhs, scale):
        bound_floor = scale * floors
        ceiling = np.full_like(lhs, math.inf)
        with np.errstate(over="ignore"):
            np.divide(lhs, bound_floor, out=ceiling, where=bound_floor > 0.0)
        ceiling[(lhs == 0.0) | (scale == 0.0)] = 0.0  # ratio 0 whatever the sup
        deciding = np.zeros(len(lhs), dtype=bool)
        deciding[np.argmax(ceiling)] = True
        deciding |= ceiling > min(exact(lhs, scale, deciding)[1], 1.0 + BOUND_SLACK)
        return exact(lhs, scale, deciding)

    return check


def _grad_moments(ctx: BallContext, rule, values) -> np.ndarray:
    """|grad u(0)| = 2 (n - 1) |integral t g dsigma| of the centered
    polynomials of ``_poly_data``."""
    return 2.0 * (ctx.n - 1.0) * np.abs(values @ (rule.weights * rule.nodes))


def _grad_draws(ctx: BallContext, rule, coeffs, means, values):
    """|grad u(0)| and ||g||_p of the centered polynomials of ``_poly_data``."""
    return _grad_moments(ctx, rule, values), _poly_norms(ctx, rule, coeffs, means, values)


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
    draws.  Degenerate draws with ||g||_p = 0 count as ratio 0.  A draw's
    u(r axis) = integral K (g - mean) dsigma comes from the kernel moments
    M_k = integral K t^k dsigma, k = 0..8: one stacked sum of K, K t, ...,
    K t^8 on the site split at the pole t = 1, where K peaks.
    """
    return _bound_check(ctx, r, count, seed, order, g_p)


def _bound_check(ctx: BallContext, r: float, count: int, seed: int, order: int,
                 bound_of) -> RandomBoundReport:
    """random_bound_check with G_p(r) from bound_of(ctx, r, order), as in
    ``_sharpness``."""
    return _bound_checks(ctx, [r], count, seed, order, bound_of)[0]


def _bound_checks(ctx: BallContext, radii, count: int, seed: int, order: int,
                  bound_of) -> list:
    """``_bound_check`` at each radius of ``radii``, each report the one a
    separate call gives: the draws and their norms, which do not depend on
    r, are taken once, and each radius adds its kernel moments and ratios."""
    radii = [check_radius(r) for r in radii]
    rule, coeffs, means, values = _random_poly_draws(ctx.n, count, seed, order)
    check = _ratio_checker(ctx, rule, coeffs, means, values)
    reports = []
    for r in radii:
        moments = _site_integral(
            ctx.n, r, order, 1.0, lambda kernel, t: np.cumprod([kernel] + [t] * 8, axis=0)
        )
        lhs = np.abs(coeffs @ moments - means * moments[0])
        reports.append(RandomBoundReport(count, seed, *check(lhs, bound_of(ctx, r, order).g_value)))
    return reports


def random_grad_check(
    ctx: BallContext,
    count: int = 1000,
    seed: int = 42,
    order: int = DEFAULT_ORDER,
) -> RandomBoundReport:
    """Sample random centered polynomial data against the gradient constant.

    Tests |grad u(0)| <= C_p ||g||_p * (1 + BOUND_SLACK).
    """
    rule, coeffs, means, values = _random_poly_draws(ctx.n, count, seed, order)
    lhs = _grad_moments(ctx, rule, values)
    check = _ratio_checker(ctx, rule, coeffs, means, values)
    return RandomBoundReport(count, seed, *check(lhs, grad_constant(ctx)))


def minimizing_sequence_p1(n: int, r: float, index: int) -> float:
    """Value u_i(r axis) of the i-th normalized cap-pair boundary data.

    The data is +1/(2 sigma) on the polar cap of chord radius 1/i around the
    north pole (axis coordinate t >= 1 - 1/(2 i^2)), -1/(2 sigma) on its
    antipodal mirror, 0 elsewhere: unit L1 norm and zero mean by symmetry.
    The sequence increases to G_1(r) as i grows.
    """
    r = check_radius(r)
    check_integer(index, 1, "sequence index")
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
    i_max = check_integer(i_max, 2, "i_max")
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


def corollary_l2_check(n: int, coeffs) -> CorollaryL2Report:
    """Compare |grad u(0)| against both candidate L2 corollary constants for
    one datum: the polynomial in t with ascending coefficients ``coeffs``
    (degree <= 8), centered, on the random draws' rule."""
    datum = np.asarray(coeffs, dtype=float)
    if datum.ndim != 1 or not 1 <= datum.size <= 9 or not np.isfinite(datum).all():
        raise DomainError(f"datum must be 1 to 9 finite polynomial coefficients, got {coeffs!r}")
    ctx = BallContext(n, 2.0)
    draws = _poly_data(ctx.n, np.pad(datum, (0, 9 - datum.size))[None], DEFAULT_ORDER)
    lhs, rms = (float(value[0]) for value in _grad_draws(ctx, *draws))
    rhs_sqrt = math.sqrt(2.0 * (ctx.n - 1.0)) * rms
    rhs_moment = grad_constant(ctx) * rms
    holds = [_ratio_check(lhs, rhs)[0] == 0 for rhs in (rhs_sqrt, rhs_moment)]
    return CorollaryL2Report(ctx.n, lhs, rhs_sqrt, rhs_moment, *holds)


def corollary_l2_batch(
    n: int, count: int = 1000, seed: int = 42, order: int = DEFAULT_ORDER
) -> tuple[RandomBoundReport, RandomBoundReport]:
    """Both corollary constants over one set of seeded random polynomial data.

    Returns the reports of the moment constant 2(n-1)/sqrt(n) and of
    sqrt(2(n-1)), each comparing |grad u(0)| with constant * ||g - mean||_2.
    """
    ctx = BallContext(n, 2.0)
    lhs, rms = _grad_draws(ctx, *_random_poly_draws(n, count, seed, order))
    return tuple(
        RandomBoundReport(count, seed, *_ratio_check(lhs, constant * rms))
        for constant in (grad_constant(ctx), math.sqrt(2.0 * (n - 1.0)))
    )
