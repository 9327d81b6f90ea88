"""Certification helpers: the extremal data of the bound and of the gradient
constant, random bound sampling, the p = 1 minimizing sequence, and the L2
gradient-corollary comparison.

All boundary data are zonal (functions of the axis coordinate t alone), so
their extensions at axis points and the gradient at the origin reduce to
one-dimensional integrals.  Kernel-weighted ones sum K - 1 = expm1(log K),
so they read u(r axis) - u(0), on a site of ``quadrature``: the sharpness
data on the site of the solve's own s = log a*, the random draws' kernel
moments on the site split at the pole.  Below ``objective._R_LIN``, where
G_p(r) = C_p r and u(r axis) - u(0) = r grad u(0) . axis, both are the
gradient constant's certificates, on no site.  The draws are polynomials of
degree <= 8, held as centered coefficient rows; their means and gradient
moments come from a Gauss-Jacobi rule's integrals of t^k.  A certificate
decides on cheap norm floors (at finite p, power means of the draws' block
means from the rule's sums of t^k over 16 blocks of its nodes) and takes the
exact norm (the sup, or the rule norm from the nodes) of only the draws
whose floors leave the decision open.

Every pass/fail decision of a certificate is made here, against the limits
below: reports carry violation counts or a ``passed`` flag, which the CLI
and the acceptance battery only render.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapUnderflowError, DomainError
from .kernel import BallContext, _log_range, _split_point, check_radius
from .objective import _R_LIN
from .quadrature import DEFAULT_ORDER, _legendre, _site_integral, build_rule, integrate_with_breakpoint
from .solver import GpResult, g_1_closed, g_p, grad_constant
from .special import check_dimension, check_integer

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

# Margin, in units of a draw's sum |c_k| (a bound of its sup on [-1, 1]), by
# which its norm floor undercuts its exact norm, far above the rounding of
# either (``_norm_floors``).
_SUP_MARGIN = 1e-12
# Contiguous node blocks of the finite-p norm floors (``_norm_floors``).
_BLOCKS = 16
# What numpy raises for an array size it cannot index or allocate (IndexError:
# ``np.linspace`` at 2^63 points, numpy 2.4).
_SIZE_ERRORS = (ValueError, IndexError, MemoryError)
# Smallest unscaled power sum of a draw (the smallest normal double over
# eps): |value|^p terms that underflow then weigh less than an ulp of it.
_POWER_SUM_MIN = 2.0 ** -970


@dataclass(frozen=True)
class SharpnessReport:
    """Attained value u(r axis) - u(0) vs claimed bound for one (ctx, r)."""

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
    """Compare u(r axis) - u(0) of the extremal data with G_p * ||phi||_p.

    For p in (1, inf] the data is phi = sign(K - a*) |K - a*|^(q-1) (the
    exponent q/p is q - 1; at p = inf phi is the bare sign, of norm 1).  Its
    mean u(0), u(r axis) - u(0) = integral (K - 1) phi dsigma and integral
    |phi|^p dsigma are one stacked panel sum on the site of the result's own
    s = log a*, on d = expm1(log K - s) / min(l, 1), whose powers keep their
    digits at small r (log K ranges over [-l, l]); the gap is taken at that
    scale.  The bound is integral |K - a*|^q, and integral (K - 1) phi adds
    (a* - 1) integral phi to it, so attained - bound = (a* - 1) u_at_zero on
    the same nodes: at finite p the gap checks the solve's residual F(a*);
    quadrature error shows at p = inf and in est_error.  For p = 1
    the comparison uses the cap-pair minimizing sequence at index
    i = max(64, ceil(4 n / (1 - r))), whose gap is the genuine (slow)
    convergence deficit of that sequence.  The cap's chord radius 1/i must be
    small against 1 - r; with this index the gap is at most 7e-3 for
    n in {3, 5, 10, 30} and every r <= 0.9999.
    """
    return _sharpness(g_p(ctx, r, order), order)


def _sharpness(result: GpResult, order: int) -> SharpnessReport:
    """verify_sharpness against the GpResult ``result`` (g_p's, or a
    g_p_curve row); below _R_LIN at p > 1, the gradient extremal data's gap
    |C_p - ratio| / C_p, attained r ratio."""
    ctx, r, g_value = result.ctx, result.r, result.g_value
    if r == 0.0:
        raise DomainError("sharpness is certified for r in (0, 1)")
    if ctx.p == 1.0:  # g_value is g_1_closed's
        attained = minimizing_sequence_p1(ctx.n, r, max(64, math.ceil(4 * ctx.n / (1.0 - r))))
        return SharpnessReport(ctx, r, g_value, attained, 0.0, abs(g_value - attained) / g_value)
    if r < _R_LIN:  # G = C_p r: r scales out of the gap
        ratio, constant = _gradient_extremal_ratio(ctx, order), grad_constant(ctx)
        return SharpnessReport(ctx, r, g_value, r * ratio, 0.0, abs(constant - ratio) / constant)
    s, expo, size = result.log_a_star, ctx.q - 1.0, min(_log_range(ctx.n, r), 1.0)

    def sums(log_kernel, _):
        dev = np.expm1(log_kernel - s) / size
        data = np.sign(dev) * np.abs(dev) ** expo
        return np.stack([data, np.expm1(log_kernel) * data, np.abs(data) ** ctx.p])

    mean, attained, power = _site_integral(ctx.n, r, order, _split_point(ctx.n, r, s), sums)
    bound = g_value * power ** (1.0 / ctx.p)  # the norm is 1 at p = inf
    gap = abs(bound - attained) / max(bound, 2.0 ** -1022)
    scale = math.exp(expo * (s + math.log(size)))  # phi = scale sign(d/size) |d/size|^(q-1)
    return SharpnessReport(ctx, r, scale * bound, scale * attained, scale * mean, gap)


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
    for m in set(degree.tolist()) - {0}:  # a set, not np.unique, which loads numpy.ma
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
def _monomials(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only t^k at the nodes of the (n, order) zonal rule (k <= 8), and its integrals (k <= 9)."""
    rule = build_rule(n, order)
    powers = rule.nodes ** np.arange(10)[:, None]
    table, moments = powers[:9], powers @ rule.weights
    table.setflags(write=False)
    moments.setflags(write=False)
    return table, moments


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
    try:
        coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 9))
    except _SIZE_ERRORS as exc:
        raise DomainError(f"count = {count} draws do not fit in memory: {exc}") from None
    return _poly_data(n, coeffs, order)


def _poly_data(n: int, coeffs: np.ndarray, order: int):
    """The (n, order) zonal rule and the centered coefficient rows (ascending,
    nine each: each mean, the row times the rule's moments, taken off c_0)."""
    centered = coeffs.copy()
    centered[:, 0] -= coeffs @ _monomials(n, order)[1][:9]
    return build_rule(n, order), centered


def _node_values(rule, coeffs) -> np.ndarray:
    """The values at the nodes of ``rule`` of the draws with coefficient rows
    ``coeffs``.  einsum (without ``optimize``) sums each value's nine products
    with the monomial table in its own loop, calling no BLAS, so a draw's
    values depend on its own row alone; a matrix product's bits depend on the
    other rows."""
    return np.einsum("ik,kj->ij", coeffs, _monomials(rule.n, rule.order)[0])


def _poly_norms(ctx: BallContext, rule, coeffs) -> np.ndarray:
    """Finite p-norms on ``rule`` of the draws with coefficient rows
    ``coeffs``, each from its own row alone.

    A draw's values come from ``_node_values``; |values|^p and its
    weighting are taken in place and summed row by row, whose bits (unlike a
    matrix product's with the weights) do not depend on the other rows.  A
    draw whose power sum leaves [_POWER_SUM_MIN, inf) (at large p, or a zero
    draw) is evaluated again and divided by its largest |value| before the
    power; the others keep their unscaled norms.
    """
    values = _node_values(rule, coeffs)
    np.abs(values, out=values)
    # |value| <= sum |c_k| <= 9 max |c_k| at nodes inside (-1, 1); 2^-40 covers
    # the rounding of the nine-term sums
    _power(values, ctx.p, (1.0 + 2.0 ** -40) * coeffs.shape[1] * float(np.abs(coeffs).max()))
    values *= rule.weights
    sums = values.sum(axis=1)
    norms = sums ** (1.0 / ctx.p)
    redo = ~((_POWER_SUM_MIN <= sums) & (sums < math.inf))
    if redo.any():
        values = np.abs(_node_values(rule, coeffs[redo]))
        scale = values.max(axis=1)
        scale[scale == 0.0] = 1.0  # a zero draw keeps norm 0
        values /= scale[:, None]
        _power(values, ctx.p, 1.0)
        values *= rule.weights
        norms[redo] = scale * values.sum(axis=1) ** (1.0 / ctx.p)
    return norms


def _exact_norms(ctx: BallContext, rule, coeffs) -> np.ndarray:
    """Each draw's exact norm from its own coefficient row alone: the sup on
    [-1, 1] at p = inf, else the rule norm of its values at the nodes."""
    if ctx.p == math.inf:
        return _poly_sups(coeffs)
    return _poly_norms(ctx, rule, coeffs)


def _power(values, p: float, bound: float) -> None:
    """values **= p for values in [0, bound], in place.  Entries whose power
    is certainly 0 (below 2^-1076) or inf (above 2^1025) are set to it
    first: numpy's power takes a slow path for results that underflow or
    overflow, about 30 times the cost of the others.  No entry is scanned
    for overflow where ``bound`` is at most 2^(1025/p): the random draws'
    coefficients stay below 1 in size after centering (the even moments sum
    below 1), so their bound 9 holds up to p = 323; values near a root can
    still be tiny."""
    bits = 1025.0 / p
    tiny, huge = 2.0 ** (-1076.0 / p), 2.0 ** bits if bits < 1024.0 else math.inf
    if values.min() < tiny:
        values[values < tiny] = 0.0
    if bound > huge and values.max() > huge:
        values[values > huge] = math.inf
    with np.errstate(over="ignore"):  # the entries next to huge
        values **= p


@lru_cache(maxsize=16)
def _block_moments(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only moments of the (n, order) zonal rule on min(order, _BLOCKS)
    contiguous blocks of its nodes: a blocks x 9 matrix whose row b holds the
    sums of w t^k over block b (k <= 8), and each block's weight W_b."""
    blocks = min(order, _BLOCKS)
    member = np.arange(blocks)[:, None] == np.arange(order) * blocks // order
    moments = (member * build_rule(n, order).weights) @ _monomials(n, order)[0].T
    totals = moments[:, 0].copy()
    moments.setflags(write=False)
    totals.setflags(write=False)
    return moments, totals


def _norm_floors(ctx: BallContext, rule, coeffs) -> np.ndarray:
    """Lower bounds of the exact norms (``_exact_norms``) of the draws with
    centered coefficient rows ``coeffs``.

    At p = inf a floor is the draw's largest |g| at the rule nodes and at
    t = +-1.  At finite p it is (sum_b W_b m_b^p)^(1/p) over the blocks b of
    ``_block_moments``, with m_b = |sum_b w g| / W_b: the weights are positive
    and p >= 1, so by the power-mean inequality block b's sum of w |g|^p is
    at least W_b (sum_b w |g| / W_b)^p, and m_b is at most that mean of |g|
    (equal to it on every block where g keeps its sign).  The m_b are the
    coefficients times the block moments, so no node value is taken; each
    draw's are divided by the largest before the power, so no floor
    overflows.

    Either floor is lowered by _SUP_MARGIN sum |c_k|.  That sum bounds |g| on
    [-1, 1], so it bounds the exact norm, and it covers the rounding of both
    routes: each evaluates the same coefficients (as node values, or as
    block sums over W_b) to within about 5e-15 of it, nine-term sums at
    |t| <= 1.  At finite p both routes then take power means, with weights
    summing to 1, of those values, which move by at most the values' largest
    move (Minkowski); their sums, powers and roots round by less than 2e-13
    relative up to order 8192.  So a lowered floor stays below the computed
    exact norm.
    """
    if ctx.p == math.inf:
        values = coeffs @ _monomials(rule.n, rule.order)[0]
        np.abs(values, out=values)
        ends = np.abs(coeffs @ np.array([-1.0, 1.0]) ** np.arange(9)[:, None]).max(axis=1)
        floors = np.maximum(values.max(axis=1), ends)
    else:
        # one row per block, one column per draw: numpy reduces the short
        # columns of a draw's 16 means far faster than its short rows
        moments, totals = _block_moments(rule.n, rule.order)
        means = np.abs(moments @ coeffs.T)
        means /= totals[:, None]
        top = means.max(axis=0)
        means /= np.where(top > 0.0, top, 1.0)
        _power(means, ctx.p, 1.0)
        floors = top * (totals @ means) ** (1.0 / ctx.p)
    return floors - _SUP_MARGIN * (np.abs(coeffs) @ np.ones(coeffs.shape[1]))  # sum |c_k|


def _ratio_checker(ctx: BallContext, rule, coeffs):
    """(moments, scale) -> ``_ratio_check(|coeffs @ moments|, scale * norms)``
    for the exact norms (``_exact_norms``) of the draws of ``_poly_data``.

    Only the draws that can decide the result take their exact norm.  A
    draw's norm floor (``_norm_floors``) makes lhs / (scale * floor) an upper
    bound on its ratio (inf where the floor is not positive).  The draw of
    the largest bound takes its exact norm, and so does every draw whose
    bound exceeds min(that draw's ratio, 1 + BOUND_SLACK); any other draw's
    ratio is at most that minimum, so it neither raises the largest ratio
    nor violates.  Each exact norm is taken at most once per draw over every
    call, from the draw's own coefficients.
    """
    floors = _norm_floors(ctx, rule, coeffs)
    norms = np.full(len(coeffs), math.nan)  # exact norms taken so far

    def exact(lhs, scale, rows):
        todo = rows & np.isnan(norms)
        if todo.any():
            norms[todo] = _exact_norms(ctx, rule, coeffs[todo])
        return _ratio_check(lhs[rows], scale * norms[rows])

    def check(moments, scale):
        lhs = np.abs(coeffs @ moments)
        bound_floor = scale * floors
        ceiling = np.full_like(lhs, math.inf)
        with np.errstate(over="ignore"):
            np.divide(lhs, bound_floor, out=ceiling, where=bound_floor > 0.0)
        ceiling[(lhs == 0.0) | (scale == 0.0)] = 0.0  # ratio 0 whatever the norm
        deciding = np.zeros(len(lhs), dtype=bool)
        deciding[np.argmax(ceiling)] = True
        deciding |= ceiling > min(exact(lhs, scale, deciding)[1], 1.0 + BOUND_SLACK)
        return exact(lhs, scale, deciding)

    return check


def _grad_moments(n: int, order: int) -> np.ndarray:
    """Moments 2 (n - 1) integral t^(k+1) dsigma, k = 0..8: a draw's
    |grad u(0)| = 2 (n - 1) |integral t g dsigma| is |coeffs @ them|."""
    return 2.0 * (n - 1.0) * _monomials(n, order)[1][1:]


def _ratio_check(lhs, bound) -> tuple[int, float]:
    """(violations, max ratio) of lhs / bound over one or more data.

    A datum violates when its ratio exceeds 1 + BOUND_SLACK; data with bound
    0 (zero norm, or G_p(0) = 0) count as ratio 0.  A NaN lhs, bound or ratio
    (inf / inf) decides nothing and raises DomainError.
    """
    lhs, bound = np.atleast_1d(lhs), np.atleast_1d(bound)
    with np.errstate(invalid="ignore"):  # inf / inf is refused below
        ratio = np.divide(lhs, bound, out=np.zeros_like(lhs), where=bound > 0.0)
    if any(np.isnan(array).any() for array in (lhs, bound, ratio)):
        raise DomainError("a certificate ratio is NaN: a datum's value, norm or bound is not a number")
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
    u(r axis) - u(0) = integral (K - 1) (g - mean) dsigma comes from the
    moments M_k = integral (K - 1) t^k dsigma, k = 0..8, of K - 1 = expm1(log K):
    one stacked sum on the site split at the pole t = 1, where K peaks.
    For 0 < r < _R_LIN the report is random_grad_check's: there
    u(r axis) - u(0) = r grad u(0) . axis and G_p(r) = C_p r.
    """
    return _bound_checker(ctx, count, seed, order)(g_p(ctx, r, order))


def _bound_checker(ctx: BallContext, count: int, seed: int, order: int):
    """bound -> random_bound_check's report against the GpResult ``bound``
    (g_p's, or a g_p_curve row).  The draws and their norms do not depend on
    r: they are taken, and count, seed and order refused, when it is built."""
    check = _ratio_checker(ctx, *_random_poly_draws(ctx.n, count, seed, order))

    def report(bound: GpResult) -> RandomBoundReport:
        r = bound.r
        if 0.0 < r < _R_LIN:
            return RandomBoundReport(count, seed, *check(_grad_moments(ctx.n, order), grad_constant(ctx)))
        moments = _site_integral(ctx.n, r, order, 1.0, lambda log_kernel, t: np.cumprod(
            [np.expm1(log_kernel)] + [t] * 8, axis=0))
        return RandomBoundReport(count, seed, *check(moments, bound.g_value))

    return report


def random_grad_check(
    ctx: BallContext,
    count: int = 1000,
    seed: int = 42,
    order: int = DEFAULT_ORDER,
) -> RandomBoundReport:
    """Sample random centered polynomial data against the gradient constant.

    Tests |grad u(0)| <= C_p ||g||_p * (1 + BOUND_SLACK).
    """
    return _grad_reports(ctx, count, seed, order, (grad_constant(ctx),))[0]


def _grad_reports(ctx: BallContext, count: int, seed: int, order: int, constants):
    """random_grad_check's report for each constant in place of C_p, from one draw pass."""
    check = _ratio_checker(ctx, *_random_poly_draws(ctx.n, count, seed, order))
    return tuple(RandomBoundReport(count, seed, *check(_grad_moments(ctx.n, order), constant))
                 for constant in constants)


def minimizing_sequence_p1(n: int, r: float, index: int) -> float:
    """Value u_i(r axis) of the i-th normalized cap-pair boundary data.

    The data is +1/(2 sigma) on the polar cap of chord radius 1/i around the
    north pole (angular radius theta, sin(theta/2) = 1/(2i)), -1/(2 sigma) on
    its antipodal mirror, 0 elsewhere: unit L1 norm and zero mean by symmetry.
    The sequence increases to G_1(r) as i grows.

    No kernel is summed: K(r, .) is the Jacobian of the boundary map
    tan(phi/2) -> rho tan(phi/2), rho = (1 + r)/(1 - r), of the Moebius
    automorphism taking r axis to 0, so K integrates over each cap to the
    measure of its image.  With tau = tan(theta/2), tan(theta'/2) = rho tau
    and tan(psi/2) = tau/rho,

        u_i = integral_psi^theta' sin^(n-2) / (2 integral_0^theta sin^(n-2)),

    both positive Gauss-Legendre sums of (sin phi / sin theta)^(n-2) on
    max(64, (n-2)//2 + 2) nodes, the ring [psi, theta'] by its width
    2 atan(r c), c = 4 tau / ((1 - r^2)(1 + tau^2)), with r multiplied in
    last.  n above 1000 (the dimensions checked against mpmath), or an index
    whose tan(psi/2) is not a normal double, raises CapUnderflowError.
    """
    n, r = check_dimension(n), check_radius(r)
    index = check_integer(index, 1, "sequence index")
    if n > 1000:
        raise CapUnderflowError(f"cap pairs are checked up to n = 1000, got n = {n}")
    half = 1 / (2 * index)  # sin(theta/2); int / int, so a huge index gives 0, not OverflowError
    tau = half / math.sqrt((1.0 - half) * (1.0 + half))
    inner = tau * (1.0 - r) / (1.0 + r)  # tan(psi/2)
    if inner < 2.0 ** -1022:
        raise CapUnderflowError(f"the cap pair at index {index} leaves double precision at r = {r}")
    theta, psi = 2.0 * math.asin(half), 2.0 * math.atan(inner)
    c = 4.0 * tau / ((1.0 - r) * (1.0 + r) * (1.0 + tau * tau))
    x = r * c  # tan of half the ring's width
    nodes, weights = _legendre(max(64, (n - 2) // 2 + 2))
    phi = np.multiply.outer([math.atan(x), 0.5 * theta], 1.0 + nodes)  # ring and cap, from 0
    phi[0] += psi
    with np.errstate(over="ignore"):
        ring, cap = ((np.sin(phi) / math.sin(theta)) ** (n - 2) @ weights).tolist()
    # u_i = atan(x) ring / (theta cap), with r multiplied in last so that tiny radii keep their digits
    value = r * (c * (math.atan(x) / x if x else 1.0) * ring / (theta * cap))
    if not math.isfinite(value):
        raise DomainError(f"the cap pair at index {index} leaves double range at n = {n}, r = {r}")
    return value


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
    r = check_radius(r)
    if not 0.0 < r:
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
    rule, coeffs = _poly_data(ctx.n, np.pad(datum, (0, 9 - datum.size))[None], DEFAULT_ORDER)
    lhs = float(abs(coeffs[0] @ _grad_moments(ctx.n, DEFAULT_ORDER)))
    rms = float(_poly_norms(ctx, rule, coeffs)[0])
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
    return _grad_reports(ctx, count, seed, order, (grad_constant(ctx), math.sqrt(2.0 * (ctx.n - 1.0))))
