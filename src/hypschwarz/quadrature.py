"""Quadrature over the unit sphere for integrands that depend only on the
axis coordinate t = <eta, axis>.

The surface integral of such a zonal integrand reduces to one dimension:

    integral f(<eta, axis>) dsigma = c_n * integral_{-1}^{1} f(t) (1-t^2)^((n-3)/2) dt,
    c_n = Gamma(n/2) / (sqrt(pi) * Gamma((n-1)/2)).

The one integrator, ``integrate_with_breakpoint``, splits at the integrand's
non-smooth point t0 (a kink, an integrable power singularity, or the pole
t = 1 where the Poisson kernel peaks).  It substitutes t = cos(theta), which
keeps the Jacobi weight analytic at the poles, and tiles each side of
theta0 = arccos(t0) with panels shrinking geometrically toward the breakpoint
(ratio 1/2, 27 panels per side on the full layout).  The leftover geometric
tail is summed by extrapolating the measured panel-sum ratio, which resolves
any integrable power behaviour without knowing its exponent.  At an interior
breakpoint only the outer J(n) = max(2, ceil(log2(n - 1)) - 4) panels of a
side carry order // 8 Gauss-Legendre nodes (at least 12): every other panel
lies three half-widths from the breakpoint, where 12 nodes already reach
rounding level, and has 12 at any order.  So raising the order refines the
outer panels, where all order-dependent error lives.  A breakpoint at a pole
(t0 = +-1) keeps order // 8 nodes on every panel, as its side is graded
toward the kernel's peak there.  A shift's own sites (``objective``'s F and
Phi, whose integrands vanish at the crossing like a power) take a lean
layout instead: 20 panels per side, 10 nodes on each inner one, the same
outer panels, 424 nodes a site in place of 664 at order 128; a pole split,
or an n whose J(n) reaches 20, keeps the full one (``_layout``).  The nodes
of a side are one flat array with the index of each panel's first node, and
the panel sums one ``np.add.reduceat``.  The layout of a side of unit length
is built once per order and layout and cached; each call only scales it by
the lengths of its two sides and shifts it to theta0.  A node is kept as
s^2 = sin^2(theta/2) = (1 - t)/2, which log K takes (``kernel._log_kernel``),
and s^2 and the sine power come from one numpy tan a node (``_nodes_at``).

A site is one or more node sets of one layout (layout key (outer count,
panel count, inner nodes) and sides), each split at its own t0, with log
K(r, .) at its nodes and r's ``kernel._kernel_constants``: s^2, the sine
powers and log K have shape (sites, sides, nodes), the side lengths are one
tuple per site, and theta0, the kernel constants and the per-site values
of a pass are columns, or floats on a site of one, which broadcast alike.
So a lone site is a stack of one: each build step and each pass has one
body, and every site is a row with the bits of a pass on it alone.  Two
functions build sites.  ``_site`` builds one from ``_graded_nodes``, which
also keeps the layout it decided, all read-only; it depends on (n, r,
order, t0) and the layout only, and the last two built are kept.
``_new_sites`` builds the sites of a sweep's F or G pass, at every point's
shift, in one node pass for each layout (the pole splits form their own
group), with log K built over s^2, as no integrand of t is summed on them;
such a stack lives as long as the pass that sums on it.  One function,
``_site_sums``, sums every zonal integral on any site: it evaluates
fn(log K, s^2) there (on a node set alone for ``integrate_with_breakpoint``,
whose integrands of t take t = 1 - 2 s^2), takes the panel sums and adds
the side totals of each row left to right.
With ``refine`` it also evaluates the outer panels alone (``_outer_nodes``,
rebuilt from the node set, every panel at a pole), all that the order
changes, at est_error's reference order 2 max(order, 96), and splices their
sums over the first order's.  The side totals add each side's panels left
to right in one ``np.add.accumulate`` for all rows, and the tail past the
innermost panel from the last two panel sums on Python floats.  Non-finite
values or totals raise DomainError.  A site pass pays for its node work
only: it runs under one ``_overflow_guard`` per solve, sweep or public
call, not per integral, the order is checked where it enters the package,
and the nodes and log K are built in place.

Every rule is built here on first use, cached and read-only: ``_legendre``
for the graded panels and ``verify``'s p = 1 cap pairs, and ``build_rule``,
the Gauss-Jacobi rule of c_n (1-t^2)^((n-3)/2) dt for the random polynomial
draws in ``verify``, exact for their means and gradient moment; no kernel is
summed on them.  ``build_rule`` is Golub-Welsch at half size: the Jacobi
matrix of that weight has a zero diagonal, so its eigenvalues are +- the
square roots of those of a tridiagonal matrix of order // 2, which numpy's
``eigvalsh`` finds at an eighth of the full problem's dense work.  One
Newton step on the orthonormal three-term recurrence polishes the nodes, and
the same recurrence gives the weights as Christoffel numbers.  A rule whose
nodes are not finite and strictly increasing inside (-1, 1) or whose weights
are not finite and positive is refused with DomainError: its smallest
weights underflow to 0 from n = 1423 at order 512, 444 at 1024, 277 at 2048
and 166 at 8192.  No order above ``special.MAX_ORDER`` is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernel import _kernel_constants, _log_kernel
from .special import check_dimension, check_order

#: Default rule order: the node count of a draw rule; an outer graded panel
#: has order // 8 Gauss-Legendre nodes, at least _PANEL_NODES.
DEFAULT_ORDER = 128

# Panel layout of the graded rule.
_PANEL_RATIO = 0.5
_PANELS = 27  # innermost panel edge at 2^-27 (< 1e-8) of the side length
_PANEL_NODES = 12  # Gauss-Legendre nodes on an inner panel, and on every one up to order 8 * 12
# The lean layout of a shift's own sites (``objective._sites``), whose
# integrands vanish at the crossing like a power: innermost edge at 2^-20,
# 10 nodes on an inner panel.
_LEAN_PANELS = 20
_LEAN_NODES = 10
# A node's orthonormal values are scaled by 2^-_RESCALE_BITS once their sum of
# squares passes _RESCALE_AT: one recurrence step grows them by far less than
# the 2^256 that would take the sum past double range.
_RESCALE_BITS = 256
_RESCALE_AT = 2.0 ** 512
# Relative rounding floor of a breakpoint integral: an ulp for each panel sum
# of its two sides.
_ROUNDING_FLOOR = 2 * _PANELS * 2.0 ** -52
# The largest n whose sine power comes from tan(theta/2): that sine rounds
# about twice as coarsely as np.sin's, n - 2 times over.  Against the 1e-15
# gate of TestGradedLayout.test_inner_panels_at_rounding_level it reads 0.52
# at n = 30, 0.93 at 50, 1.00 at 64 and 1.20 at 100 (np.sin's 0.27-0.66).
_TANGENT_SINE_MAX = 30


@lru_cache(maxsize=64)
def _zonal_constant(n: int) -> float:
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)


@dataclass(frozen=True)
class ZonalQuadrature:
    """Gauss-Jacobi zonal rule: weights @ f(nodes) integrates a polynomial f
    of degree <= 2 * order - 1 against normalized surface measure."""

    n: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64, typed=True)  # typed: its order is checked inside, and 2.0 must not read order 2's rule
def build_rule(n: int, order: int = DEFAULT_ORDER) -> ZonalQuadrature:
    """Gauss-Jacobi zonal rule for dimension n with ``order`` nodes.

    The weights are the Christoffel numbers of c_n (1-t^2)^((n-3)/2) dt and
    sum to 1 up to rounding; the rule is exact for polynomials of degree
    <= 2*order - 1.  The nodes are +-sqrt of the eigenvalues of a tridiagonal
    matrix of half the order (``_jacobi_squared``), and 0 at an odd order,
    each polished by one Newton step on the orthonormal recurrence that also
    sums the weights (``_orthonormal``).  A rule whose smallest weights
    underflow to 0 is refused, without a warning.
    """
    n, order = check_dimension(n), check_order(order)
    k = np.arange(1.0, order + 1.0)
    # b_k, k = 1..order: the recurrence t p_k = b_{k+1} p_{k+1} + b_k p_{k-1}
    # of the orthonormal polynomials, the off-diagonal of the Jacobi matrix.
    b = np.sqrt(k * (k + n - 3) / ((2 * k + n - 3) ** 2 - 1))
    x = np.sqrt(np.maximum(np.linalg.eigvalsh(_jacobi_squared(b)), 0.0))
    if order % 2:
        x = np.concatenate(([0.0], x))
    with np.errstate(all="ignore"):
        p, dp, total, scale = _orthonormal(x, b)
        step = p / dp
        # At a root of p_order, d log K(t, t) / dt = (n - 1) t / (1 - t^2) for
        # K(t, t) = sum of p_k(t)^2: the Christoffel numbers at the polished nodes.
        half = np.ldexp(1.0 / total, -2 * scale) / (1.0 - (n - 1) * x * step / (1.0 - x * x))
        x = x - step
    mirror = slice(None, 0 if order % 2 else None, -1)
    nodes, weights = np.concatenate((-x[mirror], x)), np.concatenate((half[mirror], half))
    nodes_ok = -1.0 < nodes[0] and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)
    if not (nodes_ok and np.all((weights > 0.0) & (weights < np.inf))):
        expo = (n - 3) / 2.0
        raise DomainError(f"the Gauss-Jacobi rule of order {order} with exponents ({expo}, {expo}) "
                          "has nodes or weights outside double range")
    for array in (nodes, weights):
        array.setflags(write=False)
    return ZonalQuadrature(n=n, order=order, nodes=nodes, weights=weights)


def _jacobi_squared(b):
    """B^T B for the Jacobi matrix [[0, B], [B^T, 0]] (zero diagonal, rows
    ordered even then odd) of off-diagonal b: tridiagonal of size
    b.size // 2, diagonal b_{2i-1}^2 + b_{2i}^2 and off-diagonal
    b_{2i} b_{2i+1}, with b_order taken as 0.  Its eigenvalues are the
    squares of the positive nodes.  Only the lower triangle is filled, all
    that ``eigvalsh`` reads."""
    half = b.size // 2
    c = b.copy()
    c[-1] = 0.0
    odd, even = c[0:2 * half:2], c[1:2 * half:2]
    matrix = np.zeros((half, half))
    matrix.flat[::half + 1] = odd * odd + even * even
    matrix.flat[half::half + 1] = even[:-1] * c[2:2 * half:2]
    return matrix


def _orthonormal(x, b):
    """(p_N(x), p_N'(x), sum_{k<N} p_k(x)^2, e) for the orthonormal
    polynomials of the recurrence b, N = b.size: p_N and p_N' scaled by 2^-e
    and the sum by 2^-2e, per node, so that none leaves double range."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    scale = np.zeros(x.shape, dtype=np.int64)
    for b_k, b_next in zip([0.0] + b[:-1].tolist(), b.tolist()):
        total += p * p
        if total.max() > _RESCALE_AT:
            shift = np.where(total > _RESCALE_AT, -_RESCALE_BITS, 0)
            p, p_prev, dp, dp_prev = (np.ldexp(v, shift) for v in (p, p_prev, dp, dp_prev))
            total = np.ldexp(total, 2 * shift)
            scale -= shift
        p, p_prev = (x * p - b_k * p_prev) / b_next, p
        dp, dp_prev = (p_prev + x * dp - b_k * dp_prev) / b_next, dp
    return p, dp, total, scale


@lru_cache(maxsize=16)
def _legendre(count: int):
    """Read-only nodes and weights of the ``count``-point Gauss-Legendre rule
    on [-1, 1], built on first use: importing the package loads no numpy.polynomial."""
    x, w = np.polynomial.legendre.leggauss(count)
    for array in (x, w):
        array.setflags(write=False)
    return x, w


def _outer_panels(n: int) -> int:
    """J(n) = max(2, ceil(log2(n - 1)) - 4), at most _PANELS: how many
    panels of each side, counted from its far end, carry order // 8 nodes
    at an interior breakpoint.  It grows with log2 n because log K, and so
    its variation across a panel of half the width, grows with n - 1."""
    # ceil(log2(n - 1)) is the least m with 2^m >= n - 1.
    return 2 if (outer := (n - 2).bit_length() - 4) < 2 else (outer if outer < _PANELS else _PANELS)


def _layout(n: int, t0: float, lean: bool) -> tuple[int, int, int]:
    """(outer count, panel count, inner nodes) of the graded rule split at
    t0: _PANELS panels of _PANEL_NODES, J(n) of them outer, every one at a
    pole; with ``lean``, _LEAN_PANELS of _LEAN_NODES at an interior split
    where J(n) < _LEAN_PANELS, which leaves inner panels to grade."""
    if abs(t0) == 1.0:
        return _PANELS, _PANELS, _PANEL_NODES
    outer = _outer_panels(n)
    return (outer, _LEAN_PANELS, _LEAN_NODES) if lean and outer < _LEAN_PANELS else (outer, _PANELS, _PANEL_NODES)


@lru_cache(maxsize=32)
def _graded_panels(order: int, outer: int, panels: int, inner: int):
    """Read-only (halves, weights, starts): Gauss-Legendre nodes on the
    graded panels of a side of unit length, as half their offsets from the
    breakpoint (``_nodes_at`` forms theta/2), flat and panel by panel, with
    the index of each panel's first node.  Panel j spans offsets
    [ratio^(j+1), ratio^j], its index growing toward the breakpoint; the
    ``outer`` panels j < outer of a layout (``_layout``) have
    max(_PANEL_NODES, order // 8) nodes, every other one ``inner``.
    ``order`` is checked where it enters the package: est_error's reference
    layout is built at twice an order that passed that check, up to
    2 * MAX_ORDER.
    """
    counts = [max(_PANEL_NODES, order // 8)] * outer + [inner] * (panels - outer)
    edges = _PANEL_RATIO ** np.arange(panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[:-1] - edges[1:])
    halves = 0.5 * np.concatenate([m + h * _legendre(k)[0] for m, h, k in zip(mid, half, counts)])
    weights = np.concatenate([h * _legendre(k)[1] for h, k in zip(half, counts)])
    starts = np.cumsum([0] + counts[:-1])
    for array in (halves, weights, starts):
        array.setflags(write=False)
    return halves, weights, starts


def _graded_nodes(n: int, order: int, t0: float, lean: bool = False):
    """Node set of the graded rule split at t0 as a stack of one: (s^2 =
    (1 - t)/2, sin^(n-2) theta, panel weights, panel starts, theta0, side
    lengths, layout), s^2 and the sine power of shape (1, sides, nodes per
    side), one tuple of side lengths, for a checked order and the
    ``_layout`` of (n, t0, lean).  A pole leaves one side; the empty one gets
    no nodes, as an integrand may be infinite there."""
    theta0, lengths = _split(t0)
    layout = _layout(n, t0, lean)
    return _nodes_at(n, theta0, (lengths,), layout, *_graded_panels(order, *layout))


def _split(t0: float) -> tuple[float, tuple]:
    """(theta0, side lengths) of the split at t0: a pole leaves one side."""
    theta0 = math.acos(t0)
    if -1.0 < t0 < 1.0:  # each side at least acos(1 - 2^-53) > 1e-8 long
        return theta0, (-theta0, math.pi - theta0)
    return theta0, tuple([side for side in (-theta0, math.pi - theta0) if abs(side) > 1e-300])


def _outer_nodes(n: int, order: int, nodes):
    """The outer panels of the node set ``nodes`` rebuilt at ``order``, node
    for node, as a node set of their own: all of it at a pole, a row for
    each site."""
    theta0, lengths, layout = nodes[4:]
    outer, panels, _ = layout
    halves, weights, starts = _graded_panels(order, *layout)
    end = starts[outer] if outer < panels else halves.size
    return _nodes_at(n, theta0, lengths, layout, halves[:end], weights[:end], starts[:outer])


def _nodes_at(n: int, theta0, lengths, layout, halves, weights, starts):
    """The node set of a layout at the breakpoint angles theta0, a float or
    a column, with a tuple of side lengths per site, from tau = tan(theta/2):
    s^2 = tau^2 / (1 + tau^2) (below 1 up to the antipode) and sin theta =
    2 tau / (1 + tau^2), or np.sin's above n = _TANGENT_SINE_MAX."""
    theta = np.multiply.outer(lengths, halves)  # theta/2 = L (o/2) + theta0/2, exactly (L o + theta0)/2
    theta += 0.5 * theta0
    sinpow = np.sin(theta + theta) if n > _TANGENT_SINE_MAX else None
    tau = np.tan(theta, theta)
    s_sq = np.multiply(tau, tau)
    if sinpow is None:
        sec_sq = s_sq + 1.0  # 1 / cos^2(theta/2), freed on return
        sinpow = np.divide(tau, sec_sq, tau)
        sinpow += sinpow
    else:
        sec_sq = np.add(s_sq, 1.0, tau)
    np.divide(s_sq, sec_sq, s_sq)
    if n > 3:  # sin^1 is sin
        sinpow **= n - 2
    return s_sq, sinpow, weights, starts, theta0, lengths, layout


def _panel_sums(vals, nodes):
    """Per-panel sums of ``vals``, values of shape (rows, sides, nodes) at
    the node set ``nodes``: shape (rows, sides, panels), row i of site i
    mod the site count.  Values in an array of their own (no view) are
    weighted in place."""
    _, sinpow, weights, starts = nodes[:4]
    weighted = vals if vals.base is None and vals.flags.writeable else np.empty(vals.shape)
    if len(vals) > len(sinpow) > 1:  # block by block; a site of one broadcasts over the rows
        for first in range(0, len(vals), len(sinpow)):
            block = weighted[first:first + len(sinpow)]
            np.multiply(vals[first:first + len(block)], sinpow[:len(block)], block)
    else:
        np.multiply(vals, sinpow, weighted)
    weighted *= weights
    return np.add.reduceat(weighted, starts, axis=-1)


def _side_total(n: int, rows, lengths) -> list[float]:
    """Zonal integral of each row of per-panel sums (an array of rows, sides
    and panels: ``_panel_sums``' rows), row i with the side lengths of site i
    mod the site count (``lengths``, a tuple per site), unchecked."""
    # Left to right, as one accumulate: since Python 3.12 builtin sum()
    # compensates float sums, which would change the bits by version, and
    # np.add.reduce sums pairwise.  Only a side of -0.0 panels differs from
    # a loop from 0.0, and it adds nothing to a total that starts at 0.0.
    # Indexed loops: zip, and cycling the lengths, would cost more than the tail's arithmetic.
    sides = np.add.accumulate(rows, axis=-1)[..., -1].tolist()
    tails, constant, totals = rows[..., -2:].tolist(), _zonal_constant(n), []
    for i, row_sides in enumerate(sides):
        total, row_tails, row_lengths = 0.0, tails[i], lengths[i % len(lengths)]
        for j, side in enumerate(row_sides):
            # Sum the uncovered tail from the decay ratio of the last panel to
            # the one before, 2^-(s+1) for a |theta - theta0|^s factor.  A
            # ratio near 1 comes from s near -1 (dF/da's |K - a|^(q-2) at large p).
            prev, panel = row_tails[j]
            if prev != 0.0:
                ratio = panel / prev
                if 0.0 < ratio < 1.0:
                    side += panel * ratio / (1.0 - ratio)
            total += abs(row_lengths[j]) * side
        totals.append(constant * total)
    return totals


def _checked(total: float) -> float:
    # Python floats overflow to inf silently, in the sums as in the tail.
    if not math.isfinite(total):
        raise DomainError("integrand produced non-finite values or a non-finite integral")
    return total


def _overflow_guard():
    """A new np.errstate (numpy 2 enters one instance only once) without
    overflow or invalid-value warnings, which a solve, sweep or public call
    enters once around its site passes: overflow leaves non-finite values,
    and so non-finite sums, which ``_checked`` refuses."""
    return np.errstate(over="ignore", invalid="ignore")


@lru_cache(maxsize=2)
def _site(n: int, r: float, order: int, t0: float, lean: bool = False):
    """(r, its kernel constants, log K, node set): the graded rule's node set
    split at t0, lean or not (``_layout``), and log K(r, .) at its nodes, a
    site of one with every array read-only."""
    nodes = _graded_nodes(n, order, t0, lean)
    constants = _kernel_constants(r)
    log_kernel = _log_kernel(n, constants, nodes[0])
    log_kernel.setflags(False)  # write=False, at a third of the keyword form's cost
    nodes[0].setflags(False)
    nodes[1].setflags(False)
    return r, constants, log_kernel, nodes


def _site_sums(n: int, order: int, site, fn, refine: bool = False) -> list[list[float]]:
    """Zonal integrals of fn on ``site`` (``_site``, a group of
    ``_new_sites``, or (None, None, None, node set) for a node set alone),
    unchecked (non-finite where a value or a sum is): a list of one total
    per row for each pass.
    fn(log K, s^2), both of shape (sites, sides, nodes) (s^2 None on a group
    of ``_new_sites``), returns values of shape (rows, sides, nodes), row i on
    site i mod the site count, in an array the pass may overwrite unless it
    is a view.  The caller holds ``_overflow_guard`` and has checked the
    order.

    With ``refine``, a second pass gives the same integrals at est_error's
    reference order 2 max(order, 96).  The layouts differ only on the outer
    panels of each side, every panel at a pole (``_outer_nodes``); each
    inner panel has the same nodes at the same offsets in both.  So fn
    is evaluated on those outer panels alone, their sums replace the first
    order's, and the panels are summed in the same left-to-right order: a
    full evaluation's bits.
    """
    _, constants, log_kernel, nodes = site
    rows = _panel_sums(fn(log_kernel, nodes[0]), nodes)
    totals = [_side_total(n, rows, nodes[5])]
    if refine:  # below order 8 * _PANEL_NODES outer panels have _PANEL_NODES nodes
        outer = _outer_nodes(n, 2 * (order if order > 8 * _PANEL_NODES else 8 * _PANEL_NODES), nodes)
        outer_sums = _panel_sums(fn(_log_kernel(n, constants, outer[0]), outer[0]), outer)
        del outer  # held through the side totals, it left page faults at the heap's top (README)
        rows[..., :outer_sums.shape[-1]] = outer_sums
        totals.append(_side_total(n, rows, nodes[5]))
    return totals


def _new_sites(n: int, order: int, radii, t0s, lean: bool):
    """(indices, stack) for each group of the sites split at ``t0s`` at
    ``radii`` of one layout (``_layout`` and sides): their node set and log K
    built in one node pass, with theta0s and kernel constants as columns, as
    a stack that ``_site_sums`` sums (s^2 None), each row the bits of
    ``_site``'s there."""
    groups: dict[tuple, list] = {}  # keyed by pole or not, which decides the layout at one n, and sides
    for k, t0 in enumerate(t0s):
        theta0, lengths = _split(t0)
        groups.setdefault((abs(t0) == 1.0, len(lengths)), []).append((k, theta0, lengths))
    for members in groups.values():
        rows, theta0s, lengths = zip(*members)
        layout = _layout(n, t0s[rows[0]], lean)
        s_sq, sinpow, weights, starts, column0, _, _ = _nodes_at(
            n, np.array(theta0s)[:, None, None], lengths, layout, *_graded_panels(order, *layout))
        column = np.array([_kernel_constants(radii[k]) for k in rows]).T[..., None, None]
        log_kernel = _log_kernel(n, column, s_sq, out=s_sq)  # no integrand of s^2 or t is summed on these sites
        yield list(rows), ([radii[k] for k in rows], column, log_kernel,
                           (None, sinpow, weights, starts, column0, lengths, layout))


def _site_integral(n: int, r: float | None, order: int, t0: float, fn) -> list[float]:
    """The zonal integrals of fn(log K, s^2) at the site split at t0 (at the
    node set alone, with no log K, where r is None) by ``_site_sums``, on
    the full layout, under its own overflow guard, each refused where
    non-finite."""
    with _overflow_guard():
        site = (None, None, None, _graded_nodes(n, order, t0)) if r is None else _site(n, r, order, t0, False)
        totals, = _site_sums(n, order, site, fn)
        return [_checked(total) for total in totals]


def integrate_with_breakpoint(n: int, order: int, f, t0: float):
    """Zonal integral of f, split at the axis value t0 in [-1, 1].

    The integral is computed in theta = arccos(t) with geometrically graded
    panels on both sides of the breakpoint and a ratio-extrapolated tail,
    which keeps full accuracy for |t - t0|^s factors with s > -1 (kinks and
    integrable singularities alike).  Where f returns values of shape
    (*stack, *nodes), the result is an array of shape ``stack``: each
    integral is the one a separate call would give, bit for bit.  A
    non-finite value of f, or a total past double range, raises DomainError.
    """
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"breakpoint must lie in [-1, 1], got {t0!r}")
    order = check_order(order)
    stack = []

    def values(_, s_sq):
        t = 1.0 - 2.0 * s_sq
        vals = np.asarray(f(t), dtype=float)
        if vals.ndim == 0:  # a constant f
            vals = np.broadcast_to(vals, t.shape)
        elif vals.shape[-t.ndim:] != t.shape:
            raise DomainError(f"integrand returned shape {vals.shape} at nodes of shape {t.shape}")
        stack.append(vals.shape[:-t.ndim])
        return vals.reshape(-1, *t.shape[1:])

    totals = _site_integral(n, None, order, t0, values)
    return np.reshape(totals, stack[0]) if stack[0] else totals[0]

