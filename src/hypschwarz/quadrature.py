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
(ratio 1/2, 27 panels per side).  The leftover geometric tail is summed by
extrapolating the measured panel-sum ratio, which resolves any integrable
power behaviour without knowing its exponent.  At an interior breakpoint
only the outer J(n) = max(2, ceil(log2 sqrt(n - 1)) - 1) panels of a side
carry order // 8 Gauss-Legendre nodes (at least 12): every other panel lies
three half-widths from the breakpoint, where 12 nodes already reach rounding
level, and has 12 at any order.  So raising the order refines the outer
panels, where all order-dependent error lives.  A breakpoint at a pole
(t0 = +-1) keeps order // 8 nodes on every panel, as its side is graded
toward the kernel's peak there.  The nodes of a side are one flat array
with the index of each panel's first node, and the panel sums one
``np.add.reduceat``.  The layout of a side of unit length is built once per
(order, J) and cached; each call only scales it by the lengths of its two
sides and shifts it to theta0.  The rule is two
steps: ``_graded_nodes`` builds the node set for (n, order, t0), and
``_panel_sum`` sums values taken at it.  ``integrate_with_breakpoint``
composes them around an integrand of t; every integrand weighted by the
kernel is summed instead on a site of ``objective`` (a node set with the
kernel at its nodes, the last two kept).  A non-finite value, or a total
past double range, is refused with DomainError.

``build_rule`` gives the Gauss-Jacobi nodes (both exponents (n-3)/2, weights
scaled by c_n) of the random polynomial draws in ``verify``, exact for their
means and gradient moment; no kernel is summed on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# roots_jacobi imports scipy.linalg inside its first call.  Importing it here
# keeps that cost (about 7 MB and some milliseconds) at package import, the
# same in every process, instead of in whichever call first builds a rule.
import scipy.linalg  # noqa: F401
from scipy.special import roots_jacobi

from .errors import CapUnderflowError, DomainError
from .special import check_dimension, check_integer

#: Default rule order: the node count of a draw rule; an outer graded panel
#: has order // 8 Gauss-Legendre nodes, at least _PANEL_NODES.
DEFAULT_ORDER = 128

# Panel layout of the graded rule.
_PANEL_RATIO = 0.5
_PANELS = 27  # innermost panel edge at 2^-27 (< 1e-8) of the side length
_PANEL_NODES = 12  # Gauss-Legendre nodes on an inner panel, and on every one up to order 8 * 12
# Relative rounding floor of a breakpoint integral: an ulp for each panel sum
# of its two sides.
_ROUNDING_FLOOR = 2 * _PANELS * 2.0 ** -52
_TAIL_GUARD = 0.95   # largest admissible panel-sum ratio for tail summation

#: Node count of the polar-cap rule.
_CAP_ORDER = 64


@lru_cache(maxsize=64)
def _zonal_constant(n: int) -> float:
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)


@lru_cache(maxsize=64)
def _gauss_jacobi(order: int, alpha: float, beta: float):
    """Read-only nodes and weights of the ``order``-point Gauss-Jacobi rule
    for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""
    x, w = roots_jacobi(order, alpha, beta)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class ZonalQuadrature:
    """Gauss-Jacobi zonal rule: weights @ f(nodes) integrates a polynomial f
    of degree <= 2 * order - 1 against normalized surface measure."""

    n: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64, typed=True)
def build_rule(n: int, order: int = DEFAULT_ORDER) -> ZonalQuadrature:
    """Gauss-Jacobi zonal rule for dimension n with ``order`` nodes.

    Weights include the c_n normalization and therefore sum to 1 up to
    rounding; the rule is exact for polynomials of degree <= 2*order - 1.
    """
    n, order = check_dimension(n), check_integer(order, 2, "rule order")
    expo = (n - 3) / 2.0
    x, w = _gauss_jacobi(order, expo, expo)
    weights = _zonal_constant(n) * w
    weights.setflags(write=False)
    return ZonalQuadrature(n=n, order=order, nodes=x, weights=weights)


def _outer_panels(n: int) -> int:
    """J(n) = max(2, ceil(log2 sqrt(n - 1)) - 1), at most _PANELS: how many
    panels of each side, counted from its far end, carry order // 8 nodes
    at an interior breakpoint.  It grows with n because the kernel's
    variation across a wide panel does."""
    # ceil(log2 sqrt(n - 1)) is the least m with 4^m >= n - 1.
    return min(_PANELS, max(2, ((n - 2).bit_length() + 1) // 2 - 1))


# typed, like build_rule's cache: an order of 128.0 must miss 128's entry and meet the check.
@lru_cache(maxsize=16, typed=True)
def _graded_panels(order: int, outer: int):
    """Read-only (offsets, weights, starts): Gauss-Legendre nodes on the
    graded panels of a side of unit length, as offsets from the breakpoint,
    flat and panel by panel, with the index of each panel's first node.
    Panel j spans [ratio^(j+1), ratio^j], its index growing toward the
    breakpoint; the ``outer`` panels j < outer have max(_PANEL_NODES,
    order // 8) nodes, every other one _PANEL_NODES.
    """
    order = check_integer(order, 2, "rule order")
    counts = [max(_PANEL_NODES, order // 8)] * outer + [_PANEL_NODES] * (_PANELS - outer)
    rules = {k: np.polynomial.legendre.leggauss(k) for k in set(counts)}
    edges = _PANEL_RATIO ** np.arange(_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[:-1] - edges[1:])
    offsets = np.concatenate([m + h * rules[k][0] for m, h, k in zip(mid, half, counts)])
    weights = np.concatenate([h * rules[k][1] for h, k in zip(half, counts)])
    starts = np.cumsum([0] + counts[:-1])
    for array in (offsets, weights, starts):
        array.setflags(write=False)
    return offsets, weights, starts


def _graded_nodes(n: int, order: int, t0: float):
    """Node set of the graded rule split at t0: (t, sin^(n-2) theta, panel
    weights, panel starts, side lengths), with t and the sine power of shape
    (sides, nodes per side), on the layout with _outer_panels(n) outer
    panels, or with _PANELS at a pole.  A breakpoint at a pole leaves one
    side; the empty one gets no nodes, as an integrand may be infinite there.
    """
    theta0 = math.acos(t0)
    outer = _PANELS if abs(t0) == 1.0 else _outer_panels(n)
    offsets, weights, starts = _graded_panels(order, outer)
    lengths = [side for side in (-theta0, math.pi - theta0) if abs(side) > 1e-300]
    theta = theta0 + np.array(lengths)[:, None] * offsets
    return np.cos(theta), np.sin(theta) ** (n - 2), weights, starts, lengths


def _panel_sum(n: int, vals, nodes):
    """Zonal integral of ``vals``, values of shape (*stack, *t.shape) at the
    node set ``nodes`` of ``_graded_nodes``: one float, or an array of shape
    ``stack``.  Call it with numpy's overflow and invalid warnings off: a
    non-finite value makes its panel sum, and so its total, non-finite, and
    every non-finite total is refused.
    """
    _, sinpow, weights, starts, lengths = nodes
    per_panel = np.add.reduceat(vals * sinpow * weights, starts, axis=-1)
    c_n = _zonal_constant(n)
    totals = []
    for sides in per_panel.reshape(-1, *per_panel.shape[-2:]).tolist():
        total = 0.0
        for length, panels in zip(lengths, sides):
            # Left to right, as one loop: since Python 3.12 builtin sum()
            # compensates float sums, which would change the bits by version.
            side = 0.0
            for panel in panels:
                side += panel
            # Sum the uncovered geometric tail from the measured decay ratio.
            last, prev = panels[-1], panels[-2]
            if prev != 0.0:
                ratio = last / prev
                if 0.0 < ratio < _TAIL_GUARD:
                    side += last * ratio / (1.0 - ratio)
            total += abs(length) * side
        total = c_n * total
        # Python floats overflow to inf silently, in the sums as in the tail.
        if not math.isfinite(total):
            raise DomainError("integrand produced non-finite values or a non-finite integral")
        totals.append(total)
    return np.reshape(totals, per_panel.shape[:-2]) if per_panel.ndim > 2 else totals[0]


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
    nodes = _graded_nodes(n, order, t0)
    t = nodes[0]
    # Overflow raises no numpy warning: it leaves non-finite values, which are
    # refused like any other.  A scalar result means a constant f.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(t), dtype=float)
        if vals.ndim == 0:
            vals = np.broadcast_to(vals, t.shape)
        elif vals.shape[-t.ndim:] != t.shape:
            raise DomainError(f"integrand returned shape {vals.shape} at nodes of shape {t.shape}")
        return _panel_sum(n, vals, nodes)


def cap_rule(n: int, t_lower: float):
    """Nodes and sigma-weights for the polar cap {t >= t_lower}.

    Returns (nodes, weights) with sum(weights * f(nodes)) the integral of a
    zonal f over the cap against normalized surface measure; in particular
    the weight total is the cap's measure.  The (1-t) factor of the zonal
    weight is kept as an exact Jacobi weight on the mapped interval, so the
    rule stays accurate for caps many orders of magnitude smaller than 1.
    """
    n = check_dimension(n)
    if not -1.0 < t_lower < 1.0:
        raise CapUnderflowError(f"cap boundary {t_lower!r} leaves no representable cap")
    expo = (n - 3) / 2.0
    u, wu = _gauss_jacobi(_CAP_ORDER, expo, 0.0)
    h = 0.5 * (1.0 - t_lower)
    t = t_lower + h * (u + 1.0)
    scale = _zonal_constant(n) * h ** (expo + 1.0)
    weights = scale * wu * (1.0 + t) ** expo
    if not np.all(weights > 0.0):
        raise CapUnderflowError(f"cap at t >= {t_lower!r} underflowed in double precision")
    return t, weights
