"""Quadrature over the unit sphere for integrands that depend only on the
axis coordinate t = <eta, axis>.

The surface integral of such a zonal integrand reduces to one dimension:

    integral f(<eta, axis>) dsigma = c_n * integral_{-1}^{1} f(t) (1-t^2)^((n-3)/2) dt,
    c_n = Gamma(n/2) / (sqrt(pi) * Gamma((n-1)/2)),

so the natural rule is Gauss-Jacobi with both exponents (n-3)/2, weights
scaled by c_n (they then sum to 1, the measure of the sphere).  Nodes and
weights come from ``scipy.special.roots_jacobi``, which normalizes the
weights to the exact mass of the Jacobi weight.

Two integration paths are provided.  ``integrate_zonal`` applies the plain
rule and is spectrally accurate for smooth f.  ``integrate_with_breakpoint``
handles integrands with a kink or an integrable power singularity at a known
interior point t0: it substitutes t = cos(theta), which keeps the Jacobi
weight analytic at the poles, and tiles each side of theta0 = arccos(t0)
with panels shrinking geometrically toward the breakpoint (ratio 1/2, 27
panels per side).  The leftover geometric tail is summed by
extrapolating the measured panel-sum ratio, which resolves any integrable
power behaviour without knowing its exponent.  The panel layout of a side
of unit length is built once per rule order and cached; each call only
scales it by the lengths of its two sides and shifts it to theta0.
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

#: Default node count for the plain zonal rule.
DEFAULT_ORDER = 128

# Panel layout for the breakpoint path.
_PANEL_RATIO = 0.5
_PANELS = 27  # innermost panel edge at 2^-27 (< 1e-8) of the side length
# Relative rounding floor of a breakpoint integral: an ulp for each panel sum
# of its two sides.
_ROUNDING_FLOOR = 2 * _PANELS * 2.0 ** -52
_TAIL_GUARD = 0.95   # largest admissible panel-sum ratio for tail summation

#: Node count of the polar-cap rule.
_CAP_ORDER = 64


def _zonal_constant(n: int) -> float:
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)


@lru_cache(maxsize=64)
def _gauss_jacobi(order: int, alpha: float, beta: float):
    """Read-only nodes and weights of the ``order``-point Gauss-Jacobi rule
    for the weight (1-x)^alpha (1+x)^beta on [-1, 1]."""
    if order < 2:
        raise DomainError(f"rule order must be >= 2, got {order!r}")
    x, w = roots_jacobi(order, alpha, beta)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class ZonalQuadrature:
    """A ready-to-apply zonal rule: sum(weights * f(nodes)) integrates f
    against normalized surface measure."""

    n: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def build_rule(n: int, order: int = DEFAULT_ORDER) -> ZonalQuadrature:
    """Gauss-Jacobi zonal rule for dimension n with ``order`` nodes.

    Weights include the c_n normalization and therefore sum to 1 up to
    rounding; the rule is exact for polynomials of degree <= 2*order - 1.
    """
    if not (isinstance(n, int) and n >= 3):
        raise DomainError(f"dimension must be an integer >= 3, got {n!r}")
    expo = (n - 3) / 2.0
    x, w = _gauss_jacobi(order, expo, expo)
    weights = _zonal_constant(n) * w
    weights.setflags(write=False)
    return ZonalQuadrature(n=n, order=order, nodes=x, weights=weights)


def _eval_integrand(f, x: np.ndarray) -> np.ndarray:
    """Values of f at the nodes x; a scalar result means a constant f.

    Overflow raises no numpy warning: it leaves non-finite values, which are
    refused with DomainError like any other.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(x), dtype=float)
    if vals.ndim == 0:
        vals = np.broadcast_to(vals, x.shape)
    elif vals.shape != x.shape:
        raise DomainError(f"integrand returned shape {vals.shape} at nodes of shape {x.shape}")
    if not np.isfinite(vals).all():
        raise DomainError("integrand produced non-finite values")
    return vals


def integrate_zonal(rule: ZonalQuadrature, f) -> float:
    """Apply the plain rule: sum of weights * f(nodes)."""
    return float(np.dot(rule.weights, _eval_integrand(f, rule.nodes)))


@lru_cache(maxsize=16)
def _graded_panels(order: int):
    """Read-only (offsets, weights), both of shape (_PANELS, k) with
    k = max(12, order // 8): Gauss-Legendre nodes on the graded panels of a
    side of unit length, as offsets from the breakpoint.  Panel j spans
    [ratio^(j+1), ratio^j], so the panel index grows toward the breakpoint.
    """
    xi, om = np.polynomial.legendre.leggauss(max(12, order // 8))
    edges = _PANEL_RATIO ** np.arange(_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[:-1] - edges[1:])
    offsets = mid[:, None] + half[:, None] * xi
    weights = half[:, None] * om
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


def integrate_with_breakpoint(n: int, order: int, f, t0) -> float:
    """Zonal integral of f with special handling at the axis value t0.

    ``t0 = None`` falls back to the plain rule.  Otherwise the integral is
    computed in theta = arccos(t) with geometrically graded panels on both
    sides of the breakpoint and a ratio-extrapolated tail, which keeps full
    accuracy for |t - t0|^s factors with s > -1 (kinks and integrable
    singularities alike).
    """
    if t0 is None:
        return integrate_zonal(build_rule(n, order), f)
    if not -1.0 <= t0 <= 1.0:
        raise DomainError(f"breakpoint must lie in [-1, 1], got {t0!r}")
    theta0 = math.acos(t0)
    offsets, weights = _graded_panels(order)
    # A breakpoint at a pole leaves one side; the empty one is not
    # evaluated, as f may be infinite there.
    lengths = [side for side in (-theta0, math.pi - theta0) if abs(side) > 1e-300]
    theta = theta0 + np.array(lengths)[:, None, None] * offsets
    vals = _eval_integrand(f, np.cos(theta)) * np.sin(theta) ** (n - 2)
    per_panel = np.add.reduce(vals * weights, axis=-1)
    total = 0.0
    for length, panels in zip(lengths, per_panel.tolist()):
        side = sum(panels)
        # Sum the uncovered geometric tail from the measured decay ratio.
        last, prev = panels[-1], panels[-2]
        if prev != 0.0:
            ratio = last / prev
            if 0.0 < ratio < _TAIL_GUARD:
                side += last * ratio / (1.0 - ratio)
        total += abs(length) * side
    return _zonal_constant(n) * total


def cap_rule(n: int, t_lower: float):
    """Nodes and sigma-weights for the polar cap {t >= t_lower}.

    Returns (nodes, weights) with sum(weights * f(nodes)) the integral of a
    zonal f over the cap against normalized surface measure; in particular
    the weight total is the cap's measure.  The (1-t) factor of the zonal
    weight is kept as an exact Jacobi weight on the mapped interval, so the
    rule stays accurate for caps many orders of magnitude smaller than 1.
    """
    if not (isinstance(n, int) and n >= 3):
        raise DomainError(f"dimension must be an integer >= 3, got {n!r}")
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
