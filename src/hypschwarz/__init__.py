"""Sharp axis bounds for bounded harmonic functions on the hyperbolic ball.

The library computes, for dimension n >= 3 and boundary data measured in
L^p of the sphere, the sharp constant G_p(r) controlling hyperbolic-harmonic
extensions with vanishing value at the origin, together with the optimal
kernel shift a*(r), the sharp gradient constant at the origin, and numeric
certificates that the constants are attained.
"""

from .errors import BracketError, CapUnderflowError, DomainError, NonConvergenceError
from .kernel import (
    BallContext,
    check_radius,
    conjugate_exponent,
    crossing_point,
    d_kernel_dr,
    kernel_range,
    poisson_szego_axis,
)
from .objective import ObjectiveParams, big_f, dF_da, dF_dr, phi
from .quadrature import (
    DEFAULT_ORDER,
    ZonalQuadrature,
    build_rule,
    cap_rule,
    integrate_with_breakpoint,
    integrate_zonal,
)
from .solver import (
    GpResult,
    da_star_dr,
    g_1_closed,
    g_2_closed,
    g_inf_closed,
    g_p,
    gp_derivative_at_zero,
    grad_constant,
    solve_a_star,
    uh_elementary,
)
from .special import alpha_q
from .verify import (
    BOUND_SLACK,
    CorollaryBatchReport,
    CorollaryL2Report,
    RandomBoundReport,
    SharpnessReport,
    ZonalBoundaryFunction,
    corollary_l2_batch,
    corollary_l2_check,
    extremal_phi,
    grad_at_origin,
    minimizing_sequence_p1,
    moment_extremal,
    poisson_integral_axis,
    random_bound_check,
    random_grad_check,
    verify_sharpness,
)

__version__ = "0.1.0"

__all__ = [
    "BallContext",
    "BOUND_SLACK",
    "BracketError",
    "CapUnderflowError",
    "CorollaryBatchReport",
    "CorollaryL2Report",
    "DEFAULT_ORDER",
    "DomainError",
    "GpResult",
    "NonConvergenceError",
    "ObjectiveParams",
    "RandomBoundReport",
    "SharpnessReport",
    "ZonalBoundaryFunction",
    "ZonalQuadrature",
    "alpha_q",
    "big_f",
    "build_rule",
    "cap_rule",
    "check_radius",
    "conjugate_exponent",
    "corollary_l2_batch",
    "corollary_l2_check",
    "crossing_point",
    "dF_da",
    "dF_dr",
    "d_kernel_dr",
    "da_star_dr",
    "extremal_phi",
    "g_1_closed",
    "g_2_closed",
    "g_inf_closed",
    "g_p",
    "gp_derivative_at_zero",
    "grad_at_origin",
    "grad_constant",
    "integrate_with_breakpoint",
    "integrate_zonal",
    "kernel_range",
    "minimizing_sequence_p1",
    "moment_extremal",
    "phi",
    "poisson_integral_axis",
    "poisson_szego_axis",
    "random_bound_check",
    "random_grad_check",
    "solve_a_star",
    "uh_elementary",
    "verify_sharpness",
    "__version__",
]
