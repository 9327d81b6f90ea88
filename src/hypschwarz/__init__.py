"""Sharp axis bounds for bounded harmonic functions on the hyperbolic ball.

The library computes, for dimension n >= 3 and boundary data measured in
L^p of the sphere, the sharp constant G_p(r) controlling hyperbolic-harmonic
extensions with vanishing value at the origin, together with the optimal
kernel shift a*(r), the sharp gradient constant at the origin, and numeric
certificates that the constants are attained.

The names below are the public entry points; everything else lives in the
package modules (``kernel``, ``quadrature``, ``objective``, ``solver``,
``verify``, ...).
"""

from .errors import CapUnderflowError, DomainError, NonConvergenceError
from .kernel import BallContext
from .solver import GpResult, g_p, g_p_curve, grad_constant, solve_a_star
from .verify import minimizing_sequence_p1, random_bound_check, verify_sharpness

__version__ = "0.1.0"

__all__ = [
    "BallContext",
    "CapUnderflowError",
    "DomainError",
    "GpResult",
    "NonConvergenceError",
    "g_p",
    "g_p_curve",
    "grad_constant",
    "minimizing_sequence_p1",
    "random_bound_check",
    "solve_a_star",
    "verify_sharpness",
    "__version__",
]
