"""Absolute moments of one coordinate on the unit sphere; integer argument checks.

Log-gamma comes from ``math.lgamma``; the Gauss hypergeometric function used
by the closed forms is ``scipy.special.hyp2f1``, called from ``solver``.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError


def check_integer(value, least: int, what: str) -> int:
    """``value`` as an int if it is an integer (numpy's too, not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_dimension(n) -> int:
    """The ambient dimension n as an int, if it is an integer >= 3."""
    return check_integer(n, 3, "dimension")


def alpha_q(n: int, q: float) -> float:
    """Absolute moment of one coordinate under normalized surface measure,

        alpha_q = integral over the sphere S^(n-1) of |eta_n|^q
                = Gamma(n/2) Gamma((1+q)/2) / (sqrt(pi) Gamma((n+q)/2)).

    Defined for q >= 0; alpha_0 = 1 and alpha_q decreases in q.
    """
    n = check_dimension(n)
    if not (q >= 0.0 and math.isfinite(q)):
        raise DomainError(f"moment order must be finite and >= 0, got {q!r}")
    return math.exp(
        math.lgamma(n / 2.0)
        + math.lgamma((1.0 + q) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma((n + q) / 2.0)
    )
