"""Absolute moments of one coordinate on the unit sphere; integer argument checks.

Log-gamma comes from ``math.lgamma``.  The closed forms in ``solver`` sum
their Gauss hypergeometric functions themselves: a terminating series for
G_2 and a positive recurrence for G_inf.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError

#: Largest rule order: the Gauss-Jacobi builder's eigenproblem holds
#: (order / 2)^2 doubles, 134 MB at 8192, and the graded panels' Gauss-Legendre
#: rules (order // 8 nodes) a dense companion matrix of their own.
MAX_ORDER = 8192


def check_integer(value, least: int, what: str) -> int:
    """``value`` as an int if it is an integer (numpy's too, not a bool) >= ``least``."""
    if type(value) is int and value >= least:  # the common case, without the ABC check (0.5 us)
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_dimension(n) -> int:
    """The ambient dimension n as an int, if it is an integer >= 3."""
    return check_integer(n, 3, "dimension")


def check_order(order) -> int:
    """A rule order as an int, if it is an integer in [2, MAX_ORDER]: a
    larger one is refused before any rule of it is built."""
    if type(order) is int and 2 <= order <= MAX_ORDER:  # the common case, without check_integer's call
        return order
    order = check_integer(order, 2, "rule order")
    if order > MAX_ORDER:
        raise DomainError(f"rule order must be at most {MAX_ORDER}, got {order}")
    return order


def alpha_q(n: int, q: float) -> float:
    """Absolute moment of one coordinate under normalized surface measure,

        alpha_q = integral over the sphere S^(n-1) of |eta_n|^q
                = Gamma(n/2) Gamma((1+q)/2) / (sqrt(pi) Gamma((n+q)/2)).

    Defined for q >= 0; alpha_0 = 1 and alpha_q decreases in q.
    """
    n = check_dimension(n)
    if not (q >= 0.0 and math.isfinite(q)):
        raise DomainError(f"moment order must be finite and >= 0, got {q!r}")
    q = float(q)
    return math.exp(
        math.lgamma(n / 2.0)
        + math.lgamma((1.0 + q) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma((n + q) / 2.0)
    )
