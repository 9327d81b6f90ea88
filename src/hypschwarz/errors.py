"""Failure types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NonConvergenceError(RuntimeError):
    """An iteration hit its cap before reaching the requested accuracy."""


class CapUnderflowError(ArithmeticError):
    """A p = 1 cap pair leaves the range where double precision resolves it."""
