"""Digest of the package's outputs on a fixed grid, to check a change keeps them bit for bit.

Run from the repository root with the package importable:

    PYTHONPATH=src python tools/bits.py

It prints the number of rows and the sha256 of the rows, where a row is a
call's label and the ``float.hex()`` of every field of its result (other
fields by ``repr``), or its refusal's type and message.  The grid is n in
{3, 4, 5, 10, 30} x 8 exponents p from 1 to inf x 11 radii r from 0 to
0.999: ``g_p``, ``verify_sharpness``, ``random_bound_check`` (50 draws) and
``phi``, ``big_f`` and ``dF_da`` at four shifts (0.25, 1, 3 and g_p's a*,
1.5 where g_p refuses); plus ``grad_constant`` and a 100-radius
``g_p_curve`` for each (n, p).  Two checkouts print the same digest exactly
when every one of these outputs and refusals is the same.  Exit status 0;
an import or call that fails other than by the package's own refusals
raises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from hypschwarz import BallContext, g_p, g_p_curve, grad_constant, random_bound_check, verify_sharpness
from hypschwarz.errors import CapUnderflowError, DomainError, NonConvergenceError
from hypschwarz.objective import ObjectiveParams, big_f, dF_da, phi

DIMENSIONS = (3, 4, 5, 10, 30)
EXPONENTS = (1.0, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0, math.inf)
RADII = (0.0, 1e-300, 1e-10, 0.01, 0.1, 0.3, 0.5, 0.8, 0.9, 0.99, 0.999)
SWEEP = [float(r) for r in np.linspace(0.0, 0.99, 100)]
REFUSALS = (DomainError, CapUnderflowError, NonConvergenceError)


def _field(value) -> str:
    return float(value).hex() if isinstance(value, (float, np.floating)) else repr(value)


def _fields(result) -> list:
    return [getattr(result, f.name) for f in dataclasses.fields(result) if f.name != "ctx"]


def _row(label: str, call) -> str:
    """The label and the fields of call()'s result, or of its refusal."""
    try:
        result = call()
    except REFUSALS as refusal:
        return f"{label} {type(refusal).__name__}: {refusal}"
    if dataclasses.is_dataclass(result):
        fields = _fields(result)
    else:
        fields = result if isinstance(result, (list, tuple)) else [result]
    return " ".join([label, *map(_field, fields)])


def rows():
    """Every row of the digest, in a fixed order."""
    for n in DIMENSIONS:
        for p in EXPONENTS:
            ctx = BallContext(n, p)
            yield _row(f"grad_constant {n} {p}", lambda: grad_constant(ctx))
            for r in RADII:
                point = f"{n} {p} {r!r}"
                yield _row(f"g_p {point}", lambda: g_p(ctx, r))
                yield _row(f"verify_sharpness {point}", lambda: verify_sharpness(ctx, r))
                yield _row(f"random_bound_check {point}", lambda: random_bound_check(ctx, r, count=50))
                try:
                    a_star = g_p(ctx, r).a_star
                except REFUSALS:
                    a_star = 1.5
                for a in (0.25, 1.0, 3.0, a_star):
                    for fn in (phi, big_f, dF_da):
                        yield _row(f"{fn.__name__} {point} {a!r}", lambda: fn(ObjectiveParams(ctx, r), a))
            yield _row(f"g_p_curve {n} {p}", lambda: [v for res in g_p_curve(ctx, SWEEP) for v in _fields(res)])


def main() -> int:
    digest, count = hashlib.sha256(), 0
    for row in rows():
        digest.update(row.encode() + b"\n")
        count += 1
    print(f"{count} rows, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
