"""Digest of the package's outputs on a fixed grid, to check a change keeps them bit for bit,
or to measure how far an intended change moved them.

Run from the repository root with the package importable:

    PYTHONPATH=src python tools/bits.py
    PYTHONPATH=src python tools/bits.py ROWS
    PYTHONPATH=src python tools/bits.py ROWS --against PARENT_ROWS

It prints the number of rows and the sha256 of the rows, where a row is a
call's label and the ``float.hex()`` of every field of its result (other
fields by ``repr``), or its refusal's type and message.  The grid is n in
{3, 4, 5, 10, 30} x 8 exponents p from 1 to inf x 11 radii r from 0 to
0.999: ``g_p``, ``verify_sharpness``, ``random_bound_check`` (50 draws) and
``phi``, ``big_f`` and ``dF_da`` at four shifts (0.25, 1, 3 and g_p's a*,
1.5 where g_p refuses); plus ``grad_constant`` and a 100-radius
``g_p_curve`` for each (n, p).  Two checkouts print the same digest exactly
when every one of these outputs and refusals is the same.

With ROWS it also writes the rows there, one a line (the file's sha256 is
the digest).  With ``--against PARENT_ROWS``, a rows file written by another
checkout, it then prints for each (function, field) the largest relative
move |new - old| / |old| between the two, row by row (and the largest
|new - old|: a field that is 0 in one has no relative move), the rows whose
refusal appeared, vanished or changed, the largest move of ``log_a_star``
in units of its radius's solve tolerance 2^-44 min(1, 2l) for ``g_p`` and
for ``g_p_curve`` rows, and the count of ``g_p`` points and ``g_p_curve``
radii whose G moved by more than the sum of the two est_errors; it exits 1
if that count is nonzero.  Otherwise exit status 0;
an import or call that fails other than by the package's own refusals
raises.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math

import numpy as np

from hypschwarz import BallContext, g_p, g_p_curve, grad_constant, random_bound_check, verify_sharpness
from hypschwarz.errors import CapUnderflowError, DomainError, NonConvergenceError
from hypschwarz.objective import ObjectiveParams, big_f, dF_da, phi
from hypschwarz.solver import GpResult
from hypschwarz.verify import RandomBoundReport, SharpnessReport

DIMENSIONS = (3, 4, 5, 10, 30)
EXPONENTS = (1.0, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0, math.inf)
RADII = (0.0, 1e-300, 1e-10, 0.01, 0.1, 0.3, 0.5, 0.8, 0.9, 0.99, 0.999)
SWEEP = [float(r) for r in np.linspace(0.0, 0.99, 100)]
REFUSALS = (DomainError, CapUnderflowError, NonConvergenceError)


def _names(result_type) -> list[str]:
    return [f.name for f in dataclasses.fields(result_type) if f.name != "ctx"]


# Each function's label words (its name and arguments) and result field names;
# a g_p_curve row repeats GpResult's fields once per radius.
LAYOUT = {
    "grad_constant": (3, ["value"]),
    "g_p": (4, _names(GpResult)),
    "verify_sharpness": (4, _names(SharpnessReport)),
    "random_bound_check": (4, _names(RandomBoundReport)),
    "phi": (5, ["value"]),
    "big_f": (5, ["value"]),
    "dF_da": (5, ["value"]),
    "g_p_curve": (3, _names(GpResult)),
}


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


def _parse(row: str):
    """(function, label, {field: token} or None for a refusal, refusal or None) of a row."""
    words = row.split(" ")
    name = words[0]
    count, names = LAYOUT[name]
    label, values = " ".join(words[:count]), words[count:]
    if values and values[0].endswith(":"):
        return name, label, None, " ".join(values)
    return name, label, [(names[k % len(names)], k // len(names), v) for k, v in enumerate(values)], None


def _number(token: str):
    try:
        return float.fromhex(token)
    except ValueError:
        return None


def _tolerance(n: int, r: float) -> float:
    """A shift solve's tolerance in log a at (n, r): 2^-44 min(1, 2l), l = log K(r, 1)."""
    return 2.0 ** -44 * min(1.0, 2.0 * (n - 1) * (math.log1p(r) - math.log1p(-r)))


def compare(new_rows: list[str], old_rows: list[str]) -> int:
    """Print the moves from ``old_rows`` to ``new_rows``, row by row; the
    number of G values that moved past the sum of their two est_errors."""
    if len(new_rows) != len(old_rows):
        raise SystemExit(f"the rows differ in number: {len(new_rows)} against {len(old_rows)}")
    moves: dict[tuple[str, str], tuple[float, float]] = {}
    refusals, points, past = [], 0, []
    drift = {"g_p": 0.0, "g_p_curve": 0.0}  # largest |new - old| of log a* in solve tolerances
    for new, old in zip(new_rows, old_rows):
        name, label, new_fields, new_refusal = _parse(new)
        _, _, old_fields, old_refusal = _parse(old)
        if new_refusal or old_refusal:
            if new_refusal != old_refusal:
                refusals.append(f"  {label}: {old_refusal or 'answered'} -> {new_refusal or 'answered'}")
            continue
        by_point: dict[int, dict[str, tuple]] = {}
        for (field, point, a), (_, _, b) in zip(new_fields, old_fields):
            x, y = _number(a), _number(b)
            by_point.setdefault(point, {})[field] = (x, y)
            if x is None or y is None:
                move = (0.0, 0.0) if a == b else (math.inf, math.inf)
            elif x == y or (math.isnan(x) and math.isnan(y)):
                move = (0.0, 0.0)
            else:
                move = (abs(x - y) / abs(y) if y else math.inf, abs(x - y))
            rel, gap = moves.get((name, field), (0.0, 0.0))
            moves[name, field] = (max(rel, move[0]), max(gap, move[1]))
        if name in ("g_p", "g_p_curve"):
            n = int(label.split(" ")[1])
            for k, values in sorted(by_point.items()):
                (g_new, g_old), (e_new, e_old) = values["g_value"], values["est_error"]
                (s_new, s_old), r = values["log_a_star"], values["r"][1]
                if s_new != s_old:  # at r = 0, no solve and a tolerance of 0: any move is infinite
                    tolerance = _tolerance(n, r)
                    drift[name] = max(drift[name], abs(s_new - s_old) / tolerance if tolerance else math.inf)
                points += 1
                if abs(g_new - g_old) > e_new + e_old:
                    past.append(f"  {label} #{k}: G {g_old!r} -> {g_new!r}, est_errors {e_old!r} + {e_new!r}")
    print("largest relative move |new - old| / |old| (and |new - old|) per (function, field):")
    for (name, field), (rel, gap) in sorted(moves.items()):
        print(f"  {name} {field}: {rel:.2g} ({gap:.2g})")
    print("largest |new - old| of log a* in solve tolerances 2^-44 min(1, 2l): "
          f"g_p {drift['g_p']:.3g}, g_p_curve {drift['g_p_curve']:.3g}")
    print(f"refusals changed: {len(refusals)}")
    for line in refusals:
        print(line)
    print(f"G moved past the sum of its two est_errors: {len(past)} of {points} g_p points and g_p_curve radii")
    for line in past:
        print(line)
    return len(past)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="?", help="write the rows to this file")
    parser.add_argument("--against", metavar="PARENT_ROWS", help="compare the rows with this rows file")
    args = parser.parse_args(argv)
    if args.against and not args.rows:
        parser.error("--against needs the ROWS file to write")
    digest, lines = hashlib.sha256(), []
    for row in rows():
        digest.update(row.encode() + b"\n")
        lines.append(row)
    print(f"{len(lines)} rows, sha256 {digest.hexdigest()}")
    if args.rows:
        with open(args.rows, "w", encoding="utf-8") as out:
            out.writelines(row + "\n" for row in lines)
    if args.against:
        with open(args.against, encoding="utf-8") as parent:
            return 1 if compare(lines, parent.read().splitlines()) else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
