"""In-process paired timing of this checkout's package against another's.

Run from the repository root with the package importable:

    PYTHONPATH=src python tools/paired.py PARENT_SRC [--rounds K] [--inputs N] [--sweeps | --certs]

PARENT_SRC is the ``src`` directory of another checkout (say, the parent
commit's, written by ``git archive``); its ``hypschwarz`` is loaded under the
module name ``hypschwarz_parent``, side by side with this one.  By default each
tree times a cold ``g_p`` on the first N acceptance-box inputs of the
benchmark's scatter stream at seed 1 (``perfbench/workloads.py``), with the
solver's memo cleared after each call.  With ``--sweeps`` it times the 25
curves of the benchmark's sweep stream at seed 1 instead, each one ``gp`` table
through ``cli.main`` into a file removed before the call, outside its time.
With ``--certs`` it times, on the first N inputs of the benchmark's certify
stream at seed 1, ``verify_sharpness`` and then ``random_bound_check`` with
1000 draws of the input's seed, as one call, with the solver's memo cleared
after it.  Each input is timed in K interleaved rounds, the tree that goes
first alternating from round to round, and keeps its fastest time.

It prints the median over inputs of the ratio of this tree's time to the
other's, with its quartiles, each tree's median time, and the number of inputs
whose results are not bit-identical: a ``GpResult``'s or a report's fields by
``float.hex()``, a refusal by its type and message, a table by its text.  The
ratios are read on the machine that runs them; no timing is a gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import hypschwarz  # noqa: E402
import workloads  # noqa: E402  (it imports this tree's hypschwarz)

SWEEP_CURVES = 25


def load_parent(src: str):
    """The ``hypschwarz`` package under ``src``, imported as ``hypschwarz_parent``."""
    init = Path(src) / "hypschwarz" / "__init__.py"
    spec = importlib.util.spec_from_file_location("hypschwarz_parent", init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def _memo_caches(module):
    """The lru caches of a solver module: g_p's memo, cleared after each call."""
    return [obj for obj in vars(module).values()
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", None) == module.__name__]


def _timed_op(package, call):
    """A call of ``call(package, ctx, item)`` on one item, the solver's memo
    cleared after it: (seconds, key), the key of each returned dataclass's
    fields by ``float.hex()`` or ``repr``, or a refusal by its type and message."""
    caches = _memo_caches(importlib.import_module(package.__name__ + ".solver"))

    def run(item):
        ctx = package.BallContext(item.n, item.p)
        started = perf_counter()
        try:
            results = call(package, ctx, item)
        except Exception as refusal:  # a refusal is compared, by its type and message
            seconds, key = perf_counter() - started, (type(refusal).__name__, str(refusal))
        else:
            seconds = perf_counter() - started
            key = tuple(value.hex() if isinstance(value, float) else repr(value)
                        for result in results for value in vars(result).values())
        for cache in caches:
            cache.cache_clear()
        return seconds, key

    return run


def _cold_g_p(package, ctx, item):
    return (package.g_p(ctx, item.r),)


def _certificates(package, ctx, item):
    return (package.verify_sharpness(ctx, item.r),
            package.random_bound_check(ctx, item.r, count=workloads.CERT_DRAWS, seed=item.draw_seed))


def _sweep_op(package, out_dir: str):
    """A ``gp`` table of package's CLI on one sweep item: (seconds, table text)."""
    cli_module = importlib.import_module(package.__name__ + ".cli")
    path = os.path.join(out_dir, f"{package.__name__}.csv")

    def run(item):
        argv = ["gp", "--n", str(item.n), "--p", repr(item.p), "--r-min", repr(item.r),
                "--r-max", repr(workloads.SWEEP_R_MAX), "--steps", str(workloads.SWEEP_STEPS), "--output", path]
        # a new file each call: truncating one that holds data costs 25-50 ms
        # on ext4, several times the table, and writing a new one microseconds
        Path(path).unlink(missing_ok=True)
        started = perf_counter()
        code = cli_module.main(argv)
        seconds = perf_counter() - started
        with open(path, encoding="utf-8") as handle:
            return seconds, (code, handle.read())

    return run


def measure(ops, items, rounds: int):
    """(fastest times of each of the two ops per item, items whose results differ)."""
    best = [[float("inf")] * len(items) for _ in ops]
    keys = [[None] * len(items) for _ in ops]
    for k in range(rounds):
        for i, item in enumerate(items):
            for j in ((0, 1) if k % 2 == 0 else (1, 0)):
                seconds, keys[j][i] = ops[j](item)
                best[j][i] = min(best[j][i], seconds)
    return best, sum(a != b for a, b in zip(*keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="the src directory of the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=5, help="interleaved rounds per input (default 5)")
    parser.add_argument("--inputs", type=int, default=300, help="scatter box or certify inputs (default 300)")
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--sweeps", action="store_true", help="time the 25 seed-1 sweep curves instead")
    modes.add_argument("--certs", action="store_true", help="time the certificates of N seed-1 certify inputs instead")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.inputs < 2:
        parser.error("--rounds takes a positive count and --inputs at least 2")
    parent = load_parent(args.parent_src)
    with tempfile.TemporaryDirectory() as out_dir:
        if args.sweeps:
            stream = workloads.Stream("sweep", 1)
            items = [stream.item(i) for i in range(SWEEP_CURVES)]
            what, ops = "sweep curve", [_sweep_op(hypschwarz, out_dir), _sweep_op(parent, out_dir)]
        elif args.certs:
            stream = workloads.Stream("certify", 1)
            items = [stream.item(i) for i in range(args.inputs)]
            what, ops = "certificates", [_timed_op(hypschwarz, _certificates), _timed_op(parent, _certificates)]
        else:
            stream = workloads.Stream("scatter", 1)
            box = (item for item in map(stream.item, itertools.count()) if item.box)
            items = list(itertools.islice(box, args.inputs))
            what, ops = "cold g_p", [_timed_op(hypschwarz, _cold_g_p), _timed_op(parent, _cold_g_p)]
        (new, old), differ = measure(ops, items, args.rounds)
    ratios = [a / b for a, b in zip(new, old)]
    lower, median, upper = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"{what}: {len(items)} inputs, fastest of {args.rounds} interleaved rounds")
    print(f"median ratio {median:.3f} (quartiles {lower:.3f}-{upper:.3f}), this tree against {args.parent_src}")
    print(f"median time {statistics.median(new) * 1e3:.4f} ms against {statistics.median(old) * 1e3:.4f} ms")
    print(f"{differ} of {len(items)} results not bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
