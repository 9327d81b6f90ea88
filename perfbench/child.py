"""One fresh interpreter of the benchmark; ``run.py`` starts it.

    child.py setup <workload> <seed>               import plus the first answer
    child.py run <workload> <seed> <seconds> <trace>   closed-loop timed pass
    child.py check <trace> <sampling>              ``hypschwarz check``, cold

The last line of standard output is one JSON object with the measurements.
"""

from time import perf_counter

T0 = perf_counter()  # set-up is timed from here, before the package import

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (numpy: part of every set-up anyway)

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    import hypschwarz

    where = Path(hypschwarz.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"hypschwarz imported from {where}, not from this checkout")
    import workloads

    return workloads


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _operation(wl, workload: str, scratch: Path):
    if workload == "sweep":
        out = str(scratch / "curve.csv")
        return lambda item, untraced=nullcontext: wl.run_sweep(item, out, untraced)
    if workload == "scatter":
        return wl.run_point
    if workload == "certify":
        return wl.run_cert
    raise SystemExit(f"unknown workload {workload!r}")


def _record(outcome) -> list:
    """[scaled seconds, box, failure class, correct results, p = 2 deviation,
    bytes written, unscaled seconds]; both times are raw until scaled."""
    return [outcome.seconds, outcome.box, outcome.failure, outcome.results,
            outcome.p2_rel_err, outcome.bytes_out, outcome.seconds]


def setup(workload: str, seed: int) -> None:
    with speed.Clock() as clock:
        wl = _import_package()
        if workload == "battery":
            from hypschwarz import acceptance

            acceptance.criterion_1()  # the battery's first answer line
        else:
            scratch = _scratch()
            try:
                _operation(wl, workload, scratch)(wl.Stream(workload, seed).setup_item())
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        scaled, raw = clock.scaled(T0, perf_counter())
    _emit({"setup_s": scaled, "raw_s": raw})


def _scratch() -> Path:
    path = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


# Traced runs time the same inputs once untraced and once traced, with as
# many inputs as the untraced run's rounds hold in total, split in two.
TRACE_ROUNDS = ("plain", "traced")


def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    wl = _import_package()
    caches = wl.solver_caches()

    def clear_caches():
        for cache in caches:
            cache.cache_clear()

    stream = wl.Stream(workload, seed)
    rounds = wl.ROUNDS[workload]
    count = wl.INPUTS_PER_SECOND[workload] * seconds
    if trace:
        kinds, count = TRACE_ROUNDS, count * rounds / len(TRACE_ROUNDS)
    else:
        kinds = ("plain",) * rounds
    count = max(1, round(count))
    scratch = _scratch()
    payload = {"kinds": kinds, "rounds": [], "reference_s": [],
               "reference_nominal_s": speed.REFERENCE_S}
    try:
        op = _operation(wl, workload, scratch)
        op(stream.setup_item())  # cold first answer, outside the timed rounds
        clear_caches()
        if trace:
            import tracer as tr

            payload["selftest"] = tr.selftest(clear_caches)
            tracer = tr.Tracer()
        for kind in kinds:
            if kind == "traced":
                tracer.install()
            untraced = tracer.paused if kind == "traced" else nullcontext
            records = []
            # Never a reference sample inside a traced operation: it would
            # land in a span.
            with speed.Clock(sampling=wl.SAMPLE_INSIDE[workload] and not trace) as clock:
                try:
                    for i in range(count):
                        started = perf_counter()
                        records.append(_record(op(stream.item(i), untraced)) + [started])
                        clear_caches()
                        if perf_counter() - clock.ends[-1] >= speed.SAMPLE_EVERY_S:
                            clock.sample()
                finally:
                    if kind == "traced":
                        tracer.uninstall()
            for record in records:
                record[0], record[6] = clock.scaled(record[7], record[7] + record[0])
                del record[7]
            payload["rounds"].append(records)
            payload["reference_s"].extend(clock.durations())
        payload.update({"rss_mb": _rss_mb(), "env": _versions()})
        if trace:
            summary = tracer.summary()
            payload.update({
                "layers": tr.layer_metrics(tracer, summary, count),
                "rule_builds": tr.quadrature_rule_builds(),
                "top": tr.top_functions(summary),
            })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _emit(payload)


def _time_criteria(acceptance) -> dict:
    """Record (start, end) of each ``criterion_<k>`` call the battery makes."""
    spans = {}
    for name, fn in list(vars(acceptance).items()):
        if name.startswith("criterion_") and callable(fn):
            def timed(*args, _fn=fn, _name=name, **kwargs):
                started = perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    spans[_name] = (started, perf_counter())

            setattr(acceptance, name, timed)
    return spans


def check(trace: bool, sampling: bool) -> None:
    wl = _import_package()
    from hypschwarz import acceptance

    payload = {}
    if trace:
        import tracer as tr

        tracer = tr.Tracer().install()
        # No samples inside the check: they would land in traced spans.
        with speed.Clock(sampling=False) as clock:
            try:
                started = perf_counter()
                seconds, code, lines, size = wl.run_check()
            finally:
                tracer.uninstall()
        scaled, raw = clock.scaled(started, started + seconds)
        summary = tracer.summary()
        payload.update({
            "criteria": {label.split(".", 1)[1]: row[1] * scaled / raw
                         for label, row in summary["per_func"].items()
                         if label.startswith("acceptance.criterion_")},
            "layers": tr.layer_metrics(tracer, summary, 1),
            "rule_builds": tr.quadrature_rule_builds(),
            "top": tr.top_functions(summary),
            "selftest": tr.selftest(lambda: [c.cache_clear() for c in wl.solver_caches()]),
        })
    else:
        spans = _time_criteria(acceptance)
        with speed.Clock(sampling) as clock:
            seconds, code, lines, size = wl.run_check()
        payload["criteria"] = {name: clock.scaled(a, b)[0] for name, (a, b) in spans.items()}
    payload.update({
        "seconds": seconds, "code": code, "lines": lines, "bytes_out": size,
        "rss_mb": _rss_mb(), "env": _versions(),
    })
    _emit(payload)


def main(argv) -> None:
    role = argv[0]
    if role == "setup":
        setup(argv[1], int(argv[2]))
    elif role == "run":
        run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    elif role == "check":
        check(argv[1] == "1", argv[2] == "1")
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
