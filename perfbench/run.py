"""The hypschwarz benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  Every measurement happens in a fresh child interpreter
(``child.py``) whose environment this script fixes: BLAS and OpenMP threads
at 1, ``HYPSCHWARZ_ORDER`` unset, no bytecode written.  CPU pinning and
frequency control are not used.

Times are scaled to a reference machine speed (``speed.py``).  Set-up is
timed in several fresh processes and reported as a median.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs the inputs once untraced and once under the outside-in tracer
(``tracer.py``) and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.  The exit code is
0 when every hard correctness gate holds, 1 when one is missed and 2 when the
benchmark cannot run at all (nothing is printed on standard output then).
See README.md for the workloads, metrics and gates.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "scatter", "certify", "battery")
SETUP_REPEATS = 5
# Failure classes counted as failures without making the run incorrect: the
# seed already misses them on part of the acceptance box (see README.md).
ACCURACY_CLASSES = ("p2_mismatch", "cert_gap")
SECONDS_PER_CHECK = 5.0  # one cold battery check per this much budget, at least two
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not measure (not a gate the program missed)."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("HYPSCHWARZ_ORDER", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


class Children:
    """Starts child interpreters one at a time within the run's deadline."""

    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def __call__(self, *args) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before all measurements ran")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *map(str, args)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"child {args} exceeded the time limit") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            detail = done.stderr.strip()[-2000:]
            raise BenchError(f"child {args} failed ({done.returncode}): {detail}")
        return json.loads(lines[-1])


def tail(values: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum when there are ten samples or fewer.  The sample
    count depends only on ``--seconds``, so the percentile is fixed too."""
    ordered = sorted(values)
    beyond = 10 if len(ordered) > 10 else 0
    return ordered[-1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered)


class Report:
    """Collects the metrics and the human-readable lines of one run."""

    def __init__(self, spec: dict, trace: bool):
        key = "per_layer" if trace else "end_to_end"
        self.units = {m["name"]: m["unit"] for m in spec[key]}
        self.metrics = {}
        self.lines = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = {"value": float(value), "unit": self.units[name]}

    def say(self, text: str) -> None:
        self.lines.append(text)

    def result(self) -> dict:
        missing = set(self.units) - set(self.metrics)
        extra = set(self.metrics) - set(self.units)
        if missing or extra:
            raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics}


def _speed_line(out: dict) -> str:
    samples = out["reference_s"]
    return (f"machine speed: reference work took {1000 * statistics.median(samples):.3f} ms "
            f"(median of {len(samples)} samples); times below are scaled to "
            f"{1000 * out['reference_nominal_s']:g} ms")


def _env_line(env: dict) -> str:
    return (f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
            f"scipy {env['scipy']}; threads pinned to 1 by environment, no CPU pinning "
            f"or frequency control")


def _failure_line(failures: dict, attempted: int) -> str:
    total = sum(failures.values())
    classes = ", ".join(f"{k} {v}" for k, v in sorted(failures.items())) or "none"
    return f"failed_share {total / attempted:.4f} ({total}/{attempted}; {classes})"


ALIASES = {
    "sweep": ("curve", "points_per_s"),
    "scatter": ("point", "points_per_s"),
    "certify": ("cert", "certs_per_s"),
}


def measure_setup(children: Children, report: Report, workload: str, seed: int) -> None:
    probes = [children("setup", workload, seed) for _ in range(SETUP_REPEATS)]
    scaled = statistics.median(p["setup_s"] for p in probes)
    report.metric("setup_s", scaled)
    report.say(f"setup_s {scaled:.4f} s (median of {len(probes)} fresh processes: import plus "
               f"the first answer; unscaled {statistics.median(p['raw_s'] for p in probes):.4f} s)")


def _tally(report: Report, ops: list) -> dict:
    failures = {}
    for _, box, failure, *_ in ops:
        if failure:
            failures[failure] = failures.get(failure, 0) + 1
            # Box inputs must succeed; accuracy misses are counted, not fatal.
            report.correct &= not box or failure in ACCURACY_CLASSES
    report.attempted += len(ops)
    report.failed += sum(failures.values())
    return failures


def _fastest(rounds: list) -> list:
    """Each input's fastest time over the given rounds of the same inputs."""
    return [min(times) for times in zip(*([rec[0] for rec in r] for r in rounds))]


def loop_workload(children: Children, report: Report, workload: str, seed: int,
                  seconds: float, trace: bool) -> None:
    out = children("run", workload, seed, seconds, int(trace))
    rounds, kinds = out["rounds"], out["kinds"]
    if not rounds[0]:
        raise BenchError("no operation completed")
    failures = {}
    for records in rounds:
        for name, count in _tally(report, records).items():
            failures[name] = failures.get(name, 0) + count
    first = rounds[0]
    box = [i for i, rec in enumerate(first) if rec[1]]
    p2_err = max((rec[4] for records in rounds for rec in records if rec[1]), default=0.0)
    report.say(_env_line(out["env"]))
    report.say(_failure_line(failures, report.attempted))
    report.say(f"p2_rel_err_max {p2_err:.3e} (gate 1e-07)")
    report.say(_speed_line(out))
    plain = _fastest([r for r, kind in zip(rounds, kinds) if kind == "plain"])
    if trace:
        traced = _fastest([r for r, kind in zip(rounds, kinds) if kind == "traced"])
        layers = dict(out["layers"])
        layers["trace.overhead_share"] = sum(traced) / sum(plain) - 1.0
        layers["quadrature.rule_builds"] = out["rule_builds"]
        layers["cli.bytes_out"] = statistics.fmean(rec[5] for rec in first)
        layers["solver.p2_rel_err_max"] = p2_err
        _layer_report(report, layers, out["selftest"], out["top"], len(first))
        return
    latencies = [plain[i] for i in box]
    slow, pct = tail(latencies)
    rate = sum(first[i][3] for i in box) / sum(latencies)
    report.metric("op_ms_p50", 1000.0 * statistics.median(latencies))
    report.metric("op_ms_tail", 1000.0 * slow)
    report.metric("results_per_s", rate)
    report.metric("peak_rss_mb", out["rss_mb"])
    unit, rate_name = ALIASES[workload]
    beyond = sum(1 for x in latencies if x > slow)
    report.say(f"{unit}_ms_p50 {1000 * statistics.median(latencies):.3f} ms over {len(latencies)} "
               f"{'acceptance-box ' if workload == 'scatter' else ''}inputs, each the fastest "
               f"of {len(rounds)} interleaved round(s)")
    report.say(f"{unit}_ms_tail {1000 * slow:.3f} ms = p{pct:.4g} ({beyond} inputs beyond)")
    raw = [min(r[i][6] for r in rounds) for i in box]
    report.say(f"unscaled: {unit}_ms_p50 {1000 * statistics.median(raw):.3f} ms, "
               f"{unit}_ms_tail {1000 * tail(raw)[0]:.3f} ms")
    report.say(f"{rate_name} {rate:.3f} /s")
    report.say(f"peak_rss_mb {out['rss_mb']:.1f} MB")


def _check_seconds(checks: list) -> float:
    """Battery time: each criterion's fastest scaled time over cold processes."""
    return sum(min(out["criteria"][name] for out in checks) for name in checks[0]["criteria"])


def battery(children: Children, report: Report, seconds: float, trace: bool) -> None:
    plain, traced = [], []
    for _ in range(max(2, round(seconds / SECONDS_PER_CHECK))):
        # A traced run compares like with like: no samples inside either check.
        plain.append(children("check", 0, int(not trace)))
        if trace:
            traced.append(children("check", 1, 0))
    failures = {}
    for out in plain + traced:
        lines = out["lines"]
        bad = sum(1 for line in lines if "[PASS]" not in line)
        if out["code"] != 0 and not bad:
            bad = 1
        if bad:
            failures["criterion_fail"] = failures.get("criterion_fail", 0) + bad
        report.attempted += max(len(lines), 1)
        report.failed += bad
    report.correct = not failures
    check_s = _check_seconds(plain)
    report.say(_env_line(plain[0]["env"]))
    report.say(_failure_line(failures, report.attempted))
    if trace:
        layers = {name: statistics.fmean(out["layers"][name] for out in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_share"] = _check_seconds(traced) / check_s - 1.0
        layers["quadrature.rule_builds"] = statistics.fmean(o["rule_builds"] for o in traced)
        layers["cli.bytes_out"] = statistics.fmean(o["bytes_out"] for o in traced)
        layers["solver.p2_rel_err_max"] = 0.0  # the battery gates p = 2 itself (criterion 2)
        _layer_report(report, layers, traced[-1]["selftest"], traced[-1]["top"], len(traced))
        return
    passed = statistics.median(sum(1 for line in out["lines"] if "[PASS]" in line) for out in plain)
    rss = statistics.median(out["rss_mb"] for out in plain)
    # One fixed input: its latency is both the median and the tail.
    report.metric("op_ms_p50", 1000.0 * check_s)
    report.metric("op_ms_tail", 1000.0 * check_s)
    report.metric("results_per_s", passed / check_s)
    report.metric("peak_rss_mb", rss)
    walls = sorted(out["seconds"] for out in plain)
    report.say(f"check_s {check_s:.4f} s (each criterion's fastest of {len(plain)} cold processes; "
               f"whole checks took {walls[0]:.3f} to {walls[-1]:.3f} s)")
    report.say(f"criteria_per_s {passed / check_s:.3f} /s")
    report.say(f"peak_rss_mb {rss:.1f} MB")


def _layer_report(report: Report, layers: dict, selftest: dict, top: list, ops: int) -> None:
    for name, value in layers.items():
        report.metric(name, value)
    report.correct &= selftest["agree"]
    report.say(f"tracer self-test, cold g_p(BallContext(4, 3.0), 0.5): "
               f"traced {selftest['traced']}, "
               f"profiler {selftest['profiled']}, agree {selftest['agree']}, "
               f"seed probe 7/4/2/13 matched {selftest['matches_seed_probe']}")
    report.say(f"per-layer metrics per traced operation ({ops} operations):")
    for name in sorted(layers):
        report.say(f"  {name} {layers[name]:.6g} {report.units[name]}")
    report.say("functions by self time (calls, self s):")
    for label, calls, own in top:
        report.say(f"  {label} {calls} {own:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    try:
        spec_path = ROOT / "BENCHMARK.json"
        if not (ROOT / "src" / "hypschwarz" / "__init__.py").is_file() or not spec_path.is_file():
            raise BenchError(f"{ROOT} is not a hypschwarz source checkout")
        spec = json.loads(spec_path.read_text())
        report = Report(spec, bool(args.trace))
        children = Children()
        if not args.trace:
            measure_setup(children, report, args.workload, args.seed)
        if args.workload == "battery":
            battery(children, report, args.seconds, bool(args.trace))
        else:
            loop_workload(children, report, args.workload, args.seed, args.seconds,
                          bool(args.trace))
        result = report.result()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in report.lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
