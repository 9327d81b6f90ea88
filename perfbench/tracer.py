"""Outside-in tracer for the hypschwarz layers.

Every public function defined in the eight package modules is wrapped, and
the wrapper is rebound in every ``hypschwarz.*`` namespace that holds the
function (``solver`` calls ``big_f`` through its own ``from .objective import
big_f`` binding, so patching the defining module alone would miss it).  No
package file is edited: the wrappers only exist while a ``Tracer`` is
installed, which happens in traced runs only.

Spans are kept in memory as flat arrays (name, parent, start, end).  A span's
self time is its duration minus the durations of its direct children.  An
integrand callback passed to a quadrature routine gets a span of its own,
named after the layer that called the quadrature routine, so the quadrature
layer is charged for its panel work only and not for its callers' integrands.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "hypschwarz"
LAYERS = ("special", "kernel", "quadrature", "objective", "solver", "verify", "cli", "acceptance")

# Functions whose argument sizes are counted.
_KERNEL_NODE_FUNCS = ("poisson_szego_axis",)
_INTEGRATORS = ("integrate_with_breakpoint", "integrate_zonal")
_DRAW_FUNCS = ("random_bound_check", "random_grad_check", "corollary_l2_batch")
_CLOSED_FORMS = ("g_1_closed", "g_2_closed", "g_inf_closed", "uh_elementary")
_CACHED_ENTRIES = ("g_p", "solve_a_star")

# Independent check of the call counts: the seed's cold g_p(BallContext(4, 3.0),
# 0.5) evaluates F 7 times, dF/da 4 times and Phi twice, one breakpoint
# integral each.
SELFTEST_SEED_COUNTS = {"big_f": 7, "dF_da": 4, "phi": 2, "integrate_with_breakpoint": 13}


def package_modules():
    """Import and return the eight layer modules, keyed by layer name."""
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _arg_getter(fn, name):
    """Fast accessor for parameter ``name`` of ``fn`` in a call's arguments."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = True
        self.counts = Counter()
        self.errors = Counter()
        self.eligible: set[int] = set()  # g_p / solve_a_star spans that could solve
        self._raised: set[int] = set()
        self._patched: list[tuple] = []

    # ----- installation -------------------------------------------------
    def install(self) -> "Tracer":
        wrappers = {}
        for layer, module in package_modules().items():
            for fname, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, layer, fname))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Run the enclosed calls unrecorded (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _name_id(self, label: str, layer: str) -> int:
        self.names.append(label)
        self.layer_of_name.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, layer: str, fname: str):
        tracer = self
        name_id = self._name_id(f"{layer}.{fname}", layer)
        if fname in _INTEGRATORS:
            arg_hook = self._integrand_hook(fn)
        else:
            arg_hook = None
        if fname in _KERNEL_NODE_FUNCS:
            get_t = _arg_getter(fn, "t")

            def count_hook(args, kwargs):
                tracer.counts["kernel.nodes"] += int(np.size(get_t(args, kwargs)))
        elif fname in _DRAW_FUNCS:
            get_count = _arg_getter(fn, "count")

            def count_hook(args, kwargs):
                tracer.counts["verify.draws"] += int(get_count(args, kwargs))
        elif fname in _CACHED_ENTRIES:
            get_ctx, get_r = _arg_getter(fn, "ctx"), _arg_getter(fn, "r")

            def count_hook(args, kwargs):
                ctx, r = get_ctx(args, kwargs), get_r(args, kwargs)
                if 1.0 < ctx.p < float("inf") and r > 0.0:
                    tracer.eligible.add(len(tracer.name) - 1)
        else:
            count_hook = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(tracer.stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if arg_hook is not None:
                args, kwargs = arg_hook(idx, args, kwargs)
            if count_hook is not None:
                count_hook(args, kwargs)
            tracer.stack.append(idx)
            tracer.start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if id(exc) not in tracer._raised:
                    tracer._raised.add(id(exc))
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer.end[idx] = perf_counter()
                tracer.stack.pop()
                if len(tracer.stack) == 1:
                    tracer._raised.clear()

        return traced

    def _integrand_hook(self, fn):
        """Replace the integrand of a top-level integral by a counted span."""
        tracer = self
        integrand_ids = {}
        get_f = _arg_getter(fn, "f")
        f_pos = list(inspect.signature(fn).parameters).index("f")

        def hook(idx, args, kwargs):
            caller = tracer.parent[idx]
            if caller >= 0 and tracer.layer_of_name[tracer.name[caller]] == "quadrature":
                return args, kwargs  # nested integral: the outer one already counts
            tracer.counts["quadrature.integrals"] += 1
            layer = tracer.layer_of_name[tracer.name[caller]] if caller >= 0 else "bench"
            if layer not in integrand_ids:
                integrand_ids[layer] = tracer._name_id(f"{layer}.integrand", layer)
            name_id = integrand_ids[layer]
            f = get_f(args, kwargs)

            def integrand(x):
                tracer.counts["quadrature.nodes"] += int(np.size(x))
                i = len(tracer.name)
                tracer.name.append(name_id)
                tracer.parent.append(tracer.stack[-1])
                tracer.start.append(perf_counter())
                tracer.end.append(0.0)
                tracer.stack.append(i)
                try:
                    return f(x)
                finally:
                    tracer.end[i] = perf_counter()
                    tracer.stack.pop()

            if len(args) > f_pos:
                return args[:f_pos] + (integrand,) + args[f_pos + 1:], kwargs
            return args, {**kwargs, "f": integrand}

        return hook

    # ----- analysis -----------------------------------------------------
    def summary(self) -> dict:
        """Per-function calls, total and self seconds, plus derived layer sums."""
        count = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        reaches_objective = bytearray(count)
        objective_ids = {i for i, layer in enumerate(self.layer_of_name) if layer == "objective"}
        for i in range(count - 1, -1, -1):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += dur[i]
                if reaches_objective[i] or self.name[i] in objective_ids:
                    reaches_objective[parent] = 1
        per_func = {}
        layer_self = Counter()
        for i in range(count):
            label = self.names[self.name[i]]
            row = per_func.setdefault(label, [0, 0.0, 0.0])
            own = dur[i] - child[i]
            row[0] += 1
            row[1] += dur[i]
            row[2] += own
            layer_self[self.layer_of_name[self.name[i]]] += own

        def label_of(i):
            return self.names[self.name[i]]

        solve_spans = [i for i in range(count) if label_of(i) == "solver.solve_a_star"]
        solves = [i for i in solve_spans if reaches_objective[i]]
        solving = set(solves)
        f_in_solves = 0
        for i in range(count):
            if label_of(i) != "objective.big_f":
                continue
            j = self.parent[i]
            while j >= 0 and label_of(j) != "solver.solve_a_star":
                j = self.parent[j]
            if j in solving:
                f_in_solves += 1
        hits = sum(1 for i in self.eligible if not reaches_objective[i])
        special_calls = sum(
            1
            for i in range(count)
            if self.layer_of_name[self.name[i]] == "special"
            and (self.parent[i] < 0 or self.layer_of_name[self.name[self.parent[i]]] != "special")
        )
        return {
            "per_func": per_func,
            "layer_self": layer_self,
            "calls": Counter({label: row[0] for label, row in per_func.items()}),
            "solves": len(solves),
            "f_per_solve": f_in_solves / len(solves) if solves else 0.0,
            "cache_hit_share": hits / len(self.eligible) if self.eligible else 0.0,
            "special_calls": special_calls,
        }


def layer_metrics(tracer: Tracer, s: dict, ops: int) -> dict:
    """The per-layer metrics of a traced pass over ``ops`` operations, from
    the tracer and its ``summary()`` ``s``.

    Counts and self times are per operation; shares and ratios are not.
    """
    calls, counts = s["calls"], tracer.counts

    def per_op(value):
        return value / ops

    integrals = counts["quadrature.integrals"]
    metrics = {
        "objective.F_evals": per_op(calls["objective.big_f"]),
        "objective.dF_evals": per_op(calls["objective.dF_da"]),
        "objective.phi_evals": per_op(calls["objective.phi"]),
        "solver.F_per_solve": s["f_per_solve"],
        "solver.solves": per_op(s["solves"]),
        "solver.closed_form_calls": per_op(sum(calls[f"solver.{f}"] for f in _CLOSED_FORMS)),
        "solver.cache_hit_share": s["cache_hit_share"],
        "quadrature.integrals": per_op(integrals),
        "quadrature.nodes_per_integral": (
            counts["quadrature.nodes"] / integrals if integrals else 0.0),
        "kernel.nodes": per_op(counts["kernel.nodes"]),
        "special.calls": per_op(s["special_calls"]),
        "verify.draws": per_op(counts["verify.draws"]),
        "verify.certs": per_op(calls["verify.verify_sharpness"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_op(s["layer_self"][layer])
        metrics[f"{layer}.errors"] = per_op(tracer.errors[layer])
    for k in range(1, 10):
        row = s["per_func"].get(f"acceptance.criterion_{k}")
        metrics[f"acceptance.c{k}_s"] = per_op(row[1] if row else 0.0)
    return metrics


def top_functions(s: dict, limit: int = 12) -> list:
    """(label, calls, self seconds) of the functions with the most self time."""
    rows = s["per_func"].items()
    ranked = sorted(rows, key=lambda item: item[1][2], reverse=True)[:limit]
    return [(label, row[0], row[2]) for label, row in ranked]


def quadrature_rule_builds() -> int:
    """Rule constructions so far in this process: misses of the quadrature
    module's memo caches."""
    module = importlib.import_module(f"{PACKAGE}.quadrature")
    return sum(
        obj.cache_info().misses
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_info", None))
    )


def selftest(clear_caches) -> dict:
    """Trace one cold g_p and count the same calls with a profiler hook.

    Returns the tracer's counts, the profiler's counts and whether both
    agree; agreement shows that no call path bypasses the rebound wrappers.
    """
    modules = package_modules()
    targets = {
        fname: getattr(modules[layer], fname).__code__
        for layer, fname in (
            ("objective", "big_f"),
            ("objective", "dF_da"),
            ("objective", "phi"),
            ("quadrature", "integrate_with_breakpoint"),
        )
    }
    by_code = {code: fname for fname, code in targets.items()}
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call":
            fname = by_code.get(frame.f_code)
            if fname is not None:
                profiled[fname] += 1

    clear_caches()
    tracer = Tracer().install()
    kernel, solver = modules["kernel"], modules["solver"]
    sys.setprofile(profile)
    try:
        solver.g_p(kernel.BallContext(4, 3.0), 0.5)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
        clear_caches()
    calls = tracer.summary()["calls"]
    traced = {fname: calls[f"{layer}.{fname}"] for fname, layer in (
        ("big_f", "objective"), ("dF_da", "objective"), ("phi", "objective"),
        ("integrate_with_breakpoint", "quadrature"),
    )}
    return {
        "traced": traced,
        "profiled": dict(profiled),
        "agree": traced == {k: profiled.get(k, 0) for k in traced},
        "matches_seed_probe": traced == SELFTEST_SEED_COUNTS,
    }
