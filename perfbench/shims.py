"""Timing shims around rdblowup's public functions, for the traced run.

`Tracer.install()` wraps each public name listed in TARGETS and replaces
every reference to it that the package holds: module attributes (so that
`rdblowup.cli.simulate` and `rdblowup.bounds.check_H1` are patched where
their callers look them up) and values of module-level dicts (such as
the CLI's command table).  A missing module or name is recorded as
absent and the run goes on.  Reaction callables `f1`, `f2` and `F` are
wrapped on every `Nonlinearity` the factories return, and each call is
charged to the innermost active span.

Spans are kept in memory.  A span's self time is its duration minus the
time of the spans and reaction calls nested inside it.
"""

import dataclasses
import functools
import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("geometry", "fields", "nonlinearity", "functionals", "bounds",
          "solver", "oracle", "cli")

TARGETS = {
    "geometry": ("build_mesh", "geometry_constants"),
    "fields": ("make_field",),
    "nonlinearity": ("make_power_product", "make_gradient_homogeneous",
                     "make_absorption", "check_H1", "check_H2_H3",
                     "check_A2_A3", "check_A2prime", "classify_absorption"),
    "functionals": ("energy_E", "energy_scriptE", "functional_J",
                    "energy_sample", "check_trace_monitors"),
    "bounds": ("upper_bound_blowup", "lower_bound_pipeline",
               "lower_bound_blowup", "select_betas", "compute_K"),
    "solver": ("simulate", "step", "rhs", "estimate_blowup_time"),
    "oracle": ("ode_reduce", "brute_force_integral"),
    "cli": ("main", "Experiment", "cmd_check", "cmd_bounds", "cmd_simulate",
            "cmd_sandwich"),
}

# factories whose returned Nonlinearity gets counted reaction callables
_FACTORIES = {"nonlinearity.make_power_product", "nonlinearity.make_gradient_homogeneous",
              "nonlinearity.make_absorption"}
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    def __init__(self):
        self.stack = []                # frames [span name, child seconds]
        self.depth = Counter()         # active nesting depth per span name
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.f_calls = Counter()       # reaction calls by innermost span
        self.f_time = defaultdict(float)
        self.absent = []
        self._caps = []                # diffusion cap of each active simulate
        self._patches = []

    # --- installing ---------------------------------------------------------
    def install(self):
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"rdblowup.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._replace(original, self._wrap(f"{layer}.{name}", original))
        return self

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _replace(self, original, wrapper):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rdblowup" or n.startswith("rdblowup."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, original))
                            value[dkey] = wrapper

    def _wrap(self, name, original):
        if isinstance(original, type):
            tracer, init = self, original.__init__

            def __init__(obj, *args, **kwargs):
                tracer.call(name, init, obj, *args, **kwargs)

            return type(original.__name__, (original,),
                        {"__init__": __init__, "__module__": original.__module__})

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        return wrapper

    # --- recording ----------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        if name == "solver.simulate":
            self._enter_simulate(args, kwargs)
        frame = [name, 0.0]
        self.stack.append(frame)
        self.depth[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.stack.pop()
            self.depth[name] -= 1
            self.calls[name] += 1
            self.incl[name] += elapsed
            self.self_time[name] += elapsed - frame[1]
            if self.stack:
                self.stack[-1][1] += elapsed
            if name == "solver.simulate" and self._caps:
                self._caps.pop()
        if name == "solver.step":
            self._count_step(args, kwargs, result)
        elif name == "solver.simulate":
            self.counts["solver.steps_accepted"] += getattr(result, "n_steps", 0)
        elif name in _FACTORIES:
            result = self.wrap_nonlinearity(result)
        return result

    def _enter_simulate(self, args, kwargs):
        try:
            mesh = (args[0] if args else kwargs["config"]).mesh
            self._caps.append(0.4 * min(mesh.h) ** 2 / (2.0 * mesh.spec.dimension))
        except _HOOK_ERRORS:
            self._caps.append(None)

    def _count_step(self, args, kwargs, result):
        try:
            dt = args[1] if len(args) > 1 else kwargs["dt"]
            err = result[1]
        except _HOOK_ERRORS:
            return
        if not math.isfinite(err):
            self.counts["solver.steps_rejected_nonfinite"] += 1
        elif err > 1.0:
            self.counts["solver.steps_rejected_tol"] += 1
        elif self._caps and self._caps[-1] is not None and dt >= self._caps[-1] * (1 - 1e-12):
            self.counts["solver.steps_at_cap"] += 1

    def wrap_nonlinearity(self, nl):
        """Copy of `nl` whose reaction callables are counted and timed."""
        if not dataclasses.is_dataclass(nl):
            return nl
        changes = {key: self._wrap_reaction(key, getattr(nl, key))
                   for key in ("f1", "f2", "F") if callable(getattr(nl, key, None))}
        return dataclasses.replace(nl, **changes)

    def _wrap_reaction(self, key, fn):
        stack, depth = self.stack, self.depth

        def reaction(u, v):
            start = perf_counter()
            try:
                return fn(u, v)
            finally:
                elapsed = perf_counter() - start
                parent = stack[-1][0] if stack else "benchmark"
                self.f_calls[parent] += 1
                self.f_time[parent] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if key == "f1":
                    if depth["solver.simulate"]:
                        self.counts["solver.rhs_evals"] += 1
                    if depth["oracle.ode_reduce"]:
                        self.counts["oracle.ode_rhs_evals"] += 1

        return reaction

    # --- reporting ----------------------------------------------------------
    def layer_metrics(self, n_ops):
        """Per-layer metrics, each per traced op."""
        per = 1.0 / max(n_ops, 1)
        ms = 1e3 * per

        def f_by_layer(table, layer):
            return sum(v for k, v in table.items() if k.split(".")[0] == layer)

        out = {
            "solver.steps_accepted": (self.counts["solver.steps_accepted"] * per, "count"),
            "solver.steps_rejected_tol": (self.counts["solver.steps_rejected_tol"] * per, "count"),
            "solver.steps_rejected_nonfinite":
                (self.counts["solver.steps_rejected_nonfinite"] * per, "count"),
            "solver.rhs_evals": (self.counts["solver.rhs_evals"] * per, "count"),
            "solver.steps_at_cap": (self.counts["solver.steps_at_cap"] * per, "count"),
            "solver.step_self_ms": (self.self_time["solver.step"] * ms, "ms"),
            "solver.loop_self_ms": (self.self_time["solver.simulate"] * ms, "ms"),
            "solver.estimate_ms": (self.incl["solver.estimate_blowup_time"] * ms, "ms"),
            "functionals.energy_sample_calls":
                (self.calls["functionals.energy_sample"] * per, "count"),
            "functionals.energy_sample_ms": (self.incl["functionals.energy_sample"] * ms, "ms"),
            "nonlinearity.f_calls": (sum(self.f_calls.values()) * per, "count"),
            "nonlinearity.f_ms": (sum(self.f_time.values()) * ms, "ms"),
            "nonlinearity.check_H1_ms": (self.incl["nonlinearity.check_H1"] * ms, "ms"),
            "nonlinearity.check_A2prime_ms": (self.incl["nonlinearity.check_A2prime"] * ms, "ms"),
            "nonlinearity.check_H2_H3_ms": (self.incl["nonlinearity.check_H2_H3"] * ms, "ms"),
            "bounds.upper_ms": (self.incl["bounds.upper_bound_blowup"] * ms, "ms"),
            "bounds.lower_ms": (self.incl["bounds.lower_bound_pipeline"] * ms, "ms"),
            "bounds.quad_ms": (self.incl["bounds.lower_bound_blowup"] * ms, "ms"),
            "oracle.ode_reduce_ms": (self.incl["oracle.ode_reduce"] * ms, "ms"),
            "oracle.ode_rhs_evals": (self.counts["oracle.ode_rhs_evals"] * per, "count"),
            "cli.experiment_builds": (self.calls["cli.Experiment"] * per, "count"),
            "cli.parse_ms": (self.self_time["cli.Experiment"] * ms, "ms"),
        }
        for layer in ("solver", "functionals", "nonlinearity", "oracle"):
            out[f"nonlinearity.f_calls.{layer}"] = (f_by_layer(self.f_calls, layer) * per, "count")
            out[f"nonlinearity.f_ms.{layer}"] = (f_by_layer(self.f_time, layer) * ms, "ms")
        for layer in LAYERS:
            own = sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)
            if layer == "nonlinearity":
                own += sum(self.f_time.values())
            out[f"{layer}.self_ms"] = (own * ms, "ms")
        return out

    def span_table(self):
        """(name, calls, inclusive ms, self ms) of every span that ran."""
        return [(name, self.calls[name], 1e3 * self.incl[name], 1e3 * self.self_time[name])
                for name in sorted(self.calls)]
