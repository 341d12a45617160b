"""Outside-in tracing of the landscape_lab layers.

The tracer wraps every public function of the package modules, and the
value / euclidean_grad / hess_vec methods of the four risk models, with a
span that counts calls and self time (span duration minus the time of the
spans it encloses). The package source is untouched: a wrapped function is
rebound by name in its defining module and in every package module that
imported it with ``from .x import y``, so calls between modules go through
the wrapper too. Private helpers are not wrapped; their time counts as self
time of the public function that called them.

Each thread keeps its own span stack and tallies, merged when read, so the
counts stay exact under the ``ms_rank2_dist`` thread pool. For the
outermost span of a pool thread the tracer also reads ``time.thread_time``,
which splits that thread's time into busy (running) and waiting (mostly on
the interpreter lock).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
import threading
import time

# layer name -> package modules it covers
LAYERS = {
    "manifold": ("manifold",),
    "risk_models": ("risk_models",),
    "spectral": ("spectral",),
    "landscape": ("landscape",),
    "critical_points": ("critical_points",),
    "experiments": ("experiments", "cli"),
    "rng": ("rng",),
}
RISK_CLASSES = ("MsPopulationRisk", "MsEmpiricalRisk", "PrPopulationRisk", "PrEmpiricalRisk")
RISK_METHODS = ("value", "euclidean_grad", "hess_vec")

# spans reported by name, as <name>.calls and <name>.self_s
NAMED_SPANS = (
    "manifold.horizontal_basis",
    "manifold.horizontal_project",
    "manifold.solve_skew_sylvester",
    *(f"risk_models.{c}.{m}" for c in RISK_CLASSES for m in RISK_METHODS),
    "risk_models.SensingEnsemble.apply",
    "spectral.dense_euclidean_hessian",
    "spectral.min_eig_horizontal",
    "spectral.min_eig_euclidean",
    "critical_points.damped_newton",
    "critical_points.refine_minimum_horizontal",
)

# span -> (counter, enclosing spans it is counted under)
_NESTED_COUNTERS = {
    "spectral.dense_euclidean_hessian": ("newton_hessians", ("critical_points.damped_newton",)),
    "manifold.horizontal_basis": ("refine_iters", ("critical_points.refine_minimum_horizontal",)),
    "landscape.classify_region_ms": ("proposals", ("landscape.sample_region_ms",)),
    "landscape.classify_region_pr": ("proposals", ("landscape.sample_region_pr",)),
}


def _array_bytes(obj) -> int:
    return sum(
        getattr(obj, f.name).nbytes
        for f in dataclasses.fields(obj)
        if hasattr(getattr(obj, f.name), "nbytes")
    )


def _after_newton(counts, result):
    counts["newton_iters"] = counts.get("newton_iters", 0) + int(result[2])
    counts["newton_converged"] = counts.get("newton_converged", 0) + int(bool(result[3]))


def _add(counter, measure):
    def hook(counts, result):
        counts[counter] = counts.get(counter, 0) + measure(result)

    return hook


# span -> hook(counts, return value)
_RESULT_HOOKS = {
    "critical_points.damped_newton": _after_newton,
    "landscape.sample_region_ms": _add("accepted", len),
    "landscape.sample_region_pr": _add("accepted", len),
    "rng.normal": _add("normal_draws", lambda r: int(r.size)),
    "risk_models.generate_sensing_ensemble": _add("ensemble_bytes", _array_bytes),
    "risk_models.generate_phase_problem": _add("ensemble_bytes", _array_bytes),
    "experiments.write_csv": _add("write_bytes", os.path.getsize),
    "experiments.write_json": _add("write_bytes", os.path.getsize),
}


class _ThreadTally:
    def __init__(self):
        self.stack = []  # one [name, enclosed seconds] per open span
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.pool_busy_s = 0.0
        self.pool_wall_s = 0.0


class Tracer:
    """Install with install(), read with calls() and metrics(), remove with
    uninstall()."""

    def __init__(self):
        self._local = threading.local()
        self._tallies = []
        self._lock = threading.Lock()
        self._undo = []

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _ThreadTally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def _wrap(self, name, fn):
        tracer = self
        main_thread = threading.main_thread()
        counter, ancestors = _NESTED_COUNTERS.get(name, (None, ()))
        after = _RESULT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tally = tracer._tally()
            stack = tally.stack
            if counter and any(frame[0] in ancestors for frame in stack):
                tally.counts[counter] = tally.counts.get(counter, 0) + 1
            pool_outer = not stack and threading.current_thread() is not main_thread
            if pool_outer:
                cpu0 = time.thread_time()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                tally.calls[name] = tally.calls.get(name, 0) + 1
                tally.self_s[name] = tally.self_s.get(name, 0.0) + elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                elif pool_outer:
                    tally.pool_busy_s += time.thread_time() - cpu0
                    tally.pool_wall_s += elapsed
            if after is not None:
                after(tally.counts, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [
            importlib.import_module(f"landscape_lab.{m}")
            for mods in LAYERS.values()
            for m in mods
        ]
        package = [m for n, m in sys.modules.items() if n.startswith("landscape_lab")]
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for holder in package:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, name, wrapped)
        risk_models = importlib.import_module("landscape_lab.risk_models")
        methods = [(c, m) for c in RISK_CLASSES for m in RISK_METHODS]
        methods.append(("SensingEnsemble", "apply"))
        for cls_name, method in methods:
            cls = getattr(risk_models, cls_name)
            name = f"risk_models.{cls_name}.{method}"
            self._set(cls, method, self._wrap(name, cls.__dict__[method]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _merged(self, field):
        out = {}
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for key, value in getattr(tally, field).items():
                out[key] = out.get(key, 0) + value
        return out

    def calls(self) -> dict:
        """Calls per span so far, over all threads."""
        return self._merged("calls")

    def metrics(self) -> dict:
        """Per-layer metrics, name -> value, over all threads."""
        calls = self._merged("calls")
        self_s = self._merged("self_s")
        counts = self._merged("counts")
        with self._lock:
            tallies = list(self._tallies)
        out = {}
        for name in NAMED_SPANS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for layer, modules in LAYERS.items():
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] in modules
            )
        generate = ("risk_models.generate_sensing_ensemble", "risk_models.generate_phase_problem")
        out["risk_models.generate.calls"] = sum(calls.get(n, 0) for n in generate)
        out["risk_models.generate.self_s"] = sum(self_s.get(n, 0.0) for n in generate)
        out["risk_models.ensemble_bytes"] = counts.get("ensemble_bytes", 0)
        seeds = calls.get("critical_points.damped_newton", 0)
        out["critical_points.newton_iters"] = counts.get("newton_iters", 0)
        out["critical_points.converged_ratio"] = _ratio(counts.get("newton_converged", 0), seeds)
        out["critical_points.hessians_per_seed"] = _ratio(counts.get("newton_hessians", 0), seeds)
        out["critical_points.refine_iters"] = counts.get("refine_iters", 0)
        proposals = counts.get("proposals", 0)
        accepted = counts.get("accepted", 0)
        out["landscape.sampler.proposals"] = proposals
        out["landscape.sampler.accepted"] = accepted
        out["landscape.sampler.acceptance"] = _ratio(accepted, proposals)
        out["landscape.check_assumptions.self_s"] = self_s.get("landscape.check_assumptions", 0.0)
        out["landscape.estimate_rip.self_s"] = self_s.get("landscape.estimate_rip", 0.0)
        out["rng.normal.draws"] = counts.get("normal_draws", 0)
        writes = ("experiments.write_csv", "experiments.write_json")
        out["experiments.write.bytes"] = counts.get("write_bytes", 0)
        out["experiments.write.self_s"] = sum(self_s.get(n, 0.0) for n in writes)
        out["experiments.format_float.calls"] = calls.get("experiments.format_float", 0)
        out["experiments.pool.busy_s"] = sum(t.pool_busy_s for t in tallies)
        out["experiments.pool.wait_s"] = sum(t.pool_wall_s - t.pool_busy_s for t in tallies)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
