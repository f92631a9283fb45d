"""Span tracing of the package's layers from outside the package.

Each traced public function is replaced, in every module namespace of the
package that holds it, by a wrapper that records one span: name, start, end,
parent span and job id.  Spans are kept in flat arrays in memory and written
out when the run ends.  Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "tripod_stirap"
MODULES = ("pulses", "tripod", "liouville", "effective", "dk", "analysis", "cli")

# span name -> functions (defining module, name) that record it
SPANS = {
    "pulses.pulse_envelopes": (("pulses", "pulse_envelopes"),),
    "pulses.mixing_angles": (("pulses", "mixing_angles"),),
    "tripod.hamiltonian": (("tripod", "hamiltonian"),),
    "tripod.adiabatic_frame": (("tripod", "adiabatic_frame"),),
    "tripod.frame_matrix": (("tripod", "frame_matrix"),),
    "tripod.geometric_phase": (("tripod", "geometric_phase"),),
    "liouville.rhs": (("liouville", "rhs_bare"), ("liouville", "rhs_adiabatic")),
    "liouville.transform": (("liouville", "to_adiabatic"), ("liouville", "from_adiabatic")),
    "liouville.integrate": (("liouville", "integrate"),),
    "effective.integrate_suv": (("effective", "integrate_suv"),),
    "effective.effective_rates": (("effective", "effective_rates"),),
    "dk.analytic_fidelity": (("dk", "analytic_fidelity"),),
    "dk.dk_amplitudes": (("dk", "dk_amplitudes"),),
    "dk.adiabatic_integrals": (("dk", "adiabatic_integrals"),),
    "analysis.transition_time": (("analysis", "transition_time"),),
    "analysis.sweep": (("analysis", "sweep"),),
    "cli.main": (("cli", "main"),),
}

# spans whose self time is reported besides calls and busy time
SELF_TIME = ("liouville.integrate", "effective.integrate_suv", "analysis.sweep", "cli.main")

# counters read from results at the layer boundary, or fed by the benchmark
COUNTERS = {
    "liouville.nfev": "count",
    "effective.nfev": "count",
    "analysis.error_rows": "count",
    "cli.output_bytes": "bytes",
    "cli.output_rows": "count",
}


def _count_nfev(key):
    def hook(counts, traj):
        counts[key] += int(traj.stats["nfev"])
    return hook


def _count_error_rows(counts, result):
    counts["analysis.error_rows"] += sum(p.error is not None for p in result.points)


RESULT_HOOKS = {
    ("liouville", "integrate"): _count_nfev("liouville.nfev"),
    ("effective", "integrate_suv"): _count_nfev("effective.nfev"),
    ("analysis", "sweep"): _count_error_rows,
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.busy_s"] = "s"
        if span in SELF_TIME:
            units[f"{span}.self_s"] = "s"
    units.update(COUNTERS)
    units["dk.decay_constants.hit_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def decay_cache_info():
    """Hits and misses of the cache behind the analytic decay constants."""
    fn = getattr(importlib.import_module(f"{PACKAGE}.dk"), "_decay_constants", None)
    if not hasattr(fn, "cache_info"):
        raise LookupError("dk._decay_constants is no longer a cached function")
    return fn.cache_info()


class Tracer:
    """In-memory span recorder; `install` wraps the package, `uninstall` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.job_id = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._cache: list = []  # decay-constant cache statistics at install and uninstall

    def _wrap(self, span_id: int, fn, hook):
        start, end, name, parent, job, stack = (
            self.start, self.end, self.name, self.parent, self.job, self._stack)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(span_id)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it.

        Raises LookupError if a traced function no longer exists, so that a
        rename cannot quietly read as zero calls.
        """
        self._cache = [decay_cache_info()]
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for span, targets in SPANS.items():
            span_id = len(self.names)
            self.names.append(span)
            for mod_name, fn_name in targets:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
                fn = getattr(home, fn_name, None)
                if not callable(fn):
                    self.uninstall()
                    raise LookupError(f"traced function {mod_name}.{fn_name} is missing")
                wrapper = self._wrap(span_id, fn, RESULT_HOOKS.get((mod_name, fn_name)))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        self._cache.append(decay_cache_info())

    def arrays(self) -> dict:
        return {key: np.array(getattr(self, key))
                for key in ("start", "end", "name", "parent", "job")}

    def layer_metrics(self) -> dict:
        """calls, inclusive busy time and self time per span name, the counters, and
        the share of decay-constant lookups served from the cache (0 without lookups).

        Self time is a span's duration minus the time its direct child spans
        cover; with one thread, children never overlap each other.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_time = dur - covered
        out = {}
        for span_id, span in enumerate(self.names):
            mask = a["name"] == span_id
            out[f"{span}.calls"] = int(mask.sum())
            out[f"{span}.busy_s"] = float(dur[mask].sum())
            if span in SELF_TIME:
                out[f"{span}.self_s"] = float(self_time[mask].sum())
        for key in COUNTERS:
            out[key] = int(self.counts[key])
        before, after = self._cache
        hits, misses = after.hits - before.hits, after.misses - before.misses
        out["dk.decay_constants.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def write(self, path: Path, job_names: list[str]) -> None:
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        np.savez(path, span_names=np.array(self.names), job_names=np.array(job_names),
                 start=a["start"] - t0, end=a["end"] - t0,
                 name=a["name"], parent=a["parent"], job=a["job"])
