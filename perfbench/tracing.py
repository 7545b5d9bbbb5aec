"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each listed psvsim function with a wrapper at
every module binding that holds it (``from .engine import
joint_distribution`` makes a second binding in ``hellwig_kraus``, and the
package re-exports most names), so calls through any name are seen.  Each
call records a span (op, name, start, end, parent) in memory; ``uninstall``
restores the originals.  Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

#: Functions traced, by module; each becomes a layer metric
#: ``<module>.<function>.calls`` and ``.self_s``.
TARGETS = {
    "hilbert": ("apply_unitary", "born_probability", "project_and_normalize", "phase_canonical"),
    "engine": ("joint_distribution", "sample", "run", "step", "enumerate_valid_orders",
               "validate_reduction_order", "state_on_hyperplane", "apply_detector",
               "validate_scenario"),
    "geometry": ("adjoin_apex", "event_side_of_surface", "surface_time", "surface_times",
                 "probe_points", "classify", "is_future_of"),
    "serialization": ("scenario_from_dict", "distribution_to_dict", "empirical_to_dict",
                      "run_record_to_dict"),
    "diagram": ("render_svg", "render_ascii"),
    "hellwig_kraus": ("hk_copy_inconsistency", "hk_state"),
    "cli": ("main", "build_scenario"),
}

#: Entry points also get ``.total_s`` (time including callees).
ENTRY_POINTS = ("cli.main", "engine.joint_distribution", "engine.sample", "engine.run",
                "engine.state_on_hyperplane", "engine.enumerate_valid_orders",
                "hellwig_kraus.hk_copy_inconsistency", "geometry.is_future_of")

#: Derived counts, in the order they are reported.
DERIVED = ("hilbert.amplitudes_touched", "hilbert.born_per_branch",
           "engine.step_per_branch", "geometry.probe_points.points")

_CLI = {"cli.main", "cli.build_scenario"}
_HILBERT = {f"hilbert.{f}" for f in TARGETS["hilbert"]}
_BRANCHING = {"engine.step", "engine.validate_reduction_order", "engine.apply_detector",
              "engine.validate_scenario", "geometry.adjoin_apex",
              "geometry.event_side_of_surface", "geometry.surface_time", "geometry.classify"}

#: Functions each workload must call at least once, from the layer table.  A
#: traced run that records no call of one of them has missed a binding.
EXERCISED = {
    "cli-mix": _CLI | _HILBERT | _BRANCHING | {
        "engine.joint_distribution", "engine.sample", "engine.run",
        "engine.enumerate_valid_orders", "geometry.surface_times",
        "serialization.distribution_to_dict", "serialization.empirical_to_dict",
        "serialization.run_record_to_dict", "diagram.render_svg", "diagram.render_ascii",
        "hellwig_kraus.hk_copy_inconsistency", "hellwig_kraus.hk_state"},
    "ghz-ladder": _CLI | _HILBERT | _BRANCHING | {
        "engine.joint_distribution", "serialization.scenario_from_dict",
        "serialization.distribution_to_dict"},
    "sample-mc": _CLI | _HILBERT | _BRANCHING | {
        "engine.sample", "serialization.scenario_from_dict", "serialization.empirical_to_dict"},
    "surface-queries": {
        "engine.state_on_hyperplane", "engine.apply_detector", "hilbert.apply_unitary",
        "hilbert.project_and_normalize", "hilbert.phase_canonical",
        "geometry.event_side_of_surface", "geometry.surface_time", "geometry.surface_times",
        "geometry.probe_points", "geometry.is_future_of"},
}


def traced_names() -> list[str]:
    return [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    out = []
    for name in traced_names():
        out += [f"{name}.calls", f"{name}.self_s"]
        if name in ENTRY_POINTS:
            out.append(f"{name}.total_s")
    return out + list(DERIVED)


def _psvsim_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "psvsim" or n.startswith("psvsim."))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.amplitudes = 0
        self.branches = 0
        self.points = 0
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        self._originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts_state = name in _HILBERT
        counts_branches = name in ("engine.joint_distribution", "engine.sample")
        counts_points = name == "geometry.probe_points"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, t0, t1, parent)
            if counts_state:
                self.amplitudes += args[0].amplitudes.size
            elif counts_branches:
                table = result.probabilities if name.endswith("distribution") else result.counts
                self.branches += len(table)
            elif counts_points:
                self.points += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every psvsim binding of it.  The
        bindings are found on the first call; later calls reuse them."""
        if not self._bindings:
            for mod_name in TARGETS:
                importlib.import_module(f"psvsim.{mod_name}")
            modules = _psvsim_modules()
            for mod_name, fns in TARGETS.items():
                home = sys.modules[f"psvsim.{mod_name}"]
                for fn_name in fns:
                    name = f"{mod_name}.{fn_name}"
                    original = self._originals[name] = getattr(home, fn_name)
                    wrapper = self._wrap(name, original)
                    self._bindings += [(mod, attr, original, wrapper) for mod in modules
                                       for attr, value in vars(mod).items()
                                       if value is original]
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def unwrapped_bindings(self) -> list[str]:
        """psvsim bindings that still hold an original while installed."""
        originals = {id(fn): name for name, fn in self._originals.items()}
        return [f"{mod.__name__}.{attr} ({originals[id(v)]})"
                for mod in _psvsim_modules() for attr, v in vars(mod).items()
                if id(v) in originals]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for op, name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (op, name, t0, t1, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            if name in ENTRY_POINTS and not self._inside(parent, name):
                total_s[name] += t1 - t0
        out: dict[str, float] = {}
        for name in traced_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if name in ENTRY_POINTS:
                out[f"{name}.total_s"] = total_s[name]
        per_branch = lambda n: calls[n] / self.branches if self.branches else 0.0
        out["hilbert.amplitudes_touched"] = self.amplitudes
        out["hilbert.born_per_branch"] = per_branch("hilbert.born_probability")
        out["engine.step_per_branch"] = per_branch("engine.step")
        out["geometry.probe_points.points"] = self.points
        return out

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][1] == name:
                return True
            idx = self.spans[idx][4]
        return False
