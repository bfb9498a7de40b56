"""Per-layer tracing of susyjc from outside the package.

The tracer replaces public functions and methods of the package with timing
wrappers, at every place a caller looks the name up: module-level functions
are rebound in each ``susyjc.*`` module that imported them by name, methods
are replaced on their class.  No module of the package is edited.

Coarse boundaries record spans (name, start, end, parent, run id); the hot
leaves keep only aggregated counters and busy time, so the trace stays small.
Every wrapped call also moves a layer stack, which gives each layer's busy
time (outermost entry to exit, callees included) and self time (time while
the layer is on top of the stack, i.e. its own Python and the numpy/scipy
calls it makes directly).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "susyjc"
LAYERS = (
    "cli",
    "profiles",
    "auxiliary",
    "quadrature",
    "evolution",
    "schrodinger",
    "fock",
    "blocks",
    "adiabatic",
    "coherent",
)

# solve_aux clips its sample grid at this many points (the "grid cap").
# A segmented grid can land a few points off, hence the small slack.
SAMPLE_CAP = 60001
CAP_SLACK = 16

# (layer, module, attribute path, record a span?)
TARGETS = {
    "cli.main": ("cli", "cli", "main", True),
    "cli.load_config": ("cli", "cli", "load_config", False),
    "cli.csv_write": ("cli", "cli", "CsvWriter.write", True),
    "profiles.TimeProfile": ("profiles", "profiles", "TimeProfile.__call__", False),
    "profiles.evaluate": ("profiles", "profiles", "ModelParams.evaluate", False),
    "auxiliary.solve_aux": ("auxiliary", "auxiliary", "solve_aux", True),
    "auxiliary.aux_rhs": ("auxiliary", "auxiliary", "aux_rhs", False),
    "auxiliary.residual_series": ("auxiliary", "auxiliary", "residual_series", False),
    "auxiliary.residual_check": ("auxiliary", "auxiliary", "residual_check", False),
    "quadrature.spline_derivative": ("quadrature", "quadrature", "spline_derivative", False),
    "quadrature.cumulative_antiderivative": (
        "quadrature",
        "quadrature",
        "cumulative_antiderivative",
        False,
    ),
    "evolution.PhaseIntegrals": ("evolution", "evolution", "PhaseIntegrals.__init__", True),
    "evolution.state_at": ("evolution", "evolution", "ExactSolution.state_at", False),
    "schrodinger.propagate": ("schrodinger", "schrodinger", "propagate", True),
    "fock.build_generators": ("fock", "fock", "build_generators", False),
    "fock.build_hamiltonian": ("fock", "fock", "build_hamiltonian", False),
    "blocks.block_components": ("blocks", "blocks", "block_components", False),
    "adiabatic.berry_phase_numeric": ("adiabatic", "adiabatic", "berry_phase_numeric", True),
    "coherent.solve_block_family": ("coherent", "coherent", "solve_block_family", True),
    "coherent.build_coherent_state": ("coherent", "coherent", "build_coherent_state", False),
}

# Per-run metrics of a traced run: name -> (unit, the targets it needs).
PER_LAYER = {
    "setup.import_s": ("s", ()),
    "trace.run_s": ("s", ()),
    "trace.untraced_run_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "cli.load_config_s": ("s", ("cli.load_config",)),
    "cli.csv_write_s": ("s", ("cli.csv_write",)),
    "cli.csv_bytes": ("B", ("cli.csv_write",)),
    "profiles.calls": ("count", ("profiles.TimeProfile",)),
    "profiles.scalar_calls": ("count", ("profiles.TimeProfile",)),
    "profiles.evaluate.calls": ("count", ("profiles.evaluate",)),
    "auxiliary.solve_aux.calls": ("count", ("auxiliary.solve_aux",)),
    "auxiliary.solve_aux.busy_s": ("s", ("auxiliary.solve_aux",)),
    "auxiliary.aux_rhs.calls": ("count", ("auxiliary.aux_rhs",)),
    "auxiliary.aux_rhs.busy_s": ("s", ("auxiliary.aux_rhs",)),
    "auxiliary.rhs_evals": ("count", ("auxiliary.solve_aux",)),
    "auxiliary.steps": ("count", ("auxiliary.solve_aux",)),
    "auxiliary.samples": ("count", ("auxiliary.solve_aux",)),
    "auxiliary.certify_attempts": ("count", ("auxiliary.solve_aux", "auxiliary.residual_check")),
    "auxiliary.certified_first_try": (
        "ratio",
        ("auxiliary.solve_aux", "auxiliary.residual_check"),
    ),
    "auxiliary.cap_hits": ("count", ("auxiliary.solve_aux",)),
    "auxiliary.residual_series.calls": ("count", ("auxiliary.residual_series",)),
    "auxiliary.residual_series.busy_s": ("s", ("auxiliary.residual_series",)),
    "auxiliary.busy_share": ("ratio", ()),
    "quadrature.spline_derivative.calls": ("count", ("quadrature.spline_derivative",)),
    "quadrature.spline_derivative.busy_s": ("s", ("quadrature.spline_derivative",)),
    "quadrature.cumulative_antiderivative.calls": (
        "count",
        ("quadrature.cumulative_antiderivative",),
    ),
    "quadrature.cumulative_antiderivative.busy_s": (
        "s",
        ("quadrature.cumulative_antiderivative",),
    ),
    "quadrature.points": (
        "count",
        ("quadrature.spline_derivative", "quadrature.cumulative_antiderivative"),
    ),
    "evolution.PhaseIntegrals.calls": ("count", ("evolution.PhaseIntegrals",)),
    "evolution.PhaseIntegrals.busy_s": ("s", ("evolution.PhaseIntegrals",)),
    "evolution.state_at.calls": ("count", ("evolution.state_at",)),
    "evolution.state_at.busy_s": ("s", ("evolution.state_at",)),
    "schrodinger.propagate.calls": ("count", ("schrodinger.propagate",)),
    "schrodinger.propagate.busy_s": ("s", ("schrodinger.propagate",)),
    "schrodinger.rhs_evals": ("count", ("schrodinger.propagate", "profiles.evaluate")),
    # computed, not measured: rhs_evals x 4 dense matvecs x dim^2 x 16 bytes
    "schrodinger.matvec_bytes": ("B", ("schrodinger.propagate", "profiles.evaluate")),
    "schrodinger.busy_share": ("ratio", ()),
    "fock.build_generators.calls": ("count", ("fock.build_generators",)),
    "fock.build_generators.busy_s": ("s", ("fock.build_generators",)),
    "fock.build_hamiltonian.calls": ("count", ("fock.build_hamiltonian",)),
    "blocks.block_components.calls": ("count", ("blocks.block_components",)),
    "adiabatic.berry_phase_numeric.calls": ("count", ("adiabatic.berry_phase_numeric",)),
    "adiabatic.berry_phase_numeric.busy_s": ("s", ("adiabatic.berry_phase_numeric",)),
    "adiabatic.berry_phase_numeric.self_s": (
        "s",
        ("adiabatic.berry_phase_numeric", "auxiliary.solve_aux"),
    ),
    "coherent.solve_block_family.calls": ("count", ("coherent.solve_block_family",)),
    "coherent.solve_block_family.busy_s": ("s", ("coherent.solve_block_family",)),
    "coherent.build_coherent_state.calls": ("count", ("coherent.build_coherent_state",)),
    "coherent.build_coherent_state.busy_s": ("s", ("coherent.build_coherent_state",)),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.busy_s"] = ("s", ())
    PER_LAYER[f"{_layer}.self_s"] = ("s", ())


def _resolve(module, path):
    """(owner, attribute, original) for ``path`` in ``module``, or None."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = vars(owner).get(parts[-1])
    else:
        original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


class Tracer:
    """Wraps the package once; ``start_run``/``end_run`` bracket each traced run."""

    def __init__(self):
        self.missing: set[str] = set()
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = -1
        self._reset()

    def _reset(self):
        self.fn = defaultdict(lambda: [0, 0.0])  # target -> [calls, busy seconds]
        self.count = defaultdict(int)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self._depth = defaultdict(int)
        self._entered = {}
        self._stack: list[str] = []
        self._mark = 0.0
        self._open: list[int] = []
        self._active = defaultdict(int)
        self._first_span = len(self.spans)

    # -- layer stack -------------------------------------------------------

    def _push(self, layer, now):
        if self._stack:
            self.layer_self[self._stack[-1]] += now - self._mark
        self._stack.append(layer)
        self._mark = now
        if self._depth[layer] == 0:
            self._entered[layer] = now
        self._depth[layer] += 1

    def _pop(self, now):
        layer = self._stack.pop()
        self.layer_self[layer] += now - self._mark
        self._mark = now
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.layer_busy[layer] += now - self._entered[layer]

    # -- wrapping ----------------------------------------------------------

    def install(self):
        hooks = {
            "profiles.TimeProfile": (self._before_profile, None),
            "profiles.evaluate": (self._before_evaluate, None),
            "auxiliary.solve_aux": (None, self._after_solve_aux),
            "auxiliary.residual_check": (self._before_residual_check, None),
            "quadrature.spline_derivative": (self._before_quadrature, None),
            "quadrature.cumulative_antiderivative": (self._before_quadrature, None),
            "schrodinger.propagate": (self._before_propagate, self._after_propagate),
            "cli.csv_write": (None, self._after_csv_write),
        }
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for name, (layer, module_name, path, span) in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            found = None if module is None else _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, original = found
            if name == "schrodinger.propagate":
                self._propagate_signature = inspect.signature(original)
            before, after = hooks.get(name, (None, None))
            wrapper = self._wrap(original, name, layer, span, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                # rebind every module-level name that refers to the original
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, name, layer, span, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = perf_counter()
            tracer._push(layer, now)
            if span:
                index = tracer._open_span(name, now)
            token = before(args, kwargs) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stats = tracer.fn[name]
                stats[0] += 1
                stats[1] += end - now
                if span:
                    tracer._close_span(name, index, end)
                tracer._pop(end)
            if after is not None:
                after(result, args, kwargs, token)
            return result

        return wrapper

    def _open_span(self, name, now):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, now, None, parent, self.run_id])
        index = len(self.spans) - 1
        self._open.append(index)
        self._active[name] += 1
        return index

    def _close_span(self, name, index, end):
        self.spans[index][2] = end
        self._open.pop()
        self._active[name] -= 1

    # -- hooks ---------------------------------------------------------------

    def _before_profile(self, args, kwargs):
        t = args[1] if len(args) > 1 else kwargs.get("t")
        if np.ndim(t) == 0:
            self.count["profiles.scalar_calls"] += 1

    def _before_evaluate(self, args, kwargs):
        if self._active["schrodinger.propagate"]:
            self.count["schrodinger.rhs_evals"] += 1

    def _before_residual_check(self, args, kwargs):
        if self._active["auxiliary.solve_aux"]:
            self.count["auxiliary.certify_attempts"] += 1

    def _before_quadrature(self, args, kwargs):
        ts = args[0] if args else kwargs.get("ts")
        self.count["quadrature.points"] += int(np.size(ts))

    def _after_solve_aux(self, traj, args, kwargs, token):
        stats = traj.stats
        n = int(np.size(traj.times))
        self.count["auxiliary.rhs_evals"] += int(stats.n_rhs_evaluations)
        self.count["auxiliary.steps"] += int(stats.n_steps)
        self.count["auxiliary.samples"] += n
        if n >= SAMPLE_CAP - CAP_SLACK:
            self.count["auxiliary.cap_hits"] += 1

    def _before_propagate(self, args, kwargs):
        return self.count["schrodinger.rhs_evals"]

    def _after_propagate(self, result, args, kwargs, start_evals):
        spec = self._propagate_signature.bind_partial(*args, **kwargs).arguments.get("spec")
        evals = self.count["schrodinger.rhs_evals"] - start_evals
        self.count["schrodinger.matvec_bytes"] += evals * 4 * spec.dim**2 * 16

    def _after_csv_write(self, result, args, kwargs, token):
        self.count["cli.csv_bytes"] += os.path.getsize(args[0].path)

    # -- per-run results -----------------------------------------------------

    def start_run(self):
        self.run_id += 1
        self._reset()

    def end_run(self, wall_s: float) -> dict:
        """Metrics of the run just finished; missing targets are left out."""
        fn = self.fn
        count = self.count
        solves = fn["auxiliary.solve_aux"][0]
        attempts = count["auxiliary.certify_attempts"]
        values = {
            "trace.run_s": wall_s,
            "cli.load_config_s": fn["cli.load_config"][1],
            "cli.csv_write_s": fn["cli.csv_write"][1],
            "cli.csv_bytes": count["cli.csv_bytes"],
            "profiles.calls": fn["profiles.TimeProfile"][0],
            "profiles.scalar_calls": count["profiles.scalar_calls"],
            "profiles.evaluate.calls": fn["profiles.evaluate"][0],
            "auxiliary.rhs_evals": count["auxiliary.rhs_evals"],
            "auxiliary.steps": count["auxiliary.steps"],
            "auxiliary.samples": count["auxiliary.samples"],
            "auxiliary.certify_attempts": attempts,
            "auxiliary.certified_first_try": solves / attempts if attempts else 1.0,
            "auxiliary.cap_hits": count["auxiliary.cap_hits"],
            "auxiliary.busy_share": self.layer_busy["auxiliary"] / wall_s,
            "quadrature.points": count["quadrature.points"],
            "schrodinger.rhs_evals": count["schrodinger.rhs_evals"],
            "schrodinger.matvec_bytes": count["schrodinger.matvec_bytes"],
            "schrodinger.busy_share": self.layer_busy["schrodinger"] / wall_s,
            "adiabatic.berry_phase_numeric.self_s": self._span_self(
                "adiabatic.berry_phase_numeric"
            ),
        }
        for name in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if name in values or stem not in TARGETS:
                continue
            if field == "calls":
                values[name] = fn[stem][0]
            elif field == "busy_s":
                values[name] = fn[stem][1]
        for layer in LAYERS:
            values[f"{layer}.busy_s"] = self.layer_busy[layer]
            values[f"{layer}.self_s"] = self.layer_self[layer]
        return {
            name: value
            for name, value in values.items()
            if not self.missing.intersection(PER_LAYER[name][1])
        }

    def _span_self(self, name) -> float:
        """Summed duration of this run's ``name`` spans minus their child spans."""
        spans = self.spans[self._first_span :]
        total = 0.0
        for i, (span_name, start, end, _, _) in enumerate(spans, start=self._first_span):
            if span_name == name:
                children = sum(e - s for n, s, e, p, _ in spans if p == i)
                total += (end - start) - children
        return total

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]
