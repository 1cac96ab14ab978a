"""Spans around the calls into each layer of ``ces``, taken from outside.

``Tracer.install`` replaces every reference to a traced public function, in
every loaded ``ces`` module, by a wrapper that records a span; ``uninstall``
puts the originals back.  The program itself is not edited.  Spans are kept
in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from importlib import import_module

#: Public functions timed per layer.  A layer's busy time is the self time
#: of its spans: a span's duration minus the spans it called.
LAYERS = {
    "pipeline": ("run_bell", "run_tomo", "run_sweep"),
    "detection": ("simulate_counts", "simulate_tomography_dataset"),
    "tomography": ("linear_inversion", "mle_reconstruct", "bootstrap_errors"),
    "bell": ("chsh_from_counts", "analytic_chsh", "max_chsh_from_state"),
    "measures": (
        "report",
        "fidelity_singlet",
        "concurrence",
        "entanglement_of_formation",
        "log_negativity",
    ),
    "lifetime": ("fit_lifetime",),
    "fileio": ("write_counts_csv", "write_tomography_csv", "write_series_csv", "write_json"),
}


def _trial_counts(records):
    coincidences = sum(int(rec.total) for rec in records)
    return {"trials": coincidences + sum(int(rec.n_discarded) for rec in records),
            "coincidences": coincidences}


#: Work counts read from a traced call's result.
_COUNTS = {
    "simulate_counts": lambda rec: _trial_counts([rec]),
    "simulate_tomography_dataset": lambda ds: _trial_counts([r for _, _, r in ds.records]),
    "mle_reconstruct": lambda fit: {"iterations": fit.iterations,
                                    "unconverged": int(not fit.converged)},
    "bootstrap_errors": lambda errs: {"resamples": errs.n_resamples},
}


class Span:
    __slots__ = ("id", "call", "layer", "name", "parent", "start", "end",
                 "cpu", "child_wall", "counts")

    def __init__(self, span_id, call, layer, name, parent):
        self.id, self.call, self.layer, self.name, self.parent = span_id, call, layer, name, parent
        self.start = self.end = self.cpu = self.child_wall = 0.0
        self.counts = {}

    @property
    def wall(self):
        return self.end - self.start

    def as_dict(self, origin):
        return {"id": self.id, "call": self.call, "parent": self.parent,
                "layer": self.layer, "name": self.name,
                "start_s": self.start - origin, "end_s": self.end - origin,
                "cpu_s": self.cpu, "self_s": self.wall - self.child_wall,
                "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0  # identifies the run-mode call a span belongs to
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ces" or n.startswith("ces.")]
        for layer, names in LAYERS.items():
            home = import_module(f"ces.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer, name, original):
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), self.call, layer, name,
                        None if parent is None else parent.id)
            self.spans.append(span)
            self._stack.append(span)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                self._stack.pop()
                if parent is not None:
                    parent.child_wall += span.wall
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    def write(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"spans": [s.as_dict(origin) for s in self.spans]}, fh)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[Span], n_calls: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures as (value, unit): busy times and counts per run-mode
    call, ``*_ms`` of one function per call of that function.  A layer that
    does not run in the workload reads 0."""
    def named(name):
        return [s for s in spans if s.name == name]

    def busy(layer):
        return sum(s.wall - s.child_wall for s in spans if s.layer == layer) / n_calls

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def per_call_ms(name, attr="wall"):
        return 1e3 * _mean([getattr(s, attr) for s in named(name)])

    trials = total("simulate_counts", "trials") + total("simulate_tomography_dataset", "trials")
    coincidences = (total("simulate_counts", "coincidences")
                    + total("simulate_tomography_dataset", "coincidences"))
    resamples = total("bootstrap_errors", "resamples")
    return {
        "detection.busy_s": (busy("detection"), "s"),
        "detection.ns_per_trial": (1e9 * busy("detection") * n_calls / trials if trials else 0.0, "ns"),
        "detection.trials": (trials / n_calls, "count"),
        "detection.accept_ratio": (coincidences / trials if trials else 0.0, "coinc/trial"),
        "tomography.linear_inversion_ms": (per_call_ms("linear_inversion"), "ms"),
        "tomography.mle_ms": (per_call_ms("mle_reconstruct"), "ms"),
        "tomography.mle_cpu_ms": (per_call_ms("mle_reconstruct", "cpu"), "ms"),
        "tomography.mle_iterations": (total("mle_reconstruct", "iterations") / n_calls, "count"),
        "tomography.mle_fits": (len(named("mle_reconstruct")) / n_calls, "count"),
        "tomography.mle_unconverged": (total("mle_reconstruct", "unconverged") / n_calls, "count"),
        "tomography.bootstrap_resample_ms": (
            1e3 * sum(s.wall for s in named("bootstrap_errors")) / resamples if resamples else 0.0,
            "ms"),
        "bell.max_chsh_ms": (per_call_ms("max_chsh_from_state"), "ms"),
        "bell.max_chsh_cpu_ms": (per_call_ms("max_chsh_from_state", "cpu"), "ms"),
        "measures.busy_ms": (1e3 * busy("measures"), "ms"),
        "lifetime.fit_ms": (per_call_ms("fit_lifetime"), "ms"),
        "fileio.write_ms": (1e3 * busy("fileio"), "ms"),
        "pipeline.self_ms": (1e3 * busy("pipeline"), "ms"),
    }
