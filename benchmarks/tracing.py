"""Span tracing from outside the program: wrap public functions, then restore.

Modules of ``specconsist`` import each other's functions by name
(``solvers`` does ``from .consistency import ec_loss_and_grad``), so wrapping
only the defining module would miss most calls. ``Tracer.install`` therefore
replaces every attribute, in every loaded ``specconsist`` module, that is one
of the traced function objects, and ``uninstall`` puts each original back.

A span records its layer, function, the module whose name the caller looked
up, the thread id, start and end, and its self time: its duration minus the
time covered by its child spans. A span that starts on a worker thread with
nothing open there is a child of the innermost open span of the main thread
(``cli`` runs per-file jobs in a thread pool while the main thread waits).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass

# layer -> functions traced in the module of the same name.
LAYER_FUNCTIONS = {
    "stft": ("stft", "istft", "overlap_add", "project", "_analyze_frames"),
    "consistency": ("residual", "loss_ec", "loss_ec_phase", "grad_loss_ec_phase",
                    "ec_loss_and_grad", "get_kernel"),
    "phase_losses": ("cos_value_and_grad", "aw_value_and_grad",
                     "complex_value_and_grad", "time_value_and_grad",
                     "derivative_value_and_grad", "loss_cos", "loss_aw",
                     "loss_complex", "loss_time", "loss_with_derivatives",
                     "loss_report"),
    "solvers": ("griffin_lim", "gd_reconstruct", "reconstruct_signal"),
    "metrics": ("aligned_snr", "consistency_measure", "spectral_convergence",
                "plain_snr"),
    "audio_io": ("read_wav", "write_wav"),
    "cli": ("main", "cmd_analyze", "cmd_compare", "_compare_one"),
}
LAYERS = tuple(LAYER_FUNCTIONS)


@dataclass
class Span:
    layer: str
    name: str
    caller: str          # module whose attribute the caller looked up
    thread: int
    start: float
    end: float = 0.0
    self_s: float = 0.0
    parent_layer: str | None = None
    iterations: int = 0  # solver spans: records in the returned trace
    alignments: int = 0  # aligned_snr spans: (shift, sign) pairs evaluated

    @property
    def duration(self) -> float:
        return self.end - self.start


def _alignments(original, args, kwargs) -> int:
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    return 2 * (2 * int(bound.arguments["search_radius"]) + 1)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._main_stack: list = []

    def _originals(self) -> dict:
        """Traced function object -> (layer, name), from the defining modules."""
        out = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"specconsist.{layer}"]
            for name in names:
                out[getattr(module, name)] = (layer, name)
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = self._originals()
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "specconsist"
                                      or mod_name.startswith("specconsist.")):
                continue
            for attr, value in list(vars(module).items()):
                key = originals.get(value) if callable(value) else None
                if key is None:
                    continue
                layer, name = key
                setattr(module, attr, self._wrap(value, layer, name, mod_name))
                self._patched.append((module, attr, value))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, original, layer, name, caller):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._adoptive_parent()
            span = Span(layer, name, caller, threading.get_ident(),
                        time.perf_counter(),
                        parent_layer=parent[0].layer if parent else None)
            if name == "aligned_snr":
                span.alignments = _alignments(original, args, kwargs)
            entry = (span, [])  # span, intervals covered by its children
            stack.append(entry)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    span.self_s = span.duration - _covered(entry[1])
                    if parent is not None:
                        parent[1].append((span.start, span.end))
                    tracer.spans.append(span)
            if layer == "solvers" and name != "reconstruct_signal":
                span.iterations = len(result[1].records)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _adoptive_parent(self):
        """A span opened on a worker thread belongs to the innermost open span
        of the main thread, which is waiting on the pool that runs it."""
        if threading.current_thread() is threading.main_thread():
            return None
        main = self._main_stack
        return main[-1] if main else None


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[Span], traced_wall_s: float, units: int,
              pool_threads: int) -> dict:
    """Per-layer figures from the spans of ``units`` identical workload units.

    Counts are per unit. Shares divide summed self time (over all threads) by
    the summed wall time of the traced units.
    """
    out = {}
    for layer in LAYERS:
        self_s = sum(s.self_s for s in spans if s.layer == layer)
        out[f"{layer}.self_share"] = self_s / traced_wall_s
    entries = [s for s in spans
               if s.layer == "consistency" and s.parent_layer != "consistency"]
    out["consistency.calls"] = len(entries) / units
    out["metrics.alignments_evaluated"] = sum(s.alignments for s in spans) / units

    solves = [s for s in spans if s.iterations]
    solve_s = sum(s.duration for s in solves)
    measure_s = sum(s.duration for s in spans
                    if s.caller == "specconsist.solvers" and s.name == "loss_ec")
    out["solvers.measure_share"] = measure_s / solve_s if solve_s else 0.0
    per_iter = sorted(s.duration / s.iterations for s in solves)
    out["solvers.iter_ms"] = 1e3 * per_iter[len(per_iter) // 2] if per_iter else 0.0

    out["cli.pool_efficiency"] = _pool_efficiency(spans, pool_threads)
    return out


def _pool_efficiency(spans: list[Span], threads: int) -> float:
    """Sum of per-file busy time / (threads x pool wall), mean over compare calls."""
    ratios = []
    for call in (s for s in spans if s.name == "cmd_compare"):
        jobs = [s for s in spans if s.name == "_compare_one"
                and call.start <= s.start and s.end <= call.end]
        if not jobs:
            continue
        pool_wall = max(s.end for s in jobs) - min(s.start for s in jobs)
        ratios.append(sum(s.duration for s in jobs) / (threads * pool_wall))
    return sum(ratios) / len(ratios) if ratios else 0.0
