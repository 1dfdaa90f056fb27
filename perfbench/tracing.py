"""In-memory span tracer for the hydrostat benchmark.

The tracer wraps public functions of the package modules (and every
transform in ``numpy.fft``) by attribute assignment, records one span per
call and restores the originals on ``uninstall``.  Call sites inside the
package look these names up on the module at call time (``spectral.x(...)``
or a module-global ``x(...)``), so the wrappers see them; a call site that
binds a name at import time (``from .x import f``) bypasses the wrapper,
which the counter cross-checks in ``run.py`` are there to catch.

Spans are linked to the innermost open span of the same thread.  Runs that
``run_ensemble`` hands to its pool threads therefore have no parent, and the
pool's waiting time stays in ``run_ensemble``'s self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

# Public functions wrapped per package module, in report order.
LAYERS = {
    "spectral": ("transport_bilinear", "vertical_velocity", "project_constraints",
                 "hydrostatic_leray"),
    "gevrey": ("norm", "noise_transform"),
    "stochastic": ("sample_path", "good_set_probability", "BrownianPath.value_at"),
    "dynamics": ("run_global_experiment", "run_ensemble", "run", "step_diffusion",
                 "step_damping"),
    "picard": ("fixed_point_solve", "duhamel_map"),
    "analysis": ("estimate_c_star", "estimate_c_sigma"),
    "initial_data": ("make_initial_data", "normalize_to"),
    "bench_cli": ("main",),
}

# Every transform in numpy.fft, complex and real, so that a switch between
# them stays counted under the one "fft" boundary.
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Span(NamedTuple):
    sid: int
    parent: int | None
    thread: int
    op: int
    name: str
    start: float
    end: float
    self_s: float
    error: bool
    note: object  # N of a field argument, FFT points, run status or iterations


def _field_n(args, kwargs, result):
    return getattr(args[0], "N", None) if args else None


def _fft_points(args, kwargs, result):
    # Grid points transformed: the larger of input and output, so a real
    # transform of an M^3 grid counts M^3 like its complex counterpart.
    a = args[0] if args else kwargs["a"]
    return max(int(np.size(a)), int(np.size(result)))


NOTES = {
    "dynamics.run": lambda args, kwargs, result: result.status,
    "picard.fixed_point_solve": lambda args, kwargs, result: result.iterations,
}


class Tracer:
    """Thread-safe call wrappers plus the spans they recorded."""

    def __init__(self, package, fft_module):
        self._targets = []
        for mod, fns in LAYERS.items():
            module = getattr(package, mod)
            for fn in fns:
                owner, attr = module, fn
                if "." in fn:
                    cls, attr = fn.split(".")
                    owner = getattr(module, cls)
                self._targets.append((owner, attr, f"{mod}.{fn}",
                                      NOTES.get(f"{mod}.{fn}", _field_n)))
        for fn in FFT_FUNCS:
            self._targets.append((fft_module, fn, "fft", _fft_points))
        self._originals = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.op = -1

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, note in self._targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]  # span id, time covered by child spans
            stack.append(frame)
            result = None
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                span = Span(sid, parent, threading.get_ident(), tracer.op, name,
                            start, end, duration - frame[1], error,
                            None if error else note(args, kwargs, result))
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def write(self, path) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), default=str) + "\n")


def fft_per_transport(spans) -> Counter:
    """How many transports made each number of direct FFT calls."""
    transports = [s.sid for s in spans if s.name == "spectral.transport_bilinear"]
    ffts = Counter(s.parent for s in spans if s.name == "fft")
    return Counter(ffts.get(sid, 0) for sid in transports)


def fft_outside_transport(spans) -> int:
    """FFT calls whose caller is not a ``transport_bilinear`` span.  Every
    FFT the workloads make lies in a transport, so a caller that reaches
    the transport without its wrapper leaves FFTs here."""
    transports = {s.sid for s in spans if s.name == "spectral.transport_bilinear"}
    return sum(s.name == "fft" and s.parent not in transports for s in spans)


def per_n_means(spans, names) -> dict:
    """Mean call time in ms per (function, N of its field argument)."""
    acc = defaultdict(list)
    for s in spans:
        if s.name in names and not s.error and s.note is not None:
            acc[(s.name, s.note)].append(s.end - s.start)
    return {f"{name}@N={n}": 1e3 * sum(v) / len(v) for (name, n), v in sorted(acc.items())}


def layer_metrics(spans, n_ops: int, threads: int, overhead_ratio: float) -> dict:
    """Per-layer figures per traced op, plus the derived ratios."""
    calls, total, self_t, errors = Counter(), Counter(), Counter(), Counter()
    fft_points = 0
    completed = iterations = n_solves = 0
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_t[s.name] += s.self_s
        errors[s.name] += s.error
        if s.error:
            continue
        if s.name == "fft":
            fft_points += s.note
        elif s.name == "dynamics.run":
            completed += s.note == "completed"
        elif s.name == "picard.fixed_point_solve":
            iterations += s.note
            n_solves += 1
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] * per_op, "count")
        out[f"{name}.time_s"] = (total[name] * per_op, "s")
        out[f"{name}.self_s"] = (self_t[name] * per_op, "s")
        out[f"{name}.errors"] = (errors[name] * per_op, "count")
    out["fft.calls"] = (calls["fft"] * per_op, "count")
    out["fft.points"] = (fft_points * per_op, "count")
    out["fft.time_s"] = (total["fft"] * per_op, "s")
    steps = calls["dynamics.step_diffusion"] + calls["dynamics.step_damping"]
    out["dynamics.steps"] = (steps * per_op, "count")
    out["gevrey.noise_transform.per_step"] = (
        calls["gevrey.noise_transform"] / steps if steps else 0.0, "count")
    out["dynamics.run.completed_ratio"] = (
        completed / calls["dynamics.run"] if calls["dynamics.run"] else 0.0, "ratio")
    ensemble_wall = total["dynamics.run_ensemble"]
    out["dynamics.run_ensemble.busy_ratio"] = (
        total["dynamics.run"] / (ensemble_wall * threads) if ensemble_wall else 0.0,
        "ratio")
    out["picard.fixed_point_solve.iterations"] = (
        iterations / n_solves if n_solves else 0.0, "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
