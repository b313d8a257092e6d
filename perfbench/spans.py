"""Span tracer installed from outside the program.

``Tracer.install()`` replaces every public function defined in the traced
fpmflow modules with a wrapper that records a span (name, parent, start,
end).  The wrapper is placed in every fpmflow namespace that holds the
function, because ``stepper`` and ``driver`` bind names such as
``nonlinear_rhs`` and ``step`` with ``from .x import y``; a wrapper on the
defining module alone would miss those calls.  numpy's FFT entry points are
wrapped with plain counters (no span), so a transform's self time still
includes the FFT it runs.

Nothing under ``src/`` is modified: ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("spectral", "model", "stepper", "diagnostics", "verify", "driver")

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _retained_state_bytes(result) -> int:
    """Bytes of the sampled states an ``integrate`` result keeps alive."""
    return sum(F.coeffs.nbytes for _, F in getattr(result, "states", ()) or ())



class Tracer:
    def __init__(self):
        # [name, parent index, start, end, FFT count at start, at end]
        self.spans: list = []
        self._stack: list = []
        self.retained: list = []       # _retained_state_bytes of each integrate result
        self.fft = {"calls": 0, "points": 0, "bytes": 0}
        self._patches: list = []       # (namespace, attribute, original)

    def reset(self):
        self.spans = []
        self._stack = []
        self.retained = []
        for key in self.fft:
            self.fft[key] = 0

    def _wrap(self, name: str, fn):
        is_integrate = name == "stepper.integrate"
        clock = time.perf_counter
        fft = self.fft

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, fft["calls"], 0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[5] = fft["calls"]
                stack.pop()
            if is_integrate:
                self.retained.append(_retained_state_bytes(result))
            return result

        return wrapper

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            self.fft["calls"] += 1
            self.fft["points"] += out.size
            self.fft["bytes"] += getattr(a, "nbytes", 0) + out.nbytes
            return out

        return wrapper

    def install(self):
        """Wrap every public function of MODULES in every namespace holding it."""
        import numpy.fft

        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"fpmflow.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        namespaces = [vars(m) for n, m in list(sys.modules.items())
                      if n == "fpmflow" or n.startswith("fpmflow.")]
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((ns, attr, obj))
                    ns[attr] = wrappers[id(obj)]
        fft_ns = vars(numpy.fft)
        for attr in FFT_FUNCS:
            if attr in fft_ns:
                self._patches.append((fft_ns, attr, fft_ns[attr]))
                fft_ns[attr] = self._count_fft(fft_ns[attr])

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            ns[attr] = original
        self._patches = []

    def call_summary(self, steps: int) -> dict:
        """Aggregate one traced workload call into the per-layer tables below."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict = {}
        total: dict = {}
        self_total: dict = {}
        durations: dict = {}
        step_ffts = 0
        for i, (name, parent, t0, t1, f0, f1) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_total[name] = self_total.get(name, 0.0) + (t1 - t0 - child[i])
            if name in TIMED_SPANS:
                durations.setdefault(name, []).append(t1 - t0)
            if name == "stepper.step":
                step_ffts += f1 - f0
        n_step = calls.get("stepper.step", 0)
        if n_step:
            fft_per_step = step_ffts / n_step
        else:
            fft_per_step = self.fft["calls"] / steps if steps else 0.0

        def pick(table, names):
            return sum(table.get(n, 0) for n in names)

        out = {key: pick(calls, names) for key, names in COUNTS.items()}
        out.update({key: pick(total, names) for key, names in TOTALS.items()})
        out.update({key: pick(self_total, names) for key, names in SELF_TOTALS.items()})
        out.update({
            "spectral.fft_calls": self.fft["calls"],
            "spectral.fft_points": self.fft["points"],
            "spectral.fft_bytes_computed": self.fft["bytes"],
            "spectral.fft_per_step": fft_per_step,
            "diagnostics.retained_state_bytes": max(self.retained, default=0),
        })
        return {"per_call": out,
                "durations": {key: [d for n in names for d in durations.get(n, ())]
                              for key, names in MEDIANS.items()}}

    def spans_json(self) -> list:
        return [[name, parent, round(t0, 9), round(t1, 9)]
                for name, parent, t0, t1, _, _ in self.spans]


# Per-layer metric definitions: metric key -> span names it covers.
# Exact counts per call.
COUNTS = {
    "model.nonlinear_rhs.calls": ("model.nonlinear_rhs",),
    "model.velocity.calls": ("model.velocity",),
    "stepper.step.calls": ("stepper.step",),
    "stepper.cfl_dt.calls": ("stepper.cfl_dt",),
    "diagnostics.make_record.calls": ("diagnostics.make_record",),
    "diagnostics.energy_residual.calls": ("diagnostics.energy_residual_L2",
                                          "diagnostics.energy_residual_Hs"),
}
# Per-span durations, reported as the median ("<key>_s") and p99 ("<key>_p99_s").
MEDIANS = {
    "model.nonlinear_rhs": ("model.nonlinear_rhs",),
    "model.velocity": ("model.velocity",),
    "model.flux_divergence": ("model.flux_divergence",),
    "stepper.step": ("stepper.step",),
    "stepper.cfl_dt": ("stepper.cfl_dt",),
    "diagnostics.make_record": ("diagnostics.make_record",),
    "diagnostics.energy_residual": ("diagnostics.energy_residual_L2",
                                    "diagnostics.energy_residual_Hs"),
    "diagnostics.trilinear_T": ("diagnostics.trilinear_T",),
    "driver.write_series": ("driver.write_series",),
    "driver.write_snapshot": ("driver.write_snapshot",),
}
TIMED_SPANS = {n for names in MEDIANS.values() for n in names}
# Span time summed over one call.
TOTALS = {
    "verify.pointwise_s": ("verify.sample_lemma1", "verify.sample_bdiff",
                           "verify.sample_gdecomp"),
    "verify.commutator_s": ("verify.sample_commutator",),
    "verify.antisymmetry_s": ("verify.sample_antisymmetry",),
}
# Self time (span time minus child spans) summed over one call.
SELF_TOTALS = {
    "spectral.transform_self_s": ("spectral.forward_transform",
                                  "spectral.inverse_transform"),
    "stepper.step_self_s": ("stepper.step",),
    "stepper.integrate_self_s": ("stepper.integrate",),
    "driver.picard_iteration_self_s": ("driver.picard_iteration",),
}
