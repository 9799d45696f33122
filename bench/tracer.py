"""Outside-in per-layer tracing of akcy.

Spans are installed by replacing module and class attributes of the loaded
akcy modules with timing wrappers; the package source is not touched.  A
function imported by name into several modules (``from .frame import
LocalGeometry``) is replaced in every module that holds it, so calls are
seen whichever binding they go through.

Every ``.s`` metric is self time: the span's wall time minus the wall time
of the traced spans it called.  Spans live in memory and are folded into
per-layer metrics when the run ends.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MB = float(1 << 20)
PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss():
    """Resident set size of this process in bytes."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE


def _maxrss():
    """Peak resident set size of this process so far, in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _RssSampler:
    """Thread recording the highest resident set size until stopped."""

    def __init__(self, interval=0.01):
        self._lock = threading.Lock()
        self._high = _rss()
        self._interval = interval
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._done.wait(self._interval):
            self.high()

    def high(self):
        """Highest resident set size since the last reset."""
        rss = _rss()
        with self._lock:
            self._high = max(self._high, rss)
            return self._high

    def reset(self):
        """Return the highest resident set size so far and start again from now."""
        rss = _rss()
        with self._lock:
            high, self._high = max(self._high, rss), rss
        return high

    def stop(self):
        self._done.set()
        self._thread.join()


def _points(arr):
    """Number of points in an (..., 2n) point array."""
    return int(np.prod(np.shape(arr)[:-1]))


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.raised = defaultdict(int)
        self.child_calls = defaultdict(int)   # (parent span, child span) -> calls
        self.peak_mb = defaultdict(float)
        self._stack = []                      # [name, start, time in child spans]
        self._peak_frames = []                # [name, ru_maxrss at entry, peak bytes]
        self._sampler = None

    # -- spans ----------------------------------------------------------------
    def wrap(self, name, fn, after=None, peak=False):
        """fn wrapped in a span; after(result, args, kwargs) may add counts."""

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            self.calls[name] += 1
            self.child_calls[(parent, name)] += 1
            if peak:
                self._enter_peak(name)
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                duration = time.perf_counter() - frame[1]
                self._stack.pop()
                self.self_s[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                if peak:
                    self._exit_peak()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _enter_peak(self, name):
        # Peak memory of a span is the highest resident set size seen while it
        # runs: sampled every 10 ms by a thread, and exact whenever the
        # span raises the process high-water mark (ru_maxrss).  An enclosing
        # span keeps its own peak across the sampler reset.
        if self._sampler is None:
            self._sampler = _RssSampler()
        high = self._sampler.reset()
        for frame in self._peak_frames:
            frame[2] = max(frame[2], high)
        self._peak_frames.append([name, _maxrss(), 0])

    def _exit_peak(self):
        name, maxrss_at_entry, best = self._peak_frames.pop()
        maxrss = _maxrss()
        peak = max(best, self._sampler.high(), maxrss if maxrss > maxrss_at_entry else 0)
        self.peak_mb[name] = max(self.peak_mb[name], peak / MB)
        if not self._peak_frames:
            self._sampler.stop()
            self._sampler = None

    # -- installation -----------------------------------------------------------
    def install(self):
        """Wrap the public layer functions of every loaded akcy module."""
        from akcy import boundary, cy_operator, forms, frame, potentials, serialize, solver, structure

        modules = [m for k, m in sys.modules.items() if k == "akcy" or k.startswith("akcy.")]

        def patch_function(module, attr, name, **kw):
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig, **kw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

        def patch_method(cls, attr, name, **kw):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), **kw))

        def count(key, fn):
            def after(result, args, kwargs):
                self.counts[key] += fn(result, args, kwargs)
            return after

        patch_function(structure, "twisted_structure", "structure.twisted_structure")
        patch_method(structure.CompatibleStructure, "J_at", "structure.J_at",
                     after=count("structure.J_at.points", lambda r, a, k: _points(a[1])))
        patch_method(frame.LocalGeometry, "__init__", "frame.LocalGeometry",
                     after=count("frame.LocalGeometry.points", lambda r, a, k: _points(a[2])))
        patch_function(frame, "build_frame", "frame.build_frame")

        patch_method(potentials.AnalyticPotential, "sample", "potentials.sample")
        patch_method(potentials.AnalyticPotential, "value", "potentials.sample")
        patch_method(potentials.AnalyticPotential, "grad", "potentials.grad_hess")
        patch_method(potentials.AnalyticPotential, "hess", "potentials.grad_hess")

        patch_function(boundary, "select_seed", "boundary.select_seed")
        patch_function(
            boundary, "boundary_potential", "boundary.boundary_potential", peak=True,
            after=count("boundary.scan_points", lambda r, a, k: r[1].diagnostics["scan_points"]),
        )

        for fn in ("d_scalar", "apply_J_oneform", "exterior_derivative", "wedge",
                   "j_conjugate_comps"):
            patch_function(forms, fn, f"forms.{fn}")

        for fn in ("F_total", "F_components", "taming_margin", "positivity_amplitude"):
            patch_function(cy_operator, fn, f"cy_operator.{fn}")
        patch_function(cy_operator, "min_eigenvalue_field", "cy_operator.min_eigenvalue_field",
                       after=count("cy_operator.min_eigenvalue_field.points",
                                   lambda r, a, k: int(np.prod(np.shape(a[0])[2:]))))
        patch_function(cy_operator, "analyze_potential", "cy_operator.analyze_potential",
                       peak=True)

        patch_function(solver, "make_handle", "solver.make_handle")
        patch_method(solver.LinearOperatorHandle, "apply", "solver.LinearOperatorHandle.apply")
        patch_function(solver, "gmres", "solver.gmres")
        patch_function(
            solver, "newton_solve", "solver.newton_solve", peak=True,
            after=count("solver.newton_solve.iters", lambda r, a, k: r[1].iters),
        )
        patch_function(
            solver, "continuity_solve", "solver.continuity_solve",
            after=count("solver.continuity_solve.steps", lambda r, a, k: len(r[1].trace)),
        )
        solver.np = _Proxy(np, fft=_Proxy(np.fft, **{
            fn: self.wrap("solver.fft", getattr(np.fft, fn)) for fn in ("fftn", "ifftn", "fftfreq")
        }))

        def written(result, args, kwargs):
            self.counts["serialize.bytes_written"] += os.path.getsize(args[0])

        for fn in ("write_field", "write_report", "write_trace_csv", "field_to_csv"):
            patch_function(serialize, fn, "serialize", after=written)
        patch_function(serialize, "read_field", "serialize")

    # -- results ----------------------------------------------------------------
    def metrics(self):
        """Per-layer metrics of everything traced so far."""
        s, calls, counts = self.self_s, self.calls, self.counts
        # Line-search trials are the taming checks newton_solve makes itself;
        # each accepted step is followed by one fresh linearization handle.
        trials = self.child_calls[("solver.newton_solve", "cy_operator.taming_margin")]
        accepted = self.child_calls[("solver.newton_solve", "solver.make_handle")] - calls["solver.newton_solve"]
        out = {
            "structure.twisted_structure.s": s["structure.twisted_structure"],
            "potentials.sample.s": s["potentials.sample"],
            "structure.J_at.points": counts["structure.J_at.points"],
            "structure.J_at.s": s["structure.J_at"],
            "frame.LocalGeometry.points": counts["frame.LocalGeometry.points"],
            "frame.LocalGeometry.s": s["frame.LocalGeometry"],
            "frame.build_frame.s": s["frame.build_frame"],
            "boundary.select_seed.s": s["boundary.select_seed"],
            "boundary.boundary_potential.s": s["boundary.boundary_potential"],
            "boundary.scan_points": counts["boundary.scan_points"],
            "potentials.grad_hess.s": s["potentials.grad_hess"],
            "forms.d_scalar.s": s["forms.d_scalar"],
            "forms.apply_J_oneform.s": s["forms.apply_J_oneform"],
            "forms.exterior_derivative.s": s["forms.exterior_derivative"],
            "forms.wedge.calls": calls["forms.wedge"],
            "forms.wedge.s": s["forms.wedge"],
            "forms.j_conjugate_comps.s": s["forms.j_conjugate_comps"],
            "cy_operator.F_total.calls": calls["cy_operator.F_total"],
            "cy_operator.F_total.s": s["cy_operator.F_total"],
            "cy_operator.F_components.s": s["cy_operator.F_components"],
            "cy_operator.taming_margin.calls": calls["cy_operator.taming_margin"],
            "cy_operator.taming_margin.s": s["cy_operator.taming_margin"],
            "solver.make_handle.calls": calls["solver.make_handle"],
            "cy_operator.min_eigenvalue_field.points": counts["cy_operator.min_eigenvalue_field.points"],
            "cy_operator.min_eigenvalue_field.s": s["cy_operator.min_eigenvalue_field"],
            "cy_operator.positivity_amplitude.s": s["cy_operator.positivity_amplitude"],
            "solver.newton_solve.iters": counts["solver.newton_solve.iters"],
            "solver.gmres.calls": calls["solver.gmres"],
            "solver.gmres.s": s["solver.gmres"],
            "solver.LinearOperatorHandle.apply.calls": calls["solver.LinearOperatorHandle.apply"],
            "solver.LinearOperatorHandle.apply.s": s["solver.LinearOperatorHandle.apply"],
            "solver.fft.calls": calls["solver.fft"],
            "solver.fft.s": s["solver.fft"],
            "solver.continuity_solve.steps": counts["solver.continuity_solve.steps"],
            "solver.newton_solve.failed": self.raised["solver.newton_solve"],
            "solver.line_search.trials": trials,
            "solver.line_search.accept_ratio": accepted / trials if trials else 0.0,
            "solver.newton_solve.peak_mb": self.peak_mb["solver.newton_solve"],
            "cy_operator.analyze_potential.peak_mb": self.peak_mb["cy_operator.analyze_potential"],
            "boundary.boundary_potential.peak_mb": self.peak_mb["boundary.boundary_potential"],
            "serialize.bytes_written": counts["serialize.bytes_written"],
            "serialize.s": s["serialize"],
        }
        return out


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)
