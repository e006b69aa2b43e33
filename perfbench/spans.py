"""Span tracing for the traced benchmark run, kept outside the library.

`Tracer.install` replaces each public function named in `LAYERS` with a
wrapper that opens a span per call.  The wrapper goes into the defining
module and into every loaded `ouexit` module that imported the name
(`spectral` imports `kummer_m`, `tricomi_u` and others by name, `mean_exit`
imports `dawson`, `erfcx` and `tanh_sinh`), so internal calls are seen too.
`uninstall` puts the originals back.  Wrappers return the wrapped function's
result untouched, and `on` gates them, so the benchmark's own checks pass
through unrecorded.

A span carries its id, its parent's id, and its start on the calling
thread's CPU clock.  Self time is the span's duration minus the spans it
opened on the same thread.  Each thread keeps its own span stack and its own
tallies, because `build_basis` refines roots on a thread pool; a span that
opens on an otherwise idle pool thread takes the main thread's innermost
open span as its parent, and the pool thread's CPU time between its spans is
charged to that parent.  Spans are folded into per-key tallies as they close
rather than stored, since one basis build opens hundreds of thousands.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

KUMMER_REGIONS = ("poly", "small_a", "large_z", "neg_a_small_z",
                  "neg_a_large_z")
TRICOMI_METHODS = ("DirectSeries", "IntegralRep", "RecurrenceShift",
                   "Extrapolated", "AsymptoticZ", "raised")
MEAN_EXIT_SOLVERS = ("met_interval", "met_radial_interior",
                     "met_radial_exterior", "met_exterior_1d_forced",
                     "splitting_probability")
GEOMETRIES = ("interval", "radial-interior", "radial-exterior")
HYPERGEOM = ("specfun.kummer_m", "specfun.kummer_m_da", "specfun.tricomi_u",
             "specfun.tricomi_u_da")
EVALUATORS = ("spectral.survival", "spectral.fet_density")


def kummer_region(a: float, b: float, z: float) -> str:
    """Input region of `kummer_m`, following the dispatch in its docstring."""
    if z < 0.0:
        a, z = b - a, -z  # Kummer's transformation, applied before dispatch
    if -30.0 <= a <= 0.0 and a == math.floor(a):
        return "poly"
    if a < -10.0:
        return "neg_a_small_z" if z < 20.0 and b > 0.0 else "neg_a_large_z"
    if z > 80.0 and abs(a) <= 10.0:
        return "large_z"
    return "small_a"


def _kummer_key(args, kwargs, result):
    return kummer_region(*args[:3])


def _tricomi_key(args, kwargs, result):
    return "raised" if result is None else result.method


def _mgf_key(args, kwargs, result):
    geometry = args[0] if args else kwargs["geometry"]
    return getattr(geometry, "value", geometry)


# module -> (function name, suffix from (args, kwargs, result) or None)
LAYERS = {
    "ouexit.specfun": (("kummer_m", _kummer_key), ("kummer_m_da", None),
                       ("tricomi_u", _tricomi_key), ("tricomi_u_da", None),
                       ("dawson", None), ("erfcx", None)),
    "ouexit._quad": (("tanh_sinh", None), ("integrate_to_cutoff", None)),
    "ouexit.mean_exit": tuple((name, None) for name in MEAN_EXIT_SOLVERS),
    "ouexit.spectral": (("build_basis", None), ("survival", None),
                        ("fet_density", None), ("mode_term", None),
                        ("mgf", _mgf_key)),
}
_SHORT = {"ouexit.specfun": "specfun", "ouexit._quad": "quad",
          "ouexit.mean_exit": "mean_exit", "ouexit.spectral": "spectral"}


class _Span:
    __slots__ = ("id", "parent_id", "name", "parent_name", "t0", "child_ns",
                 "in_build")

    def __init__(self, span_id, parent, name, t0, same_thread):
        self.id = span_id
        self.parent_id = parent.id if parent else None
        self.parent_name = parent.name if same_thread and parent else None
        self.name = name
        self.t0 = t0
        self.child_ns = 0
        self.in_build = (name == "spectral.build_basis"
                         or bool(parent and parent.in_build))


class _ThreadState:
    def __init__(self):
        self.stack: list[_Span] = []
        self.stats = defaultdict(lambda: [0, 0])  # key -> [calls, self ns]
        self.counts = defaultdict(int)
        self.max_rel_err = 0.0
        self.idle_since = 0  # CPU clock when the stack last emptied


class Tracer:
    """Per-layer call counts and self times, gathered through wrappers."""

    def __init__(self):
        self.on = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._main = self._state()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "ouexit" or name.startswith("ouexit.")]
        for modname, functions in LAYERS.items():
            home = importlib.import_module(modname)
            for fname, suffix in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{_SHORT[modname]}.{fname}",
                                     suffix)
                for module in loaded:
                    if getattr(module, fname, None) is original:
                        self._patched.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def _wrap(self, fn, name, suffix):
        tracer = self
        counts_nodes = name == "quad.tanh_sinh"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            st, span = tracer._enter(name)
            if counts_nodes:
                args = (_counting(args[0], st.counts),) + args[1:]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(st, span, suffix and suffix(args, kwargs, None),
                             None)
                raise
            tracer._exit(st, span, suffix and suffix(args, kwargs, result),
                         result)
            return result

        return traced

    # -- spans ----------------------------------------------------------

    def _enter(self, name):
        st = self._state()
        now = time.thread_time_ns()
        if st.stack:
            span = _Span(next(self._ids), st.stack[-1], name, now, True)
        else:
            parent = None
            if st is not self._main and self._main.stack:
                # pool thread working for a call open on the main thread
                parent = self._main.stack[-1]
                st.stats[parent.name][1] += now - st.idle_since
            span = _Span(next(self._ids), parent, name, now, False)
        st.stack.append(span)
        return st, span

    def _exit(self, st, span, suffix, result):
        now = time.thread_time_ns()
        st.stack.pop()
        duration = now - span.t0
        tally = st.stats[f"{span.name}.{suffix}" if suffix else span.name]
        tally[0] += 1
        tally[1] += duration - span.child_ns
        if st.stack:
            st.stack[-1].child_ns += duration
        else:
            st.idle_since = now
        if span.name in HYPERGEOM:
            if span.in_build:
                st.counts["build_hypergeom_calls"] += 1
            if result is not None and result.value != 0.0:
                rel = result.abs_err_estimate / abs(result.value)
                if st.max_rel_err < rel < math.inf:  # JSON has no inf
                    st.max_rel_err = rel
        elif span.name == "spectral.build_basis" and result is not None:
            st.counts["modes_built"] += result.n_modes
        elif (span.name == "spectral.mode_term"
              and span.parent_name in EVALUATORS):
            st.counts["eval_modes"] += 1

    # -- report ---------------------------------------------------------

    def layer_metrics(self, api_ns: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls, and self time as a share of api_ns."""
        stats = defaultdict(lambda: [0, 0])
        counts = defaultdict(int)
        max_rel = 0.0
        for st in self._states:
            for key, (calls, self_ns) in st.stats.items():
                stats[key][0] += calls
                stats[key][1] += self_ns
            for key, n in st.counts.items():
                counts[key] += n
            max_rel = max(max_rel, st.max_rel_err)

        out: dict[str, tuple[float, str]] = {}

        def layer(key, share=True):
            calls, self_ns = stats.get(key, (0, 0))
            out[f"{key}.calls"] = (calls, "count")
            if share:
                out[f"{key}.self_frac"] = (self_ns / api_ns, "ratio")

        for region in KUMMER_REGIONS:
            layer(f"specfun.kummer_m.{region}")
        layer("specfun.kummer_m_da")
        for method in TRICOMI_METHODS:
            layer(f"specfun.tricomi_u.{method}")
        layer("specfun.tricomi_u_da")
        layer("specfun.dawson")
        layer("specfun.erfcx")
        out["specfun.max_claimed_rel_err"] = (max_rel, "ratio")
        layer("quad.tanh_sinh")
        layer("quad.integrate_to_cutoff")
        integrals = stats["quad.tanh_sinh"][0]
        out["quad.nodes"] = (counts["nodes"], "count")
        out["quad.nodes_per_integral"] = (
            counts["nodes"] / integrals if integrals else 0.0, "count")
        for solver in MEAN_EXIT_SOLVERS:
            layer(f"mean_exit.{solver}")
        layer("spectral.build_basis")
        modes = counts["modes_built"]
        out["spectral.build.hypergeom_calls_per_mode"] = (
            counts["build_hypergeom_calls"] / modes if modes else 0.0,
            "count")
        for evaluator in ("survival", "fet_density", "mode_term"):
            layer(f"spectral.{evaluator}")
        evals = sum(stats[key][0] for key in EVALUATORS)
        out["spectral.modes_per_eval"] = (
            counts["eval_modes"] / evals if evals else 0.0, "count")
        for geometry in GEOMETRIES:
            layer(f"spectral.mgf.{geometry}")
        return out


def _counting(f, counts):
    def integrand(x):
        counts["nodes"] += 1
        return f(x)
    return integrand
