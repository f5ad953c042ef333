"""Span tracing of finvar from outside the package.

The tracer replaces public finvar functions by timing wrappers in every
module that holds a reference to them (the defining module and each module
that imported the name), and restores the originals afterwards. Nothing in
``src/`` is edited. Spans (name, start, end, parent, op id) stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from collections import Counter
from time import perf_counter

# (defining module, function, span name). The closed forms share one span.
TARGETS = (
    ("finvar.cli", "main", "cli.main"),
    ("finvar.config", "load_config", "config.load_config"),
    ("finvar.config", "sample_tangent_points", "config.sample_tangent_points"),
    ("finvar.integrals", "first_integrals", "integrals.first_integrals"),
    ("finvar.integrals", "build_H", "integrals.build_H"),
    ("finvar.integrals", "charpoly_coefficients",
     "integrals.charpoly_coefficients"),
    ("finvar.integrals", "integrals_along", "integrals.integrals_along"),
    ("finvar.integrals", "f1_closed_form", "integrals.closed_forms"),
    ("finvar.integrals", "fn1_closed_form", "integrals.closed_forms"),
    ("finvar.integrals", "mu", "integrals.closed_forms"),
    ("finvar.integrals", "painleve_I0", "integrals.closed_forms"),
    ("finvar.integrals", "tm_I1", "integrals.closed_forms"),
    ("finvar.integrals", "sarlet_K", "integrals.closed_forms"),
    ("finvar.dynamics", "integrate_geodesic", "dynamics.integrate_geodesic"),
    ("finvar.dynamics", "rapcsak_residual", "dynamics.rapcsak_residual"),
    ("finvar.dynamics", "trajectory_energy", "dynamics.trajectory_energy"),
    ("finvar.metrics", "metric_jet", "metrics.metric_jet"),
    ("finvar.linalg", "inverse", "linalg.inverse"),
    ("finvar.autodiff", "xy_jet2", "autodiff.xy_jet2"),
    ("finvar.oracle", "charpoly_by_interpolation",
     "oracle.charpoly_by_interpolation"),
    ("finvar.oracle", "delta_alpha_combinatorial",
     "oracle.delta_alpha_combinatorial"),
)
SPAN_NAMES = tuple(dict.fromkeys(span for _, _, span in TARGETS))


class Tracer:
    """In-memory span store plus the counters read from traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.errors: list[bool] = []
        self._stack: list[int] = []
        self.op_id = -1
        # integrate_geodesic span id -> method, and steps by
        # (method, "accepted" | "rejected")
        self.methods: dict[int, str] = {}
        self.steps = Counter()
        self.sampled_points = 0
        self.in_domain_calls = 0

    def wrap(self, span: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(span)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op_id)
            self.errors.append(False)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[sid] = True
                raise
            finally:
                self.ends[sid] = perf_counter()
                self.starts[sid] = start
                self._stack.pop()
            if after is not None:
                after(sid, kwargs, result)
            return result
        return traced

    def _after_integrate(self, sid, kwargs, traj):
        method = kwargs.get("method", "rkf45")
        self.methods[sid] = method
        self.steps[method, "accepted"] += traj.n_accepted
        self.steps[method, "rejected"] += traj.n_rejected

    def _after_sample(self, sid, kwargs, points):
        self.sampled_points += len(points)

    @contextlib.contextmanager
    def installed(self):
        """Patch every finvar module attribute bound to a target function."""
        hooks = {"dynamics.integrate_geodesic": self._after_integrate,
                 "config.sample_tangent_points": self._after_sample}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "finvar" or name.startswith("finvar.")]
        patches = []
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(span, original, hooks.get(span))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, wrapper)
        pair_cls = sys.modules["finvar.metrics"].ProjectivePair
        in_domain = pair_cls.in_domain

        def counted_in_domain(pair, x):
            self.in_domain_calls += 1
            return in_domain(pair, x)

        pair_cls.in_domain = counted_in_domain
        patches.append((pair_cls, "in_domain", in_domain))
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children.

        The code is single-threaded, so children of one span never overlap.
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def layer_totals(self) -> dict:
        """Per span name: calls, self seconds and errors."""
        totals = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
                  for name in SPAN_NAMES}
        for name, self_s, err in zip(self.names, self.self_times(),
                                     self.errors):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["errors"] += int(err)
        return totals

    def calls_by_op(self, span: str) -> Counter:
        """Spans named ``span`` per op id."""
        return Counter(op for name, op in zip(self.names, self.ops)
                       if name == span)

    def rhs_calls(self) -> Counter:
        """xy_jet2 spans whose parent is integrate_geodesic, by method."""
        out = Counter()
        for name, parent in zip(self.names, self.parents):
            if name == "autodiff.xy_jet2" and parent in self.methods:
                out[self.methods[parent]] += 1
        return out

    def write(self, path) -> None:
        """All spans as gzip CSV; times in seconds from the first span."""
        t0 = min(self.starts, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,parent,op,start_s,end_s,error\n")
            for i in range(len(self.names)):
                fh.write(f"{i},{self.names[i]},{self.parents[i]},"
                         f"{self.ops[i]},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{int(self.errors[i])}\n")

