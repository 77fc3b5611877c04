"""Span tracer for heatlab, installed from outside the package.

`Tracer.install()` rebinds every public function of each heatlab module, in
every heatlab namespace that holds it, to a wrapper that records a span; it
also wraps `Spectrum.validate`, the CSV/JSON writers, the sweep thread pool
and the LP entry point as `heatlab.inequality` sees it. `uninstall()` puts
the originals back. Nothing under `src/` changes.

Each thread keeps its own span stack (`threading.local`), because the sweep
runners call `heatlab.inequality` from pool threads. A span's self time is
its duration minus the durations of the spans opened directly beneath it on
the same thread, so per thread the self times add up to the wall time of
that thread's root spans. All spans of one `run()` share the run id the
client sets. Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import json
import threading
import time
import types

LAYERS = ("domain", "operators", "spectrum", "obsets", "inequality", "control",
          "doubling", "experiments", "cli")

# Spans whose self time, plus that of same-layer spans nested beneath them,
# is reported under a metric of their own. Other spans of domain, obsets and
# experiments go to that layer's catch-all metric; the rest are kept in the
# trace but feed no per-layer metric.
OWNER = {
    "operators.assemble": "operators.assemble_s",
    "spectrum.compute_spectrum": "spectrum.solve_s",
    "spectrum.validate": "spectrum.validate_s",
    "inequality.constant_sup": "inequality.sup_s",
    "inequality.constant_l1": "inequality.l1_s",
    "inequality.constant_l2": "inequality.l2_s",
    "inequality.interpolation_check": "inequality.interp_s",
    "inequality.fit_growth": "inequality.fit_s",
    "doubling.smooth_normal": "doubling.smooth_normal_s",
    "doubling.build_chart": "doubling.chart_s",
    "doubling.pseudo_geodesic_diag": "doubling.diag_s",
    "doubling.double_domain": "doubling.double_s",
    "doubling.extend_eigenfunction": "doubling.extend_s",
    "control.synthesize": "control.synthesize_s",
    "control.observable_cutoff": "control.cutoff_s",
    "control.simulate": "control.simulate_s",
    "control.distributed_control": "control.distributed_s",
    "control.cost_report": "control.ledger_s",
    "experiments.write_csv": "experiments.write_s",
    "experiments._export_schedule": "experiments.write_s",
}
LAYER_OWNER = {"domain": "domain.build_s", "obsets": "obsets.build_s",
               "experiments": "experiments.self_s"}
POOL_SPAN = "pool.wait"   # main-thread span around the sweep thread pool


class Span:
    __slots__ = ("name", "layer", "owner", "run", "thread", "parent", "start",
                 "end", "child")

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple, float] = {}
        self.run_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span()
        span.name, span.layer, span.run = name, layer, self.run_id
        span.thread = threading.get_ident()
        span.parent = stack[-1] if stack else None
        owner = OWNER.get(name)
        if owner is None and span.parent is not None and span.parent.layer == layer:
            owner = span.parent.owner
        span.owner = owner or LAYER_OWNER.get(layer)
        span.child = 0.0
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def count(self, name: str, n: float = 1):
        key = (self.run_id, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, layer: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, out)
                return out
            finally:
                tracer.close(span)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        heatlab = importlib.import_module("heatlab")
        modules = {layer: importlib.import_module(f"heatlab.{layer}") for layer in LAYERS}
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, val in vars(mod).items():
                public = not attr.startswith("_") or attr == "_export_schedule"
                if (public and isinstance(val, types.FunctionType)
                        and val.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(val)] = (val, self.wrap(name, layer, val, AFTER.get(name)))
        for mod in [heatlab, *modules.values()]:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
        runners = modules["experiments"].RUNNERS
        for key, fn in list(runners.items()):
            self._saved.append((runners, key, fn))
            runners[key] = wrappers[id(fn)][1]

        spectrum_cls = modules["spectrum"].Spectrum
        self._set(spectrum_cls, "validate",
                  self.wrap("spectrum.validate", "spectrum", spectrum_cls.validate))

        ineq = modules["inequality"]
        linprog = ineq.scipy.optimize.linprog

        def counted_linprog(*args, **kwargs):
            self.count("inequality.lp_calls")
            return linprog(*args, **kwargs)

        self._set(ineq, "scipy", _Proxy(ineq.scipy, optimize=_Proxy(
            ineq.scipy.optimize, linprog=counted_linprog)))

        exp = modules["experiments"]
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.open(POOL_SPAN, "wait")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        self._set(exp, "concurrent", _Proxy(exp.concurrent, futures=_Proxy(
            exp.concurrent.futures, ThreadPoolExecutor=TracedPool)))

    def uninstall(self):
        while self._saved:
            owner, attr, val = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = val
            else:
                setattr(owner, attr, val)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write all spans as JSON lines; called once, when the benchmark ends."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": s.run, "thread": s.thread, "name": s.name,
                    "layer": s.layer, "parent": index.get(id(s.parent)),
                    "start": s.start, "end": s.end, "self": s.self_time}) + "\n")


def _after_assemble(tracer, args, kwargs, op):
    tracer.count("operators.k_bytes", op.K.nbytes)


def _after_spectrum(tracer, args, kwargs, spec):
    tracer.count("spectrum.unknowns", spec.operator.n)
    tracer.count("spectrum.modes_kept", spec.n_modes)


def _after_synthesize(tracer, args, kwargs, sched):
    tracer.count("control.impulses", len(sched.steps))


def _after_smooth_normal(tracer, args, kwargs, out):
    # computed, not measured: one dense n_z x n_z float64 kernel per level s > 0
    s_grid = kwargs.get("s_grid", args[2] if len(args) > 2 else None)
    levels = sum(1 for s in s_grid if s > 0)
    tracer.count("doubling.kernel_bytes", levels * out.shape[1] ** 2 * 8)


AFTER = {
    "operators.assemble": _after_assemble,
    "spectrum.compute_spectrum": _after_spectrum,
    "control.synthesize": _after_synthesize,
    "doubling.smooth_normal": _after_smooth_normal,
}
