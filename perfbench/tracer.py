"""Per-layer tracing of the musrtomo package from outside the program.

``Tracer.install`` wraps every public function and every public method of a
public class defined in each ``musrtomo`` module, then rebinds each module
attribute that refers to a wrapped function object (modules import each
other's functions by name, so one function can be bound in several
namespaces). The closure returned by ``muon_polarization_function`` is
wrapped as well. A wrapper records a span per call: its duration counts
toward the layer's busy time unless a span of the same layer is already open,
and its duration minus that of its child spans toward the layer's self time.

Layers are the package's modules. Functions that a later version renames or
removes are reported as absent instead of failing the run.
"""

import functools
import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "musrtomo"

# metric name -> (kind, function key); the key is "<layer>.<qualified name>"
FUNCTION_METRICS = {
    "entanglement.max_bell.calls": ("calls", "entanglement.max_bell"),
    "entanglement.max_bell.self_s": ("self_s", "entanglement.max_bell"),
    "tomography.rotation_matrix.calls": ("calls", "tomography.rotation_matrix"),
    "tomography.wigner_small_d.calls": ("calls", "tomography.wigner_small_d"),
    "tomography.quantizer.calls": ("calls", "tomography.quantizer"),
    "dynamics.unitary.calls": ("calls", "dynamics.PropagatorSpec.unitary"),
    "linalg.require_density_matrix.calls": ("calls", "linalg.require_density_matrix"),
    "linalg.eig_hermitian.calls": ("calls", "linalg.eig_hermitian"),
    "dynamics.polarization.self_s": ("self_s", "dynamics.polarization"),
}
# metric name -> (numerator, denominator); each a function key or a counter
RATIO_METRICS = {
    "dynamics.closed_form_share": ("ok:dynamics.PropagatorSpec.closed_form_unitary",
                                   "calls:dynamics.PropagatorSpec.unitary"),
    "musr.in_window_share": ("counter:musr.in_window", "counter:musr.muons"),
    "musr.detected_per_muon": ("counter:musr.detected", "counter:musr.muons"),
}
COUNTER_METRICS = ("dynamics.polarization.samples", "reconstruction.design_rows")
# keys recorded by hooks -> the wrapped function they need
HOOK_SOURCES = {
    "dynamics.polarization": "dynamics.muon_polarization_function",
    "dynamics.polarization.samples": "dynamics.muon_polarization_function",
    "musr.in_window": "dynamics.muon_polarization_function",
    "musr.muons": "musr.simulate_events",
    "musr.detected": "musr.simulate_events",
    "reconstruction.design_rows": "reconstruction.build_design_matrix",
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.ok_calls = Counter()
        self.fn_self_s = defaultdict(float)
        self.layer_calls = Counter()
        self.layer_self_s = defaultdict(float)
        self.layer_busy_s = defaultdict(float)
        self.counters = Counter()
        self.installed = set()
        self.broken_hooks = set()
        self.layers = []
        self._paused = False
        self._open = Counter()
        self._stack = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str, hook=None):
        tracer = self
        self.installed.add(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._open[layer] += 1
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                duration = perf_counter() - frame[0]
                tracer._stack.pop()
                tracer._open[layer] -= 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if tracer._open[layer] == 0:
                    tracer.layer_busy_s[layer] += duration
                tracer.layer_self_s[layer] += duration - frame[1]
                tracer.fn_self_s[key] += duration - frame[1]
                tracer.layer_calls[layer] += 1
                tracer.calls[key] += 1
                tracer.ok_calls[key] += ok
            if hook is not None:
                result = tracer._run_hook(hook, key, fn, args, kwargs, result)
            return result

        return wrapper

    def _run_hook(self, hook, key, fn, args, kwargs, result):
        try:
            return hook(self, fn, args, kwargs, result)
        except Exception:  # a changed signature or result type must not break the run
            self.broken_hooks.add(HOOK_SOURCES.get(key, key))
            return result

    @contextmanager
    def paused(self):
        """Calls made inside the block (by the benchmark's own output checks,
        not by the program under test) are neither counted nor timed."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            self.layers.append(layer)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
                elif callable(obj):
                    key = f"{layer}.{obj.__qualname__}"
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, key, HOOKS.get(key)))
        for module in [package, *modules]:
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, name, entry[1], obj)

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__qualname__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, layer, key))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, key)
            else:
                continue
            self._set(cls, name, new, raw)

    def _set(self, owner, name, new, old) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def _present(self, key: str) -> bool:
        source = HOOK_SOURCES.get(key, key)
        return source in self.installed and source not in self.broken_hooks

    def _value(self, ref: str):
        kind, key = ref.split(":", 1)
        if not self._present(key):
            return None
        return {"calls": self.calls, "ok": self.ok_calls, "counter": self.counters}[kind][key]

    def metrics(self, layers) -> tuple:
        """({metric: value}, [absent metric names]) for the given layers."""
        out, absent = {}, []
        for layer in layers:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.busy_s"] = self.layer_busy_s[layer]
            out[f"{layer}.self_s"] = self.layer_self_s[layer]
            if layer not in self.layers:
                absent.append(layer)
        for name, (kind, key) in FUNCTION_METRICS.items():
            if kind == "calls":
                out[name] = self._value(f"calls:{key}")
            else:
                out[name] = self.fn_self_s[key] if self._present(key) else None
        for name in COUNTER_METRICS:
            out[name] = self._value(f"counter:{name}")
        for name, (num, den) in RATIO_METRICS.items():
            a, b = self._value(num), self._value(den)
            out[name] = None if a is None or b is None else (a / b if b else 0.0)
        absent += [name for name, value in out.items() if value is None]
        return {k: (0 if v is None else v) for k, v in out.items()}, absent


# -- hooks: counters read off arguments and results ---------------------------

def _polarization_factory(tracer, fn, args, kwargs, closure):
    def count(tracer, fn, args, kwargs, result):
        times = inspect.signature(fn).bind(*args, **kwargs).args[0]
        samples = int(getattr(times, "size", 1))
        tracer.counters["dynamics.polarization.samples"] += samples
        if tracer._open["musr"]:  # decay times inside the window, from the Monte Carlo
            tracer.counters["musr.in_window"] += samples
        return result
    return tracer._wrap(closure, "dynamics", "dynamics.polarization", count)


def _simulate_events(tracer, fn, args, kwargs, hist):
    n_muons = inspect.signature(fn).bind(*args, **kwargs).arguments["n_muons"]
    tracer.counters["musr.muons"] += int(n_muons)
    tracer.counters["musr.detected"] += int(hist.counts.sum())
    return hist


def _design_matrix(tracer, fn, args, kwargs, design):
    tracer.counters["reconstruction.design_rows"] += int(design.matrix.shape[0])
    return design


HOOKS = {
    "dynamics.muon_polarization_function": _polarization_factory,
    "musr.simulate_events": _simulate_events,
    "reconstruction.build_design_matrix": _design_matrix,
}
