"""Per-layer tracing of ``vlsidesk`` from outside the program.

``Tracer.install`` replaces the public functions, methods and constructors
of the layer modules, and private functions that another layer imports, in
every module namespace that refers to them, with a wrapper that counts
calls and times the call when it enters a layer from another one.
A call from a layer into itself is only counted, so inner loops such as
``logic_simulate`` under ``atpg_exhaustive`` cost one counter increment.
The CLI steps (load, validate, adapt, render) are timed even when nested
inside another CLI function, so each gets its own span.

Self time of a timed call is its duration minus the time of the timed
calls it made; summed per layer it splits the traced time between layers.
Spans (name, start, end, parent) are kept in memory down to SPAN_DEPTH.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "device", "gates", "interconnect", "effort", "timing", "power",
          "memory", "testability", "boolexpr", "units")
BENCH = len(LAYERS)          # the benchmark's own frames
SPAN_DEPTH = 5               # deeper timed calls are aggregated, not logged
CLI_STEPS = ("load_case", "validate_case", "run_case", "render_json")
KERNEL_FUNCTIONS = ("interconnect.RcTree.downstream_cap", "interconnect.RcTree.path_to_root",
                    "testability.logic_simulate", "testability.atpg_exhaustive",
                    "gates.evaluate_network", "device.square_law_current")


class Tracer:
    def __init__(self):
        self.names = []                      # function id -> "layer.qualname"
        self.layer_of = []                   # function id -> layer index
        self.calls = []                      # function id -> call count
        self.self_s = []                     # function id -> timed self seconds
        self.layer_self = [0.0] * (BENCH + 1)
        self.spans = []                      # (function id, start, end, parent span)
        self._stack = [BENCH]
        self._child = [0.0]
        self._open = [-1]
        self._undo = []
        self._ids = {}
        self._bench = {}
        self.atpg_patterns = 0

    def _register(self, name, layer):
        fid = len(self.names)
        self._ids[name] = fid
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return fid

    def _wrap(self, fn, name, layer, always=False):
        fid = self._register(name, layer)
        stack, child, opened = self._stack, self._child, self._open
        calls, self_s, layer_self, spans = (
            self.calls, self.self_s, self.layer_self, self.spans)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if stack[-1] == layer and not always:
                return fn(*args, **kwargs)
            stack.append(layer)
            child.append(0.0)
            logged = len(stack) <= SPAN_DEPTH
            if logged:
                span = len(spans)
                spans.append(None)
                opened.append(span)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                own = d - child.pop()
                child[-1] += d
                self_s[fid] += own
                layer_self[layer] += own
                if logged:
                    opened.pop()
                    spans[span] = (fid, t0, t1, opened[-1])
        return wrapper

    def span(self, name, fn, *args):
        """Call ``fn(*args)`` inside a benchmark-level span named ``name``."""
        if name not in self._bench:
            self._bench[name] = self._wrap(lambda f, *a: f(*a), name, BENCH, always=True)
        return self._bench[name](fn, *args)

    def install(self):
        """Wrap the layer modules of the imported ``vlsidesk`` package."""
        modules = {layer: importlib.import_module(f"vlsidesk.{layer}") for layer in LAYERS}
        imported = {id(obj) for mod in modules.values() for obj in vars(mod).values()
                    if getattr(obj, "__module__", mod.__name__) != mod.__name__}
        wrapped = {}                                  # id(original) -> wrapper
        for layer, mod in modules.items():
            index = LAYERS.index(layer)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and id(obj) not in imported:
                    continue              # private and used only inside its layer
                if inspect.isfunction(obj):
                    always = layer == "cli" and attr in CLI_STEPS
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", index, always)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, index)
        registry = modules["cli"].REGISTRY
        for analysis, entry in registry.items():
            original = entry["run"]
            entry["run"] = self._wrap(original, f"cli.adapt.{analysis}", 0, always=True)
            self._undo.append((entry.__setitem__, "run", original))
        for mod in [importlib.import_module("vlsidesk"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                    self._undo.append((functools.partial(setattr, mod), attr, obj))

    def _wrap_class(self, cls, layer, index):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self._wrap(obj.__func__, name, index))
            elif inspect.isfunction(obj):
                new = self._wrap(obj, name, index)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((functools.partial(setattr, cls), attr, obj))

    def uninstall(self):
        for setter, attr, original in reversed(self._undo):
            setter(attr, original)
        self._undo.clear()

    def count(self, name):
        """Calls of the function ``layer.qualname``; 0 if the program has none."""
        return self.calls[self._ids[name]] if name in self._ids else 0

    def case(self, analysis, fn, *args):
        """Run one case inside a "case" span, attributing ATPG patterns."""
        before = self.count("testability.logic_simulate")
        try:
            return self.span("case", fn, *args)
        finally:
            if analysis == "atpg":
                # each enumerated pattern simulates the good and the faulty netlist
                self.atpg_patterns += (self.count("testability.logic_simulate") - before) // 2

    def summary(self):
        """Additive totals: merge summaries of several traced processes by
        adding their numbers."""
        span_s = {}
        for fid, t0, t1, _ in filter(None, self.spans):
            span_s[self.names[fid]] = span_s.get(self.names[fid], 0.0) + t1 - t0
        adapt_self = sum(s for name, s in zip(self.names, self.self_s)
                         if name.startswith("cli.adapt."))
        return {
            "self_s": {layer: self.layer_self[i] for i, layer in enumerate(LAYERS)},
            "calls": {layer: sum(c for c, lay in zip(self.calls, self.layer_of) if lay == i)
                      for i, layer in enumerate(LAYERS)},
            "counts": {name: self.count(name) for name in KERNEL_FUNCTIONS},
            "steps": {"load_case": span_s.get("cli.load_case", 0.0),
                      "validate_case": span_s.get("cli.validate_case", 0.0),
                      "adapt": adapt_self,
                      "render_json": span_s.get("cli.render_json", 0.0)},
            "cases": self.count("case"),
            "case_s": span_s.get("case", 0.0),
            "atpg_patterns": self.atpg_patterns,
        }
