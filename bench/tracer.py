"""In-memory span tracer for the sqpeg layers.

`Tracer.install()` wraps every public function and every public method of
the public classes of the seven sqpeg modules (the layers).  A wrapped
function is rebound in every sqpeg module namespace that holds it, so calls
made inside the library are seen too (`find_quads -> seed_grid`,
`verify_length_bound -> discrete_frechet`).  Each call records one span:
name (`<layer>.<function>`), start, end, parent span, command id and phase.
Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "solver", "curve", "quad", "pidist", "approx", "generators")


def _count_seed_grid(counts, args, result):
    counts["solver.seeds"] += len(result)


def _count_find_quads(counts, args, result):
    counts["solver.candidates"] += result.raw_count
    counts["solver.classes"] += len(result.solutions)


def _count_point_at(counts, args, result):
    counts["curve.point_at.params"] += int(np.size(args[1]))


def _count_scan_windows(counts, args, result):
    counts["pidist.windows"] += len(result)


def _count_discrete_frechet(counts, args, result):
    # cells of the Eiter-Mannila table, computed from the input sizes:
    # n*m per table, one table per cyclic shift of the shorter closed curve
    a, b = args[0], args[1]
    n, m = a.num_vertices, b.num_vertices
    counts["approx.frechet_cells"] += n * m * (min(n, m) if a.closed else 1)


# exact work counts, taken where the work happens; they must repeat exactly
# between passes and between runs
COUNTS = ("solver.seeds", "solver.candidates", "solver.classes",
          "curve.point_at.params", "pidist.windows", "approx.frechet_cells")
COUNTERS = {
    "solver.seed_grid": _count_seed_grid,
    "solver.find_quads": _count_find_quads,
    "curve.point_at": _count_point_at,
    "pidist.scan_windows": _count_scan_windows,
    "approx.discrete_frechet": _count_discrete_frechet,
}


class Tracer:
    """Records spans while `active`; `phase` and `command` label new spans."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, command, phase)
        self.counts = defaultdict(Counter)  # phase -> count name -> value
        self.metric_names = set(COUNTS)  # every name aggregate() can report
        self.active = False
        self.phase = "setup"
        self.command = -1
        self._stack = []  # [span index, child seconds]
        self._patches = []
        # per phase: name -> [calls, busy_s]; layer -> [busy_s, self_s]
        self._by_name = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self._by_layer = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        self._open_names = Counter()
        self._open_layers = Counter()

    # -- patching --------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"sqpeg.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("sqpeg")]
        for layer, mod in modules.items():
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{layer}.{public}", layer, obj)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, attr, wrapped)
        self.active = True

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, layer, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, layer, raw))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, layer, fn):
        count = COUNTERS.get(name)
        self.metric_names |= {f"{name}.calls", f"{name}.busy_s",
                              f"{layer}.busy_s", f"{layer}.self_s"}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, layer, count, fn, args, kwargs)

        return traced

    # -- recording -------------------------------------------------------

    def _call(self, name, layer, count, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        stack.append(frame)
        outer_name = self._open_names[name] == 0
        outer_layer = self._open_layers[layer] == 0
        self._open_names[name] += 1
        self._open_layers[layer] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._open_names[name] -= 1
            self._open_layers[layer] -= 1
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.spans[index] = (name, start, end, parent, self.command, self.phase)
            by_name = self._by_name[self.phase][name]
            by_name[0] += 1
            if outer_name:
                by_name[1] += dur
            by_layer = self._by_layer[self.phase][layer]
            if outer_layer:
                by_layer[0] += dur
            by_layer[1] += dur - frame[1]
        if count is not None:
            count(self.counts[self.phase], args, result)
        return result

    # -- results ---------------------------------------------------------

    def aggregate(self, phase) -> dict:
        """Flat metrics of one phase: `<name>.calls`, `<name>.busy_s`,
        `<layer>.busy_s`, `<layer>.self_s` and the exact counts."""
        out = {}
        for name, (calls, busy) in self._by_name[phase].items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
        for layer, (busy, self_s) in self._by_layer[phase].items():
            out[f"{layer}.busy_s"] = busy
            out[f"{layer}.self_s"] = self_s
        out.update(self.counts[phase])
        return out

    def write(self, path, origin: float):
        """Write every span as one tab-separated line, times relative to
        `origin`."""
        with open(path, "w") as fh:
            fh.write("index\tphase\tcommand\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, command, phase) in enumerate(self.spans):
                fh.write(f"{i}\t{phase}\t{command}\t{parent}\t{name}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")
