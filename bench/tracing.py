"""Per-layer tracing of lap1, done from the benchmark's side.

`Tracer.install()` wraps every public function of the modules in LAYERS,
plus the two memoised enumeration levels, at every lap1 module binding
that refers to it, so calls made inside the package are caught too. Each
call, and each step of a generator a wrapped function returns, records a
span: function, start, end, parent span and request id. Spans stay in
memory until `layer_metrics()` folds them into per-layer numbers.

A span's self time is its duration minus that of its direct child spans.
A call without a metric of its own inherits the metric of a caller in the
same layer, so a layer's self time leaves out only the time spent in
other layers. Everything runs in one thread of one process, so no layer
ever waits for another and there is no waiting time to report.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("enumeration", "canon", "linalg", "reduction", "graph6", "graphs",
          "verify", "cli", "extremal")

# Functions with a metric of their own; every other wrapped function
# inherits its caller's metric within a layer, or else the layer's name.
KEYS = {
    "enumeration.free_trees": "enumeration.trees",
    "enumeration._tree_level": "enumeration.trees",
    "enumeration.trees_in_class_T": "enumeration.trees",
    "enumeration.unicyclic_graphs": "enumeration.unicyclic",
    "enumeration._unicyclic_level": "enumeration.unicyclic",
    "enumeration.unicyclic_in_class_G": "enumeration.unicyclic",
    "enumeration.filter_class": "enumeration.filter",
    "canon.canonical_form": "canon.form",
    "canon.tree_marked_code": "canon.orbit_key",
    "linalg.rank": "linalg.rank",
    "linalg.char_poly": "linalg.char_poly",
    "linalg.poly_root_multiplicity": "linalg.root_mult",
    "reduction.multiplicity_fast": "reduction.fast",
    "graph6.parse_graph6": "graph6.parse",
    "graph6.to_graph6": "graph6.encode",
    "graphs.pendant_profile": "graphs.pendant_profile",
    "graphs.find_pendant_paths": "graphs.find_pendant_paths",
}
PRIVATE = ("enumeration._tree_level", "enumeration._unicyclic_level")

SHAPES = ("tree", "unicyclic", "general")
RULES = ("PendantCluster", "ReductionOperation", "DeletePendantP3", "EdgeSplit",
         "ContractInternalP5", "ContractLineP4", "StarLikeZero",
         "DoubleStarLikeZero", "CycleClosedForm", "ExactRankFallback")

ERROR, STEP = 1, 2
# Per-layer metrics that are ratios of times, so vary from run to run.
TIME_RATIOS = ("reduction.fast_over_exact",)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "enumeration.trees.self_s": "s",
        "enumeration.trees.yielded": "count",
        "enumeration.unicyclic.self_s": "s",
        "enumeration.unicyclic.yielded": "count",
        "enumeration.unicyclic.canon_calls": "count",
        "enumeration.unicyclic.canon_per_class": "ratio",
        "enumeration.filter.examined": "count",
        "enumeration.filter.kept": "count",
        "enumeration.filter.kept_ratio": "ratio",
    }
    for shape in SHAPES:
        units[f"canon.form.calls.{shape}"] = "count"
    for shape in SHAPES:
        units[f"canon.form.self_s.{shape}"] = "s"
    units.update({
        "canon.orbit_key.calls": "count",
        "canon.orbit_key.self_s": "s",
        "linalg.char_poly.calls": "count",
        "linalg.char_poly.self_s": "s",
        "linalg.char_poly.work_k4": "count",
        "linalg.root_mult.self_s": "s",
        "linalg.rank.calls": "count",
        "linalg.rank.self_s": "s",
        "linalg.rank.work_k3": "count",
        "reduction.fast.calls": "count",
        "reduction.fast.self_s": "s",
    })
    for rule in RULES:
        units[f"reduction.rule.{rule}"] = "count"
    units.update({
        "reduction.fallback.order_sum": "vertices",
        "reduction.fallback.order_max": "vertices",
        "reduction.fast_route_s": "s",
        "reduction.exact_route_s": "s",
        "reduction.fast_over_exact": "ratio",
        "graph6.parse.calls": "count",
        "graph6.parse.self_s": "s",
        "graph6.encode.calls": "count",
        "graph6.encode.self_s": "s",
        "graphs.pendant_profile.calls": "count",
        "graphs.pendant_profile.self_s": "s",
        "graphs.find_pendant_paths.calls": "count",
        "graphs.find_pendant_paths.self_s": "s",
        "verify.self_s": "s",
        "verify.graphs_checked": "count",
        "verify.violations": "count",
        "cli.self_s": "s",
        "extremal.calls": "count",
        "extremal.self_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["failed_ratio"] = "ratio"
    return units


def _shape(g) -> int:
    """Index into SHAPES of the hardest component of g: a component with
    more edges than vertices makes it general."""
    worst = 0
    for comp in g.components():
        extra = sum(g.degree(v) for v in comp) // 2 - len(comp)
        worst = max(worst, 0 if extra < 0 else 1 if extra == 0 else 2)
    return worst


def _graph6_order(s: str) -> int:
    first = ord(s[0]) - 63
    if first < 63:
        return first
    return ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)


class Tracer:
    """Spans and counters of one traced session."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.func = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.rid = array("i")
        self.flags = array("b")
        self.shape = array("b")
        self.stack = [-1]
        self.request = 0
        self.counters: Counter = Counter()
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, k: int, flags: int = 0) -> int:
        i = len(self.func)
        self.func.append(k)
        self.parent.append(self.stack[-1])
        self.rid.append(self.request)
        self.flags.append(flags)
        self.shape.append(-1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _steps(self, gen, k: int, key: str | None):
        """Re-yields gen, recording each step as a span of function k."""
        while True:
            i = self._open(k, STEP)
            try:
                item = next(gen)
            except StopIteration:
                self._close(i)
                return
            except BaseException:
                self.flags[i] |= ERROR
                self._close(i)
                raise
            self._close(i)
            if key is not None:
                self.counters[f"{key}.yielded"] += 1
            yield item

    def _counted(self, stream):
        for item in stream:
            self.counters["enumeration.filter.examined"] += 1
            yield item

    def _wrap(self, name: str, fn):
        k = len(self.names)
        self.names.append(name)
        key = KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "enumeration.filter_class":
                args = (tracer._counted(args[0]),) + args[1:]
            i = tracer._open(k)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.flags[i] |= ERROR
                raise
            finally:
                tracer._close(i)
            tracer._after(name, i, args, result)
            if isinstance(result, types.GeneratorType):
                return tracer._steps(result, k, key)
            return result

        return traced

    def _after(self, name: str, i: int, args, result) -> None:
        c = self.counters
        if name == "canon.canonical_form":
            self.shape[i] = _shape(args[0])
        elif name == "linalg.rank":
            m = args[0]
            c["linalg.rank.work_k3"] += m.rows * m.cols * min(m.rows, m.cols)
        elif name == "linalg.char_poly":
            c["linalg.char_poly.work_k4"] += args[0].rows ** 4
        elif name == "reduction.multiplicity_fast":
            for step in result[1].steps:
                c[f"reduction.rule.{step.rule}"] += 1
                if step.rule == "ExactRankFallback":
                    order = _graph6_order(step.before)
                    c["reduction.fallback.order_sum"] += order
                    c["reduction.fallback.order_max"] = max(
                        c["reduction.fallback.order_max"], order)
        elif name == "verify.run_suite":
            c["verify.graphs_checked"] += sum(r.graphs_checked for r in result)
            c["verify.violations"] += sum(len(r.violations) for r in result)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wraps the functions of LAYERS at every lap1 module binding."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"lap1.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                public = (inspect.isfunction(obj) and not attr.startswith("_")
                          and obj.__module__ == module.__name__)
                if public or name in PRIVATE:
                    wrapped[id(obj)] = self._wrap(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "lap1" and not modname.startswith("lap1."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        own_key = [KEYS.get(n) for n in names]
        n_spans = len(self.func)
        func, parent, flags, shape = self.func, self.parent, self.flags, self.shape
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n_spans
        for i in range(n_spans):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]

        key: list[str] = [""] * n_spans
        form_shape = [-1] * n_spans
        enum_ctx: list[str | None] = [None] * n_spans
        in_fast = [False] * n_spans
        self_ns: Counter = Counter()
        entries: Counter = Counter()
        errors: Counter = Counter()
        fast_route = exact_route = 0
        for i in range(n_spans):
            f, p = func[i], parent[i]
            layer = layer_of[f]
            same = p >= 0 and layer_of[func[p]] == layer
            key[i] = own_key[f] or (key[p] if same else layer)
            if key[i] == "canon.form":
                form_shape[i] = shape[i] if shape[i] >= 0 else form_shape[p]
            enum_ctx[i] = key[i] if layer == "enumeration" else (
                enum_ctx[p] if p >= 0 else None)
            in_fast[i] = key[i] == "reduction.fast" or (p >= 0 and in_fast[p])
            metric = key[i]
            if metric == "canon.form":
                metric = f"canon.form.{SHAPES[form_shape[i]]}"
            self_ns[metric] += dur[i] - child[i]
            entering = p < 0 or key[p] != key[i]
            if entering and not flags[i] & STEP:
                entries[metric] += 1
                if metric.startswith("canon.form.") and enum_ctx[i] == "enumeration.unicyclic":
                    entries["unicyclic.canon"] += 1
                if key[i] == "reduction.fast":
                    fast_route += dur[i]
            if names[f] == "linalg.laplacian_multiplicity_one" and not (
                    p >= 0 and in_fast[p]):
                exact_route += dur[i]
            if flags[i] & ERROR and not same:
                errors[layer] += 1

        c = self.counters
        out: dict[str, float] = {}
        s = 1e-9
        for metric in ("enumeration.trees", "enumeration.unicyclic"):
            out[f"{metric}.self_s"] = self_ns[metric] * s
            out[f"{metric}.yielded"] = c[f"{metric}.yielded"]
        yielded = c["enumeration.unicyclic.yielded"]
        out["enumeration.unicyclic.canon_calls"] = entries["unicyclic.canon"]
        out["enumeration.unicyclic.canon_per_class"] = (
            entries["unicyclic.canon"] / yielded if yielded else 0.0)
        examined = c["enumeration.filter.examined"]
        kept = c["enumeration.filter.yielded"]
        out["enumeration.filter.examined"] = examined
        out["enumeration.filter.kept"] = kept
        out["enumeration.filter.kept_ratio"] = kept / examined if examined else 0.0
        for shape_name in SHAPES:
            out[f"canon.form.calls.{shape_name}"] = entries[f"canon.form.{shape_name}"]
        for shape_name in SHAPES:
            out[f"canon.form.self_s.{shape_name}"] = self_ns[f"canon.form.{shape_name}"] * s
        for metric in ("canon.orbit_key", "linalg.char_poly", "linalg.rank",
                       "reduction.fast", "graph6.parse", "graph6.encode",
                       "graphs.pendant_profile", "graphs.find_pendant_paths",
                       "extremal"):
            out[f"{metric}.calls"] = entries[metric]
            out[f"{metric}.self_s"] = self_ns[metric] * s
        out["linalg.char_poly.work_k4"] = c["linalg.char_poly.work_k4"]
        out["linalg.root_mult.self_s"] = self_ns["linalg.root_mult"] * s
        out["linalg.rank.work_k3"] = c["linalg.rank.work_k3"]
        for rule in RULES:
            out[f"reduction.rule.{rule}"] = c[f"reduction.rule.{rule}"]
        out["reduction.fallback.order_sum"] = c["reduction.fallback.order_sum"]
        out["reduction.fallback.order_max"] = c["reduction.fallback.order_max"]
        out["reduction.fast_route_s"] = fast_route * s
        out["reduction.exact_route_s"] = exact_route * s
        out["reduction.fast_over_exact"] = (
            fast_route / exact_route if exact_route else 0.0)
        out["verify.self_s"] = self_ns["verify"] * s
        out["verify.graphs_checked"] = c["verify.graphs_checked"]
        out["verify.violations"] = c["verify.violations"]
        out["cli.self_s"] = self_ns["cli"] * s
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        out["trace.spans"] = n_spans
        return out
