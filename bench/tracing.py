"""Times bellkit's layers from outside, by wrapping their public functions and
classes in every bellkit namespace that holds them.

Every wrapped call is counted.  A call that enters a layer from another layer
(or from the benchmark) opens a span: name, start, end and parent span, with
start and end on the process's CPU clock (reference.clock).  Calls
a layer makes to its own public names are counted but not spanned; they lie
inside the span that entered the layer, and spanning them would record
millions of spans per run.  The lhvt stages named in STAGES are always spanned,
so their time can be told apart.  Spans live in flat arrays and are written at
exit; self time is derived from them as a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter

import numpy as np

from oracle import strategy_count
from reference import clock

LAYERS = ("tensor", "polarization", "spin", "experiments", "lhvt", "cli")

# Private names wrapped as well: every bound in lhvt goes through _extremize.
EXTRA = {"lhvt": ("_extremize",)}

# Stage spans whose self time is reported as its own per-layer metric.
STAGES = {
    "lhvt.enumerate_strategies": "enumerate",
    "lhvt._extremize": "extremize",
    "lhvt.exact_mixture_correlations": "mixture",
    "lhvt.exact_marginal_mean": "mixture",
    "lhvt.monte_carlo_mixture": "sample",
}

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.layer_stack = ["bench"]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.ops = 0
        self._seen_specs: set = set()
        self._root = self._name_id(ROOT_SPAN, "bench")
        self._hooks = {
            "lhvt.enumerate_strategies": self._on_enumerate,
            "lhvt._extremize": self._on_extremize,
            "lhvt.monte_carlo_mixture": self._on_monte_carlo,
            "experiments.OutcomeDistribution": self._count("distributions"),
            "tensor.StateVector": self._count("tensor_objects"),
            "tensor.MatrixOperator": self._count("tensor_objects"),
        }

    # --- wrapping -----------------------------------------------------------

    def install(self, package: str = "bellkit") -> None:
        """Wrap every layer's public functions and classes, in place."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException) and "__init__" in vars(obj):
                        obj.__init__ = self._wrap(layer, name, obj.__init__)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj)
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                setattr(other, key, wrapped)

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer: str, name: str, fn):
        nid = self._name_id(name, layer)
        always = name in STAGES
        hook = self._hooks.get(name)
        calls, layer_stack = self.calls, self.layer_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if layer_stack[-1] == layer and not always:
                result = fn(*args, **kwargs)
            else:
                i = self._open(nid, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _open(self, nid: int, layer: str) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(i)
        self.layer_stack.append(layer)
        self.span_start.append(clock())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = clock()
        self.stack.pop()
        self.layer_stack.pop()

    # --- counters -----------------------------------------------------------

    def _count(self, key: str):
        def hook(args, kwargs, result):
            self.counts[key] += 1

        return hook

    def _on_enumerate(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        self.counts["strategies"] += len(result)
        self.counts["enumerations"] += 1
        if spec in self._seen_specs:
            self.counts["repeat_enumerations"] += 1
        self._seen_specs.add(spec)

    def _on_extremize(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        self.counts["cells_scored"] += strategy_count(spec) * len(spec.runs)

    def _on_monte_carlo(self, args, kwargs, result):
        self.counts["mc_trials"] += args[2] if len(args) > 2 else kwargs["trials"]

    # --- operations ---------------------------------------------------------

    def begin_op(self) -> int:
        self._seen_specs.clear()
        self.ops += 1
        return self._open(self._root, "bench")

    def end_op(self, i: int) -> None:
        self._close(i)

    def reset(self) -> None:
        """Forget everything recorded so far (used after warm-up)."""
        for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del arr[:]
        self.calls.clear()
        self.counts.clear()
        self.ops = 0

    # --- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.intc).copy(),
            "start": np.frombuffer(self.span_start, dtype=float).copy(),
            "end": np.frombuffer(self.span_end, dtype=float).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.intc).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Total self time per layer and per stage, and total time inside
        spans that entered each layer (children included)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        own = dur - covered
        by_name = np.bincount(a["name"], weights=own, minlength=len(self.names))
        layer_of = np.array(self.name_layer)
        entry = np.ones(dur.size, dtype=bool)
        entry[child] = layer_of[a["name"][child]] != layer_of[a["name"][a["parent"][child]]]
        inclusive_by_name = np.bincount(
            a["name"][entry], weights=dur[entry], minlength=len(self.names)
        )
        layer_self, stage_self, layer_inclusive = Counter(), Counter(), Counter()
        for nid, name in enumerate(self.names):
            layer_self[self.name_layer[nid]] += float(by_name[nid])
            layer_inclusive[self.name_layer[nid]] += float(inclusive_by_name[nid])
            if name in STAGES:
                stage_self[STAGES[name]] += float(by_name[nid])
        return dict(layer_self), dict(stage_self), dict(layer_inclusive)

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics, each per measured operation; times are multiplied
        by scale (the run's factor to reference speed)."""
        ops = max(self.ops, 1)
        layer_self, stage_self, inclusive = self.self_times()
        layer_self = {k: v * scale for k, v in layer_self.items()}
        stage_self = {k: v * scale for k, v in stage_self.items()}
        inclusive = {k: v * scale for k, v in inclusive.items()}
        c = self.counts
        distributions = c["distributions"]
        enumerations = c["enumerations"]
        out = {
            "tensor.calls": self.calls["tensor"] / ops,
            "tensor.objects_built": c["tensor_objects"] / ops,
            "tensor.self_s": layer_self.get("tensor", 0.0) / ops,
            "experiments.distributions": distributions / ops,
            "experiments.self_s": layer_self.get("experiments", 0.0) / ops,
            "experiments.us_per_distribution": (
                1e6 * inclusive.get("experiments", 0.0) / distributions if distributions else 0.0
            ),
            "lhvt.strategies": c["strategies"] / ops,
            "lhvt.cells_scored": c["cells_scored"] / ops,
            "lhvt.self_s": layer_self.get("lhvt", 0.0) / ops,
            "lhvt.enumerate_s": stage_self.get("enumerate", 0.0) / ops,
            "lhvt.extremize_s": stage_self.get("extremize", 0.0) / ops,
            "lhvt.mixture_s": stage_self.get("mixture", 0.0) / ops,
            "lhvt.repeat_enumerations": (
                c["repeat_enumerations"] / enumerations if enumerations else 0.0
            ),
            "lhvt.mc_trials": c["mc_trials"] / ops,
            "lhvt.sample_s": stage_self.get("sample", 0.0) / ops,
            "spin.calls": self.calls["spin"] / ops,
            "spin.self_s": layer_self.get("spin", 0.0) / ops,
            "polarization.calls": self.calls["polarization"] / ops,
            "polarization.self_s": layer_self.get("polarization", 0.0) / ops,
            "cli.self_s": layer_self.get("cli", 0.0) / ops,
        }
        return out
