"""Per-layer instrumentation of gtkit for the traced benchmark run.

The layers are gtkit's modules.  `Tracer.install` wraps every public
function of each layer module and every public method (plus construction,
products, powers and hashing) of the classes the module defines, and
rebinds the names other gtkit modules imported with ``from ... import``, so
each call into a layer is timed from outside the library.  Nothing inside
gtkit changes.

Every wrapped callable keeps an exact call count and its self time: the
time between entry and exit minus the time covered by wrapped calls it made.
Primitives (the ``word`` layer's Word/Generator methods and the factor
element arithmetic under amalgam normal forms, millions of calls per run)
keep only those aggregates.  Every other call also records one span --
name, start, end and the nearest enclosing span -- held in flat arrays and
written out by `Tracer.write_spans` once the run ends.

A few callables carry a post-call hook that reads its arguments or result
for a named count (automaton states folded, letters traced, ball elements,
search nodes, suite trials).  Hooks only read attributes, so they never
re-enter a wrapped callable.
"""

from __future__ import annotations

import array
import importlib
import json
import time
import types

LAYERS = ("word", "stallings", "amalgam", "tamed", "gentorsion", "magnus",
          "casestudy", "suites", "cli")

# Primitives recorded as aggregates only, with no span object per call: the
# word layer, and the per-factor element arithmetic under amalgam normal
# forms (hundreds of thousands of calls per block).
AGGREGATE_LAYERS = frozenset({"word"})
AGGREGATE_CLASSES = frozenset({"FreeFactor", "AbelianFactor"})
AGGREGATE_NAMES = frozenset({"amalgam:AmalgamElement.__init__", "amalgam:Amalgam.factor_index"})

# Dunder methods wrapped besides the public ones.
DUNDERS = frozenset({"__init__", "__mul__", "__pow__", "__hash__", "__invert__"})

MAX_SPANS = 2_000_000


class Tracer:
    """Call counts, self times, spans and named counts for one traced run."""

    def __init__(self):
        self.names: list = []       # id -> "layer:Qualified.name"
        self.layer_of: list = []    # id -> layer
        self.calls: list = []
        self.self_s: list = []
        self.counts: dict = {}      # named counts filled by hooks
        self.fold_keys: set = set()
        self.on = False
        self._child = [0.0]         # child-time accumulators, root first
        self._span_stack = [-1]
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.spans_dropped = 0
        self._patches: list = []    # (owner, attribute, original value)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the public surface of every layer module; idempotent per run."""
        modules = {layer: importlib.import_module(f"gtkit.{layer}") for layer in LAYERS}
        wrapped: dict = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._patch(mod, attr, self._wrapper(obj, layer, attr, wrapped))
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._install_class(obj, layer, wrapped)
        # rebind names imported into other modules with `from ... import`
        for mod in list(modules.values()) + [importlib.import_module("gtkit")]:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and w is not obj:
                    self._patch(mod, attr, w)

    def _install_class(self, cls: type, layer: str, wrapped: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrapper(obj, layer, label, wrapped))
            elif isinstance(obj, (staticmethod, classmethod)):
                inner = self._wrapper(obj.__func__, layer, label, wrapped)
                self._patch(cls, attr, type(obj)(inner))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------------

    def _wrapper(self, fn, layer: str, label: str, wrapped: dict):
        if id(fn) in wrapped:  # aliases such as __invert__ = inverse
            return wrapped[id(fn)]
        idx = len(self.names)
        self.names.append(f"{layer}:{label}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = _HOOKS.get(f"{layer}:{label}")
        if (layer in AGGREGATE_LAYERS or label.split(".")[0] in AGGREGATE_CLASSES
                or f"{layer}:{label}" in AGGREGATE_NAMES):
            w = self._aggregate_wrapper(fn, idx)
        else:
            w = self._span_wrapper(fn, idx, hook)
        w.__name__ = getattr(fn, "__name__", label)
        w.__qualname__ = getattr(fn, "__qualname__", label)
        w.__doc__ = fn.__doc__
        w.__wrapped__ = fn
        wrapped[id(fn)] = w
        return w

    def _aggregate_wrapper(self, fn, idx: int):
        tracer = self
        calls, self_s, child = self.calls, self.self_s, self._child
        perf = time.perf_counter

        def aggregate(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                calls[idx] += 1
                self_s[idx] += dt - child.pop()
                child[-1] += dt

        return aggregate

    def _span_wrapper(self, fn, idx: int, hook):
        tracer = self
        calls, self_s, child = self.calls, self.self_s, self._child
        stack = self._span_stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        perf = time.perf_counter

        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            sid = len(names)
            if sid < MAX_SPANS:
                names.append(idx)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
            else:
                tracer.spans_dropped += 1
                sid = -1
            stack.append(sid)
            child.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                calls[idx] += 1
                self_s[idx] += dt - child.pop()
                child[-1] += dt
                stack.pop()
                if sid >= 0:
                    starts[sid] = t0
                    ends[sid] = t1
            if hook is not None:
                hook(tracer, args, result)
                child[-1] += perf() - t1  # bookkeeping is nobody's self time
            return result

        return span

    # -- results ------------------------------------------------------------------

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def totals(self) -> dict:
        """Per wrapped name: [calls, self seconds]; only names that were called."""
        return {
            name: [c, s] for name, c, s in zip(self.names, self.calls, self.self_s) if c
        }

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for layer, s in zip(self.layer_of, self.self_s):
            out[layer] += s
        return out

    def layer_calls(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for layer, c in zip(self.layer_of, self.calls):
            out[layer] += c
        return out

    def write_spans(self, stem: str) -> None:
        """Write spans as flat binary arrays plus a JSON index of names."""
        with open(stem + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({
                "format": "int32 name[n], int32 parent[n] (-1 = op root), "
                          "float64 start[n], float64 end[n] (perf_counter s)",
                "n": len(self.span_name),
                "dropped": self.spans_dropped,
                "names": self.names,
            }, fh)


# ---------------------------------------------------------------------------
# Post-call hooks for named counts
# ---------------------------------------------------------------------------

def _fold_hook(tracer, args, _result):
    aut = args[0]
    tracer.count("fold_states", len(aut.delta))
    key = tuple(tuple((g.name, g.index, e) for g, e in w.syls) for w in aut.generators)
    tracer.fold_keys.add(key)


def _trace_hook(tracer, args, _result):
    tracer.count("trace_letters", sum(abs(e) for _, e in args[1].syls))


def _ball_hook(tracer, _args, result):
    if isinstance(result, tuple):       # nss_ball_free -> (set, capped)
        result = result[0]
    elements = getattr(result, "elements", result)
    tracer.count("ball_elements", len(elements))


def _report_hook(tracer, _args, report):
    tracer.count("searches")
    tracer.count("searches_decided", 0 if report.capped else 1)
    tracer.count("search_nodes", report.params.get("nodes", 0))


def _search_gt_hook(tracer, _args, result):
    tracer.count("searches")
    tracer.count("searches_decided", 0 if result.capped else 1)
    tracer.count("search_nodes", result.nodes)


def _suite_hook(tracer, _args, report):
    tracer.count("suite_trials", report.trials)
    tracer.count("suite_skips", report.skips)


_HOOKS = {
    "stallings:SubgroupAutomaton.__init__": _fold_hook,
    "stallings:SubgroupAutomaton.trace": _trace_hook,
    "gentorsion:free_ball": _ball_hook,
    "gentorsion:amalgam_conjugator_ball": _ball_hook,
    "gentorsion:nss_ball": _ball_hook,
    "gentorsion:nss_ball_free": _ball_hook,
    "gentorsion:subgroup_product_ball": _ball_hook,
    "gentorsion:check_rtf": _report_hook,
    "gentorsion:check_multimalnormal": _report_hook,
    "gentorsion:check_nss_intersection": _report_hook,
    "gentorsion:check_family": _report_hook,
    "gentorsion:search_gt": _search_gt_hook,
    "suites:run_suite": _suite_hook,
}
