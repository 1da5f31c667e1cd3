"""Span tracing of qcluster's public calls, installed from outside the package.

The tracer replaces each traced function or method with a wrapper that
records one span per call: its name, its parent span, and its start and end
on the monotonic nanosecond clock.  Spans stay in memory, in flat arrays,
until the run ends; ``write_spans`` then saves them and ``self_times`` turns
them into per-name self time.  ``Budget.tick`` gets a counting wrapper
without spans, so budget work is summed over every ``Budget`` instance.

A function is often bound under several names (``from .ccmap import
cc_map`` in four modules, ``__rmul__ = __mul__`` in a class body).
``install`` replaces every binding that it can find in the package's module
globals, class dictionaries and module-level dicts, and
``stale_bindings`` reports any that are left.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

LAYERS = ("scalars", "torus", "quiver", "modp", "rep", "hall", "families",
          "catalog", "ccmap", "seeds", "harness", "cli")

# metric name -> (module, attribute path) of each traced call
SPANS = {
    "scalars.spec_mul": [("scalars", "SpecScalar.__mul__"),
                         ("scalars", "SpecScalar.__rmul__")],
    "scalars.qpow": [("scalars", "SpecializedMode.qpow"),
                     ("scalars", "FormalMode.qpow")],
    "scalars.formal_mul": [("scalars", "FormalScalar.__mul__"),
                           ("scalars", "FormalScalar.__rmul__")],
    "scalars.exact_div": [("scalars", "FormalScalar.exact_div"),
                          ("scalars", "SpecScalar.exact_div")],
    "torus.mul": [("torus", "ToricElement.__mul__")],
    "torus.div_right": [("torus", "div_right")],
    "torus.render": [("torus", "ToricElement.render")],
    "quiver.solve_lambda": [("quiver", "solve_lambda")],
    "modp.rref": [("modp", "rref")],
    "rep.hom_basis": [("rep", "hom_basis")],
    "rep.iso_test": [("rep", "iso_test")],
    "rep.submodules": [("rep", "submodules")],
    "rep.aut_count": [("rep", "aut_count")],
    "rep.is_indecomposable": [("rep", "is_indecomposable")],
    "rep.tau": [("rep", "tau")],
    "hall.iso_classes": [("hall", "ClassStore.iso_classes")],
    "hall.filtration_count": [("hall", "ClassStore.filtration_count")],
    "hall.ext_count": [("hall", "ClassStore.ext_count")],
    "catalog.store_for": [("catalog", "store_for")],
    "catalog.homogeneous_points": [("catalog", "homogeneous_points")],
    "catalog.find_rigid_module": [("catalog", "find_rigid_module")],
    "ccmap.cc_map": [("ccmap", "cc_map")],
    "ccmap.cc_map_formal": [("ccmap", "cc_map_formal")],
    "families.grassmannian_poly": [("families", "grassmannian_poly")],
    "seeds.standard_monomial": [("seeds", "standard_monomial")],
    "seeds.mutate": [("seeds", "QuantumSeed.mutate")],
    "harness.expand_in_standard_monomials": [("harness", "expand_in_standard_monomials")],
    "cli.main": [("cli", "main")],
}

BUDGET_KINDS = ("subspace_tuples", "matrix_tuples", "hom_elements")


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = {
            "torus.mul.term_pairs": 0,
            "rep.iso_test.true": 0,
            "hall.iso_classes.cold": 0,
            "hall.iso_classes.classes": 0,
        }
        for kind in BUDGET_KINDS:
            self.counters["modp.budget." + kind] = 0
        self.stores: dict[int, object] = {}
        self.wrapped: dict[int, object] = {}   # id(original) -> wrapper

    # -- recording ------------------------------------------------------

    def span_wrapper(self, name, fn, pre=None, post=None):
        """A wrapper of ``fn`` that records one span named ``name`` per call.

        ``pre(args)`` runs before the call and its value is handed to
        ``post(args, result, state)``, which runs after a normal return.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            state = pre(args) if pre is not None else None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(args, result, state)
            return result

        return wrapper

    # -- hooks for the derived counters ---------------------------------

    def _hooks(self, name, package):
        counters = self.counters
        if name == "torus.mul":
            element = package.torus.ToricElement

            def pre(args):
                a, b = args[0], args[1]
                if isinstance(b, element):
                    counters["torus.mul.term_pairs"] += len(a.terms) * len(b.terms)
            return pre, None
        if name == "rep.iso_test":
            def post(args, result, state):
                if result:
                    counters["rep.iso_test.true"] += 1
            return None, post
        if name == "hall.iso_classes":
            # a call enumerated exactly when it ticked the matrix-tuple budget
            def pre(args):
                return counters["modp.budget.matrix_tuples"]

            def post(args, result, before):
                if counters["modp.budget.matrix_tuples"] > before:
                    counters["hall.iso_classes.cold"] += 1
                    counters["hall.iso_classes.classes"] += len(result)
            return pre, post
        if name == "catalog.store_for":
            def post(args, result, state):
                self.stores[id(result)] = result
            return None, post
        return None, None

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap every traced call of ``package`` (the imported ``qcluster``
        with all twelve layer modules loaded) and rebind every alias."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        for name, targets in SPANS.items():
            pre, post = self._hooks(name, package)
            for module_name, path in targets:
                owner = modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = vars(owner)[attr]
                if id(fn) not in self.wrapped:   # else an alias in the same class body
                    self.wrapped[id(fn)] = self.span_wrapper(name, fn, pre, post)
        self._wrap_tick(modules["modp"].Budget)
        for _where, value, rebind in _bindings(package.__name__):
            if id(value) in self.wrapped:
                rebind(self.wrapped[id(value)])

    def _wrap_tick(self, budget_cls):
        tick = budget_cls.__dict__["tick"]
        counters = self.counters
        keys = {kind: "modp.budget." + kind for kind in BUDGET_KINDS}

        @functools.wraps(tick)
        def counting_tick(budget, key, amount=1):
            counters[keys[key]] += amount
            return tick(budget, key, amount)

        self.wrapped[id(tick)] = counting_tick

    def stale_bindings(self, package):
        """Names under which an original traced function is still reachable."""
        return [where for where, value, _rebind in _bindings(package.__name__)
                if id(value) in self.wrapped]

    # -- results --------------------------------------------------------

    def write_spans(self, path):
        """Save the spans: a JSON header line, then the four int64 arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name", "parent", "start_ns", "end_ns"],
                  "typecode": "q"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)

    def metrics(self):
        """Counts and self times by metric name (times in seconds)."""
        totals = self_times(self.names, self.name_of, self.parent, self.start, self.end)
        calls = {name: 0 for name in self.names}
        for nid in self.name_of:
            calls[self.names[nid]] += 1
        out = {}
        for name in SPANS:
            out[name + ".calls"] = calls.get(name, 0)
            out[name + ".self_s"] = totals.get(name, 0) / 1e9
        for layer in LAYERS:
            out["layer.%s.self_s" % layer] = sum(
                v for k, v in totals.items() if k.split(".")[0] == layer) / 1e9
        out.update(self.counters)
        hits = out.pop("rep.iso_test.true")
        out["rep.iso_test.hit_frac"] = hits / out["rep.iso_test.calls"] if hits else 0.0
        out["catalog.stores"] = len(self.stores)
        return out


def read_spans(path):
    """Inverse of ``Tracer.write_spans``: (names, name_of, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _ in header["arrays"]:
            arr = array(header["typecode"])
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header["names"], *arrays)


def self_times(names, name_of, parent, start, end):
    """Total self time per span name, in the clock's units.

    A span's self time is its duration minus the durations of its direct
    children.  In one thread the children of a span run one after another
    inside it, so that difference is the part of the span no child covers.
    Raises ValueError on a span that ends before it starts or whose
    children outlast it.
    """
    n = len(start)
    own = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        if own[i] < 0:
            raise ValueError("span %d ends before it starts" % i)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            if not (start[p] <= start[i] and end[i] <= end[p]):
                raise ValueError("span %d lies outside its parent %d" % (i, p))
            own[p] -= end[i] - start[i]
    totals: dict[str, int] = {}
    for i in range(n):
        if own[i] < 0:
            raise ValueError("children of span %d outlast it" % i)
        key = names[name_of[i]]
        totals[key] = totals.get(key, 0) + own[i]
    return totals


def _bindings(prefix):
    """Every (description, value, rebind) reachable from the package's
    module globals: module attributes, class attributes, and values of
    module-level dicts."""
    out = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            out.append(("%s.%s" % (mod_name, attr), value,
                        lambda new, m=module, a=attr: setattr(m, a, new)))
            if isinstance(value, type) and value.__module__.startswith(prefix):
                for cattr, cvalue in list(vars(value).items()):
                    out.append(("%s.%s.%s" % (mod_name, attr, cattr), cvalue,
                                lambda new, c=value, a=cattr: setattr(c, a, new)))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    out.append(("%s.%s[%r]" % (mod_name, attr, key), item,
                                lambda new, d=value, k=key: d.__setitem__(k, new)))
    return out
