"""Spans and counters recorded from outside the program.

`Tracer.install()` wraps the public functions at each layer boundary of
`gbsyz`: the module attribute and every name a `from ... import` bound to
the same function in another module (for example `gbsyz.cli.divide` and
`gbsyz.syzygy.divide`). Timed wrappers record a span (name, start, end,
parent span, op id) in flat arrays; the hot per-term methods get
count-only wrappers. `uninstall()` restores every original.

A layer's self time is the duration of its spans minus the part their
child spans cover, so the self times of all layers add up to the root
(`cli.main`) span durations.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

# (module, qualified name, span name) of the timed layer boundaries that
# the five commands reach. The span name's prefix is the layer.
# `_buchberger_level0` and `_pseudo_reduce_labeled` are private, but `cli`
# calls them directly.
TIMED = (
    ("cli", "main", "cli.main"),
    ("dsl", "parse_problem", "dsl.parse_problem"),
    ("dsl", "parse_vector_literal", "dsl.parse_vector_literal"),
    ("dsl", "order_from_names", "dsl.order_from_names"),
    ("dsl", "format_vector", "dsl.format_vector"),
    ("dsl", "format_lt_module", "dsl.format_lt_module"),
    ("dsl", "format_poly", "dsl.format_poly"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "divide", "groebner.divide"),
    ("groebner", "divide_valuation", "groebner.divide_valuation"),
    ("groebner", "s_pair_indexed", "groebner.s_pair_indexed"),
    ("groebner", "is_groebner", "groebner.is_groebner"),
    ("groebner", "pseudo_reduce", "groebner.pseudo_reduce"),
    ("groebner", "module_member", "groebner.module_member"),
    ("syzygy", "free_resolution", "syzygy.free_resolution"),
    ("syzygy", "schreyer_syzygies", "syzygy.schreyer_syzygies"),
    ("syzygy", "verify_resolution", "syzygy.verify_resolution"),
    ("syzygy", "apply_relation", "syzygy.apply_relation"),
    ("syzygy", "_buchberger_level0", "syzygy.buchberger_level0"),
    ("syzygy", "_pseudo_reduce_labeled", "syzygy.pseudo_reduce_labeled"),
    ("poly", "Vector.add", "poly.Vector.add"),
    ("poly", "Vector.sub", "poly.Vector.sub"),
    ("poly", "Vector.neg", "poly.Vector.neg"),
    ("poly", "Vector.scale", "poly.Vector.scale"),
    ("poly", "Vector.term_mul", "poly.Vector.term_mul"),
    ("poly", "Vector.mul", "poly.Vector.mul"),
    ("poly", "reorder", "poly.reorder"),
    ("poly", "sort_basis", "poly.sort_basis"),
)
TIMED_RING_METHODS = ("gcd_bezout",)
COUNTED = (
    ("poly", "TopLex.compare", "poly.toplex_compare"),
    ("poly", "Schreyer.compare", "poly.schreyer_compare"),
    ("poly", "mono_divides", "poly.mono_divides"),
)
COUNTED_RING_METHODS = ("mul", "divides", "euclid_step")
RING_CLASSES = ("Integers", "IntegersMod", "TruncatedF2y", "IntegersLocalizedAt")
LAYERS = ("cli", "dsl", "groebner", "syzygy", "poly", "rings")
_INHERITED = object()


class Tracer:
    """In-memory span store plus call counters for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.op = -1
        self.counts = {}
        self.events = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def timed(self, name, fn, on_exit=None):
        nid = self.name_id(name)
        cell = self.counts.setdefault(name, [0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1])
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            cell[0] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, n=1):
        self.counts.setdefault(name, [0])[0] += n

    def sink(self, event):
        """A `trace=` callback: counts the program's own trace events by kind."""
        kind = event.get("event")
        self.events[kind] = self.events.get(kind, 0) + 1

    def parent_name(self):
        idx = self._stack[-1]
        return self.names[self.span_name[idx]] if idx >= 0 else None

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the layer boundaries of the imported `gbsyz` package."""
        import gbsyz
        from gbsyz import cli, dsl, groebner, poly, rings, syzygy

        modules = {"cli": cli, "dsl": dsl, "groebner": groebner, "poly": poly,
                   "rings": rings, "syzygy": syzygy}
        every = [gbsyz] + list(modules.values())
        hooks = self._hooks()
        for mod, qual, name in TIMED:
            self._replace(modules[mod], qual, every,
                          lambda fn, name=name: self.timed(name, fn, hooks.get(name)))
        for mod, qual, name in COUNTED:
            self._replace(modules[mod], qual, every, lambda fn, name=name: self.counted(name, fn))
        for cls_name in RING_CLASSES:
            cls = getattr(rings, cls_name)
            for meth in TIMED_RING_METHODS:
                self._replace_attr(cls, meth, self.timed(f"rings.{meth}", getattr(cls, meth)))
            for meth in COUNTED_RING_METHODS:
                self._replace_attr(cls, meth, self.counted(f"rings.{meth}", getattr(cls, meth)))
        for meth in ("divide", "divide_valuation"):
            self._inject_sink(groebner, meth, every)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _replace_attr(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _replace(self, module, qual, every, make):
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            self._replace_attr(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(module, qual)
        self._rebind(original, make(original), every)

    def _rebind(self, original, replacement, every):
        """Replace every module-level binding of `original`: the defining
        module's and each copy a `from ... import` made."""
        for mod in every:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace_attr(mod, attr, replacement)

    def _inject_sink(self, module, qual, every):
        """Hand the counting sink to division calls made without one, so
        `reduction_step` events come from the program's own trace stream."""
        current = getattr(module, qual)

        def with_sink(*args, **kwargs):
            if len(args) < 4 and kwargs.get("trace") is None:
                kwargs["trace"] = self.sink
            return current(*args, **kwargs)

        with_sink.__wrapped__ = current
        self._rebind(current, with_sink, every)

    def _hooks(self):
        def buchberger_done(args, kwargs, gb):
            gens = args[0] if args else kwargs["gens"]
            self.count("groebner.buchberger_added", len(gb.elements) - len(list(gens)))

        def spair_done(args, kwargs, sp):
            self.count(f"groebner.spairs_{sp.kind}")

        def divide_done(args, kwargs, res):
            if self.parent_name() == "groebner.buchberger":
                self.count("groebner.buchberger_spolys")

        def resolution_done(args, kwargs, res):
            self.count("syzygy.levels", len(res.levels))
            self.count("syzygy.rank_sum", sum(len(level.basis) for level in res.levels))

        return {
            "groebner.buchberger": buchberger_done,
            "groebner.s_pair_indexed": spair_done,
            "groebner.divide": divide_done,
            "syzygy.free_resolution": resolution_done,
        }

    # -- output ------------------------------------------------------------

    def span_names(self):
        return [self.names[k] for k in self.span_name]

    def write(self, path):
        """Write every span as a tab-separated line, gzip-compressed."""
        names = self.span_names()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i, name in enumerate(names):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t{name}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


def self_times(names, parents, starts, ends):
    """Self time per span name, from parallel per-span sequences.

    A span's self time is its duration minus the durations of its direct
    children (`parents[i]` is the index of span i's parent, or -1);
    children never outlive their parent.
    """
    child = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + ends[i] - starts[i] - child[i]
    return out


def inclusive_time(names, parents, starts, ends, wanted):
    """Total duration of the spans named in `wanted`, counting a span
    nested directly inside another of the same set only once."""
    total = 0.0
    for i, name in enumerate(names):
        parent = parents[i]
        if name in wanted and (parent < 0 or names[parent] not in wanted):
            total += ends[i] - starts[i]
    return total


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer, op_wall_s):
    """The per-layer metrics of a traced run, as {name: (value, unit)};
    `op_wall_s` is the traced wall time of its ops, measured around `main`."""
    table = (tracer.span_names(), tracer.span_parent, tracer.span_start, tracer.span_end)
    selfs = self_times(*table)

    def incl(*wanted):
        return inclusive_time(*table, set(wanted))

    calls = {name: cell[0] for name, cell in tracer.counts.items()}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in selfs.items() if layer_of(k) == layer), "s")
    parse = ("dsl.parse_problem", "dsl.parse_vector_literal", "dsl.order_from_names")
    fmt = ("dsl.format_vector", "dsl.format_lt_module")
    out["dsl.parse_s"] = (incl(*parse), "s")
    out["dsl.parse_calls"] = (sum(calls.get(n, 0) for n in parse), "count")
    out["dsl.format_s"] = (incl(*fmt, "dsl.format_poly"), "s")
    out["dsl.format_calls"] = (sum(calls.get(n, 0) for n in fmt), "count")
    out["groebner.buchberger_s"] = (incl("groebner.buchberger"), "s")
    out["groebner.buchberger_calls"] = (calls.get("groebner.buchberger", 0), "count")
    divides = ("groebner.divide", "groebner.divide_valuation")
    out["groebner.divide_s"] = (sum(selfs.get(n, 0.0) for n in divides), "s")
    out["groebner.divide_calls"] = (sum(calls.get(n, 0) for n in divides), "count")
    for kind in ("auto", "cross", "zero"):
        out[f"groebner.spairs_{kind}"] = (calls.get(f"groebner.spairs_{kind}", 0), "count")
    spolys = calls.get("groebner.buchberger_spolys", 0)
    added = calls.get("groebner.buchberger_added", 0)
    out["groebner.buchberger_spolys"] = (spolys, "count")
    out["groebner.buchberger_added"] = (added, "count")
    out["groebner.spair_useful_ratio"] = (added / spolys if spolys else 0.0, "ratio")
    out["groebner.reduction_steps"] = (tracer.events.get("reduction_step", 0), "count")
    for short in ("is_groebner", "pseudo_reduce"):
        name = f"groebner.{short}"
        out[f"{name}_s"] = (incl(name), "s")
        out[f"{name}_calls"] = (calls.get(name, 0), "count")
    out["syzygy.resolution_self_s"] = (selfs.get("syzygy.free_resolution", 0.0), "s")
    out["syzygy.schreyer_syzygies_s"] = (incl("syzygy.schreyer_syzygies"), "s")
    verify = incl("syzygy.verify_resolution")
    out["syzygy.verify_s"] = (verify, "s")
    out["syzygy.verify_share"] = (verify / op_wall_s if op_wall_s else 0.0, "ratio")
    out["syzygy.levels"] = (calls.get("syzygy.levels", 0), "count")
    out["syzygy.rank_sum"] = (calls.get("syzygy.rank_sum", 0), "count")
    out["poly.vector_add_calls"] = (calls.get("poly.Vector.add", 0), "count")
    out["poly.vector_add_s"] = (incl("poly.Vector.add"), "s")
    out["poly.toplex_compare_calls"] = (calls.get("poly.toplex_compare", 0), "count")
    out["poly.schreyer_compare_calls"] = (calls.get("poly.schreyer_compare", 0), "count")
    out["poly.mono_divides_calls"] = (calls.get("poly.mono_divides", 0), "count")
    out["poly.sort_basis_calls"] = (calls.get("poly.sort_basis", 0), "count")
    out["rings.gcd_bezout_calls"] = (calls.get("rings.gcd_bezout", 0), "count")
    out["rings.gcd_bezout_s"] = (incl("rings.gcd_bezout"), "s")
    for meth in COUNTED_RING_METHODS:
        out[f"rings.{meth}_calls"] = (calls.get(f"rings.{meth}", 0), "count")
    out["trace.op_wall_s"] = (op_wall_s, "s")
    return out
