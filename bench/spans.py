"""In-memory spans around calls into edk's public functions.

The benchmark times each layer from outside the package: ``Tracer.install``
replaces the public functions listed in ``LAYERS`` with timing wrappers in
every loaded ``edk`` module namespace that binds them, so calls made inside
the package (``verify`` calling ``dist_upper``, ``dist_upper`` calling
``enumerate_types``) are recorded as child spans.  ``Tracer.uninstall`` puts
the originals back.

A span keeps its name, op id, parent, start, end and busy time, plus a few
work counts taken when it closes; it keeps no reference to the arguments or
results, so tracing does not grow the heap the program's own garbage
collection walks.  Spans stay in memory until ``layer_metrics`` reduces them
at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# span name -> (module, public functions recorded under it, position of the
# family argument when the span's time is also split by family kind)
LAYERS = {
    "crg.enumerate_types": ("crg", ("enumerate_types",), 0),
    "distance.dist_upper": ("distance", ("dist_upper",), None),
    "distance.distfn_grid": ("distance", ("distfn_grid",), None),
    "distance.dist_max_upper": ("distance", ("dist_max_upper",), None),
    "distance.dist_lower_turan": ("distance", ("dist_lower_turan",), None),
    "verify.run_cases": ("verify", ("run_cases",), None),
    "graphs.is_member": ("graphs", ("is_member",), 1),
    "oracle.exact_dist": ("oracle", ("exact_dist",), 1),
    "oracle.sample": ("oracle", ("sample_rgraph", "sample_digraph"), None),
    "editing.edit": ("editing", ("edit_by_type", "edit_by_dirtype"), None),
    "files.parse_property": ("files", ("parse_property",), None),
    "files.parse_graph": ("files", ("parse_graph",), None),
}
SPLITS = ("multicolor", "directed")
SPLIT_LAYERS = tuple(name for name, (_, _, pos) in LAYERS.items() if pos is not None)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _pairs(n):
    return n * (n - 1) // 2


def _types_given(index):
    def count(args, kwargs, result):
        types = _arg(args, kwargs, index, "types")
        return {} if types is None else {"types": len(types)}
    return count


def _edit_work(args, kwargs, result):
    """Pairs, changes, and the exact expectation of the change count at the
    input graph's own densities."""
    from edk import DiGraph, color_density, dir_density, expected_changes

    g, k_type, weights = args[:3]
    dens = dir_density(g, k_type.palette) if isinstance(g, DiGraph) else color_density(g)
    return {"pairs": _pairs(g.n), "changes": result[1],
            "expected": float(expected_changes(k_type, weights, dens, g.n))}


# function -> work counts from (args, kwargs, result) of a call that returned
WORK = {
    "dist_upper": _types_given(3),
    "dist_max_upper": _types_given(2),
    "is_member": lambda a, k, r: {"pairs": _pairs(_arg(a, k, 0, "graph").n)},
    "exact_dist": lambda a, k, r: {"edits": r[0]},
    "edit_by_type": _edit_work,
    "edit_by_dirtype": _edit_work,
}


def _enumeration_work(args, kwargs, by_k):
    """Types yielded, and the enumeration guard's raw candidate count rebuilt
    from the per-level counts: each admissible (k-1)-type is extended by
    every vertex choice and every row of edge choices."""
    family = _arg(args, kwargs, 0, "family")
    kmax = _arg(args, kwargs, 1, "kmax")
    colors = family.palette.size if family.is_directed else family.r
    n_vertex, n_edge = 2 ** colors - 2, 2 ** colors - 1
    candidates = n_vertex
    for k in range(2, kmax + 1):
        candidates += by_k.get(k - 1, 0) * n_vertex * n_edge ** (k - 1)
    return {"types": sum(by_k.values()), "candidates": candidates}


class Span:
    __slots__ = ("index", "name", "op", "parent", "split", "start", "end", "busy",
                 "child_busy", "error", "work")

    def __init__(self, index, name, op, parent, split):
        self.index = index
        self.name = name
        self.op = op
        self.parent = parent
        self.split = split
        self.start = self.end = self.busy = self.child_busy = 0.0
        self.error = None
        self.work = {}

    @property
    def self_time(self):
        return self.busy - self.child_busy

    def record(self, origin):
        """The span as plain data, with times in seconds from ``origin``."""
        return {"index": self.index, "name": self.name, "op": self.op,
                "parent": None if self.parent is None else self.parent.index,
                "start": self.start - origin, "end": self.end - origin,
                "busy": self.busy, "self": self.self_time, "split": self.split,
                "error": self.error, "work": self.work}


class Tracer:
    """Records one span per wrapped call, tagged with the current op id."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans = []
        self.stack = []
        self.op = None
        self.enabled = True
        self._patched = []

    def _open(self, name, split):
        span = Span(len(self.spans), name, self.op, self.stack[-1] if self.stack else None,
                    split)
        self.spans.append(span)
        return span

    def _close(self, span):
        if span.parent is not None:
            span.parent.child_busy += span.busy

    def call(self, name, fn, original, split, args, kwargs):
        span = self._open(name, split)
        self.stack.append(span)
        span.start = self.clock()
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = self.clock()
            self.stack.pop()
            span.busy = span.end - span.start
            self._close(span)
        if fn in WORK:
            span.work = WORK[fn](args, kwargs, result)
        return result

    def generator(self, name, original, split, args, kwargs):
        """Time a generator only while it runs; the span ends when the
        consumer exhausts or drops it."""
        span = self._open(name, split)
        by_k = {}
        span.start = self.clock()
        inner = original(*args, **kwargs)
        try:
            while True:
                self.stack.append(span)
                t0 = self.clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except Exception as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    span.busy += self.clock() - t0
                    self.stack.pop()
                by_k[item.k] = by_k.get(item.k, 0) + 1
                yield item
        finally:
            inner.close()
            span.end = self.clock()
            span.work = _enumeration_work(args, kwargs, by_k)
            self._close(span)

    def _wrapper(self, name, fn, original, split_pos):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            split = None
            if split_pos is not None:
                family = _arg(args, kwargs, split_pos, "family")
                split = "directed" if family.is_directed else "multicolor"
            if fn == "enumerate_types":
                return tracer.generator(name, original, split, args, kwargs)
            return tracer.call(name, fn, original, split, args, kwargs)

        return functools.update_wrapper(wrapper, original)

    def install(self):
        """Wrap every listed function wherever an edk module binds it."""
        homes = {module: importlib.import_module(f"edk.{module}")
                 for module, _, _ in LAYERS.values()}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "edk" or key.startswith("edk."))]
        for name, (module, fns, split_pos) in LAYERS.items():
            for fn in fns:
                original = getattr(homes[module], fn)
                wrapper = self._wrapper(name, fn, original, split_pos)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def _total(spans, key):
    return sum(s.work.get(key, 0) for s in spans)


def layer_metrics(spans, op_busy):
    """Reduce the spans of the timed ops to the per-layer metrics, as
    ``{name: (value, unit)}``; ``op_busy`` is the total op time that shares
    are taken of."""
    out = {}
    by_name = {name: [] for name in LAYERS}
    children = {}
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children.setdefault(s.parent.index, []).append(s)

    for name, group in by_name.items():
        busy = sum(s.busy for s in group)
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (sum(s.self_time for s in group), "s")
        out[f"{name}.share"] = (_ratio(busy, op_busy), "ratio")
    for name in SPLIT_LAYERS:
        for split in SPLITS:
            busy = sum(s.busy for s in by_name[name] if s.split == split)
            out[f"{name}.{split}.busy_s"] = (busy, "s")

    enum = by_name["crg.enumerate_types"]
    types, candidates = _total(enum, "types"), _total(enum, "candidates")
    out["crg.types"] = (types, "count")
    out["crg.candidates"] = (candidates, "count")
    out["crg.yield"] = (_ratio(types, candidates), "ratio")
    out["crg.types_per_s"] = (_ratio(types, sum(s.busy for s in enum)), "1/s")

    # a distance call scans the types it was given, or what its own
    # enumeration yielded
    evaluated = by_name["distance.dist_upper"] + by_name["distance.dist_max_upper"]
    evals = sum(s.work["types"] if "types" in s.work
                else _total(children.get(s.index, ()), "types") for s in evaluated)
    out["distance.densities"] = (len(evaluated), "count")
    out["distance.type_evals"] = (evals, "count")
    out["distance.type_evals_per_s"] = (
        _ratio(evals, sum(s.self_time for s in evaluated)), "1/s")

    member = by_name["graphs.is_member"]
    pairs = _total(member, "pairs")
    out["graphs.pairs"] = (pairs, "count")
    out["graphs.pairs_per_s"] = (_ratio(pairs, sum(s.busy for s in member)), "1/s")

    edits = by_name["editing.edit"]
    edit_pairs, changes = _total(edits, "pairs"), _total(edits, "changes")
    out["editing.pairs"] = (edit_pairs, "count")
    out["editing.changes"] = (changes, "count")
    out["editing.change_ratio"] = (_ratio(changes, edit_pairs), "ratio")
    out["editing.changes_over_expected"] = (_ratio(changes, _total(edits, "expected")),
                                            "ratio")

    exact = by_name["oracle.exact_dist"]
    times = [s.busy for s in exact if s.error is None]
    out["oracle.graphs"] = (len(times), "count")
    out["oracle.edits"] = (_total(exact, "edits"), "count")
    out["oracle.exact_dist.p50_s"] = (statistics.median(times) if times else 0.0, "s")
    out["oracle.exact_dist.max_s"] = (max(times, default=0.0), "s")
    out["oracle.guard_refusals"] = (sum(1 for s in exact if s.error == "SizeGuardError"),
                                    "count")
    return out
