"""Tracing from outside the program: wrappers around calls into each layer.

``install`` puts a timing wrapper around each chosen function of the layers in
``LAYERS``, in every module namespace that holds it (modules bind names with
``from .monomials import ordered_splits``), in module-level lists such as the
selfcheck suite table, in attributes of module-level objects such as
``mu_character``, and on the ``LinComb`` methods.  ``uninstall`` puts the
originals back.  Spans live in flat arrays in memory and are written out when
the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import time
import types
from array import array

LAYERS = (
    "exact",
    "linear",
    "words",
    "monomials",
    "bialgebra",
    "trees",
    "morphisms",
    "parsing",
    "cli",
    "selfcheck",
)

# Helpers called hundreds of thousands of times per round, too small to time;
# their time counts to the caller.
UNTIMED = {
    "monomials": {
        "trim", "unit_exp", "alpha_len", "alpha_weight", "alpha_deg",
        "alpha_factorial", "alpha_mul", "alpha_sub", "alpha_key",
        "format_alpha", "submonomials",
    },
    "bialgebra": {"forest_mono", "fm_mul", "fm_len", "fm_weight", "fm_deg", "format_fm", "fm_key"},
    "trees": {"forest", "forest_mul", "forest_size", "forest_key", "format_forest", "bplus"},
}

# Private functions timed because per-layer metrics are read from them.
PRIVATE = {
    "monomials": {"_shift_down_power_mono"},
    "bialgebra": {"_sub_coproduct_block", "_graft_coproduct_block"},
    "trees": {"_cut_coproduct_tree", "_contract_coproduct_tree"},
    "morphisms": {"_invariant_fixed_point", "_invariant_direct"},
}

# Functions that recurse through their own module-level name.  Wrapping them
# there would add a frame per level and make deep trees fail earlier than
# untraced, so they are wrapped only where other modules call them.
OUTSIDE_ONLY = {"trees": {"symmetry_factor", "plane_count", "fertility_monomial"}}

# Counted, not timed: a span per call would cost more than the call.
COUNTED = {"linear": {"add_term"}}

METHODS = {
    "linear": [
        ("LinComb", m)
        for m in ("__init__", "__add__", "__sub__", "__neg__", "scale", "__mul__",
                  "__pow__", "map_keys", "__str__", "sorted_terms")
    ],
    "exact": [("Poly", "__call__"), ("Poly", "binomial_coeffs"), ("Poly", "to_json")],
    "bialgebra": [("STensor", "to_json")],
    "trees": [("HCKTensor", "to_json")],
    "morphisms": [("DSSolution", "to_json")],
}

# Output formatting, reported together as linear.format_s.
FORMAT = {"LinComb.__str__", "LinComb.sorted_terms", "Poly.to_json",
          "STensor.to_json", "HCKTensor.to_json", "DSSolution.to_json"}


class Tracer:
    """Spans as parallel arrays: name id, start and end (ns), parent index."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.output_sizes: dict[str, dict] = {}
        self.block_adds = 0
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_t0 = 0

    def nid(self, name: str, layer: str) -> int:
        i = self.name_id.get(name)
        if i is None:
            i = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def counter(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def spans(self):
        """(name, start, end, parent) tuples."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent)
        ]

    def gc_callback(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_t0
            self.gc_collections += 1

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "layers": self.layer_of,
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [list(s) for s in zip(self.span_name, self.start, self.end, self.parent)],
                },
                fh,
                separators=(",", ":"),
            )


# -- self time ------------------------------------------------------------------


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover.  ``spans`` holds (name, start, end, parent) tuples."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _, s, e, p in spans:
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    out = []
    for i, (_, s, e, _) in enumerate(spans):
        covered = 0
        lo = s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, lo), min(ce, e)
            if ce > cs:
                covered += ce - cs
                lo = ce
        out.append(e - s - covered)
    return out


# -- wrappers ---------------------------------------------------------------------


def _span_wrapper(tracer: Tracer, nid: int, fn, seen: dict | None = None, adds=None):
    """A span per call.  With ``seen``, record the output size of each
    distinct first argument; with ``adds`` too, add the ``add_term`` calls made
    under the span to ``tracer.block_adds``."""
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = adds[0] if adds else 0
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if seen is not None:
            seen.setdefault(args[0], len(getattr(result, "terms", result)))
            if adds is not None:
                tracer.block_adds += adds[0] - before
        return result

    return wrapper


def _route_wrapper(tracer: Tracer, layer: str, base: str, fn):
    """poly_invariant: one span name per route."""
    ids = {}
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(a, route="via-ck"):
        nid = ids.get(route)
        if nid is None:
            nid = ids[route] = tracer.nid(f"{base}[{route}]", layer)
        idx = open_(nid)
        try:
            return fn(a, route)
        finally:
            close(idx)

    return wrapper


def _generator_wrapper(tracer: Tracer, nid: int, fn, yielded: list[int]):
    """Times each next() call of the generator as a span."""
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = open_(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                close(idx)
            yielded[0] += 1
            yield item

    return wrapper


def _count_wrapper(fn, cell: list[int]):
    @functools.wraps(fn)
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)

    return wrapper


class Installation:
    """Record of every replaced binding, so that ``uninstall`` restores it."""

    def __init__(self):
        self.module_slots: list[tuple[object, str, object]] = []
        self.list_slots: list[tuple[list, int, object]] = []
        self.attr_slots: list[tuple[object, str, object]] = []
        self.class_slots: list[tuple[type, str, object]] = []


def _modules():
    return {layer: importlib.import_module(f"mindex.{layer}") for layer in LAYERS}


def _is_cached(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


def _targets(mods):
    """(layer, name, original) for every function to wrap."""
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if not (inspect.isfunction(obj) or _is_cached(obj)):
                continue
            inner = obj.__wrapped__ if _is_cached(obj) else obj
            if getattr(inner, "__module__", None) != mod.__name__:
                continue
            if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                continue
            if name in UNTIMED.get(layer, ()):
                continue
            yield layer, name, obj


def install(tracer: Tracer) -> Installation:
    mods = _modules()
    inst = Installation()
    adds = tracer.counter("linear.add_term")
    for layer, names in COUNTED.items():
        for name in names:
            orig = getattr(mods[layer], name)
            _rebind(mods, inst, orig, _count_wrapper(orig, tracer.counter(f"{layer}.{name}")), None)
    for layer, name, orig in _targets(mods):
        full = f"{layer}.{name}"
        if name in COUNTED.get(layer, ()):
            continue
        if full == "morphisms.poly_invariant":
            wrapped = _route_wrapper(tracer, layer, full, orig)
        elif name in ("_sub_coproduct_block", "_graft_coproduct_block"):
            seen = tracer.output_sizes.setdefault(full, {})
            wrapped = _span_wrapper(tracer, tracer.nid(full, layer), orig, seen, adds)
        elif name in ("_cut_coproduct_tree", "_contract_coproduct_tree", "all_trees",
                      "trees_with_monomial"):
            seen = tracer.output_sizes.setdefault(full, {})
            wrapped = _span_wrapper(tracer, tracer.nid(full, layer), orig, seen)
        elif inspect.isgeneratorfunction(orig):
            wrapped = _generator_wrapper(tracer, tracer.nid(full, layer), orig,
                                         tracer.counter(f"{full}.yielded"))
        else:
            wrapped = _span_wrapper(tracer, tracer.nid(full, layer), orig)
        skip = mods[layer] if name in OUTSIDE_ONLY.get(layer, ()) else None
        _rebind(mods, inst, orig, wrapped, skip)
    for layer, methods in METHODS.items():
        for cls_name, meth in methods:
            cls = getattr(mods[layer], cls_name)
            qual = f"{cls_name}.{meth}"
            span_layer = "linear" if qual in FORMAT else layer
            orig = cls.__dict__[meth]
            wrapped = _span_wrapper(tracer, tracer.nid(qual, span_layer), orig)
            inst.class_slots.append((cls, meth, orig))
            setattr(cls, meth, wrapped)
    return inst


def _rebind(mods, inst: Installation, orig, wrapped, skip_module) -> None:
    for mod in mods.values():
        if mod is skip_module:
            continue
        for name, value in list(vars(mod).items()):
            if value is orig:
                inst.module_slots.append((mod, name, orig))
                setattr(mod, name, wrapped)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, tuple) and any(x is orig for x in item):
                        inst.list_slots.append((value, i, item))
                        value[i] = tuple(wrapped if x is orig else x for x in item)
            elif not isinstance(value, (type, types.ModuleType, types.FunctionType)):
                for attr, held in list(getattr(value, "__dict__", {}).items()):
                    if held is orig:
                        inst.attr_slots.append((value, attr, orig))
                        setattr(value, attr, wrapped)


def uninstall(inst: Installation) -> None:
    for cls, meth, orig in reversed(inst.class_slots):
        setattr(cls, meth, orig)
    for obj, attr, orig in reversed(inst.attr_slots):
        setattr(obj, attr, orig)
    for lst, i, item in reversed(inst.list_slots):
        lst[i] = item
    for mod, name, orig in reversed(inst.module_slots):
        setattr(mod, name, orig)


# -- memo sites ---------------------------------------------------------------------


def memo_sites():
    """(name, object) for every module-level lru_cache and dict memo."""
    out = []
    for layer, mod in _modules().items():
        for name, obj in vars(mod).items():
            if _is_cached(obj) and obj.__wrapped__.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", obj))
            elif isinstance(obj, dict) and name.endswith("_memo"):
                out.append((f"{layer}.{name}", obj))
    return out


def memo_stats() -> dict:
    entries = hits = misses = 0
    sites = memo_sites()
    for _, obj in sites:
        if isinstance(obj, dict):
            entries += len(obj)
        else:
            info = obj.cache_info()
            entries += info.currsize
            hits += info.hits
            misses += info.misses
    return {
        "sites": len(sites),
        "entries": entries,
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


# -- metrics --------------------------------------------------------------------------


def _inclusive(names: list[int], parent, durations, wanted: set[int]) -> int:
    """Total duration of spans in ``wanted`` not nested in another such span."""
    inside = [False] * len(names)
    total = 0
    for i, n in enumerate(names):
        p = parent[i]
        inside[i] = p >= 0 and (inside[p] or names[p] in wanted)
        if n in wanted and not inside[i]:
            total += durations[i]
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round."""
    spans = tracer.spans()
    selfs = self_times(spans)
    names = list(tracer.span_name)
    parent = list(tracer.parent)
    durations = [e - s for _, s, e, _ in spans]
    ids = tracer.name_id

    def want(*keys):
        return {ids[k] for k in keys if k in ids}

    by_layer = {layer: 0 for layer in LAYERS}
    format_ns = 0
    format_ids = want(*FORMAT)
    for n, st in zip(names, selfs):
        by_layer[tracer.layer_of[n]] = by_layer.get(tracer.layer_of[n], 0) + st
        if n in format_ids:
            format_ns += st
    out = {f"{layer}.self_s": ns / 1e9 for layer, ns in by_layer.items()}
    out["linear.format_s"] = format_ns / 1e9

    def count(name):
        return tracer.counts.get(name, [0])[0]

    def calls(name):
        i = ids.get(name)
        return sum(1 for n in names if n == i) if i is not None else 0

    def incl(*keys):
        return _inclusive(names, parent, durations, want(*keys)) / 1e9

    rows = tracer.output_sizes
    sub_rows = sum(rows.get("bialgebra._sub_coproduct_block", {}).values())
    graft_rows = sum(rows.get("bialgebra._graft_coproduct_block", {}).values())
    cut_rows = sum(rows.get("trees._cut_coproduct_tree", {}).values())
    contract = rows.get("trees._contract_coproduct_tree", {})
    subsets = sum(2 ** (t.size - 1) for t in contract)
    enumerated = sum(rows.get("trees.all_trees", {}).values()) + sum(
        rows.get("trees.trees_with_monomial", {}).values()
    )

    crosscheck = 0
    fp, mu = ids.get("morphisms._invariant_fixed_point"), ids.get("morphisms.mu_value")
    sym, lift = ids.get("trees.symmetry_factor"), ids.get("morphisms.tree_lift")
    for i, n in enumerate(names):
        p = parent[i]
        if p < 0:
            continue
        if (n == fp and names[p] == mu) or (n == sym and names[p] == lift):
            crosscheck += durations[i]

    suites = [
        d for n, d, p in zip(names, durations, parent)
        if tracer.names[n].startswith("selfcheck.law_")
        and (p < 0 or not tracer.names[names[p]].startswith("selfcheck.law_"))
    ]

    out.update({
        "monomials.splits_enumerated": count("monomials.ordered_splits.yielded"),
        "bialgebra.sub_rows": sub_rows,
        "bialgebra.graft_rows": graft_rows,
        "bialgebra.antipode_s": incl("bialgebra.antipode"),
        "bialgebra.row_yield": (sub_rows + graft_rows) / tracer.block_adds if tracer.block_adds else 0.0,
        "linear.add_term_calls": count("linear.add_term"),
        "linear.mul_calls": calls("LinComb.__mul__"),
        "exact.indefinite_sum_calls": calls("exact.indefinite_sum"),
        "exact.binomial_poly_calls": calls("exact.binomial_poly"),
        "trees.trees_enumerated": enumerated,
        "trees.cut_rows": cut_rows,
        "trees.contract_subsets": subsets,
        "trees.contract_row_yield": sum(contract.values()) / subsets if subsets else 0.0,
        "morphisms.invariant_direct_s": incl("morphisms._invariant_direct"),
        "morphisms.invariant_fixed_point_s": incl("morphisms._invariant_fixed_point"),
        "morphisms.invariant_via_ck_s": incl("morphisms.poly_invariant[via-ck]"),
        "morphisms.lift_s": incl("morphisms.tree_lift"),
        "morphisms.ds_s": incl("morphisms.ds_solve"),
        "morphisms.crosscheck_s": crosscheck / 1e9,
        "selfcheck.suite_s": sum(suites) / 1e9,
        "selfcheck.slowest_suite_s": max(suites, default=0) / 1e9,
        "gc.pause_s": tracer.gc_pause_ns / 1e9,
        "gc.collections": tracer.gc_collections,
        "trace.spans": len(names),
    })
    return out


class traced:
    """Context manager: install wrappers and gc callbacks, then restore."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.inst = None

    def __enter__(self):
        self.inst = install(self.tracer)
        gc.callbacks.append(self.tracer.gc_callback)
        return self.tracer

    def __exit__(self, *exc):
        gc.callbacks.remove(self.tracer.gc_callback)
        uninstall(self.inst)
        return False
