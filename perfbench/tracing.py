"""In-memory span tracer that wraps hfmm's public functions at their call sites.

The driver and the other modules bind several functions by name
(``from .specfun import hankel0``), so a function is wrapped in every
module namespace that calls it, under one span name.  Spans are kept in
memory while recording is on; ``drain`` hands back those of one call.
``restore`` puts every original binding back.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np


def _tree_shape(args, kwargs, tree):
    return {"nodes": len(tree.nodes), "leaves": len(tree.leaves), "depth": tree.max_depth}


def _v_pairs(args, kwargs, tree):
    return {"v_pairs": sum(len(n.interaction_list) for n in tree.nodes.values())}


def _near_pairs(args, kwargs, near):
    return {"near_pairs": sum(len(srcs) for srcs in near.values())}


def _values(args, kwargs, result):
    return {"values": int(np.size(result))}


def _evanescent(args, kwargs, result):
    # the adaptive evanescent entry path is the only caller asking for
    # evanescent breakpoints from layered
    path = kwargs.get("path", args[1] if len(args) > 1 else "")
    return {"evanescent": int(path == "evanescent")}


# (module, attribute path, span name, counters of one call or None)
TRACED = [
    ("hfmm.driver", "build_tree", "tree.build_tree", _tree_shape),
    ("hfmm.driver", "build_lists", "tree.build_lists", _v_pairs),
    ("hfmm.driver", "near_source_leaves", "tree.near_source_leaves", _near_pairs),
    ("hfmm.driver", "bessel_j_sweep", "specfun.bessel_j_sweep", _values),
    ("hfmm.driver", "hankel0", "specfun.hankel0", _values),
    ("hfmm.driver", "scattered_batch", "greens.scattered_batch", _values),
    ("hfmm.expansions", "p2m_arrays", "expansions.p2m_arrays", None),
    ("hfmm.expansions", "translation_vector_j", "expansions.translation_vector_j", None),
    ("hfmm.expansions", "translation_vector_h", "expansions.translation_vector_h", None),
    ("hfmm.expansions", "image_coefficients", "expansions.image_coefficients", None),
    ("hfmm.expansions", "bessel_j_sweep", "specfun.bessel_j_sweep", _values),
    ("hfmm.expansions", "hankel1_sweep", "specfun.hankel1_sweep", None),
    ("hfmm.layered", "compute_A", "layered.compute_A", None),
    ("hfmm.layered", "compute_B_tail", "layered.compute_B_tail", None),
    ("hfmm.layered", "propagating_rule", "layered.propagating_rule", None),
    ("hfmm.layered", "reflectance", "greens.reflectance", _values),
    ("hfmm.layered", "spectral_breakpoints", "layered.spectral_breakpoints", _evanescent),
    ("hfmm.layered", "gauss_legendre", "quadrature.gauss_legendre", None),
    ("hfmm.layered", "save_tables", "layered.save_tables", None),
    ("hfmm.layered", "load_tables", "layered.load_tables", None),
    ("hfmm.layered", "TableStore.get", "layered.table_get", None),
    ("hfmm.quadrature", "gauss_legendre", "quadrature.gauss_legendre", None),
    ("hfmm.quadrature", "gauss_laguerre_generalized",
     "quadrature.gauss_laguerre_generalized", None),
    ("hfmm.greens", "reflectance", "greens.reflectance", _values),
    ("hfmm.greens", "three_layer_sigma", "greens.three_layer_sigma", None),
]


def _owner(module, attr_path):
    """The object holding the last attribute of attr_path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for part in attr_path.split(".")[:-1]:
        owner = getattr(owner, part, None)
    return owner


class Span:
    __slots__ = ("name", "start", "end", "parent", "counters")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counters = None


class Tracer:
    """Installs the wrappers on construction; records only while ``recording``."""

    def __init__(self):
        self.recording = False
        self.spans = []
        self.missing = set()
        self._stack = []
        self._patches = []
        for module, attr_path, name, measure in TRACED:
            owner = _owner(module, attr_path)
            attr = attr_path.rsplit(".", 1)[-1]
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            setattr(owner, attr, self._wrapper(original, name, measure))
            self._patches.append((owner, attr, original))

    def _wrapper(self, original, name, measure):
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span.counters = measure(args, kwargs, result)
            return result

        return traced

    def drain(self):
        spans, self.spans = self.spans, []
        return spans

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def summarize(spans):
    """Per span name: calls, self seconds and summed counters.

    Self time is a span's duration minus the durations of its direct
    children; tracing is single-threaded, so children nest strictly.
    Also counts ``table_get.misses``: table reads that had to compute
    an entry (a ``compute_A`` child).
    """
    child_time = {}
    computed = set()
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] = (child_time.get(id(span.parent), 0.0)
                                           + span.end - span.start)
            if span.name == "layered.compute_A" and span.parent.name == "layered.table_get":
                computed.add(id(span.parent))
    out = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += span.end - span.start - child_time.get(id(span), 0.0)
        for key, val in (span.counters or {}).items():
            entry[key] = entry.get(key, 0) + val
    if "layered.table_get" in out:
        out["layered.table_get"]["misses"] = len(computed)
    return out


def dump(spans, path):
    """Write spans as JSON lines: name, start, end, parent index, counters."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps({
                "name": span.name, "start": span.start, "end": span.end,
                "parent": index.get(id(span.parent)), "counters": span.counters,
            }) + "\n")
