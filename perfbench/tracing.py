"""Layer tracing from outside the package, for the traced benchmark run.

``install()`` wraps the entry points of each ``quivhom.<module>`` layer.
A wrapped function is rebound in every ``quivhom.*`` namespace that
holds it (the package imports with ``from .x import f``); a wrapped
method is patched on its class.  Each call of a span entry point records
a span: name, start, duration, self time (duration minus the time its
child spans cover), parent span and the id of the op that was running.
A few very hot calls (``Matrix.__init__``, ``RepHom.is_iso``,
``mul_basis``) are only counted, so that tracing does not swamp them.

Cache hit ratios come from looking the key up in the package's own cache
dicts (``_mul_cache``, ``_apply_cache``) just before the call that would
use it; nothing is written to them.  Resolution reuse counts the ``ext``
calls during which no resolution term was computed.

The untraced run never imports this module.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP = -2  # op id of spans recorded while the inputs are built
NO_OP = -1  # op id of timed-phase work outside any op

# layer (= quivhom module) -> {entry point: short span name}
SPANS = {
    "exactlin": {"rref": "rref", "solve": "solve", "nullspace": "nullspace"},
    "algebra": {"BoundQuiverAlgebra.mul": "mul"},
    "modules": {"projective_cover": "projective_cover", "kernel": "kernel", "hom_space": "hom_space"},
    "homological": {
        "ext": "ext",
        "MinimalResolution.extend_to": "minres.extend_to",
        "decompose": "decompose",
        "is_isomorphic": "is_isomorphic",
        "transpose": "transpose",
    },
    "complexes": {
        "hom_d_dim": "hom_d_dim",
        "projective_resolution": "projective_resolution",
        "localization_compare": "localization_compare",
    },
    "projcplx": {"minimize": "minimize"},
    "functors": {"apply_to_module": "apply_to_module"},
    "stable": {
        "stable_image": "stable_image",
        "stable_iso": "stable_iso",
        "stable_image_map": "stable_image_map",
        "exact_sequence_image": "exact_sequence_image",
    },
    "gorenstein": {"is_gorenstein_projective": "is_gorenstein_projective"},
    "corpus": {"Corpus.__init__": "Corpus", "Corpus.pullback_module": "pullback_module"},
}
LAYERS = list(SPANS)


def _new_agg() -> dict:
    return {
        "calls": defaultdict(int),
        "self_s": defaultdict(float),
        "layer_cum_s": defaultdict(float),
        "layer_self_s": defaultdict(float),
        "count": defaultdict(float),
    }


class Tracer:
    def __init__(self):
        self.op = SETUP
        self.names: list[str] = []
        self.agg = _new_agg()
        self.open = defaultdict(int)  # span name -> calls in progress
        # finished spans, one array per column
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.span_op = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.self_time = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._layer_depth = defaultdict(int)

    def reset(self) -> dict:
        """Start new aggregates (the spans are kept); returns the old ones."""
        old, self.agg = self.agg, _new_agg()
        return old

    def set_op(self, idx: int) -> None:
        self.op = idx

    def span(self, fn, layer: str, name: str, before=None, after=None):
        """Wrap fn so that each call records a span.  before(args) returns
        a state that is handed to after(args, result, state)."""
        self.names.append(name)
        nid = len(self.names) - 1
        stack, depth, open_ = self._stack, self._layer_depth, self.open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[layer] += 1
            open_[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                open_[name] -= 1
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name.append(nid)
                self.span_op.append(self.op)
                self.start.append(t0)
                self.dur.append(dur)
                self.self_time.append(own)
                agg = self.agg
                agg["calls"][name] += 1
                agg["self_s"][name] += own
                agg["layer_self_s"][layer] += own
                if depth[layer] == 0:
                    agg["layer_cum_s"][layer] += dur
            if after is not None:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name: str, before=None):
        """Wrap fn so that each call is counted under name and before(args)
        runs first.  No span is recorded."""

        def wrapper(*args, **kwargs):
            self.agg["count"][name] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def bump(self, name: str, by: float = 1) -> None:
        self.agg["count"][name] += by

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, the name table and meta to an .npz file."""
        np.savez_compressed(
            path,
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            dur=np.frombuffer(self.dur, dtype=np.float64),
            self_time=np.frombuffer(self.self_time, dtype=np.float64),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )


# -- hooks that read the package's caches and sizes --------------------------------


def _span_hooks(tr: Tracer) -> dict:
    """entry point -> (before, after) hooks of its span."""
    def rref_cells(args):
        rows, cols = args[0].data.shape
        tr.bump("rref.cells", rows * cols)

    def ext_before(args):
        if tr.open["is_gorenstein_projective"]:
            tr.bump("gp.ext_calls")
        return tr.agg["count"]["minres.steps"]

    def ext_after(args, result, steps_before):
        if tr.agg["count"]["minres.steps"] == steps_before:
            tr.bump("ext.reused")

    def extend_before(args):
        return len(args[0].terms)

    def extend_after(args, result, terms_before):
        tr.bump("minres.steps", len(args[0].terms) - terms_before)

    def minimize_before(args):
        tr.bump("minimize.summands_in", sum(len(t.vertices) for t in args[0].terms.values()))

    def minimize_after(args, result, state):
        tr.bump("minimize.summands_out", sum(len(t.vertices) for t in result[0].terms.values()))

    return {
        "rref": (rref_cells, None),
        "ext": (ext_before, ext_after),
        "MinimalResolution.extend_to": (extend_before, extend_after),
        "minimize": (minimize_before, minimize_after),
    }


def _cache_hit(cache: dict, key, obj) -> bool:
    hit = cache.get(key)
    return hit is not None and hit[0] is obj


def _counted(tr: Tracer) -> list:
    """(layer, entry point, counter name, before hook) of the calls that
    are counted without a span."""

    def mul_basis_before(args):
        alg, i, j = args
        if (i, j) in alg._mul_cache:
            tr.bump("mul_basis.hits")

    def apply_before(args):
        f, pc = args[0], args[1]
        tr.bump("apply_cache.lookups")
        if _cache_hit(f._apply_cache, ("apply", id(pc)), pc):
            tr.bump("apply_cache.hits")

    def pipeline_before(args):
        f, x = args[0], args[1]
        tr.bump("apply_cache.lookups")
        if _cache_hit(f._apply_cache, ("stable", id(x)), x):
            tr.bump("apply_cache.hits")

    def is_iso_before(args):
        if tr.open["is_isomorphic"]:
            tr.bump("is_isomorphic.attempts")

    return [
        ("exactlin", "Matrix.__init__", "Matrix.init", None),
        ("algebra", "BoundQuiverAlgebra.mul_basis", "mul_basis", mul_basis_before),
        ("modules", "RepHom.is_iso", "RepHom.is_iso", is_iso_before),
        ("homological", "MinimalResolution.__init__", "minres.new", lambda args: tr.bump("minres.steps")),
        ("functors", "apply_to_projective_complex", "apply_to_projective_complex", apply_before),
        ("stable", "_pipeline", "stable._pipeline", pipeline_before),
    ]


def install() -> Tracer:
    """Wrap every entry point in SPANS and the counted calls; returns the
    tracer, whose op id is SETUP until set_op is called."""
    importlib.import_module("quivhom")
    tr = Tracer()
    mods = [m for name, m in sys.modules.items() if name == "quivhom" or name.startswith("quivhom.")]

    def rebind(orig, wrapped):
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)

    def patch(layer: str, entry: str, make):
        mod = importlib.import_module(f"quivhom.{layer}")
        if "." in entry:
            cls_name, meth = entry.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
        else:
            orig = getattr(mod, entry)
            rebind(orig, make(orig))

    hooks = _span_hooks(tr)
    for layer, entries in SPANS.items():
        for entry, name in entries.items():
            before, after = hooks.get(entry, (None, None))
            patch(layer, entry, lambda f, l=layer, n=name, b=before, a=after: tr.span(f, l, n, b, a))

    for layer, entry, name, before in _counted(tr):
        patch(layer, entry, lambda f, n=name, b=before: tr.counter(f, n, b))
    return tr


# -- per-layer metrics ------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(agg: dict, setup_agg: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the timed phase (agg); the corpus layer's
    constructor runs only in set-up, so it is read from setup_agg."""
    calls, self_s, count = agg["calls"], agg["self_s"], agg["count"]
    out = {
        "exactlin.rref.calls": calls["rref"],
        "exactlin.rref.self_s": self_s["rref"],
        "exactlin.rref.cells": count["rref.cells"],
        "exactlin.Matrix.init.calls": count["Matrix.init"],
        "exactlin.solve.calls": calls["solve"],
        "exactlin.solve.self_s": self_s["solve"],
        "exactlin.nullspace.self_s": self_s["nullspace"],
        "algebra.mul.calls": calls["mul"],
        "algebra.mul.self_s": self_s["mul"],
        "algebra.mul_basis.calls": count["mul_basis"],
        "algebra.mul_basis.hit_ratio": _ratio(count["mul_basis.hits"], count["mul_basis"]),
        "modules.projective_cover.calls": calls["projective_cover"],
        "modules.projective_cover.self_s": self_s["projective_cover"],
        "modules.kernel.calls": calls["kernel"],
        "modules.kernel.self_s": self_s["kernel"],
        "modules.hom_space.calls": calls["hom_space"],
        "modules.hom_space.self_s": self_s["hom_space"],
        "modules.RepHom.is_iso.calls": count["RepHom.is_iso"],
        "homological.ext.calls": calls["ext"],
        "homological.ext.self_s": self_s["ext"],
        "homological.minres.steps": count["minres.steps"],
        "homological.minres.reuse_ratio": _ratio(count["ext.reused"], calls["ext"]),
        "homological.decompose.self_s": self_s["decompose"],
        "homological.is_isomorphic.calls": calls["is_isomorphic"],
        "homological.is_isomorphic.attempts_per_call": _ratio(
            count["is_isomorphic.attempts"], calls["is_isomorphic"]
        ),
        "homological.transpose.self_s": self_s["transpose"],
        "complexes.hom_d_dim.calls": calls["hom_d_dim"],
        "complexes.hom_d_dim.self_s": self_s["hom_d_dim"],
        "complexes.projective_resolution.calls": calls["projective_resolution"],
        "complexes.projective_resolution.self_s": self_s["projective_resolution"],
        "complexes.localization_compare.self_s": self_s["localization_compare"],
        "projcplx.minimize.calls": calls["minimize"],
        "projcplx.minimize.self_s": self_s["minimize"],
        "projcplx.minimize.kept_ratio": _ratio(count["minimize.summands_out"], count["minimize.summands_in"]),
        "functors.apply_to_module.calls": calls["apply_to_module"],
        "functors.apply_to_module.self_s": self_s["apply_to_module"],
        "functors.apply_cache.hit_ratio": _ratio(count["apply_cache.hits"], count["apply_cache.lookups"]),
        "stable.stable_image.self_s": self_s["stable_image"],
        "stable.stable_iso.calls": calls["stable_iso"],
        "stable.stable_iso.self_s": self_s["stable_iso"],
        "stable.stable_image_map.self_s": self_s["stable_image_map"],
        "stable.exact_sequence_image.self_s": self_s["exact_sequence_image"],
        "gorenstein.is_gorenstein_projective.calls": calls["is_gorenstein_projective"],
        "gorenstein.is_gorenstein_projective.self_s": self_s["is_gorenstein_projective"],
        "gorenstein.ext_calls_per_verdict": _ratio(count["gp.ext_calls"], calls["is_gorenstein_projective"]),
        "corpus.Corpus.self_s": setup_agg["self_s"]["Corpus"],
    }
    for layer in LAYERS:
        out[f"layer.{layer}.cum_s"] = agg["layer_cum_s"][layer]
        out[f"layer.{layer}.self_s"] = agg["layer_self_s"][layer]
        out[f"layer.{layer}.cum_share"] = _ratio(agg["layer_cum_s"][layer], wall_s)
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share", "per_call", "per_verdict")):
        return "ratio"
    if metric.endswith("cells"):
        return "cells"
    return "count"
