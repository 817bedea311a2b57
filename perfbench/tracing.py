"""Spans around the public functions of each orbitgap module.

install() swaps every reference to a listed function, in every loaded
orbitgap module, for a wrapper that records a span: name, start, end,
parent span, op id, a tag and the exception kind if one escaped.  Spans
stay in memory and are written out once, at the end of the run.  Nothing
is installed unless the benchmark runs with --trace 1, and then only
while a traced op runs.

The wrappers keep one stack of open spans, so they assume the library
runs on one thread (ExtractionConfig.workers = 1, the default).
orbit_stream is a generator and gets no span; its work is self time of
the caller that iterates it.
"""

import json
import math
import sys
import time

import numpy as np

LAYERS = {
    "operators": ("apply",),
    "subspace": ("extend", "distance", "distance_if_extended", "distance_batch_oracle",
                 "distance_convex_descent", "best_scalar"),
    "simplex": ("solve_standard_lp",),
    "dynamics": ("build_supercyclic_vector", "density_check"),
    "extractor": ("rescale_for_extraction", "extract_subsequence", "verify_certificate"),
    "records": ("encode_certificate", "decode_certificate", "dumps_record"),
}

ROUTES = ("lstsq", "lp", "descent")
ERROR_KINDS = ("SolverFailure", "RouteDisagreement", "HorizonExhausted", "ZeroOrbit",
               "LinearDependence", "ConfigError", "TruncationTooSmall")


def _route(name, args, kwargs):
    """Solver route a distance call takes, read from p and the field.

    Mirrors the dispatch in subspace.py: the unweighted Euclidean
    incremental distance is a projection (no route); p = 2 otherwise is
    least squares; real p in {1, inf} is the LP; the rest is descent.
    """
    if name not in ("distance", "distance_batch_oracle", "distance_convex_descent"):
        return None
    e, vecs = args[0], args[1]
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    p = 2.0 if spec is None else spec.p
    if name == "distance":
        if spec is None or spec.is_euclidean or vecs.rank == 0:
            return None
        vecs = vecs.ortho
    if len(vecs) == 0:
        return None
    if name == "distance_convex_descent":
        return "descent"
    if p == 2.0:
        return "lstsq"
    complex_field = np.iscomplexobj(e) or any(np.iscomplexobj(v) for v in vecs)
    if p in (1.0, math.inf) and not complex_field:
        return "lp"
    return "descent"


def _tableau_bytes(args, kwargs):
    """Dense tableau size solve_standard_lp allocates, from the A_eq shape."""
    m, n = np.shape(args[1])
    cols = n + 1 if kwargs.get("basis") is not None else n + m + 1
    return (m + 1) * cols * 8


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, tag, error]
        self.stack = []
        self.op = None
        self.swaps = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        short = name.split(".", 1)[1]

        def traced(*args, **kwargs):
            if short == "solve_standard_lp":
                tag = _tableau_bytes(args, kwargs)
            else:
                tag = _route(short, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, tag, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _swaps(self):
        """(module, attribute, original, wrapper) for every binding to wrap."""
        modules = [m for k, m in sys.modules.items() if k == "orbitgap" or k.startswith("orbitgap.")]
        swaps = []
        for layer, names in LAYERS.items():
            owner = sys.modules[f"orbitgap.{layer}"]
            for short in names:
                original = getattr(owner, short)
                wrapper = self._wrap(f"{layer}.{short}", original)
                for mod in modules:
                    swaps += [(mod, attr, original, wrapper)
                              for attr, value in vars(mod).items() if value is original]
        return swaps

    def install(self):
        """Wrap every listed function wherever an orbitgap module binds it."""
        if not self.swaps:
            self.swaps = self._swaps()
        for mod, attr, _, wrapper in self.swaps:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self.swaps:
            setattr(mod, attr, original)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for name, t0, t1, parent, op, tag, error in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "op": op, "tag": tag, "error": error}) + "\n")


def layer_metrics(spans, ops):
    """Per-layer metrics from spans of the traced pass and its op results.

    Calls and self seconds are per op; self time is a span's duration
    minus the time its direct child spans cover.
    """
    n_ops = max(len(ops), 1)
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, self_s = {}, {}
    route_calls = dict.fromkeys(ROUTES, 0)
    route_self = dict.fromkeys(ROUTES, 0.0)
    lp_failures, tableau = 0, 0
    accepted = scored = 0
    outer = 0.0
    for i, (name, t0, t1, parent, op, tag, error) in enumerate(spans):
        own = (t1 - t0) - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if tag in route_calls:
            route_calls[tag] += 1
            route_self[tag] += own
        if name == "simplex.solve_standard_lp":
            tableau = max(tableau, tag)
            lp_failures += error is not None
        if name == "subspace.distance_if_extended":
            scored += 1
        if name == "subspace.extend" and parent >= 0 and spans[parent][0] == "extractor.extract_subsequence":
            accepted += 1  # one extend per certified index
        if parent < 0 and op is not None:
            outer += t1 - t0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_fn(name, with_calls=True):
        if with_calls:
            put(f"{name}.calls", calls.get(name, 0) / n_ops, "count/op")
        put(f"{name}.self_s", self_s.get(name, 0.0) / n_ops, "s/op")

    per_fn("operators.apply")
    for short in LAYERS["subspace"]:
        per_fn(f"subspace.{short}")
    for route in ROUTES:
        put(f"subspace.route.{route}.calls", route_calls[route] / n_ops, "count/op")
        put(f"subspace.route.{route}.self_s", route_self[route] / n_ops, "s/op")
    per_fn("simplex.solve_standard_lp")
    put("simplex.solve_standard_lp.failures", lp_failures / n_ops, "count/op")
    put("simplex.solve_standard_lp.tableau_mb", tableau / 1e6, "MB-computed")
    for layer in ("dynamics", "extractor", "records"):
        for short in LAYERS[layer]:
            per_fn(f"{layer}.{short}", with_calls=False)
    put("extractor.useful_ratio", accepted / scored if scored else 0.0, "1")
    sizes = [op.steps["bytes"] for op in ops if "bytes" in op.steps]
    put("records.certificate_bytes", sum(sizes) / len(sizes) if sizes else 0.0, "bytes")
    kinds = [op.error for op in ops if op.failed]
    for kind in ERROR_KINDS:
        put(f"errors.{kind}.count", kinds.count(kind), "count")
    put("errors.other.count", sum(k not in ERROR_KINDS for k in kinds), "count")
    put("fail_ratio", len(kinds) / n_ops, "1")
    op_time = sum(op.seconds for op in ops)
    put("trace.coverage", outer / op_time if op_time else 0.0, "1")
    return out
