"""Spans around calls into normcount's public functions, from outside.

``Tracer.install`` wraps each traced function and puts the wrapper on every
``normcount`` module namespace that binds the original, because
``from .bodies2d import contains2`` copies the binding into ``normals``.  A
span is (name, start, end, parent span, job id, counts); spans stay in
memory and are written out once, at the end of the run.  A layer's self time
is its span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _kind(body) -> str:
    return {"Polygon2": "polygon", "SmoothBody2": "smooth",
            "ArcBody2": "arc"}.get(type(body).__name__, type(body).__name__)


# module, function, variant(args) or None, counts(args, result) or None
TARGETS = [
    ("bodyspec", "parse_body", None, None),
    ("bodies2d", "sample_interior2", None, lambda a, r: {"points": len(r)}),
    ("bodies2d", "sample_boundary2", None, lambda a, r: {"points": len(r[0])}),
    ("bodies2d", "signed_boundary_excess", None, lambda a, r: {"points": len(r)}),
    ("bodies3d", "sample_interior3", None, lambda a, r: {"points": len(r)}),
    ("bodies3d", "contains3_batch", None, lambda a, r: {"points": len(r)}),
    ("normals", "count_normals2_batch", lambda a: _kind(a[0]),
     lambda a, r: {"points": len(r[0]), "flagged": int(r[2].sum())}),
    ("normals", "count_normals3_batch", None, lambda a, r: {"points": len(r[0])}),
    ("normals", "normal_feet2", lambda a: _kind(a[0]), None),
    ("normals", "count_normals3_by_dim", None, None),
    ("diameters", "diameter_counts_batch", None,
     lambda a, r: {"points": len(r[0]), "flagged": int(r[1].sum())}),
    ("diameters", "count_diameters_polygon", None, None),
    ("minkowski", "mink_counts_batch", None, lambda a, r: {"points": len(r[0])}),
    ("minkowski", "refine_mink_roots", None, None),
    ("minkowski", "hexagon_ratio_tau", None, None),
    ("minkowski", "gauge_batch", None, lambda a, r: {"points": len(r)}),
    ("averaging", "estimate_interior_average", None,
     lambda a, r: {"samples_used": r.samples_used, "resampled": r.degenerate_resampled}),
    ("averaging", "estimate_boundary_average", None, None),
    ("flows", "evolve_flow", None, None),
    ("wedges", "exact_average_normals", None, None),
    ("evolute", "contains_evolute", None, None),
    ("cli", "run", None, None),
]

KINDS = ("polygon", "smooth", "arc")

# metric name -> (span name, field); field is "s" (outermost span time),
# "self_s", "calls" or a count recorded by the span
PER_LAYER = {"bodyspec.parse_body.s": ("bodyspec.parse_body", "s")}
for _span, _fields in [
        ("bodies2d.sample_interior2", ("s", "points")),
        ("bodies2d.sample_boundary2", ("s", "points")),
        ("bodies2d.signed_boundary_excess", ("s", "points")),
        ("bodies3d.sample_interior3", ("s",)),
        ("bodies3d.contains3_batch", ("points",)),
        *[(f"normals.count_normals2_batch.{k}", ("s", "points", "flagged")) for k in KINDS],
        ("normals.count_normals3_batch", ("s", "points")),
        *[(f"normals.normal_feet2.{k}", ("calls", "s")) for k in KINDS],
        ("normals.count_normals3_by_dim", ("s",)),
        ("diameters.diameter_counts_batch", ("s", "points", "flagged")),
        ("diameters.count_diameters_polygon", ("calls", "s")),
        ("minkowski.mink_counts_batch", ("s", "points")),
        ("minkowski.refine_mink_roots", ("s",)),
        ("minkowski.hexagon_ratio_tau", ("s",)),
        ("minkowski.gauge_batch", ("calls", "points", "s")),
        ("averaging.estimate_interior_average", ("calls", "self_s", "samples_used", "resampled")),
        ("averaging.estimate_boundary_average", ("s",)),
        ("flows.evolve_flow", ("s", "self_s")),
        ("wedges.exact_average_normals", ("calls", "s")),
        ("evolute.contains_evolute", ("s",)),
        ("cli.run", ("self_s",))]:
    for _field in _fields:
        PER_LAYER[f"{_span}.{_field}"] = (_span, _field)
ACCEPT_RATIO = "bodies2d.accept_ratio"  # points sampled / candidates tested
OVERHEAD = "trace.overhead_s"  # traced minus untraced wall_s


def unit_of(metric: str) -> str:
    if metric == ACCEPT_RATIO:
        return "ratio"
    if metric == OVERHEAD or PER_LAYER[metric][1] in ("s", "self_s"):
        return "s"
    return "count"


def metric_names() -> list[str]:
    return [*PER_LAYER, ACCEPT_RATIO, OVERHEAD]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, variant, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name if variant is None else f"{name}.{variant(args)}", 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.job, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result
        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "normcount" or key.startswith("normcount."))]
        for mod_name, fn_name, variant, counts in TARGETS:
            if f"normcount.{mod_name}" not in sys.modules:  # e.g. cli, outside `report`
                continue
            orig = getattr(sys.modules[f"normcount.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, variant, counts)
            for m in modules:
                if vars(m).get(fn_name) is orig:
                    self._patches.append((m, fn_name, orig))
                    setattr(m, fn_name, wrapper)

    def uninstall(self):
        for m, fn_name, orig in reversed(self._patches):
            setattr(m, fn_name, orig)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer values over every span recorded so far."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def has_ancestor(i, pred):
            j = spans[i][3]
            while j >= 0:
                if pred(spans[j]):
                    return True
                j = spans[j][3]
            return False

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)
        out = {}
        for metric, (span_name, field) in PER_LAYER.items():
            idx = by_name.get(span_name, [])
            if field == "s":
                out[metric] = sum(dur[i] for i in idx
                                  if not has_ancestor(i, lambda p: p[0] == span_name))
            elif field == "self_s":
                out[metric] = sum(dur[i] - child[i] for i in idx)
            elif field == "calls":
                out[metric] = len(idx)
            else:
                out[metric] = sum((spans[i][5] or {}).get(field, 0) for i in idx)
        sampled = sum((s[5] or {}).get("points", 0) for s in spans
                      if s[0] == "bodies2d.sample_interior2")
        tested = sum((s[5] or {}).get("points", 0) for i, s in enumerate(spans)
                     if s[0] == "bodies2d.signed_boundary_excess"
                     and has_ancestor(i, lambda p: p[0] == "bodies2d.sample_interior2"))
        out[ACCEPT_RATIO] = sampled / tested if tested else 0.0
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                                     "job": s[4], "counts": s[5]}) + "\n")
