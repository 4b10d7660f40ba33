"""Seeded Monte Carlo averages of pointwise counters over convex bodies.

A counter is a batch function ``fn(body, pts) -> (values, flags)``: the
names "normals" and "diameters" resolve to the batch counters of
``normals`` and ``diameters``, and ``minkowski_counter(M)`` builds one for a
norm ball.  Every average evaluates its counter on whole arrays of points.

Sample ``i`` is always the ``i``-th accepted candidate of a counter-based
RNG stream keyed by the seed, so a report is a pure function of
``(body, counter, n, seed)``.  Degenerate query points (flagged by the
counters; they form a null set) are replaced by continuing the same stream,
with a hard 1% cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies2d import (Polygon2, bounding_box, inradius_scale,
                       sample_boundary2, sample_interior2,
                       signed_boundary_excess, unit)
from .bodies3d import Polytope3, sample_interior3
from .diameters import diameter_counts_batch, parallel_antipodal_edge_pairs
from .errors import (DomainError, InfiniteDiametersError, TooSingularError,
                     UnsupportedCombinationError)
from .normals import count_normals2_batch, count_normals3_batch


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo summary: mean, standard error, normal 95% CI."""

    mean: float
    std_error: float
    ci95: tuple[float, float]
    samples_used: int
    degenerate_resampled: int
    exact: float | None = None


def _normals(body, pts):
    if isinstance(body, Polytope3):
        total, _parts, flags = count_normals3_batch(body, pts)
    else:
        total, _stable, flags = count_normals2_batch(body, pts)
    return total.astype(float), flags


def _diameters(body, pts):
    # decided from the polygon: the trapezoid of a parallel pair can be too
    # thin for any sample to land in it, and the mean is infinite regardless
    if isinstance(body, Polygon2):
        pairs = parallel_antipodal_edge_pairs(body)
        if pairs:
            j, l = pairs[0]
            raise InfiniteDiametersError(
                f"edges {j} and {l} are parallel and antipodal: a positive-measure "
                "set of interior points lies on infinitely many affine diameters",
                pair=(j, l))
    counts, flags = diameter_counts_batch(body, pts)
    return counts.astype(float), flags


def resolve_counter(counter):
    """Map a counter name or callable to ``fn(body, pts) -> (values, flags)``."""
    if callable(counter):
        return counter
    if counter == "normals":
        return _normals
    if counter == "diameters":
        return _diameters
    if counter == "minkowski":
        raise UnsupportedCombinationError(
            "the minkowski counter needs a norm ball: pass minkowski_counter(M)")
    raise UnsupportedCombinationError(f"unknown counter {counter!r}")


def _closed_form(body, counter):
    if counter == "normals" and isinstance(body, Polygon2):
        from .wedges import exact_average_normals

        return exact_average_normals(body)[1]
    return None


def _report(vals: np.ndarray, n: int, resampled: int, exact) -> EstimateReport:
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    return EstimateReport(mean, se, (mean - 1.96 * se, mean + 1.96 * se),
                          n, resampled, exact)


def _run_with_resampling(draw, fn, body, n: int,
                         max_degenerate_frac: float) -> tuple[np.ndarray, int]:
    """Evaluate the counter at n stream points, replacing degenerate ones by
    continuing the stream deterministically."""
    pts = draw(n)
    vals, degen = fn(body, pts)
    vals = np.asarray(vals, dtype=float).copy()
    degen = np.asarray(degen, dtype=bool).copy()
    resampled = 0
    taken = n
    while degen.any():
        k = int(degen.sum())
        resampled += k
        if resampled > max_degenerate_frac * n:
            raise TooSingularError(
                f"{resampled} of {n} sampled points were degenerate "
                f"(cap {max_degenerate_frac:.0%}); the body's degeneracy locus "
                "is too fat to average over")
        fresh = draw(taken + k)[taken:]
        taken += k
        new_vals, new_degen = fn(body, fresh)
        idx = np.flatnonzero(degen)
        vals[idx] = np.asarray(new_vals, dtype=float)
        degen[idx] = np.asarray(new_degen, dtype=bool)
    return vals, resampled


def estimate_interior_average(body, counter, n: int, seed: int, *,
                              box=None,
                              max_degenerate_frac: float = 0.01) -> EstimateReport:
    """Mean of a pointwise counter over n uniform interior points."""
    if n < 100:
        raise DomainError("estimate_interior_average needs n >= 100")
    fn = resolve_counter(counter)

    if isinstance(body, Polytope3):
        def draw(m):
            return sample_interior3(body, m, seed, box=box)
    else:
        def draw(m):
            return sample_interior2(body, m, seed, box=box)

    vals, resampled = _run_with_resampling(draw, fn, body, n, max_degenerate_frac)
    return _report(vals, n, resampled, _closed_form(body, counter))


def estimate_boundary_average(body, counter, n: int, seed: int, *,
                              eps: float = 1e-7,
                              max_degenerate_frac: float = 0.01) -> EstimateReport:
    """Mean of a counter over n boundary points uniform in arc length.

    Counters are defined on the open interior, so each boundary point is
    nudged inward by ``eps * inradius`` along its inner normal; ``eps`` is the
    limit convention, exposed for sensitivity checks.
    """
    if n < 100:
        raise DomainError("estimate_boundary_average needs n >= 100")
    if isinstance(body, Polytope3):
        raise UnsupportedCombinationError("boundary averages are planar-only")
    fn = resolve_counter(counter)
    depth = eps * inradius_scale(body)

    def draw(m):
        pts, ang = sample_boundary2(body, m, seed)
        return pts - depth * unit(ang)

    vals, resampled = _run_with_resampling(draw, fn, body, n, max_degenerate_frac)
    return _report(vals, n, resampled, None)


def field_map(body, grid: tuple[int, int], counter="normals") -> np.ndarray:
    """Counter values on a bounding-box raster: outside -1, degenerate -2.

    Returns an (ny, nx) integer matrix; row iy corresponds to ascending y.
    """
    nx, ny = grid
    if nx < 2 or ny < 2:
        raise DomainError("field_map needs a grid of at least 2x2")
    if isinstance(body, Polytope3):
        raise UnsupportedCombinationError("field maps are planar-only")
    fn = resolve_counter(counter)
    (x0, y0), (x1, y1) = bounding_box(body)
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    scale = max(x1 - x0, y1 - y0)
    inside = signed_boundary_excess(body, pts) < -1e-12 * scale
    out = np.full(len(pts), -1, dtype=int)
    if inside.any():
        vals, degen = fn(body, pts[inside])
        cells = np.asarray(np.rint(vals), dtype=int)
        cells[np.asarray(degen, dtype=bool)] = -2
        out[inside] = cells
    return out.reshape(ny, nx)
