"""Averages of pointwise counters over convex bodies: exact where a closed
form is implemented, and seeded Monte Carlo (MC) always, as the fallback and
the cross-check.

A counter is a batch function ``fn(body, pts) -> (values, flags)``: the
names "normals" and "diameters" resolve to the batch counters of
``normals`` and ``diameters``, and ``minkowski_counter(M)`` builds one for a
norm ball.  Every MC average evaluates its counter on whole arrays of
points.  ``exact_average`` gives the interior mean of the normal count of
polygons, smooth bodies, arc bodies and polytopes, which
``estimate_interior_average`` reports next to its MC mean, as the boundary
average does n_surf.

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

from .bodies2d import (INTERIOR_RTOL, ArcBody2, Polygon2, SmoothBody2,
                       bounding_box, contains2_batch, measure2d, sample_boundary2,
                       sample_interior2, unit)
from .bodies3d import Polytope3, sample_interior3
from .diameters import diameter_counts_batch, parallel_antipodal_edge_pairs
from .errors import (DomainError, InfiniteDiametersError, TooSingularError,
                     UnsupportedCombinationError)
from .evolute import normal_means
from .normals import count_normals2_batch, count_normals3_batch
from .rng import require_count
from .wedges import exact_average_normals, exact_average_normals3

_MAX_DEGENERATE_FRAC = 0.01  # resampled points allowed, as a fraction of n
_BOUNDARY_DEPTH = 1e-7  # inward nudge of boundary samples, in area/perimeter


@dataclass(frozen=True)
class EstimateReport:
    """An interior or boundary average: the MC mean, standard error and
    normal 95% CI of its samples, and ``exact``, the exact mean where one
    is implemented (else None): ``exact_average`` inside (normals of
    polygons, smooth and arc bodies and polytopes), n_surf of
    ``normal_means`` on the boundary.  ``method`` names which of the two
    answers the question: "exact" or "mc"."""

    mean: float
    std_error: float
    ci95: tuple[float, float]
    samples_used: int
    degenerate_resampled: int
    exact: float | None = None

    @classmethod
    def from_values(cls, vals: np.ndarray, resampled: int,
                    exact: float | None = None) -> "EstimateReport":
        """Mean, standard error and 95% CI of the counter values vals."""
        n = len(vals)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        return cls(mean, se, (mean - 1.96 * se, mean + 1.96 * se), n, resampled, exact)

    @property
    def method(self) -> str:
        return "mc" if self.exact is None else "exact"


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


def exact_average(body, counter) -> float | None:
    """The exact interior mean of a counter, or None where none is
    implemented.  Normals only: polygons by their wedges
    (``exact_average_normals``), smooth and arc bodies by ``normal_means``,
    polytopes by their edge regions (``exact_average_normals3``)."""
    if counter != "normals":
        return None
    if isinstance(body, Polygon2):
        return exact_average_normals(body)[1]
    if isinstance(body, Polytope3):
        return exact_average_normals3(body)[1]
    if isinstance(body, (SmoothBody2, ArcBody2)):
        return normal_means(body)[0]
    return None


def _run_with_resampling(draw, fn, body, n: int) -> tuple[np.ndarray, int]:
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
        if resampled > _MAX_DEGENERATE_FRAC * n:
            raise TooSingularError(
                f"{resampled} of {n} sampled points were degenerate "
                f"(cap {_MAX_DEGENERATE_FRAC:.0%}); the body's degeneracy locus "
                "is too fat to average over")
        fresh = draw(taken + k)[taken:]
        taken += k
        new_vals, new_degen = fn(body, fresh)
        idx = np.flatnonzero(degen)
        vals[idx] = np.asarray(new_vals, dtype=float)
        degen[idx] = np.asarray(new_degen, dtype=bool)
    return vals, resampled


def estimate_interior_average(body, counter, n: int, seed: int) -> EstimateReport:
    """Mean of a pointwise counter over n uniform interior points, with the
    ``exact_average`` where there is one; the MC mean always runs, as the
    cross-check."""
    require_count(n, 100)
    fn = resolve_counter(counter)

    if isinstance(body, Polytope3):
        def draw(m):
            return sample_interior3(body, m, seed)
    else:
        def draw(m):
            return sample_interior2(body, m, seed)

    vals, resampled = _run_with_resampling(draw, fn, body, n)
    return EstimateReport.from_values(vals, resampled, exact_average(body, counter))


def estimate_boundary_average(body, counter, n: int, seed: int) -> EstimateReport:
    """Mean of a counter over n boundary points uniform in arc length.

    Counters are defined on the open interior, so each boundary point is
    nudged inward by 1e-7*A/P along its inner normal, the limit convention.
    With inradius r, r/2 <= A/P <= r (inner parallel bodies have perimeter
    at most P), so the depth is a length of the body, free of its position.
    Normals of a smooth or arc body have ``normal_means``'s exact n_surf.
    """
    require_count(n, 100)
    if isinstance(body, Polytope3):
        raise UnsupportedCombinationError("boundary averages are planar-only")
    fn = resolve_counter(counter)
    m = measure2d(body)
    depth = _BOUNDARY_DEPTH * m["area"] / m["perimeter"]

    def draw(m):
        pts, ang = sample_boundary2(body, m, seed)
        return pts - depth * unit(ang)

    vals, resampled = _run_with_resampling(draw, fn, body, n)
    exact = (normal_means(body)[1] if counter == "normals"
             and isinstance(body, (SmoothBody2, ArcBody2)) else None)
    return EstimateReport.from_values(vals, resampled, exact)


def field_map(body, grid: tuple[int, int], counter="normals") -> np.ndarray:
    """Counter values on a bounding-box raster: -1 where the cell is not a
    valid query point (the rule of ``require_interior``), degenerate -2.

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
    inside = contains2_batch(body, pts, tol=-INTERIOR_RTOL * body.scale)
    out = np.full(len(pts), -1, dtype=int)
    if inside.any():
        vals, degen = fn(body, pts[inside])
        cells = np.asarray(np.rint(vals), dtype=int)
        cells[np.asarray(degen, dtype=bool)] = -2
        out[inside] = cells
    return out.reshape(ny, nx)
