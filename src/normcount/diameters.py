"""Affine diameters of planar convex bodies.

A chord is an affine diameter when the body admits parallel supporting lines
at its two endpoints.  ``diameter_counts_batch`` is the one counter, for
smooth bodies and polygons alike; the scalar counts are one-point calls of
it.  A one-point and a many-point matmul can round differently, so the two
can disagree on a flag for a point within an ulp of the edge of a flag band.

For a smooth strictly convex body the chord with supporting-line direction
``theta`` joins the boundary points with outer normal angles
``theta + pi/2`` and ``theta + 3*pi/2``; the diameters through a point ``p``
are the roots in ``phi`` of the line function (``SmoothBody2.lines``)

    G(phi) = cross(r(phi + pi) - r(phi), p - r(phi)),

which satisfies G(phi + pi) = -G(phi), so each diameter is a single sign
change of G on [0, pi).  G is a trigonometric polynomial of degree
2*deg h + 2; its roots are counted by the certified kernel of ``trigcount``.

A polygon has one diameter through p for each antipodal vertex--edge pair
(edge j's inward normal lies in vertex i's normal cone) whose triangle
contains p; a pair of parallel antipodal edges carries a continuum of
diameters through every point strictly inside their trapezoid, reported as
``INFINITE``.

A point whose count is not certified is flagged and its count is
DEGENERATE, never a best effort: on a polygon, a point within the rounding
allowance of a triangle side, where the count jumps; on a smooth body, a
point where G vanishes (the centre of a disk) or whose roots the kernel
cannot certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies2d import Polygon2, SmoothBody2, cross2, require_interior, require_smooth
from .errors import UnsupportedCombinationError
from .trigcount import DEGENERATE, count_roots, row_blocks

INFINITE = math.inf


@dataclass(frozen=True)
class DiameterChord:
    """An affine diameter: endpoints on the boundary with parallel supporting
    lines of direction angle ``direction_angle``."""

    endpoints: np.ndarray  # (2, 2)
    direction_angle: float
    length: float


def diameter_chord(body: SmoothBody2, theta: float) -> DiameterChord:
    """The affine diameter whose supporting lines have direction ``theta``."""
    require_smooth(body, "diameter_chord")
    phi = theta + 0.5 * np.pi
    p0 = body.boundary(np.array([phi]))[0]
    p1 = body.boundary(np.array([phi + np.pi]))[0]
    return DiameterChord(np.array([p0, p1]), float(theta), float(np.linalg.norm(p1 - p0)))


def _antipodal(P: Polygon2):
    """(k, k) masks: vertex i and edge j are antipodal (edge j's inward
    normal lies in vertex i's normal cone), and edges j < l are parallel
    with opposite outer normals."""
    n = P.edge_normals
    m = -n[None, :, :]
    cone = ((cross2(np.roll(n, 1, axis=0)[:, None, :], m) >= -1e-12)
            & (cross2(m, n[:, None, :]) >= -1e-12))
    opposite = n[:, None, 0] * n[None, :, 0] + n[:, None, 1] * n[None, :, 1] < 0.0
    parallel = np.triu((np.abs(cross2(n[:, None, :], n[None, :, :])) <= 1e-12) & opposite, 1)
    return cone, parallel


def parallel_antipodal_edge_pairs(P: Polygon2) -> list[tuple[int, int]]:
    """Index pairs of parallel edges with opposite outer normals."""
    return [(int(j), int(l)) for j, l in zip(*np.nonzero(_antipodal(P)[1]))]


def _lowest_side(corners: list[np.ndarray], pts: np.ndarray) -> np.ndarray:
    """min over the sides (a, b) of CCW polygons of cross(b - a, p - a), per
    point and polygon; ``corners`` lists the polygons' corners in order, one
    (polygons, 2) array per corner.  Computed in place, so that it holds
    three (points, polygons) arrays at a time."""
    low = None
    for a, b in zip(corners, corners[1:] + corners[:1]):
        e = b - a
        s = np.subtract.outer(pts[:, 1], a[:, 1])
        s *= e[:, 0]
        dx = np.subtract.outer(pts[:, 0], a[:, 0])
        dx *= e[:, 1]
        s -= dx
        low = s if low is None else np.minimum(low, s, out=low)
    return low


def _polygon_counts(P: Polygon2, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, flags) of a polygon: one diameter per antipodal triangle
    holding the point strictly, flagged within the allowance of a triangle
    side, INFINITE (and not flagged) strictly inside a parallel antipodal
    edge trapezoid."""
    v = P.vertices
    k = len(v)
    cone, parallel = _antipodal(P)
    i, j = np.nonzero(cone)
    # CCW: vertex i lies on the inner side of edge j
    tris = [v[i], v[j], v[(j + 1) % k]]
    j, l = np.nonzero(parallel)
    # CCW: four vertices of the polygon in its order
    quads = [v[j], v[(j + 1) % k], v[l], v[(l + 1) % k]]
    tol = 1e-12 * P.scale * P.scale
    counts = np.empty(len(pts))
    flags = np.empty(len(pts), dtype=bool)
    for rows in row_blocks(len(pts), len(tris[0])):
        low = _lowest_side(tris, pts[rows])
        flag = np.any(np.abs(low) <= tol, axis=1)
        count = np.where(flag, DEGENERATE, np.count_nonzero(low > tol, axis=1))
        infinite = np.any(_lowest_side(quads, pts[rows]) > tol, axis=1)
        counts[rows] = np.where(infinite, INFINITE, count)
        flags[rows] = flag & ~infinite
    return counts, flags


def diameter_counts_batch(body, pts) -> tuple[np.ndarray, np.ndarray]:
    """Count affine diameters through each point; flag degenerate queries.

    Returns (counts, flags); counts are DEGENERATE where flags is set.  A
    smooth body's roots of G are counted over the full circle and halved.
    A polygon's counts are floats: INFINITE, and never flagged, strictly
    inside a parallel antipodal edge trapezoid.  Its allowance is
    1e-12*scale**2 on the triangle cross products, and its points run in
    blocks of at most ``_BLOCK`` point times triangle entries, so memory
    does not grow with the number of points.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, Polygon2):
        return _polygon_counts(body, pts)
    if isinstance(body, SmoothBody2):
        total, _, flags = count_roots(
            lambda q, phis: body.lines(q, phis, body.boundary(phis + np.pi) - body.boundary(phis)),
            pts, 2 * body.degree + 2, body.scale**2)
        return np.where(flags, DEGENERATE, total // 2), flags
    raise UnsupportedCombinationError(
        f"affine-diameter counting is not available for {type(body).__name__}")


def count_diameters(body, p) -> float:
    """Number of affine diameters through interior ``p``: the one-point
    ``diameter_counts_batch``, so DEGENERATE where it flags ``p`` and
    INFINITE inside a polygon's parallel antipodal edge trapezoid."""
    if not isinstance(body, (Polygon2, SmoothBody2)):
        raise UnsupportedCombinationError(
            f"affine-diameter counting is not available for {type(body).__name__}")
    counts, _ = diameter_counts_batch(body, require_interior(body, p)[None, :])
    return float(counts[0])


def count_diameters_polygon(P: Polygon2, p) -> float:
    """Number of affine diameters of a polygon through interior ``p``."""
    return count_diameters(P, p)


def average_diameters(body, n: int, seed: int):
    """Monte Carlo mean of the diameter count over uniform interior points.

    Raises InfiniteDiametersError for a polygon with parallel antipodal
    edges, whose mean is infinite."""
    from .averaging import estimate_interior_average

    return estimate_interior_average(body, "diameters", n, seed)
