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
change of G on [0, pi).  G is a trigonometric polynomial of degree 2*deg h
(at least 1); its table is padded to the bound 2*deg h + 2, whose start
grid and rounding allowance the kernel uses, and its roots are counted by
the certified kernel of ``trigcount``.

A polygon has one diameter through p for each antipodal vertex--edge pair
(edge j's inward normal lies in vertex i's normal cone) whose triangle
contains p; a pair of parallel antipodal edges carries a continuum of
diameters through every point strictly inside their trapezoid, reported as
``INFINITE``.  The sides of these triangles and trapezoids are one table per
polygon, ``Polygon2.antipodal``.

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

from .bodies2d import Polygon2, SmoothBody2, require_interior, require_smooth
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


def _lines(body: SmoothBody2) -> np.ndarray:
    """The line table of d = r(phi + pi) - r(phi), whose Laurent
    coefficients are R_e ((-1)^e - 1): -2 R_e at odd e, 0 at even e."""
    N = body.degree
    return body.lines(body.R * np.where(np.arange(1 - N, 2 + N) % 2, -2.0, 0.0),
                      1 - N, 2 * N + 2)


def parallel_antipodal_edge_pairs(P: Polygon2) -> list[tuple[int, int]]:
    """Index pairs of parallel edges with opposite outer normals."""
    return [(int(j), int(l)) for j, l in P.antipodal[1]]


def _polygon_counts(P: Polygon2, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts, flags) of a polygon: one diameter per antipodal triangle
    holding the point strictly, flagged within the allowance of a triangle
    side, INFINITE (and not flagged) strictly inside a parallel antipodal
    edge trapezoid.  Per block of points the ``Polygon2.antipodal`` table
    is one matmul, reduced over each triangle's 3 rows and each
    trapezoid's 4."""
    sides, pairs = P.antipodal
    tris = (len(sides) - 4 * len(pairs)) // 3
    tol = 1e-12 * P.scale * P.scale
    counts = np.empty(len(pts))
    flags = np.empty(len(pts), dtype=bool)
    for rows in row_blocks(len(pts), len(sides)):
        n = len(pts[rows])
        vals = sides @ np.vstack([pts[rows].T, np.ones(n)])
        low = np.min(vals[:3 * tris].reshape(tris, 3, n), axis=1)
        flag = np.any(np.abs(low) <= tol, axis=0)
        count = np.where(flag, DEGENERATE, np.count_nonzero(low > tol, axis=0))
        trapezoids = vals[3 * tris:].reshape(len(pairs), 4, n)
        infinite = np.any(np.min(trapezoids, axis=1) > tol, axis=0)
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
    blocks of at most ``_BLOCK`` point times table row entries, so memory
    does not grow with the number of points.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, Polygon2):
        return _polygon_counts(body, pts)
    if isinstance(body, SmoothBody2):
        total, _, flags = count_roots(_lines(body), pts, body.scale**2)
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
