"""Exact face-wedge decomposition of planar convex polygons.

Every normal of a convex polygon through an interior point has its foot
either on an open edge or at a vertex.  The locus of interior points whose
foot lies on a fixed face is that face's *wedge*:

* edge wedge  -- the band 0 <= t_i <= 1 over edge i;
* vertex wedge -- the inward normal cone t_i >= 0, t_{i-1} <= 1 at vertex i.

Here t_i(x) = x . t_normals[i] - t_offsets[i] is the edge parameter of
``Polygon2`` (0 at v_i, 1 at v_{i+1}) that ``normals._polygon_faces`` tests,
so every wedge is the polygon clipped to two of its lines and measured by
the shoelace formula.  The mean number of normals over the interior is then
a finite sum of areas -- no sampling and no quadrature error.

The 3D twin, ``exact_average_normals3``, uses the Morse form instead.  On a
polytope P a facet foot is a stable equilibrium, an edge foot a saddle and a
vertex foot an unstable one, and stable - saddle + unstable = 2 at every
interior point, so the count is 2 + 2 * (edge feet).  Hence the mean is
2 + 2 * sum_e vol(R_e) / vol(P), where R_e, the region in which edge e
carries a foot, is P cut by the edge's rows of ``Polytope3.edge_sides``
that ``normals.count_normals3_batch`` tests, and measured by qhull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection

from .bodies2d import (Polygon2, _shoelace, minkowski_sum_polygons,
                       reflect_polygon, symmetric_under_negation)
from .bodies3d import PLANARITY_RTOL, Polytope3, measure3d
from .errors import DegenerateBodyError, DomainError


@dataclass(frozen=True)
class Wedge:
    """One face's wedge: ``region`` is U_F (CCW vertex array), exact area."""

    face: tuple  # ("edge", i) or ("vertex", i)
    region: np.ndarray
    area: float
    parity: int  # +1 for edges, -1 for vertices


def clip_halfplane(verts: np.ndarray, normal, offset: float) -> np.ndarray:
    """Clip a convex CCW polygon to the half-plane <x, normal> >= offset."""
    if len(verts) == 0:
        return verts
    normal = np.asarray(normal, dtype=float)
    s = verts @ normal - offset
    keep = s >= 0.0
    out = []
    k = len(verts)
    for i in range(k):
        j = (i + 1) % k
        if keep[i]:
            out.append(verts[i])
        if keep[i] != keep[j]:
            t = s[i] / (s[i] - s[j])
            out.append(verts[i] + t * (verts[j] - verts[i]))
    if not out:
        return np.zeros((0, 2))
    return np.asarray(out)


def polygon_intersection_area(averts: np.ndarray, bverts: np.ndarray) -> float:
    """Area of the intersection of two convex CCW polygons."""
    region = np.asarray(averts, dtype=float)
    b = np.asarray(bverts, dtype=float)
    k = len(b)
    for i in range(k):
        e = b[(i + 1) % k] - b[i]
        inward = np.array([-e[1], e[0]])  # left of the directed edge
        region = clip_halfplane(region, inward, float(inward @ b[i]))
        if len(region) < 3:
            return 0.0
    return _shoelace(region)


def _face_wedge(P: Polygon2, face: tuple, hi: int, parity: int) -> Wedge:
    """P clipped to t_i >= 0 and t_hi <= 1, for the face (kind, i)."""
    kind, i = face
    if not 0 <= i < len(P):
        raise DomainError(f"{kind} index {i} out of range for {len(P)}-gon")
    region = clip_halfplane(P.vertices, P.t_normals[i], P.t_offsets[i])
    region = clip_halfplane(region, -P.t_normals[hi], -1.0 - P.t_offsets[hi])
    return Wedge(face, region, _shoelace(region), parity)


def edge_wedge(P: Polygon2, i: int) -> Wedge:
    """Wedge of edge i: the band 0 <= t_i <= 1 between the perpendiculars at
    its endpoints."""
    return _face_wedge(P, ("edge", i), i, +1)


def vertex_wedge(P: Polygon2, i: int) -> Wedge:
    """Wedge of vertex i: t_i >= 0 and t_{i-1} <= 1, the points p for which
    v - p lies in the outward normal cone at v."""
    return _face_wedge(P, ("vertex", i), i - 1, -1)


def all_wedges(P: Polygon2) -> list[Wedge]:
    return [edge_wedge(P, i) for i in range(len(P))] + [vertex_wedge(P, i) for i in range(len(P))]


def exact_average_normals(P: Polygon2) -> tuple[float, float]:
    """Return (I, n): the integral of the normal count and its interior mean."""
    I = sum(w.area for w in all_wedges(P))
    return I, I / P.area()


def exact_average_normals3(poly: Polytope3) -> tuple[float, float]:
    """Return (I, n) for a polytope: n = 2 + 2 * sum of vol(R_e) / vol(P).

    R_e is P cut by edge e's rows of ``Polytope3.edge_sides`` and by 1 - t,
    measured by qhull from an interior point found in closed form
    (``_edge_interior_point``).  Facet and vertex regions are not needed.
    An edge between two facets of one plane, |n1 x n2| <= PLANARITY_RTOL
    (a square face given as two triangles), is no crease: its slab sides
    coincide, so R_e has volume 0 and the edge is skipped.
    """
    vol = measure3d(poly)["volume"]
    facets = np.column_stack([-poly.facet_normals, poly.facet_offsets])
    n1, n2 = poly.facet_normals[poly.edge_facets.T]
    creases = np.linalg.norm(np.cross(n1, n2), axis=1) > PLANARITY_RTOL
    I = 2.0 * vol
    for e in np.flatnonzero(creases):
        sides = poly.edge_sides[e]
        rows = np.vstack([facets, sides, [0.0, 0.0, 0.0, 1.0] - sides[0]])
        inside = _edge_interior_point(poly, e, rows)
        # a row holds where [x, 1] @ row >= 0, qhull's half-spaces where <= 0
        I += 2.0 * ConvexHull(HalfspaceIntersection(-rows, inside).intersections).volume
    return I, I / vol


def _edge_interior_point(poly: Polytope3, e: int, rows: np.ndarray) -> np.ndarray:
    """A point strictly inside every row: from the edge's midpoint, half the
    step along -(n1 + n2) at which the first falling row reaches 0.

    For an edge whose facet normals n1, n2 are not parallel, -(n1 + n2)
    lies strictly inside both the edge's normal cone and P's tangent cone at
    the edge, so every row that is 0 at the midpoint rises.
    DegenerateBodyError if rounding leaves the point within 1e-12*scale of a
    row's plane, which qhull would not reliably reject.
    """
    mid = poly.vertices[poly.edges[e]].mean(axis=0)
    d = -poly.facet_normals[poly.edge_facets[e]].sum(axis=0)
    value, slope = rows[:, :3] @ mid + rows[:, 3], rows[:, :3] @ d
    falling = slope < 0.0
    x = mid + 0.5 * np.min(value[falling] / -slope[falling]) * d
    distance = (rows[:, :3] @ x + rows[:, 3]) / np.linalg.norm(rows[:, :3], axis=1)
    if not np.all(distance > 1e-12 * poly.scale):
        raise DegenerateBodyError(f"edge {e}'s normal region has no certified interior point")
    return x


def euler_residual(P: Polygon2) -> float:
    """Signed wedge-area alternating sum over faces, normalized; zero for all
    valid polygons (the boundary distance function has as many minima as
    maxima from every interior point)."""
    return sum(w.parity * w.area for w in all_wedges(P)) / P.area()


def reflected_wedge(P: Polygon2, w: Wedge) -> np.ndarray:
    """Reflect a wedge about its face's affine hull (edge line / vertex point).

    The reflected wedges of distinct faces are pairwise non-overlapping and,
    together with the polygon itself, tile 2P - P.
    """
    kind, i = w.face
    region = w.region
    if kind == "vertex":
        # point reflection preserves orientation
        return 2.0 * P.vertices[i] - region
    a = P.vertices[i]
    b = P.vertices[(i + 1) % len(P.vertices)]
    e = (b - a) / np.linalg.norm(b - a)
    d = region - a
    out = a + 2.0 * np.outer(d @ e, e) - d
    return out[::-1]  # line reflection flips orientation; restore CCW


def is_centrally_symmetric(P: Polygon2) -> bool:
    """Is the vertex set symmetric about its mean (the centre of a symmetric
    set), to 1e-9*scale?"""
    return symmetric_under_negation(P.vertices - P.vertices.mean(axis=0), 1e-9 * P.scale)


def wedge_fill_deficiency(P: Polygon2) -> float:
    """area(2P - P) - area(P) - sum of wedge areas, for symmetric P.

    Nonnegative; zero exactly when the mean normal count attains 8 (the
    reflected wedges then fill 2P - P with no gap).
    """
    if not is_centrally_symmetric(P):
        raise DomainError("wedge_fill_deficiency requires a centrally symmetric polygon")
    doubled = Polygon2(2.0 * P.vertices)
    big = minkowski_sum_polygons(doubled, reflect_polygon(P))
    I, _ = exact_average_normals(P)
    return big.area() - P.area() - I
