"""Exact face-wedge decomposition of planar convex polygons.

Every normal of a convex polygon through an interior point has its foot
either on an open edge or at a vertex.  The locus of interior points whose
foot lies on a fixed face is that face's *wedge*:

* edge wedge  -- the polygon clipped to the perpendicular band over the edge;
* vertex wedge -- the polygon clipped to the inward normal cone at the vertex.

Both are intersections of the polygon with two half-planes, so every wedge is
obtained by exact convex clipping and measured by the shoelace formula.  The
mean number of normals over the interior is then a finite sum of areas --
no sampling and no quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies2d import (Polygon2, minkowski_sum_polygons, reflect_polygon,
                       symmetric_under_negation)
from .errors import DomainError


@dataclass(frozen=True)
class Wedge:
    """One face's wedge: ``region`` is U_F (CCW vertex array), exact area."""

    face: tuple  # ("edge", i) or ("vertex", i)
    region: np.ndarray
    area: float
    parity: int  # +1 for edges, -1 for vertices


def _shoelace(verts: np.ndarray) -> float:
    if len(verts) < 3:
        return 0.0
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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


def edge_wedge(P: Polygon2, i: int) -> Wedge:
    """Wedge of edge i: the band between the perpendiculars at its endpoints."""
    k = len(P.vertices)
    if not 0 <= i < k:
        raise DomainError(f"edge index {i} out of range for {k}-gon")
    a = P.vertices[i]
    b = P.vertices[(i + 1) % k]
    e = b - a
    region = clip_halfplane(P.vertices, e, float(e @ a))
    region = clip_halfplane(region, -e, float(-e @ b))
    return Wedge(("edge", i), region, _shoelace(region), +1)


def vertex_wedge(P: Polygon2, i: int) -> Wedge:
    """Wedge of vertex i: points seeing the vertex inside its normal cone.

    A foot at vertex v serves point p exactly when v - p lies in the outward
    normal cone at v, i.e. when <p - v, w - v> >= 0 for both neighbours w.
    """
    k = len(P.vertices)
    if not 0 <= i < k:
        raise DomainError(f"vertex index {i} out of range for {k}-gon")
    v = P.vertices[i]
    nxt = P.vertices[(i + 1) % k]
    prv = P.vertices[(i - 1) % k]
    region = clip_halfplane(P.vertices, nxt - v, float((nxt - v) @ v))
    region = clip_halfplane(region, prv - v, float((prv - v) @ v))
    return Wedge(("vertex", i), region, _shoelace(region), -1)


def all_wedges(P: Polygon2) -> list[Wedge]:
    k = len(P.vertices)
    out = [edge_wedge(P, i) for i in range(k)]
    out += [vertex_wedge(P, i) for i in range(k)]
    return out


def exact_average_normals(P: Polygon2) -> tuple[float, float]:
    """Return (I, n): the integral of the normal count and its interior mean."""
    I = sum(w.area for w in all_wedges(P))
    return I, I / P.area()


def euler_residual(P: Polygon2) -> float:
    """Signed wedge-area alternating sum over faces, normalized; zero for all
    valid polygons (the boundary distance function has as many minima as
    maxima from every interior point)."""
    edges = sum(edge_wedge(P, i).area for i in range(len(P.vertices)))
    verts = sum(vertex_wedge(P, i).area for i in range(len(P.vertices)))
    return (edges - verts) / P.area() - 0.0


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
