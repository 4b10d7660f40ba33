"""Affine diameters of planar convex bodies.

A chord is an affine diameter when the body admits parallel supporting lines
at its two endpoints.  For a smooth strictly convex body the chord with
supporting-line direction ``theta`` joins the boundary points with outer
normal angles ``theta + pi/2`` and ``theta + 3*pi/2``; the diameters through
a point ``p`` are the roots in ``phi`` of the aligned-chord function

    G(phi) = cross(p - r(phi), r(phi + pi) - r(phi)),

which satisfies G(phi + pi) = -G(phi), so each diameter is a single sign
change of G on [0, pi).  G is a trigonometric polynomial of degree
2*deg h + 2; its roots are counted by the certified kernel of ``trigcount``,
and a point whose count cannot be certified is DEGENERATE, never a best
effort.  Polygons are handled combinatorially through their antipodal face
pairs; a pair of parallel antipodal edges carries a continuum of diameters,
reported as ``INFINITE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies2d import Polygon2, SmoothBody2, cross2, require_interior
from .errors import InfiniteDiametersError, UnsupportedCombinationError
from .trigcount import DEGENERATE, count_roots

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
    if not isinstance(body, SmoothBody2):
        raise UnsupportedCombinationError("diameter_chord requires a smooth body")
    phi = theta + 0.5 * np.pi
    p0 = body.boundary(np.array([phi]))[0]
    p1 = body.boundary(np.array([phi + np.pi]))[0]
    return DiameterChord(np.array([p0, p1]), float(theta), float(np.linalg.norm(p1 - p0)))


def _chord_g(body: SmoothBody2, pts: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """G[i, j] = cross(pts[i] - r(phis[j]), r(phis[j] + pi) - r(phis[j]))."""
    r0 = body.boundary(phis)
    d = body.boundary(phis + np.pi) - r0
    base = r0[:, 0] * d[:, 1] - r0[:, 1] * d[:, 0]
    return pts @ np.stack([d[:, 1], -d[:, 0]]) - base


def diameter_counts_batch(body: SmoothBody2, pts: np.ndarray,
                          base_grid: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Count affine diameters through each point; flag degenerate queries.

    Returns (counts, degenerate_mask).  G has degree N = 2*deg h + 2; the
    certified kernel of ``trigcount`` counts its roots over the full circle
    and the count is halved, since G(phi + pi) = -G(phi).  A query is
    DEGENERATE when G vanishes (e.g. the centre of a disk, which lies on
    every diameter) or its roots cannot be certified by the kernel's finest
    grid.  base_grid is the starting grid; it changes the speed only, never
    a count.
    """
    total, _, flags = count_roots(lambda q, phis: _chord_g(body, q, phis), pts,
                                  2 * body.degree + 2, body.scale**2, base_grid)
    return np.where(flags, DEGENERATE, total // 2), flags


def count_diameters_smooth(body: SmoothBody2, p, base_grid: int | None = None) -> int:
    """Number of affine diameters of a smooth body through interior ``p``."""
    require_interior(body, p)
    counts, degen = diameter_counts_batch(body, np.asarray(p, dtype=float)[None, :], base_grid)
    return int(counts[0])


def _in_triangle(p, a, b, c, tol: float) -> bool:
    s1 = cross2(b - a, p - a)
    s2 = cross2(c - b, p - b)
    s3 = cross2(a - c, p - c)
    if cross2(b - a, c - a) < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 >= -tol and s2 >= -tol and s3 >= -tol


def _arcs_overlap(a1: float, b1: float, a2: float, b2: float, tol: float = 1e-12) -> bool:
    """Do the angular arcs [a1,b1] and [a2,b2] (widths < pi) intersect mod 2pi?"""
    w1 = b1 - a1
    w2 = b2 - a2
    d = (a2 - a1) % (2.0 * np.pi)
    return d <= w1 + tol or d + w2 >= 2.0 * np.pi - tol


def parallel_antipodal_edge_pairs(P: Polygon2) -> list[tuple[int, int]]:
    """Index pairs of parallel edges with opposite outer normals."""
    n = P.edge_normals
    k = len(n)
    out = []
    for j in range(k):
        for l in range(j + 1, k):
            if abs(cross2(n[j], n[l])) <= 1e-12 and float(n[j] @ n[l]) < 0.0:
                out.append((j, l))
    return out


def count_diameters_polygon(P: Polygon2, p) -> float:
    """Number of affine diameters of a polygon through interior ``p``.

    Counts one diameter for each antipodal vertex--edge pair whose connecting
    triangle contains ``p``, plus antipodal vertex--vertex segments that hit
    ``p`` exactly.  Returns ``INFINITE`` when ``p`` lies strictly inside the
    trapezoid spanned by a pair of parallel antipodal edges (every chord of
    the trapezoid joining the two edges is an affine diameter).
    """
    p = np.asarray(p, dtype=float)
    require_interior(P, p)
    verts = P.vertices
    nrm = P.edge_normals
    k = len(verts)
    area_tol = 1e-12 * P.scale * P.scale

    for j, l in parallel_antipodal_edge_pairs(P):
        quad = np.array([verts[j], verts[(j + 1) % k], verts[l], verts[(l + 1) % k]])
        c = quad.mean(axis=0)
        order = np.argsort(np.arctan2(quad[:, 1] - c[1], quad[:, 0] - c[0]))
        quad = quad[order]
        inside = all(
            cross2(quad[(i + 1) % 4] - quad[i], p - quad[i]) > area_tol
            for i in range(4)
        )
        if inside:
            return INFINITE

    count = 0
    angles = np.arctan2(nrm[:, 1], nrm[:, 0])
    for i in range(k):
        n_prev = nrm[(i - 1) % k]
        n_cur = nrm[i]
        for j in range(k):
            m = -nrm[j]
            if cross2(n_prev, m) >= -1e-12 and cross2(m, n_cur) >= -1e-12:
                a = verts[j]
                b = verts[(j + 1) % k]
                if _in_triangle(p, verts[i], a, b, area_tol):
                    count += 1

    for i in range(k):
        a1 = angles[(i - 1) % k]
        b1 = a1 + (angles[i] - a1) % (2.0 * np.pi)
        for l in range(i + 1, k):
            a2 = angles[(l - 1) % k] + np.pi
            b2 = a2 + (angles[l] - angles[(l - 1) % k]) % (2.0 * np.pi)
            if not _arcs_overlap(a1, b1, a2, b2):
                continue
            seg = verts[l] - verts[i]
            rel = p - verts[i]
            t = float(rel @ seg) / float(seg @ seg)
            if abs(cross2(seg, rel)) <= area_tol and 0.0 < t < 1.0:
                count += 1
    return float(count)


def count_diameters(body, p, base_grid: int | None = None) -> float:
    if isinstance(body, Polygon2):
        return count_diameters_polygon(body, p)
    if isinstance(body, SmoothBody2):
        return float(count_diameters_smooth(body, p, base_grid))
    raise UnsupportedCombinationError(
        f"affine-diameter counting is not available for {type(body).__name__}")


def average_diameters(body, n: int, seed: int, *, base_grid: int | None = None):
    """Monte Carlo mean of the diameter count over uniform interior points."""
    if isinstance(body, Polygon2):
        pairs = parallel_antipodal_edge_pairs(body)
        if pairs:
            j, l = pairs[0]
            raise InfiniteDiametersError(
                f"edges {j} and {l} are parallel and antipodal: a positive-measure "
                "set of interior points lies on infinitely many affine diameters",
                pair=(j, l))
    from .averaging import estimate_interior_average

    return estimate_interior_average(body, "diameters", n, seed, base_grid=base_grid)
