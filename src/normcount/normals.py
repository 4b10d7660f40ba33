"""Counting boundary normals (equilibria of the distance function).

A normal at boundary point q is the inward ray perpendicular to a supporting
line at q; for interior p, membership on the ray and on the full line agree.
Counts classify feet by the second derivative of the boundary distance
function: a foot is stable (local minimum) when |p - q| < rho(q), unstable
when |p - q| > rho(q), degenerate at equality.  Polygon edge feet are always
stable and vertex feet always unstable; circular-arc near feet are stable,
far feet and corner feet unstable.

Polygons and arc bodies each have one face test, ``_polygon_faces`` and
``_arc_faces``, with one contract: for a block of points it returns one row
per point and one column per face, the masks of the faces that hold a
stable and an unstable foot of the point, plus the flags of the points on a
wedge boundary or at an arc centre.  A polygon's faces are its edges and
vertices, an arc body's the rows of the ``ArcBody2.pieces`` table, read with
one broadcast and no loop over pieces.  ``count_normals2_batch`` sums the
masks over row blocks of points, and ``normal_feet2`` reads its feet off the
point's single row.  Both run the same tests, but a one-point and a
many-point matmul can round differently, so the scalar and batch answers can
disagree on a flag for a point within an ulp of the edge of a flag band (9
to 71 of 265 to 391 bisected probes per polytope).  Polygon and polytope
face tests read one quantity per edge, its parameter t (where p's foot falls on
the edge's line: 0 at its first vertex, 1 at its second): an edge holds a
foot where 0 < t < 1, and a vertex where t seen from it is >= 0 on every
edge at it.  t is compared against 1e-9 and every other comparison of these
tests (facet prisms, dihedral slabs) is a distance against 1e-9*scale, so
counts and flags do not depend on the body's units.  Every batch counter
returns a DEGENERATE total wherever it flags.  A polytope's face tests are
the ``Polytope3`` tables, one matmul per face dimension and no loop over
faces; ``count_normals3_by_dim`` is the one-point call of that counter.

On a smooth body the feet are the roots of the degree-N trigonometric
polynomial g(theta) = <p - r(theta), u'(theta)>, N = max(1, deg h): the line
function with d = u, whose coefficients are [1, x, y] @ the body's table
(``SmoothBody2.normal_lines``).  The batch counter counts them with the
certified sign-change kernel of ``trigcount``: a count is returned only when
every grid interval is proven monotone or root-free, or split where g'
vanishes, and points it cannot certify (within about 1e-12 of the scale of
the evolute, or the centre of a disk, where g vanishes) are DEGENERATE.  The
scalar smooth feet are the kernel's roots, refined by ``trigcount.newton``.
``normal_feet2`` raises DegenerateConfigurationError at every point the batch
counter flags.  Each foot's chord, from the foot through p to the far side,
is solved without a containment test, on a smooth body by
``SmoothBody2.normal_chord`` (see ``_ray_exit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies2d import (INTERIOR_RTOL, ArcBody2, Polygon2, SmoothBody2,
                       in_angle_range, require_interior, unit)
from .bodies3d import Polytope3, contains3
from .errors import (DegenerateConfigurationError, DomainError,
                     UnsupportedCombinationError)
from .trigcount import DEGENERATE, count_roots, root_angles, row_blocks


@dataclass
class NormalFoot:
    """One normal through the query point.

    source identifies the boundary feature: ("edge", i), ("vertex", i),
    ("arc", i), ("corner", i) or ("smooth", theta).  index is 0 for stable
    feet and 1 for unstable feet, never anything else: a point with a
    degenerate foot is flagged and ``normal_feet2`` raises there, so
    ``degenerate`` is always False.
    """

    foot: np.ndarray
    source: tuple
    chord_length: float
    index: int

    @property
    def degenerate(self) -> bool:
        return self.index is None


# ---------------------------------------------------------------------------
# chord helper


def _ray_exit(body, p: np.ndarray, feet: list[tuple]) -> np.ndarray:
    """Lengths of the normal chords from each foot q through p to the far
    side of the body.

    Polygons take the nearest edge line ahead, and arc bodies the farthest
    exit of ``ArcBody2.chord``.  A smooth foot r(theta) has p on its
    normal, so its chord is ``normal_chord(theta)``.
    """
    if isinstance(body, SmoothBody2):
        return body.normal_chord(np.array([source[1] for _, source, _ in feet]))[0]
    qs = np.array([q for q, _, _ in feet])
    d = p - qs
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    if isinstance(body, Polygon2):
        num = body.edge_offsets - qs @ body.edge_normals.T
        den = d @ body.edge_normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(den > 1e-15, num / den, np.inf)
        return np.min(t, axis=1)
    return body.chord(qs, d)[0]


# ---------------------------------------------------------------------------
# polygon and arc faces: one row per point, one column per face


def _polygon_faces(body: Polygon2, pts: np.ndarray):
    """(t, edge, vertex, flags) for many interior points.

    t[:, i] is where p's foot falls on edge i's line: 0 at v_i, 1 at
    v_{i+1}, read off ``body.t_normals`` and ``body.t_offsets``, the lines
    that ``wedges`` clips the exact wedges to.  It is the only quantity the
    wedge tests read.  Edge i carries a foot where 0 < t_i < 1, at
    v_i + t_i * e_i, and vertex i where t_i >= 0 and t_{i-1} <= 1 (p - v_i
    lies in its normal cone).  Every wedge boundary is a line t_i = 0 or
    t_i = 1, so a point with some t_i within 1e-9 of 0 or 1 is flagged.
    """
    t = pts @ body.t_normals.T - body.t_offsets
    edge = (t > 0.0) & (t < 1.0)
    vertex = (t >= 0.0) & np.roll(t <= 1.0, 1, axis=1)
    flags = np.any((np.abs(t) < 1e-9) | (np.abs(t - 1.0) < 1e-9), axis=1)
    return t, edge, vertex, flags


def _on_line(x):
    """Is the angle x within 1e-9 of a multiple of pi?"""
    r = np.fmod(x + 0.5 * math.pi, math.pi)  # as in ``in_angle_range``
    return np.abs(r + math.pi * (r < 0) - 0.5 * math.pi) < 1e-9


def _arc_faces(body: ArcBody2, pts: np.ndarray):
    """(ang, near, far, flags) for many interior points, one column per
    row of ``body.pieces``.

    ang[:, i] is the angle of p about piece i's centre.  The near foot of a
    piece is at that angle and the far foot at the opposite one, each
    present when the piece's normal range holds it.  A corner's feet are
    the corner itself, and an interior point has only the far one there
    (p - corner never lies in the cone).  A point within 1e-9 of an arc
    centre, or whose line to a centre is within 1e-9 of a range end, is
    flagged.
    """
    c_x, c_y, r, lo, hi = body.pieces.T[:, :, None]  # piece-major: sums run along points
    dx, dy = pts[:, 0] - c_x, pts[:, 1] - c_y
    ang = np.arctan2(dy, dx)
    near = in_angle_range(ang, lo, hi - lo)
    far = in_angle_range(ang + math.pi, lo, hi - lo)
    # the line through p and the centre runs along a range end
    flags = np.any(_on_line(ang - lo) | _on_line(ang - hi) | (np.hypot(dx, dy) < 1e-9 * r),
                   axis=0)
    return ang.T, near.T, far.T, flags


def _polygon_feet(body: Polygon2, p: np.ndarray) -> list[tuple] | None:
    """Feet read off the point's row of ``_polygon_faces``; None where flagged."""
    t, edge, vertex, flags = _polygon_faces(body, p[None, :])
    if flags[0]:
        return None
    v, e = body.vertices, body.edge_vecs
    return ([(v[i] + t[0, i] * e[i], ("edge", int(i)), 0) for i in np.flatnonzero(edge[0])]
            + [(v[i].copy(), ("vertex", int(i)), 1) for i in np.flatnonzero(vertex[0])])


def _arc_feet(body: ArcBody2, p: np.ndarray) -> list[tuple] | None:
    """Feet read off the point's row of ``_arc_faces``, per piece its near
    then its far foot; None where flagged."""
    ang, near, far, flags = _arc_faces(body, p[None, :])
    if flags[0]:
        return None
    k = np.flatnonzero(np.column_stack([near[0], far[0]]))
    i, index = k // 2, k % 2
    qs = body.pieces[i, :2] + body.pieces[i, 2:3] * unit(ang[0, i] + math.pi * index)
    return [(q, body.sources[j], int(x)) for q, j, x in zip(qs, i, index)]


# ---------------------------------------------------------------------------
# smooth bodies


def _smooth_feet(body: SmoothBody2, p: np.ndarray) -> list[tuple] | None:
    """Feet at the roots of g, stable where g falls; None where flagged (an
    interior point has at least two feet, its nearest and farthest)."""
    _, angles, down = root_angles(body.normal_lines, p, body.scale)
    if not len(angles):
        return None
    return [(q, ("smooth", float(th)), 0 if d else 1)
            for q, th, d in zip(body.boundary(angles), angles, down)]


# ---------------------------------------------------------------------------
# public 2d interface


def normal_feet2(body, point) -> list[NormalFoot]:
    """All normals of a planar body through an interior point.

    Raises DegenerateConfigurationError wherever ``count_normals2_batch``
    flags the point, so the feet always number its total and the stable
    ones its stable count.
    """
    p = require_interior(body, point)
    if isinstance(body, Polygon2):
        feet = _polygon_feet(body, p)
    elif isinstance(body, ArcBody2):
        feet = _arc_feet(body, p)
    elif isinstance(body, SmoothBody2):
        feet = _smooth_feet(body, p)
    else:
        raise UnsupportedCombinationError(f"no normal counter for {type(body).__name__}")
    if feet is None:
        raise DegenerateConfigurationError(
            "the normal count is not certified at this point (a wedge boundary, "
            "an arc centre, the evolute or the centre of a disk)")
    chords = _ray_exit(body, p, feet)
    return [NormalFoot(q, source, float(chord), index)
            for (q, source, index), chord in zip(feet, chords)]


def count_normals2(body, point) -> int:
    """Number of normals through an interior point (feet counted per contact)."""
    return len(normal_feet2(body, point))


def stable_count(body, point) -> int:
    """Number of stable equilibria (local minima of boundary distance).

    Like ``normal_feet2``, raises DegenerateConfigurationError where the
    batch counter flags the point (on the evolute the stability index is
    undefined).
    """
    return sum(1 for f in normal_feet2(body, point) if f.index == 0)


def count_normals2_batch(body, pts):
    """Vectorized counts; returns (total, stable, degenerate_mask).

    total is DEGENERATE (-2) wherever the mask is set: within 1e-9 in t of
    a polygon's wedge boundary (t_i = 0 or 1, see ``_polygon_faces``), at an
    arc body's range or cone end or arc centre, or, on a smooth body, within
    the kernel's allowance of the evolute (about 1e-12 of the scale) or
    where g vanishes (a disk centre).  At a
    root g' = |p - q| - rho(q), so the stable feet are the descending roots
    of g.  Polygon and arc body points run in ``trigcount.row_blocks`` of at
    most ``_BLOCK`` values, a point holding one per edge or 16 per piece, so
    memory does not grow with the number of points.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, SmoothBody2):
        return count_roots(body.normal_lines, pts, body.scale)
    if isinstance(body, Polygon2):
        faces, width = _polygon_faces, len(body)
    elif isinstance(body, ArcBody2):
        faces, width = _arc_faces, 16 * len(body.pieces)
    else:
        raise UnsupportedCombinationError(f"no normal counter for {type(body).__name__}")
    total = np.empty(len(pts), dtype=int)
    stable = np.empty(len(pts), dtype=int)
    flags = np.empty(len(pts), dtype=bool)
    for rows in row_blocks(len(pts), width):
        _, stable_mask, unstable_mask, flags[rows] = faces(body, pts[rows])
        stable[rows] = np.sum(stable_mask, axis=1)
        total[rows] = stable[rows] + np.sum(unstable_mask, axis=1)
    total[flags] = DEGENERATE
    return total, stable, flags


# ---------------------------------------------------------------------------
# polytopes in R^3

def count_normals3(poly: Polytope3, point) -> int:
    """Normals of a polytope through an interior point, one per face foot."""
    return sum(count_normals3_by_dim(poly, point).values())


def count_normals3_by_dim(poly: Polytope3, point):
    """Counts keyed by face dimension {0: vertices, 1: edges, 2: facets}:
    the point's row of ``count_normals3_batch``.

    DomainError unless ``contains3`` proves the point ``INTERIOR_RTOL``*scale
    inside, as in 2D (never NaN or inf).  Like ``normal_feet2``, raises
    DegenerateConfigurationError wherever the batch counter flags the point,
    so the counts always satisfy facets - edges + vertices = 2.
    """
    p = np.asarray(point, dtype=float)
    if not (all(map(math.isfinite, p.tolist()))
            and contains3(poly, p, tol=-INTERIOR_RTOL * poly.scale)):
        raise DomainError("query point must lie strictly inside the polytope")
    _total, (stable, saddle, peak), flags = count_normals3_batch(poly, p[None, :])
    if flags[0]:
        raise DegenerateConfigurationError("the normal count is not certified at this "
                                           "point (a face region's boundary)")
    return {0: int(peak[0]), 1: int(saddle[0]), 2: int(stable[0])}


def _side_values(table, x):
    """[x, 1] @ row for every row of a face table, as (faces, width, points)."""
    return (table.reshape(-1, 4) @ x).reshape(*table.shape[:2], -1)


def count_normals3_batch(poly: Polytope3, pts):
    """Vectorized polytope counts; returns (total, by_index tuple, flags).

    by_index is (facet, edge, vertex) feet, the stable, saddle and peak
    counts.  Per block of points each ``Polytope3`` table is one matmul,
    reduced over its width.  A facet carries a foot where its rows are all
    >= -tol, an edge where 0 < t < 1 and its slab rows are >= -tol, and a
    vertex where its rows are all >= -1e-9: the polar test on edge
    directions, equivalent by cone duality to the nonnegative-combination
    test on facet normals.  tol is 1e-9*scale, so counts do not depend on
    the solid's units.  A point within tol (1e-9 for t) of a boundary of a
    region that holds it is flagged, and its total is DEGENERATE.  Points
    run in ``trigcount.row_blocks`` of at most ``_BLOCK`` table values.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    tol = 1e-9 * poly.scale
    per_point = sum(table[..., 0].size
                    for table in (poly.facet_sides, poly.edge_sides, poly.vertex_sides))
    stable, saddle, peak = (np.empty(n, dtype=int) for _ in range(3))
    flags = np.empty(n, dtype=bool)
    for rows in row_blocks(n, per_point):
        x = np.vstack([pts[rows].T, np.ones(len(pts[rows]))])
        low = np.min(_side_values(poly.facet_sides, x), axis=1)
        inside = low >= -tol
        flagged = np.any(inside & (low < tol), axis=0)
        stable[rows] = np.count_nonzero(inside, axis=0)
        edge = _side_values(poly.edge_sides, x)
        t, low = edge[:, 0], np.min(edge[:, 1:], axis=1)
        inside = (t > 0.0) & (t < 1.0) & (low >= -tol)
        flagged |= np.any(inside & ((low < tol) | (np.minimum(t, 1.0 - t) < 1e-9)), axis=0)
        saddle[rows] = np.count_nonzero(inside, axis=0)
        low = np.min(_side_values(poly.vertex_sides, x), axis=1)
        inside = low >= -1e-9
        flagged |= np.any(inside & (low < 1e-9), axis=0)
        peak[rows] = np.count_nonzero(inside, axis=0)
        flags[rows] = flagged
    total = stable + saddle + peak
    total[flags] = DEGENERATE
    return total, (stable, saddle, peak), flags
