"""Counting boundary normals (equilibria of the distance function).

A normal at boundary point q is the inward ray perpendicular to a supporting
line at q; for interior p, membership on the ray and on the full line agree.
Counts classify feet by the second derivative of the boundary distance
function: a foot is stable (local minimum) when |p - q| < rho(q), unstable
when |p - q| > rho(q), degenerate at equality.  Polygon edge feet are always
stable and vertex feet always unstable; circular-arc near feet are stable,
far feet and corner feet unstable.

On a smooth body the feet are the roots of the degree-N trigonometric
polynomial g(theta) = <p - r(theta), u'(theta)>, N = max(1, deg h).  The
batch counter counts them with the certified sign-change kernel of
``trigcount``: a count is returned only when every grid interval is proven
monotone or root-free, and points it cannot certify (on the evolute, or the
centre of a disk, where g vanishes) are DEGENERATE, as are polygon and arc
points on a wedge boundary.  The scalar feet come from the same kernel: the
smooth feet are the bisected sign changes of the grid that certified the
count, and ``normal_feet2`` raises DegenerateConfigurationError at every
point the batch counter flags, so scalar and batch counts agree by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .bodies2d import (TWO_PI, ArcBody2, Polygon2, SmoothBody2, bisect,
                       contains2_batch, require_interior)
from .bodies3d import Polytope3, contains3
from .errors import (DegenerateConfigurationError, DomainError,
                     UnsupportedCombinationError)
from .trigcount import DEGENERATE, count_roots, root_angles


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


def _ray_exit(body, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Lengths of the chords from boundary points along directions through the body."""
    d = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    if isinstance(body, Polygon2):
        num = body.edge_offsets - origins @ body.edge_normals.T
        den = d @ body.edge_normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(den > 1e-15, num / den, np.inf)
        return np.min(t, axis=1)
    # bisection on containment, with a boundary allowance relative to the chord
    hi = 4.0 * (body.support(0.0) + 1.0)
    hi = max(hi, 4.0 * getattr(body, "scale", 1.0))
    return bisect(lambda t: contains2_batch(body, origins + t[:, None] * d, tol=1e-12 * t),
                  np.zeros(len(d)), np.full(len(d), hi))


# ---------------------------------------------------------------------------
# polygons


def _polygon_feet(body: Polygon2, p: np.ndarray) -> list[tuple]:
    feet = []
    v = body.vertices
    rel = p - v
    t = np.einsum("ij,ij->i", rel, body.edge_vecs) / body.edge_lengths**2
    for i in range(len(v)):
        if 0.0 < t[i] < 1.0:
            feet.append((v[i] + t[i] * body.edge_vecs[i], ("edge", i), 0))
    e_out = body.edge_vecs
    e_back = np.roll(body.edge_vecs, 1, axis=0)  # edge arriving at vertex i
    d_out = np.einsum("ij,ij->i", rel, e_out)
    d_back = np.einsum("ij,ij->i", rel, -e_back)
    for i in range(len(v)):
        if d_out[i] >= 0.0 and d_back[i] >= 0.0:
            feet.append((v[i].copy(), ("vertex", i), 1))
    return feet


def _polygon_counts_batch(body: Polygon2, pts: np.ndarray):
    """(total, stable, flags) for many interior points, exact wedge tests."""
    v = body.vertices
    rel = pts[:, None, :] - v[None, :, :]
    t = np.einsum("pij,ij->pi", rel, body.edge_vecs) / body.edge_lengths**2
    stable = np.sum((t > 0.0) & (t < 1.0), axis=1)
    tol = 1e-9
    edge_flag = np.any((np.abs(t) < tol) | (np.abs(t - 1.0) < tol), axis=1)
    d_out = np.einsum("pij,ij->pi", rel, body.edge_vecs)
    d_back = np.einsum("pij,ij->pi", rel, -np.roll(body.edge_vecs, 1, axis=0))
    hit = (d_out >= 0.0) & (d_back >= 0.0)
    unstable = np.sum(hit, axis=1)
    scale2 = body.scale**2
    corner_flag = np.any(
        (np.abs(d_out) < tol * scale2) | (np.abs(d_back) < tol * scale2), axis=1
    )
    return stable + unstable, stable, edge_flag | corner_flag


# ---------------------------------------------------------------------------
# smooth bodies


def _smooth_g(body: SmoothBody2, pts: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """g(theta) = <p - r(theta), u'(theta)> = <p, u'> - h'(theta), batched."""
    up = np.stack([-np.sin(theta), np.cos(theta)], axis=0)
    return pts @ up - body.support_d1(theta)


def _smooth_feet(body: SmoothBody2, p: np.ndarray) -> list[tuple] | None:
    """Feet at the roots of g, stable where g falls; None where flagged."""
    found = root_angles(lambda q, th: _smooth_g(body, q, th), p,
                        max(1, body.degree), body.scale)
    if found is None:
        return None
    angles, down = found
    return [(q, ("smooth", float(th)), 0 if d else 1)
            for q, th, d in zip(body.boundary(angles), angles, down)]


# ---------------------------------------------------------------------------
# arc bodies


def _arc_feet(body: ArcBody2, p: np.ndarray) -> list[tuple]:
    feet = []
    for i, a in enumerate(body.arcs):
        c = np.asarray(a.center)
        ang = math.atan2(p[1] - c[1], p[0] - c[0])
        for gamma, idx in ((ang, 0), (ang + math.pi, 1)):
            if (gamma - a.ang0) % TWO_PI <= a.span:
                feet.append((c + a.radius * np.array([math.cos(gamma), math.sin(gamma)]),
                             ("arc", i), idx))
    for i, (v, lo, hi) in enumerate(
        zip(body.corner_points, body.corner_lo, body.corner_hi)
    ):
        if hi - lo <= 1e-14:
            continue
        ang = math.atan2(v[1] - p[1], v[0] - p[0])
        if (ang - lo) % TWO_PI <= hi - lo:
            feet.append((v.copy(), ("corner", i), 1))
    return feet


def _arc_counts_batch(body: ArcBody2, pts: np.ndarray):
    n = len(pts)
    stable = np.zeros(n, dtype=int)
    unstable = np.zeros(n, dtype=int)
    flags = np.zeros(n, dtype=bool)
    for a in body.arcs:
        c = np.asarray(a.center)
        rel = pts - c
        d = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        flags |= d < 1e-9 * a.radius
        near = ((ang - a.ang0) % TWO_PI) <= a.span
        far = ((ang + math.pi - a.ang0) % TWO_PI) <= a.span
        stable += near
        unstable += far
        edge = np.minimum(
            np.abs(((ang - a.ang0) + math.pi) % TWO_PI - math.pi),
            np.abs(((ang - a.ang1) + math.pi) % TWO_PI - math.pi),
        )
        edge_far = np.minimum(
            np.abs(((ang + math.pi - a.ang0) + math.pi) % TWO_PI - math.pi),
            np.abs(((ang + math.pi - a.ang1) + math.pi) % TWO_PI - math.pi),
        )
        flags |= np.minimum(edge, edge_far) < 1e-9
    for v, lo, hi in zip(body.corner_points, body.corner_lo, body.corner_hi):
        if hi - lo <= 1e-14:
            continue
        rel = v - pts
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        unstable += ((ang - lo) % TWO_PI) <= (hi - lo)
        edge = np.minimum(
            np.abs(((ang - lo) + math.pi) % TWO_PI - math.pi),
            np.abs(((ang - hi) + math.pi) % TWO_PI - math.pi),
        )
        flags |= edge < 1e-9
    total = stable + unstable
    total[flags] = DEGENERATE
    return total, stable, flags


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
        feet = None if _polygon_counts_batch(body, p[None, :])[2][0] else _polygon_feet(body, p)
    elif isinstance(body, ArcBody2):
        feet = None if _arc_counts_batch(body, p[None, :])[2][0] else _arc_feet(body, p)
    elif isinstance(body, SmoothBody2):
        feet = _smooth_feet(body, p)
    else:
        raise UnsupportedCombinationError(f"no normal counter for {type(body).__name__}")
    if feet is None:
        raise DegenerateConfigurationError(
            "the normal count is not certified at this point (a wedge boundary, "
            "an arc centre, the evolute or the centre of a disk)")
    qs = np.array([q for q, _, _ in feet])
    chords = _ray_exit(body, qs, p - qs)
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

    total is DEGENERATE (-2) where the count could not be certified: on a
    wedge boundary of a polygon or arc body, or, on a smooth body, where the
    certified kernel cannot prove every grid interval monotone or root-free
    by MAX_GRID (the evolute) or g vanishes (a disk centre).  At a root
    g' = |p - q| - rho(q), so the stable feet are the descending roots of g.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, Polygon2):
        return _polygon_counts_batch(body, pts)
    if isinstance(body, SmoothBody2):
        return count_roots(lambda q, th: _smooth_g(body, q, th), pts,
                           max(1, body.degree), body.scale)
    if isinstance(body, ArcBody2):
        return _arc_counts_batch(body, pts)
    raise UnsupportedCombinationError(f"no normal counter for {type(body).__name__}")


# ---------------------------------------------------------------------------
# polytopes in R^3


def _in_vertex_cone_nnls(poly: Polytope3, vi: int, y: np.ndarray) -> bool:
    """Conical-hull membership of y in the inward facet normals at vertex vi."""
    cols = [
        -poly.facet_normals[fi]
        for fi, loop in enumerate(poly.facets)
        if vi in loop
    ]
    a = np.stack(cols, axis=1)
    _, resid = nnls(a, y)
    return resid <= 1e-9 * max(1.0, float(np.linalg.norm(y)))


def count_normals3(poly: Polytope3, point) -> int:
    """Normals of a polytope through an interior point, one per face foot."""
    by_dim = count_normals3_by_dim(poly, point)
    return by_dim[0] + by_dim[1] + by_dim[2]


def count_normals3_by_dim(poly: Polytope3, point):
    """Counts keyed by face dimension {0: vertices, 1: edges, 2: facets}.

    Vertex cones use a nonnegative least-squares membership test on the
    facet normals, independent of the polar test of ``count_normals3_batch``.
    """
    p = np.asarray(point, dtype=float)
    if not contains3(poly, p, tol=-1e-12 * poly.scale):
        raise DomainError("query point must lie strictly inside the polytope")
    tol = 1e-9 * poly.scale
    facets = 0
    for fi, loop in enumerate(poly.facets):
        nrm = poly.facet_normals[fi]
        q = p + (poly.facet_offsets[fi] - p @ nrm) * nrm
        pts = poly.vertices[loop]
        ok = True
        for i in range(len(loop)):
            a, b = pts[i], pts[(i + 1) % len(loop)]
            inward = np.cross(nrm, b - a)
            if (q - a) @ inward < -tol:
                ok = False
                break
        facets += ok
    edges = 0
    for (a_i, b_i), (f1, f2) in zip(poly.edges, poly.edge_facets):
        a, b = poly.vertices[a_i], poly.vertices[b_i]
        d = b - a
        t = float((p - a) @ d / (d @ d))
        if not 0.0 < t < 1.0:
            continue
        y = p - (a + t * d)
        dn = d / np.linalg.norm(d)
        n1, n2 = -poly.facet_normals[f1], -poly.facet_normals[f2]
        ref = float(dn @ np.cross(n1, n2))
        s1 = float(dn @ np.cross(n1, y)) * np.sign(ref)
        s2 = float(dn @ np.cross(y, n2)) * np.sign(ref)
        if s1 >= -tol and s2 >= -tol:
            edges += 1
    vertices = sum(_in_vertex_cone_nnls(poly, vi, p - v) for vi, v in enumerate(poly.vertices))
    return {0: int(vertices), 1: int(edges), 2: int(facets)}


def count_normals3_batch(poly: Polytope3, pts):
    """Vectorized polytope counts; returns (total, by_index tuple, flags).

    Vertex cones use the polar edge-direction test, which is equivalent to
    the nonnegative-combination test on facet normals by cone duality.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    tol = 1e-9 * poly.scale
    stable = np.zeros(n, dtype=int)
    saddle = np.zeros(n, dtype=int)
    peak = np.zeros(n, dtype=int)
    flags = np.zeros(n, dtype=bool)
    for fi, loop in enumerate(poly.facets):
        nrm = poly.facet_normals[fi]
        s = poly.facet_offsets[fi] - pts @ nrm
        q = pts + s[:, None] * nrm
        ok = np.ones(n, dtype=bool)
        near = np.zeros(n, dtype=bool)
        vpts = poly.vertices[loop]
        for i in range(len(loop)):
            a = vpts[i]
            inward = np.cross(nrm, vpts[(i + 1) % len(loop)] - a)
            val = (q - a) @ inward
            ok &= val >= -tol
            near |= np.abs(val) < tol
        stable += ok
        flags |= ok & near
    for (a_i, b_i), (f1, f2) in zip(poly.edges, poly.edge_facets):
        a, b = poly.vertices[a_i], poly.vertices[b_i]
        d = b - a
        dn = d / np.linalg.norm(d)
        t = (pts - a) @ d / float(d @ d)
        y = pts - a - t[:, None] * d
        n1, n2 = -poly.facet_normals[f1], -poly.facet_normals[f2]
        ref = math.copysign(1.0, float(dn @ np.cross(n1, n2)))
        s1 = (y @ np.cross(n1, dn)) * (-ref)
        s2 = (y @ np.cross(n2, dn)) * ref
        inside = (t > 0.0) & (t < 1.0) & (s1 >= -tol) & (s2 >= -tol)
        saddle += inside
        near = (
            (np.abs(t) < 1e-9)
            | (np.abs(t - 1.0) < 1e-9)
            | (np.abs(s1) < tol)
            | (np.abs(s2) < tol)
        )
        flags |= inside & near
    for vi, nbrs in enumerate(poly.vertex_neighbors):
        y = pts - poly.vertices[vi]
        ok = np.ones(n, dtype=bool)
        near = np.zeros(n, dtype=bool)
        for w in nbrs:
            val = y @ (poly.vertices[w] - poly.vertices[vi])
            ok &= val >= -tol
            near |= np.abs(val) < tol
        peak += ok
        flags |= ok & near
    total = stable + saddle + peak
    return total, (stable, saddle, peak), flags
