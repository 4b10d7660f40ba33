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
points on a wedge boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .bodies2d import (TWO_PI, ArcBody2, Polygon2, SmoothBody2, contains2,
                       require_interior)
from .bodies3d import Polytope3, contains3
from .errors import (DegenerateConfigurationError, DomainError,
                     UnsupportedCombinationError)
from .trigcount import DEGENERATE, MAX_GRID, count_roots

# Bracketing grid of the scalar smooth feet; doubled up to MAX_GRID until
# the bisected root count repeats three times.
BASE_GRID = 4096


@dataclass
class NormalFoot:
    """One normal through the query point.

    source identifies the boundary feature: ("edge", i), ("vertex", i),
    ("arc", i), ("corner", i) or ("smooth", theta).  index is 0 for stable
    feet and 1 for unstable feet; None marks a degenerate foot.
    """

    foot: np.ndarray
    source: tuple
    chord_length: float
    index: int | None

    @property
    def degenerate(self) -> bool:
        return self.index is None


# ---------------------------------------------------------------------------
# chord helper


def _ray_exit(body, origin: np.ndarray, direction: np.ndarray) -> float:
    """Length of the chord from a boundary point through the body."""
    d = direction / np.linalg.norm(direction)
    if isinstance(body, Polygon2):
        num = body.edge_offsets - origin @ body.edge_normals.T
        den = d @ body.edge_normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(den > 1e-15, num / den, np.inf)
        return float(np.min(t))
    # generic bisection on containment
    lo = 0.0
    hi = 4.0 * float(np.atleast_1d(body.support(np.array([0.0])))[0] + 1.0)
    hi = max(hi, 4.0 * getattr(body, "scale", 1.0))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if contains2(body, origin + mid * d, tol=1e-12 * hi):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# polygons


def _polygon_feet(body: Polygon2, p: np.ndarray) -> list[NormalFoot]:
    feet = []
    v = body.vertices
    rel = p - v
    t = np.einsum("ij,ij->i", rel, body.edge_vecs) / body.edge_lengths**2
    for i in range(len(v)):
        if 0.0 < t[i] < 1.0:
            q = v[i] + t[i] * body.edge_vecs[i]
            feet.append(
                NormalFoot(q, ("edge", i), _ray_exit(body, q, p - q), 0)
            )
    e_out = body.edge_vecs
    e_back = np.roll(body.edge_vecs, 1, axis=0)  # edge arriving at vertex i
    d_out = np.einsum("ij,ij->i", rel, e_out)
    d_back = np.einsum("ij,ij->i", rel, -e_back)
    for i in range(len(v)):
        if d_out[i] >= 0.0 and d_back[i] >= 0.0:
            feet.append(
                NormalFoot(v[i].copy(), ("vertex", i), _ray_exit(body, v[i], p - v[i]), 1)
            )
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
    return pts @ up - np.atleast_1d(body.support_d1(theta))


def _smooth_refine_roots(body: SmoothBody2, p: np.ndarray, grid: int):
    """Bracketed bisection of g for one point; returns root angles."""
    theta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    g = _smooth_g(body, p[None, :], theta)[0]
    s = np.where(g == 0.0, 1e-300, g)
    flip = np.where(np.sign(s) != np.sign(np.roll(s, -1)))[0]
    roots = []
    step = TWO_PI / grid
    for i in flip:
        lo, hi = theta[i], theta[i] + step
        glo = _smooth_g(body, p[None, :], np.array([lo]))[0, 0]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = _smooth_g(body, p[None, :], np.array([mid]))[0, 0]
            if (gm < 0) == (glo < 0):
                lo, glo = mid, gm
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        roots.append(0.5 * (lo + hi))
    return np.asarray(roots)


def _smooth_degenerate_roots(body: SmoothBody2, p: np.ndarray, grid: int, roots):
    """Angles where g and g' both nearly vanish (p close to the evolute)."""
    theta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    gp = -(p[0] * np.cos(theta) + p[1] * np.sin(theta)) - np.atleast_1d(
        body.support_d2(theta)
    )
    s = np.where(gp == 0.0, 1e-300, gp)
    flip = np.where(np.sign(s) != np.sign(np.roll(s, -1)))[0]
    g_scale = float(np.max(np.abs(_smooth_g(body, p[None, :], theta)[0])))
    out = []
    step = TWO_PI / grid
    for i in flip:
        lo, hi = theta[i], theta[i] + step
        glo = gp[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = -(p[0] * math.cos(mid) + p[1] * math.sin(mid)) - body.support_d2(
                np.array([mid])
            )
            gm = float(np.atleast_1d(gm)[0])
            if (gm < 0) == (glo < 0):
                lo, glo = mid, gm
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        gval = float(_smooth_g(body, p[None, :], np.array([t]))[0, 0])
        near_root = len(roots) and np.min(np.abs(((roots - t) + math.pi) % TWO_PI - math.pi)) < 1e-6
        if abs(gval) < 1e-6 * max(g_scale, 1e-12) and not near_root:
            out.append(t)
    return out


def _smooth_feet(body: SmoothBody2, p: np.ndarray) -> list[NormalFoot]:
    probe = np.linspace(0.0, TWO_PI, BASE_GRID, endpoint=False)
    if np.max(np.abs(_smooth_g(body, p[None, :], probe)[0])) < 1e-12 * body.scale ** 2:
        raise DegenerateConfigurationError(
            "every boundary point is a normal foot (g vanishes identically); "
            "the normal count is not finite here")
    grid = BASE_GRID
    counts = []
    while True:
        roots = _smooth_refine_roots(body, p, grid)
        counts.append(len(roots))
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            break
        if grid >= MAX_GRID:
            break
        grid *= 2
    feet = []
    for th in roots:
        q = body.boundary(np.array([th]))
        q = np.atleast_2d(q)[0]
        lam = float(np.linalg.norm(p - q))
        rho = float(body.rho(np.array([th])))
        if abs(lam - rho) <= 1e-9 * max(rho, 1.0):
            idx = None
        else:
            idx = 0 if lam < rho else 1
        feet.append(NormalFoot(q, ("smooth", float(th)), _ray_exit(body, q, p - q), idx))
    for th in _smooth_degenerate_roots(body, p, grid, roots):
        q = np.atleast_2d(body.boundary(np.array([th])))[0]
        feet.append(NormalFoot(q, ("smooth", float(th)), _ray_exit(body, q, p - q), None))
    return feet


# ---------------------------------------------------------------------------
# arc bodies


def _arc_feet(body: ArcBody2, p: np.ndarray) -> list[NormalFoot]:
    feet = []
    for i, a in enumerate(body.arcs):
        c = np.asarray(a.center)
        rel = p - c
        d = float(np.hypot(*rel))
        if d < 1e-12 * a.radius:
            # every point of this arc is equidistant: a pencil, not feet
            raise DegenerateConfigurationError(
                "query point coincides with an arc center; counts are ill defined"
            )
        ang = math.atan2(rel[1], rel[0])
        for sign_, idx in ((1.0, 0), (-1.0, 1)):
            gamma = ang if sign_ > 0 else ang + math.pi
            if (gamma - a.ang0) % TWO_PI <= a.span:
                q = c + a.radius * np.array([math.cos(gamma), math.sin(gamma)])
                feet.append(
                    NormalFoot(q, ("arc", i), _ray_exit(body, q, p - q), idx)
                )
    for i, (v, lo, hi) in enumerate(
        zip(body.corner_points, body.corner_lo, body.corner_hi)
    ):
        if hi - lo <= 1e-14:
            continue
        ang = math.atan2(v[1] - p[1], v[0] - p[0])
        if (ang - lo) % TWO_PI <= hi - lo:
            feet.append(NormalFoot(v.copy(), ("corner", i), _ray_exit(body, v, p - v), 1))
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
    """All normals of a planar body through an interior point."""
    p = require_interior(body, point)
    if isinstance(body, Polygon2):
        return _polygon_feet(body, p)
    if isinstance(body, SmoothBody2):
        return _smooth_feet(body, p)
    if isinstance(body, ArcBody2):
        return _arc_feet(body, p)
    raise UnsupportedCombinationError(f"no normal counter for {type(body).__name__}")


def count_normals2(body, point) -> int:
    """Number of normals through an interior point (feet counted per contact)."""
    return len(normal_feet2(body, point))


def stable_count(body, point) -> int:
    """Number of stable equilibria (local minima of boundary distance).

    Refuses points with a degenerate foot (on the evolute): the stability
    index is undefined there.
    """
    feet = normal_feet2(body, point)
    if any(f.degenerate for f in feet):
        raise DegenerateConfigurationError(
            "point has a degenerate normal foot; stability is undefined")
    return sum(1 for f in feet if f.index == 0)


def count_normals2_batch(body, pts, base_grid: int | None = None):
    """Vectorized counts; returns (total, stable, degenerate_mask).

    total is DEGENERATE (-2) where the count could not be certified: on a
    wedge boundary of a polygon or arc body, or, on a smooth body, where the
    certified kernel cannot prove every grid interval monotone or root-free
    by MAX_GRID (the evolute) or g vanishes (a disk centre).  At a root
    g' = |p - q| - rho(q), so the stable feet are the descending roots of g.
    base_grid is the smooth kernel's starting grid; it changes the speed
    only, never a count.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, Polygon2):
        return _polygon_counts_batch(body, pts)
    if isinstance(body, SmoothBody2):
        return count_roots(lambda q, th: _smooth_g(body, q, th), pts,
                           max(1, body.degree), body.scale, base_grid)
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


def count_normals3(poly: Polytope3, point, use_nnls_vertices: bool = True) -> int:
    """Normals of a polytope through an interior point, one per face foot."""
    by_dim = count_normals3_by_dim(poly, point, use_nnls_vertices)
    return by_dim[0] + by_dim[1] + by_dim[2]


def count_normals3_by_dim(poly: Polytope3, point, use_nnls_vertices: bool = True):
    """Counts keyed by face dimension {0: vertices, 1: edges, 2: facets}."""
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
    vertices = 0
    for vi, nbrs in enumerate(poly.vertex_neighbors):
        y = p - poly.vertices[vi]
        if use_nnls_vertices:
            inside = _in_vertex_cone_nnls(poly, vi, y)
        else:
            inside = all(
                (y @ (poly.vertices[w] - poly.vertices[vi])) >= -tol for w in nbrs
            )
        vertices += inside
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
