"""Convex polytopes in R^3 with explicit facet loops.

Facets are stored as vertex-index loops ordered counterclockwise when seen
from outside; the constructor validates planarity, convexity, outward
orientation and the Euler relation V - E + F = 2.  It also builds, once, the
face tables that the normal counter reads (see ``Polytope3``), so no query
recomputes fixed geometry.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .bodies2d import symmetric_under_negation
from .errors import ConvexityError, DegenerateBodyError
from .rng import rejection_sample
from .trigcount import row_blocks

PLANARITY_RTOL = 1e-9


class Polytope3:
    """A convex polytope and the face tables of its normal counter.

    p has a foot on a face where it lies in the face's normal region.  The
    tables hold the planes x @ n = c that bound these regions as rows
    (n, -c), so that [x, 1] @ row = x @ n - c: one table of shape (faces,
    width, 4) per face dimension, where a face with fewer rows repeats its
    own.  ``facet_sides``: the unit normals of a facet's sides, in its plane
    and pointing into it (the prism over it).  ``edge_sides``: the edge's
    parameter t, 0 at its first vertex and 1 at its second (as
    ``Polygon2.t_normals``), then the two unit sides of its dihedral slab,
    n_k x e for each inward facet normal n_k, turned towards the other one.
    ``vertex_sides``: the t of each edge at the vertex, seen from it (t at
    the edge's first vertex, 1 - t at its second): its normal cone.
    ``facet_areas`` is half the length of each facet's Newell vector.
    """

    def __init__(self, vertices, facets):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or len(v) < 4:
            raise DegenerateBodyError("polytope needs at least 4 vertices in R^3")
        if not np.all(np.isfinite(v)):
            raise DegenerateBodyError("vertices must be finite")
        facets = [list(map(int, f)) for f in facets]
        if len(facets) < 4 or any(len(f) < 3 for f in facets):
            raise DegenerateBodyError("need at least 4 facets with 3+ vertices each")
        if any(not 0 <= i < len(v) for f in facets for i in f):
            raise DegenerateBodyError(f"facet vertex indices must lie in [0, {len(v)})")
        scale = float(np.max(np.abs(v))) or 1.0
        centroid = v.mean(axis=0)

        normals = np.zeros((len(facets), 3))
        offsets = np.zeros(len(facets))
        areas = np.zeros(len(facets))
        for fi, loop in enumerate(facets):
            pts = v[loop]
            # Newell normal is robust for near-planar loops; its length is
            # twice the facet's area
            nrm = np.zeros(3)
            for i in range(len(loop)):
                a, b = pts[i], pts[(i + 1) % len(loop)]
                nrm += np.cross(a, b)
            ln = np.linalg.norm(nrm)
            if ln <= 1e-12 * scale * scale:
                raise DegenerateBodyError(f"facet {fi} is degenerate")
            nrm /= ln
            off = float(np.mean(pts @ nrm))
            planarity = float(np.max(np.abs(pts @ nrm - off)))
            if planarity > PLANARITY_RTOL * scale:
                raise DegenerateBodyError(f"facet {fi} is not planar ({planarity:.2e})")
            if (centroid @ nrm) > off:
                raise ConvexityError(f"facet {fi} is oriented inward")
            normals[fi] = nrm
            offsets[fi] = off
            areas[fi] = 0.5 * ln
        slack = v @ normals.T - offsets
        if np.max(slack) > 1e-9 * scale:
            raise ConvexityError("a vertex lies outside a facet plane: not convex")

        edge_map: dict[tuple, list[int]] = {}
        for fi, loop in enumerate(facets):
            for i in range(len(loop)):
                a, b = loop[i], loop[(i + 1) % len(loop)]
                edge_map.setdefault((min(a, b), max(a, b)), []).append(fi)
        if any(len(fs) != 2 for fs in edge_map.values()):
            raise DegenerateBodyError("every edge must bound exactly two facets")
        edges = sorted(edge_map)
        if len(v) - len(edges) + len(facets) != 2:
            raise DegenerateBodyError("Euler relation V - E + F = 2 fails")

        self.vertices = v
        self.facets = facets
        self.facet_normals = normals
        self.facet_offsets = offsets
        self.facet_areas = areas
        self.edges = np.asarray(edges, dtype=int)
        self.edge_facets = np.asarray([edge_map[e] for e in edges], dtype=int)
        width = max(map(len, facets))
        self.facet_sides = np.zeros((len(facets), width, 4))
        for fi, (loop, nrm) in enumerate(zip(facets, normals)):
            sides = np.cross(nrm, np.roll(v[loop], -1, axis=0) - v[loop])
            sides /= np.linalg.norm(sides, axis=1, keepdims=True)
            self.facet_sides[fi] = np.resize(_rows(sides, v[loop]), (width, 4))
        a = v[self.edges[:, 0]]
        d = v[self.edges[:, 1]] - a
        e = d / np.linalg.norm(d, axis=1, keepdims=True)
        n1, n2 = -normals[self.edge_facets[:, 0]], -normals[self.edge_facets[:, 1]]
        turn = np.copysign(1.0, np.einsum("ij,ij->i", e, np.cross(n1, n2)))[:, None]
        self.edge_sides = np.stack([_rows(d / np.einsum("ij,ij->i", d, d)[:, None], a),
                                    _rows(-turn * np.cross(n1, e), a),
                                    _rows(turn * np.cross(n2, e), a)], axis=1)
        # each edge's t row at its first vertex, and 1 - t at its second
        t = self.edge_sides[:, 0]
        rows, ends = np.concatenate([t, [0.0, 0.0, 0.0, 1.0] - t]), self.edges.T.ravel()
        at = [np.flatnonzero(ends == vi) for vi in range(len(v))]
        self.vertex_sides = np.array([np.resize(rows[k], (max(map(len, at)), 4)) for k in at])
        self.scale = scale


def _rows(normals, points) -> np.ndarray:
    """Table rows (n, -n @ q) of the planes through q with normal n."""
    return np.concatenate([normals, -np.einsum("ij,ij->i", normals, points)[:, None]], axis=1)


def build_polytope(vertices, facets) -> Polytope3:
    return Polytope3(vertices, facets)


def polytope_from_points(points) -> Polytope3:
    """Convex hull with coplanar triangles merged into polygonal facets."""
    pts = np.asarray(points, dtype=float)
    try:
        hull = ConvexHull(pts)
    except (QhullError, ValueError) as exc:  # flat, too few or non-finite points
        raise DegenerateBodyError(f"points do not span a 3d hull: {exc}") from exc
    used = sorted(set(hull.vertices))
    remap = {old: new for new, old in enumerate(used)}
    v = pts[used]
    groups: dict[tuple, set] = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        key = tuple(np.round(eq / np.linalg.norm(eq[:3]), 9))
        groups.setdefault(key, set()).update(remap[i] for i in simplex)
    facets = []
    for key, idx in groups.items():
        nrm = np.asarray(key[:3])
        idx = sorted(idx)
        centr = v[idx].mean(axis=0)
        # order the loop CCW around the outward normal
        ref = v[idx[0]] - centr
        ref = ref / np.linalg.norm(ref)
        other = np.cross(nrm, ref)
        ang = [
            math.atan2(float((v[i] - centr) @ other), float((v[i] - centr) @ ref))
            for i in idx
        ]
        loop = [i for _, i in sorted(zip(ang, idx))]
        facets.append(loop)
    facets.sort(key=lambda loop: (len(loop), loop))
    return Polytope3(v, facets)


# ---------------------------------------------------------------------------
# standard solids


def _regular_polygon(k: int, circumradius: float) -> np.ndarray:
    t = 2.0 * math.pi * np.arange(k) / k
    return circumradius * np.stack([np.cos(t), np.sin(t)], axis=1)


def prism_over(base_vertices, height: float) -> Polytope3:
    """Right prism over a centrally symmetric convex polygon."""
    base = np.asarray(base_vertices, dtype=float)
    if base.ndim != 2 or base.shape[1] != 2:
        raise DegenerateBodyError("prism base must be planar vertices")
    if not symmetric_under_negation(base, 1e-9 * (np.abs(base).max() or 1.0)):
        raise DegenerateBodyError("prism base must be centrally symmetric")
    if height <= 0:
        raise DegenerateBodyError("prism height must be positive")
    n = len(base)
    lo = np.concatenate([base, np.full((n, 1), -height / 2)], axis=1)
    hi = np.concatenate([base, np.full((n, 1), height / 2)], axis=1)
    verts = np.concatenate([lo, hi], axis=0)
    facets = [list(range(n - 1, -1, -1)), list(range(n, 2 * n))]
    for i in range(n):
        j = (i + 1) % n
        facets.append([i, j, n + j, n + i])
    return Polytope3(verts, facets)


def _zonotope_points(generators) -> np.ndarray:
    gens = np.asarray(generators, dtype=float)
    pts = []
    for eps in itertools.product((0.0, 1.0), repeat=len(gens)):
        pts.append(np.asarray(eps) @ gens)
    pts = np.asarray(pts)
    return pts - pts.mean(axis=0)


# the named solids, each with the sizes it takes and their defaults
_STANDARD_SIZES = {"cube": {"side": 1.0}, "tetrahedron": {"side": 1.0},
                   "octahedron": {"side": 1.0},
                   "hexagonal_prism": {"circumradius": 1.0, "height": 1.0},
                   "truncated_octahedron": {"edge": math.sqrt(2.0)},
                   "rhombic_dodecahedron": {"edge": math.sqrt(3.0)},
                   "elongated_dodecahedron": {"elongation": 2.0}}


def standard_polytope(name: str, **kw) -> Polytope3:
    """Named solids used by the averaging experiments, with the sizes of
    ``_STANDARD_SIZES``.  DegenerateBodyError names an unknown solid, a size
    the solid does not take and a size that is not positive and finite."""
    name = name.lower().replace("-", "_")
    if name not in _STANDARD_SIZES:
        raise DegenerateBodyError(f"unknown standard polytope '{name}'")
    sizes = dict(_STANDARD_SIZES[name])
    for key, val in kw.items():
        if key not in sizes:
            raise DegenerateBodyError(
                f"{name} takes {' and '.join(map(repr, sizes))}, not {key!r}")
        sizes[key] = float(val)
        if not 0 < sizes[key] < math.inf:
            raise DegenerateBodyError(f"{name} {key} must be positive and finite, got {val!r}")
    if name == "hexagonal_prism":
        return prism_over(_regular_polygon(6, sizes["circumradius"]), sizes["height"])
    if name == "cube":
        s = 0.5 * sizes["side"]
        verts = np.array(list(itertools.product((-s, s), repeat=3)))
    elif name == "tetrahedron":
        s = sizes["side"] / math.sqrt(8.0)
        verts = s * np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1.0)])
    elif name == "octahedron":
        s = sizes["side"] / math.sqrt(2.0)
        verts = s * np.vstack([np.eye(3), -np.eye(3)])
    elif name == "truncated_octahedron":
        scale = sizes["edge"] / math.sqrt(2.0)
        base = []
        for perm in itertools.permutations((0.0, 1.0, 2.0)):
            for sx in (-1, 1):
                for sy in (-1, 1):
                    for sz in (-1, 1):
                        base.append((sx * perm[0], sy * perm[1], sz * perm[2]))
        verts = scale * np.unique(np.asarray(base), axis=0)
    elif name == "rhombic_dodecahedron":
        scale = sizes["edge"] / math.sqrt(3.0)
        cube = list(itertools.product((-1.0, 1.0), repeat=3))
        axes = [
            (2.0, 0, 0), (-2.0, 0, 0), (0, 2.0, 0), (0, -2.0, 0), (0, 0, 2.0), (0, 0, -2.0),
        ]
        verts = scale * np.asarray(cube + axes)
    else:  # elongated_dodecahedron
        c = sizes["elongation"]
        gens = np.array(
            [[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [0.0, 0.0, c]]
        )
        verts = _zonotope_points(gens)
    return polytope_from_points(verts)


# ---------------------------------------------------------------------------
# measures, containment, sampling


def measure3d(poly: Polytope3) -> dict:
    """Volume as the sum of facet pyramids about the origin, and surface area."""
    vol = float(np.sum(poly.facet_offsets * poly.facet_areas) / 3.0)
    return {"volume": vol, "surface_area": float(np.sum(poly.facet_areas))}


def contains3_batch(poly: Polytope3, pts, tol: float = 0.0) -> np.ndarray:
    """Per point, is its largest facet slack at most tol?  Points run in
    ``row_blocks`` of two slack arrays: a block's is built, and its offsets
    subtracted in place, while the last block's is still held."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    inside = np.empty(len(pts), dtype=bool)
    for rows in row_blocks(len(pts), 2 * len(poly.facet_offsets)):
        slack = pts[rows] @ poly.facet_normals.T
        slack -= poly.facet_offsets
        inside[rows] = np.max(slack, axis=1) <= tol
    return inside


def contains3(poly: Polytope3, point, tol: float = 0.0) -> bool:
    return bool(contains3_batch(poly, np.asarray(point, dtype=float), tol)[0])


def bounding_box3(poly: Polytope3):
    return poly.vertices.min(axis=0), poly.vertices.max(axis=0)


def sample_interior3(poly: Polytope3, n: int, seed: int) -> np.ndarray:
    """n uniform interior points via rejection from the bounding box."""
    lo, hi = bounding_box3(poly)
    return rejection_sample(seed, lo, hi, lambda c: contains3_batch(poly, c), n)
