"""Convex polytopes in R^3 with explicit facet loops.

Facets are stored as vertex-index loops ordered counterclockwise when seen
from outside.  Edges and vertex adjacency are derived from the loops; the
constructor validates planarity, convexity, outward orientation and the
Euler relation V - E + F = 2.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

from .errors import ConvexityError, DegenerateBodyError
from .rng import box_candidates

PLANARITY_RTOL = 1e-9


class Polytope3:
    def __init__(self, vertices, facets):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or len(v) < 4:
            raise DegenerateBodyError("polytope needs at least 4 vertices in R^3")
        if not np.all(np.isfinite(v)):
            raise DegenerateBodyError("vertices must be finite")
        facets = [list(map(int, f)) for f in facets]
        if len(facets) < 4 or any(len(f) < 3 for f in facets):
            raise DegenerateBodyError("need at least 4 facets with 3+ vertices each")
        scale = float(np.max(np.abs(v))) or 1.0
        centroid = v.mean(axis=0)

        normals = np.zeros((len(facets), 3))
        offsets = np.zeros(len(facets))
        for fi, loop in enumerate(facets):
            pts = v[loop]
            # Newell normal is robust for near-planar loops
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

        neighbors: list[set] = [set() for _ in range(len(v))]
        for a, b in edges:
            neighbors[a].add(b)
            neighbors[b].add(a)

        self.vertices = v
        self.facets = facets
        self.facet_normals = normals
        self.facet_offsets = offsets
        self.edges = np.asarray(edges, dtype=int)
        self.edge_facets = np.asarray([edge_map[e] for e in edges], dtype=int)
        self.vertex_neighbors = [sorted(s) for s in neighbors]
        self.scale = scale

    def support(self, directions):
        d = np.atleast_2d(np.asarray(directions, dtype=float))
        return np.max(d @ self.vertices.T, axis=-1)


def build_polytope(vertices, facets) -> Polytope3:
    return Polytope3(vertices, facets)


def polytope_from_points(points) -> Polytope3:
    """Convex hull with coplanar triangles merged into polygonal facets."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
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
    neg = -base
    matched = all(
        np.min(np.linalg.norm(neg - b, axis=1)) < 1e-9 * (np.abs(base).max() or 1.0)
        for b in base
    )
    if not matched:
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


def standard_polytope(name: str, **kw) -> Polytope3:
    """Named solids used by the averaging experiments.

    cube(side), tetrahedron(side), octahedron(side),
    hexagonal_prism(circumradius, height), truncated_octahedron(edge),
    rhombic_dodecahedron(edge), elongated_dodecahedron(elongation).
    """
    name = name.lower().replace("-", "_")
    if name == "cube":
        s = 0.5 * float(kw.get("side", 1.0))
        verts = np.array(list(itertools.product((-s, s), repeat=3)))
        return polytope_from_points(verts)
    if name == "tetrahedron":
        s = float(kw.get("side", 1.0)) / math.sqrt(8.0)
        verts = s * np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1.0)])
        return polytope_from_points(verts)
    if name == "octahedron":
        s = float(kw.get("side", 1.0)) / math.sqrt(2.0)
        verts = s * np.vstack([np.eye(3), -np.eye(3)])
        return polytope_from_points(verts)
    if name == "hexagonal_prism":
        r = float(kw.get("circumradius", 1.0))
        h = float(kw.get("height", 1.0))
        return prism_over(_regular_polygon(6, r), h)
    if name == "truncated_octahedron":
        edge = float(kw.get("edge", math.sqrt(2.0)))
        scale = edge / math.sqrt(2.0)
        base = []
        for perm in itertools.permutations((0.0, 1.0, 2.0)):
            for sx in (-1, 1):
                for sy in (-1, 1):
                    for sz in (-1, 1):
                        base.append((sx * perm[0], sy * perm[1], sz * perm[2]))
        verts = scale * np.unique(np.asarray(base), axis=0)
        return polytope_from_points(verts)
    if name == "rhombic_dodecahedron":
        edge = float(kw.get("edge", math.sqrt(3.0)))
        scale = edge / math.sqrt(3.0)
        cube = list(itertools.product((-1.0, 1.0), repeat=3))
        axes = [
            (2.0, 0, 0), (-2.0, 0, 0), (0, 2.0, 0), (0, -2.0, 0), (0, 0, 2.0), (0, 0, -2.0),
        ]
        verts = scale * np.asarray(cube + axes)
        return polytope_from_points(verts)
    if name == "elongated_dodecahedron":
        c = float(kw.get("elongation", 2.0))
        gens = np.array(
            [[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [0.0, 0.0, c]]
        )
        return polytope_from_points(_zonotope_points(gens))
    raise DegenerateBodyError(f"unknown standard polytope '{name}'")


# ---------------------------------------------------------------------------
# measures, containment, sampling


def facet_area(poly: Polytope3, fi: int) -> float:
    loop = poly.facets[fi]
    pts = poly.vertices[loop]
    acc = np.zeros(3)
    for i in range(1, len(loop) - 1):
        acc += np.cross(pts[i] - pts[0], pts[i + 1] - pts[0])
    return 0.5 * float(np.linalg.norm(acc))


def measure3d(poly: Polytope3) -> dict:
    areas = np.array([facet_area(poly, fi) for fi in range(len(poly.facets))])
    vol = float(np.sum(poly.facet_offsets * areas) / 3.0)
    return {"volume": vol, "surface_area": float(np.sum(areas))}


def contains3_batch(poly: Polytope3, pts, tol: float = 0.0) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    slack = pts @ poly.facet_normals.T - poly.facet_offsets
    return np.max(slack, axis=1) <= tol


def contains3(poly: Polytope3, point, tol: float = 0.0) -> bool:
    return bool(contains3_batch(poly, np.asarray(point, dtype=float), tol)[0])


def bounding_box3(poly: Polytope3):
    return poly.vertices.min(axis=0), poly.vertices.max(axis=0)


def sample_interior3(poly: Polytope3, n: int, seed: int, box=None) -> np.ndarray:
    """n uniform interior points via rejection from the bounding box."""
    if n <= 0:
        return np.zeros((0, 3))
    lo, hi = bounding_box3(poly) if box is None else box
    out = []
    have = 0
    for cand in box_candidates(seed, lo, hi):
        keep = cand[contains3_batch(poly, cand)]
        if len(keep):
            out.append(keep)
            have += len(keep)
        if have >= n:
            break
    return np.concatenate(out)[:n]
