"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the production code paths: counts come from dense
sampling and discrete Morse theory, areas from pixel grids, gauges and
normal chords from containment bisection.  Slow but simple enough to audit by eye.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull, HalfspaceIntersection

from normcount.bodies2d import (ArcBody2, Polygon2, SmoothBody2,
                                contains2_batch, signed_boundary_excess, unit)
from normcount.trigcount import gauss_panels

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# dense boundary polylines


def boundary_polyline(body, samples: int) -> np.ndarray:
    """Points along the boundary in order (closed; last connects to first)."""
    if isinstance(body, Polygon2):
        per_edge = max(2, samples // len(body.vertices))
        pts = []
        for i, v in enumerate(body.vertices):
            w = body.vertices[(i + 1) % len(body.vertices)]
            ts = np.arange(per_edge) / per_edge
            pts.append(v + ts[:, None] * (w - v))
        return np.concatenate(pts)
    if isinstance(body, SmoothBody2):
        theta = np.linspace(0.0, TWO_PI, samples, endpoint=False)
        return body.boundary(theta)
    if isinstance(body, ArcBody2):
        pts = []
        total = sum(a.radius * ((a.ang1 - a.ang0) % TWO_PI or TWO_PI)
                    for a in body.arcs)
        for a in body.arcs:
            span = (a.ang1 - a.ang0) % TWO_PI or TWO_PI
            m = max(2, int(samples * a.radius * span / total))
            # half-open: the next arc's first sample is this arc's endpoint,
            # so each corner appears exactly once (a duplicate would pair
            # with itself and fabricate an extremum from ulp noise)
            ang = a.ang0 + span * np.arange(m) / m
            pts.append(np.asarray(a.center) + a.radius
                       * np.stack([np.cos(ang), np.sin(ang)], axis=1))
        return np.concatenate(pts)
    raise TypeError(type(body).__name__)


def polyline_distance(poly: np.ndarray, pts, chunk: int = 32) -> np.ndarray:
    """Distance from each point to the closed polyline through ``poly``,
    taken segment by segment for ``chunk`` points at a time."""
    a = poly
    e = np.roll(poly, -1, axis=0) - a
    out = []
    for b in range(0, len(pts), chunk):
        w = np.asarray(pts[b:b + chunk], dtype=float)[:, None, :] - a
        t = np.clip(np.einsum("pij,ij->pi", w, e) / np.einsum("ij,ij->i", e, e), 0.0, 1.0)
        out.append(np.min(np.linalg.norm(w - t[..., None] * e, axis=2), axis=1))
    return np.concatenate(out)


def critical_count_2d(body, p, samples: int = 20000) -> int:
    """Number of local extrema of boundary distance from p (dense polyline).

    Ties are broken lexicographically by (distance, position index), so flat
    stretches cannot inflate the count; each strict local min or max of the
    tie-broken sequence is one critical point.
    """
    pts = boundary_polyline(body, samples)
    d = np.einsum("ij,ij->i", pts - p, pts - p)
    n = len(d)
    idx = np.arange(n)
    left = np.roll(d, 1)
    right = np.roll(d, -1)
    lidx = np.roll(idx, 1)
    ridx = np.roll(idx, -1)
    gt_left = (d > left) | ((d == left) & (idx > lidx))
    gt_right = (d > right) | ((d == right) & (idx > ridx))
    maxima = int(np.sum(gt_left & gt_right))
    minima = int(np.sum(~gt_left & ~gt_right))
    return minima + maxima


def stable_critical_count_2d(body, p, samples: int = 20000) -> int:
    """Local minima only (stable equilibria) by the same dense sweep."""
    pts = boundary_polyline(body, samples)
    d = np.einsum("ij,ij->i", pts - p, pts - p)
    idx = np.arange(len(d))
    left, lidx = np.roll(d, 1), np.roll(idx, 1)
    right, ridx = np.roll(d, -1), np.roll(idx, -1)
    gt_left = (d > left) | ((d == left) & (idx > lidx))
    gt_right = (d > right) | ((d == right) & (idx > ridx))
    return int(np.sum(~gt_left & ~gt_right))


# ---------------------------------------------------------------------------
# discrete Morse counts on a triangulated polytope surface


def _subdivision(res: int) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights (i, j, k)/res of one triangle at resolution
    ``res``, i outer and j inner, and its small triangles as rows of
    indices into them."""
    ij = [(i, j) for i in range(res + 1) for j in range(res + 1 - i)]
    at = {key: n for n, key in enumerate(ij)}
    small = []
    for i in range(res):
        for j in range(res - i):
            small.append((at[i, j], at[i + 1, j], at[i, j + 1]))
            if i + j < res - 1:
                small.append((at[i + 1, j], at[i + 1, j + 1], at[i, j + 1]))
    w = np.array([(i, j, res - i - j) for i, j in ij], dtype=float)
    return w, np.array(small)


def _surface_mesh(poly, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Watertight triangle mesh of the boundary: fan-triangulated facets,
    each triangle subdivided at barycentric resolution ``res``.  Points that
    agree to 1e-9 of the scale are one vertex, numbered in the order they
    are first met."""
    corners = []
    for loop in poly.facets:
        pts = poly.vertices[loop]
        if len(loop) == 3:  # direct; a centroid fan would make obtuse triangles
            corners.append(pts[[0, 1, 2]])
        elif len(loop) == 4:
            corners += [pts[[0, 1, 2]], pts[[0, 2, 3]]]
        else:
            center = pts.mean(axis=0)
            corners += [np.stack([pts[i], pts[(i + 1) % len(loop)], center])
                        for i in range(len(loop))]
    w, small = _subdivision(res)
    abc = np.array(corners)  # (triangles, 3 corners, 3 coordinates)
    x = (w[None, :, :1] * abc[:, None, 0] + w[None, :, 1:2] * abc[:, None, 1]
         + w[None, :, 2:] * abc[:, None, 2]) / res
    x = x.reshape(-1, 3)
    keys = np.round(x / poly.scale, 9) + 0.0  # one key for -0.0 and 0.0
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    vid = np.argsort(order)[inverse.ravel()]
    tris = (np.arange(len(abc))[:, None, None] * len(w) + small[None]).reshape(-1, 3)
    return x[first[order]], vid[tris]


_LINKS: dict = {}  # (vertex bytes, res) -> links of the last two meshes built


def _surface_links(poly, res: int):
    """Vertices, undirected edges, degrees and link edges of the mesh.

    Link edge (a, b) of vertex c is the side of a triangle (a, b, c) facing
    c.  Every edge lies on exactly two triangles, so each link is a closed
    path, one cycle around the vertex on a convex surface.  Built once per
    (solid, resolution), as every query point reuses it.
    """
    key = (poly.vertices.tobytes(), res)
    if key not in _LINKS:
        verts, tris = _surface_mesh(poly, res)
        n = len(verts)
        sides = np.sort(tris[:, [[0, 1], [1, 2], [0, 2]]].reshape(-1, 2), axis=1)
        codes, on = np.unique(sides[:, 0] * n + sides[:, 1], return_counts=True)
        if np.any(on != 2):
            raise RuntimeError(f"surface mesh at res={res} is not watertight")
        edges = np.stack([codes // n, codes % n], axis=1)
        degree = np.bincount(edges.ravel(), minlength=n)
        center = tris.ravel()
        link = tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
        if len(_LINKS) == 2:
            del _LINKS[next(iter(_LINKS))]
        _LINKS[key] = verts, edges, degree, center, link
    return _LINKS[key]


def surface_critical_counts(poly, p, res: int = 24) -> tuple[int, int, int]:
    """(minima, saddles, maxima) of |x - p| over the boundary surface.

    Discrete Morse: classify each mesh vertex by the number of connected
    components of its lower link (neighbors with smaller value, connected
    through link edges).  Ties are broken by vertex id (simulation of
    simplicity).  Returns totals; saddle multiplicity counts components - 1.
    A link is a cycle, so a lower link short of all of it is a set of paths,
    and its components number its vertices less its edges.
    """
    p = np.asarray(p, dtype=float)
    verts, edges, degree, center, link = _surface_links(poly, res)
    n = len(verts)
    d = np.einsum("ij,ij->i", verts - p, verts - p)
    rank = np.empty(n, dtype=int)
    rank[np.lexsort((np.arange(n), d))] = np.arange(n)  # lower: smaller rank
    upper = np.where(rank[edges[:, 0]] > rank[edges[:, 1]], edges[:, 0], edges[:, 1])
    low = np.bincount(upper, minlength=n)
    both = np.all(rank[link] < rank[center][:, None], axis=1)
    low_edges = np.bincount(center[both], minlength=n)
    minimum, maximum = low == 0, low == degree
    saddle = ~(minimum | maximum)
    saddles = int(np.sum(low[saddle] - low_edges[saddle] - 1))
    return int(np.sum(minimum)), saddles, int(np.sum(maximum))


def surface_critical_counts_converged(poly, p, res_lo: int = 34,
                                      res_hi: int = 52) -> tuple[int, int, int]:
    """Surface critical counts confirmed at two well-separated resolutions.

    Coarse meshes merge critical pairs closer than the spacing, and the
    merged answer is stable until the spacing beats the pair separation,
    so agreement between successive coarse meshes can confirm an artifact.
    Both counts here use fine meshes and must agree and satisfy
    min - sad + max = 2; otherwise the point is unresolved and we raise.
    """
    lo = surface_critical_counts(poly, p, res=res_lo)
    hi = surface_critical_counts(poly, p, res=res_hi)
    if lo != hi or lo[0] - lo[1] + lo[2] != 2:
        raise RuntimeError(f"mesh counts unresolved at {p}: {lo} vs {hi}")
    return lo


# ---------------------------------------------------------------------------
# areas, gauges, random polygons


def _edge_list(poly) -> list[tuple[int, int]]:
    edges = set()
    for f in poly.facets:
        k = len(f)
        for j in range(k):
            a, b = f[j], f[(j + 1) % k]
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def candidate_feet_separation(poly, p) -> float:
    """Min pairwise distance among candidate normal feet seen from p.

    Candidates: orthogonal projections onto facet planes that land strictly
    inside their facet, projections onto edge lines landing strictly inside
    the segment, and all vertices.  A superset of the true feet, so the
    returned separation is a lower bound for the true one.
    """
    p = np.asarray(p, dtype=float)
    V, N, off = poly.vertices, poly.facet_normals, poly.facet_offsets
    feet = []
    for i in range(len(N)):
        q = p + (off[i] - N[i] @ p) * N[i]
        slack = off - N @ q
        slack[i] = np.inf
        if np.min(slack) > 1e-9:
            feet.append(q)
    for a, b in _edge_list(poly):
        u = V[b] - V[a]
        t = (p - V[a]) @ u / (u @ u)
        if 1e-9 < t < 1 - 1e-9:
            feet.append(V[a] + t * u)
    feet.extend(V)
    pts = np.array(feet)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    iu = np.triu_indices(len(pts), 1)
    return float(np.sqrt(np.min(d2[iu])))


def in_vertex_cone_nnls(poly, vi: int, y: np.ndarray) -> bool:
    """Conical-hull membership of y in the inward facet normals at vertex
    vi, by nonnegative least squares on the facet normals themselves: no
    edge parameter, so independent of the counter's polar test."""
    normals = -poly.facet_normals[[fi for fi, loop in enumerate(poly.facets) if vi in loop]].T
    _, resid = nnls(normals, y)
    return resid <= 1e-9 * float(np.linalg.norm(y))


def vertex_feet_nnls(poly, p) -> int:
    """Vertices whose normal cone holds p - v, by ``in_vertex_cone_nnls``."""
    p = np.asarray(p, dtype=float)
    return sum(in_vertex_cone_nnls(poly, vi, p - v) for vi, v in enumerate(poly.vertices))


# ---------------------------------------------------------------------------
# the face tests of two tolerance units, as they stood before one region
# rule served polygons and polytopes: a reference for ``normals._region_masks``


def polygon_counts_t(P: Polygon2, pts):
    """(total, stable, flags) by the edge parameter t_i = (x - v_i) . e_i /
    |e_i|^2, from the vertices: edge i holds a foot where 0 < t_i < 1,
    vertex i where t_i >= 0 and t_{i-1} <= 1, and a point with some t_i
    within 1e-9 of 0 or 1 is flagged, its total DEGENERATE (-2)."""
    v = P.vertices
    e = np.roll(v, -1, axis=0) - v
    t = np.einsum("pij,ij->pi", np.asarray(pts, dtype=float)[:, None, :] - v, e) / np.sum(e * e, 1)
    edge = (t > 0.0) & (t < 1.0)
    vertex = (t >= 0.0) & np.roll(t <= 1.0, 1, axis=1)
    flags = np.any((np.abs(t) < 1e-9) | (np.abs(t - 1.0) < 1e-9), axis=1)
    stable = np.count_nonzero(edge, axis=1)
    total = np.where(flags, -2, stable + np.count_nonzero(vertex, axis=1))
    return total, stable, flags


def polytope_counts_strict_t(poly, pts):
    """(total, (facet, edge, vertex) feet, flags) with distances against
    tol = 1e-9*scale and edge parameters against 1e-9: a facet holds a foot
    where its side distances are >= -tol, an edge where 0 < t < 1 and its
    slab distances are >= -tol, a vertex where its t rows are >= -1e-9.  A
    point within tol (1e-9 for t) of a boundary of a region that holds it is
    flagged, its total DEGENERATE (-2).  Distances are the ``Polytope3``
    table rows times the scale, with no row blocks."""
    x = np.vstack([np.asarray(pts, dtype=float).T, np.ones(len(pts))])
    tol = 1e-9 * poly.scale

    def values(table):
        return (table.reshape(-1, 4) @ x).reshape(*table.shape[:2], -1)

    low = np.min(values(poly.facet_sides * poly.scale), axis=1)
    inside = low >= -tol
    flags = np.any(inside & (low < tol), axis=0)
    stable = np.count_nonzero(inside, axis=0)
    edge = values(poly.edge_sides)
    t, low = edge[:, 0], np.min(edge[:, 2:], axis=1) * poly.scale
    inside = (t > 0.0) & (t < 1.0) & (low >= -tol)
    flags |= np.any(inside & ((low < tol) | (np.minimum(t, 1.0 - t) < 1e-9)), axis=0)
    saddle = np.count_nonzero(inside, axis=0)
    low = np.min(values(poly.vertex_sides), axis=1)
    inside = low >= -1e-9
    flags |= np.any(inside & (low < 1e-9), axis=0)
    peak = np.count_nonzero(inside, axis=0)
    total = np.where(flags, -2, stable + saddle + peak)
    return total, (stable, saddle, peak), flags


def _region_volume(A: np.ndarray, b: np.ndarray, scale: float) -> float:
    """Volume of {x : A x <= b}, from qhull at the linprog Chebyshev centre;
    0 where the largest inscribed ball has radius below 1e-12*scale."""
    norms = np.linalg.norm(A, axis=1)
    res = linprog([0.0, 0.0, 0.0, -1.0], A_ub=np.column_stack([A, norms]), b_ub=b,
                  bounds=[(None, None)] * 3 + [(0.0, None)])
    if res.status != 0 or res.x[3] <= 1e-12 * scale:
        return 0.0
    return ConvexHull(HalfspaceIntersection(np.column_stack([A, -b]), res.x[:3])
                      .intersections).volume


def polytope_mean_from_facets_and_vertices(poly) -> float:
    """Mean normal count of a polytope from its facet and vertex regions:
    by Morse, edges = facets + vertices - 2 feet at every interior point, so
    n = 2 (vol of facet regions + vol of vertex regions) / vol - 2.

    Regions come from the vertices and facet loops, not from the counter's
    tables: a facet's is the prism (p - a) . (n x (b - a)) >= 0 over its
    sides ab, a vertex's the cone (p - v) . (w - v) >= 0 over its neighbours
    w.  Both are cut by the facet planes; empty regions are skipped.
    """
    V, N, c = poly.vertices, poly.facet_normals, poly.facet_offsets
    total = 0.0
    for loop, nrm in zip(poly.facets, N):
        a = V[loop]
        inward = np.cross(nrm, np.roll(a, -1, axis=0) - a)
        total += _region_volume(np.vstack([N, -inward]),
                                np.concatenate([c, -np.einsum("ij,ij->i", inward, a)]),
                                poly.scale)
    edges = _edge_list(poly)
    for vi, v in enumerate(V):
        w = V[[b if a == vi else a for a, b in edges if vi in (a, b)]] - v
        total += _region_volume(np.vstack([N, -w]), np.concatenate([c, -w @ v]), poly.scale)
    vol = ConvexHull(V).volume
    return 2.0 * total / vol - 2.0


def max_facet_diameter(poly) -> float:
    best = 0.0
    for f in poly.facets:
        pts = poly.vertices[list(f)]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        best = max(best, float(np.sqrt(np.max(d2))))
    return best


def deep_interior_points3(poly, n: int, seed: int, frac: float = 0.25,
                          res: int | None = None) -> np.ndarray:
    """Interior samples with facet margin >= frac * (margin at the centroid).

    The surface oracle merges critical pairs closer than the mesh spacing;
    points too near the boundary have vertex/edge feet separated by less
    than that, so the comparison tests stay in the deep interior.  When
    `res` is given, additionally require the candidate feet to be separated
    by at least four mesh cells at that resolution.
    """
    from normcount.bodies3d import sample_interior3

    c = poly.vertices.mean(axis=0)
    c_margin = float(np.min(poly.facet_offsets - poly.facet_normals @ c))
    min_sep = 4.0 * max_facet_diameter(poly) / res if res is not None else 0.0
    out: list[np.ndarray] = []
    for attempt in range(12):
        pts = sample_interior3(poly, 200 * n, seed + attempt)
        margins = poly.facet_offsets - pts @ poly.facet_normals.T
        for p in pts[np.min(margins, axis=1) >= frac * c_margin]:
            if min_sep and candidate_feet_separation(poly, p) < min_sep:
                continue
            out.append(p)
            if len(out) == n:
                return np.array(out)
    raise RuntimeError("not enough deep interior samples; lower frac")


def polygon_diameter_count(P, p, samples: int = 20000):
    """Affine diameters through p by a direction sweep (polygon only).

    For each chord direction phi the chord through p meets the boundary at
    two points with outward-normal intervals [la, ha] and [lb, hb]; the
    chord is an affine diameter iff those intervals contain antipodal
    angles.  G(phi) = signed circular excess of the midline mismatch over
    the combined cone width is zero exactly on diameters, so isolated
    diameters are sign changes of G and parallel edge-pair families are
    exact-zero plateaus (reported as inf).  Independent of the production
    face-pair enumeration.
    """
    p = np.asarray(p, dtype=float)
    V = P.vertices
    k = len(V)
    E = np.roll(V, -1, axis=0) - V
    n_ang = np.arctan2(-E[:, 0], E[:, 1])  # outward normal of CCW edge
    n_ang = np.mod(n_ang, TWO_PI)
    w = V - p
    rows = np.arange(samples)

    def hit(u):
        # first boundary crossing of each ray p + s u, s > 0: edge i at
        # parameter t along it, one row per direction
        denom = u[:, :1] * E[:, 1] - u[:, 1:] * E[:, 0]
        s = (w[:, 0] * E[:, 1] - w[:, 1] * E[:, 0]) / np.where(denom == 0, np.nan, denom)
        t = (w[:, 0] * u[:, 1:] - w[:, 1] * u[:, :1]) / np.where(denom == 0, np.nan, denom)
        ok = (s > 0) & (t >= -1e-12) & (t <= 1 + 1e-12)
        assert np.all(np.any(ok, axis=1)), "a ray from p misses the boundary"
        i = np.argmin(np.where(ok, s, np.inf), axis=1)
        return i, np.clip(t[rows, i], 0.0, 1.0)

    def cone(i, t, tol=1e-9):
        # the normal cone at the hit: vertex i below tol, vertex i+1 above
        # 1 - tol, else the edge normal alone
        lo = np.where(t < tol, n_ang[(i - 1) % k], n_ang[i])
        hi = np.where(t > 1 - tol, n_ang[(i + 1) % k], n_ang[i])
        return lo, hi

    def wrap(x):
        return (x + np.pi) % TWO_PI - np.pi

    phi = np.arange(samples) * (np.pi / samples)
    u = np.column_stack([np.cos(phi), np.sin(phi)])
    la, ha = cone(*hit(u))
    lb, hb = cone(*hit(-u))
    wa = (ha - la) % TWO_PI
    wb = (hb - lb) % TWO_PI
    c = wrap(la + 0.5 * wa - (lb + 0.5 * wb) - np.pi)
    G = np.sign(c) * np.maximum(0.0, np.abs(c) - 0.5 * (wa + wb))
    # chord(phi + pi) is chord(phi) with endpoints swapped, so G is
    # antiperiodic: close the sweep against -G[0]
    closed = np.concatenate([G, -G[:1]])
    zero = closed == 0.0
    if np.any(zero[:-2] & zero[1:-1] & zero[2:]):  # a run of 3 exact zeros
        return np.inf
    return int(np.sum(closed[:-1] * closed[1:] < 0))


def sampled_lines(body: SmoothBody2, d, degree: int) -> np.ndarray:
    """Reference line table of ``SmoothBody2.lines``, by sampling: the
    line function g_p(theta) = cross(d(theta), p - r(theta)) is
    -cross(d, r) + x (-d_y) + y d_x, and 2*degree + 2 equispaced samples of
    each term give its coefficients c_0..c_degree by an rfft, with no
    aliasing for g_p of degree at most ``degree``.  ``d(theta)`` returns
    the directions as an (m, 2) array."""
    m = 2 * degree + 2
    theta = np.arange(m) * (TWO_PI / m)
    dv = d(theta)
    r = body.boundary(theta)
    terms = np.stack([dv[:, 1] * r[:, 0] - dv[:, 0] * r[:, 1], -dv[:, 1], dv[:, 0]])
    return np.fft.rfft(terms, axis=1)[:, :degree + 1] / m


def line_values(table: np.ndarray, pts, theta) -> np.ndarray:
    """g_p(theta) of a line table, summed term by term: one row per point
    of ``pts``, one column per angle."""
    coef = table[0] + np.atleast_2d(pts) @ table[1:]
    k = np.arange(table.shape[1])
    coef = coef * np.where(k > 0, 2.0, 1.0)
    return (coef @ np.exp(1j * np.outer(k, theta))).real


_CHORDS: dict = {}  # (coefficient bytes, samples) -> chords of the last body swept


def smooth_diameter_count(body, p, samples: int = 200000) -> int:
    """Diameters through p via a dense antiperiodic sign sweep.

    The chord between the antipodal support points r(phi), r(phi + pi)
    passes through p exactly when the cross product of (r(phi+pi) - r(phi))
    and (p - r(phi)) vanishes; that function flips sign at phi + pi, so the
    count is the number of sign changes over half a turn.  The chords are
    built once per (body, samples), as every query point reuses them.
    """
    p = np.asarray(p, dtype=float)
    key = (np.concatenate([[body.a0], body.ac, body.bs]).tobytes(), samples)
    if key not in _CHORDS:
        phi = np.arange(samples) * (np.pi / samples)
        r0 = body.boundary(phi)
        _CHORDS.clear()
        _CHORDS[key] = r0, body.boundary(phi + np.pi) - r0
    r0, d = _CHORDS[key]
    g = d[:, 0] * (p[1] - r0[:, 1]) - d[:, 1] * (p[0] - r0[:, 0])
    closed = np.concatenate([g, -g[:1]])
    return int(np.sum(closed[:-1] * closed[1:] < 0))


def points_in_convex_polygon(region: np.ndarray, pts, tol: float = 1e-12) -> np.ndarray:
    """Closed containment test of each row of pts against a CCW vertex
    array: every edge's cross product is at least -tol times its scale."""
    v = np.asarray(region, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    w = np.asarray(pts, dtype=float)[:, None, :] - v
    cross = e[:, 0] * w[..., 1] - e[:, 1] * w[..., 0]
    return np.all(cross >= -tol * max(1.0, np.max(np.abs(v))), axis=1)


def point_in_convex_polygon(region: np.ndarray, p, tol: float = 1e-12) -> bool:
    """``points_in_convex_polygon`` of one point."""
    return bool(points_in_convex_polygon(region, np.asarray(p, dtype=float)[None, :], tol)[0])


def pixel_area(indicator, lo, hi, n: int = 1500) -> float:
    """Monte-Carlo-free raster area of {x in box : indicator(x)}."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs = lo[0] + (np.arange(n) + 0.5) * (hi[0] - lo[0]) / n
    ys = lo[1] + (np.arange(n) + 0.5) * (hi[1] - lo[1]) / n
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / (n * n)
    return float(np.count_nonzero(indicator(pts))) * cell


def gauge_bisection(M_body, x, iters: int = 200) -> float:
    """gauge(x) as the scaling s with x/s on the boundary, by pure bisection."""
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        return 0.0
    lo, hi = 1e-12, 1e6

    def outside(s):
        return float(signed_boundary_excess(M_body, (x / s)[None, :])[0]) > 0.0

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if outside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect(f, lo, hi) -> np.ndarray:
    """Vectorized bisection of the brackets [lo[i], hi[i]].

    ``f(t)`` returns, per bracket, whether t lies on the ``lo`` side of the
    crossing (f holds at lo and fails at hi).  64 halvings take every bracket
    below 2**-64 of its width, past double resolution, so no tolerance is
    needed.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        left = f(mid)
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def bracket_bisection(f, lo, hi) -> np.ndarray:
    """The crossing in each bracket [lo[i], hi[i]] of f(t, rows) = (value,
    slope), value > 0 on the lo side, by 64 halvings of the predicate
    value > 0 on every row; the slope is ignored.  A drop-in reference for
    ``trigcount.newton``."""
    shape = np.shape(lo)
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    rows = np.arange(lo.size)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        left = f(mid, rows)[0] > 0
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return (0.5 * (lo + hi)).reshape(shape)


def chord_bisection(body, starts, dirs, length) -> np.ndarray:
    """The chord from each boundary start along its unit direction, by
    ``bisect`` of s over (0, length) on whether start + s*dir lies inside
    (``contains2_batch``); length must reach past the exit.  A reference
    for ``ArcBody2.chord``."""
    return bisect(lambda s: contains2_batch(body, starts + s[:, None] * dirs),
                  np.zeros(len(starts)), length)


def normal_chord_bisection(body: SmoothBody2, theta) -> np.ndarray:
    """The inward normal chord L(theta) of a smooth body, by
    ``chord_bisection`` over (0, width(theta)): the chord ends within its
    slab of that width.  A reference for ``SmoothBody2.normal_chord``."""
    theta = np.asarray(theta, dtype=float)
    width = body.support(theta) + body.support(theta + np.pi)
    return chord_bisection(body, body.boundary(theta), -unit(theta), width)


def normal_means_dense(body: SmoothBody2, grid: int):
    """(n, n_surf, kinks) of a smooth body, with the kinks of (rho - L)_+
    found by a scan of f = rho - L on ``grid`` angles and ``bisect`` of f's
    sign in each interval where it changes: a reference for
    ``evolute.normal_means`` that sees every pair of kinks further apart
    than the grid spacing.  rho^2 is summed by the rectangle rule (exact for
    a trigonometric polynomial of degree below grid / 2) and the (rho - L)_+
    terms by ``gauss_panels`` between the kinks.  L is
    ``SmoothBody2.normal_chord``, which ``normal_chord_bisection`` checks."""
    step = TWO_PI / grid
    theta = np.arange(grid) * step
    rho = body.rho(theta)
    ups = rho > body.normal_chord(theta)[0]
    cut = np.flatnonzero(ups != np.roll(ups, -1))
    rising = ~ups[cut]  # f rises through its root there
    kinks = bisect(lambda t: (body.rho(t) > body.normal_chord(t)[0]) != rising,
                   theta[cut], theta[cut] + step)
    ends, starts = np.roll(kinks, -1)[rising], kinks[rising]
    t, w = gauss_panels(starts, ends + TWO_PI * (ends < starts))
    chord, e = body.normal_chord(t)
    over = np.maximum(body.rho(t) - chord, 0.0)
    return ((step * np.sum(rho**2) - np.sum(w * over**2)) / body.area(),
            2.0 + 2.0 * np.sum(w * over / -np.cos(e - t)) / body.perimeter(), kinks)


def random_convex_polygon(rng, k: int):
    """Convex hull of k standard-normal points (>= 3 hull vertices)."""
    from normcount.bodies2d import build_polygon

    while True:
        pts = rng.standard_normal((k, 2))
        try:
            return build_polygon(pts)
        except Exception:
            continue


def random_symmetric_polygon(rng, half: int):
    """Centrally symmetric polygon: hull of +/- half random points."""
    from normcount.bodies2d import build_polygon

    while True:
        pts = rng.standard_normal((half, 2))
        try:
            return build_polygon(np.vstack([pts, -pts]))
        except Exception:
            continue


def random_concyclic_symmetric_polygon(rng, half: int, radius: float = 1.0):
    """Symmetric polygon with all vertices on one circle."""
    from normcount.bodies2d import build_polygon

    ang = np.sort(rng.uniform(0.0, np.pi, half))
    ang = np.concatenate([ang, ang + np.pi])
    return build_polygon(radius * np.stack([np.cos(ang), np.sin(ang)], axis=1))


def lens(radius: float = 1.0, half_gap: float = 0.6) -> ArcBody2:
    """Intersection of the disks of the given radius about (0, -+half_gap):
    two arcs and two corners on the x axis."""
    from normcount.bodies2d import Arc

    b = np.arctan2(half_gap, np.sqrt(radius**2 - half_gap**2))
    return ArcBody2([Arc((0.0, -half_gap), radius, b, np.pi - b),
                     Arc((0.0, half_gap), radius, np.pi + b, TWO_PI - b)])


def offset_reuleaux(width: float = 1.0, offset: float = 0.15) -> ArcBody2:
    """The Reuleaux triangle's outer parallel body: its arcs grown by the
    offset, and an arc of that radius over each corner's cone (C^1, so it
    has no corners)."""
    from normcount.bodies2d import Arc, build_reuleaux

    R = build_reuleaux(3, width)
    arcs = []
    for a, (*v, _r, lo, hi) in zip(R.arcs, R.pieces[len(R.arcs):]):
        arcs += [Arc(a.center, a.radius + offset, a.ang0, a.ang1), Arc(tuple(v), offset, lo, hi)]
    return ArcBody2(arcs)


def support_series(body, t):
    """(h, h', h'') of a SmoothBody2 at the angles t, written out here from
    its coefficients."""
    t = np.asarray(t, dtype=float)
    k = np.arange(1, len(body.ac) + 1)
    c, s = np.cos(np.outer(t, k)), np.sin(np.outer(t, k))
    return (body.a0 + c @ body.ac + s @ body.bs,
            (c * k) @ body.bs - (s * k) @ body.ac,
            -(c * k**2) @ body.ac - (s * k**2) @ body.bs)


def support_margin_dense(body, pts, grid: int = 4096) -> np.ndarray:
    """max over theta of <p, u(theta)> - h(theta) for a SmoothBody2: every
    local maximum over ``grid`` angles, polished by Newton's method on
    ``support_series``, and the largest value kept."""
    theta = np.arange(grid) * (TWO_PI / grid)
    h = support_series(body, theta)[0]
    u = np.stack([np.cos(theta), np.sin(theta)])
    out = []
    for b in range(0, len(pts), 256):
        p = np.asarray(pts[b:b + 256], dtype=float)
        vals = p @ u
        vals -= h
        peaks = (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
        row, j = np.nonzero(peaks)
        q, t = p[row], theta[j]
        for _ in range(6):
            _, h1, h2 = support_series(body, t)
            pu = q[:, 0] * np.cos(t) + q[:, 1] * np.sin(t)
            pv = q[:, 1] * np.cos(t) - q[:, 0] * np.sin(t)
            t = t - np.clip((pv - h1) / (-pu - h2), -TWO_PI / grid, TWO_PI / grid)
        polished = q[:, 0] * np.cos(t) + q[:, 1] * np.sin(t) - support_series(body, t)[0]
        best = np.full(len(p), -np.inf)
        np.maximum.at(best, row, np.maximum(vals[row, j], polished))
        out.append(best)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# gauges and inscribed hexagons of norm balls


def ball_walk(M_body, t) -> np.ndarray:
    """Boundary points of a norm ball at parameters t: the normal angle of a
    SmoothBody2, r = h u + h' u', or the arc length from vertex 0 along a
    CCW Polygon2."""
    t = np.asarray(t, dtype=float)
    if isinstance(M_body, SmoothBody2):
        h, h1, _ = support_series(M_body, t)
        c, s = np.cos(t), np.sin(t)
        return np.stack([h * c - h1 * s, h * s + h1 * c], axis=-1)
    v = M_body.vertices
    e = np.roll(v, -1, axis=0) - v
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(e[:, 0], e[:, 1]))])
    pos = t % cum[-1]
    i = np.clip(np.searchsorted(cum, pos, side="right") - 1, 0, len(v) - 1)
    return v[i] + ((pos - cum[i]) / (cum[i + 1] - cum[i]))[:, None] * e[i]


def gauge_radial(M_body, X, table: int = 4096) -> np.ndarray:
    """gauge(x) = |x| over the radius of the ball in x's direction.

    For a polygon that radius is met on the edge whose line gives the
    largest cross(x, e_i) / cross(v_i, e_i).  For a smooth ball the boundary
    point r(theta) along x is the root of cross(r(theta), x): its bracket is
    read off a table of polar angles of r, and Newton's method on
    F' = -rho <x, u> finishes it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(M_body, Polygon2):
        v = M_body.vertices
        e = np.roll(v, -1, axis=0) - v
        num = X[:, :1] * e[:, 1] - X[:, 1:] * e[:, 0]
        return np.max(num / (v[:, 0] * e[:, 1] - v[:, 1] * e[:, 0]), axis=1)
    theta = np.arange(table + 1) * (TWO_PI / table)
    r = ball_walk(M_body, theta)
    polar = np.unwrap(np.arctan2(r[:, 1], r[:, 0]))
    psi = polar[0] + (np.arctan2(X[:, 1], X[:, 0]) - polar[0]) % TWO_PI
    j = np.clip(np.searchsorted(polar, psi, side="right") - 1, 0, table - 1)
    lo, hi = theta[j], theta[j + 1]
    t = 0.5 * (lo + hi)
    zero = ~np.any(X != 0.0, axis=1)
    for _ in range(4):  # quadratic from a bracket of 2*pi/table
        h, h1, h2 = support_series(M_body, t)
        c, s = np.cos(t), np.sin(t)
        f = (h * c - h1 * s) * X[:, 1] - (h * s + h1 * c) * X[:, 0]
        df = -(h + h2) * (X[:, 0] * c + X[:, 1] * s)
        t = np.clip(t - f / np.where(zero, 1.0, df), lo, hi)
    rt = ball_walk(M_body, t)
    return np.sum(X * rt, axis=1) / np.sum(rt * rt, axis=1)


def hexagon_cross(M_body, ts, samples: int = 20000) -> np.ndarray:
    """3*|cross(u, v)| for u = ``ball_walk`` at each parameter in ts and v
    the first point of the half-arc after u with gauge(v - u) = 1.

    ``samples`` points of the half-arc are scanned with ``gauge_radial`` for
    the first one at or above 1, and the step before it is bisected.
    """
    ts = np.asarray(ts, dtype=float)
    if isinstance(M_body, SmoothBody2):
        half = np.pi
    else:
        e = np.roll(M_body.vertices, -1, axis=0) - M_body.vertices
        half = 0.5 * float(np.sum(np.hypot(e[:, 0], e[:, 1])))
    u = ball_walk(M_body, ts)
    steps = half * np.arange(samples + 1) / samples
    lo, hi = np.empty(len(ts)), np.empty(len(ts))
    for i, (t, ui) in enumerate(zip(ts, u)):
        k = int(np.argmax(gauge_radial(M_body, ball_walk(M_body, t + steps) - ui) >= 1.0))
        lo[i], hi[i] = t + steps[k - 1], t + steps[k]
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = gauge_radial(M_body, ball_walk(M_body, mid) - u) < 1.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    v = ball_walk(M_body, lo)
    return 3.0 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
