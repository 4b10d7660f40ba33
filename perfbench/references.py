"""Reference answers for the benchmark's jobs, derived without normcount.

Every function here works from a body's JSON description with plain NumPy
and SciPy; none calls into ``normcount``.  The derivation of each value is
written beside it.  Smooth bodies are ``support2d`` descriptions:
h(t) = a0 + sum_k a_k cos(kt) + b_k sin(kt), radius of curvature
rho = h + h'', boundary point r(t) = h u(t) + h' u'(t).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

# Constant width 1: the integral of the normal count is pi*w^2 (the inward
# chord from every boundary point has length w), so the mean is
# pi / area = pi / ((pi - sqrt 3) / 2), the equality case of the paper's
# constant-width bound.
REULEAUX_NORMALS = 2.0 * math.pi / (math.pi - math.sqrt(3.0))

# Exact face-region volumes (each region is the solid cut by a few
# half-spaces, measured with HalfspaceIntersection + ConvexHull.volume)
# give 26.
TRUNCATED_OCTAHEDRON_NORMALS = 26.0

# tau of an affine-regular hexagon is 1 (it is its own largest inscribed
# affine-regular hexagon), so the normed-width bound 6 / (3 - 2 tau) is 6.
HEXAGON_TAU = 1.0
HEXAGON_BOUND = 6.0
# Every ellipse is affinely a disk, whose largest inscribed affine-regular
# hexagon is the regular one: 3*sqrt(3)/2 over pi.
DISK_TAU = 3.0 * math.sqrt(3.0) / (2.0 * math.pi)


def _coeffs(desc):
    ac = np.asarray(desc.get("cos", []), dtype=float)
    bs = np.asarray(desc.get("sin", []), dtype=float)
    d = max(len(ac), len(bs))
    ac = np.concatenate([ac, np.zeros(d - len(ac))])
    bs = np.concatenate([bs, np.zeros(d - len(bs))])
    return float(desc["a0"]), ac, bs, np.arange(1, d + 1, dtype=float)


def support(desc, t, deriv=0):
    """h, h' or h'' of a support2d description at angles t."""
    a0, ac, bs, k = _coeffs(desc)
    kt = np.multiply.outer(np.asarray(t, dtype=float), k)
    c, s = np.cos(kt), np.sin(kt)
    if deriv == 0:
        return a0 + c @ ac + s @ bs
    if deriv == 1:
        return -(s * k) @ ac + (c * k) @ bs
    return -(c * k**2) @ ac - (s * k**2) @ bs


def smooth_boundary(desc, t):
    t = np.asarray(t, dtype=float)
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    up = np.stack([-np.sin(t), np.cos(t)], axis=-1)
    return support(desc, t)[:, None] * u + support(desc, t, 1)[:, None] * up


def smooth_area(desc) -> float:
    """A = (1/2) int (h^2 - h'^2) = pi a0^2 - (pi/2) sum (k^2 - 1)(a_k^2 + b_k^2)."""
    a0, ac, bs, k = _coeffs(desc)
    return math.pi * a0**2 - 0.5 * math.pi * float(np.sum((k**2 - 1) * (ac**2 + bs**2)))


def evolute_clearance(desc, grid: int = 2048) -> float:
    """Smallest distance by which the centres of curvature stay inside K.

    Positive means the evolute lies inside K: every centre c satisfies
    <c, u> < h(u) in every direction u.
    """
    t = np.arange(grid) * (2.0 * math.pi / grid)
    rho = support(desc, t) + support(desc, t, 2)
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    centres = smooth_boundary(desc, t) - rho[:, None] * u
    excess = centres @ u.T - support(desc, t)[None, :]
    return -float(np.max(excess))


def smooth_normals_mean(desc) -> float:
    """Mean normal count of a smooth body whose evolute lies inside it.

    Stable and unstable feet balance, and the normal bundle p = r - s u has
    Jacobian |rho - s|, so int_K n = int (rho^2 - (rho - L)_+^2) dt with L the
    inward chord.  With the evolute inside K the L term vanishes and Parseval
    gives int rho^2 = 2 pi a0^2 + pi sum (k^2 - 1)^2 (a_k^2 + b_k^2).
    Generic smooth body: 2.16 pi / 0.984 pi = 90/41.
    """
    if evolute_clearance(desc) <= 0.0:
        raise ValueError("the Parseval reference needs the evolute inside the body")
    return smooth_rho_sq_integral(desc) / smooth_area(desc)


def smooth_rho_sq_integral(desc) -> float:
    a0, ac, bs, k = _coeffs(desc)
    return 2.0 * math.pi * a0**2 + math.pi * float(np.sum((k**2 - 1) ** 2 * (ac**2 + bs**2)))


def smooth_diameters_mean(desc, grid: int = 4096) -> float:
    """Mean affine-diameter count of a smooth body.

    int_K d = int_0^pi w(psi) (rho(psi)^2 + rho(psi+pi)^2)
              / (2 (rho(psi) + rho(psi+pi))) dpsi,  w = h(psi) + h(psi+pi);
    the integrand is a smooth periodic function, so the rectangle rule is
    spectrally accurate.  Generic smooth body: 1.0604962.
    """
    psi = np.arange(grid) * (math.pi / grid)
    rho0 = support(desc, psi) + support(desc, psi, 2)
    rho1 = support(desc, psi + math.pi) + support(desc, psi + math.pi, 2)
    w = support(desc, psi) + support(desc, psi + math.pi)
    integral = float(np.sum(w * (rho0**2 + rho1**2) / (2.0 * (rho0 + rho1)))) * math.pi / grid
    return integral / smooth_area(desc)


def flow_normals_mean(desc, t: float) -> float:
    """Outward eikonal flow h -> h + t: normal lines are invariant, so the
    excess I - 2A is constant and n(t) = 2 + (I0 - 2 A0) / A(t), with
    A(t) = A0 + P t + pi t^2 and P = 2 pi a0."""
    a0 = float(desc["a0"])
    area0 = smooth_area(desc)
    area_t = area0 + 2.0 * math.pi * a0 * t + math.pi * t * t
    return 2.0 + (smooth_rho_sq_integral(desc) - 2.0 * area0) / area_t


def flow_area(desc, t: float) -> float:
    return smooth_area(desc) + 2.0 * math.pi * float(desc["a0"]) * t + math.pi * t * t


def flow_perimeter(desc, t: float) -> float:
    return 2.0 * math.pi * (float(desc["a0"]) + t)


def convex_hull(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts[ConvexHull(pts).vertices]  # counter-clockwise in 2-D


def antipodal_triangles(vertices) -> np.ndarray:
    """Triangles (v_i, a_j, b_j) of antipodal vertex-edge pairs of a convex
    CCW polygon: edge j's inward normal lies in vertex i's normal cone.  A
    point lies on one affine diameter per triangle containing it."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    cross = lambda a, b: a[0] * b[1] - a[1] * b[0]  # noqa: E731
    tris = []
    for i in range(len(v)):
        for j in range(len(v)):
            m = -nrm[j]
            if cross(nrm[i - 1], m) >= -1e-12 and cross(m, nrm[i]) >= -1e-12:
                tris.append((v[i], v[j], v[(j + 1) % len(v)]))
    return np.asarray(tris)


def polygon_area(vertices) -> float:
    x, y = np.asarray(vertices, dtype=float).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _clip(poly, normal, offset) -> np.ndarray:
    """The part of a convex CCW polygon where <x, normal> >= offset."""
    s = poly @ normal - offset
    out = []
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        if s[i] >= 0:
            out.append(poly[i])
        if (s[i] >= 0) != (s[j] >= 0):
            out.append(poly[i] + s[i] / (s[i] - s[j]) * (poly[j] - poly[i]))
    return np.asarray(out).reshape(-1, 2)


def polygon_normals_mean(vertices) -> float:
    """Edge i is a foot for the points of P over it, (x - v_i).e_i in
    [0, |e_i|^2]; vertex i for the points where moving along e_i and back
    along e_(i-1) both bring the boundary closer.  Both regions are P cut by
    two half-planes, so the mean is a sum of clipped areas over A."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    total = 0.0
    for i in range(len(v)):
        ahead = _clip(v, e[i], e[i] @ v[i])
        total += polygon_area(_clip(ahead, -e[i], -(e[i] @ v[(i + 1) % len(v)])))
        total += polygon_area(_clip(ahead, -e[i - 1], -(e[i - 1] @ v[i])))
    return total / polygon_area(v)


def polygon_diameters_mean(vertices) -> float:
    """Sum of antipodal triangle areas over the polygon's area.
    The hull of the 11 rng(3) Gaussian points: 2.9455736."""
    tris = antipodal_triangles(vertices)
    d1, d2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return float(np.sum(areas)) / polygon_area(vertices)


def triangle_margins(p, tris) -> np.ndarray:
    """Per triangle, the smallest signed area (p, side) over its three sides,
    oriented so that a positive value means p is strictly inside."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    orient = np.sign((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                     - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    out = []
    for s, t in ((a, b), (b, c), (c, a)):
        out.append(orient * ((t[:, 0] - s[:, 0]) * (p[1] - s[:, 1])
                             - (t[:, 1] - s[:, 1]) * (p[0] - s[:, 0])))
    return np.min(out, axis=0)


def reuleaux_boundary(width: float, m: int) -> np.ndarray:
    """Boundary of the Reuleaux triangle with vertices at angles 0, 120, 240
    degrees: the arc from vertex j to j+1 is centred at the third vertex."""
    circ = width / math.sqrt(3.0)
    ang = 2.0 * math.pi * np.arange(3) / 3.0
    verts = circ * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pieces = []
    for j in range(3):
        c = verts[(j + 2) % 3]
        a0 = math.atan2(*(verts[j] - c)[::-1])
        g = a0 + (math.pi / 3.0) * np.arange(m) / m
        pieces.append(c + width * np.stack([np.cos(g), np.sin(g)], axis=1))
    return np.concatenate(pieces)


def dense_normal_count(p, boundary) -> int:
    """Normals through p: strict local extrema of |p - q|^2 along a dense
    cyclic sampling of the boundary (corners are included as samples)."""
    d = np.sum((boundary - p) ** 2, axis=1)
    prev, nxt = np.roll(d, 1), np.roll(d, -1)
    return int(np.sum((d > prev) & (d > nxt)) + np.sum((d < prev) & (d < nxt)))
