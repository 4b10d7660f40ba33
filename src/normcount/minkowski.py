"""Normed-plane (Birkhoff) normality and the inscribed-hexagon ratio.

In a plane normed by a centrally symmetric convex body M, a line is normal
to a convex body K at a boundary point when a translate of the line through
the origin touches M exactly where a translate of K's supporting line
supports M.  For smooth strictly convex M this gives a closed form: the
normal direction at the K-point with outer normal angle theta is the
direction of the M-boundary point r_M(theta).  With M the Euclidean disk
this is the classical normal, and the entire counting pipeline reduces to
the Euclidean one root-for-root.  The normals through p are the roots of
cross(r_M(theta), p - r_K(theta)), the line function with d = r_M: K's
table of it (``SmoothBody2.lines``) comes from M's Laurent coefficients
``R``, and its roots are counted by the certified kernel of ``trigcount``; a
point whose count cannot be certified is DEGENERATE.

tau(M) is the largest area of an affine-regular hexagon inscribed in M,
relative to the area of M; it is affine-invariant, at most 1 (equality
exactly for affine-regular hexagons), and 3*sqrt(3)/(2*pi) for ellipses.
Its vertices are +-u, +-v, +-(v - u) with u, v on the boundary and
gauge(v - u) = 1; that gauge never falls as v runs from u to -u, so each v
is the one root of 1 - gauge(v - u) along the half-arc after u, and all u of
a pass solve for it together by ``newton``, whose slope is the gauge's
gradient along the boundary.
"""

from __future__ import annotations

import numpy as np

from .bodies2d import (TWO_PI, Polygon2, SmoothBody2, cross2, measure2d,
                       require_interior, require_smooth, symmetric_under_negation,
                       unit)
from .errors import (DegenerateConfigurationError, DomainError,
                     UnsupportedCombinationError)
from .trigcount import count_roots, newton, root_angles, row_blocks


_GAUGE_GRID = 2048  # normal angles of the smooth gauge's bracket table


class NormBall2:
    """A centrally symmetric planar body used as the unit ball of a norm.

    ``gauge_table`` of a smooth ball holds normal angles theta_j of a uniform
    grid, h_M(theta_j) and the polar angles of r_M(theta_j), unwrapped: they
    rise from that of r_M(0) to it plus 2pi, as M is centrally symmetric with
    rho > 0.  A polygon ball has none.
    """

    def __init__(self, body):
        if isinstance(body, SmoothBody2):
            tol = 1e-10 * body.scale
            for k, c in enumerate(body.ac, start=1):
                if k % 2 == 1 and abs(c) > tol:
                    raise DomainError(f"cos harmonic {k} breaks central symmetry")
            for k, c in enumerate(body.bs, start=1):
                if k % 2 == 1 and abs(c) > tol:
                    raise DomainError(f"sin harmonic {k} breaks central symmetry")
            thetas = np.arange(_GAUGE_GRID) * (TWO_PI / _GAUGE_GRID)
            r = body.boundary(thetas)
            self.gauge_table = (thetas, body.support(thetas),
                                np.unwrap(np.arctan2(r[:, 1], r[:, 0])))
        elif isinstance(body, Polygon2):
            if not symmetric_under_negation(body.vertices, 1e-9 * body.scale):
                raise DomainError("vertex set is not symmetric under negation")
            if np.min(body.edge_offsets) <= 0:
                raise DomainError("the origin must be interior to the norm ball")
            self.gauge_table = None
        else:
            raise UnsupportedCombinationError(
                f"norm balls must be smooth bodies or polygons, got {type(body).__name__}")
        self.body = body

    @property
    def is_smooth(self) -> bool:
        return isinstance(self.body, SmoothBody2)

    def area(self) -> float:
        return measure2d(self.body)["area"]


def _lines(M: NormBall2, K: SmoothBody2) -> np.ndarray:
    """K's line table of d = r_M, whose Laurent coefficients are M's own."""
    return K.lines(M.body.R, 1 - M.body.degree, K.degree + M.body.degree + 2)


_UNCERTIFIED = ("the Minkowski normal count is not certified here: the point lies "
                "on the M-evolute, or the normal function vanishes identically")


def mink_counts_batch(M: NormBall2, K: SmoothBody2,
                      pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count Minkowski normals through each point; returns (counts, flags).

    G has degree deg h_M + max(1, deg h_K); its table is padded to the
    bound deg h_K + deg h_M + 2, whose start grid and rounding allowance
    the kernel uses, and its roots are counted by the certified kernel of
    ``trigcount``.  Counts are DEGENERATE where G vanishes or its roots
    cannot be certified by the kernel's finest grid (the M-evolute).
    """
    require_smooth(M.body, "Birkhoff normality")
    require_smooth(K, "Minkowski counting")
    counts, _, flags = count_roots(_lines(M, K), pts, K.scale * M.body.scale)
    return counts, flags


def count_minkowski_normals(M: NormBall2, K: SmoothBody2, p) -> int:
    """Number of Birkhoff normals of K through interior point p;
    DegenerateConfigurationError where ``mink_counts_batch`` flags p."""
    counts, flags = mink_counts_batch(M, K, require_interior(K, p)[None, :])
    if flags[0]:
        raise DegenerateConfigurationError(_UNCERTIFIED)
    return int(counts[0])


def minkowski_counter(M: NormBall2):
    """Counter factory for the averaging module."""
    require_smooth(M.body, "Birkhoff normality")

    def fn(body, pts):
        counts, degen = mink_counts_batch(M, body, pts)
        return counts.astype(float), degen

    return fn


def refine_mink_roots(M: NormBall2, K: SmoothBody2, p) -> np.ndarray:
    """Root angles in [0, 2pi), ascending, of the Minkowski normal function
    through p.

    Each is the Newton-refined sign change of one interval of the grid on
    which the certified kernel proves the count of ``mink_counts_batch``, so
    there are exactly that many.  p must be an interior point of a smooth K,
    as for ``count_minkowski_normals``; where the counter flags p,
    DegenerateConfigurationError is raised.
    """
    require_smooth(M.body, "Birkhoff normality")
    require_smooth(K, "Minkowski counting")
    found = root_angles(_lines(M, K), require_interior(K, p), K.scale * M.body.scale)
    if found is None:
        raise DegenerateConfigurationError(_UNCERTIFIED)
    return found[0]


# ---------------------------------------------------------------------------
# gauge and the inscribed affine-regular hexagon ratio


# refinement rounds of _POINTS interior points: each keeps 2/(_POINTS + 1)
# of the bracket, so the last leaves (2/65)**3 of two coarse steps
_ROUNDS = 3
_POINTS = 64


def _gauge_and_gradient(M: NormBall2, X) -> tuple[np.ndarray, np.ndarray]:
    """(gauge, gradient) of each row of X: the Minkowski functional, the
    scale at which the point hits the boundary of M (0 for a zero row), and
    its gradient u(a)/h_M(a), with a the outer normal angle of M at the
    point x/gauge(x) that attains it.

    Exact over facet normals for polygons, where a is that of the edge of
    the largest <x, n>/offset; their rows run in ``row_blocks`` of at most
    ``_BLOCK`` row times edge entries, so memory does not grow with the
    number of rows.  For smooth balls the gauge is the maximum over theta
    of <x, u(theta)>/h_M(theta).  That ratio has two critical points, where
    r_M(theta) points along x (the maximum) and along -x, so the maximum
    lies in the one grid interval whose r_M polar angles bracket atan2(x),
    found by one ``searchsorted``.  The better end of that bracket is the
    grid maximum; two clipped Newton steps polish it, and a is the polished
    angle or the grid end, whichever gives the larger ratio.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    body = M.body
    if isinstance(body, Polygon2):
        out = np.empty(len(X))
        edge = np.empty(len(X), dtype=int)
        for rows in row_blocks(len(X), len(body)):
            ratios = (X[rows] @ body.edge_normals.T) / body.edge_offsets
            edge[rows] = np.argmax(ratios, axis=1)
            out[rows] = ratios[np.arange(len(ratios)), edge[rows]]
        return out, body.edge_normals[edge] / body.edge_offsets[edge, None]
    thetas, h, polar = M.gauge_table
    psi = polar[0] + (np.arctan2(X[:, 1], X[:, 0]) - polar[0]) % TWO_PI
    j = np.searchsorted(polar, psi, side="right") - 1
    ends = np.stack([j, (j + 1) % _GAUGE_GRID], axis=1)
    ratios = (X[:, :1] * np.cos(thetas[ends]) + X[:, 1:] * np.sin(thetas[ends])) / h[ends]
    k = np.argmax(ratios, axis=1)
    rows = np.arange(len(X))
    grid_best = ratios[rows, k]
    grid_end = ends[rows, k]
    t = thetas[grid_end]
    step_cap = 1.5 * (TWO_PI / _GAUGE_GRID)
    for _ in range(2):
        c, s = np.cos(t), np.sin(t)
        hv, h1, h2 = body.jet(t)
        rho = hv + h2
        xu = X[:, 0] * c + X[:, 1] * s
        xdu = -X[:, 0] * s + X[:, 1] * c
        num = xdu * hv - xu * h1
        dnum = -xu * rho
        safe = np.abs(dnum) > 1e-300
        t = t - np.clip(np.where(safe, num / np.where(safe, dnum, 1.0), 0.0),
                        -step_cap, step_cap)
    ht = body.support(t)
    polished = (X[:, 0] * np.cos(t) + X[:, 1] * np.sin(t)) / ht
    better = polished >= grid_best
    a = np.where(better, t, thetas[grid_end])
    return (np.where(better, polished, grid_best),
            unit(a) / np.where(better, ht, h[grid_end])[:, None])


def gauge_batch(M: NormBall2, X) -> np.ndarray:
    """Minkowski functional of each row of X: the scale at which the point
    hits the boundary of M, and 0 for a zero row (see
    ``_gauge_and_gradient``)."""
    return _gauge_and_gradient(M, X)[0]


def gauge(M: NormBall2, x) -> float:
    return float(gauge_batch(M, np.asarray(x, dtype=float)[None, :])[0])


def _boundary_walk(body, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points at parameters ts, and their derivatives in ts: the
    parameter is the normal angle of a smooth body, where the derivative is
    rho(t) u_perp(t), and the arc length along the polyline of a polygon,
    where it is the unit vector of the edge holding the point."""
    if isinstance(body, SmoothBody2):
        h, h1, h2 = body.jet(ts)
        u = unit(ts)
        up = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        return h[..., None] * u + h1[..., None] * up, (h + h2)[..., None] * up
    pts, edge = body.walk(np.asarray(ts, dtype=float) % body.vertex_arclengths[-1])
    return pts, body.edge_vecs[edge] / body.edge_lengths[edge, None]


def _hexagon_objectives(M: NormBall2, ts: np.ndarray, half: float,
                        area: float) -> np.ndarray:
    """3*|cross(u, v)|/area for u at each parameter in ts and v on the
    half-arc after u with gauge(v - u) = 1.

    As v = w(t) runs from u to -u, gauge(v - u) rises from 0 to 2 and never
    falls (the monotonicity lemma of normed planes), so v is the one root of
    f(t) = 1 - gauge(w(t) - u) on [t_u, t_u + half], found for all rows by
    ``newton`` with the slope -<grad gauge, w'(t)>; its bracket safeguard
    covers the kinks of polygon balls and the plateaus where the slope is 0.
    A sub-arc with gauge(v - u) = 1 lies on the boundaries of both M and
    M + u, which share interior points (u/2), so it is one edge of M on the
    line of its translate by u: parallel to u, it holds one value of
    cross(u, v).
    """
    body = M.body
    u = _boundary_walk(body, ts)[0]

    def f(t, rows):
        w, dw = _boundary_walk(body, t)
        g, grad = _gauge_and_gradient(M, w - u[rows])
        return 1.0 - g, -np.einsum("ij,ij->i", grad, dw)

    v = _boundary_walk(body, newton(f, ts, ts + half))[0]
    return 3.0 * np.abs(cross2(u, v)) / area


def hexagon_ratio_tau(M: NormBall2, coarse: int = 720) -> float:
    """Largest inscribed affine-regular hexagon area, relative to area(M).

    The hexagon has vertices +-u, +-v, +-(v - u) with u, v on the boundary
    and gauge(v - u) = 1; its area is 3*|cross(u, v)|.  The objective is
    taken at ``coarse`` u-parameters on half the boundary (plus the vertices
    of a polygon) in one batched pass, and ``coarse`` below 2 raises
    DomainError.  The bracket of two coarse steps around the best of them is
    refined in 3 rounds: each takes the objective at 64 interior points in
    one batched pass and keeps the best of them +- one step, so the last
    bracket is (2/65)**3 of two coarse steps.
    """
    if coarse < 2:
        raise DomainError(f"coarse must be at least 2, got {coarse}")
    body = M.body
    area = M.area()
    if isinstance(body, SmoothBody2):
        half = np.pi
        params = np.arange(coarse) * (half / coarse)  # half suffices
    else:
        half = 0.5 * body.vertex_arclengths[-1]
        params = np.unique(np.concatenate([
            body.vertex_arclengths[:-1], np.arange(coarse) * (half / coarse)]))
    step = params[1] - params[0]
    ts = np.concatenate([[params[0] - step], params, [params[-1] + step]])
    best = 0.0
    for _ in range(1 + _ROUNDS):  # the coarse pass, then the refinement rounds
        vals = _hexagon_objectives(M, ts[1:-1], half, area)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        ts = np.linspace(ts[j], ts[j + 2], _POINTS + 2)  # best +- one step
    return best


def _width_bound(tau: float) -> float:
    return 6.0 / (3.0 - 2.0 * tau)


def normed_width_bound(M: NormBall2) -> float:
    """Upper bound 6/(3 - 2*tau(M)) for the mean Minkowski normal count of
    constant-M-width bodies."""
    return _width_bound(hexagon_ratio_tau(M))
