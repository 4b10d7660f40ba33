"""Normed-plane (Birkhoff) normality and the inscribed-hexagon ratio.

In a plane normed by a centrally symmetric convex body M, a line is normal
to a convex body K at a boundary point when a translate of the line through
the origin touches M exactly where a translate of K's supporting line
supports M.  For smooth strictly convex M this gives a closed form: the
normal direction at the K-point with outer normal angle theta is the
direction of the M-boundary point r_M(theta).  With M the Euclidean disk
this is the classical normal, and the entire counting pipeline reduces to
the Euclidean one root-for-root.  The normals through a point are the roots
of a trigonometric polynomial, counted by the certified kernel of
``trigcount``; a point whose count cannot be certified is DEGENERATE.

tau(M) is the largest area of an affine-regular hexagon inscribed in M,
relative to the area of M; it is affine-invariant, at most 1 (equality
exactly for affine-regular hexagons), and 3*sqrt(3)/(2*pi) for ellipses.
"""

from __future__ import annotations

import numpy as np

from .bodies2d import (TWO_PI, Polygon2, SmoothBody2, bisect, cross2,
                       measure2d, require_interior)
from .errors import (DegenerateConfigurationError, DomainError,
                     UnsupportedCombinationError)
from .trigcount import count_roots, root_angles


class NormBall2:
    """A centrally symmetric planar body used as the unit ball of a norm."""

    def __init__(self, body):
        if isinstance(body, SmoothBody2):
            tol = 1e-10 * body.scale
            for k, c in enumerate(body.ac, start=1):
                if k % 2 == 1 and abs(c) > tol:
                    raise DomainError(f"cos harmonic {k} breaks central symmetry")
            for k, c in enumerate(body.bs, start=1):
                if k % 2 == 1 and abs(c) > tol:
                    raise DomainError(f"sin harmonic {k} breaks central symmetry")
        elif isinstance(body, Polygon2):
            tol = 1e-9 * body.scale
            for v in body.vertices:
                if np.min(np.linalg.norm(body.vertices + v, axis=1)) > tol:
                    raise DomainError("vertex set is not symmetric under negation")
            if np.min(body.edge_offsets) <= 0:
                raise DomainError("the origin must be interior to the norm ball")
        else:
            raise UnsupportedCombinationError(
                f"norm balls must be smooth bodies or polygons, got {type(body).__name__}")
        self.body = body

    @property
    def is_smooth(self) -> bool:
        return isinstance(self.body, SmoothBody2)

    def area(self) -> float:
        return measure2d(self.body)["area"]


def _require_smooth_ball(M: NormBall2):
    if not M.is_smooth:
        raise UnsupportedCombinationError(
            "Birkhoff directions need a smooth strictly convex norm ball")


def birkhoff_direction(M: NormBall2, phi: float) -> np.ndarray:
    """Unit direction of the M-normal at a boundary point with outer normal
    angle ``phi``: the M-boundary point r_M(phi) sharing that outer normal
    (its tangent is parallel to the supporting line; the antipode defines the
    same undirected normal line).  For the Euclidean disk this is u(phi)."""
    _require_smooth_ball(M)
    v = M.body.boundary(np.array([phi]))[0]
    return v / np.linalg.norm(v)


def _mink_g(M: NormBall2, K: SmoothBody2, pts: np.ndarray,
            thetas: np.ndarray) -> np.ndarray:
    """G[i, j] = cross(pts[i] - r_K(theta_j), r_M(theta_j)).

    The tangent of K at r_K(theta) has direction theta + pi/2, whose Birkhoff
    normal direction is r_M(theta); a root in theta is a normal through p.
    """
    rk = K.boundary(thetas)
    rm = M.body.boundary(thetas)
    base = rk[:, 0] * rm[:, 1] - rk[:, 1] * rm[:, 0]
    return pts @ np.stack([rm[:, 1], -rm[:, 0]]) - base


def mink_counts_batch(M: NormBall2, K: SmoothBody2,
                      pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count Minkowski normals through each point; returns (counts, flags).

    G has degree N = deg h_K + deg h_M + 2; its roots are counted by the
    certified kernel of ``trigcount``.  Counts are DEGENERATE where G
    vanishes or its roots cannot be certified by the kernel's finest grid
    (the M-evolute).
    """
    _require_smooth_ball(M)
    if not isinstance(K, SmoothBody2):
        raise UnsupportedCombinationError("Minkowski counting needs a smooth K")
    counts, _, flags = count_roots(lambda q, th: _mink_g(M, K, q, th), pts,
                                   K.degree + M.body.degree + 2,
                                   K.scale * M.body.scale)
    return counts, flags


def count_minkowski_normals(M: NormBall2, K: SmoothBody2, p) -> int:
    """Number of Birkhoff normals of K through interior point p."""
    require_interior(K, p)
    counts, _ = mink_counts_batch(M, K, np.asarray(p, dtype=float)[None, :])
    return int(counts[0])


def minkowski_counter(M: NormBall2):
    """Counter factory for the averaging module."""
    _require_smooth_ball(M)

    def fn(body, pts):
        counts, degen = mink_counts_batch(M, body, pts)
        return counts.astype(float), degen

    return fn


def refine_mink_roots(M: NormBall2, K: SmoothBody2, p) -> np.ndarray:
    """Root angles in [0, 2pi), ascending, of the Minkowski normal function
    through p.

    They are the bisected sign changes of the grid on which the certified
    kernel proves the count of ``mink_counts_batch``, so there are exactly
    that many; where that counter flags p, DegenerateConfigurationError is
    raised.
    """
    _require_smooth_ball(M)
    found = root_angles(lambda q, th: _mink_g(M, K, q, th), p,
                        K.degree + M.body.degree + 2, K.scale * M.body.scale)
    if found is None:
        raise DegenerateConfigurationError(
            "the Minkowski normal count is not certified here: the point lies "
            "on the M-evolute, or the normal function vanishes identically")
    return found[0]


# ---------------------------------------------------------------------------
# gauge and the inscribed affine-regular hexagon ratio


_GAUGE_GRID = 2048  # normal angles of the smooth gauge's bracket table
_BLOCK = 1 << 20  # gauge rows x values per row in one hexagon-objective block
# refinement rounds: each keeps 2/9 of the bracket, and (2/9)**20 is below
# 0.618**61, the width that 61 golden-section steps leave
_ROUNDS = 20


def _gauge_table(M: NormBall2):
    """Normal angles theta_j of a uniform grid, h_M(theta_j), and the polar
    angles of r_M(theta_j), unwrapped: they increase from that of r_M(0) to
    it plus 2pi, because M is centrally symmetric with rho > 0."""
    cache = getattr(M, "_gauge_table", None)
    if cache is None:
        thetas = np.arange(_GAUGE_GRID) * (TWO_PI / _GAUGE_GRID)
        r = M.body.boundary(thetas)
        cache = (thetas, M.body.support(thetas), np.unwrap(np.arctan2(r[:, 1], r[:, 0])))
        M._gauge_table = cache
    return cache


def gauge_batch(M: NormBall2, X) -> np.ndarray:
    """Minkowski functional of each row of X: the scale at which the point
    hits the boundary of M, and 0 for a zero row.

    Exact over facet normals for polygons.  For smooth balls it is the
    maximum over theta of <x, u(theta)>/h_M(theta).  That ratio has two
    critical points, where r_M(theta) points along x (the maximum) and
    along -x, so the maximum lies in the one grid interval whose r_M polar
    angles bracket atan2(x), found by one ``searchsorted``.  The better end
    of that bracket is the grid maximum; two clipped Newton steps polish it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    body = M.body
    if isinstance(body, Polygon2):
        vals = (X @ body.edge_normals.T) / body.edge_offsets
        return np.max(vals, axis=1)
    thetas, h, polar = _gauge_table(M)
    psi = polar[0] + (np.arctan2(X[:, 1], X[:, 0]) - polar[0]) % TWO_PI
    j = np.searchsorted(polar, psi, side="right") - 1
    ends = np.stack([j, (j + 1) % _GAUGE_GRID], axis=1)
    ratios = (X[:, :1] * np.cos(thetas[ends]) + X[:, 1:] * np.sin(thetas[ends])) / h[ends]
    k = np.argmax(ratios, axis=1)
    rows = np.arange(len(X))
    grid_best = ratios[rows, k]
    t = thetas[ends[rows, k]]
    step_cap = 1.5 * (TWO_PI / _GAUGE_GRID)
    for _ in range(2):
        c, s = np.cos(t), np.sin(t)
        hv = body.support(t)
        h1 = body.support_d1(t)
        rho = body.rho(t)
        xu = X[:, 0] * c + X[:, 1] * s
        xdu = -X[:, 0] * s + X[:, 1] * c
        num = xdu * hv - xu * h1
        dnum = -xu * rho
        safe = np.abs(dnum) > 1e-300
        t = t - np.clip(np.where(safe, num / np.where(safe, dnum, 1.0), 0.0),
                        -step_cap, step_cap)
    xu = X[:, 0] * np.cos(t) + X[:, 1] * np.sin(t)
    polished = xu / body.support(t)
    return np.maximum(grid_best, polished)


def gauge(M: NormBall2, x) -> float:
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        return 0.0
    return float(gauge_batch(M, x[None, :])[0])


def _boundary_walk(body, ts: np.ndarray) -> np.ndarray:
    """Boundary points at parameters ts: normal angle for smooth bodies,
    arc length along the polyline for polygons."""
    if isinstance(body, SmoothBody2):
        return body.boundary(ts)
    return body.walk(np.asarray(ts, dtype=float) % body.vertex_arclengths[-1])[0]


def _hexagon_objectives(M: NormBall2, ts: np.ndarray, half: float, area: float,
                        scan: int = 512) -> np.ndarray:
    """Largest 3*|cross(u, v)|/area over boundary points v with
    gauge(v - u) = 1 on the half-arc after u, for u at each parameter in ts.

    Every u's half-arc scan is one row of a (len(ts), scan - 1) array whose
    gauges are taken in one call.  Candidates are the sign changes of
    gauge - 1, all bisected in one call, and the samples with gauge = 1 to
    1e-9: polygon norms can hold gauge = 1 along whole sub-arcs, whose
    endpoints carry the extrema.  ts runs in blocks, so that no gauge call
    takes more than ``_BLOCK`` rows times values per row.
    """
    body = M.body
    # values per gauge row: the edge table of a polygon ball or the harmonic
    # tables of a smooth one, plus the gauge's own per-row temporaries
    work = (len(body) if isinstance(body, Polygon2) else body.degree) + 16
    block = max(1, _BLOCK // ((scan - 1) * work))
    if len(ts) > block:
        return np.concatenate([_hexagon_objectives(M, ts[i:i + block], half, area, scan)
                               for i in range(0, len(ts), block)])
    u = _boundary_walk(body, ts)
    grid = ts[:, None] + (np.arange(1, scan) / scan) * half
    pts = _boundary_walk(body, grid.ravel()).reshape(len(ts), scan - 1, 2)
    gv = gauge_batch(M, (pts - u[:, None]).reshape(-1, 2)).reshape(grid.shape) - 1.0
    plateau = np.abs(gv) <= 1e-9
    above = gv > 0
    rows, cols = np.nonzero(plateau)
    cands = pts[rows, cols]
    r, i = np.nonzero(~plateau[:, :-1] & ~plateau[:, 1:] & (above[:, :-1] != above[:, 1:]))
    t = bisect(lambda t: (gauge_batch(M, _boundary_walk(body, t) - u[r]) > 1.0)
               == above[r, i], grid[r, i], grid[r, i + 1])
    rows = np.concatenate([rows, r])
    cands = np.concatenate([cands, _boundary_walk(body, t)])
    # no sample has gauge 1 and gauge - 1 never changes sign on the
    # half-arc: keep the nearest sample
    lone = np.setdiff1d(np.arange(len(ts)), rows)
    rows = np.concatenate([rows, lone])
    cands = np.concatenate([cands, pts[lone, np.argmin(np.abs(gv[lone]), axis=1)]])
    best = np.zeros(len(ts))
    np.maximum.at(best, rows, 3.0 * np.abs(cross2(u[rows], cands)) / area)
    return best


def hexagon_ratio_tau(M: NormBall2, coarse: int = 720) -> float:
    """Largest inscribed affine-regular hexagon area, relative to area(M).

    The hexagon has vertices +-u, +-v, +-(v - u) with u, v on the boundary
    and gauge(v - u) = 1; its area is 3*|cross(u, v)|.  The objective is
    taken at ``coarse`` u-parameters on half the boundary (plus the vertices
    of a polygon) in one batched pass.  The bracket around the best of them
    is refined in rounds: each round takes the objective at 8 interior
    points in one batched pass and keeps the best of them +- one step; 20
    rounds leave it as narrow as 61 golden-section steps would.
    """
    body = M.body
    area = M.area()
    if isinstance(body, SmoothBody2):
        period, half = TWO_PI, np.pi
        params = np.arange(coarse) * (period / coarse / 2.0)  # half suffices
    else:
        cum = body.vertex_arclengths
        period, half = cum[-1], 0.5 * cum[-1]
        params = np.unique(np.concatenate([
            cum[:-1], np.arange(coarse) * (period / coarse / 2.0)]))

    vals = _hexagon_objectives(M, params, half, area)
    i = int(np.argmax(vals))
    lo = params[i] - (params[1] - params[0] if i == 0 else params[i] - params[i - 1])
    hi = params[i] + (params[i + 1] - params[i] if i + 1 < len(params)
                      else params[1] - params[0])
    best = float(vals[i])

    for _ in range(_ROUNDS):
        ts = np.linspace(lo, hi, 10)  # the bracket and 8 interior points
        vals = _hexagon_objectives(M, ts[1:-1], half, area)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        lo, hi = ts[j], ts[j + 2]
    return best


def normed_width_bound(M: NormBall2) -> float:
    """Upper bound 6/(3 - 2*tau(M)) for the mean Minkowski normal count of
    constant-M-width bodies."""
    return 6.0 / (3.0 - 2.0 * hexagon_ratio_tau(M))
