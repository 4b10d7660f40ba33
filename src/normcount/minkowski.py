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


def mink_counts_batch(M: NormBall2, K: SmoothBody2, pts: np.ndarray,
                      base_grid: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Count Minkowski normals through each point; returns (counts, flags).

    G has degree N = deg h_K + deg h_M + 2; its roots are counted by the
    certified kernel of ``trigcount``.  Counts are DEGENERATE where G
    vanishes or its roots cannot be certified by the kernel's finest grid
    (the M-evolute).  base_grid is the starting grid; it changes the speed
    only, never a count.
    """
    _require_smooth_ball(M)
    if not isinstance(K, SmoothBody2):
        raise UnsupportedCombinationError("Minkowski counting needs a smooth K")
    counts, _, flags = count_roots(lambda q, th: _mink_g(M, K, q, th), pts,
                                   K.degree + M.body.degree + 2,
                                   K.scale * M.body.scale, base_grid)
    return counts, flags


def count_minkowski_normals(M: NormBall2, K: SmoothBody2, p,
                            base_grid: int | None = None) -> int:
    """Number of Birkhoff normals of K through interior point p."""
    require_interior(K, p)
    counts, _ = mink_counts_batch(M, K, np.asarray(p, dtype=float)[None, :], base_grid)
    return int(counts[0])


def minkowski_counter(M: NormBall2, base_grid: int | None = None):
    """Counter factory for the averaging module."""
    _require_smooth_ball(M)

    def fn(body, pts):
        counts, degen = mink_counts_batch(M, body, pts, base_grid)
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


def _smooth_gauge_grid(M: NormBall2, grid: int = 2048):
    cache = getattr(M, "_gauge_grid", None)
    if cache is None or len(cache[2]) != grid:
        thetas = np.arange(grid) * (TWO_PI / grid)
        u = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        h = M.body.support(thetas)
        cache = (thetas, u, h)
        M._gauge_grid = cache
    return cache


def gauge_batch(M: NormBall2, X) -> np.ndarray:
    """Minkowski functional of each row of X: the scale at which the point
    hits the boundary of M.  Exact over facet normals for polygons; dense
    support-ratio grid with two vectorized Newton polish steps for smooth
    balls (the maximum of <x, u>/h_M(u) over directions u)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    body = M.body
    if isinstance(body, Polygon2):
        vals = (X @ body.edge_normals.T) / body.edge_offsets
        return np.max(vals, axis=1)
    thetas, u, h = _smooth_gauge_grid(M)
    ratios = (X @ u.T) / h
    grid_best = np.max(ratios, axis=1)
    t = thetas[np.argmax(ratios, axis=1)]
    step_cap = 1.5 * (thetas[1] - thetas[0])
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
    cum = np.concatenate([[0.0], np.cumsum(body.edge_lengths)])
    pos = np.asarray(ts, dtype=float) % cum[-1]
    idx = np.clip(np.searchsorted(cum, pos, side="right") - 1, 0, len(body) - 1)
    frac = (pos - cum[idx]) / body.edge_lengths[idx]
    return body.vertices[idx] + frac[:, None] * body.edge_vecs[idx]


def _second_vertex_candidates(M: NormBall2, u: np.ndarray, t0: float,
                              half: float, scan: int = 512) -> list[np.ndarray]:
    """Boundary points v with gauge(v - u) = 1 on the half-arc after t0.

    Collects every sign-change crossing of gauge - 1, bisected; polygon norms
    can hold gauge = 1 along whole sub-arcs, so near-zero plateau samples are
    kept as candidates too (the plateau endpoints carry the extrema).
    """
    body = M.body
    ts = t0 + (np.arange(1, scan) / scan) * half
    pts = _boundary_walk(body, ts)
    gv = gauge_batch(M, pts - u) - 1.0
    plateau = np.abs(gv) <= 1e-9
    cands = list(pts[plateau])
    above = gv > 0
    i = np.flatnonzero(~plateau[:-1] & ~plateau[1:] & (above[:-1] != above[1:]))
    if len(i):
        t = bisect(lambda t: (gauge_batch(M, _boundary_walk(body, t) - u) > 1.0) == above[i],
                   ts[i], ts[i + 1])
        cands.extend(_boundary_walk(body, t))
    if not cands:  # gauge crosses 1 on every half-arc; keep the nearest sample
        cands.append(pts[int(np.argmin(np.abs(gv)))])
    return cands


def _hexagon_objective(M: NormBall2, t: float, half: float, area: float) -> float:
    u = _boundary_walk(M.body, np.array([t]))[0]
    best = 0.0
    for v in _second_vertex_candidates(M, u, t, half):
        best = max(best, 3.0 * abs(cross2(u, v)) / area)
    return best


def hexagon_ratio_tau(M: NormBall2, coarse: int = 720) -> float:
    """Largest inscribed affine-regular hexagon area, relative to area(M).

    The hexagon has vertices +-u, +-v, +-(v - u) with u, v on the boundary
    and gauge(v - u) = 1; its area is 3*|cross(u, v)|.  The u-grid search
    (augmented with polygon vertices) is refined by golden section.
    """
    body = M.body
    area = M.area()
    if isinstance(body, SmoothBody2):
        period, half = TWO_PI, np.pi
        params = np.arange(coarse) * (period / coarse / 2.0)  # half suffices
    else:
        cum = np.concatenate([[0.0], np.cumsum(body.edge_lengths)])
        period, half = cum[-1], 0.5 * cum[-1]
        params = np.unique(np.concatenate([
            cum[:-1], np.arange(coarse) * (period / coarse / 2.0)]))

    vals = np.array([_hexagon_objective(M, t, half, area) for t in params])
    i = int(np.argmax(vals))
    lo = params[i] - (params[1] - params[0] if i == 0 else params[i] - params[i - 1])
    hi = params[i] + (params[i + 1] - params[i] if i + 1 < len(params)
                      else params[1] - params[0])
    best = float(vals[i])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _hexagon_objective(M, c, half, area)
    fd = _hexagon_objective(M, d, half, area)
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _hexagon_objective(M, c, half, area)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _hexagon_objective(M, d, half, area)
        best = max(best, fc, fd)
    return best


def normed_width_bound(M: NormBall2) -> float:
    """Upper bound 6/(3 - 2*tau(M)) for the mean Minkowski normal count of
    constant-M-width bodies."""
    return 6.0 / (3.0 - 2.0 * hexagon_ratio_tau(M))
