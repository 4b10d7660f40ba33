"""Planar convex bodies: polygons, Fourier support functions, arc boundaries.

Three boundary representations are supported.  ``Polygon2`` stores CCW
vertices of a strictly convex polygon.  ``SmoothBody2`` stores a truncated
Fourier series of the support function h(theta); the boundary point with
outer normal angle theta is h*u + h'*u_perp and the curvature radius is
rho = h + h''.  ``ArcBody2`` is a CCW chain of circular arcs (constant-width
shapes such as Reuleaux polygons live here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import ConvexityError, DegenerateBodyError, DomainError
from .rng import philox_generator, rejection_sample

TWO_PI = 2.0 * math.pi

# Relative tolerance for strict-convexity cross products and chain closure.
CONVEXITY_RTOL = 1e-12


def unit(theta):
    """Unit vector(s) (cos theta, sin theta); works on scalars and arrays."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def cross2(a, b):
    """z component of the planar cross product a x b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


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


def _norm_angle(t: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    return float(t) % TWO_PI


class Polygon2:
    """Strictly convex polygon with CCW vertex order.

    Derived arrays (edge vectors, outer unit normals, support offsets) are
    computed once at construction and treated as read only.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise DegenerateBodyError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise DegenerateBodyError("polygon vertices must be finite")
        scale = float(np.max(np.abs(v))) or 1.0
        e = np.roll(v, -1, axis=0) - v
        crosses = cross2(e, np.roll(e, -1, axis=0))
        if np.any(crosses <= CONVEXITY_RTOL * scale * scale):
            bad = int(np.argmin(crosses))
            raise ConvexityError(
                f"polygon is not strictly convex at vertex {bad}", where=float(bad)
            )
        self.vertices = v
        self.edge_vecs = e
        self.edge_lengths = np.hypot(e[:, 0], e[:, 1])
        # outer normal of a CCW edge is the edge direction rotated by -90 deg
        self.edge_normals = (
            np.stack([e[:, 1], -e[:, 0]], axis=1) / self.edge_lengths[:, None]
        )
        self.edge_offsets = np.einsum("ij,ij->i", v, self.edge_normals)
        # arc length from vertex 0 to each vertex, closing with the perimeter
        self.vertex_arclengths = np.concatenate([[0.0], np.cumsum(self.edge_lengths)])
        self.scale = scale

    def __len__(self) -> int:
        return len(self.vertices)

    def walk(self, pos):
        """Boundary points at arc lengths ``pos`` in [0, perimeter] from
        vertex 0 along the CCW boundary, and the index of each one's edge."""
        cum = self.vertex_arclengths
        idx = np.clip(np.searchsorted(cum, pos, side="right") - 1, 0, len(self) - 1)
        frac = (pos - cum[idx]) / self.edge_lengths[idx]
        return self.vertices[idx] + frac[:, None] * self.edge_vecs[idx], idx

    def support(self, theta):
        """Support function h(theta) = max over vertices of <v, u(theta)>."""
        u = unit(theta)
        return np.max(u @ self.vertices.T, axis=-1)

    def area(self) -> float:
        v = self.vertices
        return 0.5 * float(np.sum(cross2(v, np.roll(v, -1, axis=0))))

    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths))

    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = cross2(v, np.roll(v, -1, axis=0))
        c = (v + np.roll(v, -1, axis=0)) * w[:, None]
        return np.sum(c, axis=0) / (6.0 * self.area())


class SmoothBody2:
    """Convex body given by a truncated Fourier support function.

    h(theta) = a0 + sum_k (ac[k-1] cos k theta + bs[k-1] sin k theta).
    Validity requires rho = h + h'' > 0 on a dense grid; the constructor
    rejects nonconvex coefficient sets and names the worst angle.
    """

    def __init__(self, a0: float, cos_coeffs=(), sin_coeffs=(), check_grid: int = 4096):
        ac = np.asarray(cos_coeffs, dtype=float).ravel()
        bs = np.asarray(sin_coeffs, dtype=float).ravel()
        d = max(len(ac), len(bs))
        self.a0 = float(a0)
        self.ac = np.concatenate([ac, np.zeros(d - len(ac))])
        self.bs = np.concatenate([bs, np.zeros(d - len(bs))])
        self.degree = d
        self.k = np.arange(1, d + 1, dtype=float)
        if not np.isfinite(self.a0) or not np.all(np.isfinite(self.ac)):
            raise DegenerateBodyError("support coefficients must be finite")
        theta = np.linspace(0.0, TWO_PI, check_grid, endpoint=False)
        rho = self.rho(theta)
        scale = abs(self.a0) + float(np.sum(np.abs(self.ac)) + np.sum(np.abs(self.bs)))
        self.scale = max(scale, 1e-300)
        if rho.min() <= 1e-9 * max(scale, 1e-300):
            bad = float(theta[int(np.argmin(rho))])
            raise ConvexityError(
                f"support function is not convex: rho(theta) <= 0 near theta={bad:.6f}",
                where=bad,
            )

    def _series(self, theta, terms):
        """``terms(cos k*theta, sin k*theta)`` over the harmonics k; the
        shape follows theta, and a 0-d theta gives a float."""
        theta = np.asarray(theta, dtype=float)
        kt = np.atleast_1d(theta)[..., None] * self.k
        out = terms(np.cos(kt), np.sin(kt))
        return float(out[0]) if theta.ndim == 0 else out

    def support(self, theta):
        return self._series(theta, lambda c, s: self.a0 + c @ self.ac + s @ self.bs)

    def support_d1(self, theta):
        return self._series(theta, lambda c, s: -(s * self.k) @ self.ac + (c * self.k) @ self.bs)

    def support_d2(self, theta):
        k2 = self.k**2
        return self._series(theta, lambda c, s: -(c * k2) @ self.ac - (s * k2) @ self.bs)

    def rho(self, theta):
        """Curvature radius rho(theta) = h + h''."""
        w = 1.0 - self.k**2
        return self._series(theta, lambda c, s: self.a0 + (c * w) @ self.ac + (s * w) @ self.bs)

    def boundary(self, theta):
        """Boundary point(s) with outer normal angle theta; shape follows input."""
        scalar = np.ndim(theta) == 0
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        h = self.support(theta)
        h1 = self.support_d1(theta)
        u = unit(theta)
        up = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        pts = h[..., None] * u + h1[..., None] * up
        return pts[0] if scalar else pts

    def curvature_center(self, theta):
        """Center of curvature c(theta) = boundary - rho * u."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        r = np.atleast_2d(self.boundary(theta))
        rho = self.rho(theta)
        c = r - rho[:, None] * unit(theta)
        return c if c.shape[0] > 1 else c[0]

    def area(self) -> float:
        # 0.5 * integral(h^2 - h'^2) in closed form from the coefficients
        w = 1.0 - self.k**2
        return float(
            math.pi * self.a0**2 + 0.5 * math.pi * np.sum(w * (self.ac**2 + self.bs**2))
        )

    def perimeter(self) -> float:
        return TWO_PI * self.a0

    def arclength_to(self, theta):
        """s(theta) = integral of rho from 0 to theta (closed form)."""
        theta = np.asarray(theta, dtype=float)
        kt = theta[..., None] * self.k
        w = (1.0 - self.k**2) / self.k
        return self.a0 * theta + np.sin(kt) @ (w * self.ac) - (np.cos(kt) - 1.0) @ (
            w * self.bs
        )

    def arclength_inverse(self, fraction):
        """Normal angles theta in [0, 2*pi] where arclength_to(theta) is the
        given fraction of the perimeter."""
        s = np.asarray(fraction, dtype=float) * self.arclength_to(np.array([TWO_PI]))[0]
        return bisect(lambda t: self.arclength_to(t) < s,
                      np.zeros(s.shape), np.full(s.shape, TWO_PI))


@dataclass(frozen=True)
class Arc:
    """Circular boundary piece; ang0..ang1 are outer-normal angles."""

    center: tuple
    radius: float
    ang0: float
    ang1: float

    def point(self, gamma):
        c = np.asarray(self.center, dtype=float)
        return c + self.radius * unit(gamma)

    @property
    def span(self) -> float:
        return self.ang1 - self.ang0


class ArcBody2:
    """Convex body bounded by a CCW chain of circular arcs.

    Arc i covers outer-normal angles [ang0_i, ang1_i]; consecutive arcs meet
    at corners whose normal cones fill the gaps, so spans plus gaps sum to
    2*pi.  Corner chains with zero gaps describe C^1 boundaries.
    """

    def __init__(self, arcs):
        if len(arcs) < 1:
            raise DegenerateBodyError("arc body needs at least one arc")
        items = []
        for a in arcs:
            c = np.asarray(a.center, dtype=float)
            if a.radius <= 0 or not np.all(np.isfinite(c)):
                raise DegenerateBodyError("arc radius must be positive and finite")
            if not a.ang1 > a.ang0 - 1e-15:
                raise ConvexityError("arc normal angles must increase", where=a.ang0)
            items.append(Arc((float(c[0]), float(c[1])), float(a.radius), float(a.ang0), float(a.ang1)))
        scale = max(a.radius + float(np.hypot(*a.center)) for a in items)
        total = 0.0
        corners = []
        cone_lo = []
        cone_hi = []
        for i, a in enumerate(items):
            b = items[(i + 1) % len(items)]
            gap = (b.ang0 - a.ang1) if i + 1 < len(items) else (b.ang0 + TWO_PI - a.ang1)
            if gap < -1e-9:
                raise ConvexityError(
                    f"normal angles decrease across junction {i}", where=a.ang1
                )
            p_end = a.point(a.ang1)
            p_start = b.point(b.ang0 + (TWO_PI if i + 1 == len(items) else 0.0))
            if np.hypot(*(p_end - p_start)) > 1e-9 * scale:
                raise DegenerateBodyError(f"arc chain is not closed at junction {i}")
            total += a.span + gap
            corners.append(p_end)
            cone_lo.append(a.ang1)
            cone_hi.append(a.ang1 + gap)
        if abs(total - TWO_PI) > 1e-9:
            raise ConvexityError("arc spans plus corner gaps must equal 2*pi")
        self.arcs = items
        self.corner_points = np.asarray(corners)
        self.corner_lo = np.asarray(cone_lo)
        self.corner_hi = np.asarray(cone_hi)
        self.scale = scale

    def support(self, theta):
        scalar = np.ndim(theta) == 0
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        best = np.full(theta.shape, -np.inf)
        u = unit(theta)
        for a in self.arcs:
            val = u @ np.asarray(a.center) + a.radius
            lo, hi = a.ang0, a.ang1
            rel = (theta - lo) % TWO_PI
            hit = rel <= (hi - lo) + 1e-15
            best = np.where(hit, np.maximum(best, val), best)
        sup_c = u @ self.corner_points.T
        best = np.maximum(best, np.max(sup_c, axis=-1))
        return float(best[0]) if scalar else best

    def area(self) -> float:
        # chord polygon of the corner points plus one circular segment per arc
        v = self.corner_points
        poly = 0.5 * float(np.sum(cross2(v, np.roll(v, -1, axis=0))))
        seg = sum(0.5 * a.radius**2 * (a.span - math.sin(a.span)) for a in self.arcs)
        return poly + seg

    def perimeter(self) -> float:
        return float(sum(a.radius * a.span for a in self.arcs))

    def centroid(self) -> np.ndarray:
        # Green's theorem with exact arc differentials, trapezoid in gamma
        num = np.zeros(2)
        den = 0.0
        for a in self.arcs:
            g = np.linspace(a.ang0, a.ang1, 1025)
            p = a.point(g)
            x, y = p[:, 0], p[:, 1]
            dx = -a.radius * np.sin(g)
            dy = a.radius * np.cos(g)
            w = x * dy - y * dx
            den += np.trapezoid(w, g) / 2.0
            num[0] += np.trapezoid(x * w, g) / 3.0
            num[1] += np.trapezoid(y * w, g) / 3.0
        return num / den


Body2 = (Polygon2, SmoothBody2, ArcBody2)


# ---------------------------------------------------------------------------
# constructors


def build_polygon(points) -> Polygon2:
    """Convex hull of the input points as a Polygon2 (collinear points drop)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DegenerateBodyError("need at least 3 points in the plane")
    try:
        hull = ConvexHull(pts)
    except Exception as exc:  # qhull raises on flat inputs
        raise DegenerateBodyError(f"points do not span a 2d hull: {exc}") from exc
    return Polygon2(pts[hull.vertices])


def fit_support_body(samples, degree: int) -> SmoothBody2:
    """Least-squares Fourier fit of support samples (theta_i, h_i).

    Requires enough samples to determine the coefficients and reasonable
    angular coverage of [0, 2*pi).  Convexity of the fit is validated by the
    SmoothBody2 constructor.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DegenerateBodyError("samples must be (theta, h) pairs")
    theta, h = arr[:, 0], arr[:, 1]
    if len(theta) < 2 * degree + 1:
        raise DegenerateBodyError("need at least 2*degree+1 support samples")
    gaps = np.diff(np.sort(theta % TWO_PI))
    wrap = TWO_PI - (np.max(theta % TWO_PI) - np.min(theta % TWO_PI))
    if max(gaps.max(initial=0.0), wrap) > math.pi / 2:
        raise DegenerateBodyError("support samples leave an angular gap > pi/2")
    k = np.arange(1, degree + 1)
    design = np.concatenate(
        [np.ones((len(theta), 1)), np.cos(theta[:, None] * k), np.sin(theta[:, None] * k)],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(design, h, rcond=None)
    return SmoothBody2(coef[0], coef[1 : degree + 1], coef[degree + 1 :])


def disk(radius: float = 1.0) -> SmoothBody2:
    if radius <= 0:
        raise DegenerateBodyError("disk radius must be positive")
    return SmoothBody2(radius)


def build_reuleaux(sides: int, width: float = 1.0) -> ArcBody2:
    """Reuleaux polygon over a regular odd-gon; each arc spans pi/sides."""
    if sides < 3 or sides % 2 == 0:
        raise DegenerateBodyError("Reuleaux polygon needs an odd number >= 3 of sides")
    if width <= 0:
        raise DegenerateBodyError("width must be positive")
    k = sides
    circ = width / (2.0 * math.cos(math.pi / (2 * k)))
    verts = [circ * np.array([math.cos(TWO_PI * i / k), math.sin(TWO_PI * i / k)]) for i in range(k)]
    half = (k - 1) // 2
    arcs = []
    prev_hi = None
    for j in range(k):
        # boundary piece from vertex j to j+1, centered at the opposite vertex
        ci = (j + half + 1) % k
        c = verts[ci]
        a0 = math.atan2(*(verts[j] - c)[::-1])
        a1 = a0 + math.pi / k
        if prev_hi is not None:
            while a0 < prev_hi - 1e-12:
                a0 += TWO_PI
                a1 += TWO_PI
        prev_hi = a1
        arcs.append(Arc((float(c[0]), float(c[1])), width, a0, a1))
    return ArcBody2(arcs)


# ---------------------------------------------------------------------------
# measures and containment


def measure2d(body) -> dict:
    """Area and perimeter of a planar body (closed forms per representation)."""
    if isinstance(body, (Polygon2, SmoothBody2, ArcBody2)):
        return {"area": float(body.area()), "perimeter": float(body.perimeter())}
    raise DegenerateBodyError(f"unsupported planar body {type(body).__name__}")


def bounding_box(body):
    """Tight axis box (lo, hi) from the support function."""
    if isinstance(body, Polygon2):
        return body.vertices.min(axis=0), body.vertices.max(axis=0)
    t = np.array([0.0, math.pi / 2, math.pi, 1.5 * math.pi])
    h = body.support(t)
    return np.array([-h[2], -h[3]]), np.array([h[0], h[1]])


def _smooth_margin(body: SmoothBody2, pts: np.ndarray, grid: int = 2048) -> np.ndarray:
    """max_theta <p,u)-h per point, Newton-polished; <=0 means inside."""
    block = max(256, int(4e6 // grid))
    if len(pts) > block:
        return np.concatenate([_smooth_margin(body, pts[i:i + block], grid)
                               for i in range(0, len(pts), block)])
    theta = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    u = unit(theta)
    h = body.support(theta)
    vals = pts @ u.T - h
    idx = np.argmax(vals, axis=1)
    t = theta[idx]
    for _ in range(4):
        ut = unit(t)
        upt = np.stack([-ut[:, 1], ut[:, 0]], axis=1)
        g1 = np.einsum("ij,ij->i", pts, upt) - body.support_d1(t)
        g2 = -np.einsum("ij,ij->i", pts, ut) - body.support_d2(t)
        safe = np.abs(g2) > 1e-300
        step = np.divide(g1, g2, out=np.zeros_like(g1), where=safe)
        t = t - np.clip(step, -0.01, 0.01)
    ut = unit(t)
    polished = np.einsum("ij,ij->i", pts, ut) - body.support(t)
    return np.maximum(vals[np.arange(len(pts)), idx], polished)


def signed_boundary_excess(body, pts) -> np.ndarray:
    """Positive outside, negative inside; magnitude approximates distance."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, Polygon2):
        vals = pts @ body.edge_normals.T - body.edge_offsets
        return np.max(vals, axis=1)
    if isinstance(body, SmoothBody2):
        return _smooth_margin(body, pts)
    if isinstance(body, ArcBody2):
        worst = np.full(len(pts), -np.inf)
        for a in body.arcs:
            c = np.asarray(a.center)
            rel = pts - c
            d = np.hypot(rel[:, 0], rel[:, 1])
            ang = np.arctan2(rel[:, 1], rel[:, 0])
            in_range = ((ang - a.ang0) % TWO_PI) <= a.span
            u0, u1 = unit(a.ang0), unit(a.ang1)
            end = np.maximum(rel @ u0, rel @ u1) - a.radius
            val = np.where(in_range, d - a.radius, end)
            worst = np.maximum(worst, val)
        return worst
    raise DegenerateBodyError(f"unsupported planar body {type(body).__name__}")


def contains2(body, point, tol: float = 0.0) -> bool:
    """True when the point is inside (boundary within tol counts as inside)."""
    return bool(signed_boundary_excess(body, np.asarray(point, dtype=float))[0] <= tol)


def contains2_batch(body, pts, tol: float = 0.0) -> np.ndarray:
    return signed_boundary_excess(body, pts) <= tol


def interior_margin(body, point) -> float:
    """Clearance of a point from the boundary (negative excess)."""
    return -float(signed_boundary_excess(body, np.asarray(point, dtype=float))[0])


def inradius_scale(body) -> float:
    """Centroid clearance; a positive inscribed radius used as a length scale."""
    if isinstance(body, Polygon2):
        c = body.centroid()
    elif isinstance(body, SmoothBody2):
        c = body.boundary(np.linspace(0, TWO_PI, 256, endpoint=False)).mean(axis=0)
    else:
        c = body.centroid()
    m = interior_margin(body, c)
    if m <= 0:
        raise DegenerateBodyError("centroid clearance is not positive")
    return m


# ---------------------------------------------------------------------------
# sampling


def sample_interior2(body, n: int, seed: int, box=None) -> np.ndarray:
    """n uniform interior points; sample i is the i-th accepted candidate.

    The candidate stream is a pure function of the seed (Philox); an optional
    ``box`` override lets callers share one stream across nested bodies.
    """
    lo, hi = bounding_box(body) if box is None else box
    return rejection_sample(seed, lo, hi, lambda c: contains2_batch(body, c, tol=0.0), n)


def sample_boundary2(body, n: int, seed: int):
    """n boundary points uniform in arc length; returns (points, normal angles)."""
    if n <= 0:
        return np.zeros((0, 2)), np.zeros(0)
    gen = philox_generator(seed)
    s = gen.random(n)
    if isinstance(body, Polygon2):
        pts, idx = body.walk(s * body.vertex_arclengths[-1])
        ang = np.arctan2(body.edge_normals[idx, 1], body.edge_normals[idx, 0])
        return pts, ang
    if isinstance(body, SmoothBody2):
        theta = body.arclength_inverse(s)
        return np.atleast_2d(body.boundary(theta)), theta
    if isinstance(body, ArcBody2):
        lens = np.array([a.radius * a.span for a in body.arcs])
        cum = np.concatenate([[0.0], np.cumsum(lens)])
        pos = s * cum[-1]
        idx = np.clip(np.searchsorted(cum, pos, side="right") - 1, 0, len(lens) - 1)
        pts = np.empty((n, 2))
        ang = np.empty(n)
        for i, a in enumerate(body.arcs):
            m = idx == i
            if not np.any(m):
                continue
            gamma = a.ang0 + (pos[m] - cum[i]) / a.radius
            pts[m] = a.point(gamma)
            ang[m] = gamma
        return pts, ang
    raise DegenerateBodyError(f"unsupported planar body {type(body).__name__}")


# ---------------------------------------------------------------------------
# Minkowski constructions


def minkowski_sum_polygons(p: Polygon2, q: Polygon2) -> Polygon2:
    """Minkowski sum via the hull of pairwise vertex sums (exact for polygons)."""
    sums = (p.vertices[:, None, :] + q.vertices[None, :, :]).reshape(-1, 2)
    return build_polygon(sums)


def reflect_polygon(p: Polygon2) -> Polygon2:
    return Polygon2(-p.vertices)  # point reflection preserves orientation


def difference_body(body):
    """The difference body K + (-K) in the same representation family."""
    if isinstance(body, Polygon2):
        return minkowski_sum_polygons(body, reflect_polygon(body))
    if isinstance(body, SmoothBody2):
        # h_D(theta) = h(theta) + h(theta+pi): odd harmonics cancel
        d = body.degree
        ac = np.array([2 * body.ac[i] if (i + 1) % 2 == 0 else 0.0 for i in range(d)])
        bs = np.array([2 * body.bs[i] if (i + 1) % 2 == 0 else 0.0 for i in range(d)])
        return SmoothBody2(2 * body.a0, ac, bs)
    if isinstance(body, ArcBody2):
        return _arc_difference_body(body)
    raise DegenerateBodyError(f"unsupported planar body {type(body).__name__}")


def difference_body_area(body) -> float:
    return float(difference_body(body).area())


def _arc_pieces(body: ArcBody2):
    """(lo, hi, center, radius) covering [0, 2*pi); corners become radius 0."""
    pieces = []
    for a in body.arcs:
        pieces.append((_norm_angle(a.ang0), a.span, np.asarray(a.center), a.radius))
    for p, lo, hi in zip(body.corner_points, body.corner_lo, body.corner_hi):
        if hi - lo > 1e-14:
            pieces.append((_norm_angle(lo), hi - lo, np.asarray(p), 0.0))
    return pieces


def _arc_difference_body(body: ArcBody2) -> ArcBody2:
    """K - K for an arc body: supports add piecewise over merged angle ranges."""
    own = _arc_pieces(body)
    # -K pieces: normal angle shifts by pi, center negates
    neg = [(_norm_angle(lo + math.pi), span, -c, r) for lo, span, c, r in own]
    cuts = sorted(
        {0.0}
        | {_norm_angle(lo) for lo, *_ in own}
        | {_norm_angle(lo + span) for lo, span, *_ in own}
        | {_norm_angle(lo) for lo, *_ in neg}
        | {_norm_angle(lo + span) for lo, span, *_ in neg}
    )

    def piece_at(pieces, ang):
        for lo, span, c, r in pieces:
            if (ang - lo) % TWO_PI <= span + 1e-12:
                return c, r
        raise DegenerateBodyError("angular coverage gap in arc pieces")

    arcs = []
    m = len(cuts)
    for i in range(m):
        lo = cuts[i]
        hi = cuts[(i + 1) % m] if i + 1 < m else cuts[0] + TWO_PI
        if hi - lo < 1e-13:
            continue
        mid = 0.5 * (lo + hi)
        c1, r1 = piece_at(own, mid)
        c2, r2 = piece_at(neg, mid)
        if r1 + r2 <= 0:
            continue  # genuine corner of the sum
        arcs.append(Arc(tuple(c1 + c2), r1 + r2, lo, hi))
    return ArcBody2(arcs)


def width_function(body, theta):
    """w(theta) = h(theta) + h(theta + pi)."""
    theta = np.asarray(theta, dtype=float)
    w = body.support(theta) + body.support(theta + math.pi)
    return float(w) if theta.ndim == 0 else w


def require_interior(body, point, rtol: float = 1e-9):
    """Raise DomainError unless the point is strictly interior."""
    p = np.asarray(point, dtype=float)
    scale = getattr(body, "scale", None)
    if scale is None:
        scale = abs(getattr(body, "a0", 1.0)) or 1.0
    if interior_margin(body, p) <= rtol * scale:
        raise DomainError("query point must lie strictly inside the body")
    return p
