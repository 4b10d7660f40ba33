"""Planar convex bodies: polygons, Fourier support functions, arc boundaries.

Three boundary representations are supported.  ``Polygon2`` stores CCW
vertices of a strictly convex polygon.  ``SmoothBody2`` stores a truncated
Fourier series of the support function h(theta); the boundary point with
outer normal angle theta is h*u + h'*u_perp and the curvature radius is
rho = h + h''; ``SmoothBody2.jet`` evaluates h, h' and h'' from one table of
cos k*theta and sin k*theta.  ``ArcBody2`` is a CCW chain of circular arcs
(constant-width shapes such as Reuleaux polygons live here).

Containment is decided by the signed support excess max_u <p, u> - h(u),
which is minus the distance to the boundary inside.  On a smooth body it is
the maximum of a trigonometric polynomial, certified from its coefficients
on a grid doubled only for the points it leaves undecided, and
``contains2_batch`` needs it only in the thin band between the two 16-gons
of the body's table at the normal angles 2*pi*j/16 (``SmoothBody2.sides``);
with tol = -``INTERIOR_RTOL``*scale it decides which points are interior
queries (``require_interior``; ``contains3`` does so in 3D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull

from .errors import (ConvexityError, DegenerateBodyError, DomainError,
                     UnsupportedCombinationError)
from .rng import philox_generator, rejection_sample, require_count
from .trigcount import _RTOL, MAX_GRID, TWO_PI, _start_grid, newton, row_blocks

# Relative tolerance for strict-convexity cross products and chain closure.
CONVEXITY_RTOL = 1e-12
INTERIOR_RTOL = 1e-9  # depth, relative to the scale, that proves a query point interior


def unit(theta):
    """Unit vector(s) (cos theta, sin theta); works on scalars and arrays."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def cross2(a, b):
    """z component of the planar cross product a x b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def in_angle_range(gamma, lo, span):
    """Does the angle gamma lie in [lo, lo + span] modulo 2*pi?  The one
    range test of arcs and of corner normal cones."""
    r = np.fmod(gamma - lo, TWO_PI)  # equals NumPy's %, in a third of its time
    return r + TWO_PI * (r < 0) <= span


def _shoelace(verts) -> float:
    """Signed area of a closed vertex loop, positive when CCW; 0 below 3
    vertices.  The one area rule of polygons, arc chords and wedges."""
    if len(verts) < 3:
        return 0.0
    return 0.5 * float(np.sum(cross2(verts, np.roll(verts, -1, axis=0))))


class Polygon2:
    """Strictly convex polygon with CCW vertex order.

    Derived arrays (edge vectors, outer unit normals, support offsets) are
    computed once at construction and treated as read only.  The edge
    parameter t_i(x) = x . t_normals[i] - t_offsets[i], 0 at v_i and 1 at
    v_{i+1}, is the one wedge rule of the normal counter and the wedges.
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
        self.t_normals = e / (self.edge_lengths**2)[:, None]
        self.t_offsets = np.einsum("ij,ij->i", v, self.t_normals)
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
        return _shoelace(self.vertices)

    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths))

    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = cross2(v, np.roll(v, -1, axis=0))
        c = (v + np.roll(v, -1, axis=0)) * w[:, None]
        return np.sum(c, axis=0) / (6.0 * self.area())

    @cached_property
    def antipodal(self):
        """The affine diameter table, built on first use: (sides, pairs).

        Vertex i and edge j are antipodal when edge j's inward normal lies
        in vertex i's normal cone; edges j < l are a parallel pair when they
        are parallel with opposite outer normals, and ``pairs`` lists them,
        shape (pairs, 2).  ``sides`` holds one row (n, -c) per side (a, b)
        of a CCW polygon, [x, 1] @ row = x @ n - c = cross(b - a, x - a):
        first the 3 sides of each antipodal triangle (v_i, v_j, v_j+1), then
        the 4 sides of each pair's trapezoid (v_j, v_j+1, v_l, v_l+1).
        """
        n, v, k = self.edge_normals, self.vertices, len(self)
        m = -n[None, :, :]
        cone = ((cross2(np.roll(n, 1, axis=0)[:, None, :], m) >= -1e-12)
                & (cross2(m, n[:, None, :]) >= -1e-12))
        opposite = n[:, None, 0] * n[None, :, 0] + n[:, None, 1] * n[None, :, 1] < 0.0
        pairs = np.argwhere(
            np.triu((np.abs(cross2(n[:, None, :], n[None, :, :])) <= 1e-12) & opposite, 1))
        i, j = np.nonzero(cone)
        loops = [np.stack([i, j, j + 1], axis=1) % k, (pairs[:, [0, 0, 1, 1]] + [0, 1, 0, 1]) % k]
        a = np.concatenate([v[q].reshape(-1, 2) for q in loops])
        e = np.concatenate([v[np.roll(q, -1, axis=1)].reshape(-1, 2) for q in loops]) - a
        return np.column_stack([-e[:, 1], e[:, 0], -cross2(e, a)]), pairs


class SmoothBody2:
    """Convex body given by a truncated Fourier support function.

    h(theta) = a0 + sum_k (ac[k-1] cos k theta + bs[k-1] sin k theta).
    ``min_rho`` is the least radius of curvature rho = h + h'': the least
    value of rho at the angles of ``rho_turns``, which hold every critical
    point of rho.  Validity requires min_rho > 0 (beyond 1e-9 of the
    scale); the constructor rejects nonconvex coefficient sets and names
    the angle of the least rho.
    """

    def __init__(self, a0: float, cos_coeffs=(), sin_coeffs=()):
        ac = np.asarray(cos_coeffs, dtype=float).ravel()
        bs = np.asarray(sin_coeffs, dtype=float).ravel()
        d = max(len(ac), len(bs))
        self.a0 = float(a0)
        self.ac = np.concatenate([ac, np.zeros(d - len(ac))])
        self.bs = np.concatenate([bs, np.zeros(d - len(bs))])
        self.degree = d
        self.k = np.arange(1, d + 1, dtype=float)
        if not np.all(np.isfinite([self.a0, *self.ac, *self.bs])):
            raise DegenerateBodyError("support coefficients must be finite")
        turns = self.rho_turns()[0]
        rho = self.rho(turns)
        i = int(np.argmin(rho))
        self.min_rho = float(rho[i])
        scale = abs(self.a0) + float(np.sum(np.abs(self.ac)) + np.sum(np.abs(self.bs)))
        self.scale = max(scale, 1e-300)
        if self.min_rho <= 1e-9 * self.scale:
            bad = float(turns[i])
            raise ConvexityError(
                f"support function is not convex: rho(theta) <= 0 near theta={bad:.6f}",
                where=bad,
            )

    @cached_property
    def sides(self):
        """``contains2_batch``'s table, built on first use: one row (a, b, c)
        per line a*x + b*y = c with unit normal (a, b), 16 support lines at
        theta_j = 2*pi*j/16, then the inscribed polygon's edges r_j r_j+1."""
        theta = np.arange(16) * (TWO_PI / 16)
        r = self.boundary(theta)
        e = np.roll(r, -1, axis=0) - r
        normals = np.vstack([unit(theta), e[:, ::-1] * [1.0, -1.0] / np.hypot(e[:, :1], e[:, 1:])])
        return np.column_stack([normals, np.sum(np.vstack([r, r]) * normals, axis=1)])

    def _series(self, theta, terms):
        """The tuple of series ``terms(cos k*theta, sin k*theta)`` over the
        harmonics k, from one table; each shape follows theta, and a 0-d
        theta gives floats."""
        theta = np.asarray(theta, dtype=float)
        kt = np.atleast_1d(theta)[..., None] * self.k
        out = terms(np.cos(kt), np.sin(kt))
        return tuple(float(x[0]) for x in out) if theta.ndim == 0 else out

    def jet(self, theta):
        """(h, h', h'') at theta."""
        k, k2 = self.k, self.k**2
        return self._series(theta, lambda c, s: (
            self.a0 + c @ self.ac + s @ self.bs,
            -(s * k) @ self.ac + (c * k) @ self.bs,
            -(c * k2) @ self.ac - (s * k2) @ self.bs))

    def support(self, theta):
        return self.jet(theta)[0]

    def rho(self, theta):
        """Curvature radius rho(theta) = h + h'', summed as one series (h + h''
        from ``jet`` can round differently in the last place)."""
        w = 1.0 - self.k**2
        return self._series(theta, lambda c, s: (
            self.a0 + (c * w) @ self.ac + (s * w) @ self.bs,))[0]

    def rho_turns(self):
        """(angles, slope): 0 and the angles in [0, 2pi), ascending, of all 2N
        roots of rho' = z^-N P(z), z = exp(i theta), from ``np.roots`` (a
        root off the circle only adds an angle), and rho' read from P."""
        q = 0.5 * self.k * (1.0 - self.k**2) * (self.bs + 1j * self.ac)
        poly = np.concatenate([q[::-1], [0.0], np.conj(q)])  # P, highest power first

        def slope(theta):
            z = np.exp(1j * theta)
            return (np.polyval(poly, z) * z ** -self.degree).real

        return np.sort(np.append(np.angle(np.roots(poly)) % TWO_PI, 0.0)), slope

    def boundary(self, theta):
        """Boundary point(s) r = h*u + h'*u_perp with outer normal angle theta;
        the shape follows theta with a trailing axis of 2."""
        h, h1, _ = self.jet(theta)
        u = unit(theta)
        up = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        return np.asarray(h)[..., None] * u + np.asarray(h1)[..., None] * up

    @cached_property
    def R(self):
        """Laurent coefficients of the boundary as a complex number, r(theta)
        = sum_e R[e - 1 + N] exp(i e theta) for e = 1 - N .. 1 + N, from
        r = (h + i h') exp(i theta): R_1 = a0, R_{1+k} = (1 - k)(a_k - i b_k)/2
        and R_{1-k} = (1 + k)(a_k + i b_k)/2."""
        c = 0.5 * (self.ac - 1j * self.bs)
        return np.concatenate([((1.0 + self.k) * np.conj(c))[::-1], [self.a0],
                               (1.0 - self.k) * c])

    def lines(self, D, lo: int, degree: int):
        """The coefficient table of the line function g_p(theta) =
        cross(d(theta), p - r(theta)), zero on the line of direction d(theta)
        through r(theta): its roots in theta are the normals (d = u),
        Birkhoff normals (d = r_M) and affine diameters (d = r(theta + pi) -
        r(theta)) through p.  d(theta) = sum_e D[e - lo] exp(i e theta).

        g_p is affine in p = (x, y): its coefficients c_0..c_degree (as in
        ``trigcount``) are [1, x, y] @ table, a complex (3, degree + 1) array.
        With F = conj(d) (x + iy - r), c_k = (F_k - conj F_{-k}) / 2i, and
        conj(d) r is one ``np.convolve``.  ``degree`` must be at least that
        of g_p; the columns beyond it are 0.
        """
        cd = np.conj(np.asarray(D, dtype=complex)[::-1])
        top = lo + len(cd) - 1  # conj(d) runs over the exponents -top .. -lo
        F = np.zeros((3, 2 * degree + 1), dtype=complex)  # exponents -degree .. degree
        start = degree - top - self.degree + 1
        F[0, start:start + len(cd) + 2 * self.degree] = -np.convolve(cd, self.R)
        F[1, degree - top:degree - lo + 1] = cd
        F[2, degree - top:degree - lo + 1] = 1j * cd
        return -0.5j * (F[:, degree:] - np.conj(F[:, degree::-1]))

    def curvature_center(self, theta):
        """Center of curvature c = r - rho*u; the shape follows theta as in
        ``boundary``."""
        return self.boundary(theta) - np.asarray(self.rho(theta))[..., None] * unit(theta)

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
        given fraction of the perimeter: ``newton`` on s - arclength_to, whose
        slope is -rho; fractions 0 and 1 are their own brackets, 0 and 2*pi."""
        fraction = np.asarray(fraction, dtype=float)
        s = np.ravel(fraction) * self.arclength_to(np.array([TWO_PI]))[0]
        return newton(lambda t, rows: (s[rows] - self.arclength_to(t), -self.rho(t)),
                      TWO_PI * (fraction >= 1.0), TWO_PI * (fraction > 0.0))

    def normal_chord(self, theta):
        """Inward normal chord (L, e): L(theta) = h(theta) - <r(e), u(theta)>,
        where r(e) is the exit point, whose outer normal angle e lies in
        (theta, theta + 2pi).  e is the root there of F(phi) = <r(phi) -
        r(theta), u_perp(theta)> = h(phi) sin(phi - theta) + h'(phi) cos(phi -
        theta) - h'(theta): a strictly convex curve crosses a line twice and
        F'(theta) = rho > 0, so ``newton`` finds e, with F'(phi) = rho(phi)
        cos(phi - theta).  Both have the shape of theta."""
        theta = np.asarray(theta, dtype=float)
        h, h1, _ = self.jet(theta)
        flat, h1 = np.ravel(theta), np.ravel(h1)

        def exit_(phi, rows):
            hp, hp1, hp2 = self.jet(phi)
            c, s = np.cos(phi - flat[rows]), np.sin(phi - flat[rows])
            return hp * s + hp1 * c - h1[rows], (hp + hp2) * c

        e = newton(exit_, theta, theta + TWO_PI)
        return h - np.sum(self.boundary(e) * unit(theta), axis=-1), e


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

    ``pieces``, the one face table of counters, feet, chords, the excess,
    the boundary sampler and the difference body, is a (pieces, 5) array of
    rows (cx, cy, r, lo, hi): one per arc, then one per corner with a cone
    wider than 1e-14, an arc of radius 0 about the corner whose normal range
    [lo, hi] is the cone.  ``sources`` names each row, ("arc", i) or
    ("corner", j).  ``arcs`` keeps the constructor's input and
    ``corner_points`` every corner, cones of width 0 included.
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
        rows = [(*a.center, a.radius, a.ang0, a.ang1) for a in items]
        sources = [("arc", i) for i in range(len(items))]
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
            lo, hi = a.ang1, a.ang1 + gap
            if hi - lo > 1e-14:
                rows.append((*p_end, 0.0, lo, hi))
                sources.append(("corner", i))
        if abs(total - TWO_PI) > 1e-9:
            raise ConvexityError("arc spans plus corner gaps must equal 2*pi")
        self.arcs = items
        self.corner_points = np.asarray(corners)
        self.pieces = np.array(rows)
        self.sources = sources
        self.scale = scale

    def support(self, theta):
        """max of <c, u(theta)> + r over the rows of ``pieces`` whose normal
        range, widened by 1e-14 (the narrowest cone that has a row), holds
        theta; the shape follows theta."""
        theta = np.asarray(theta, dtype=float)
        r, lo, hi = self.pieces[:, 2:].T
        hit = in_angle_range(theta[..., None], lo, hi - lo + 1e-14)
        best = np.max(np.where(hit, unit(theta) @ self.pieces[:, :2].T + r, -np.inf), axis=-1)
        return float(best) if theta.ndim == 0 else best

    def area(self) -> float:
        # chord polygon of the corner points plus one circular segment per
        # row; corner rows have r = 0
        r, lo, hi = self.pieces[:, 2:].T
        span = hi - lo
        return _shoelace(self.corner_points) + float(np.sum(0.5 * r**2 * (span - np.sin(span))))

    def perimeter(self) -> float:
        r, lo, hi = self.pieces[:, 2:].T
        return float(np.sum(r * (hi - lo)))

    def chord(self, starts, dirs):
        """Chords (L, e), a (2, n) array, from n boundary starts along their
        unit directions: L to the farthest far crossing of the line with an
        arc's circle in ``pieces`` inside the arc's normal range (widened by
        1e-14 as in ``support``: an exit at a C^1 junction can miss both
        ranges by rounding) or with a corner row on the line, and e the
        exit's angle about its piece's centre, at a corner the direction's.
        Starts run in ``trigcount.row_blocks`` of 16 values per piece."""
        out = np.empty((2, len(starts)))
        r, lo, hi = self.pieces[:, 2:].T
        corner = r == 0.0
        for rows in row_blocks(len(starts), 16 * len(self.pieces)):
            c_x, c_y = np.moveaxis(starts[rows, None, :] - self.pieces[:, :2], -1, 0)
            d_x, d_y = dirs[rows, :1], dirs[rows, 1:]
            b = c_x * d_x + c_y * d_y
            disc = b * b - ((c_x * c_x + c_y * c_y) - r * r)
            t = np.where(corner, -b, -b + np.sqrt(np.maximum(disc, 0.0)))
            hit = np.where(corner, np.arctan2(d_y, d_x), np.arctan2(c_y + t * d_y, c_x + t * d_x))
            on = np.where(corner, np.abs(d_x * c_y - d_y * c_x) <= 1e-12 * self.scale,
                          (disc >= 0) & in_angle_range(hit, lo, hi - lo + 1e-14))
            t = np.where(on, t, 0.0)
            j = np.argmax(t, axis=1)
            out[:, rows] = t[np.arange(len(j)), j], hit[np.arange(len(j)), j]
        return out


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


def _polish(body: SmoothBody2, pts: np.ndarray, start: np.ndarray, delta: float):
    """Newton's method for the maximum of f_p near each start angle, where
    the caller has shown f_p concave within delta of it.  Returns f_p and
    f_p' at the polished angles."""
    def derivatives(t):
        h, h1, h2 = body.jet(t)
        c, s = np.cos(t), np.sin(t)
        pu = pts[:, 0] * c + pts[:, 1] * s
        pv = pts[:, 1] * c - pts[:, 0] * s
        return pu - h, pv - h1, pu + h2

    t = start
    for _ in range(4):
        _, slope, bend = derivatives(t)
        t = np.clip(t + slope / bend, start - delta, start + delta)
    return derivatives(t)[:2]


def _smooth_margin(body: SmoothBody2, pts: np.ndarray) -> np.ndarray:
    """Certified max over theta of f_p(theta) = <p, u(theta)> - h(theta).

    f_p is a trigonometric polynomial of degree N = max(1, deg h); with A_k
    the amplitude of its k-th harmonic (A_1 depends on p), |f_p''''| <= L4
    = sum k^4 A_k.  At grid angle theta_j, -f''_j = f_j + rho_j comes free
    with f_j.  On a grid interval of width delta, -f'' lies within
    delta^2/8 * L4 of the range of its end values, which gives

    - an upper bound of f: its larger end value + delta^2/8 * max(-f''),
    - concavity where min(-f'') > 0.

    Newton's method from a grid peak inside a run of concave intervals
    polishes the run's one maximum theta*, and the run stays below
    f(theta*) + 2 pi |f'(theta*)|.  A row is certified, and its margin is
    the best value found, when every interval whose bound exceeds that
    value (by more than a rounding allowance of 1e-12 of the scale) lies in
    such a run.  Only the other rows move to the doubled grid; a row not
    certified by MAX_GRID (a maximum flat to fourth order, at an end of the
    medial axis) keeps its best value.
    """
    n = len(pts)
    k = np.arange(1, max(1, body.degree) + 1, dtype=float)
    first = (body.ac[0], body.bs[0]) if body.degree else (0.0, 0.0)
    amps = np.empty((n, len(k)))
    amps[:, 0] = np.hypot(pts[:, 0] - first[0], pts[:, 1] - first[1])
    amps[:, 1:] = np.hypot(body.ac[1:], body.bs[1:])
    lip4 = amps @ k**4
    allow = _RTOL * (body.scale + np.hypot(pts[:, 0], pts[:, 1]))
    best = np.full(n, -np.inf)
    active = np.arange(n)
    grid = _start_grid(len(k))
    while len(active) and grid <= MAX_GRID:
        delta = TWO_PI / grid
        theta = np.arange(grid) * delta
        h, _, h2 = body.jet(theta)
        u = unit(theta)
        left = []
        for block in row_blocks(len(active), grid):
            idx = active[block]
            f = pts[idx] @ u.T - h
            bend = f + (h + h2)
            bend_next = np.roll(bend, -1, axis=1)
            err = (0.125 * delta**2 * lip4[idx])[:, None]
            concave = np.minimum(bend, bend_next) - err > allow[idx, None]
            hi = np.maximum(f, np.roll(f, -1, axis=1)) + 0.125 * delta**2 * np.maximum(
                np.maximum(bend, bend_next) + err, 0.0)
            best[idx] = np.maximum(best[idx], f.max(axis=1))
            # polish the grid peaks inside concave runs that might beat the best
            slack = best[idx] + allow[idx]
            peak = ((f >= np.roll(f, 1, axis=1)) & (f >= np.roll(f, -1, axis=1))
                    & concave & np.roll(concave, 1, axis=1)
                    & (np.maximum(hi, np.roll(hi, 1, axis=1)) > slack[:, None]))
            r, j = np.nonzero(peak)
            val, slope = _polish(body, pts[idx[r]], theta[j], delta)
            np.maximum.at(best, idx[r], val)
            slack = best[idx] + allow[idx]
            # number the concave runs; one wrapping past 2 pi keeps its last number
            run = np.cumsum(concave & ~np.roll(concave, 1, axis=1), axis=1)
            run = np.where(run == 0, run[:, -1:], run)
            ok = val + TWO_PI * np.abs(slope) <= slack[r]
            certified = np.zeros((len(idx), grid + 1), dtype=bool)
            certified[r[ok], run[r[ok], j[ok]]] = True
            covered = concave & np.take_along_axis(certified, run, axis=1)
            left.append(idx[np.any((hi > slack[:, None]) & ~covered, axis=1)])
        active = np.concatenate(left)
        grid *= 2
    return best


def signed_boundary_excess(body, pts) -> np.ndarray:
    """The signed support excess max over outer normals u of <p, u> - h(u):
    positive outside, negative inside.

    Inside, it is minus the distance from p to the boundary.  Outside, it
    is the distance from p to the body for smooth bodies, whose maximum runs
    over every normal angle, and for arc bodies, whose maximum runs over the
    normal range of every piece of ``ArcBody2.pieces``, corners included.
    For polygons, whose maximum runs over the edge normals only, it is the
    distance only away from the vertex regions, and below it there.  Smooth
    bodies get the certified maximum of ``_smooth_margin``; polygon and arc
    body points run in ``row_blocks`` of at most ``_BLOCK`` values.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, Polygon2):
        worst = np.empty(len(pts))
        for rows in row_blocks(len(pts), len(body)):
            worst[rows] = np.max(pts[rows] @ body.edge_normals.T - body.edge_offsets, axis=1)
        return worst
    if isinstance(body, SmoothBody2):
        return _smooth_margin(body, pts)
    if isinstance(body, ArcBody2):
        return _arc_excess(body, pts, np.inf)
    raise DegenerateBodyError(f"unsupported planar body {type(body).__name__}")


def _arc_excess(body: ArcBody2, pts: np.ndarray, upto: float) -> np.ndarray:
    """The excess of an arc body where it is at most ``upto``, in
    ``row_blocks``.  The corner rows of ``body.pieces`` are taken only on
    rows whose arc excess lies in (0, upto]: a cone narrower than pi raises
    only rows that the arcs at its ends already put above 0, and a row above
    upto stays so."""
    arcs, corners = body.pieces[:len(body.arcs)], body.pieces[len(body.arcs):]
    worst = np.empty(len(pts))
    for rows in row_blocks(len(pts), 16 * len(arcs)):
        block = _piece_excess(arcs, pts[rows])
        near = np.flatnonzero((block > 0.0) & (block <= upto))
        block[near] = np.maximum(block[near], _piece_excess(corners, pts[rows][near]))
        worst[rows] = block
    return worst


def _piece_excess(table: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """max over the rows (cx, cy, r, lo, hi) of a piece table of the excess
    of each point over the row's normal range: |p - c| - r where the angle of
    p about c lies in [lo, hi], else the larger end projection less r, taken
    as one matmul per row so that it rounds as a single row's would."""
    rel = pts - table[:, None, :2]
    r, lo, hi = table[:, 2:3], table[:, 3], table[:, 4]
    ang = np.arctan2(rel[..., 1], rel[..., 0])
    ends = np.maximum(rel @ unit(lo)[..., None], rel @ unit(hi)[..., None])[..., 0]
    val = np.where(in_angle_range(ang, lo[:, None], (hi - lo)[:, None]),
                   np.hypot(rel[..., 0], rel[..., 1]) - r, ends - r)
    return np.max(val, axis=0, initial=-np.inf)


def contains2(body, point, tol: float = 0.0) -> bool:
    """True when the point is inside (boundary within tol counts as inside)."""
    return bool(contains2_batch(body, point, tol)[0])


def contains2_batch(body, pts, tol: float = 0.0) -> np.ndarray:
    """Per point, is the signed boundary excess at most tol?  On a smooth
    body a point lying more than tol + allow (the margin's rounding
    allowance) beyond a support line of ``SmoothBody2.sides`` is outside,
    one allow - min(tol, 0) inside every inscribed edge is inside, and only
    the band between (never a NaN point) gets the certified margin.  Points
    run in ``row_blocks``.  An arc body's corners are taken only where they
    can decide a point."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if isinstance(body, SmoothBody2):
        inside = np.empty(len(pts), dtype=bool)
        # a block's 32 line values per point are built while the last
        # block's are still held, next to a few per-point arrays
        for rows in row_blocks(len(pts), 80):
            block, verdict = pts[rows], inside[rows]
            f = body.sides[:, :2] @ block.T  # a row per line: the maxima run over contiguous rows
            f -= body.sides[:, 2:]
            allow = _RTOL * (body.scale + np.hypot(block[:, 0], block[:, 1]))
            verdict[:] = f[16:].max(axis=0) <= min(tol, 0.0) - allow
            band = np.flatnonzero(~verdict & (f[:16].max(axis=0) <= tol + allow))
            if len(band):
                verdict[band] = _smooth_margin(body, block[band]) <= tol
        return inside
    if isinstance(body, ArcBody2):
        return _arc_excess(body, pts, tol) <= tol
    return signed_boundary_excess(body, pts) <= tol


def interior_margin(body, point) -> float:
    """Clearance of a point from the boundary (negative excess)."""
    return -float(signed_boundary_excess(body, np.asarray(point, dtype=float))[0])


# ---------------------------------------------------------------------------
# sampling


def sample_interior2(body, n: int, seed: int) -> np.ndarray:
    """n uniform interior points; sample i is the i-th accepted candidate.

    The candidate stream is a pure function of the seed (Philox).
    """
    lo, hi = bounding_box(body)
    return rejection_sample(seed, lo, hi, lambda c: contains2_batch(body, c, tol=0.0), n)


def sample_boundary2(body, n: int, seed: int):
    """n boundary points uniform in arc length; returns (points, normal angles)."""
    require_count(n)
    if n == 0:
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
        c, r, lo, hi = np.hsplit(body.pieces[:len(body.arcs)], [2, 3, 4])
        cum = np.concatenate([[0.0], np.cumsum(r * (hi - lo))])
        pos = s * cum[-1]
        idx = np.clip(np.searchsorted(cum, pos, side="right") - 1, 0, len(r) - 1)
        ang = lo[idx, 0] + (pos - cum[idx]) / r[idx, 0]
        return c[idx] + r[idx] * unit(ang), ang
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


def _arc_difference_body(body: ArcBody2) -> ArcBody2:
    """K - K for an arc body: supports add piecewise over merged angle ranges
    of ``body.pieces``, whose corners are arcs of radius 0; the pieces of -K
    are those of K turned by pi about the origin."""
    c, r = body.pieces[:, :2], body.pieces[:, 2]
    lo = body.pieces[:, 3] % TWO_PI
    span = body.pieces[:, 4] - body.pieces[:, 3]
    neg = (lo + math.pi) % TWO_PI
    cuts = np.unique(np.concatenate([[0.0], lo, (lo + span) % TWO_PI,
                                     neg, (neg + span) % TWO_PI]))
    ends = np.append(cuts[1:], cuts[0] + TWO_PI)
    keep = ends - cuts >= 1e-13
    cuts, ends = cuts[keep], ends[keep]
    mid = (0.5 * (cuts + ends))[:, None]
    own = in_angle_range(mid, lo, span + 1e-12)
    turned = in_angle_range(mid, neg, span + 1e-12)
    if not (own.any(axis=1).all() and turned.any(axis=1).all()):
        raise DegenerateBodyError("angular coverage gap in arc pieces")
    i, j = own.argmax(axis=1), turned.argmax(axis=1)
    # a sum of radius 0 is a genuine corner of K - K
    return ArcBody2([Arc(tuple(c[a] - c[b]), r[a] + r[b], a0, a1)
                     for a, b, a0, a1 in zip(i, j, cuts, ends) if r[a] + r[b] > 0])


def width_function(body, theta):
    """w(theta) = h(theta) + h(theta + pi)."""
    theta = np.asarray(theta, dtype=float)
    w = body.support(theta) + body.support(theta + math.pi)
    return float(w) if theta.ndim == 0 else w


def require_interior(body, point):
    """The point as an array; DomainError unless it is finite and the side
    test ``contains2_batch`` proves it ``INTERIOR_RTOL``*scale inside."""
    p = np.asarray(point, dtype=float)
    if not (all(map(math.isfinite, p.tolist()))
            and contains2_batch(body, p[None], tol=-INTERIOR_RTOL * body.scale)[0]):
        raise DomainError("query point must lie strictly inside the body")
    return p


def symmetric_under_negation(points, tol: float) -> bool:
    """Is the negation of every point within tol of one of the points?"""
    pts = np.asarray(points, dtype=float)
    gaps = np.linalg.norm(pts[:, None, :] + pts[None, :, :], axis=2)
    return bool(np.all(gaps.min(axis=1) <= tol))


def require_smooth(body, what: str) -> None:
    """Raise UnsupportedCombinationError, naming what needs a smooth body,
    unless the body is a SmoothBody2."""
    if not isinstance(body, SmoothBody2):
        raise UnsupportedCombinationError(
            f"{what} requires a smooth body, got {type(body).__name__}")
