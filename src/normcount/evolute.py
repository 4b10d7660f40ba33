"""Curvature radii, centres of curvature, and evolute containment.

For a smooth body with support function h the radius of curvature at normal
angle theta is rho = h + h'' and the centre of curvature is c = r - rho*u.
The evolute (the curve of centres) is the degeneracy locus of normal
counting: counts jump by 2 across it.  Bodies whose evolute stays inside
them form the class with at most 6 normals per interior point on average
and exactly 2 normals through every boundary point.

The centre c = r - rho*u lies on the inward normal chord from r, of length
L (``SmoothBody2.normal_chord``), so it is inside exactly when rho < L:
``contains_evolute``'s worst_excess is max(rho - L) over its grid.

The same chord gives both mean normal counts by quadrature
(``normal_means``).  A point p = r(theta) - s*u(theta) of the normal bundle
has Jacobian |rho - s|, and stable feet equal unstable feet, so the interior
integral of the count is I = int [rho^2 - (rho - L)_+^2] dtheta.  Under the
eikonal offset h -> h + t the chord grows by t at its start and by t/c at
its exit angle e, c = -cos(e - theta) > 0, so the boundary mean is I'(0)/P
= 2 + (2/P) int (rho - L)_+ / c dtheta: exactly 2 when the evolute lies
inside the body.

Differentiating the exit point gives L' = (rho - L) tan(e - theta), so
f = rho - L has slope f' = rho' - f tan(e - theta), which is rho' at every
root of f.  Between two critical points of rho in a row f therefore crosses
0 at most once, in the direction of rho', and the kinks of (rho - L)_+ need
no grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies2d import TWO_PI, SmoothBody2, require_smooth
from .trigcount import gauss_panels, newton

_GRID = 8192  # angles of the evolute containment scan
_RTOL = 1e-9  # containment allowance, relative to the body's scale


@dataclass(frozen=True)
class EvolutePoint:
    theta: float
    rho: float
    boundary_point: np.ndarray
    center: np.ndarray


def curvature_profile(body: SmoothBody2, grid: int = 512) -> list[EvolutePoint]:
    """Evolute samples with exact Fourier derivatives at ``grid`` angles."""
    require_smooth(body, "the evolute machinery")
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    rho = body.rho(thetas)
    r = body.boundary(thetas)
    c = body.curvature_center(thetas)
    return [EvolutePoint(float(t), float(p), r[i].copy(), c[i].copy())
            for i, (t, p) in enumerate(zip(thetas, rho))]


def contains_evolute(body: SmoothBody2) -> tuple[bool, float]:
    """Does the body contain all its centres of curvature?

    worst_excess is max(rho - L) over ``_GRID`` angles, with L the inward
    normal chord: negative exactly when every grid centre is strictly inside,
    and at least as far from 0 as those centres are from the boundary.
    Contained means a worst excess of at most ``_RTOL`` times the body's
    scale.  Returns (contained, worst_excess).
    """
    require_smooth(body, "the evolute machinery")
    theta = np.linspace(0.0, TWO_PI, _GRID, endpoint=False)
    worst = float(np.max(body.rho(theta) - body.normal_chord(theta)[0]))
    return worst <= _RTOL * body.scale, worst


def normal_means(body: SmoothBody2) -> tuple[float, float]:
    """Mean normal counts (n, n_surf) over the interior and over the boundary
    (uniform in arclength): the chord integrals of the module docstring.

    The integral of rho^2 is Parseval's.  The circle is cut at 0 and at the
    angles of all 2N roots of rho' = z^-N P(z), z = exp(i theta), from
    ``np.roots``: a root off the circle only adds a cut.  f = rho - L has a
    root between two cuts in a row exactly when its values there differ in
    sign; ``newton`` with slope f' finds it, and ``gauss_panels`` integrates
    the (rho - L)_+ terms between these kinks.  Both values are exact to rounding (doubling
    the order moves them by less than 1e-12); where f < 0 at every cut there
    are no panels and n_surf is exactly 2.0.
    """
    require_smooth(body, "the evolute machinery")
    k, w = body.k, 1.0 - body.k**2
    rho2 = TWO_PI * body.a0**2 + np.pi * float(np.sum(w**2 * (body.ac**2 + body.bs**2)))
    q = 0.5 * k * w * (body.bs + 1j * body.ac)
    poly = np.concatenate([q[::-1], [0.0], np.conj(q)])  # P, highest power first

    def slope(t):  # rho'
        z = np.exp(1j * t)
        return (np.polyval(poly, z) * z ** -body.degree).real

    cut = np.sort(np.append(np.angle(np.roots(poly)) % TWO_PI, 0.0))
    ups = body.rho(cut) > body.normal_chord(cut)[0]
    j = np.flatnonzero(ups != np.roll(ups, -1))  # f changes sign on [cut_j, cut_j+1]
    sign = np.where(ups[j], 1.0, -1.0)  # f's sign at cut_j

    def kink(t, rows):
        chord, e = body.normal_chord(t)
        f = body.rho(t) - chord
        return sign[rows] * f, sign[rows] * (slope(t) - f * np.tan(e - t))

    roots = newton(kink, cut[j], np.append(cut[1:], cut[0] + TWO_PI)[j])
    # (rho - L)_+ is positive from each rising root to the next root
    rising = sign < 0
    ends, starts = np.roll(roots, -1)[rising], roots[rising]
    t, wt = gauss_panels(starts, ends + TWO_PI * (ends < starts))
    chord, e = body.normal_chord(t)
    over = np.maximum(body.rho(t) - chord, 0.0)
    return ((rho2 - float(np.sum(wt * over**2))) / body.area(),
            2.0 + 2.0 * float(np.sum(wt * over / -np.cos(e - t))) / body.perimeter())


def rolling_ball_radius(body: SmoothBody2) -> float:
    """Smallest radius of curvature, the largest r such that a disk of radius r
    rolls freely inside: ``body.min_rho``, from the constructor's rho scan."""
    require_smooth(body, "the evolute machinery")
    return body.min_rho
