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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies2d import TWO_PI, SmoothBody2, require_smooth
from .trigcount import bisect, gauss_panels

_GRID = 8192  # angles of the evolute containment scan
_RTOL = 1e-9  # containment allowance, relative to the body's scale
_MEANS_GRID = 1024  # angles of normal_means' rule and root scan


@dataclass(frozen=True)
class EvolutePoint:
    theta: float
    rho: float
    boundary_point: np.ndarray
    center: np.ndarray


def evolute_points(body: SmoothBody2, thetas) -> np.ndarray:
    """Centres of curvature c(theta) = r(theta) - rho(theta) * u(theta)."""
    require_smooth(body, "the evolute machinery")
    return body.curvature_center(np.asarray(thetas, dtype=float))


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

    One ``normal_chord`` pass on ``_MEANS_GRID`` angles gives rho - L.
    Where rho <= L at every angle (the evolute inside the body) n is the
    rectangle rule of rho^2, a trigonometric polynomial, so exact to
    rounding, and n_surf is exactly 2.0.  Elsewhere (rho - L)_+ has a kink at
    each root of rho - L, where the evolute crosses the boundary: one
    ``bisect`` finds the roots in the grid intervals where rho - L changes
    sign, and the (rho - L)_+ terms are integrated by ``gauss_panels``
    between them, so both values are exact to rounding there too (doubling
    the order moves them by less than 1e-12).  A pair of roots closer than
    the grid spacing is not seen.
    """
    require_smooth(body, "the evolute machinery")
    step = TWO_PI / _MEANS_GRID
    theta = np.arange(_MEANS_GRID) * step
    rho = body.rho(theta)
    chord, e = body.normal_chord(theta)
    over = rho - chord
    ups = over > 0.0
    cut = np.flatnonzero(ups != np.roll(ups, -1))  # sign changes on [theta_j, theta_j+1]
    if not len(cut):
        over = np.maximum(over, 0.0)
        n = step * float(np.sum(rho**2 - over**2)) / body.area()
        return n, 2.0 + 2.0 * step * float(np.sum(over / -np.cos(e - theta))) / body.perimeter()
    rising = ~ups[cut]  # rho - L rises through its root there
    roots = bisect(lambda t: (body.rho(t) - body.normal_chord(t)[0] > 0.0) != rising,
                   theta[cut], theta[cut] + step)
    # (rho - L)_+ is positive from each rising root to the next root
    ends = np.roll(roots, -1)[rising]
    starts = roots[rising]
    t, w = gauss_panels(starts, ends + TWO_PI * (ends < starts))
    chord, e = body.normal_chord(t)
    over = np.maximum(body.rho(t) - chord, 0.0)
    return ((step * float(np.sum(rho**2)) - float(np.sum(w * over**2))) / body.area(),
            2.0 + 2.0 * float(np.sum(w * over / -np.cos(e - t))) / body.perimeter())


def rolling_ball_radius(body: SmoothBody2) -> float:
    """Smallest radius of curvature, the largest r such that a disk of radius r
    rolls freely inside: ``body.min_rho``, from the constructor's rho scan."""
    require_smooth(body, "the evolute machinery")
    return body.min_rho
