"""Curvature radii, centres of curvature, and evolute containment.

For a smooth body with support function h the radius of curvature at normal
angle theta is rho = h + h'' and the centre of curvature is c = r - rho*u.
The evolute (the curve of centres) is the degeneracy locus of normal
counting: counts jump by 2 across it.  Bodies whose evolute stays inside
them form the class with at most 6 normals per interior point on average
and exactly 2 normals through every boundary point.

The centre c = r - rho*u lies on the inward normal chord from r, of length
L (``SmoothBody2.normal_chord``), so it is inside exactly when rho < L.

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
no grid.  For the same reason f < 0 at every critical point of rho exactly
when f < 0 on the whole circle: ``contains_evolute``'s worst_excess, the
largest rho - L at the critical points of rho, has the sign of the largest
rho - L over the circle.

On an arc body rho is piecewise constant (an arc's radius over its normal
range, 0 over a corner's cone), so rho' = 0, f' = -f tan(e - theta) and f
keeps one sign between the angles where the chord's exit piece changes.
"""

from __future__ import annotations

import numpy as np

from .bodies2d import TWO_PI, ArcBody2, SmoothBody2, require_smooth, unit
from .trigcount import gauss_panels, newton


def curvature_profile(body: SmoothBody2, grid: int = 512) -> np.ndarray:
    """Evolute samples with exact Fourier derivatives at ``grid`` angles:
    one row (theta, rho, cx, cy) per angle, c the centre of curvature."""
    require_smooth(body, "the evolute machinery")
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    return np.column_stack([thetas, body.rho(thetas), body.curvature_center(thetas)])


def contains_evolute(body: SmoothBody2) -> tuple[bool, float]:
    """Does the body contain all its centres of curvature?

    worst_excess is the largest rho - L at the critical points of rho
    (``SmoothBody2.rho_turns``), with L the inward normal chord.  It has the
    sign of the largest rho - L over the circle (module docstring), so it is
    negative exactly when every centre is strictly inside.  Contained means
    no rho - L above 0 at those angles, the rule by which ``normal_means``
    finds no kink and gives n_surf exactly 2.  Returns (contained,
    worst_excess).
    """
    require_smooth(body, "the evolute machinery")
    worst = float(np.max(_turn_excess(body)[2]))
    return worst <= 0.0, worst


def _turn_excess(body: SmoothBody2):
    """(cut, slope, f): the angles and slope rho' of ``rho_turns``, and
    f = rho - L at those angles."""
    cut, slope = body.rho_turns()
    return cut, slope, body.rho(cut) - body.normal_chord(cut)[0]


def normal_means(body) -> tuple[float, float]:
    """Mean normal counts (n, n_surf) of a smooth or arc body over the
    interior and over the boundary (uniform in arclength): the chord
    integrals of the module docstring, by ``gauss_panels`` between kinks.

    A smooth body takes int rho^2 from Parseval and cuts the circle at
    ``rho_turns``; f = rho - L has a root between two cuts in a row exactly
    when it changes sign there, found by ``newton`` with slope f'.  An arc
    body takes the sum of r^2 times the span, and splits each arc where the
    line through its centre c passes a corner q, at the angles of +-(q - c),
    and an eighth of its span from each end, since 1/c can be singular just
    past an arc's ends (a lens).  Doubling the order moves n and n_surf by
    less than 1e-12.  Where rho < L at every node n_surf is exactly 2.0."""
    if isinstance(body, ArcBody2):
        arcs = body.pieces[body.pieces[:, 2] > 0.0]
        c, r, lo, hi = arcs[:, :2], arcs[:, 2], arcs[:, 3:4], arcs[:, 4:5]
        rel = body.corner_points - c[:, None]
        ang = np.arctan2(rel[..., 1], rel[..., 0])
        cuts = lo + np.mod(np.hstack([ang, ang + np.pi]) - lo, TWO_PI)  # into [lo, lo + 2pi)
        end = (hi - lo) / 8.0  # end panels: 1/c is singular just past the arc's ends
        cuts = np.sort(np.hstack([lo, lo + end, np.minimum(cuts, hi), hi - end, hi]), axis=1)
        keep = cuts[:, 1:] > cuts[:, :-1]
        t, wt = gauss_panels(cuts[:, :-1][keep], cuts[:, 1:][keep])
        arc = np.repeat(np.nonzero(keep)[0], t.shape[1])
        t, wt, u = t.ravel(), wt.ravel(), unit(t.ravel())
        rho2, rho = float(np.sum(r**2 * (hi - lo)[:, 0])), r[arc]
        chord, e = body.chord(c[arc] + r[arc, None] * u, -u)
    else:
        require_smooth(body, "normal_means, unless given an arc body,")
        w = 1.0 - body.k**2
        rho2 = TWO_PI * body.a0**2 + np.pi * float(np.sum(w**2 * (body.ac**2 + body.bs**2)))
        cut, slope, f = _turn_excess(body)
        ups = f > 0.0
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
        rho, (chord, e) = body.rho(t), body.normal_chord(t)
    over = np.maximum(rho - chord, 0.0)
    return ((rho2 - float(np.sum(wt * over**2))) / body.area(),
            2.0 + 2.0 * float(np.sum(wt * over / -np.cos(e - t))) / body.perimeter())


def rolling_ball_radius(body: SmoothBody2) -> float:
    """Smallest radius of curvature, the largest r such that a disk of radius r
    rolls freely inside: ``body.min_rho``, the least rho at the critical
    points of rho (``SmoothBody2.rho_turns``)."""
    require_smooth(body, "the evolute machinery")
    return body.min_rho
