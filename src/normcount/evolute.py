"""Curvature radii, centres of curvature, and evolute containment.

For a smooth body with support function h the radius of curvature at normal
angle theta is rho = h + h'' and the centre of curvature is c = r - rho*u.
The evolute (the curve of centres) is the degeneracy locus of normal
counting: counts jump by 2 across it.  Bodies whose evolute stays inside
them form the class with at most 6 normals per interior point on average
and exactly 2 normals through every boundary point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies2d import TWO_PI, SmoothBody2, signed_boundary_excess
from .errors import UnsupportedCombinationError


@dataclass(frozen=True)
class EvolutePoint:
    theta: float
    rho: float
    boundary_point: np.ndarray
    center: np.ndarray


def _require_smooth(body) -> SmoothBody2:
    if not isinstance(body, SmoothBody2):
        raise UnsupportedCombinationError(
            f"evolute machinery requires a smooth body, got {type(body).__name__}")
    return body


def evolute_points(body: SmoothBody2, thetas) -> np.ndarray:
    """Centres of curvature c(theta) = r(theta) - rho(theta) * u(theta)."""
    _require_smooth(body)
    return body.curvature_center(np.asarray(thetas, dtype=float))


def curvature_profile(body: SmoothBody2, grid: int = 512) -> list[EvolutePoint]:
    """Evolute samples with exact Fourier derivatives at ``grid`` angles."""
    _require_smooth(body)
    thetas = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    rho = body.rho(thetas)
    r = body.boundary(thetas)
    c = body.curvature_center(thetas)
    return [EvolutePoint(float(t), float(p), r[i].copy(), c[i].copy())
            for i, (t, p) in enumerate(zip(thetas, rho))]


def contains_evolute(body: SmoothBody2, grid: int = 4096,
                     rtol: float = 1e-9) -> tuple[bool, float]:
    """Does the body contain all its centres of curvature?

    Grid-certified: the worst signed support excess of the centres is taken
    over ``grid`` angles and once more over the doubled grid; negative means
    strictly inside with that margin.  Returns (contained, worst_excess).
    """
    _require_smooth(body)
    worst = -np.inf
    for g in (grid, 2 * grid):
        thetas = np.linspace(0.0, TWO_PI, g, endpoint=False)
        centers = body.curvature_center(thetas)
        worst = max(worst, float(np.max(signed_boundary_excess(body, centers))))
    return worst <= rtol * body.scale, worst


def rolling_ball_radius(body: SmoothBody2, grid: int = 4096) -> float:
    """Smallest radius of curvature: the largest r such that a disk of radius
    r rolls freely inside the body (min over angles of rho, parabolic-refined
    around the grid minimum)."""
    _require_smooth(body)
    thetas = np.linspace(0.0, TWO_PI, 2 * grid, endpoint=False)
    rho = body.rho(thetas)
    i = int(np.argmin(rho))
    step = thetas[1] - thetas[0]
    t0 = thetas[i]
    a, b, c = body.rho(t0 - step), rho[i], body.rho(t0 + step)
    denom = a - 2.0 * b + c
    if denom > 0:
        t_min = t0 + 0.5 * step * (a - c) / denom
        return min(b, body.rho(t_min))
    return float(b)
