"""Inscribed equispaced polygons versus their smooth parent body.

Placing k vertices on the boundary at equal arc-length spacing gives a
polygon P_k whose exact mean normal count eventually exceeds the parent
body's: discretization strictly increases the average.  Both sides are
exact, the polygon by the wedge decomposition and the parent by the chord
integral of ``evolute.normal_means``, so the margin n(P_k) - n(K) carries
no sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies2d import Polygon2, SmoothBody2, build_polygon, require_smooth
from .errors import DomainError
from .evolute import normal_means
from .wedges import exact_average_normals


@dataclass(frozen=True)
class RaceRow:
    k: int
    n_polygon: float  # exact
    n_body: float  # exact
    margin: float  # n_polygon - n_body


def inscribe_polygon(body: SmoothBody2, k: int) -> Polygon2:
    """Polygon on k boundary points at equal arc-length spacing."""
    require_smooth(body, "inscribe_polygon")
    if k < 3:
        raise DomainError("need at least 3 vertices")
    thetas = body.arclength_inverse(np.arange(k) / k)
    return build_polygon(body.boundary(thetas))


def discretization_race(body: SmoothBody2, k_list) -> list[RaceRow]:
    """Exact n(P_k) against the exact n(K) for each k."""
    n_body = normal_means(body)[0]
    rows = []
    for k in k_list:
        _, n_exact = exact_average_normals(inscribe_polygon(body, int(k)))
        rows.append(RaceRow(int(k), n_exact, n_body, n_exact - n_body))
    return rows
