"""Inscribed equispaced polygons versus their smooth parent body.

Placing k vertices on the boundary at equal arc-length spacing gives a
polygon P_k whose exact mean normal count eventually exceeds the parent
body's sampled mean: discretization strictly increases the average.  The
polygon side is computed exactly by the wedge decomposition, so the margin
n(P_k) - upper-CI(n(K)) carries only the parent's sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import EstimateReport, estimate_interior_average
from .bodies2d import Polygon2, SmoothBody2, build_polygon, require_smooth
from .errors import DomainError
from .wedges import exact_average_normals


@dataclass(frozen=True)
class RaceRow:
    k: int
    n_polygon: float  # exact
    n_body: EstimateReport  # sampled
    margin: float  # n_polygon - upper CI bound of n_body


def inscribe_polygon(body: SmoothBody2, k: int) -> Polygon2:
    """Polygon on k boundary points at equal arc-length spacing."""
    require_smooth(body, "inscribe_polygon")
    if k < 3:
        raise DomainError("need at least 3 vertices")
    thetas = body.arclength_inverse(np.arange(k) / k)
    return build_polygon(body.boundary(thetas))


def discretization_race(body: SmoothBody2, k_list, n_samples: int,
                        seed: int) -> list[RaceRow]:
    """Exact n(P_k) against the sampled n(K) for each k."""
    report = estimate_interior_average(body, "normals", n_samples, seed)
    rows = []
    for k in k_list:
        poly = inscribe_polygon(body, int(k))
        _, n_exact = exact_average_normals(poly)
        rows.append(RaceRow(int(k), n_exact, report, n_exact - report.ci95[1]))
    return rows
