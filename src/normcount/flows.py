"""Support-function flows and the normal-count derivative identity.

The unit-speed (eikonal) flow moves every boundary point along its outer
normal, which in support-function form is exactly ``h -> h + t``: the flow
is a coefficient shift, never time-stepped, so the experiments carry no
solver error.  Normal lines are invariant under the flow, hence the count
through a fixed interior point does not change.  Every mean of a flow is a
quadrature value of ``evolute.normal_means``, exact to rounding: the
interior and boundary means of each ``evolve_flow`` slice, and both sides of
``derivative_report``'s identity.  Nothing is sampled, so a trace has no
seed and no sampling noise.

The curvature flow ``dh/dt = +/- rho`` is a coefficient map too: rho = h + h''
is diagonal in the Fourier basis, so a0 -> a0*e^(+/-t) and a_k, b_k ->
a_k, b_k*e^(+/-(1 - k^2)t), with no time step.  Outward it is e^t times the
heat semigroup acting on rho and stays convex; inward the first slice that is
not convex truncates the trace.

Empirically (and provably for bodies containing their evolute) the interior
mean count DEcreases toward 2 under the outward flow and INcreases under the
inward flow: grown points near the boundary see exactly 2 normals, so
n(t) = 2 + excess/area(t) with a time-invariant excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .bodies2d import TWO_PI, SmoothBody2, require_smooth
from .errors import ConvexityError, DomainError, SingularFlowError
from .evolute import normal_means, rolling_ball_radius

_KINDS = ("outward_eikonal", "inward_eikonal", "curvature_power")


@dataclass(frozen=True)
class FlowSpec:
    """``steps`` + 1 equal times in [0, t_end]; ``direction`` ("out" or
    "in") applies only to ``curvature_power``."""
    kind: str
    t_end: float
    steps: int
    direction: str = "out"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown flow kind {self.kind!r}")
        if not isinstance(self.steps, Integral) or self.steps < 1:
            raise DomainError(f"steps must be a positive integer, got {self.steps!r}")
        if not 0 < self.t_end < math.inf:
            raise DomainError("t_end must be positive and finite")
        if self.direction not in ("in", "out"):
            raise DomainError(f"direction must be 'in' or 'out', got {self.direction!r}")


@dataclass
class FlowTrace:
    """Per time slice: the body and its interior and boundary means, the
    ``normal_means`` values, exact to rounding.  ``truncated`` is set only
    by an inward ``curvature_power`` flow that lost convexity before t_end;
    the slices end before that time."""
    times: np.ndarray
    bodies: list
    n_values: np.ndarray
    n_surf_values: np.ndarray
    truncated: bool = False


def offset_body(body: SmoothBody2, t: float) -> SmoothBody2:
    """Eikonal offset: a0 -> a0 + t, harmonics unchanged.

    Inward offsets beyond the rolling-ball radius hit the evolute and are
    rejected.  The centres of curvature are invariant and every radius of
    curvature shifts by exactly t; both are spot-checked.
    """
    require_smooth(body, "a flow")
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if t < 0 and -t >= rolling_ball_radius(body):
        raise SingularFlowError(
            f"inward offset {t} reaches the evolute (rolling-ball radius "
            f"{rolling_ball_radius(body):.6g})")
    out = SmoothBody2(body.a0 + t, body.ac, body.bs)
    thetas = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    assert np.allclose(out.curvature_center(thetas), body.curvature_center(thetas),
                       atol=1e-12 * max(body.scale, 1.0))
    assert np.allclose(out.rho(thetas) - body.rho(thetas), t, atol=1e-12 * max(abs(t), 1.0))
    return out


def _curvature_body(body: SmoothBody2, t: float) -> SmoothBody2:
    """The curvature flow dh/dt = rho at signed time t: a0 -> a0*e^t and
    a_k, b_k -> a_k, b_k*e^((1 - k^2)t).  ConvexityError where the slice is
    not convex."""
    decay = np.exp((1.0 - body.k**2) * t)
    return SmoothBody2(body.a0 * math.exp(t), body.ac * decay, body.bs * decay)


def _flow_bodies(body: SmoothBody2, spec: FlowSpec) -> tuple[np.ndarray, list, bool]:
    times = np.linspace(0.0, spec.t_end, spec.steps + 1)
    if spec.kind == "outward_eikonal":
        return times, [offset_body(body, t) for t in times], False
    if spec.kind == "inward_eikonal":
        if spec.t_end >= rolling_ball_radius(body):
            raise SingularFlowError(
                "inward eikonal t_end reaches the evolute before the trace ends")
        return times, [offset_body(body, -t) for t in times], False
    sign = 1.0 if spec.direction == "out" else -1.0
    bodies = []
    for t in times:
        try:
            bodies.append(_curvature_body(body, sign * t))
        except ConvexityError:
            return times[:len(bodies)], bodies, True
    return times, bodies, False


def evolve_flow(body: SmoothBody2, spec: FlowSpec) -> FlowTrace:
    """Evolve the body and give the interior and boundary mean counts per
    time, the quadrature values of ``normal_means``: nothing is sampled."""
    require_smooth(body, "a flow")
    times, bodies, truncated = _flow_bodies(body, spec)
    n_values, n_surf_values = np.array([normal_means(b) for b in bodies]).T
    return FlowTrace(times, bodies, n_values, n_surf_values, truncated)


def monotonicity_verdict(trace: FlowTrace) -> dict:
    """Classify a trace by the direction of its exact means.

    An exact mean is an interval of width 0: the endpoints are disjoint
    where they differ, and a wrong-direction pair is a step against the
    overall trend.
    """
    n = trace.n_values
    steps = np.diff(n)
    trend = int(n[-1] > n[0]) - int(n[-1] < n[0])
    return {
        "direction": {1: "increasing", -1: "decreasing", 0: "none"}[trend],
        "strict_estimates": bool(trend and np.all(trend * steps > 0)),
        "constant": bool(np.all(n == n[0])),
        "endpoints_ci_disjoint": bool(n[-1] != n[0]),
        "wrong_direction_ci_pair": bool(np.any(trend * steps < 0)),
    }


def derivative_report(body: SmoothBody2, dt: float) -> dict:
    """Forward difference vs identity for d/dt of the interior mean count.

    Under h -> h + t the area grows at the rate P, and the integral of the
    count at the rate P * n_surf, so dn/dt = (P/A) * (n_surf - n).  Both
    sides are quadrature values of ``normal_means``: the finite difference
    (n(dt) - n(0)) / dt and the identity's right-hand side at t = 0.  Their
    residual is the difference's own error, first order in dt: both
    quadratures are exact to rounding.
    """
    require_smooth(body, "a flow")
    if not 0 < dt < math.inf:
        raise DomainError(f"dt must be positive and finite, got {dt!r}")
    n0, surf = normal_means(body)
    fd = (normal_means(offset_body(body, dt))[0] - n0) / dt
    ratio = body.perimeter() / body.area()
    rhs = ratio * (surf - n0)
    return {
        "residual": abs(fd - rhs),
        "finite_difference": fd,
        "identity_rhs": rhs,
        "perimeter_over_area": ratio,
        "n_mean": n0,
        "n_surf_mean": surf,
    }
