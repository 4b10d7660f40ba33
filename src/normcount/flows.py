"""Support-function flows and the normal-count derivative identity.

The unit-speed (eikonal) flow moves every boundary point along its outer
normal, which in support-function form is exactly ``h -> h + t``: the flow
is a coefficient shift, never time-stepped, so the experiments carry no
solver error.  Normal lines are invariant under the flow, hence the count
through a fixed interior point does not change; all time slices are
therefore estimated on one shared candidate stream (one seed, one box),
which couples the estimates and removes almost all sampling noise from
time differences.

The curvature-power flow ``dh/dt = +/- rho^r`` is integrated explicitly on a
dense angle grid with re-projection onto the finite Fourier basis each step;
it is exploratory and truncates the trace if convexity is lost.

Empirically (and provably for bodies containing their evolute) the interior
mean count DEcreases toward 2 under the outward flow and INcreases under the
inward flow: grown points near the boundary see exactly 2 normals, so
n(t) = 2 + excess/area(t) with a time-invariant excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import EstimateReport, estimate_boundary_average, resolve_counter
from .bodies2d import (SmoothBody2, bounding_box, contains2_batch, measure2d,
                       signed_boundary_excess)
from .errors import ConvexityError, DomainError, SingularFlowError, UnsupportedCombinationError
from .evolute import rolling_ball_radius
from .rng import box_candidates

_KINDS = ("outward_eikonal", "inward_eikonal", "curvature_power")


@dataclass(frozen=True)
class FlowSpec:
    kind: str
    t_end: float
    steps: int
    r: float = 1.0  # curvature-power exponent
    direction: str = "out"  # curvature-power direction

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown flow kind {self.kind!r}")
        if self.steps < 1:
            raise DomainError("flow needs at least one step")
        if self.t_end <= 0:
            raise DomainError("t_end must be positive")
        if self.kind == "curvature_power" and (self.r <= 0 or self.direction not in ("in", "out")):
            raise DomainError("curvature_power needs r > 0 and direction in/out")


@dataclass
class FlowTrace:
    times: np.ndarray
    bodies: list
    n_values: list
    n_surf_values: list
    truncated: bool = False

    def means(self) -> np.ndarray:
        return np.array([r.mean for r in self.n_values])


def _require_smooth(body) -> SmoothBody2:
    if not isinstance(body, SmoothBody2):
        raise UnsupportedCombinationError(
            f"flows require a smooth body, got {type(body).__name__}")
    return body


def offset_body(body: SmoothBody2, t: float) -> SmoothBody2:
    """Eikonal offset: a0 -> a0 + t, harmonics unchanged.

    Inward offsets beyond the rolling-ball radius hit the evolute and are
    rejected.  The centres of curvature are invariant and every radius of
    curvature shifts by exactly t; both are spot-checked.
    """
    _require_smooth(body)
    if t < 0 and -t >= rolling_ball_radius(body):
        raise SingularFlowError(
            f"inward offset {t} reaches the evolute (rolling-ball radius "
            f"{rolling_ball_radius(body):.6g})")
    out = SmoothBody2(body.a0 + t, body.ac, body.bs)
    thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    assert np.allclose(out.curvature_center(thetas), body.curvature_center(thetas),
                       atol=1e-12 * max(body.scale, 1.0))
    assert np.allclose(out.rho(thetas) - body.rho(thetas), t, atol=1e-12 * max(abs(t), 1.0))
    return out


def _project_support(h_vals: np.ndarray, degree: int) -> tuple[float, np.ndarray, np.ndarray]:
    g = len(h_vals)
    spec = np.fft.rfft(h_vals)
    a0 = float(spec[0].real) / g
    k = np.arange(1, degree + 1)
    cos_c = 2.0 * spec[k].real / g
    sin_c = -2.0 * spec[k].imag / g
    return a0, cos_c, sin_c


def _curvature_power_bodies(body: SmoothBody2, spec: FlowSpec,
                            grid: int = 512) -> tuple[list, bool]:
    sign = 1.0 if spec.direction == "out" else -1.0
    degree = max(len(body.ac), len(body.bs), 1)
    thetas = np.arange(grid) * (2.0 * np.pi / grid)
    bodies = [body]
    cur = body
    dt_out = spec.t_end / spec.steps
    for _ in range(spec.steps):
        remaining = dt_out
        try:
            while remaining > 1e-15:
                rho = cur.rho(thetas)
                dt = min(remaining, 0.2 * float(np.min(rho)) ** spec.r * (2.0 * np.pi / grid))
                h = cur.support(thetas) + sign * dt * rho ** spec.r
                a0, cos_c, sin_c = _project_support(h, degree)
                cur = SmoothBody2(a0, cos_c, sin_c)
                remaining -= dt
        except ConvexityError:
            return bodies, True
        bodies.append(cur)
    return bodies, False


def _flow_bodies(body: SmoothBody2, spec: FlowSpec) -> tuple[np.ndarray, list, bool]:
    times = np.linspace(0.0, spec.t_end, spec.steps + 1)
    if spec.kind == "outward_eikonal":
        return times, [offset_body(body, t) for t in times], False
    if spec.kind == "inward_eikonal":
        if spec.t_end >= rolling_ball_radius(body):
            raise SingularFlowError(
                "inward eikonal t_end reaches the evolute before the trace ends")
        return times, [offset_body(body, -t) for t in times], False
    bodies, truncated = _curvature_power_bodies(body, spec)
    return times[:len(bodies)], bodies, truncated


def _shared_box(bodies: list) -> tuple[np.ndarray, np.ndarray]:
    los = np.array([bounding_box(b)[0] for b in bodies])
    his = np.array([bounding_box(b)[1] for b in bodies])
    return los.min(axis=0), his.max(axis=0)


def _coupled_pool(bodies: list, signed_times, n_samples: int,
                  seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """One candidate prefix plus per-slice inside masks.

    The prefix is sized so the smallest slice accepts n_samples points.
    Eikonal slices are support offsets of the first body, so inside(K_t)
    reduces to margin(K_0) <= t and a single margin pass serves every slice;
    only shape-changing flows pay per-slice containment.
    """
    lo, hi = _shared_box(bodies)
    chunks: list[np.ndarray] = []
    accepted = 0
    if signed_times is not None:
        base = bodies[0]
        t_min = float(np.min(signed_times))
        margin_chunks: list[np.ndarray] = []
        for cand in box_candidates(seed, lo, hi):
            margins = signed_boundary_excess(base, cand)
            need = n_samples - accepted
            inside_idx = np.flatnonzero(margins <= t_min)
            if len(inside_idx) >= need:
                stop = inside_idx[need - 1] + 1
                chunks.append(cand[:stop])
                margin_chunks.append(margins[:stop])
                break
            accepted += len(inside_idx)
            chunks.append(cand)
            margin_chunks.append(margins)
        candidates = np.concatenate(chunks)
        margins = np.concatenate(margin_chunks)
        return candidates, [margins <= t for t in signed_times]
    areas = [measure2d(b)["area"] for b in bodies]
    smallest = bodies[int(np.argmin(areas))]
    for cand in box_candidates(seed, lo, hi):
        hits = contains2_batch(smallest, cand)
        need = n_samples - accepted
        inside_idx = np.flatnonzero(hits)
        if len(inside_idx) >= need:
            chunks.append(cand[: inside_idx[need - 1] + 1])
            break
        accepted += len(inside_idx)
        chunks.append(cand)
    candidates = np.concatenate(chunks)
    return candidates, [contains2_batch(b, candidates) for b in bodies]


def _signed_times(spec: FlowSpec, times: np.ndarray):
    if spec.kind == "outward_eikonal":
        return times
    if spec.kind == "inward_eikonal":
        return -times
    return None


def _slice_report(body, pts: np.ndarray, counter_fn) -> EstimateReport:
    vals, flags = counter_fn(body, pts)
    vals = np.asarray(vals, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    keep = vals[~flags]
    n = len(keep)
    mean = float(np.mean(keep))
    se = float(np.std(keep, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return EstimateReport(mean, se, (mean - 1.96 * se, mean + 1.96 * se),
                          n, int(flags.sum()), None)


def evolve_flow(body: SmoothBody2, spec: FlowSpec, n_samples: int, seed: int, *,
                boundary_samples: int | None = None) -> FlowTrace:
    """Evolve the body and estimate interior and boundary mean counts per time.

    All slices share one candidate stream over one box, so shared points
    contribute identically at every time and time differences are nearly
    noise-free.  Flagged (degeneracy-locus) points are excluded and tallied.
    """
    _require_smooth(body)
    times, bodies, truncated = _flow_bodies(body, spec)
    counter_fn = resolve_counter("normals")
    candidates, masks = _coupled_pool(bodies, _signed_times(spec, times),
                                      n_samples, seed)
    bs = boundary_samples or max(1000, n_samples // 10)
    n_values = [_slice_report(b, candidates[m], counter_fn)
                for b, m in zip(bodies, masks)]
    n_surf_values = [
        estimate_boundary_average(b, "normals", bs, seed)
        for b in bodies
    ]
    return FlowTrace(times, bodies, n_values, n_surf_values, truncated)


def monotonicity_verdict(trace: FlowTrace) -> dict:
    """Classify a trace: direction of the point estimates, CI-aware.

    A wrong-direction pair is a consecutive pair of slices whose confidence
    intervals are disjoint in the order opposite to the overall trend.
    """
    means = trace.means()
    diffs = np.diff(means)
    los = np.array([r.ci95[0] for r in trace.n_values])
    his = np.array([r.ci95[1] for r in trace.n_values])
    overall = means[-1] - means[0]
    if overall < 0:
        direction = "decreasing"
        strict = bool(np.all(diffs < 0))
        wrong = bool(np.any(los[1:] > his[:-1]))
    elif overall > 0:
        direction = "increasing"
        strict = bool(np.all(diffs > 0))
        wrong = bool(np.any(his[1:] < los[:-1]))
    else:
        direction = "none"
        strict = False
        wrong = False
    return {
        "direction": direction,
        "strict_estimates": strict,
        "constant": bool(np.all(means == means[0])),
        "endpoints_ci_disjoint": bool(his[-1] < los[0] or his[0] < los[-1]),
        "wrong_direction_ci_pair": wrong,
    }


def derivative_report(body: SmoothBody2, dt: float, n_samples: int, seed: int, *,
                      boundary_samples: int | None = None) -> dict:
    """Finite-difference vs identity for d/dt of the interior mean count.

    Both sides are estimated from matched seeds: the finite difference uses
    one candidate prefix shared by the body and its offset (the difference is
    then driven only by the annulus points), and the right-hand side is
    (perimeter/area) * (n_surf - n).  Returns the residual plus delta-method
    standard errors for an honest combined CI width.
    """
    _require_smooth(body)
    if dt <= 0:
        raise DomainError("derivative_report needs dt > 0")
    grown = offset_body(body, dt)
    counter_fn = resolve_counter("normals")
    candidates, (in0, in1) = _coupled_pool([body, grown], np.array([0.0, dt]),
                                           n_samples, seed)
    pts1 = candidates[in1]
    vals1, flags1 = counter_fn(grown, pts1)
    vals1 = np.asarray(vals1, dtype=float)
    ann_mask = ~in0[in1]  # annulus points, in grown only
    keep = ~np.asarray(flags1, dtype=bool)
    vals0 = vals1[keep & ~ann_mask]
    valsA = vals1[keep & ann_mask]
    n0 = len(vals0)
    n1 = int(np.sum(keep))
    mean0 = float(np.mean(vals0))
    mean1 = float(np.mean(vals1[keep]))
    se0 = float(np.std(vals0, ddof=1)) / math.sqrt(n0)
    dn = len(valsA)
    mean_ann = float(np.mean(valsA)) if dn else mean0
    var_ann = float(np.var(valsA, ddof=1)) if dn > 1 else 0.0

    fd = (mean1 - mean0) / dt
    rate = dn / (n1 * dt)
    var_fd = (1.0 / dt ** 2) * (
        (dn / n1) ** 2 * (var_ann / max(dn, 1))
        + (mean_ann - mean0) ** 2 * max(dn, 1) / n1 ** 2
        + (dn / n1) ** 2 * se0 ** 2
    )
    se_fd = math.sqrt(var_fd)

    bs = boundary_samples or max(1000, n_samples // 10)
    surf = estimate_boundary_average(body, "normals", bs, seed)
    m = measure2d(body)
    ratio = m["perimeter"] / m["area"]
    rhs = ratio * (surf.mean - mean0)
    se_rhs = ratio * math.sqrt(surf.std_error ** 2 + se0 ** 2)

    return {
        "residual": abs(fd - rhs),
        "finite_difference": fd,
        "identity_rhs": rhs,
        "annulus_rate": rate,
        "perimeter_over_area": ratio,
        "n_mean": mean0,
        "n_surf_mean": surf.mean,
        "combined_ci_width": 1.96 * (se_fd + se_rhs),
        "se_finite_difference": se_fd,
        "se_identity_rhs": se_rhs,
        "samples_used": n1,
    }


def derivative_residual(body: SmoothBody2, dt: float, n_samples: int, seed: int,
                        **kw) -> float:
    """|finite difference - (perimeter/area)(n_surf - n)| at matched seeds."""
    return derivative_report(body, dt, n_samples, seed, **kw)["residual"]
