"""Evolute geometry, eikonal offsets, and flow experiments."""
import math

import numpy as np
import pytest

import normcount as nc
from normcount import DomainError, SingularFlowError

import oracles


def _disk(r=1.0):
    return nc.SmoothBody2(r, [], [])


def _wavy(a2=0.05):
    # evolute-inside body: rolling ball radius 1 - 3*a2 > 0
    return nc.SmoothBody2(1.0, [0.0, a2], [0.0, 0.0])


def test_disk_evolute_collapses_to_center():
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    pts = nc.evolute_points(_disk(2.0), thetas)
    assert pts.shape == (64, 2)
    assert np.max(np.abs(pts)) < 1e-12


def test_rolling_ball_radius_closed_form():
    # h = 1 + a2*cos(2t): rho = h + h'' = 1 - 3*a2*cos(2t), min at 1 - 3*a2
    for a2 in (0.02, 0.1, 0.2):
        body = nc.SmoothBody2(1.0, [0.0, a2], [0.0, 0.0])
        assert nc.rolling_ball_radius(body) == pytest.approx(1.0 - 3.0 * a2, abs=1e-9)
    assert nc.rolling_ball_radius(_disk(3.0)) == pytest.approx(3.0, abs=1e-12)


def test_curvature_profile_matches_rho():
    body = _wavy(0.08)
    prof = nc.curvature_profile(body, grid=128)
    assert len(prof) == 128
    for ep in prof[:16]:
        assert ep.rho == pytest.approx(float(body.rho(ep.theta)), abs=1e-12)
        c = nc.evolute_points(body, ep.theta)  # single angle -> shape (2,)
        assert np.allclose(ep.center, c, atol=1e-12)


def test_contains_evolute_round_vs_eccentric():
    ok, worst = nc.contains_evolute(_wavy(0.05))
    assert ok and worst < 0.0
    # 3:1 fitted ellipse: evolute pokes far outside
    t = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    h = np.sqrt((3.0 * np.cos(t)) ** 2 + np.sin(t) ** 2)
    ell = nc.fit_support_body(np.column_stack([t, h]), 12)
    bad, worst_bad = nc.contains_evolute(ell)
    assert not bad and worst_bad > 1.0


def test_offset_body_steiner_measures():
    body = _wavy(0.07)
    m = nc.measure2d(body)
    for t in (0.1, 0.5, 2.0):
        mt = nc.measure2d(nc.offset_body(body, t))
        assert mt["area"] == pytest.approx(
            m["area"] + t * m["perimeter"] + math.pi * t * t, abs=1e-9)
        assert mt["perimeter"] == pytest.approx(
            m["perimeter"] + 2.0 * math.pi * t, abs=1e-9)


def test_offset_inward_small_ok_past_rolling_ball_raises():
    body = _wavy(0.05)  # rolling ball 0.85
    shrunk = nc.offset_body(body, -0.5)
    assert nc.measure2d(shrunk)["area"] < nc.measure2d(body)["area"]
    with pytest.raises(SingularFlowError):
        nc.offset_body(body, -0.85)
    with pytest.raises(SingularFlowError):
        nc.offset_body(body, -2.0)


def test_flow_spec_validation():
    with pytest.raises(DomainError):
        nc.FlowSpec("sideways", 1.0, 5)
    with pytest.raises(DomainError):
        nc.FlowSpec("outward_eikonal", 1.0, 0)
    with pytest.raises(DomainError):
        nc.FlowSpec("outward_eikonal", -1.0, 5)
    with pytest.raises(DomainError):
        nc.FlowSpec("curvature_power", 1.0, 5, r=0.0)


def test_outward_flow_decreases_mean_count():
    body = _wavy(0.06)
    spec = nc.FlowSpec("outward_eikonal", 1.5, 6)
    trace = nc.evolve_flow(body, spec, 4000, seed=7)
    verdict = nc.monotonicity_verdict(trace)
    assert verdict["direction"] == "decreasing"
    assert not verdict["wrong_direction_ci_pair"]
    means = trace.means()
    assert means[0] > means[-1]
    assert len(trace.times) == 7  # includes t=0


def test_disk_flow_constant_two():
    trace = nc.evolve_flow(_disk(), nc.FlowSpec("outward_eikonal", 1.0, 4),
                           2000, seed=3)
    verdict = nc.monotonicity_verdict(trace)
    assert verdict["constant"]
    assert verdict["direction"] == "none"
    assert all(r.mean == 2.0 and r.std_error == 0.0 for r in trace.n_values)


def test_inward_flow_past_singularity_raises():
    body = _wavy(0.05)  # rolling ball 0.85
    with pytest.raises(SingularFlowError):
        nc.evolve_flow(body, nc.FlowSpec("inward_eikonal", 1.2, 6),
                       500, seed=1)


def test_curvature_power_flow_truncation_flag():
    body = _wavy(0.1)
    spec = nc.FlowSpec("curvature_power", 8.0, 40, r=1.0, direction="in")
    trace = nc.evolve_flow(body, spec, 400, seed=2)
    assert trace.truncated
    assert len(trace.bodies) < 41
    ok = nc.evolve_flow(body, nc.FlowSpec("curvature_power", 0.05, 3, r=1.0),
                        400, seed=2)
    assert not ok.truncated and len(ok.bodies) == 4


def test_monotonicity_verdict_keys_and_endpoints():
    trace = nc.evolve_flow(_wavy(0.06), nc.FlowSpec("outward_eikonal", 2.0, 5),
                           3000, seed=11)
    verdict = nc.monotonicity_verdict(trace)
    assert set(verdict) == {"direction", "strict_estimates", "constant",
                            "endpoints_ci_disjoint", "wrong_direction_ci_pair"}
    assert verdict["endpoints_ci_disjoint"]


def test_derivative_report_identity():
    body = _wavy(0.05)
    rep = nc.derivative_report(body, 1e-3, 40000, seed=5,
                               boundary_samples=800)
    assert rep["residual"] < rep["combined_ci_width"] + 0.2
    # both sides negative for an evolute-inside body flowing outward
    assert rep["finite_difference"] < 0.0
    assert rep["identity_rhs"] < 0.0
    assert rep["n_mean"] > rep["n_surf_mean"]  # interior mean above boundary mean
    with pytest.raises(DomainError):
        nc.derivative_report(body, 0.0, 1000, seed=0)


def test_flow_matches_direct_offset_counts():
    # slices of the eikonal flow are plain offsets: spot-check support values
    body = _wavy(0.09)
    spec = nc.FlowSpec("outward_eikonal", 1.0, 2)
    trace = nc.evolve_flow(body, spec, 300, seed=9)
    direct = nc.offset_body(body, 0.5)
    t = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    assert np.allclose(trace.bodies[1].support(t), direct.support(t), atol=1e-12)
