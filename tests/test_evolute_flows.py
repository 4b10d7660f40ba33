"""Evolute geometry, eikonal offsets, and flow experiments."""
import math

import numpy as np
import pytest

import normcount as nc
from normcount import DomainError, SingularFlowError, flows, trigcount

import oracles


def _disk(r=1.0):
    return nc.SmoothBody2(r, [], [])


def _wavy(a2=0.05):
    # evolute-inside body: rolling ball radius 1 - 3*a2 > 0
    return nc.SmoothBody2(1.0, [0.0, a2], [0.0, 0.0])


def test_disk_evolute_collapses_to_center():
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    pts = _disk(2.0).curvature_center(thetas)
    assert pts.shape == (64, 2)
    assert np.max(np.abs(pts)) < 1e-12


def test_rolling_ball_radius_closed_form():
    # h = 1 + a2*cos(2t): rho = h + h'' = 1 - 3*a2*cos(2t), min at 1 - 3*a2
    for a2 in (0.02, 0.1, 0.2):
        body = nc.SmoothBody2(1.0, [0.0, a2], [0.0, 0.0])
        assert nc.rolling_ball_radius(body) == pytest.approx(1.0 - 3.0 * a2, abs=1e-9)
    assert nc.rolling_ball_radius(_disk(3.0)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("a2,phi", [(0.05, 0.3), (0.1, 1.234), (0.2, 2.0)])
def test_rolling_ball_radius_between_grid_angles(a2, phi):
    # h = 1 + a2*cos 2(t - phi): rho = 1 - 3*a2*cos 2(t - phi), least at
    # t = phi, which lies on no regular grid of angles
    body = nc.SmoothBody2(1.0, [0.0, a2 * math.cos(2 * phi)], [0.0, a2 * math.sin(2 * phi)])
    assert nc.rolling_ball_radius(body) == pytest.approx(1.0 - 3.0 * a2, abs=1e-15)


def test_rolling_ball_radius_is_the_least_rho_at_a_root_of_its_slope():
    # least rho 0.37177159104959942 at theta = 3.2551890227105972, from a
    # 40-digit root of rho' (mpmath)
    body = nc.SmoothBody2(1.0, [0.024, 0.1, -0.002, 0.003, 0.001, 0.001, -0.004],
                          [0.265, 0.032, -0.036, 0.018, -0.001, -0.005, 0.0])
    turns, slope = body.rho_turns()
    assert np.min(np.abs(turns - 3.2551890227105972)) < 1e-12
    assert abs(slope(3.2551890227105972)) < 1e-12
    assert nc.rolling_ball_radius(body) == body.min_rho
    assert body.min_rho == pytest.approx(0.37177159104959942, abs=1e-15)


def test_curvature_profile_matches_rho():
    body = _wavy(0.08)
    prof = nc.curvature_profile(body, grid=128)
    assert prof.shape == (128, 4)
    assert np.allclose(prof[:, 0], np.arange(128) * (2.0 * np.pi / 128), rtol=0.0, atol=1e-15)
    for theta, rho, cx, cy in prof[:16]:
        assert rho == pytest.approx(float(body.rho(theta)), abs=1e-12)
        c = body.curvature_center(theta)  # single angle -> shape (2,)
        assert np.allclose((cx, cy), c, atol=1e-12)


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
    with pytest.raises(DomainError, match="^direction must be 'in' or 'out', got 'up'$"):
        nc.FlowSpec("curvature_power", 1.0, 5, direction="up")


@pytest.mark.parametrize("field", ["t_end"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_flow_spec_rejects_non_finite_values(field, value):
    with pytest.raises(DomainError, match=f"^{field} must be"):
        nc.FlowSpec("curvature_power", **{"t_end": 1.0, "steps": 5, field: value})


def test_flow_spec_rejects_a_fractional_step_count():
    with pytest.raises(DomainError, match="^steps must be a positive integer, got 2.5$"):
        nc.FlowSpec("outward_eikonal", 1.0, 2.5)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_derivative_report_rejects_non_finite_dt(dt):
    with pytest.raises(DomainError, match=f"^dt must be positive and finite, got {dt}$"):
        nc.derivative_report(_wavy(0.05), dt)


def test_offset_body_rejects_a_non_finite_offset():
    with pytest.raises(DomainError, match="^t must be finite, got nan$"):
        nc.offset_body(_wavy(0.05), math.nan)


def test_outward_flow_decreases_mean_count():
    body = _wavy(0.06)
    spec = nc.FlowSpec("outward_eikonal", 1.5, 6)
    trace = nc.evolve_flow(body, spec)
    verdict = nc.monotonicity_verdict(trace)
    assert verdict["direction"] == "decreasing"
    assert not verdict["wrong_direction_ci_pair"]
    means = trace.n_values
    assert means[0] > means[-1]
    assert len(trace.times) == 7  # includes t=0


def test_disk_flow_constant_two():
    trace = nc.evolve_flow(_disk(), nc.FlowSpec("outward_eikonal", 1.0, 4))
    verdict = nc.monotonicity_verdict(trace)
    assert verdict["constant"]
    assert verdict["direction"] == "none"
    assert np.all(trace.n_values == 2.0)


def test_inward_flow_past_singularity_raises():
    body = _wavy(0.05)  # rolling ball 0.85
    with pytest.raises(SingularFlowError):
        nc.evolve_flow(body, nc.FlowSpec("inward_eikonal", 1.2, 6))


def test_curvature_power_flow_truncation_flag():
    # inward, rho = e^-t - 3a e^3t cos 2t on h = 1 + a cos 2t: convexity is
    # lost at t = ln(1/(3a))/4 = 0.301, between the slices at 0.2 and 0.4
    body = _wavy(0.1)
    spec = nc.FlowSpec("curvature_power", 8.0, 40, direction="in")
    trace = nc.evolve_flow(body, spec)
    assert trace.truncated
    assert len(trace.bodies) == 2 and list(trace.times) == [0.0, 0.2]
    ok = nc.evolve_flow(body, nc.FlowSpec("curvature_power", 0.05, 3))
    assert not ok.truncated and len(ok.bodies) == 4


GENERIC = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])


def test_curvature_flow_rates_on_the_generic_body():
    # the slices solve dh/dt = rho (central difference of the support), and
    # their area grows at the integral of rho^2, by Parseval
    t, dt = 0.5, 1e-4
    before, now, after = (flows._curvature_body(GENERIC, s) for s in (t - dt, t, t + dt))
    ths = np.linspace(0.0, 2 * np.pi, 97)
    rate = (after.support(ths) - before.support(ths)) / (2 * dt)
    assert np.max(np.abs(rate - now.rho(ths))) < 1e-7
    area_rate = (after.area() - before.area()) / (2 * dt)
    parseval = (2 * np.pi * now.a0**2
                + np.pi * np.sum((now.k**2 - 1) ** 2 * (now.ac**2 + now.bs**2)))
    assert area_rate == pytest.approx(parseval, rel=1e-6)


@pytest.mark.parametrize("direction", ["out", "in"])
def test_curvature_flow_starts_at_the_input_body(direction):
    _, bodies, _ = flows._flow_bodies(GENERIC, nc.FlowSpec("curvature_power", 0.1, 2, direction))
    assert bodies[0].a0 == GENERIC.a0
    assert np.array_equal(bodies[0].ac, GENERIC.ac) and np.array_equal(bodies[0].bs, GENERIC.bs)


def test_monotonicity_verdict_keys_and_endpoints():
    trace = nc.evolve_flow(_wavy(0.06), nc.FlowSpec("outward_eikonal", 2.0, 5))
    verdict = nc.monotonicity_verdict(trace)
    assert set(verdict) == {"direction", "strict_estimates", "constant",
                            "endpoints_ci_disjoint", "wrong_direction_ci_pair"}
    assert verdict["endpoints_ci_disjoint"]


_MONOTONE = {"strict_estimates": True, "constant": False, "endpoints_ci_disjoint": True,
             "wrong_direction_ci_pair": False}


@pytest.mark.parametrize("body,spec,want", [
    (_wavy(0.06), nc.FlowSpec("outward_eikonal", 1.5, 6),
     {"direction": "decreasing", **_MONOTONE}),
    (nc.SmoothBody2(1.0, [0.0, 0.0, 0.06]), nc.FlowSpec("inward_eikonal", 0.4, 3),
     {"direction": "increasing", **_MONOTONE}),
    (_disk(), nc.FlowSpec("outward_eikonal", 1.0, 4),
     {"direction": "none", "strict_estimates": False, "constant": True,
      "endpoints_ci_disjoint": False, "wrong_direction_ci_pair": False}),
    (GENERIC, nc.FlowSpec("curvature_power", 0.3, 3), {"direction": "decreasing", **_MONOTONE}),
    (_wavy(0.1), nc.FlowSpec("curvature_power", 8.0, 40, direction="in"),
     {"direction": "increasing", **_MONOTONE}),
], ids=["outward", "inward", "disk", "curvature-out", "curvature-in-truncated"])
def test_monotonicity_verdict_matches_the_recorded_ci_verdicts(body, spec, want):
    # recorded when each slice was a zero-width CI at its exact mean
    trace = nc.evolve_flow(body, spec)
    assert isinstance(trace.n_values, np.ndarray) and trace.n_values.dtype == float
    assert nc.monotonicity_verdict(trace) == want


@pytest.mark.parametrize("n,want", [
    ([3.0, 2.5, 2.7, 2.2], {"direction": "decreasing", "strict_estimates": False,
                            "constant": False, "endpoints_ci_disjoint": True,
                            "wrong_direction_ci_pair": True}),
    ([2.0, 2.5, 2.0], {"direction": "none", "strict_estimates": False, "constant": False,
                       "endpoints_ci_disjoint": False, "wrong_direction_ci_pair": False}),
    ([2.0], {"direction": "none", "strict_estimates": False, "constant": True,
             "endpoints_ci_disjoint": False, "wrong_direction_ci_pair": False}),
], ids=["step-against-trend", "round-trip", "one-slice"])
def test_monotonicity_verdict_reads_exact_means_as_zero_width_intervals(n, want):
    # a step against the trend is a pair of disjoint zero-width intervals
    n = np.array(n)
    trace = flows.FlowTrace(np.arange(len(n), dtype=float), [None] * len(n), n, n)
    assert nc.monotonicity_verdict(trace) == want


def test_derivative_report_identity():
    body = _wavy(0.05)
    rep = nc.derivative_report(body, 1e-3)
    assert set(rep) == {"residual", "finite_difference", "identity_rhs",
                        "perimeter_over_area", "n_mean", "n_surf_mean"}
    assert rep["residual"] < 1e-2 * abs(rep["identity_rhs"])  # first order in dt
    # both sides negative for an evolute-inside body flowing outward
    assert rep["finite_difference"] < 0.0
    assert rep["identity_rhs"] < 0.0
    assert rep["n_surf_mean"] == 2.0 < rep["n_mean"]  # interior mean above boundary mean
    with pytest.raises(DomainError):
        nc.derivative_report(body, 0.0)


def test_flow_matches_direct_offset_counts():
    # slices of the eikonal flow are plain offsets: spot-check support values
    body = _wavy(0.09)
    spec = nc.FlowSpec("outward_eikonal", 1.0, 2)
    trace = nc.evolve_flow(body, spec)
    direct = nc.offset_body(body, 0.5)
    t = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    assert np.allclose(trace.bodies[1].support(t), direct.support(t), atol=1e-12)


def test_contains_evolute_worst_excess_is_pinned():
    # the largest rho - L at the critical points of rho, as first computed
    # with the normal chord; test_pinned_worst_excess_matches_the_bisection_oracle
    # confirms it by bisection
    inside = nc.SmoothBody2(2.0, [0.1, 0.05, 0.02], [0.0, 0.03, 0.0, 0.01])
    assert nc.contains_evolute(inside) == (True, -1.5891758336263226)
    assert nc.contains_evolute(_wavy(0.3)) == (False, 0.5)


@pytest.mark.parametrize("body", [
    nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04]),
    nc.SmoothBody2(1.0, [0.0, 0.3]),
    nc.SmoothBody2(2.0, [0.1, 0.15], [0.05, 0.0, 0.06]),
    nc.SmoothBody2(1.0, [0.0, 0.01, 0.004, 0.0, 0.0, 0.0, 0.0, 0.0008],
                   [0.0, 0.0, 0.005, 0.002, 0.0, 0.0, 0.001]),
], ids=["generic", "cos2=.3", "off_centre", "deg8"])
def test_normal_chord_matches_the_bisection_oracle(body):
    theta = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False) + 0.01
    want = oracles.normal_chord_bisection(body, theta)
    chord, e = body.normal_chord(theta)
    assert np.max(np.abs(chord - want)) <= 1e-12 * body.scale
    assert body.normal_chord(theta[7]) == (chord[7], e[7])  # a scalar angle
    # the exit angle's boundary point is the chord's far end
    far = body.boundary(theta) - chord[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    assert np.max(np.linalg.norm(body.boundary(e) - far, axis=1)) <= 1e-12 * body.scale


def test_pinned_worst_excess_matches_the_bisection_oracle():
    # the first body of test_contains_evolute_worst_excess_is_pinned
    inside = nc.SmoothBody2(2.0, [0.1, 0.05, 0.02], [0.0, 0.03, 0.0, 0.01])
    theta = inside.rho_turns()[0]
    worst = np.max(inside.rho(theta) - oracles.normal_chord_bisection(inside, theta))
    assert abs(worst - -1.5891758336263226) <= 1e-12 * inside.scale


def _margin_rule(body):
    """The margin rule: every centre of the grid at most 1e-9*scale outside."""
    theta = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    centres = body.curvature_center(theta)
    return bool(np.max(nc.signed_boundary_excess(body, centres)) <= 1e-9 * body.scale)


def test_contains_evolute_matches_the_margin_rule():
    # h = s*(1 + a cos 2t + 0.01 cos 3t) contains its evolute for a below
    # about 0.2; the grid of a crosses that, and two bodies change units
    bodies = [nc.SmoothBody2(1.0, [0.0, a, 0.01]) for a in np.linspace(0.05, 0.3, 21)]
    bodies += [nc.SmoothBody2(1e-6, [0.0, 0.2e-6, 0.01e-6]),
               nc.SmoothBody2(1e4, [0.0, 0.1875e4, 0.01e4])]
    got = [nc.contains_evolute(body)[0] for body in bodies]
    assert got == [_margin_rule(body) for body in bodies]
    assert got[:12] == [True] * 12 and got[12:21] == [False] * 9
    assert got[21:] == [False, True]


# h = 1 + a cos 2t + .01 cos 3t: the evolute first touches the boundary at a*
A_TOUCH = 0.1976357236135098


@pytest.mark.parametrize("da", [1e-7, 1e-8, 1e-9, -1e-9])
def test_contains_evolute_agrees_with_the_exact_boundary_mean(da):
    # n_surf is exactly 2 where rho < L at every angle; an 8192-angle scan
    # called the body at a* + 1e-9 contained, where rho - L reaches 5.1e-9
    body = nc.SmoothBody2(1.0, [0.0, A_TOUCH + da, 0.01])
    assert nc.contains_evolute(body)[0] == (nc.normal_means(body)[1] == 2.0) == (da < 0.0)


@pytest.mark.parametrize("da", [3e-10, 1e-10, 3e-11, 0.0])
def test_contains_evolute_has_no_allowance(da):
    # rho - L peaks between 1.3e-10 and 1.6e-9 here, mostly within the
    # 1e-9*scale allowance contains_evolute once had: any excess above 0
    # means not contained, as n_surf > 2 says.  At a* itself, the case
    # nearest to rounding, only agreement is asserted
    body = nc.SmoothBody2(1.0, [0.0, A_TOUCH + da, 0.01])
    contained = nc.contains_evolute(body)[0]
    assert contained == (nc.normal_means(body)[1] == 2.0)
    assert da == 0.0 or not contained


def test_contains_evolute_solves_few_normal_chords(monkeypatch):
    # one chord per critical angle of rho: at most 2N + 1
    angles = []
    real = nc.SmoothBody2.normal_chord

    def counting(body, theta):
        angles.append(np.size(theta))
        return real(body, theta)

    monkeypatch.setattr(nc.SmoothBody2, "normal_chord", counting)
    for body in EVOLUTE_OUTSIDE + [_wavy(0.05), nc.SmoothBody2(1.0, [0.0, A_TOUCH, 0.01])]:
        angles.clear()
        nc.contains_evolute(body)
        assert 0 < sum(angles) <= 2 * body.degree + 1


def _parseval(body):
    """(int rho^2, area) of a smooth body from its Fourier coefficients."""
    w, c2 = 1.0 - body.k**2, body.ac**2 + body.bs**2
    return (2 * np.pi * body.a0**2 + np.pi * np.sum(w**2 * c2),
            np.pi * body.a0**2 + 0.5 * np.pi * np.sum(w * c2))


@pytest.mark.parametrize("spec,sign", [(nc.FlowSpec("outward_eikonal", 1.0, 3), 1.0),
                                       (nc.FlowSpec("inward_eikonal", 0.4, 3), -1.0)],
                         ids=["outward", "inward"])
def test_eikonal_flow_means_equal_the_closed_form(spec, sign):
    # the body contains its evolute at every slice, so the excess I - 2A is
    # time-invariant: n(t) = 2 + (I0 - 2 A0)/A(t), A(t) = A0 + P t + pi t^2
    body = nc.SmoothBody2(1.0, [0.0, 0.0, 0.06])
    rho2, area = _parseval(body)
    trace = nc.evolve_flow(body, spec)
    t = sign * trace.times
    want = 2.0 + (rho2 - 2.0 * area) / (area + 2 * np.pi * body.a0 * t + np.pi * t**2)
    assert np.max(np.abs(trace.n_values / want - 1.0)) <= 1e-13
    assert np.all(trace.n_surf_values == 2.0)


def test_curvature_flow_slice_agrees_with_monte_carlo():
    # the last slice's exact interior mean, against 100k samples of its counts
    trace = nc.evolve_flow(GENERIC, nc.FlowSpec("curvature_power", 0.3, 2))
    rep = nc.estimate_interior_average(trace.bodies[-1], "normals", 100000, seed=5)
    assert abs(rep.mean - trace.n_values[-1]) <= 4.0 * rep.std_error
    assert rep.exact == trace.n_values[-1]


# h = 1 + .3 cos 2t and h = 1 + .25 cos 2t + .02 sin 3t: evolutes leave K
EVOLUTE_OUTSIDE = [nc.SmoothBody2(1.0, [0.0, 0.3]),
                   nc.SmoothBody2(1.0, [0.0, 0.25], [0.0, 0.0, 0.02])]


def test_normal_means_on_a_body_containing_its_evolute():
    # Parseval: integral of rho^2 = 2pi a0^2 + pi sum (k^2 - 1)^2 (a_k^2 + b_k^2)
    body = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])
    n, n_surf = nc.normal_means(body)
    assert n_surf == 2.0
    assert n == pytest.approx(90 / 41, abs=1e-12)


def test_normal_means_kink_error_is_within_its_stated_bound(monkeypatch):
    # where the evolute leaves K, (rho - L)_+ has a kink at each root of
    # rho - L; with Gauss-Legendre panels between the roots the means agree
    # with a 16384-angle kink scan, and with the doubled order, to rounding
    for body in EVOLUTE_OUTSIDE:
        n, n_surf = nc.normal_means(body)
        dense_n, dense_surf, _ = oracles.normal_means_dense(body, 16384)
        assert abs(n - dense_n) < 1e-12
        assert abs(n_surf - dense_surf) < 1e-12
        with monkeypatch.context() as m:
            m.setattr(trigcount, "GAUSS_ORDER", 2 * trigcount.GAUSS_ORDER)
            fine_n, fine_surf = nc.normal_means(body)
        assert abs(n - fine_n) < 1e-12
        assert abs(n_surf - fine_surf) < 1e-12


def test_normal_means_sees_kinks_closer_than_any_scan():
    # h = 1 + a cos 2t + .01 cos 3t with a just past the value where the
    # evolute first touches the boundary: rho - L has two pairs of roots,
    # each 1.25e-3 rad apart, within one step of a 1024-angle scan
    body = nc.SmoothBody2(1.0, [0.0, A_TOUCH + 1e-7, 0.01])
    assert not nc.contains_evolute(body)[0]
    n, n_surf = nc.normal_means(body)
    dense_n, dense_surf, kinks = oracles.normal_means_dense(body, 1 << 15)
    assert len(kinks) == 4 and np.all(np.diff(kinks)[::2] < 2e-3)
    assert n_surf > 2.0
    assert abs(n_surf - dense_surf) < 1e-12
    assert abs(n - dense_n) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.7])
def test_normal_means_at_a_triple_root_of_the_curvature_slope(phi):
    # h = 1 - .18 cos 2t + .03 cos 3t, turned by phi: rho' = -1.08 sin 2t
    # + .72 sin 3t has a triple root at t = phi, which np.roots places off
    # the circle; its angle is still a cut
    k = np.arange(1, 4)
    a = np.array([0.0, -0.18, 0.03])
    body = nc.SmoothBody2(1.0, a * np.cos(k * phi), a * np.sin(k * phi))
    n, n_surf = nc.normal_means(body)
    dense_n, dense_surf, kinks = oracles.normal_means_dense(body, 16384)
    assert len(kinks) == 2
    assert abs(n - dense_n) < 1e-12 and abs(n_surf - dense_surf) < 1e-12
    assert n == pytest.approx(2.4767539610560263, abs=1e-12)
    assert n_surf == pytest.approx(2.015623282468261, abs=1e-12)


def test_normal_means_solves_few_normal_chords(monkeypatch):
    # the chord is solved at the cuts, the Newton steps on the kinks and
    # the Gauss nodes between them: far fewer angles than a 1024-angle scan
    angles = []
    real = nc.SmoothBody2.normal_chord

    def counting(body, theta):
        angles.append(np.size(theta))
        return real(body, theta)

    monkeypatch.setattr(nc.SmoothBody2, "normal_chord", counting)
    nc.normal_means(EVOLUTE_OUTSIDE[0])
    assert sum(angles) <= 256


@pytest.mark.parametrize("body", EVOLUTE_OUTSIDE, ids=["cos2=.3", "cos2=.25,sin3=.02"])
def test_closed_form_boundary_mean_matches_monte_carlo(body):
    n_surf = nc.normal_means(body)[1]
    rep = nc.estimate_boundary_average(body, "normals", 200000, seed=1)
    assert n_surf > 2.0
    assert abs(n_surf - rep.mean) <= 4.0 * rep.std_error


@pytest.mark.parametrize("body", EVOLUTE_OUTSIDE, ids=["cos2=.3", "cos2=.25,sin3=.02"])
def test_derivative_residual_is_first_order_in_dt(body):
    # the forward difference errs by n''(0) dt / 2; the quadrature adds none
    # that shows at these steps
    coarse = nc.derivative_report(body, 1e-3)["residual"]
    fine = nc.derivative_report(body, 1e-4)["residual"]
    assert 0.08 * coarse <= fine <= 0.12 * coarse
