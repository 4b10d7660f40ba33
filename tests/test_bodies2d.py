"""Planar body constructors, measures, containment and sampling."""

import math

import numpy as np
import pytest

import normcount as nc

import oracles


UNIT_SQUARE = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]


# ---------------------------------------------------------------------------
# polygons


def test_polygon_measures():
    P = nc.build_polygon(UNIT_SQUARE)
    assert P.area() == pytest.approx(1.0, abs=1e-15)
    assert P.perimeter() == pytest.approx(4.0, abs=1e-15)
    assert np.allclose(P.centroid(), [0.0, 0.0], atol=1e-15)


def test_build_polygon_hulls_and_orients():
    # clockwise input, an interior point and a duplicate all wash out
    pts = [(0, 0), (0, 1), (1, 1), (1, 0), (0.5, 0.5), (0, 0)]
    P = nc.build_polygon(pts)
    assert len(P.vertices) == 4
    assert P.area() == pytest.approx(1.0)
    v = P.vertices
    e1 = np.roll(v, -1, axis=0) - v
    e2 = np.roll(v, -2, axis=0) - v
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert np.all(cross > 0)  # CCW and strictly convex


def test_polygon_rejects_bad_input():
    with pytest.raises(nc.DegenerateBodyError):
        nc.build_polygon([(0, 0), (1, 0)])
    with pytest.raises(nc.DegenerateBodyError):
        nc.build_polygon([(0, 0), (1, 1), (2, 2)])  # collinear
    with pytest.raises(nc.ConvexityError):
        nc.Polygon2(np.array([(0, 0), (1, 0), (0.5, 0.5), (1, 1), (0, 1)], float))


def test_polygon_support_is_max_vertex_dot():
    rng = np.random.default_rng(3)
    P = oracles.random_convex_polygon(rng, 9)
    for t in rng.uniform(0, 2 * math.pi, 16):
        u = np.array([math.cos(t), math.sin(t)])
        assert P.support(t) == pytest.approx(np.max(P.vertices @ u), abs=1e-12)


def test_minkowski_sum_and_reflection():
    P = nc.build_polygon(UNIT_SQUARE)
    S = nc.minkowski_sum_polygons(P, P)
    assert S.area() == pytest.approx(4.0, abs=1e-12)
    R = nc.reflect_polygon(P)
    assert R.area() == pytest.approx(P.area(), abs=1e-15)
    assert set(map(tuple, np.round(R.vertices, 12))) == set(
        map(tuple, np.round(-P.vertices, 12))
    )


def test_difference_body_polygon():
    rng = np.random.default_rng(7)
    P = oracles.random_convex_polygon(rng, 7)
    D = nc.difference_body(P)
    # K - K is centrally symmetric and its support is the width of K
    for t in rng.uniform(0, 2 * math.pi, 12):
        assert D.support(t) == pytest.approx(nc.width_function(P, t), abs=1e-12)
    assert nc.difference_body_area(P) == pytest.approx(D.area(), abs=1e-12)


# ---------------------------------------------------------------------------
# smooth bodies


def test_disk_measures_and_boundary():
    D = nc.disk(2.0)
    assert D.area() == pytest.approx(4 * math.pi, abs=1e-12)
    assert D.perimeter() == pytest.approx(4 * math.pi, abs=1e-12)
    ths = np.linspace(0, 2 * math.pi, 33)
    pts = D.boundary(ths)
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 2.0, atol=1e-12)
    assert np.allclose(D.rho(ths), 2.0, atol=1e-12)


def test_smooth_boundary_shape_follows_input():
    B = nc.SmoothBody2(1.0, (0.0, 0.05))
    p = B.boundary(0.7)
    assert p.shape == (2,)
    q = B.boundary(np.array([0.7]))
    assert q.shape == (1, 2)
    assert np.allclose(q[0], p)


def test_smooth_series_shape_follows_input():
    B = nc.SmoothBody2(1.0, (0.0, 0.05), (0.0, 0.0, 0.02))
    for method in (B.support, B.support_d1, B.support_d2, B.rho):
        assert method(np.zeros(0)).shape == (0,)
        one = method(np.array([0.7]))
        assert one.shape == (1,)
        scalar = method(0.7)
        assert type(scalar) is float
        assert one[0] == scalar
        assert method(np.full((2, 3), 0.7)).shape == (2, 3)


def test_smooth_support_derivatives_match_finite_differences():
    B = nc.SmoothBody2(1.0, (0.02, 0.0, 0.03), (0.01,))
    ths = np.linspace(0, 2 * math.pi, 11)
    eps = 1e-5
    d1 = (B.support(ths + eps) - B.support(ths - eps)) / (2 * eps)
    assert np.allclose(B.support_d1(ths), d1, atol=1e-8)
    eps = 1e-4
    d2 = (B.support(ths + eps) - 2 * B.support(ths) + B.support(ths - eps)) / eps**2
    assert np.allclose(B.support_d2(ths), d2, atol=1e-6)
    assert np.allclose(B.rho(ths), B.support(ths) + B.support_d2(ths), atol=1e-12)


def test_smooth_convexity_guard():
    with pytest.raises(nc.ConvexityError):
        nc.SmoothBody2(1.0, (0.0, 0.0, 0.4))  # rho dips negative


def test_fit_support_body_recovers_coefficients():
    B = nc.SmoothBody2(1.0, (0.0, 0.04), (0.0, 0.0, 0.02))
    ths = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    fitted = nc.fit_support_body(np.column_stack([ths, B.support(ths)]), degree=6)
    assert fitted.a0 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(fitted.support(ths), B.support(ths), atol=1e-12)


# ---------------------------------------------------------------------------
# arc bodies


def test_full_circle_arc_body_is_a_disk():
    C = nc.ArcBody2([nc.Arc(np.zeros(2), 1.0, 0.0, 2 * math.pi)])
    assert C.area() == pytest.approx(math.pi, abs=1e-12)
    assert C.perimeter() == pytest.approx(2 * math.pi, abs=1e-12)
    for t in np.linspace(0, 2 * math.pi, 17):
        assert C.support(t) == pytest.approx(1.0, abs=1e-12)


def test_reuleaux_triangle_geometry():
    R = nc.build_reuleaux(3, width=1.0)
    assert R.area() == pytest.approx((math.pi - math.sqrt(3)) / 2, abs=1e-12)
    assert R.perimeter() == pytest.approx(math.pi, abs=1e-12)
    for t in np.linspace(0, math.pi, 19):
        assert nc.width_function(R, t) == pytest.approx(1.0, abs=1e-12)


def test_reuleaux_needs_odd_sides():
    with pytest.raises(nc.DegenerateBodyError):
        nc.build_reuleaux(4)


def test_reuleaux_difference_body_is_a_disk():
    R = nc.build_reuleaux(5, width=1.0)
    D = nc.difference_body(R)
    for t in np.linspace(0, 2 * math.pi, 17):
        assert D.support(t) == pytest.approx(1.0, abs=1e-9)
    assert nc.difference_body_area(R) == pytest.approx(math.pi, rel=1e-6)


# ---------------------------------------------------------------------------
# containment and sampling


@pytest.mark.parametrize("maker", [
    lambda: nc.build_polygon(UNIT_SQUARE),
    lambda: nc.SmoothBody2(0.5, (0.0, 0.05)),
    lambda: nc.build_reuleaux(3),
])
def test_contains_and_margin(maker):
    body = maker()
    pts = nc.sample_interior2(body, 4, seed=1)
    for c in pts:
        assert nc.contains2(body, c)
        assert nc.interior_margin(body, c) > 0
    far = pts[0] + np.array([100.0, 0.0])
    assert not nc.contains2(body, far)
    assert nc.interior_margin(body, far) < 0


def test_sample_interior_inside_and_deterministic():
    B = nc.SmoothBody2(1.0, (0.0, 0.05), (0.02,))
    pts = nc.sample_interior2(B, 500, seed=42)
    assert len(pts) == 500
    assert nc.contains2_batch(B, pts).all()
    again = nc.sample_interior2(B, 500, seed=42)
    assert np.array_equal(pts, again)


def test_sample_boundary_lies_on_boundary():
    B = nc.SmoothBody2(1.0, (0.03,), (0.0, 0.02))
    pts, _ = nc.sample_boundary2(B, 400, seed=5)
    excess = nc.signed_boundary_excess(B, pts)
    assert np.max(np.abs(excess)) < 1e-9


def test_signed_excess_sign_convention():
    B = nc.disk(1.0)
    ex = nc.signed_boundary_excess(B, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert ex[0] == pytest.approx(-1.0, abs=1e-9)  # depth 1 inside
    assert ex[1] == pytest.approx(1.0, abs=1e-6)   # distance 1 outside


def test_measure2d_pixel_oracle():
    B = nc.SmoothBody2(1.0, (0.0, 0.08), (0.03,))
    area = oracles.pixel_area(
        lambda pts: nc.contains2_batch(B, pts), (-1.4, -1.4), (1.4, 1.4), n=1200
    )
    assert nc.measure2d(B)["area"] == pytest.approx(area, rel=2e-3)
