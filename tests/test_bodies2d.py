"""Planar body constructors, measures, containment and sampling."""

import hashlib
import math

import numpy as np
import pytest

import normcount as nc
from normcount.bodies2d import INTERIOR_RTOL, require_interior

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
    for method in (B.support, lambda t: B.jet(t)[1], lambda t: B.jet(t)[2], B.rho):
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
    h, h1, h2 = B.jet(ths)
    d1 = (B.support(ths + eps) - B.support(ths - eps)) / (2 * eps)
    assert np.allclose(h1, d1, atol=1e-8)
    eps = 1e-4
    d2 = (B.support(ths + eps) - 2 * B.support(ths) + B.support(ths - eps)) / eps**2
    assert np.allclose(h2, d2, atol=1e-6)
    assert np.allclose(B.rho(ths), h + h2, atol=1e-12)


def test_smooth_convexity_guard():
    with pytest.raises(nc.ConvexityError):
        nc.SmoothBody2(1.0, (0.0, 0.0, 0.4))  # rho dips negative


@pytest.mark.parametrize("a0,cos,sin", [(np.nan, [], []), (1.0, [np.inf], []),
                                         (1.0, [0.0], [np.nan]), (1.0, [], [0.0, -np.inf])])
def test_smooth_rejects_nonfinite_coefficients(a0, cos, sin):
    with pytest.raises(nc.DegenerateBodyError):
        nc.SmoothBody2(a0, cos, sin)


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


def test_samples_are_the_accepted_rows_of_one_philox_draw():
    # candidate j of the stream is the same whatever chunk it is drawn in,
    # so the samples are the first accepted rows of one draw
    from normcount.rng import philox_generator

    for body in (nc.build_reuleaux(5), nc.SmoothBody2(1.0, (0.0, 0.05), (0.02,))):
        lo, hi = nc.bounding_box(body)
        cand = lo + (hi - lo) * philox_generator(9).random((30000, 2))
        inside = cand[nc.contains2_batch(body, cand)]
        for n in (1, 7, 500, 9000, 20000):
            assert np.array_equal(nc.sample_interior2(body, n, seed=9), inside[:n])


def test_sampler_tests_only_the_candidates_it_needs(monkeypatch):
    # a chunk holds 2*(n - have) + 64 candidates, not a full CHUNK of 8192
    import normcount.bodies2d as b2

    tested = []
    side_test = b2.contains2_batch

    def counting(body, cand, tol=0.0):
        tested.append(len(cand))
        return side_test(body, cand, tol)

    monkeypatch.setattr(b2, "contains2_batch", counting)
    pts = nc.sample_interior2(nc.SmoothBody2(1.0, (0.0, 0.05), (0.02,)), 500, seed=42)
    assert len(pts) == 500 and sum(tested) <= 2 * 500 + 64


@pytest.mark.parametrize("n, calls", [(100, 2), (1000, 8), (10000, 64)])
def test_thin_body_sampler_sizes_chunks_by_its_accept_rate(monkeypatch, n, calls):
    # the triangle fills about 2% of its box: after the first chunk each
    # chunk is sized by the accept rate seen so far, not by 2*(n - have) + 64
    import normcount.bodies2d as b2
    from normcount.rng import philox_generator

    tested = []
    side_test = b2.contains2_batch

    def counting(body, cand, tol=0.0):
        tested.append(len(cand))
        return side_test(body, cand, tol)

    thin = nc.build_polygon([(0, 0), (1, 1.02), (1.02, 1)])
    lo, hi = nc.bounding_box(thin)
    cand = lo + (hi - lo) * philox_generator(1).random((520000, 2))
    inside = cand[side_test(thin, cand)]
    monkeypatch.setattr(b2, "contains2_batch", counting)
    pts = nc.sample_interior2(thin, n, seed=1)
    assert np.array_equal(pts, inside[:n])
    assert len(tested) <= calls


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


ARC_BODIES = {"reuleaux3": lambda: nc.build_reuleaux(3), "reuleaux5": lambda: nc.build_reuleaux(5),
              "lens": oracles.lens}


@pytest.mark.parametrize("name", sorted(ARC_BODIES))
def test_arc_excess_outside_is_the_distance(name):
    # the excess runs over the corners' cones too, so beyond a corner it is
    # the distance to the corner, not the support offset of a nearby arc end
    body = ARC_BODIES[name]()
    poly = oracles.boundary_polyline(body, 20000)
    lo, hi = nc.bounding_box(body)
    pts = np.random.default_rng(23).uniform(lo - 0.25, hi + 0.25, (700, 2))
    pts = pts[[not oracles.point_in_convex_polygon(poly, p, tol=0.0) for p in pts]]
    assert len(pts) > 300
    err = nc.signed_boundary_excess(body, pts) - oracles.polyline_distance(poly, pts)
    assert np.max(np.abs(err)) < 1e-8
    for *v, _r, a, b in body.pieces[len(body.arcs):]:
        bisector = v + 0.1 * np.array([math.cos(0.5 * (a + b)), math.sin(0.5 * (a + b))])
        assert abs(nc.signed_boundary_excess(body, bisector)[0] - 0.1) < 1e-12


@pytest.mark.parametrize("name", sorted(ARC_BODIES) + ["offset_reuleaux"])
def test_arc_containment_matches_the_excess(name):
    # containment takes the corners only where the arc excess lies in
    # (0, tol]; the full excess must put every point on the same side
    body = oracles.offset_reuleaux() if name == "offset_reuleaux" else ARC_BODIES[name]()
    lo, hi = nc.bounding_box(body)
    pts = np.random.default_rng(29).uniform(lo - 0.2, hi + 0.2, (20_000, 2))
    excess = nc.signed_boundary_excess(body, pts)
    for tol in (0.0, 1e-9, -1e-9, 0.05, -0.05):
        assert np.array_equal(nc.contains2_batch(body, pts, tol), excess <= tol)


def test_angle_range_tests_match_numpy_remainder():
    # in_angle_range and _on_line take np.fmod plus the period where
    # negative, in place of NumPy's floored %
    from normcount.bodies2d import in_angle_range
    from normcount.normals import _on_line

    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 100.0, -100.0]
    x = np.concatenate([special, np.random.default_rng(31).uniform(-50.0, 50.0, 10_000)])
    for lo, span in ((0.0, 1.0), (-2.5, math.pi), (4.0, 0.0), (1.0, 2 * math.pi)):
        assert np.array_equal(in_angle_range(x, lo, span), (x - lo) % (2 * math.pi) <= span)
        for v in special:
            assert in_angle_range(v, lo, span) == ((v - lo) % (2 * math.pi) <= span)
    near = np.concatenate([x, np.pi * np.arange(-5, 6) + 1e-10, np.pi * np.arange(-5, 6) - 1e-10])
    want = np.abs((near + 0.5 * math.pi) % math.pi - 0.5 * math.pi) < 1e-9
    assert want.sum() >= 22
    assert np.array_equal(_on_line(near), want)
    for v in special:
        assert _on_line(v) == (abs((v + 0.5 * math.pi) % math.pi - 0.5 * math.pi) < 1e-9)


def test_measure2d_pixel_oracle():
    B = nc.SmoothBody2(1.0, (0.0, 0.08), (0.03,))
    area = oracles.pixel_area(
        lambda pts: nc.contains2_batch(B, pts), (-1.4, -1.4), (1.4, 1.4), n=1200
    )
    assert nc.measure2d(B)["area"] == pytest.approx(area, rel=2e-3)


MARGIN_BODIES = {
    "degree2": nc.SmoothBody2(1.0, [0.0, 0.08]),
    "degree3": nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04]),
    "degree7": nc.SmoothBody2(1.0, [0.0, 0.03, 0.0, 0.0, 0.0, 0.0, 0.005],
                              [0.0, 0.0, 0.02, 0.0, 0.006]),
}


@pytest.mark.parametrize("name", sorted(MARGIN_BODIES))
def test_smooth_margin_matches_dense_oracle(name):
    B = MARGIN_BODIES[name]
    lo, hi = nc.bounding_box(B)
    pts = np.random.default_rng(7).uniform(lo - 0.1, hi + 0.1, (20000, 2))
    excess = nc.signed_boundary_excess(B, pts)
    assert np.max(np.abs(excess - oracles.support_margin_dense(B, pts))) <= 1e-12 * B.scale
    assert np.array_equal(nc.contains2_batch(B, pts), excess <= 0.0)


@pytest.mark.parametrize("name", sorted(MARGIN_BODIES))
def test_smooth_margin_next_to_the_boundary_is_exact(name):
    # p = r(theta) -/+ eps*u(theta) lies eps inside/outside, far closer to the
    # boundary than any grid bound up to MAX_GRID, so every point is decided
    # by the polished and certified maximum
    B = MARGIN_BODIES[name]
    eps = 1e-9 * B.scale
    theta = np.random.default_rng(8).uniform(0.0, 2 * math.pi, 2000)
    r, u = B.boundary(theta), np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for side in (-1.0, 1.0):
        pts = r + side * eps * u
        excess = nc.signed_boundary_excess(B, pts)
        assert np.max(np.abs(excess - side * eps)) <= 1e-13 * B.scale
        assert np.all(nc.contains2_batch(B, pts) == (side < 0))
        assert np.all(nc.contains2_batch(B, pts, tol=side * 2 * eps) == (side > 0))


@pytest.mark.parametrize("name", ["degree3", "degree7"])
def test_excess_at_centres_of_curvature_matches_brute_force(name):
    # the normal counter flags every centre of curvature, the cusps at the
    # rho_turns angles among them; the excess there still takes the feet the
    # kernel settles and the angles it leaves in doubt.  The brute-force
    # maximum over 2^20 angles is itself within about 1e-11
    B = MARGIN_BODIES[name]
    theta = np.concatenate([B.rho_turns()[0],
                            np.random.default_rng(9).uniform(0.0, 2 * math.pi, 256)])
    centres = B.curvature_center(theta)
    excess = nc.signed_boundary_excess(B, centres)
    assert np.all(np.isfinite(excess))
    grid = np.arange(2**20) * (2 * math.pi / 2**20)
    h = np.concatenate([B.support(part) for part in np.split(grid, 64)])
    cos, sin = np.cos(grid), np.sin(grid)
    brute = np.array([np.max(x * cos + y * sin - h) for x, y in centres])
    assert np.max(np.abs(excess - brute)) < 2e-11 * B.scale


GENERIC = ((0.0, 0.08), (0.0, 0.0, 0.04))
TABLE_BODIES = {
    "generic": GENERIC,
    "cos2=.3": ((0.0, 0.3), ()),
    "deg8": ((0.0, 0.01, 0.004, 0.0, 0.0, 0.0, 0.0, 0.0008),
             (0.0, 0.0, 0.005, 0.002, 0.0, 0.0, 0.001)),
}


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4])
@pytest.mark.parametrize("name", sorted(TABLE_BODIES))
def test_two_sided_table_matches_the_excess(name, scale):
    # the 16-gon table decides most points and the certified margin the
    # rest; together they must put every point on the excess's side of tol.
    # Past a vertex r(theta_j) of the inscribed 16-gon along u_j the excess
    # is the distance, while the 16-gon's edges pushed out by a positive tol
    # reach farther than tol there
    cos, sin = TABLE_BODIES[name]
    B = nc.SmoothBody2(scale, np.multiply(scale, cos), np.multiply(scale, sin))
    lo, hi = nc.bounding_box(B)
    box = lo + (hi - lo) * np.random.default_rng(5).random((4000, 2))
    theta = np.concatenate([np.random.default_rng(6).uniform(0.0, 2 * math.pi, 500),
                            np.arange(16) * (2 * math.pi / 16)])
    r, u = B.boundary(theta), np.stack([np.cos(theta), np.sin(theta)], axis=1)
    out = [r + d * B.scale * u for d in (1e-6, 1e-9, 1e-11, -1e-6, -1e-9, -1e-11, 0.0099, 0.0101)]
    pts = np.concatenate([box, *out])
    excess = nc.signed_boundary_excess(B, pts)
    for tol in (0.0, -INTERIOR_RTOL * B.scale, 0.01 * B.scale):
        assert np.array_equal(nc.contains2_batch(B, pts, tol), excess <= tol)


def test_two_sided_table_leaves_few_points_to_the_margin(monkeypatch):
    import normcount.bodies2d as b2

    seen = []
    excess = b2._smooth_excess

    def counting(body, pts):
        seen.append(len(pts))
        return excess(body, pts)

    B = nc.SmoothBody2(1.0, *GENERIC)
    lo, hi = nc.bounding_box(B)
    box = lo + (hi - lo) * np.random.default_rng(3).random((20000, 2))
    monkeypatch.setattr(b2, "_smooth_excess", counting)
    nc.contains2_batch(B, box)
    assert 0 < sum(seen) < 0.05 * len(box)


def test_nonfinite_points_are_never_inside():
    B = nc.SmoothBody2(1.0, *GENERIC)
    bad = [math.nan, math.inf, -math.inf]
    pts = np.array([(x, y) for x in bad + [0.1] for y in bad + [0.1]])[:-1]
    with np.errstate(invalid="ignore"):
        for tol in (0.0, -INTERIOR_RTOL, 1.0):
            assert not nc.contains2_batch(B, pts, tol).any()
    with pytest.raises(nc.DomainError):
        require_interior(B, (math.nan, 0.0))


def test_sample_interior_2000_is_pinned():
    # sha256 as drawn before the two-sided table: it must accept exactly the
    # candidates that the excess read off the normal feet accepts
    pts = nc.sample_interior2(nc.SmoothBody2(1.0, *GENERIC), 2000, seed=3)
    assert (hashlib.sha256(pts.tobytes()).hexdigest()
            == "2715fd46eb3da6e7849b0e5d8209bc488fcc14233a6377002c71f586b128eb91")


def test_smooth_containment_runs_in_bounded_memory():
    # the 16-gon side test runs in row blocks, so 500k box points never build
    # their full (32, points) line table (137.5 MiB above the output before)
    import tracemalloc

    B = nc.SmoothBody2(1.0, *GENERIC)
    lo, hi = nc.bounding_box(B)
    pts = np.random.default_rng(12).uniform(lo, hi, (500000, 2))
    tracemalloc.start()
    try:
        inside = nc.contains2_batch(B, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - inside.nbytes < 16 * 2**20
    # the blocks decide as the certified margin does
    assert np.array_equal(inside[::100], nc.signed_boundary_excess(B, pts[::100]) <= 0.0)


def test_jet_and_curvature_center_shapes_follow_input():
    B = nc.SmoothBody2(1.0, (0.0, 0.05), (0.0, 0.0, 0.02))
    for theta, shape in ((0.3, ()), (np.array([0.3]), (1,)), (np.zeros(0), (0,)),
                         (np.full((2, 3), 0.3), (2, 3))):
        for part in B.jet(theta):
            assert np.shape(part) == shape
        assert B.curvature_center(theta).shape == shape + (2,)
    c = B.curvature_center(0.3)
    u = np.array([math.cos(0.3), math.sin(0.3)])
    assert np.allclose(c, B.boundary(0.3) - B.rho(0.3) * u, atol=1e-15)
    assert np.array_equal(B.curvature_center(np.array([0.3]))[0], c)


def test_sample_interior_is_pinned():
    # sha256 of the samples as first drawn with the 2048-angle containment
    # scan; the excess read off the normal feet must accept exactly the same
    # candidates
    B = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])
    pts = nc.sample_interior2(B, 20000, seed=1)
    assert (hashlib.sha256(pts.tobytes()).hexdigest()
            == "2f249b53f121b882a8584e3e249cb45ecddf5e971c2e7f7344734f2c54f1cb44")
