"""Normal counting through interior points, in the plane and in space."""

import math

import numpy as np
import pytest

import normcount as nc

import oracles


def _interior_points(body, n, seed):
    return nc.sample_interior2(body, n, seed)


# ---------------------------------------------------------------------------
# polygons


def test_square_counts_eight_everywhere():
    P = nc.build_polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    pts = _interior_points(P, 200, seed=0)
    total, stable, flags = nc.count_normals2_batch(P, pts)
    assert not flags.any()
    assert np.all(total == 8)
    assert np.all(stable == 4)


def test_regular_polygon_center_counts_two_per_side():
    for k in (3, 5, 6, 9):
        ths = 2 * math.pi * np.arange(k) / k
        P = nc.build_polygon(np.column_stack([np.cos(ths), np.sin(ths)]))
        # exact center is equidistant from all vertices; nudge off the tie
        p = np.array([1e-3, 2e-3])
        feet = nc.normal_feet2(P, p)
        assert len(feet) == 2 * k
        assert sum(f.index == 0 for f in feet) == k


def test_polygon_feet_are_perpendicular_and_on_boundary():
    rng = np.random.default_rng(12)
    P = oracles.random_convex_polygon(rng, 8)
    V = P.vertices
    for p in _interior_points(P, 20, seed=3):
        for f in nc.normal_feet2(P, p):
            kind, i = f.source
            if kind == "edge":
                e = V[(i + 1) % len(V)] - V[i]
                assert abs((p - f.foot) @ e) < 1e-9
            else:
                assert np.allclose(f.foot, V[i])
            assert nc.interior_margin(P, f.foot) == pytest.approx(0.0, abs=1e-9)


def test_polygon_counts_match_dense_boundary_oracle():
    rng = np.random.default_rng(5)
    P = oracles.random_convex_polygon(rng, 7)
    pts = _interior_points(P, 60, seed=8)
    total, stable, flags = nc.count_normals2_batch(P, pts)
    for p, t, s, fl in zip(pts, total, stable, flags):
        if fl:
            continue
        assert t == oracles.critical_count_2d(P, p)
        assert s == oracles.stable_critical_count_2d(P, p)


def test_polygon_counts_equal_wedge_membership():
    rng = np.random.default_rng(21)
    P = oracles.random_convex_polygon(rng, 9)
    wedges = nc.all_wedges(P)
    pts = _interior_points(P, 1000, seed=4)
    total, _, flags = nc.count_normals2_batch(P, pts)
    for p, t, fl in zip(pts, total, flags):
        if fl:
            continue
        member = sum(
            oracles.point_in_convex_polygon(w.region, p) for w in wedges
        )
        assert t == member


def test_stable_equals_unstable_on_polygons():
    rng = np.random.default_rng(33)
    for _ in range(5):
        P = oracles.random_convex_polygon(rng, int(rng.integers(4, 12)))
        pts = _interior_points(P, 300, seed=int(rng.integers(1 << 30)))
        total, stable, flags = nc.count_normals2_batch(P, pts)
        ok = ~flags
        assert np.all(total[ok] - stable[ok] == stable[ok])


def test_batch_matches_scalar_polygon():
    rng = np.random.default_rng(2)
    P = oracles.random_convex_polygon(rng, 6)
    pts = _interior_points(P, 40, seed=7)
    total, stable, flags = nc.count_normals2_batch(P, pts)
    for p, t, s, fl in zip(pts, total, stable, flags):
        if fl:
            continue
        assert nc.count_normals2(P, p) == t
        assert nc.stable_count(P, p) == s


# ---------------------------------------------------------------------------
# smooth bodies


def test_disk_counts_two_off_center():
    D = nc.disk(1.0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.6, 0.6, (100, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05]
    total, stable, flags = nc.count_normals2_batch(D, pts)
    assert not flags.any()
    assert np.all(total == 2)
    assert np.all(stable == 1)


def test_disk_center_is_degenerate():
    with pytest.raises(nc.DegenerateConfigurationError):
        nc.normal_feet2(nc.disk(1.0), (0.0, 0.0))
    total, _, flags = nc.count_normals2_batch(nc.disk(1.0), [[0.0, 0.0]])
    assert flags[0] and total[0] == nc.DEGENERATE


def test_smooth_feet_satisfy_normal_equation():
    B = nc.SmoothBody2(1.0, (0.0, 0.05), (0.0, 0.0, 0.03))
    for p in nc.sample_interior2(B, 15, seed=6):
        feet = nc.normal_feet2(B, p)
        assert len(feet) % 2 == 0
        for f in feet:
            _, theta = f.source
            u = np.array([math.cos(theta), math.sin(theta)])
            tangent = np.array([-u[1], u[0]])
            assert abs((p - f.foot) @ tangent) < 1e-7 * max(1, abs(f.chord_length))


def test_smooth_counts_match_dense_boundary_oracle():
    B = nc.SmoothBody2(1.0, (0.0, 0.06), (0.02,))
    pts = nc.sample_interior2(B, 60, seed=10)
    total, stable, flags = nc.count_normals2_batch(B, pts)
    for p, t, s, fl in zip(pts, total, stable, flags):
        if fl:
            continue
        assert t == oracles.critical_count_2d(B, p)
        assert s == oracles.stable_critical_count_2d(B, p)


def test_counts_outside_evolute_are_two():
    B = nc.SmoothBody2(1.0, (0.0, 0.02))  # evolute near the center
    inside, _ = nc.contains_evolute(B)
    assert inside
    # points near the boundary are outside the evolute: exactly 2 normals
    ths = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    pts = 0.97 * B.boundary(ths)
    total, _, flags = nc.count_normals2_batch(B, pts)
    assert np.all(total[~flags] == 2)


# ---------------------------------------------------------------------------
# arc bodies


def test_full_circle_arc_matches_disk():
    C = nc.ArcBody2([nc.Arc(np.zeros(2), 1.0, 0.0, 2 * math.pi)])
    D = nc.disk(1.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, (50, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.05]
    ca, sa, fa = nc.count_normals2_batch(C, pts)
    cd, sd, fd = nc.count_normals2_batch(D, pts)
    assert np.array_equal(ca[~fa], cd[~fa])
    assert np.array_equal(sa[~fa], sd[~fa])
    with pytest.raises(nc.DegenerateConfigurationError):
        nc.normal_feet2(C, (0.0, 0.0))


def test_reuleaux_counts_match_dense_boundary_oracle():
    R = nc.build_reuleaux(3)
    pts = nc.sample_interior2(R, 50, seed=14)
    total, stable, flags = nc.count_normals2_batch(R, pts)
    for p, t, s, fl in zip(pts, total, stable, flags):
        if fl:
            continue
        assert t == oracles.critical_count_2d(R, p)
        assert s == oracles.stable_critical_count_2d(R, p)
        assert nc.count_normals2(R, p) == t


# ---------------------------------------------------------------------------
# domain errors


@pytest.mark.parametrize("maker,outside", [
    (lambda: nc.build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)]), (2.0, 2.0)),
    (lambda: nc.disk(1.0), (1.5, 0.0)),
    (lambda: nc.build_reuleaux(3), (5.0, 5.0)),
])
def test_exterior_and_boundary_points_rejected(maker, outside):
    body = maker()
    with pytest.raises(nc.DomainError):
        nc.normal_feet2(body, outside)
    # a boundary point: support point in direction 0
    theta = 0.0
    h = body.support(theta)
    with pytest.raises(nc.DomainError):
        nc.normal_feet2(body, (h, 0.0))


# ---------------------------------------------------------------------------
# polytopes


def test_polytope_counts_at_centers():
    cases = {
        "cube": {2: 6, 1: 12, 0: 8},
        "octahedron": {2: 8, 1: 12, 0: 6},
        "tetrahedron": {2: 4, 1: 6, 0: 4},
    }
    rng = np.random.default_rng(0)
    for name, expected in cases.items():
        P = nc.standard_polytope(name)
        p = P.vertices.mean(axis=0) + rng.uniform(-1e-3, 1e-3, 3)
        assert nc.count_normals3_by_dim(P, p) == expected, name
        assert nc.count_normals3(P, p) == sum(expected.values())


def test_box_like_solids_are_constant():
    # simple solids whose normal count does not depend on the point
    for name, value in (("cube", 26), ("tetrahedron", 14)):
        P = nc.standard_polytope(name)
        pts = nc.sample_interior3(P, 200, seed=5)
        total, _, flags = nc.count_normals3_batch(P, pts)
        assert not flags.any()
        assert np.all(total == value), name


def test_euler_relation_pointwise_3d():
    for name in ("cube", "octahedron", "truncated_octahedron",
                 "rhombic_dodecahedron", "elongated_dodecahedron"):
        P = nc.standard_polytope(name)
        for p in nc.sample_interior3(P, 40, seed=17):
            bd = nc.count_normals3_by_dim(P, p)
            assert bd[2] - bd[1] + bd[0] == 2, (name, p)


def test_batch_matches_scalar_3d():
    P = nc.standard_polytope("truncated_octahedron")
    pts = nc.sample_interior3(P, 50, seed=23)
    total, by_index, flags = nc.count_normals3_batch(P, pts)
    peak, saddle, stable = by_index[2], by_index[1], by_index[0]
    for i, p in enumerate(pts):
        if flags[i]:
            continue
        bd = nc.count_normals3_by_dim(P, p)
        assert nc.count_normals3(P, p) == total[i]
        assert (bd[2], bd[1], bd[0]) == (stable[i], saddle[i], peak[i])


def test_surface_morse_oracle_agrees():
    for name in ("cube", "octahedron", "truncated_octahedron",
                 "tetrahedron", "hexagonal_prism"):
        P = nc.standard_polytope(name)
        for p in oracles.deep_interior_points3(P, 3, seed=11, res=34):
            mi, sa, ma = oracles.surface_critical_counts_converged(P, p)
            bd = nc.count_normals3_by_dim(P, p)
            assert (mi, sa, ma) == (bd[2], bd[1], bd[0]), (name, p)


def test_exterior_point_rejected_3d():
    P = nc.standard_polytope("cube")
    with pytest.raises(nc.DomainError):
        nc.count_normals3(P, (2.0, 0.0, 0.0))
    with pytest.raises(nc.DomainError):
        nc.count_normals3(P, (0.5, 0.0, 0.0))  # on a facet


def test_scaled_polytope_edge_test_matches_batch():
    # the edge-slab allowance must scale like the solid, not its square: at
    # scale 2e3 a point 1e-7 * scale outside an edge's normal slab is not a
    # foot of that edge
    P0 = nc.standard_polytope("truncated_octahedron")
    P = nc.build_polytope(P0.vertices * 1e3, P0.facets)
    (a_i, b_i), (f1, f2) = P.edges[2], P.edge_facets[2]
    a, b = P.vertices[a_i], P.vertices[b_i]
    d = (b - a) / np.linalg.norm(b - a)
    n1, n2 = -P.facet_normals[f1], -P.facet_normals[f2]
    out = np.cross(d, n1)
    out = out if out @ n2 < 0 else -out
    p = 0.5 * (a + b) + np.linalg.norm(b - a) * n1 + 1e-7 * P.scale * out
    total, (stable, saddle, peak), flags = nc.count_normals3_batch(P, [p])
    bd = nc.count_normals3_by_dim(P, p)
    assert not flags[0]
    assert (bd[2], bd[1], bd[0]) == (stable[0], saddle[0], peak[0]) == (6, 10, 6)
    assert bd[2] - bd[1] + bd[0] == 2
