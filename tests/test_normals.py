"""Normal counting through interior points, in the plane and in space."""

import math
import os
import subprocess
import sys

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


GENERIC = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_scalar_counts_near_the_evolute_match_batch(side):
    # 1e-3 from the evolute the old scalar grid found an odd count (5)
    theta0 = 1.1
    p = GENERIC.curvature_center(theta0) + side * 1e-3 * np.array(
        [math.cos(theta0), math.sin(theta0)])
    total, stable, flags = nc.count_normals2_batch(GENERIC, [p])
    assert not flags[0]
    assert nc.count_normals2(GENERIC, p) == total[0] == oracles.critical_count_2d(GENERIC, p) == 4
    assert nc.stable_count(GENERIC, p) == stable[0] == 2


def test_flagged_points_raise_in_scalar_apis():
    c = GENERIC.curvature_center(0.3)
    assert nc.count_normals2_batch(GENERIC, [c])[2][0]
    with pytest.raises(nc.DegenerateConfigurationError):
        nc.normal_feet2(GENERIC, c)
    with pytest.raises(nc.DegenerateConfigurationError):
        nc.refine_mink_roots(nc.NormBall2(nc.disk(1.0)), GENERIC, c)
    # on the normal line of the edge (4, 0)-(3, 1) through (3, 1)
    P = nc.build_polygon([(0, 0), (4, 0), (3, 1)])
    p = np.array([2.5, 0.5])
    assert nc.count_normals2_batch(P, [p])[2][0]
    with pytest.raises(nc.DegenerateConfigurationError):
        nc.normal_feet2(P, p)


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
    # a lens has two corners; the offset Reuleaux triangle is C^1, no corners
    for R in (nc.build_reuleaux(3), oracles.lens(), oracles.offset_reuleaux()):
        pts = nc.sample_interior2(R, 50, seed=14)
        total, stable, flags = nc.count_normals2_batch(R, pts)
        for p, t, s, fl in zip(pts, total, stable, flags):
            if fl:
                continue
            assert t == oracles.critical_count_2d(R, p)
            assert s == oracles.stable_critical_count_2d(R, p)
            assert nc.count_normals2(R, p) == t


@pytest.mark.parametrize("sides", [3, 5])
def test_reuleaux_feet_lie_on_their_arcs_and_corners(sides):
    R = nc.build_reuleaux(sides, 1.0)
    pts = nc.sample_interior2(R, 300, seed=21)
    total, stable, flags = nc.count_normals2_batch(R, pts)
    # far arc feet never occur here: every arc's centre is the opposite
    # corner, whose cone carries that normal instead
    kinds = {"near": 0, "far": 0, "corner": 0}
    for p, t, s in zip(pts[~flags], total[~flags], stable[~flags]):
        feet = nc.normal_feet2(R, p)
        assert len(feet) == t and sum(f.index == 0 for f in feet) == s
        for f in feet:
            kind, i = f.source
            assert type(i) is int
            if kind == "corner":
                v = R.corner_points[i]
                assert np.array_equal(f.foot, v)
                # the outer normal v - p lies in the corner's normal cone
                ang = math.atan2(v[1] - p[1], v[0] - p[0])
                lo, hi = R.pieces[R.sources.index(f.source), 3:]
                assert (ang - lo) % (2 * math.pi) <= hi - lo + 1e-12
                assert f.index == 1
                kinds["corner"] += 1
                continue
            assert kind == "arc"
            a = R.arcs[i]
            c = np.asarray(a.center)
            q = f.foot - c
            assert abs(math.hypot(*q) - a.radius) <= 1e-14 * R.scale
            gamma = math.atan2(q[1], q[0])
            assert (gamma - a.ang0) % (2 * math.pi) <= a.span + 1e-12
            # on the line through p and the centre; the near foot is on p's side
            w = p - c
            assert abs(q[0] * w[1] - q[1] * w[0]) <= 1e-14 * R.scale**2
            near = float(q @ w) > 0.0
            assert (f.index == 0) == near
            kinds["near" if near else "far"] += 1
    assert kinds["near"] > 0 and kinds["corner"] > 0 and kinds["far"] == 0, kinds


# ---------------------------------------------------------------------------
# domain errors


@pytest.mark.parametrize("body,width", [
    (nc.SmoothBody2(1.0, [0.0, 0.0, 0.05], [0.0, 0.0, 0.0, 0.0, 0.01]), 2.0),
    (nc.build_reuleaux(3, 1.0), 1.0),
    (nc.build_reuleaux(5, 2.0), 2.0),
], ids=["smooth-odd-harmonics", "reuleaux3", "reuleaux5"])
def test_normal_chords_of_constant_width_bodies_have_the_width(body, width):
    # every normal of a body of constant width w is a double normal of length w
    pts = nc.sample_interior2(body, 200, seed=3)
    flagged = nc.count_normals2_batch(body, pts)[2]
    assert flagged.sum() < 5
    chords = [f.chord_length for p in pts[~flagged] for f in nc.normal_feet2(body, p)]
    assert len(chords) >= 2 * len(pts[~flagged])
    assert np.max(np.abs(np.array(chords) - width)) <= 1e-13 * width


ARC_CHORD_BODIES = {"reuleaux3": lambda: nc.build_reuleaux(3, 1.0),
                    "reuleaux5": lambda: nc.build_reuleaux(5), "lens": oracles.lens,
                    "offset_reuleaux": oracles.offset_reuleaux}


@pytest.mark.parametrize("name", sorted(ARC_CHORD_BODIES))
def test_arc_chords_at_panel_cuts_match_the_bisection_oracle(name):
    # an arc's normal chord changes its exit piece where the line through
    # the arc's centre passes a corner point; there, and one double to
    # either side, the exit can sit on a junction of two arcs, outside both
    # normal ranges by rounding
    body = ARC_CHORD_BODIES[name]()
    starts, dirs = [], []
    for cx, cy, r, lo, hi in body.pieces[body.pieces[:, 2] > 0.0]:
        rel = body.corner_points - (cx, cy)
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        cuts = lo + np.mod(np.concatenate([ang, ang + math.pi]) - lo, 2 * math.pi)
        cuts = np.unique(np.concatenate([[lo, hi], cuts[cuts <= hi]]))
        gamma = np.concatenate([np.nextafter(cuts, -np.inf), cuts, np.nextafter(cuts, np.inf)])
        u = np.column_stack([np.cos(gamma), np.sin(gamma)])
        starts.append((cx, cy) + r * u)
        dirs.append(-u)
    starts, dirs = np.vstack(starts), np.vstack(dirs)
    chord, e = body.chord(starts, dirs)
    assert np.all(chord > 0.0)
    want = oracles.chord_bisection(body, starts, dirs, np.full(len(chord), 2.0 * body.scale))
    assert np.max(np.abs(chord - want)) <= 1e-12 * body.scale
    # the exit is the body's support point in the direction e
    exits = starts + chord[:, None] * dirs
    assert np.max(np.abs(body.support(e) - np.sum(exits * np.column_stack(
        [np.cos(e), np.sin(e)]), axis=1))) <= 1e-12 * body.scale


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
    # the vertex feet against a nonnegative least-squares test on the facet
    # normals, independent of the counter's polar test on edge parameters
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
        assert peak[i] == oracles.vertex_feet_nnls(P, p)


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


SQUARE = nc.build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.mark.parametrize("query", [
    lambda p: nc.normal_feet2(SQUARE, p),
    lambda p: nc.normal_feet2(nc.build_reuleaux(3), p),
    lambda p: nc.normal_feet2(GENERIC, p),
    lambda p: nc.count_diameters_polygon(SQUARE, p),
    lambda p: nc.count_minkowski_normals(nc.NormBall2(nc.disk(1.0)), GENERIC, p),
    lambda p: nc.count_normals3_by_dim(nc.standard_polytope("cube"), (*p, 0.0)),
], ids=["feet-polygon", "feet-reuleaux", "feet-smooth", "diameters-polygon",
        "minkowski-disk", "by-dim-cube"])
def test_nan_point_is_never_interior(query):
    with pytest.raises(nc.DomainError):
        query((math.nan, 0.5))


@pytest.mark.parametrize("query, body, point", [
    (nc.normal_feet2, "cube", (0.1, 0.2)),
    (nc.count_normals2, "cube", (0.1, 0.2)),
    (nc.stable_count, "cube", (0.1, 0.2)),
    (nc.count_normals3_by_dim, "smooth", (0.1, 0.2, 0.0)),
    (nc.count_normals3, "smooth", (0.1, 0.2, 0.0)),
    (nc.count_normals3_batch, "smooth", [(0.1, 0.2, 0.0)]),
], ids=["normal_feet2", "count_normals2", "stable_count", "count_normals3_by_dim",
        "count_normals3", "count_normals3_batch"])
def test_wrong_dimension_calls_are_unsupported(query, body, point):
    # the body's type is checked before any containment test
    solid = nc.standard_polytope("cube") if body == "cube" else GENERIC
    with pytest.raises(nc.UnsupportedCombinationError):
        query(solid, point)


def test_point_just_inside_a_facet_is_not_interior_3d():
    # 2D and 3D queries share one strict-interior tolerance, 1e-9 * scale
    P = nc.standard_polytope("cube")
    with pytest.raises(nc.DomainError):
        nc.count_normals3_by_dim(P, (0.5 - 1e-10 * P.scale, 0.1, 0.0))


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


# ---------------------------------------------------------------------------
# one tolerance unit: counts do not depend on the body's units


TRUNC_OCT = nc.standard_polytope("truncated_octahedron")
_ANG = np.sort(np.random.default_rng(11).uniform(0.0, 2 * math.pi, 11))
ELEVEN_GON = nc.Polygon2(np.column_stack([np.cos(_ANG), np.sin(_ANG)]))
SCALES = [1e-6, 1e-4, 1e4]


@pytest.mark.parametrize("scale", SCALES)
def test_polytope_counts_do_not_depend_on_units(scale):
    P = nc.build_polytope(TRUNC_OCT.vertices * scale, TRUNC_OCT.facets)
    pts = nc.sample_interior3(TRUNC_OCT, 20000, seed=29)
    total, parts, flags = nc.count_normals3_batch(TRUNC_OCT, pts)
    s_total, s_parts, s_flags = nc.count_normals3_batch(P, pts * scale)
    assert not flags.any() and not s_flags.any()
    assert np.array_equal(s_total, total)
    assert all(np.array_equal(a, b) for a, b in zip(s_parts, parts))
    for i, p in enumerate(pts[:200] * scale):
        bd = nc.count_normals3_by_dim(P, p)
        assert bd[2] - bd[1] + bd[0] == 2, (scale, p)
        assert (bd[2], bd[1], bd[0]) == tuple(part[i] for part in s_parts), (scale, p)


@pytest.mark.parametrize("scale", SCALES)
def test_polygon_counts_do_not_depend_on_units(scale):
    P = nc.Polygon2(ELEVEN_GON.vertices * scale)
    pts = nc.sample_interior2(ELEVEN_GON, 20000, seed=31)
    total, stable, flags = nc.count_normals2_batch(ELEVEN_GON, pts)
    s_total, s_stable, s_flags = nc.count_normals2_batch(P, pts * scale)
    assert not flags.any() and not s_flags.any()
    assert np.array_equal(s_total, total)
    assert np.array_equal(s_stable, stable)


def test_estimate_on_a_tiny_polytope_resamples_nothing():
    P = nc.build_polytope(TRUNC_OCT.vertices * 1e-6, TRUNC_OCT.facets)
    rep = nc.estimate_interior_average(P, "normals", 20000, seed=1)
    assert rep.degenerate_resampled == 0
    assert rep.mean == nc.estimate_interior_average(TRUNC_OCT, "normals", 20000, seed=1).mean


@pytest.mark.parametrize("s", [0.05, 0.1, 0.2])
def test_flagged_polygon_totals_are_degenerate(s):
    # on the normal line of the edge (4, 0)-(0.5, 0.5) through (0.5, 0.5)
    T = nc.build_polygon([(0, 0), (4, 0), (0.5, 0.5)])
    d = np.array([-0.5, -3.5]) / math.hypot(0.5, 3.5)
    total, _, flags = nc.count_normals2_batch(T, [np.array([0.5, 0.5]) + s * d])
    assert flags[0] and total[0] == nc.DEGENERATE


def test_flagged_polytope_totals_are_degenerate():
    # 1e-12 from the facet x = 0.5, so on the boundary of two edge slabs
    total, _, flags = nc.count_normals3_batch(nc.standard_polytope("cube"),
                                              [(0.5 - 1e-12, 0.1, 0.0)])
    assert flags[0] and total[0] == nc.DEGENERATE


@pytest.mark.parametrize("name", ["truncated_octahedron", "hexagonal_prism",
                                  "rhombic_dodecahedron"])
def test_flagged_polytope_points_raise(name):
    # probes bisected onto the jumps of the counts between interior samples:
    # the by-dimension counts either satisfy facets - edges + vertices = 2
    # or raise where the counter flags the point, never a silent best effort
    P = nc.standard_polytope(name)
    pts = nc.sample_interior3(P, 400, seed=3)

    def parts(x):
        return np.array(nc.count_normals3_batch(P, x)[1])

    a, b = pts[:-1], pts[1:]
    jump = np.any(parts(a) != parts(b), axis=0)
    a, d = a[jump], (b - a)[jump]
    at_a = parts(a)
    s = oracles.bisect(lambda m: np.all(parts(a + m[:, None] * d) == at_a, axis=0),
                       np.zeros(len(a)), np.ones(len(a)))
    raised = 0
    for p in a + s[:, None] * d:
        flagged = nc.count_normals3_batch(P, [p])[2][0]
        try:
            bd = nc.count_normals3_by_dim(P, p)
        except nc.DegenerateConfigurationError:
            assert flagged
            with pytest.raises(nc.DegenerateConfigurationError):
                nc.count_normals3(P, p)
            raised += 1
            continue
        assert not flagged and bd[2] - bd[1] + bd[0] == 2, p
    assert raised >= 0.2 * len(a)


def test_polytope_counter_runs_in_bounded_memory():
    # points run in row blocks of at most ``trigcount._BLOCK`` table values,
    # so 500k points never build their full (faces, width, points) tables:
    # the peak is the outputs and a block
    import tracemalloc

    pts = nc.sample_interior3(TRUNC_OCT, 500000, seed=12)
    tracemalloc.start()
    try:
        total, parts, flags = nc.count_normals3_batch(TRUNC_OCT, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = total.nbytes + sum(part.nbytes for part in parts) + flags.nbytes
    assert peak - outputs < 16 * 2**20


def test_arc_counter_and_excess_run_in_bounded_memory():
    # arc body points run in row blocks of the piece table, so 500k points
    # never build their full (pieces, points) tables
    import tracemalloc

    R = nc.build_reuleaux(5)
    pts = nc.sample_interior2(R, 500000, seed=12)
    for kernel in (nc.count_normals2_batch, nc.signed_boundary_excess):
        tracemalloc.start()
        try:
            out = kernel(R, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(x.nbytes for x in (out if isinstance(out, tuple) else (out,)))
        assert peak - outputs < 16 * 2**20, kernel.__name__


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize costs a fresh process 0.1-0.2 s and about 12 MB
    code = "import sys, normcount; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(nc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_polygon_face_tests_run_in_bounded_memory():
    # points run in blocks of points x edges, so 40k points of a 256-gon
    # never build their full (points, edges) tables
    import tracemalloc

    th = 2 * math.pi * np.arange(256) / 256
    P = nc.build_polygon(np.column_stack([np.cos(th), np.sin(th)]))
    pts = nc.sample_interior2(P, 40000, seed=12)
    for kernel in (nc.count_normals2_batch, nc.signed_boundary_excess):
        tracemalloc.start()
        try:
            kernel(P, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, kernel.__name__
