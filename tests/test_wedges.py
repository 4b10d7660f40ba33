"""Exact wedge decomposition: areas, averages, reflection, deficiency."""

import math

import numpy as np
import pytest

import normcount as nc

import oracles


UNIT_SQUARE = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]

# centrally symmetric but not concyclic: vertex radii differ
SKEW_HEXAGON = np.array([
    (1.0, 0.0), (0.3, 0.9), (-0.7, 0.8), (-1.0, 0.0), (-0.3, -0.9), (0.7, -0.8),
])


def test_square_average_is_eight_exactly():
    P = nc.build_polygon(UNIT_SQUARE)
    I, n = nc.exact_average_normals(P)
    assert abs(n - 8.0) < 1e-12
    assert abs(I - 8.0 * P.area()) < 1e-12


def test_square_wedges_partition():
    # every interior point of the square sees all four edges and all four
    # vertices, so each wedge is the whole square
    P = nc.build_polygon(UNIT_SQUARE)
    wedges = nc.all_wedges(P)
    assert len(wedges) == 8
    assert all(w.area == pytest.approx(1.0, abs=1e-12) for w in wedges)
    edge_area = sum(w.area for w in wedges if w.face[0] == "edge")
    vert_area = sum(w.area for w in wedges if w.face[0] == "vertex")
    assert edge_area == pytest.approx(4.0 * P.area(), abs=1e-12)
    assert vert_area == pytest.approx(4.0 * P.area(), abs=1e-12)


def test_wedges_lie_inside_polygon():
    rng = np.random.default_rng(6)
    P = oracles.random_convex_polygon(rng, 9)
    for w in nc.all_wedges(P):
        for v in w.region:
            assert -nc.signed_boundary_excess(P, [v])[0] > -1e-9 * P.scale


def test_wedge_areas_match_pixel_oracle():
    rng = np.random.default_rng(15)
    P = oracles.random_convex_polygon(rng, 5)
    wedges = nc.all_wedges(P)
    lo = P.vertices.min(axis=0) - 0.1
    hi = P.vertices.max(axis=0) + 0.1
    for w in wedges[:4]:
        if w.area < 1e-3:
            continue
        area = oracles.pixel_area(
            lambda pts: oracles.points_in_convex_polygon(w.region, pts), lo, hi, n=500)
        assert w.area == pytest.approx(area, rel=2e-2)


def test_euler_residual_vanishes():
    rng = np.random.default_rng(44)
    for _ in range(10):
        P = oracles.random_convex_polygon(rng, int(rng.integers(3, 14)))
        assert abs(nc.euler_residual(P)) < 1e-12


def test_interior_average_bounds_random_polygons():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(3, 9))
        P = oracles.random_convex_polygon(rng, k)
        _, n = nc.exact_average_normals(P)
        assert 4.0 < n <= 2.0 * len(P.vertices) + 1e-12


def test_symmetric_polygons_average_at_most_eight():
    rng = np.random.default_rng(9)
    for _ in range(10):
        P = oracles.random_symmetric_polygon(rng, int(rng.integers(2, 7)))
        _, n = nc.exact_average_normals(P)
        assert n <= 8.0 + 1e-9


def test_concyclic_symmetric_polygons_average_exactly_eight():
    rng = np.random.default_rng(13)
    for _ in range(8):
        P = oracles.random_concyclic_symmetric_polygon(
            rng, int(rng.integers(2, 7)), radius=1 + rng.uniform(0, 2))
        _, n = nc.exact_average_normals(P)
        assert abs(n - 8.0) < 1e-9


def test_skew_hexagon_average_below_eight():
    P = nc.build_polygon(SKEW_HEXAGON)
    assert nc.is_centrally_symmetric(P)
    r = np.hypot(*(P.vertices - P.vertices.mean(axis=0)).T)
    assert np.ptp(r) > 1e-3  # not concyclic
    _, n = nc.exact_average_normals(P)
    assert n < 8.0 - 1e-6
    assert nc.wedge_fill_deficiency(P) > 1e-6


def test_symmetry_detector():
    assert nc.is_centrally_symmetric(nc.build_polygon(UNIT_SQUARE))
    shifted = nc.build_polygon(np.asarray(UNIT_SQUARE) + [3.0, -2.0])
    assert nc.is_centrally_symmetric(shifted)
    tri = nc.build_polygon([(0, 0), (1, 0), (0, 1)])
    assert not nc.is_centrally_symmetric(tri)
    with pytest.raises(nc.DomainError):
        nc.wedge_fill_deficiency(tri)


def test_reflected_wedges_tile_without_overlap():
    P = nc.build_polygon(UNIT_SQUARE)
    wedges = nc.all_wedges(P)
    refl = [nc.reflected_wedge(P, w) for w in wedges]
    # pairwise overlaps vanish
    for i in range(len(refl)):
        for j in range(i + 1, len(refl)):
            assert nc.polygon_intersection_area(refl[i], refl[j]) < 1e-12
    # each stays inside 2P - P and outside P
    for r in refl:
        for v in r:
            assert np.max(np.abs(v)) <= 1.5 + 1e-12
    from normcount.wedges import _shoelace
    total = sum(_shoelace(r) for r in refl)
    big = nc.minkowski_sum_polygons(
        nc.Polygon2(2.0 * P.vertices), nc.reflect_polygon(P))
    assert total == pytest.approx(big.area() - P.area(), abs=1e-9)


def test_deficiency_equals_tiling_gap():
    from normcount.wedges import _shoelace

    P = nc.build_polygon(SKEW_HEXAGON)
    I, _ = nc.exact_average_normals(P)
    big = nc.minkowski_sum_polygons(
        nc.Polygon2(2.0 * P.vertices), nc.reflect_polygon(P))
    assert nc.wedge_fill_deficiency(P) == pytest.approx(
        big.area() - P.area() - I, abs=1e-12)
    # the gap is exactly what the disjoint reflected wedges fail to cover
    refl = [nc.reflected_wedge(P, w) for w in nc.all_wedges(P)]
    for i in range(len(refl)):
        for j in range(i + 1, len(refl)):
            assert nc.polygon_intersection_area(refl[i], refl[j]) < 1e-12
    covered = sum(_shoelace(r) for r in refl)
    assert big.area() - P.area() - covered == pytest.approx(
        nc.wedge_fill_deficiency(P), abs=1e-12)


def test_exact_average_matches_monte_carlo():
    rng = np.random.default_rng(3)
    P = oracles.random_convex_polygon(rng, 7)
    _, n = nc.exact_average_normals(P)
    rep = nc.estimate_interior_average(P, "normals", 20000, seed=77)
    assert abs(rep.mean - n) < 3.0 * rep.std_error + 1e-12


def test_clip_and_intersection_primitives():
    from normcount.wedges import _shoelace, clip_halfplane

    sq = np.asarray(UNIT_SQUARE, dtype=float)
    half = clip_halfplane(sq, np.array([-1.0, 0.0]), 0.0)  # keep x <= 0
    assert _shoelace(half) == pytest.approx(0.5, abs=1e-12)
    other = sq + np.array([0.5, 0.5])
    assert nc.polygon_intersection_area(sq, other) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# polytopes: n = 2 + 2 * (edge regions) / vol, by the Morse relation

NAMED_SOLID_MEANS = {"cube": 26.0, "hexagonal_prism": 26.0, "truncated_octahedron": 26.0,
                     "tetrahedron": 14.0, "octahedron": 62 / 3,
                     "rhombic_dodecahedron": 76 / 3, "elongated_dodecahedron": 22.5}


def _gaussian_hulls():
    # hulls of 30 Gaussian points; the last three flattened to a fifth in z
    rng = np.random.default_rng(5)
    hulls = []
    for k in range(6):
        pts = rng.standard_normal((30, 3))
        pts[:, 2] *= 0.2 if k >= 3 else 1.0
        hulls.append(nc.polytope_from_points(pts))
    return hulls


GAUSSIAN_HULLS = _gaussian_hulls()
SOLIDS = {**{name: nc.standard_polytope(name) for name in NAMED_SOLID_MEANS},
          **{f"hull{k}": P for k, P in enumerate(GAUSSIAN_HULLS)}}


@pytest.mark.parametrize("name", sorted(NAMED_SOLID_MEANS))
def test_polytope_exact_means_are_pinned(name):
    I, n = nc.exact_average_normals3(SOLIDS[name])
    assert n == pytest.approx(NAMED_SOLID_MEANS[name], rel=1e-12)
    assert I == pytest.approx(n * nc.measure3d(SOLIDS[name])["volume"], rel=1e-15)
    assert nc.exact_average(SOLIDS[name], "normals") == n


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_polytope_exact_means_match_the_facet_and_vertex_oracle(name):
    want = oracles.polytope_mean_from_facets_and_vertices(SOLIDS[name])
    assert nc.exact_average_normals3(SOLIDS[name])[1] == pytest.approx(want, rel=1e-12)


def test_polytope_exact_means_match_monte_carlo():
    for P in GAUSSIAN_HULLS:
        rep = nc.estimate_interior_average(P, "normals", 100_000, 7)
        assert rep.method == "exact"
        assert abs(rep.mean - rep.exact) <= 4.0 * rep.std_error


def test_polytope_exact_mean_does_not_depend_on_units_or_position():
    T = SOLIDS["truncated_octahedron"]
    for verts in (T.vertices * 1e-6, T.vertices * 1e-4, T.vertices * 1e4,
                  T.vertices + [100.0, -50.0, 3.0]):
        P = nc.build_polytope(verts, T.facets)
        before = set(vars(P))
        assert nc.exact_average(P, "normals") == pytest.approx(26.0, rel=1e-14)
        assert set(vars(P)) == before  # nothing cached on the body


CUBE = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)], dtype=float)
CUBE_SIDES = [[0, 2, 3, 1], [0, 1, 5, 4], [1, 3, 7, 5], [3, 2, 6, 7], [2, 0, 4, 6]]


def test_polytope_exact_mean_skips_an_edge_inside_a_face():
    # the top face as two triangles: their shared diagonal bounds no region
    P = nc.build_polytope(CUBE, CUBE_SIDES + [[4, 5, 7], [4, 7, 6]])
    assert nc.exact_average(P, "normals") == pytest.approx(26.0, rel=1e-15)
    assert oracles.polytope_mean_from_facets_and_vertices(P) == pytest.approx(26.0, rel=1e-12)
    rep = nc.estimate_interior_average(P, "normals", 2000, 7)
    assert rep.method == "exact"
    assert abs(rep.mean - rep.exact) <= 4.0 * rep.std_error


@pytest.mark.parametrize("height", [1e-6, 1e-9, 1e-12])
def test_polytope_exact_mean_is_continuous_as_a_roof_flattens(height):
    # a pyramid of the given height over the top face: its creases are kept
    # at 1e-6 and skipped at 1e-12, and n stays within O(height) of the cube's 26
    P = nc.build_polytope(np.vstack([CUBE, [0.5, 0.5, 1.0 + height]]),
                          CUBE_SIDES + [[4, 5, 8], [5, 7, 8], [7, 6, 8], [6, 4, 8]])
    assert abs(nc.exact_average(P, "normals") - 26.0) <= 20.0 * height


def test_edge_interior_point_must_clear_every_row():
    from normcount.wedges import _edge_interior_point

    P = SOLIDS["cube"]
    rows = np.vstack([np.column_stack([-P.facet_normals, P.facet_offsets]),
                      P.edge_sides[0], [0.0, 0.0, 0.0, 1.0] - P.edge_sides[0, 0]])
    x = _edge_interior_point(P, 0, rows)
    assert np.all(rows[:, :3] @ x + rows[:, 3] > 0.0)
    # a row that no point of the cube satisfies: x . (1, 0, 0) >= 2
    with pytest.raises(nc.DegenerateBodyError, match="edge 0"):
        _edge_interior_point(P, 0, np.vstack([rows, [1.0, 0.0, 0.0, -2.0]]))
