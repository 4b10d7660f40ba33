"""Polytope construction, measures, containment and sampling in 3D."""

import math

import numpy as np
import pytest

import normcount as nc


def test_standard_solid_measures():
    # closed-form volume and surface area for unit parameters
    cases = {
        "cube": (1.0, 6.0),
        "tetrahedron": (1 / (6 * math.sqrt(2)), math.sqrt(3)),
        "octahedron": (math.sqrt(2) / 3, 2 * math.sqrt(3)),
        "hexagonal_prism": (1.5 * math.sqrt(3), 3 * math.sqrt(3) + 6),
        "truncated_octahedron": (32.0, (6 + 12 * math.sqrt(3)) * 2),
        "rhombic_dodecahedron": (16.0, 8 * math.sqrt(2) * 3),
    }
    for name, (vol, surf) in cases.items():
        m = nc.measure3d(nc.standard_polytope(name))
        assert m["volume"] == pytest.approx(vol, rel=1e-12), name
        assert m["surface_area"] == pytest.approx(surf, rel=1e-12), name


def test_standard_solid_combinatorics():
    counts = {
        "cube": (8, 6),
        "tetrahedron": (4, 4),
        "octahedron": (6, 8),
        "hexagonal_prism": (12, 8),
        "truncated_octahedron": (24, 14),
        "rhombic_dodecahedron": (14, 12),
        "elongated_dodecahedron": (18, 12),
    }
    for name, (nv, nf) in counts.items():
        P = nc.standard_polytope(name)
        assert (len(P.vertices), len(P.facets)) == (nv, nf), name
        # Euler characteristic of the boundary complex
        edges = set()
        for f in P.facets:
            for j in range(len(f)):
                a, b = f[j], f[(j + 1) % len(f)]
                edges.add((min(a, b), max(a, b)))
        assert len(P.vertices) - len(edges) + len(P.facets) == 2, name


def test_unknown_solid_raises():
    with pytest.raises(nc.DegenerateBodyError):
        nc.standard_polytope("dodecahedron_of_unusual_size")


@pytest.mark.parametrize("desc, message", [
    ({"name": "cube", "sidee": 2}, "cube takes 'side', not 'sidee'"),
    ({"name": "tetrahedron", "edge": 2}, "tetrahedron takes 'side', not 'edge'"),
    ({"name": "cube", "side": -2}, "cube side must be positive and finite, got -2"),
    ({"name": "cube", "side": 0}, "cube side must be positive and finite, got 0"),
], ids=["misspelt", "foreign", "negative", "zero"])
def test_standard_solid_rejects_bad_sizes(desc, message):
    with pytest.raises(nc.DegenerateBodyError) as info:
        nc.parse_body({"type": "standard3", **desc})
    assert str(info.value) == message


def test_standard_solid_sizes_scale_it():
    cube = nc.parse_body({"type": "standard3", "name": "cube", "side": 2})
    assert nc.measure3d(cube)["volume"] == pytest.approx(8.0, rel=1e-12)
    prism = nc.standard_polytope("hexagonal_prism", circumradius=2, height=3)
    assert nc.measure3d(prism)["volume"] == pytest.approx(1.5 * math.sqrt(3) * 4 * 3, rel=1e-12)


def test_polytope_from_points_strips_interior_points():
    cube = nc.standard_polytope("cube")
    rng = np.random.default_rng(2)
    inner = rng.uniform(-0.4, 0.4, (20, 3))
    P = nc.polytope_from_points(np.vstack([cube.vertices, inner]))
    assert len(P.vertices) == 8
    assert nc.measure3d(P)["volume"] == pytest.approx(1.0, rel=1e-12)


def test_prism_over_square_is_box():
    base = np.array([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    P = nc.prism_over(base, 2.0)
    m = nc.measure3d(P)
    assert m["volume"] == pytest.approx(2.0, rel=1e-12)
    assert m["surface_area"] == pytest.approx(2 + 8.0, rel=1e-12)
    assert len(P.facets) == 6


def test_build_polytope_facet_consistency():
    cube = nc.standard_polytope("cube")
    Q = nc.build_polytope(cube.vertices, cube.facets)
    assert nc.measure3d(Q)["volume"] == pytest.approx(1.0, rel=1e-12)
    # facet normals are unit outward
    norms = np.linalg.norm(Q.facet_normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    c = Q.vertices.mean(axis=0)
    assert np.all(Q.facet_normals @ c < Q.facet_offsets)


def test_contains3_and_tolerance():
    P = nc.standard_polytope("cube")
    assert nc.contains3(P, (0.0, 0.0, 0.0))
    assert not nc.contains3(P, (0.7, 0.0, 0.0))
    v = P.vertices[0]
    assert not nc.contains3(P, v, tol=-1e-9)   # strict interior excludes vertex
    assert nc.contains3(P, v, tol=1e-9)        # closed with slack includes it
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert list(nc.contains3_batch(P, pts)) == [True, False]


def test_sample_interior3_inside_and_deterministic():
    P = nc.standard_polytope("truncated_octahedron")
    pts = nc.sample_interior3(P, 300, seed=9)
    assert len(pts) == 300
    assert nc.contains3_batch(P, pts).all()
    assert np.array_equal(pts, nc.sample_interior3(P, 300, seed=9))


def test_polytope_containment_runs_in_bounded_memory():
    # points run in row blocks of facets, so 500k points never build their
    # full (points, facets) slack table (106 MiB above the output before)
    import tracemalloc

    P = nc.standard_polytope("truncated_octahedron")
    pts = np.random.default_rng(12).uniform(*nc.bounding_box3(P), (500000, 3))
    tracemalloc.start()
    try:
        inside = nc.contains3_batch(P, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - inside.nbytes < 16 * 2**20
    sub = pts[::50]
    assert np.array_equal(inside[::50],
                          np.max(sub @ P.facet_normals.T - P.facet_offsets, axis=1) <= 0.0)


def test_bounding_box3_tight():
    P = nc.standard_polytope("octahedron")
    lo, hi = nc.bounding_box3(P)
    assert np.allclose(lo, P.vertices.min(axis=0))
    assert np.allclose(hi, P.vertices.max(axis=0))


def test_volume_against_monte_carlo():
    P = nc.standard_polytope("elongated_dodecahedron")
    lo, hi = nc.bounding_box3(P)
    rng = np.random.default_rng(0)
    pts = rng.uniform(lo, hi, (200000, 3))
    frac = nc.contains3_batch(P, pts).mean()
    mc = frac * np.prod(hi - lo)
    se = np.prod(hi - lo) * math.sqrt(frac * (1 - frac) / len(pts))
    assert abs(nc.measure3d(P)["volume"] - mc) < 4 * se


TETRA = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
TETRA_FACETS = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]


@pytest.mark.parametrize("vertices, facets, error, message", [
    (TETRA[:3], TETRA_FACETS, nc.DegenerateBodyError,
     "polytope needs at least 4 vertices in R^3"),
    ([*TETRA[:3], [0, 0, math.inf]], TETRA_FACETS, nc.DegenerateBodyError,
     "vertices must be finite"),
    (TETRA, TETRA_FACETS[:3], nc.DegenerateBodyError,
     "need at least 4 facets with 3+ vertices each"),
    (TETRA, [[0, 2, 9], *TETRA_FACETS[1:]], nc.DegenerateBodyError,
     "facet vertex indices must lie in [0, 4)"),
    (TETRA, [[0, 0, 1], *TETRA_FACETS[1:]], nc.DegenerateBodyError,
     "facet 0 is degenerate"),
    (TETRA, [[0, 2, 1, 3], *TETRA_FACETS[1:]], nc.DegenerateBodyError,
     "facet 0 is not planar ("),
    (TETRA, [[0, 1, 2], *TETRA_FACETS[1:]], nc.ConvexityError,
     "facet 0 is oriented inward"),
    ([*TETRA, [-0.1, 0.3, 0.3]], TETRA_FACETS, nc.ConvexityError,
     "a vertex lies outside a facet plane: not convex"),
    (TETRA, [*TETRA_FACETS, TETRA_FACETS[0]], nc.DegenerateBodyError,
     "every edge must bound exactly two facets"),
    ([*TETRA, [0.1, 0.1, 0.1]], TETRA_FACETS, nc.DegenerateBodyError,
     "Euler relation V - E + F = 2 fails"),
], ids=["few-vertices", "non-finite", "few-facets", "index", "degenerate-facet",
        "non-planar", "inward", "vertex-outside", "edge-of-three", "euler"])
def test_polytope_validation_errors(vertices, facets, error, message):
    with pytest.raises(error) as info:
        nc.Polytope3(vertices, facets)
    assert type(info.value) is error and str(info.value).startswith(message)


@pytest.mark.parametrize("n", [8, 40, 1000])
def test_measure3d_matches_qhull_on_random_hulls(n):
    from scipy.spatial import ConvexHull

    pts = np.random.default_rng(n).standard_normal((n, 3))
    m = nc.measure3d(nc.polytope_from_points(pts))
    hull = ConvexHull(pts)
    assert m["volume"] == pytest.approx(hull.volume, rel=1e-12)
    assert m["surface_area"] == pytest.approx(hull.area, rel=1e-12)
