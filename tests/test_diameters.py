"""Affine diameter counting: polygons, smooth bodies, averages."""

import math

import numpy as np
import pytest

import normcount as nc

import oracles


UNIT_SQUARE = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]
PENTAGON = [(0, 0), (1.3, 0.1), (1.5, 0.9), (0.4, 1.1), (-0.3, 0.6)]
# edges 1 and 4 are short, parallel and antipodal: their trapezoid is a thin
# band along the x axis that few samples hit
THIN_BAND = [(1, -0.001), (1, 0.001), (0.3, 0.8), (-1, 0.001), (-1, -0.001), (-0.2, -0.9)]


def test_triangle_has_three_diameters_everywhere():
    T = nc.build_polygon([(0, 0), (1.3, 0.1), (0.4, 1.1)])
    for p in nc.sample_interior2(T, 50, seed=1):
        assert nc.count_diameters_polygon(T, p) == 3


def test_square_has_infinitely_many():
    P = nc.build_polygon(UNIT_SQUARE)
    assert nc.parallel_antipodal_edge_pairs(P) == [(0, 2), (1, 3)]
    for p in nc.sample_interior2(P, 20, seed=2):
        assert nc.count_diameters_polygon(P, p) == nc.INFINITE
    with pytest.raises(nc.InfiniteDiametersError) as exc:
        nc.average_diameters(P, 100, seed=0)
    assert exc.value.pair == (0, 2)


def test_pentagon_counts_are_odd_up_to_five():
    # near the vertices a single vertex-edge family passes; near the center
    # all five do
    ths = 2 * math.pi * np.arange(5) / 5
    P = nc.build_polygon(np.column_stack([np.cos(ths), np.sin(ths)]))
    pts = nc.sample_interior2(P, 80, seed=3)
    counts = np.array([nc.count_diameters_polygon(P, p) for p in pts])
    assert set(counts.tolist()) == {1.0, 3.0, 5.0}
    assert nc.count_diameters_polygon(P, np.array([1e-3, 2e-3])) == 5


def test_polygon_counts_match_direction_sweep_oracle():
    rng = np.random.default_rng(4)
    done = 0
    while done < 4:
        P = oracles.random_convex_polygon(rng, int(rng.integers(3, 9)))
        if nc.parallel_antipodal_edge_pairs(P):
            continue
        for p in nc.sample_interior2(P, 5, seed=done):
            prod = nc.count_diameters_polygon(P, p)
            assert prod == oracles.polygon_diameter_count(P, p, samples=4000)
            assert prod % 2 == 1  # diameters through a generic point are odd
        done += 1


def test_polygon_batch_matches_scalar_and_sweep_oracle():
    rng = np.random.default_rng(21)
    for k in (3, 4, 7, 12):
        P = oracles.random_convex_polygon(rng, k)
        assert not nc.parallel_antipodal_edge_pairs(P)
        pts = nc.sample_interior2(P, 200, seed=k)
        counts, flags = nc.diameter_counts_batch(P, pts)
        assert not flags.any()
        assert np.array_equal(counts, [nc.count_diameters_polygon(P, p) for p in pts])
        for p, c in zip(pts[:2], counts[:2]):
            assert c == oracles.polygon_diameter_count(P, p, samples=4000)


def test_antipodal_diagonal_is_flagged():
    # (0.5, 0.35) is the midpoint of the antipodal diagonal from (-0.3, 0.6)
    # to (1.3, 0.1), a side of antipodal triangles: the count jumps by two
    # across it, and on it no count is certified
    P = nc.build_polygon(PENTAGON)
    pts = np.array([(0.5, 0.35), (0.5, 0.351), (0.5, 0.349)])
    counts, flags = nc.diameter_counts_batch(P, pts)
    assert flags.tolist() == [True, False, False]
    assert counts.tolist() == [nc.DEGENERATE, 5, 3]
    assert nc.count_diameters_polygon(P, pts[0]) == nc.DEGENERATE
    assert [oracles.polygon_diameter_count(P, p, samples=4000) for p in pts[1:]] == [5, 3]


def test_infinite_beats_the_flag_inside_a_trapezoid():
    # the square's diagonals are sides of antipodal triangles, so these
    # points would be flagged outside a trapezoid
    S = nc.build_polygon(UNIT_SQUARE)
    counts, flags = nc.diameter_counts_batch(S, [(0.1, 0.1), (-0.2, 0.2), (0.1, 0.3)])
    assert not flags.any()
    assert np.all(counts == nc.INFINITE)
    P = nc.build_polygon(THIN_BAND)
    counts, flags = nc.diameter_counts_batch(P, [(0.0, 0.0), (0.2, 0.4), (0.0, -0.5)])
    assert not flags.any()
    assert counts[0] == nc.INFINITE
    assert counts[1] % 2 == 1 and counts[2] % 2 == 1


def test_thin_parallel_pair_makes_every_average_infinite():
    P = nc.build_polygon(THIN_BAND)
    assert nc.parallel_antipodal_edge_pairs(P) == [(1, 4)]
    for seed in range(5):
        with pytest.raises(nc.InfiniteDiametersError) as exc:
            nc.estimate_interior_average(P, "diameters", 200, seed=seed)
        assert exc.value.pair == (1, 4)


def test_polygon_batch_memory_is_bounded():
    # points run in blocks of points x antipodal triangles, so 20k points of
    # a 256-gon never build their full (points, triangles) table
    import tracemalloc

    P = nc.inscribe_polygon(nc.SmoothBody2(1.0, (0.0, 0.05, 0.03), (0.02,)), 256)
    pts = nc.sample_interior2(P, 20000, seed=12)
    tracemalloc.start()
    try:
        counts, flags = nc.diameter_counts_batch(P, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.all(counts[~flags] % 2 == 1)


def test_polygon_counts_are_affine_invariant():
    T = nc.build_polygon([(0, 0), (1.3, 0.1), (0.4, 1.1)])
    A = np.array([[2.0, 0.7], [-0.3, 1.4]])
    b = np.array([5.0, -1.0])
    TA = nc.build_polygon(T.vertices @ A.T + b)
    for p in nc.sample_interior2(T, 25, seed=5):
        assert nc.count_diameters_polygon(T, p) == \
            nc.count_diameters_polygon(TA, A @ p + b)


def test_disk_has_one_diameter_off_center():
    D = nc.disk(1.0)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.6, 0.6, (60, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.03]
    counts, flags = nc.diameter_counts_batch(D, pts)
    assert not flags.any()
    assert np.all(counts == 1)
    assert nc.count_diameters(D, (0.0, 0.0)) == nc.DEGENERATE


def test_disk_average_is_exactly_one():
    rep = nc.average_diameters(nc.disk(1.0), 3000, seed=3)
    assert rep.mean == 1.0
    assert rep.std_error == 0.0


def test_smooth_counts_match_dense_sweep_oracle():
    B = nc.SmoothBody2(1.0, (0.0, 0.06), (0.0, 0.0, 0.04))
    pts = nc.sample_interior2(B, 40, seed=9)
    counts, flags = nc.diameter_counts_batch(B, pts)
    for p, c, f in zip(pts, counts, flags):
        if f:
            continue
        assert c == oracles.smooth_diameter_count(B, p)
        assert c % 2 == 1
        assert nc.count_diameters(B, p) == c


def test_normals_are_twice_diameters_for_constant_width():
    # odd support harmonics cancel in the width, so this body has constant
    # width and every diameter is a double normal
    B = nc.SmoothBody2(1.0, (0.0, 0.0, 0.05))
    w = nc.width_function(B, np.linspace(0, 2 * math.pi, 64))
    assert np.allclose(w, 2.0, atol=1e-12)
    pts = nc.sample_interior2(B, 300, seed=6)
    ncounts, _, nflags = nc.count_normals2_batch(B, pts)
    dcounts, dflags = nc.diameter_counts_batch(B, pts)
    ok = ~(nflags | dflags)
    assert ok.sum() > 250
    assert np.array_equal(ncounts[ok], 2 * dcounts[ok])


def test_diameter_chord_geometry():
    B = nc.SmoothBody2(1.0, (0.0, 0.1))
    for theta in (0.0, 0.4, 1.3, 2.9):
        ch = nc.diameter_chord(B, theta)
        a, b = ch.endpoints
        phi = theta + 0.5 * math.pi
        assert np.allclose(a, B.boundary(phi), atol=1e-12)
        assert np.allclose(b, B.boundary(phi + math.pi), atol=1e-12)
        assert ch.length == pytest.approx(float(np.linalg.norm(a - b)), abs=1e-12)
    with pytest.raises(nc.UnsupportedCombinationError):
        nc.diameter_chord(nc.build_polygon(UNIT_SQUARE), 0.0)


def test_inscribed_polygon_counts_dominate_smooth():
    # odd harmonic breaks central symmetry, so the inscribed polygon has no
    # parallel antipodal edges and finite counts.  Discretizing creates
    # extra diameter pairs (vertex-vertex families) that do not die off
    # with k, so the polygon count dominates with even excess.
    B = nc.SmoothBody2(1.0, (0.0, 0.05, 0.03), (0.02,))
    P = nc.inscribe_polygon(B, 256)
    assert not nc.parallel_antipodal_edge_pairs(P)
    pts = nc.sample_interior2(B, 40, seed=11)
    counts, flags = nc.diameter_counts_batch(B, pts)
    agree = 0
    compared = 0
    for p, c, f in zip(pts, counts, flags):
        if f or not nc.contains2(P, p):
            continue
        compared += 1
        excess = nc.count_diameters_polygon(P, p) - c
        assert excess >= 0 and excess % 2 == 0
        agree += excess == 0
    assert compared > 30
    assert agree >= 0.5 * compared
