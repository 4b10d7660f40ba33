"""Normed-plane normality, the gauge, and the inscribed-hexagon ratio."""
import math

import numpy as np
import pytest

import normcount as nc
from normcount import DomainError, UnsupportedCombinationError
from normcount.bodies2d import cross2
from normcount.minkowski import _boundary_walk, _gauge_and_gradient, _hexagon_objectives

import oracles


def _disk_ball(r=1.0):
    return nc.NormBall2(nc.SmoothBody2(r, [], []))


def _symmetric_smooth(a4=0.02):
    return nc.NormBall2(nc.SmoothBody2(1.0, [0.0, 0.0, 0.0, a4], []))


def _regular(k, radius=1.0):
    ang = 2.0 * np.pi * np.arange(k) / k
    return nc.build_polygon(radius * np.column_stack([np.cos(ang), np.sin(ang)]))


def _poly_ball(name):
    if name == "square":
        return nc.NormBall2(nc.build_polygon([(1, 1), (-1, 1), (-1, -1), (1, -1)]))
    if name == "hexagon":
        return nc.NormBall2(_regular(6))
    raise ValueError(name)


def test_norm_ball_validation():
    with pytest.raises(DomainError):
        nc.NormBall2(nc.SmoothBody2(1.0, [0.2], []))  # cos(theta) shifts center
    with pytest.raises(DomainError):
        nc.NormBall2(nc.SmoothBody2(1.0, [0.0, 0.0, 0.05], []))  # odd harmonic
    with pytest.raises(DomainError):
        nc.NormBall2(nc.build_polygon([(0, 0), (1, 0), (0, 1)]))  # not symmetric
    ok = _symmetric_smooth()
    assert ok.is_smooth and ok.area() > 0
    assert not _poly_ball("square").is_smooth


def test_gauge_disk_is_euclidean_norm():
    M = _disk_ball()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    assert np.allclose(nc.gauge_batch(M, X), np.linalg.norm(X, axis=1), atol=1e-9)
    assert nc.gauge(M, (3.0, 4.0)) == pytest.approx(5.0, abs=1e-9)
    assert nc.gauge(M, (0.0, 0.0)) == 0.0


def test_gauge_square_is_max_norm():
    M = _poly_ball("square")
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 2))
    assert np.allclose(nc.gauge_batch(M, X),
                       np.max(np.abs(X), axis=1), atol=1e-12)


def test_gauge_against_bisection_oracle():
    for M in (_symmetric_smooth(0.03), _poly_ball("hexagon")):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 2)) * 2.0
        got = nc.gauge_batch(M, X)
        want = np.array([oracles.gauge_bisection(M.body, x) for x in X])
        assert np.allclose(got, want, atol=1e-8)
    # positive homogeneity and symmetry
    M = _symmetric_smooth(0.03)
    x = np.array([0.7, -1.3])
    assert nc.gauge(M, 2.5 * x) == pytest.approx(2.5 * nc.gauge(M, x), rel=1e-9)
    assert nc.gauge(M, -x) == pytest.approx(nc.gauge(M, x), rel=1e-9)


def test_disk_ball_counts_match_euclidean_bitwise():
    M = _disk_ball()
    K = nc.SmoothBody2(1.0, [0.0, 0.04], [0.0, 0.01])
    pts = nc.sample_interior2(K, 300, seed=4)
    mink, mflags = nc.mink_counts_batch(M, K, pts)
    eucl, _, eflags = nc.count_normals2_batch(K, pts)
    assert np.array_equal(mink, eucl)
    assert np.array_equal(mflags, eflags)
    p = pts[0]
    assert nc.count_minkowski_normals(M, K, p) == nc.count_normals2(K, p)


def test_minkowski_normals_scale_ball_invariant():
    # the normal field of M and of 2M coincide: counts must match
    K = nc.SmoothBody2(1.0, [0.0, 0.05], [])
    pts = nc.sample_interior2(K, 120, seed=5)
    a, _ = nc.mink_counts_batch(_disk_ball(1.0), K, pts)
    b, _ = nc.mink_counts_batch(_disk_ball(2.0), K, pts)
    assert np.array_equal(a, b)


def test_refine_mink_roots_rejects_what_the_counter_rejects():
    M = _disk_ball()
    K = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])
    for p in [(5.0, 0.0), (math.nan, 0.1)]:  # outside, and never proven inside
        with pytest.raises(DomainError):
            nc.refine_mink_roots(M, K, p)
    with pytest.raises(UnsupportedCombinationError):
        nc.refine_mink_roots(M, _regular(6), (0.0, 0.1))


GENERIC = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])


@pytest.mark.parametrize("K,p", [(nc.disk(1.0), (0.0, 0.0)),
                                 (GENERIC, GENERIC.curvature_center(0.3))],
                         ids=["disk-centre", "generic-evolute"])
def test_scalar_minkowski_queries_raise_where_the_batch_flags(K, p):
    # one degenerate policy: the batch flags the point, every scalar query raises
    M = _disk_ball()
    counts, flags = nc.mink_counts_batch(M, K, np.array([p]))
    assert flags[0] and counts[0] == nc.DEGENERATE
    for query in (nc.count_minkowski_normals, nc.refine_mink_roots):
        with pytest.raises(nc.DegenerateConfigurationError):
            query(M, K, p)
    with pytest.raises(nc.DegenerateConfigurationError):
        nc.count_normals2(K, p)


def test_refine_mink_roots_feet_properties():
    M = _symmetric_smooth(0.03)
    K = nc.SmoothBody2(1.0, [0.0, 0.06], [0.0, 0.0])
    p = np.array([0.15, -0.1])
    roots = nc.refine_mink_roots(M, K, p)
    assert len(roots) == nc.count_minkowski_normals(M, K, p)
    # each root's chord p - r_K(theta) is parallel to the Birkhoff direction
    for th in roots:
        foot = K.boundary(np.array([th]))[0]
        d = M.body.boundary(th)
        w = p - foot
        assert abs(w[0] * d[1] - w[1] * d[0]) < 1e-7 * np.linalg.norm(w)


def test_tau_disk_hexagon_square():
    assert nc.hexagon_ratio_tau(_disk_ball()) == pytest.approx(
        3.0 * math.sqrt(3.0) / (2.0 * math.pi), abs=1e-6)
    assert nc.hexagon_ratio_tau(_poly_ball("hexagon")) == pytest.approx(1.0, abs=1e-9)
    assert nc.hexagon_ratio_tau(_poly_ball("square")) == pytest.approx(0.75, abs=1e-6)


def test_tau_affine_invariance():
    # tau is affine-invariant: a linearly stretched hexagon still gives 1
    A = np.array([[1.7, 0.4], [-0.2, 0.9]])
    hexagon = _regular(6)
    stretched = nc.build_polygon(hexagon.vertices @ A.T)
    assert nc.hexagon_ratio_tau(nc.NormBall2(stretched)) == pytest.approx(1.0, abs=1e-9)
    # an ellipse is a linear image of the disk
    t = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    h = np.sqrt((2.0 * np.cos(t)) ** 2 + np.sin(t) ** 2)
    ell = nc.NormBall2(nc.fit_support_body(np.column_stack([t, h]), 10))
    # the truncated Fourier fit deviates from a true ellipse at ~1e-4
    assert nc.hexagon_ratio_tau(ell) == pytest.approx(
        3.0 * math.sqrt(3.0) / (2.0 * math.pi), abs=5e-4)


def test_tau_bounds_and_width_bound():
    # 3/4 <= tau <= 1: parallelograms are the minimizers, affine-regular
    # hexagons the maximizers
    for M in (_disk_ball(), _poly_ball("square"), _poly_ball("hexagon"),
              _symmetric_smooth(0.03)):
        tau = nc.hexagon_ratio_tau(M)
        assert 0.75 - 1e-9 <= tau <= 1.0 + 1e-9
    # for the Euclidean disk the bound specializes to 2*pi/(pi - sqrt(3))
    got = nc.normed_width_bound(_disk_ball())
    assert got == pytest.approx(2.0 * math.pi / (math.pi - math.sqrt(3.0)), abs=1e-5)
    assert nc.normed_width_bound(_poly_ball("hexagon")) == pytest.approx(6.0, abs=1e-7)


def test_mink_counts_reject_bad_inputs():
    M = _disk_ball()
    K = nc.SmoothBody2(1.0, [0.0, 0.04], [])
    with pytest.raises(DomainError):
        nc.count_minkowski_normals(M, K, (5.0, 5.0))  # exterior point
    with pytest.raises(UnsupportedCombinationError):
        nc.count_minkowski_normals(_poly_ball("square"), K, (0.0, 0.1))


def _degree6_ball():
    return nc.NormBall2(nc.SmoothBody2(1.0, [0.0, 0.05, 0.0, 0.02, 0.0, 0.004],
                                       [0.0, -0.03, 0.0, 0.0, 0.0, 0.002]))


def _oracle_gauges(M, X):
    return np.array([oracles.gauge_bisection(M.body, x) for x in X])


def test_gauge_degree6_ball_against_bisection_oracle():
    M = _degree6_ball()
    X = np.random.default_rng(11).normal(size=(16, 2))
    assert np.allclose(nc.gauge_batch(M, X), _oracle_gauges(M, X), rtol=1e-9, atol=0.0)


def test_gauge_either_side_of_the_table_wrap():
    # the smooth gauge brackets atan2(x) in the polar angles of r_M on its
    # grid; those wrap at atan2 = +-pi and start at the angle of r_M(0)
    M = _degree6_ball()
    r0 = M.body.boundary(0.0)
    start = math.atan2(r0[1], r0[0])
    angles = [start + d for d in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)]
    X = [1.3 * np.array([math.cos(a), math.sin(a)]) for a in angles]
    X += [(-1.0, 0.0), (-1.0, -0.0), (-1.0, 1e-15), (-1.0, -1e-15),
          (-1.0, 1e-9), (-1.0, -1e-9)]
    X = np.array(X)
    assert np.allclose(nc.gauge_batch(M, X), _oracle_gauges(M, X), rtol=1e-9, atol=0.0)


def test_gauge_across_scales_and_zero_rows():
    M = _degree6_ball()
    rng = np.random.default_rng(12)
    directions = rng.normal(size=(4, 2))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    X = np.concatenate([directions * s for s in (1e-6, 1e-3, 1.0, 1e3)])
    assert np.allclose(nc.gauge_batch(M, X), _oracle_gauges(M, X), rtol=1e-9, atol=0.0)
    X[5] = 0.0
    got = nc.gauge_batch(M, X)
    assert got[5] == 0.0
    assert np.array_equal(np.delete(got, 5), nc.gauge_batch(M, np.delete(X, 5, axis=0)))


def test_gauge_batch_equals_row_by_row():
    M = _degree6_ball()
    X = np.random.default_rng(13).normal(size=(10_000, 2))
    rows = np.array([nc.gauge(M, x) for x in X])
    # equal up to the rounding of the support series' matrix products,
    # which BLAS may sum differently for one row and for many
    assert np.allclose(nc.gauge_batch(M, X), rows, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("make", [_degree6_ball, lambda: nc.NormBall2(_regular(8))])
def test_gauge_gradient_matches_central_differences(make):
    # the slope newton takes for the hexagon's v; the gauge is positively
    # homogeneous of degree 1, so <x, grad> is the gauge itself
    M = make()
    X = np.random.default_rng(31).normal(size=(40, 2))
    g, grad = _gauge_and_gradient(M, X)
    assert np.array_equal(g, nc.gauge_batch(M, X))
    assert np.allclose(np.einsum("ij,ij->i", X, grad), g, rtol=1e-12, atol=0.0)
    for e in 1e-6 * np.eye(2):
        slope = (nc.gauge_batch(M, X + e) - nc.gauge_batch(M, X - e)) / 2e-6
        assert np.allclose(grad @ e / 1e-6, slope, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("make", [_degree6_ball, _disk_ball, lambda: _poly_ball("hexagon")])
def test_gauge_batch_of_no_points_is_empty(make):
    assert nc.gauge_batch(make(), np.zeros((0, 2))).shape == (0,)


@pytest.mark.parametrize("name, want", [
    ("octagon", 0.8409902576697321),
    ("degree6", 0.8343848436626605),
    ("disk", 3.0 * math.sqrt(3.0) / (2.0 * math.pi)),
])
def test_tau_pinned(name, want):
    M = {"octagon": lambda: nc.NormBall2(_regular(8)), "degree6": _degree6_ball,
         "disk": _disk_ball}[name]()
    tau = nc.hexagon_ratio_tau(M)
    assert type(tau) is float
    assert tau == pytest.approx(want, abs=1e-12)


def test_tau_memory_is_bounded_on_a_many_sided_ball():
    # the hexagon objectives take one gauge row per u, and gauge_batch runs
    # polygon rows in blocks of rows x edges, so a 400-gon at the default
    # coarse grid never builds a table of every u against every edge
    import tracemalloc

    M = nc.NormBall2(_regular(400))
    tracemalloc.start()
    try:
        tau = nc.hexagon_ratio_tau(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert tau == pytest.approx(3.0 * math.sqrt(3.0) / (2.0 * math.pi), abs=1e-3)


HEXAGON_NORMS = {
    "square": lambda: _poly_ball("square"), "hexagon": lambda: _poly_ball("hexagon"),
    "octagon": lambda: nc.NormBall2(_regular(8)),
    "random4": lambda: nc.NormBall2(oracles.random_symmetric_polygon(np.random.default_rng(3), 4)),
    "random5": lambda: nc.NormBall2(oracles.random_symmetric_polygon(np.random.default_rng(5), 5)),
    "degree6": _degree6_ball}


def _half_period(M):
    return math.pi if M.is_smooth else 0.5 * M.body.vertex_arclengths[-1]


@pytest.mark.parametrize("name", sorted(HEXAGON_NORMS))
def test_gauge_from_u_never_falls_along_the_half_arc(name):
    # the monotonicity lemma that makes the hexagon's v the one root of
    # 1 - gauge(v - u) on the half-arc after u
    M = HEXAGON_NORMS[name]()
    half = _half_period(M)
    ts = np.random.default_rng(17).uniform(0.0, 2.0 * half, 20)
    u = _boundary_walk(M.body, ts)[0]
    arc = ts[:, None] + half * np.arange(4001) / 4000
    pts = _boundary_walk(M.body, arc.ravel())[0].reshape(*arc.shape, 2)
    g = nc.gauge_batch(M, (pts - u[:, None]).reshape(-1, 2)).reshape(arc.shape)
    assert np.all(g[:, 0] == 0.0)
    assert np.all(np.diff(g, axis=1) >= -1e-12)
    assert np.allclose(g[:, -1], 2.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(HEXAGON_NORMS))
def test_hexagon_objectives_match_the_scan_oracle(name):
    M = HEXAGON_NORMS[name]()
    half = _half_period(M)
    ts = np.random.default_rng(19).uniform(0.0, 2.0 * half, 50)
    got = _hexagon_objectives(M, ts, half, 1.0)
    assert np.allclose(got, oracles.hexagon_cross(M.body, ts), rtol=0.0, atol=1e-9)


def test_gauge_batch_memory_is_bounded_on_a_many_sided_ball():
    # one (rows, edges) table of 20000 rows of a 400-gon takes 64 MB
    import tracemalloc

    M = nc.NormBall2(_regular(400))
    X = np.random.default_rng(23).normal(size=(20_000, 2))
    tracemalloc.start()
    try:
        got = nc.gauge_batch(M, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert np.allclose(got, oracles.gauge_radial(M.body, X), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("coarse", [1, 0, -3])
@pytest.mark.parametrize("make", [_degree6_ball, lambda: _poly_ball("square")])
def test_tau_rejects_coarse_below_two(make, coarse):
    with pytest.raises(DomainError):
        nc.hexagon_ratio_tau(make(), coarse=coarse)


@pytest.mark.parametrize("make", [_degree6_ball, lambda: nc.NormBall2(_regular(8))])
def test_tau_makes_at_most_64_gauge_evaluations(make, monkeypatch):
    # the coarse pass and 3 refinement rounds each solve for v by newton,
    # one gauge evaluation per step of the rows still unfinished; 64 calls
    # are a quarter of the 4 * 64 halvings of a bisection
    import normcount.minkowski as minkowski

    calls = []
    real = minkowski._gauge_and_gradient

    def counting(M, X):
        calls.append(len(X))
        return real(M, X)

    monkeypatch.setattr(minkowski, "_gauge_and_gradient", counting)
    nc.hexagon_ratio_tau(make())
    assert 0 < len(calls) <= 64


def _newton_and_bisected_v(M, ts, monkeypatch):
    """v of ``_hexagon_objectives`` at each u-parameter in ts, from the
    newton it calls, and v from 64 halvings of gauge(v - u) < 1."""
    import normcount.minkowski as minkowski

    found = []
    real = minkowski.newton

    def recording(f, lo, hi):
        found.append(real(f, lo, hi))
        return found[-1]

    monkeypatch.setattr(minkowski, "newton", recording)
    half = _half_period(M)
    objectives = _hexagon_objectives(M, ts, half, 1.0)
    u = _boundary_walk(M.body, ts)[0]
    bisected = oracles.bisect(
        lambda t: nc.gauge_batch(M, _boundary_walk(M.body, t)[0] - u) < 1.0, ts, ts + half)
    return (u, _boundary_walk(M.body, found[0])[0], _boundary_walk(M.body, bisected)[0],
            objectives)


@pytest.mark.parametrize("name", sorted(HEXAGON_NORMS))
def test_hexagon_v_by_newton_matches_bisection(name, monkeypatch):
    # u at random parameters and, on polygons, at every vertex; on the
    # regular hexagon v - u sits on a vertex of M, a kink of the gauge
    M = HEXAGON_NORMS[name]()
    ts = np.random.default_rng(29).uniform(0.0, 2.0 * _half_period(M), 50)
    if not M.is_smooth:
        ts = np.concatenate([ts, M.body.vertex_arclengths[:-1]])
    u, v, want, objectives = _newton_and_bisected_v(M, ts, monkeypatch)
    assert np.allclose(v, want, rtol=0.0, atol=1e-12)
    assert np.allclose(objectives, 3.0 * np.abs(cross2(u, want)), rtol=0.0, atol=1e-12)


def test_hexagon_v_on_the_square_plateau(monkeypatch):
    # u at an edge midpoint of the square: gauge(v - u) = 1 along half of
    # the next edge, which is parallel to u, so v may stop anywhere there,
    # and cross(u, v) = 1 for each such v
    M = _poly_ball("square")
    ts = np.array([1.0, 3.0, 5.0, 7.0])
    u, v, want, objectives = _newton_and_bisected_v(M, ts, monkeypatch)
    assert np.allclose(nc.gauge_batch(M, v - u), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(objectives, 3.0, rtol=0.0, atol=1e-12)
    assert np.allclose(3.0 * np.abs(cross2(u, want)), 3.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("alpha, scale", [(0.0, 1.0), (0.3, 1.7), (1.0, 0.6),
                                          (2.5, 1e-3), (-0.7, 1e3)])
def test_tau_of_rotated_scaled_hexagons_is_one(alpha, scale):
    ang = alpha + np.arange(6) * (np.pi / 3.0)
    M = nc.NormBall2(nc.build_polygon(scale * np.column_stack([np.cos(ang), np.sin(ang)])))
    tau = nc.hexagon_ratio_tau(M)
    assert 1.0 - 1e-12 <= tau <= 1.0 + 1e-15


@pytest.mark.parametrize("make, want", [
    (_degree6_ball, 0.8343848436626603),
    (lambda: nc.NormBall2(nc.SmoothBody2(1.0, [0.0, 0.0, 0.0, 0.03], [])), 0.8237959414437415),
    (lambda: nc.NormBall2(oracles.random_symmetric_polygon(np.random.default_rng(5), 7)),
     0.8473232107996413),
])
def test_tau_refinement_does_not_depend_on_coarse(make, want):
    # want: tau at coarse 720 by 20 refinement rounds of 8 points, which
    # gave the same values at coarse 24 to 4e-16 on these norms
    M = make()
    coarse, fine = nc.hexagon_ratio_tau(M, coarse=24), nc.hexagon_ratio_tau(M, coarse=720)
    assert coarse == pytest.approx(fine, abs=1e-12)
    assert fine == pytest.approx(want, abs=1e-12)
    assert coarse == pytest.approx(want, abs=1e-12)
