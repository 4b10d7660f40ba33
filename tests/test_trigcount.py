"""The certified sign-change kernel behind the three smooth counters."""

import math

import numpy as np
import pytest

import normcount as nc
from normcount import trigcount

import oracles

DEG8 = nc.SmoothBody2(1.0, [0.0, 0.01, 0.004, 0.0, 0.0, 0.0, 0.0, 0.0008],
                      [0.0, 0.0, 0.005, 0.002, 0.0, 0.0, 0.001])
EVOLUTE_OUTSIDE = nc.SmoothBody2(1.0, [0.0, 0.25])
GENERIC = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])
SMOOTH_BALL = nc.NormBall2(nc.SmoothBody2(1.0, [0.0, 0.05], [0.0, 0.02]))


def _disk_ball(r=1.0):
    return nc.NormBall2(nc.disk(r))


def _normals(body, pts, **kw):
    total, stable, flags = nc.count_normals2_batch(body, pts, **kw)
    return np.stack([total, stable], axis=1), flags


# the three smooth counters as fn(body, pts, **kw) -> (counts, flags)
COUNTERS = {
    "normals": _normals,
    "diameters": nc.diameter_counts_batch,
    "minkowski": lambda body, pts, **kw: nc.mink_counts_batch(SMOOTH_BALL, body, pts, **kw),
}


def test_kernel_counts_roots_of_known_polynomials():
    # cos(k theta) - a has 2k simple roots for |a| < 1, k of them descending
    a = np.array([[0.0], [0.3], [-0.9], [0.999]])
    for k in (1, 2, 5, 9):
        total, down, flags = trigcount.count_roots(
            lambda q, th: np.cos(k * th)[None, :] - q, a, k, 1.0)
        assert not flags.any()
        assert np.all(total == 2 * k) and np.all(down == k)
    # |a| > 1: no roots at all; a constant is flagged, it has no oscillation
    total, _, flags = trigcount.count_roots(
        lambda q, th: np.cos(3 * th)[None, :] * q[:, :1] + q[:, 1:], [[1.0, 1.5], [0.0, 0.2]],
        3, 1.0)
    assert total[0] == 0 and not flags[0]
    assert flags[1] and total[1] == nc.DEGENERATE


def test_kernel_flags_a_double_root():
    # 1 - cos(theta) touches zero at theta = 0 without crossing
    total, _, flags = trigcount.count_roots(
        lambda q, th: q - np.cos(th)[None, :], [[1.0], [1.0 + 1e-3]], 1, 1.0)
    assert flags[0] and total[0] == nc.DEGENERATE
    assert not flags[1] and total[1] == 0


@pytest.mark.parametrize("body", [DEG8, EVOLUTE_OUTSIDE], ids=["deg8", "evolute_outside"])
def test_normals_match_dense_boundary_oracle(body):
    pts = nc.sample_interior2(body, 40, seed=21)
    total, stable, flags = nc.count_normals2_batch(body, pts)
    assert not flags.any()
    for p, t, s in zip(pts, total, stable):
        assert t == oracles.critical_count_2d(body, p)
        assert s == oracles.stable_critical_count_2d(body, p)


@pytest.mark.parametrize("body", [DEG8, EVOLUTE_OUTSIDE], ids=["deg8", "evolute_outside"])
def test_diameters_match_dense_sweep_oracle(body):
    pts = nc.sample_interior2(body, 25, seed=22)
    counts, flags = nc.diameter_counts_batch(body, pts)
    assert not flags.any()
    for p, c in zip(pts, counts):
        assert c == oracles.smooth_diameter_count(body, p)


@pytest.mark.parametrize("body", [DEG8, EVOLUTE_OUTSIDE], ids=["deg8", "evolute_outside"])
def test_disk_norm_minkowski_matches_dense_boundary_oracle(body):
    # in the Euclidean norm (any radius) Minkowski normals are the normals
    pts = nc.sample_interior2(body, 40, seed=23)
    counts, flags = nc.mink_counts_batch(_disk_ball(2.0), body, pts)
    assert not flags.any()
    for p, c in zip(pts, counts):
        assert c == oracles.critical_count_2d(body, p)


def test_oracle_bodies_have_varying_counts():
    # guards the three oracle tests above against trivial inputs
    for body in (DEG8, EVOLUTE_OUTSIDE):
        total, _, _ = nc.count_normals2_batch(body, nc.sample_interior2(body, 2000, seed=1))
        assert len(set(total.tolist())) >= 2
    assert not nc.contains_evolute(EVOLUTE_OUTSIDE)[0]
    assert DEG8.degree == 8


@pytest.mark.parametrize("name", ["normals", "diameters", "minkowski"])
def test_counts_do_not_depend_on_batching_or_start_grid(name, monkeypatch):
    fn = COUNTERS[name]
    pts = nc.sample_interior2(GENERIC, 300, seed=24)
    whole, flags = fn(GENERIC, pts)
    assert not flags.any()
    one_by_one = np.concatenate([fn(GENERIC, p[None, :])[0] for p in pts])
    assert np.array_equal(one_by_one, whole)
    order = np.random.default_rng(5).permutation(len(pts))
    assert np.array_equal(fn(GENERIC, pts[order])[0], whole[order])
    default = trigcount._start_grid
    for grid in (16, 100, 4096):
        monkeypatch.setattr(trigcount, "_start_grid", lambda degree: max(grid, default(degree)))
        assert np.array_equal(fn(GENERIC, pts)[0], whole)
    monkeypatch.setattr(trigcount, "_start_grid", default)
    # tiny evaluation blocks split every level of the kernel into many blocks
    monkeypatch.setattr(trigcount, "_BLOCK", 64)
    assert np.array_equal(fn(GENERIC, pts)[0], whole)


def test_curvature_centre_is_degenerate_for_normals_and_disk_norm():
    theta0 = 0.3
    eps = 1e-6
    rho_slope = (GENERIC.rho(theta0 + eps) - GENERIC.rho(theta0 - eps)) / (2 * eps)
    assert abs(rho_slope) > 1e-2  # theta0 is not a vertex of the body
    c = GENERIC.curvature_center(theta0)
    assert nc.contains2(GENERIC, c)
    total, _, nflags = nc.count_normals2_batch(GENERIC, [c])
    counts, mflags = nc.mink_counts_batch(_disk_ball(), GENERIC, [c])
    assert nflags[0] and total[0] == nc.DEGENERATE
    assert mflags[0] and counts[0] == nc.DEGENERATE
    # a point a little off the evolute is certified again by both
    off = c + 1e-3 * np.array([math.cos(theta0), math.sin(theta0)])
    total, _, nflags = nc.count_normals2_batch(GENERIC, [off])
    counts, mflags = nc.mink_counts_batch(_disk_ball(), GENERIC, [off])
    assert not nflags[0] and not mflags[0] and total[0] == counts[0]


def test_root_angles_are_the_roots_count_roots_counts():
    from normcount import diameters, minkowski, normals
    kernels = {
        "normals": (lambda q, th: normals._smooth_g(GENERIC, q, th),
                    max(1, GENERIC.degree), GENERIC.scale),
        "diameters": (lambda q, th: diameters._chord_g(GENERIC, q, th),
                      2 * GENERIC.degree + 2, GENERIC.scale**2),
        "minkowski": (lambda q, th: minkowski._mink_g(SMOOTH_BALL, GENERIC, q, th),
                      GENERIC.degree + SMOOTH_BALL.body.degree + 2,
                      GENERIC.scale * SMOOTH_BALL.body.scale),
    }
    pts = nc.sample_interior2(GENERIC, 300, seed=24)
    for name, (g, degree, scale) in kernels.items():
        total, down, flags = trigcount.count_roots(g, pts, degree, scale)
        assert not flags.any(), name
        for p, t, d in zip(pts, total, down):
            angles, descending = trigcount.root_angles(g, p, degree, scale)
            assert len(angles) == t and np.count_nonzero(descending) == d, name
            assert np.all(np.diff(angles) > 0) and 0.0 <= angles[0] and angles[-1] < 2 * math.pi
            assert np.max(np.abs(g(p[None, :], angles))) < 1e-12 * scale, name
    # a point the counters flag has no root angles
    c = GENERIC.curvature_center(0.3)
    g, degree, scale = kernels["normals"]
    assert trigcount.root_angles(g, c, degree, scale) is None
