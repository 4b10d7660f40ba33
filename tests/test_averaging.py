"""Monte Carlo averaging of pointwise counters, and the exact averages."""

import math

import numpy as np
import pytest

import normcount as nc
from normcount import trigcount

import oracles


UNIT_SQUARE = [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]


def test_disk_normal_average_has_zero_variance():
    rep = nc.estimate_interior_average(nc.disk(1.0), "normals", 2000, seed=1)
    assert rep.mean == 2.0
    assert rep.std_error == 0.0
    assert rep.ci95 == (2.0, 2.0)
    assert rep.samples_used == 2000


def test_square_normal_average_is_exact_eight():
    P = nc.build_polygon(UNIT_SQUARE)
    rep = nc.estimate_interior_average(P, "normals", 1000, seed=2)
    assert rep.mean == 8.0
    assert rep.std_error == 0.0
    assert rep.exact == pytest.approx(8.0, abs=1e-12)


def test_polygon_report_carries_exact_value():
    rng = np.random.default_rng(7)
    P = oracles.random_convex_polygon(rng, 6)
    _, n = nc.exact_average_normals(P)
    rep = nc.estimate_interior_average(P, "normals", 5000, seed=3)
    assert rep.exact == pytest.approx(n, abs=1e-12)
    assert abs(rep.mean - n) < 4 * rep.std_error + 1e-12


# h = 1 + .3 cos 2t and h = 1 + .25 cos 2t + .02 sin 3t: evolutes leave K, so
# (rho - L)_+ has kinks; the lens and the offset Reuleaux triangle have chords
# whose exit piece changes along an arc; a Reuleaux polygon's arc centres lie
# on its boundary, so r - L is zero up to rounding
KINKED = {"cos2=.3": lambda: nc.SmoothBody2(1.0, [0.0, 0.3]),
          "cos2=.25,sin3=.02": lambda: nc.SmoothBody2(1.0, [0.0, 0.25], [0.0, 0.0, 0.02]),
          "lens": oracles.lens, "offset_reuleaux": oracles.offset_reuleaux,
          "reuleaux3": lambda: nc.build_reuleaux(3, 1.0), "reuleaux5": lambda: nc.build_reuleaux(5)}


@pytest.mark.parametrize("body, want", [
    (nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04]), 90 / 41),
    (nc.SmoothBody2(1.0, [0.0, 0.0, 0.05]), 24 / 11),
    (nc.build_reuleaux(3, 1.0), 2 * math.pi / (math.pi - math.sqrt(3.0))),
    (nc.build_reuleaux(5), math.pi / nc.build_reuleaux(5).area()),
], ids=["generic", "cos3=.05", "reuleaux3", "reuleaux5"])
def test_exact_normal_averages_are_pinned(body, want):
    assert nc.exact_average(body, "normals") == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("name", ["cos2=.3", "cos2=.25,sin3=.02", "lens", "offset_reuleaux"])
def test_exact_normal_averages_match_monte_carlo(name):
    rep = nc.estimate_interior_average(KINKED[name](), "normals", 100000, seed=1)
    assert rep.method == "exact"
    assert abs(rep.mean - rep.exact) <= 4.0 * rep.std_error


@pytest.mark.parametrize("name", sorted(KINKED))
def test_doubling_the_gauss_order_moves_exact_averages_below_1e12(name, monkeypatch):
    body = KINKED[name]()
    n, n_surf = nc.normal_means(body)
    assert nc.exact_average(body, "normals") == n
    monkeypatch.setattr(trigcount, "GAUSS_ORDER", 2 * trigcount.GAUSS_ORDER)
    fine_n, fine_surf = nc.normal_means(body)
    assert abs(fine_n - n) < 1e-12
    # the lens's 1/c is singular just past its arc ends, where the chord's
    # exit runs towards tangency with the other arc; end panels absorb it
    assert abs(fine_surf - n_surf) < 1e-12


def test_normal_means_need_a_smooth_or_arc_body():
    with pytest.raises(nc.UnsupportedCombinationError):
        nc.normal_means(nc.build_polygon(UNIT_SQUARE))


def test_only_normals_have_exact_averages():
    body = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])
    for counter in ("diameters", nc.minkowski_counter(nc.NormBall2(nc.disk(1.0)))):
        rep = nc.estimate_interior_average(body, counter, 500, seed=1)
        assert rep.exact is None and rep.method == "mc"
        assert nc.exact_average(body, counter) is None


def test_boundary_average_square_is_eight():
    P = nc.build_polygon(UNIT_SQUARE)
    rep = nc.estimate_boundary_average(P, "normals", 500, seed=4)
    assert rep.mean == 8.0
    assert rep.std_error == 0.0


def test_boundary_average_smooth_evolute_inside_is_two():
    B = nc.SmoothBody2(1.0, (0.0, 0.02))
    rep = nc.estimate_boundary_average(B, "normals", 400, seed=5)
    assert rep.mean == 2.0
    assert rep.std_error == 0.0
    assert rep.exact == 2.0 and rep.method == "exact"


def test_boundary_average_full_circle_arc_is_two():
    C = nc.ArcBody2([nc.Arc((0.0, 0.0), 1.0, 0.0, 2 * math.pi)])
    rep = nc.estimate_boundary_average(C, "normals", 400, seed=5)
    assert rep.mean == 2.0
    assert rep.std_error == 0.0
    assert rep.exact == 2.0


@pytest.mark.parametrize("name", ["reuleaux3", "reuleaux5", "offset_reuleaux"])
def test_arc_bodies_of_constant_width_have_exact_boundary_mean_two(name):
    # every normal chord has the width, which no radius exceeds
    rep = nc.estimate_boundary_average(KINKED[name](), "normals", 400, seed=5)
    assert rep.exact == 2.0


def test_lens_boundary_mean_matches_monte_carlo():
    rep = nc.estimate_boundary_average(oracles.lens(), "normals", 100000, seed=1)
    # the converged value: Gauss orders 32 to 256 agree to 3e-15
    assert rep.exact == pytest.approx(2.7758198092731483, abs=1e-12)
    assert abs(rep.mean - rep.exact) <= 4.0 * rep.std_error


def test_reports_are_deterministic():
    B = nc.SmoothBody2(1.0, (0.0, 0.06), (0.02,))
    a = nc.estimate_interior_average(B, "normals", 2000, seed=11)
    b = nc.estimate_interior_average(B, "normals", 2000, seed=11)
    assert a == b
    c = nc.estimate_interior_average(B, "normals", 2000, seed=12)
    assert c.mean != a.mean  # different stream actually differs


def test_degenerate_points_are_resampled():
    # diameter counter is degenerate at the disk center; the report must
    # resample rather than silently keep flagged values
    rep = nc.average_diameters(nc.disk(1.0), 500, seed=8)
    assert rep.mean == 1.0
    assert rep.degenerate_resampled >= 0
    assert rep.samples_used == 500


def test_minimum_sample_size_enforced():
    with pytest.raises(nc.DomainError):
        nc.estimate_interior_average(nc.disk(1.0), "normals", 50, seed=0)


_SMOOTH = nc.SmoothBody2(1.0, [0.0, 0.08], [0.0, 0.0, 0.04])


@pytest.mark.parametrize("call", [
    lambda n: nc.estimate_interior_average(_SMOOTH, "normals", n, 1),
    lambda n: nc.estimate_boundary_average(_SMOOTH, "normals", n, 1),
    lambda n: nc.sample_interior2(_SMOOTH, n, 1),
    lambda n: nc.sample_boundary2(_SMOOTH, n, 1),
    lambda n: nc.sample_interior3(nc.standard_polytope("cube"), n, 1),
], ids=["estimate_interior", "estimate_boundary", "interior2", "boundary2", "interior3"])
def test_sample_counts_must_be_integers(call):
    # one rule for every sampler and estimator, checked before any draw
    with pytest.raises(nc.DomainError,
                       match=r"^sample count must be an integer >= \d+, got 1000.0$"):
        call(1000.0)
    with pytest.raises(nc.DomainError, match=r"^sample count must be an integer"):
        call(-1)


def test_unknown_counter_rejected():
    with pytest.raises(nc.UnsupportedCombinationError):
        nc.estimate_interior_average(nc.disk(1.0), "widgets", 500, seed=0)


def test_minkowski_counter_needs_norm_ball():
    with pytest.raises(nc.UnsupportedCombinationError):
        nc.estimate_interior_average(nc.disk(1.0), "minkowski", 500, seed=0)


def test_boundary_average_rejects_polytopes():
    with pytest.raises(nc.UnsupportedCombinationError):
        nc.estimate_boundary_average(
            nc.standard_polytope("cube"), "normals", 500, seed=0)


def test_field_map_square_is_constant_eight():
    P = nc.build_polygon(UNIT_SQUARE)
    F = nc.field_map(P, (16, 12))
    assert F.shape == (12, 16)
    inside = F[F >= 0]
    assert len(inside) > 0
    assert np.all(inside == 8)
    assert np.all((F == 8) | (F == -1))


def test_field_map_disk_marks_center_degenerate():
    F = nc.field_map(nc.disk(1.0), (41, 41))
    assert F[20, 20] == -2  # exact center cell
    inside = F[(F >= 0)]
    assert np.all(inside == 2)


def test_field_map_diameters_counter():
    F = nc.field_map(nc.disk(1.0), (21, 21), counter="diameters")
    inside = F[F >= 0]
    assert np.all(inside == 1)


def test_interior_average_matches_exact_on_cube():
    P = nc.standard_polytope("cube")
    rep = nc.estimate_interior_average(P, "normals", 2000, seed=6)
    assert rep.mean == 26.0
    assert rep.std_error == 0.0
