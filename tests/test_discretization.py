"""Inscribed polygons and the exact-vs-sampled counting race."""
import numpy as np
import pytest

import normcount as nc
from normcount import DomainError, UnsupportedCombinationError

import oracles


def _body():
    return nc.SmoothBody2(1.0, [0.0, 0.05, 0.02], [0.0, 0.0, 0.01])


def test_inscribe_polygon_vertices_on_boundary():
    body = _body()
    for k in (8, 33, 128):
        poly = nc.inscribe_polygon(body, k)
        assert len(poly.vertices) == k
        excess = nc.signed_boundary_excess(body, poly.vertices)
        assert np.max(np.abs(excess)) < 1e-9
        # inscribed: every vertex inside the body, polygon convex by build
        assert nc.contains2_batch(body, poly.vertices, tol=1e-9).all()


def test_inscribe_polygon_equal_arclength_spacing():
    body = _body()
    poly = nc.inscribe_polygon(body, 40)
    v = poly.vertices
    seg = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    # chord lengths approximate the constant arc step to second order
    assert np.std(seg) / np.mean(seg) < 2e-3


def test_inscribe_polygon_validation():
    with pytest.raises(DomainError):
        nc.inscribe_polygon(_body(), 2)
    square = nc.build_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(UnsupportedCombinationError):
        nc.inscribe_polygon(square, 8)


def test_inscribed_polygon_average_exceeds_smooth_average():
    # the discretization race: exact averages of fine inscribed polygons sit
    # strictly above the smooth body's exact average
    body = _body()
    rows = nc.discretization_race(body, [8, 32, 128])
    assert [r.k for r in rows] == [8, 32, 128]
    for row in rows:
        assert row.n_polygon == pytest.approx(
            nc.exact_average_normals(nc.inscribe_polygon(body, row.k))[1],
            abs=1e-12)
        assert row.n_body == nc.normal_means(body)[0]
        assert row.margin == row.n_polygon - row.n_body
    assert rows[-1].margin > 0.0  # fine polygons win the race


def test_race_determinism():
    body = _body()
    a = nc.discretization_race(body, [16, 64])
    b = nc.discretization_race(body, [16, 64])
    assert a == b


def test_race_on_disk_polygon_average_exceeds_two():
    # even for the disk (n identically 2) inscribed k-gons average above 4
    disk = nc.SmoothBody2(1.0, [], [])
    rows = nc.discretization_race(disk, [6, 24])
    assert rows[0].n_body == 2.0
    for row in rows:
        assert row.n_polygon > 4.0
        assert row.margin > 0.0
