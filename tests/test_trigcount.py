"""The certified sign-change kernel behind the three smooth counters."""

import math

import numpy as np
import pytest

import normcount as nc
from normcount import bodies2d, diameters, minkowski, normals, trigcount
from normcount.rng import philox_generator

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


def _table(degree, *terms):
    """A line table from (row, k, c_k) terms: row 0 is the constant, rows 1
    and 2 the slopes in x and y, and cos k theta has c_k = 1/2."""
    table = np.zeros((3, degree + 1), dtype=complex)
    for row, k, c in terms:
        table[row, k] = c
    return table


def test_kernel_counts_roots_of_known_polynomials():
    # cos(k theta) - x has 2k simple roots for |x| < 1, k of them descending
    a = np.array([0.0, 0.3, -0.9, 0.999])
    for k in (1, 2, 5, 9):
        total, down, flags = trigcount.count_roots(
            _table(k, (0, k, 0.5), (1, 0, -1.0)), np.column_stack([a, 0 * a]), 1.0)
        assert not flags.any()
        assert np.all(total == 2 * k) and np.all(down == k)
    # |y| > |x|: x cos(3 theta) + y has no roots at all; a constant is
    # flagged, it has no oscillation
    total, _, flags = trigcount.count_roots(
        _table(3, (1, 3, 0.5), (2, 0, 1.0)), [[1.0, 1.5], [0.0, 0.2]], 1.0)
    assert total[0] == 0 and not flags[0]
    assert flags[1] and total[1] == nc.DEGENERATE


def test_kernel_flags_a_double_root():
    # x - cos(theta) at x = 1 touches zero at theta = 0 without crossing
    total, _, flags = trigcount.count_roots(
        _table(1, (0, 1, -0.5), (1, 0, 1.0)), [[1.0, 0.0], [1.0 + 1e-3, 0.0]], 1.0)
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


def _kernels(body):
    """Each smooth counter's line table of ``body`` as the counter builds
    it, its direction d(theta) and its scale."""
    disk = _disk_ball()
    return {
        "normals": (normals._lines(body), bodies2d.unit, body.scale),
        "diameters": (diameters._lines(body),
                      lambda th: body.boundary(th + math.pi) - body.boundary(th), body.scale**2),
        "minkowski-disk": (minkowski._lines(disk, body), disk.body.boundary, body.scale),
        "minkowski": (minkowski._lines(SMOOTH_BALL, body), SMOOTH_BALL.body.boundary,
                      body.scale * SMOOTH_BALL.body.scale),
    }


def _near_evolute(body, offsets=(1e-10, 1e-9, 1e-8, 1e-7), angles=16):
    """Interior points offset from the evolute along its normal u_perp (its
    tangent at c(theta) is the normal line), by the given multiples of the
    scale on either side: there the normal count is flagged or barely
    certified."""
    theta = np.arange(angles) * (2 * math.pi / angles) + 0.1
    c, n = body.curvature_center(theta), bodies2d.unit(theta + 0.5 * math.pi)
    pts = np.concatenate([c + s * body.scale * n for x in offsets for s in (x, -x)])
    return pts[nc.contains2_batch(body, pts, -1e-9 * body.scale)]


@pytest.mark.parametrize("body", [GENERIC, DEG8, EVOLUTE_OUTSIDE],
                         ids=["generic", "deg8", "evolute_outside"])
def test_line_tables_match_the_sampled_oracle(body):
    pts = np.concatenate([nc.sample_interior2(body, 20000, seed=32), _near_evolute(body)])
    for name, (table, d, scale) in _kernels(body).items():
        sampled = oracles.sampled_lines(body, d, table.shape[1] - 1)
        assert np.max(np.abs(table - sampled)) < 1e-15 * scale, name
        ours, theirs = trigcount.count_roots(table, pts, scale), \
            trigcount.count_roots(sampled, pts, scale)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b), name
        if name == "normals":  # the probes reach the flagged band
            assert ours[2].any() and not ours[2].all()


def test_root_angles_are_the_roots_count_roots_counts():
    pts = nc.sample_interior2(GENERIC, 300, seed=24)
    kernels = _kernels(GENERIC)
    for name, (table, d, scale) in kernels.items():
        total, down, flags = trigcount.count_roots(table, pts, scale)
        assert not flags.any(), name
        for p, t, dn in zip(pts, total, down):
            angles, descending = trigcount.root_angles(table, p, scale)
            assert len(angles) == t and np.count_nonzero(descending) == dn, name
            assert np.all(np.diff(angles) > 0) and 0.0 <= angles[0] and angles[-1] < 2 * math.pi
            g = bodies2d.cross2(d(angles), p - GENERIC.boundary(angles))
            assert np.max(np.abs(g)) < 1e-12 * scale, name
    # a point the counters flag has no root angles
    c = GENERIC.curvature_center(0.3)
    table, _, scale = kernels["normals"]
    assert trigcount.root_angles(table, c, scale) is None


def test_birkhoff_lines_of_the_unit_disk_are_the_normal_lines():
    # r_M(theta) = u(theta) exactly when M is the unit disk, so the Birkhoff
    # table is the Euclidean one in its leading columns, and 0 beyond them
    euclid = normals._lines(DEG8)
    birkhoff = minkowski._lines(_disk_ball(), DEG8)
    width = euclid.shape[1]
    assert np.array_equal(birkhoff[:, :width], euclid)
    assert not birkhoff[:, width:].any()
    # with d = u, G is <p - r, u'>, whose descending roots are the stable feet
    pts = nc.sample_interior2(DEG8, 500, seed=31)
    theta = np.arange(64) * (2 * math.pi / 64)
    up = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    want = np.einsum("ijk,jk->ij", pts[:, None, :] - DEG8.boundary(theta)[None], up)
    assert np.max(np.abs(oracles.line_values(euclid, pts, theta) - want)) < 1e-13 * DEG8.scale


# ---------------------------------------------------------------------------
# newton, the root finder of root_angles, smooth chords and arclength inverses

ORACLE_BODIES = {
    "generic": GENERIC, "cos2=.3": nc.SmoothBody2(1.0, [0.0, 0.3]), "deg8": DEG8,
    "deg4": nc.SmoothBody2(1.0, [0.0, 0.01, 0.004, 0.002], [0.0, 0.0, 0.005, 0.003]),
    "off_centre": nc.SmoothBody2(2.0, [0.1, 0.15], [0.05, 0.0, 0.06])}
NORMS = [_disk_ball(), nc.NormBall2(nc.SmoothBody2(1.0, [0.0, 0.15]))]


def _use_solver(monkeypatch, solver):
    """Replace newton wherever the package calls it."""
    from normcount import bodies2d
    for module in (trigcount, bodies2d):
        monkeypatch.setattr(module, "newton", solver)


def _or_none(fn, *args):
    try:
        return fn(*args)
    except nc.DegenerateConfigurationError:
        return None


def _solve_all(body, pts):
    """Per point its feet (or None where flagged) and the Minkowski roots of
    each norm in NORMS; then the normal angles of 2000 boundary samples."""
    rows = [(_or_none(nc.normal_feet2, body, p),
             [_or_none(nc.refine_mink_roots, M, body, p) for M in NORMS]) for p in pts]
    return rows, nc.sample_boundary2(body, 2000, seed=27)[1]


def _angle_gap(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(d, 2 * math.pi - d)


@pytest.mark.parametrize("name", ORACLE_BODIES)
def test_newton_agrees_with_bisection_oracle(name, monkeypatch):
    body = ORACLE_BODIES[name]
    pts = nc.sample_interior2(body, 200, seed=26)
    rows, boundary = _solve_all(body, pts)
    _use_solver(monkeypatch, oracles.bracket_bisection)
    want_rows, want_boundary = _solve_all(body, pts)
    assert np.max(np.abs(boundary - want_boundary)) <= 1e-14
    solved = 0
    for p, (feet, roots), (want_feet, want_roots) in zip(pts, rows, want_rows):
        assert (feet is None) == (want_feet is None)
        for got, want in zip(roots, want_roots):
            assert (got is None) == (want is None)
            if got is not None:
                assert len(got) == len(want) and np.all(_angle_gap(got, want) <= 1e-14)
        if feet is None:
            continue
        solved += 1
        assert len(feet) == len(want_feet)
        for f, w in zip(feet, want_feet):
            assert f.index == w.index and _angle_gap(f.source[1], w.source[1]) <= 1e-14
            # a chord is ill-conditioned in its foot angle, by about
            # chord/|p - q|: the bound widens for feet within 1e-2*scale of p
            reach = max(1.0, 1e-2 * body.scale / np.linalg.norm(p - f.foot))
            assert abs(f.chord_length - w.chord_length) <= 1e-12 * body.scale * reach
    assert solved >= 190


@pytest.mark.parametrize("slope", [lambda t: -np.sin(t), lambda t: np.sin(t),
                                   lambda t: 0.0 * t, lambda t: np.nan * t],
                         ids=["true", "wrong_sign", "zero", "nan"])
def test_newton_keeps_the_bracketed_root_whatever_the_slope(slope):
    # cos has its only root in each bracket at pi/2; the last row is
    # oriented hi < lo, with -cos > 0 on its lo side
    lo = np.array([0.1, 1.0, 1.2, 1.5707963, 3.0])
    hi = np.array([2.0, 2.0, 3.0, 1.5707964, 0.5])
    sign = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    got = trigcount.newton(lambda t, rows: (sign[rows] * np.cos(t), sign[rows] * slope(t)),
                           lo, hi)
    assert np.all(np.abs(got - math.pi / 2) <= np.spacing(math.pi / 2))


def test_feet_chord_and_minkowski_solves_take_at_most_16_evaluations(monkeypatch):
    evaluations = []
    newton = trigcount.newton

    def counting(f, lo, hi):
        calls = [0]

        def counted(t, rows):
            calls[0] += 1
            return f(t, rows)

        root = newton(counted, lo, hi)
        evaluations.append(calls[0])
        return root

    _use_solver(monkeypatch, counting)
    for p in nc.sample_interior2(GENERIC, 300, seed=24):
        nc.normal_feet2(GENERIC, p)  # the feet, then their chords
        for M in (SMOOTH_BALL, _disk_ball()):
            nc.refine_mink_roots(M, GENERIC, p)
    assert len(evaluations) == 4 * 300
    assert max(evaluations) <= 16


@pytest.mark.parametrize("name", ["generic", "deg8", "off_centre"])
def test_inscribe_polygon_takes_at_most_16_evaluations(name, monkeypatch):
    # fractions 0 and 1 are bracket ends: their rows stop at the first
    # evaluation, with r(0) as an exact vertex
    body = ORACLE_BODIES[name]
    evaluations = [0]
    newton = trigcount.newton

    def counting(f, lo, hi):
        def counted(t, rows):
            evaluations[0] += 1
            return f(t, rows)

        return newton(counted, lo, hi)

    _use_solver(monkeypatch, counting)
    poly = nc.inscribe_polygon(body, 64)
    assert evaluations[0] <= 16
    assert np.all(poly.vertices == body.boundary(0.0), axis=1).any()
    fractions = np.array([0.0, 0.25, 0.5, 1.0])
    theta = body.arclength_inverse(fractions)
    assert theta[0] == 0.0 and theta[-1] == 2 * math.pi
    assert np.array_equal(theta[1:-1], body.arclength_inverse(fractions[1:-1]))


def test_a_stalled_arclength_row_costs_passes_over_itself_alone(monkeypatch):
    # one row of this solve (row 21343, theta near 2.47) takes 357
    # evaluations: near its root s - arclength_to is rounding noise, so its
    # Newton steps stay a few ulp long and never meet the stop; the rest
    # take 6.5 on average, so evaluating every row on every pass took 28 s
    body = nc.SmoothBody2(1.0, [0.0, 0.3])
    fractions = philox_generator(1).random(200000)
    evaluated = [0]
    arclength_to = nc.SmoothBody2.arclength_to

    def counted(self, theta):
        evaluated[0] += np.size(theta)
        return arclength_to(self, theta)

    monkeypatch.setattr(nc.SmoothBody2, "arclength_to", counted)
    theta = body.arclength_inverse(fractions)
    assert evaluated[0] <= 7 * len(fractions)
    monkeypatch.setattr(bodies2d, "newton", oracles.bracket_bisection)
    some = np.r_[21343, 0:len(fractions):100]  # rows are solved independently
    assert np.max(np.abs(theta[some] - body.arclength_inverse(fractions[some]))) <= 8.9e-15
