"""Certified root counts of real trigonometric polynomials, batched by point.

The smooth counters (normals, affine diameters, Minkowski normals) each
reduce, at a query point p = (x, y), to the zeros on the circle of one line
function g_p(theta) = cross(d(theta), p - r(theta)), a real trigonometric
polynomial of degree at most N.  It is affine in p, so its coefficients
c_0..c_N (g = Re sum_k w_k c_k exp(i k theta), w_0 = 1, w_k = 2) are
[1, x, y] @ table for one complex (3, N + 1) table per body and direction d
(``SmoothBody2.lines``), summed term by term per block of points.  A
zero-padded irfft then gives g and g' on a grid of spacing delta, offset by
half a step so that a symmetric query point never puts a root on the grid,
with the first column repeated at the end so that interval j runs from
column j to column j + 1.

A grid interval is settled when g' has no zero on it (g is monotone there,
so it holds a root exactly when its end values differ in sign) or when g has
no zero on it.  That a function f has no zero on an interval follows from its
end values and the bounds max|f^(m)| <= sum_k k^m |c_k| of its derivatives:

    |f(a)| + |f(b)| > delta * max|f'|, or
    f(a), f(b) of one sign and min(|f(a)|, |f(b)|) > delta^2 / 8 * max|f''|,

each side widened by a rounding allowance.  When every interval is settled and
no grid value of g lies within the allowance of zero, the sign changes of g
are its roots, and the descending changes are the roots where g falls.

Unsettled points move to the doubled grid.  From ``_LOCAL`` times the start
grid on, an interval in doubt where g'' has no zero is decided where it
lies: g' has at most one zero tc there (``newton``, slope g''), so its roots
are the sign changes of g(a), g(tc), g(b).  |g(tc)| is p's distance from the
envelope of the lines (the evolute, for normals), and a point with |g(tc)|
within the allowance, about 1e-12 of the scale, is flagged at once.  Where
g'' may vanish too (a cusp of the envelope) the grid doubles up to
``MAX_GRID``, where the rest are flagged, as are points where g has no
oscillating part.  Blocks of rows hold at most ``_BLOCK`` values.  The
starting grid only changes how much work a count takes, never the count.

``root_angles`` refines the roots of many points by one ``newton``, each in
its bracket of ``_brackets``, where g is monotone; ``bodies2d`` reads the
support excess off the same brackets.  ``newton`` is the package's one
bracketed root finder: smooth feet, Minkowski roots, the normal chords of
``SmoothBody2.normal_chord``, the kinks of ``evolute.normal_means``,
arclength inverses and the hexagon's second vertex all have a slope at hand.
``gauss_panels`` is the one quadrature rule of the exact averages,
``GAUSS_ORDER`` Gauss-Legendre nodes per panel between the kinks of an
integrand.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi
DEGENERATE = -2
MAX_GRID = 65536
_LOCAL = 16  # the local step starts on 16 times the start grid
_BLOCK = 1 << 20  # values a block of rows holds at once
_HELD = 12  # values a row of ``_settle`` holds at once per grid point
_RTOL = 1e-12  # rounding allowance, relative to the scale of g's terms
GAUSS_ORDER = 32  # Gauss-Legendre nodes per panel of ``gauss_panels``


def row_blocks(n: int, width: int) -> list[slice]:
    """Slices covering range(n) in blocks of at most ``_BLOCK // width``
    rows (at least one), so that a block of rows holding ``width`` values
    each stays within ``_BLOCK`` values."""
    rows = max(1, _BLOCK // width)
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


@lru_cache(maxsize=4)
def _legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def gauss_panels(lo, hi):
    """Nodes and weights of the ``GAUSS_ORDER``-point Gauss-Legendre rule on
    each panel [lo[i], hi[i]], as two arrays of shape (panels, order): the
    weighted sum of an integrand analytic on each panel is its integral to
    rounding.  The nodes of an order are built on its first use."""
    x, w = _legendre(GAUSS_ORDER)
    lo = np.asarray(lo, dtype=float)[:, None]
    half = 0.5 * (np.asarray(hi, dtype=float)[:, None] - lo)
    return lo + half * (x + 1.0), half * w


def newton(f, lo, hi) -> np.ndarray:
    """Safeguarded Newton iteration on the brackets [lo[i], hi[i]].

    ``f(t, rows)`` returns (value, slope) at t for the brackets of the
    index array ``rows`` (into the flattened brackets), with value > 0 on
    the ``lo`` side of the crossing.  Only the rows not yet stopped are
    evaluated, so a slow row costs passes over itself alone.  Each evaluated t becomes the end of its side, so the
    bracket always keeps the sign change, and the next t is the Newton step
    where that lands strictly inside the bracket, the midpoint otherwise: a
    slope of the wrong sign, zero or NaN costs halvings, never the root.  A
    row stops when a Newton step that points into its bracket is at most
    4 ulp of the larger end of its first bracket (applied when it lands
    inside), when its value is exactly 0, or when no double lies strictly
    between its ends.  The result has the shape of the brackets.
    """
    shape = np.shape(lo)
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    tiny = 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    t = 0.5 * (lo + hi)
    rows = np.arange(t.size)
    while rows.size:
        now = t[rows]
        val, slope = f(now, rows)
        pos = val > 0
        lo[rows] = a = np.where(pos, now, lo[rows])
        hi[rows] = b = np.where(pos, hi[rows], now)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = val / slope
            nxt = now - step
            inside = (nxt - a) * (nxt - b) < 0
            mid = 0.5 * (a + b)
            ahead = step * (now - mid) > 0  # the step points into the bracket
        stop = (val == 0) | (ahead & (np.abs(step) <= tiny[rows])) | (mid == a) | (mid == b)
        t[rows] = np.where(inside, nxt, np.where(stop, now, mid))
        rows = rows[~stop]
    return t.reshape(shape)


def _no_zero(f: np.ndarray, delta: float, lip1: np.ndarray, lip2: np.ndarray,
             tol: float) -> np.ndarray:
    """Per grid interval (j, j+1): is f certainly free of zeros there?

    ``f`` holds the values at the grid, its first column repeated at the
    end, ``lip1`` and ``lip2`` bound |f'| and |f''| per row, ``tol`` is the
    rounding allowance of one value.
    """
    a = np.abs(f)
    lo, hi = a[:, :-1], a[:, 1:]
    pos = f > 0
    first = lo + hi > delta * lip1 + 2.0 * tol
    second = np.minimum(lo, hi) > (0.125 * delta * delta) * lip2 + tol
    return (pos[:, :-1] == pos[:, 1:]) & (first | second)


def _grid_values(coef: np.ndarray, grid: int) -> np.ndarray:
    """g and g' at theta_j = (j + 1/2) * 2pi/grid, j = 0..grid, the last
    column repeating the first; shape (2, rows, grid + 1)."""
    k = np.arange(coef.shape[1])
    spec = np.zeros((2, len(coef), grid // 2 + 1), dtype=complex)
    spec[0, :, :len(k)] = coef * (grid * np.exp(1j * np.pi / grid * k))
    spec[1, :, :len(k)] = spec[0, :, :len(k)] * (1j * k)
    out = np.empty((2, len(coef), grid + 1))
    np.fft.irfft(spec, n=grid, axis=-1, out=out[..., :grid])
    out[..., grid] = out[..., 0]
    return out


def _series(coef: np.ndarray, orders):
    """f(t, rows) -> [g^(e)(t) for e in orders] of the line functions with
    coefficients ``coef[rows]``, one matmul per row to round alike in any batch."""
    k = np.arange(coef.shape[1])
    terms = coef[..., None] * (np.where(k > 0, 2.0, 1.0) * (1j * k) ** np.array(orders)[:, None]).T
    return lambda t, rows: np.matmul(np.exp(1j * np.outer(t, k))[:, None], terms[rows])[:, 0].real.T


def _coefficients(table: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Coefficients c_0..c_N of each point's line function, [1, x, y] @
    ``table`` term by term (a matmul may round a row unlike another batch)."""
    return table[0] + pts[:, :1] * table[1] + pts[:, 1:] * table[2]


def _start_grid(degree: int) -> int:
    # 2N + 2 rounded up to a power of two: coarse grids settle most points
    # and only the rest refine
    return 1 << (2 * degree + 1).bit_length()


_NO_NOTES = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))


def _local_step(coef, lip, val, der, ok, delta, tol, last):
    """(done, notes) of a block whose intervals the grid tests ``ok`` leave in
    doubt: a row is done on the last grid, or when it holds no grid value
    within the allowance and g'' has no zero on its intervals in doubt.  Of
    these, a valley (g of one sign s at both ends, s g' rising through 0)
    holds two roots where s g(tc) < 0: ``notes`` are their brackets (r, lo,
    hi, falls), and brackets of width 0 that flag row r, at tc where |g(tc)|
    is within the allowance and, on the last grid, mid-interval where g''
    may vanish too."""
    n = coef.shape[1] - 1
    near = np.abs(val) <= tol
    doubt = ~ok | near[:, :-1] | near[:, 1:]
    done = ~doubt.any(axis=1)
    u = np.flatnonzero(~done & (last | ~near.any(axis=1)))
    curv = _grid_values(coef[u] * -np.arange(n + 1) ** 2, val.shape[1] - 1)[0]
    i, j = np.nonzero(doubt[u])
    r = u[i]
    ok = _no_zero(curv, delta, lip[3][u], lip[4][u], n * n * tol)[i, j]
    ok &= ~near[r, j] & ~near[r, j + 1]
    done[u] = True
    done[r[~ok]] = last
    s = val[r, j] > 0
    valley = (ok & done[r] & ((val[r, j + 1] > 0) == s) & ((der[r, j] < 0) == s)
              & ((der[r, j + 1] > 0) == s))
    rv, a, s = r[valley], (j[valley] + 0.5) * delta, s[valley]
    cv = coef[rv] * np.where(s, 1.0, -1.0)[:, None]  # s g: positive at both ends, falling at a
    tc = newton(_series(-cv, (1, 2)), a, a + delta)
    gtc = _series(cv, (0,))(tc, slice(None))[0]
    two, flat = gtc < -tol, np.abs(gtc) <= tol
    lost = ~ok & done[r]
    mid = (j[lost] + 1.0) * delta
    return done, tuple(map(np.concatenate, zip(
        (rv[two], a[two], tc[two], s[two]), (rv[two], tc[two], a[two] + delta, ~s[two]),
        (rv[flat], tc[flat], tc[flat], flat[flat]), (r[lost], mid, mid, lost[lost]))))


def _settle(table: np.ndarray, pts: np.ndarray, scale: float):
    """Yield (rows, grid, signs, notes) per evaluated block: the points
    decided on this grid, the signs g > 0 at its points (the first repeated
    at the end) and ``_local_step``'s brackets, r a point.  Points where g
    has no oscillating part are never yielded."""
    tol, start = _RTOL * scale, _start_grid(table.shape[1] - 1)
    for outer in row_blocks(len(pts), _HELD * start):
        coef = _coefficients(table, pts[outer])
        amp = 2.0 * np.abs(coef[:, 1:])  # lips[e] >= max|g^(e)| per row (e = 0: oscillation)
        lips = sum(amp[:, [j]] * (j + 1) ** np.arange(5) for j in range(amp.shape[1])).T[..., None]
        active, grid = np.flatnonzero(lips[0, :, 0] > tol), start
        while len(active):
            delta = TWO_PI / grid
            left = []
            for block in row_blocks(len(active), _HELD * grid):
                idx = active[block]
                val, der = _grid_values(coef[idx], grid)
                lip = lips[:, idx]
                ok = (_no_zero(der, delta, lip[2], lip[3], (table.shape[1] - 1) * tol)
                      | _no_zero(val, delta, lip[1], lip[2], tol))
                done = ((np.abs(val[:, :-1]) > tol) & ok).all(axis=1)
                notes = _NO_NOTES
                if grid >= min(_LOCAL * start, MAX_GRID) and not done.all():
                    done, notes = _local_step(coef[idx], lip, val, der, ok, delta, tol,
                                              grid >= MAX_GRID)
                    notes = (outer.start + idx[notes[0]], *notes[1:])
                yield outer.start + idx[done], grid, val[done] > 0, notes
                left.append(idx[~done])
            active = np.concatenate(left)
            grid *= 2


def count_roots(table: np.ndarray, pts: np.ndarray, scale: float):
    """Certified root counts on the circle of the line function of each
    point of ``pts``, whose coefficients are [1, x, y] @ ``table``.

    ``table`` is a complex (3, N + 1) array (``SmoothBody2.lines``); each
    row's trigonometric polynomial has degree at most N and terms of
    magnitude about ``scale``.  Returns (total, descending, flags): total
    is ``DEGENERATE`` and descending 0 where flags is set.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    total = np.full(len(pts), DEGENERATE, dtype=int)
    down = np.zeros(len(pts), dtype=int)
    for rows, _, pos, (r, lo, hi, falls) in _settle(table, pts, scale):
        a, b = pos[:, :-1], pos[:, 1:]
        total[rows] = np.count_nonzero(a != b, axis=1)
        down[rows] = np.count_nonzero(a & ~b, axis=1)
        np.add.at(total, r, 1)  # the local step's brackets
        np.add.at(down, r, falls)
        total[r[lo == hi]], down[r[lo == hi]] = DEGENERATE, 0  # one of width 0 flags
    return total, down, total == DEGENERATE


def _brackets(table: np.ndarray, pts: np.ndarray, scale: float):
    """(rows, lo, hi, falls): each bracket [lo, hi] holds a root of point
    ``rows``'s line function, g > 0 at lo where g falls there, or flags the
    point (width 0).  A flagged point's sign change on an interval still in
    doubt may hide three roots."""
    found = [_NO_NOTES]
    for rows, grid, pos, notes in _settle(table, pts, scale):
        delta = TWO_PI / grid
        i, k = np.nonzero(pos[:, :-1] != pos[:, 1:])
        a = (k + 0.5) * delta
        found += [(rows[i], a, a + delta, pos[i, k]), notes]
    return tuple(map(np.concatenate, zip(*found)))


def root_angles(table: np.ndarray, pts, scale: float):
    """The roots of the line function of each point that ``count_roots``
    counts: (rows, angles, descending), per root its point, its angle in
    [0, 2pi) and whether g falls there, sorted by point and angle.  A point
    that ``count_roots`` flags has none; another has one root in each of its
    brackets of ``_brackets``, as many as are counted."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    rows, lo, hi, falls = _brackets(table, pts, scale)
    keep = np.bincount(rows[lo == hi], minlength=len(pts))[rows] == 0  # not flagged
    rows, lo, hi, falls = (x[keep] for x in (rows, lo, hi, falls))
    coef = _coefficients(table, pts[rows]) * np.where(falls, 1.0, -1.0)[:, None]
    angles = newton(_series(coef, (0, 1)), lo, hi) % TWO_PI
    order = np.lexsort((angles, rows))
    return rows[order], angles[order], falls[order]
