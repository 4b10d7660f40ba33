"""Certified root counts of real trigonometric polynomials, batched by point.

The smooth counters (normals, affine diameters, Minkowski normals) each
reduce, at a query point p = (x, y), to the zeros on the circle of one line
function g_p(theta) = cross(d(theta), p - r(theta)), a real trigonometric
polynomial of degree at most N.  It is affine in p, so its coefficients
c_0..c_N (g = Re sum_k w_k c_k exp(i k theta), w_0 = 1, w_k = 2) are
[1, x, y] @ table for one complex (3, N + 1) table per body and direction d
(``SmoothBody2.lines``), one matmul per block of points.  A zero-padded
irfft then gives g and g' on a grid of spacing delta, offset by half a step
so that a symmetric query point never puts a root on the grid, with the
first column repeated at the end so that interval j runs from column j to
column j + 1.

A grid interval is settled when g' has no zero on it (g is monotone there,
so it holds a root exactly when its end values differ in sign) or when g has
no zero on it.  That a function f has no zero on an interval follows from its
end values and the bounds max|f^(m)| <= sum_k k^m |c_k| of its derivatives:

    |f(a)| + |f(b)| > delta * max|f'|, or
    f(a), f(b) of one sign and min(|f(a)|, |f(b)|) > delta^2 / 8 * max|f''|,

each side widened by a rounding allowance.  When every interval is settled and
no grid value of g lies within the allowance of zero, the sign changes of g
are its roots, and the descending changes are the roots where g falls.

Unsettled points move to the doubled grid, up to ``MAX_GRID``; each level runs
in blocks whose rows times grid size is bounded, so memory does not grow with
the number of points.  Points still unsettled at ``MAX_GRID`` (within about
1e-9 of a double root, i.e. on the evolute), and points where g has no
oscillating part, are reported as ``DEGENERATE``.  The starting grid only
changes how much work a count takes, never the count.

``root_angles`` finds the roots themselves for one point: it settles the
point exactly as ``count_roots`` does and refines each sign change of the
grid that certified the count by ``newton`` on its interval, where g is
proven monotone, so it finds as many roots as are counted.  ``newton``
is the package's one bracketed root finder: smooth feet, Minkowski roots,
the normal chords of ``SmoothBody2.normal_chord``, the kinks of
``evolute.normal_means``, arclength inverses and the hexagon's second
vertex all have a slope at hand.  ``gauss_panels`` is the one
quadrature rule of the exact averages, ``GAUSS_ORDER`` Gauss-Legendre nodes
per panel between the kinks of an integrand.
``bodies2d`` certifies its containment margin with the grid and allowance
constants defined here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi
DEGENERATE = -2
MAX_GRID = 65536
_BLOCK = 1 << 20  # rows x grid values per evaluated block
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


def _coefficients(table: np.ndarray, pts: np.ndarray):
    """Coefficients c_0..c_N of each point's line function, [1, x, y] @
    ``table``, and lips[e] >= max|g^(e)| per row (e = 0 only measures
    oscillation)."""
    coef = table[0] + pts @ table[1:]
    amp = 2.0 * np.abs(coef[:, 1:])
    k = np.arange(1, coef.shape[1])
    return coef, np.stack([(amp * k**e).sum(axis=1, keepdims=True) for e in range(4)])


def _start_grid(degree: int) -> int:
    # 2N + 2 rounded up to a power of two: coarse grids settle most points
    # and only the rest refine
    return 1 << (2 * degree + 1).bit_length()


def _settle(coef: np.ndarray, lips: np.ndarray, tol: float, grid: int):
    """Yield (rows, grid, signs) per evaluated block: the rows of ``coef``
    settled on this grid and the signs g > 0 of those rows at its points,
    the first repeated at the end.

    Rows that no grid up to MAX_GRID settles are never yielded."""
    tol_d = (coef.shape[1] - 1) * tol
    active = np.flatnonzero(lips[0, :, 0] > tol)
    while len(active) and grid <= MAX_GRID:
        delta = TWO_PI / grid
        left = []
        for block in row_blocks(len(active), grid):
            idx = active[block]
            val, der = _grid_values(coef[idx], grid)
            lip = lips[:, idx]
            settled = (
                (np.abs(val[:, :-1]) > tol)
                & (_no_zero(der, delta, lip[2], lip[3], tol_d)
                   | _no_zero(val, delta, lip[1], lip[2], tol))
            ).all(axis=1)
            yield idx[settled], grid, val[settled] > 0
            left.append(idx[~settled])
        active = np.concatenate(left)
        grid *= 2


def count_roots(table: np.ndarray, pts: np.ndarray, scale: float):
    """Certified root counts on the circle of the line function of each
    point of ``pts``, whose coefficients are [1, x, y] @ ``table``.

    ``table`` is a complex (3, N + 1) array (``SmoothBody2.lines``); each
    row's trigonometric polynomial has degree at most N and terms of
    magnitude about ``scale``.  Returns (total, descending, flags): total
    is ``DEGENERATE`` where flags is set.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    start = _start_grid(table.shape[1] - 1)
    total = np.full(n, DEGENERATE, dtype=int)
    down = np.zeros(n, dtype=int)
    for rows in row_blocks(n, start):
        coef, lips = _coefficients(table, pts[rows])
        for idx, _, pos in _settle(coef, lips, _RTOL * scale, start):
            a, b = pos[:, :-1], pos[:, 1:]
            total[rows.start + idx] = np.count_nonzero(a != b, axis=1)
            down[rows.start + idx] = np.count_nonzero(a & ~b, axis=1)
    return total, down, total == DEGENERATE


def root_angles(table: np.ndarray, point, scale: float):
    """The roots of the line function of ``point`` counted by ``count_roots``.

    Returns (angles, descending): the root angles in [0, 2pi), ascending,
    and a mask of the roots where g falls; None where ``count_roots`` flags
    the point.  Each root is the sign change of one interval of the grid
    that certified the count, refined by ``newton`` with g and g' from one
    table of exp(i k theta) over its coefficients; g is monotone on that
    interval, so there are exactly as many roots as ``count_roots`` counts.
    """
    coef, lips = _coefficients(table, np.atleast_2d(np.asarray(point, dtype=float)))
    k = np.arange(coef.shape[1])
    weights = np.where(k > 0, 2.0, 1.0) * coef[0]
    terms = np.stack([weights, 1j * k * weights], axis=1)  # columns: g, g'
    for idx, grid, pos in _settle(coef, lips, _RTOL * scale, _start_grid(len(k) - 1)):
        if len(idx):
            pos = pos[0]
            j = np.flatnonzero(pos[:-1] != pos[1:])
            lo = (j + 0.5) * (TWO_PI / grid)
            sign = np.where(pos[j], 1.0, -1.0)  # g's sign on each lo side
            theta = newton(
                lambda t, rows: sign[rows] * (np.exp(1j * np.outer(t, k)) @ terms).real.T,
                lo, lo + TWO_PI / grid) % TWO_PI
            order = np.argsort(theta)
            return theta[order], pos[j][order]
    return None
