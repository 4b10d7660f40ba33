"""Certified root counts of real trigonometric polynomials, batched by point.

The smooth counters (normals, affine diameters, Minkowski normals) each
reduce, at a query point p, to the zeros on the circle of a real
trigonometric polynomial g_p(theta) of known degree N.  2N + 2 equispaced
samples give its coefficients c_k exactly (an rfft with no aliasing); a
zero-padded irfft then gives g and g' on a grid of spacing delta, offset by
half a step so that a symmetric query point never puts a root on the grid.

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
point exactly as ``count_roots`` does and bisects the sign changes of the
grid that certified the count, so it finds as many roots as are counted.
"""

from __future__ import annotations

import numpy as np

from .bodies2d import TWO_PI, bisect

DEGENERATE = -2
MAX_GRID = 65536
_BLOCK = 1 << 20  # rows x grid values per evaluated block
_RTOL = 1e-12  # rounding allowance, relative to the scale of g's terms


def _no_zero(f: np.ndarray, delta: float, lip1: np.ndarray, lip2: np.ndarray,
             tol: float) -> np.ndarray:
    """Per grid interval (j, j+1): is f certainly free of zeros there?

    ``f`` holds the values at the grid, ``lip1`` and ``lip2`` bound |f'| and
    |f''| per row, ``tol`` is the rounding allowance of one value.
    """
    a = np.abs(f)
    b = np.roll(a, -1, axis=1)
    one_sign = (f > 0) == np.roll(f > 0, -1, axis=1)
    first = a + b > delta * lip1 + 2.0 * tol
    second = np.minimum(a, b) > (0.125 * delta * delta) * lip2 + tol
    return one_sign & (first | second)


def _grid_values(coef: np.ndarray, grid: int) -> np.ndarray:
    """g and g' at theta_j = (j + 1/2) * 2pi/grid; shape (2, rows, grid)."""
    k = np.arange(coef.shape[1])
    spec = np.zeros((2, len(coef), grid // 2 + 1), dtype=complex)
    spec[0, :, :len(k)] = coef * (grid * np.exp(1j * np.pi / grid * k))
    spec[1, :, :len(k)] = spec[0, :, :len(k)] * (1j * k)
    return np.fft.irfft(spec, n=grid, axis=-1)


def _coefficients(g, pts: np.ndarray, degree: int):
    """Exact coefficients c_0..c_N of each row of g, and lips[e] >= max|g^(e)|
    per row (e = 0 only measures oscillation)."""
    m = 2 * degree + 2
    thetas = np.arange(m) * (TWO_PI / m)
    coef = np.fft.rfft(g(pts, thetas), axis=1)[:, :degree + 1] / m
    amp = 2.0 * np.abs(coef[:, 1:])
    k = np.arange(1, degree + 1)
    return coef, np.stack([(amp * k**e).sum(axis=1, keepdims=True) for e in range(4)])


def _start_grid(degree: int) -> int:
    # the 2N + 2 samples rounded up to a power of two: coarse grids settle
    # most points and only the rest refine
    return 1 << (2 * degree + 1).bit_length()


def _settle(coef: np.ndarray, lips: np.ndarray, tol: float, grid: int):
    """Yield (rows, grid, signs) per evaluated block: the rows of ``coef``
    settled on this grid and the signs g > 0 of those rows at its points.

    Rows that no grid up to MAX_GRID settles are never yielded."""
    tol_d = (coef.shape[1] - 1) * tol
    active = np.flatnonzero(lips[0, :, 0] > tol)
    while len(active) and grid <= MAX_GRID:
        delta = TWO_PI / grid
        rows = max(1, _BLOCK // grid)
        left = []
        for b in range(0, len(active), rows):
            idx = active[b:b + rows]
            val, der = _grid_values(coef[idx], grid)
            lip = lips[:, idx]
            settled = (
                (np.abs(val) > tol)
                & (_no_zero(der, delta, lip[2], lip[3], tol_d)
                   | _no_zero(val, delta, lip[1], lip[2], tol))
            ).all(axis=1)
            yield idx[settled], grid, val[settled] > 0
            left.append(idx[~settled])
        active = np.concatenate(left)
        grid *= 2


def count_roots(g, pts: np.ndarray, degree: int, scale: float):
    """Certified root counts of ``theta -> g(pts, theta)[i]`` on the circle.

    ``g(pts, thetas)`` returns an array (len(pts), len(thetas)); each row
    must be a trigonometric polynomial of degree at most ``degree`` whose
    terms are of magnitude about ``scale``.  Returns (total, descending,
    flags): total is ``DEGENERATE`` where flags is set.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = len(pts)
    start = _start_grid(degree)
    total = np.full(n, DEGENERATE, dtype=int)
    down = np.zeros(n, dtype=int)
    chunk = max(1, _BLOCK // start)
    for lo in range(0, n, chunk):
        coef, lips = _coefficients(g, pts[lo:lo + chunk], degree)
        for idx, _, pos in _settle(coef, lips, _RTOL * scale, start):
            nxt = np.roll(pos, -1, axis=1)
            total[lo + idx] = np.count_nonzero(pos != nxt, axis=1)
            down[lo + idx] = np.count_nonzero(pos & ~nxt, axis=1)
    return total, down, total == DEGENERATE


def root_angles(g, point, degree: int, scale: float):
    """The roots of ``theta -> g(point, theta)`` counted by ``count_roots``.

    Returns (angles, descending): the root angles in [0, 2pi), ascending,
    and a mask of the roots where g falls; None where ``count_roots`` flags
    the point.  Each root is the bisected sign change of one interval of the
    grid that certified the count, so there are exactly as many roots as
    ``count_roots`` counts.  The bisection evaluates g from its coefficients.
    """
    coef, lips = _coefficients(g, np.atleast_2d(np.asarray(point, dtype=float)), degree)
    k = np.arange(degree + 1)
    weights = np.where(k > 0, 2.0, 1.0) * coef[0]
    for idx, grid, pos in _settle(coef, lips, _RTOL * scale, _start_grid(degree)):
        if len(idx):
            pos = pos[0]
            j = np.flatnonzero(pos != np.roll(pos, -1))
            lo = (j + 0.5) * (TWO_PI / grid)
            theta = bisect(lambda t: ((np.exp(1j * np.outer(t, k)) @ weights).real > 0) == pos[j],
                           lo, lo + TWO_PI / grid) % TWO_PI
            order = np.argsort(theta)
            return theta[order], pos[j][order]
    return None
