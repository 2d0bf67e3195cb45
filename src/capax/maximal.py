"""Discrete Hardy-Littlewood maximal function and A1 characteristics.

The supremum over all radii is approximated on the dyadic set
{h, 2h, 4h, ..., 2L} (truncated variant: radii <= 1). Ball averages are
normalized by the in-box portion of the ball, so constants are reproduced
exactly. In n=1 the cell-ball overlap is exact; in n>=2 balls collect the
nodes whose centers they contain.
"""

from __future__ import annotations

import math

import numpy as np

from .convolve import fft_linear_convolve
from .grid import Field, Grid
from .kernels import _offset_radii

__all__ = ["maximal_function", "a1_constant", "dyadic_radii", "ball_stencil"]


def dyadic_radii(grid: Grid, truncated: bool) -> list:
    """Radii h * 2^k up to 2L, optionally capped at 1."""
    h = grid.spacing
    radii = []
    r = h
    while r <= 2.0 * grid.half_width * (1.0 + 1e-12):
        if not truncated or r <= 1.0 + 1e-12:
            radii.append(r)
        r *= 2.0
    return radii


def _ball_average_1d(grid: Grid, values: np.ndarray, radius: float) -> np.ndarray:
    """Exact averages of the piecewise-constant extension over [x-r, x+r] (in-box part)."""
    L, h, N = grid.half_width, grid.spacing, grid.points_per_axis
    edges = -L + h * np.arange(N + 1)
    cum = np.concatenate([[0.0], np.cumsum(values) * h])
    x = grid.axis
    lo = np.clip(x - radius, -L, L)
    hi = np.clip(x + radius, -L, L)
    mass = np.interp(hi, edges, cum) - np.interp(lo, edges, cum)
    length = hi - lo
    return mass / length


def ball_stencil(grid: Grid, radius: float) -> np.ndarray:
    """Centered 0/1 stencil of lattice offsets with |z| h <= radius."""
    return (_offset_radii(grid) <= radius * (1.0 + 1e-12)).astype(float)


def _ball_average_nd(grid: Grid, values: np.ndarray, radius: float) -> np.ndarray:
    stencil = ball_stencil(grid, radius)
    sums = fft_linear_convolve(values, stencil)
    counts = fft_linear_convolve(np.ones(grid.shape), stencil)
    counts = np.maximum(np.rint(counts), 1.0)
    return np.maximum(sums, 0.0) / counts


def maximal_function(w: Field, truncated: bool = False) -> Field:
    """Pointwise sup of in-box ball averages of |w| over the dyadic radius set."""
    grid = w.grid
    vals = np.abs(w.values)
    radii = dyadic_radii(grid, truncated)
    if not radii:
        return Field(grid, vals, nonneg=True)
    best = np.full(grid.shape, -np.inf)
    for r in radii:
        if grid.dim == 1:
            avg = _ball_average_1d(grid, vals, r)
        else:
            avg = _ball_average_nd(grid, vals, r)
        best = np.maximum(best, avg)
    return Field(grid, best, nonneg=True)


def a1_constant(w: Field, truncated: bool = False) -> float:
    """Least C with M w <= C w over the grid; +inf where w vanishes but M w does not."""
    vals = w.values
    if np.any(vals < 0):
        raise ValueError("A1 characteristic requires a nonnegative weight")
    if not np.any(vals > 0):
        raise ValueError("A1 characteristic requires a not identically zero weight")
    m = maximal_function(w, truncated).values
    pos = vals > 0
    best = float(np.max(m[pos] / vals[pos])) if np.any(pos) else 1.0
    zero = ~pos
    if np.any(zero):
        if np.any(m[zero] > 0):
            return math.inf
        best = max(best, 1.0)
    return best
