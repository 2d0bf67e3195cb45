"""Ball masses, the discrete Hardy-Littlewood maximal function and A1 characteristics.

The ball rule lives here, and the Wolff potentials (`potentials`) share it. In
n=1 a ball's mass is the exact integral of the piecewise-constant extension
over the in-box part of [c - r, c + r]; in n>=2 a ball collects the nodes
within r * BALL_SLACK of its center. The supremum over all radii is
approximated on the dyadic set {h, 2h, 4h, ..., 2L} (truncated variant:
radii <= 1). Averages divide by the in-box length (n=1) or the node count
(n>=2), so constants are reproduced exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Field, Grid
from .kernels import _offset_radii, padded_spectrum, torus_convolve

__all__ = ["BALL_SLACK", "interval_mass", "ball_stencil", "ball_sums", "maximal_function",
           "a1_constant", "dyadic_radii"]

BALL_SLACK = 1.0 + 1e-12   # a point at distance d lies in B(c, r) when d <= r * BALL_SLACK


def dyadic_radii(grid: Grid, truncated: bool) -> list:
    """Radii h * 2^k up to 2L, optionally capped at 1."""
    h = grid.spacing
    radii = []
    r = h
    while r <= 2.0 * grid.half_width * BALL_SLACK:
        if not truncated or r <= BALL_SLACK:
            radii.append(r)
        r *= 2.0
    return radii


def interval_mass(grid: Grid, values: np.ndarray, centers, radii) -> np.ndarray:
    """Exact integral of the piecewise-constant 1D `values` over the in-box part of
    [c - r, c + r]; centers and radii broadcast against each other."""
    L, h, N = grid.half_width, grid.spacing, grid.points_per_axis
    edges = -L + h * np.arange(N + 1)
    cum = np.concatenate([[0.0], np.cumsum(values) * h])
    lo = np.clip(centers - radii, -L, L)
    hi = np.clip(centers + radii, -L, L)
    return np.interp(hi, edges, cum) - np.interp(lo, edges, cum)


def ball_stencil(grid: Grid, radius: float) -> np.ndarray:
    """Centered 0/1 stencil of lattice offsets with |z| h <= radius."""
    return (_offset_radii(grid) <= radius * BALL_SLACK).astype(float)


def ball_sums(grid: Grid, values: np.ndarray, radius: float) -> np.ndarray:
    """Node-counting sums of `values` over the ball about every node, clipped at 0.

    `values` is grid-shaped or a stack of grid-shaped rows, each summed on its
    own, bit for bit as alone, in one transform. A ball that holds no node of
    the support of a row sums to exactly 0: the torus product leaves rounding
    residue there, so the support count, the same product on the support
    indicator rounded to an integer, zeroes it.
    """
    both = np.stack([values, values != 0])   # one transform for the sums and the counts
    sums, counts = torus_convolve(both, padded_spectrum(ball_stencil(grid, radius)))
    return np.where(np.rint(counts) > 0, np.maximum(sums, 0.0), 0.0)


def maximal_function(w: Field, truncated: bool = False) -> Field:
    """Pointwise sup of in-box ball averages of |w| over the dyadic radius set."""
    grid = w.grid
    vals = np.abs(w.values)
    radii = dyadic_radii(grid, truncated)
    if not radii:
        return Field(grid, vals, nonneg=True)
    if grid.dim == 1:
        # every radius in one broadcast: rows are radii, columns are nodes
        x, L, rr = grid.axis, grid.half_width, np.array(radii)[:, None]
        length = np.clip(x + rr, -L, L) - np.clip(x - rr, -L, L)
        best = np.max(interval_mass(grid, vals, x, rr) / length, axis=0)
    else:
        best = np.full(grid.shape, -np.inf)
        stack = np.stack([vals, np.ones(grid.shape)])   # the sums and the node counts
        for r in radii:
            sums, counts = ball_sums(grid, stack, r)
            best = np.maximum(best, sums / np.maximum(np.rint(counts), 1.0))
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
    best = float(np.max(m[pos] / vals[pos]))
    zero = ~pos
    if np.any(zero):
        if np.any(m[zero] > 0):
            return math.inf
        best = max(best, 1.0)
    return best
