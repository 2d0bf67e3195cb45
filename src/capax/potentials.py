"""Riesz, Bessel, and Wolff potentials of grid functions and measures.

`potential()` is the one place here that applies a kernel table, through
`kernels.apply_kernel` on the FFT path. The Wolff potentials take the ball
masses of a density from `maximal`, which owns the ball rule (exact in n=1,
node counting in n>=2)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, integrate
from .kernels import apply_kernel, kernel_table
from .maximal import BALL_SLACK, ball_sums, interval_mass

__all__ = [
    "Measure",
    "potential",
    "wolff_potential",
    "wolff_at_points",
]


def potential(f: Field, alpha: float, kind: str) -> Field:
    """The h^n-weighted Riesz or Bessel potential of f, on the FFT path on every grid."""
    table = kernel_table(f.grid, alpha, kind)
    return Field(f.grid, apply_kernel(table, f.values), nonneg=f.nonneg)


@dataclass(frozen=True)
class Measure:
    """Nonnegative measure: point atoms plus an optional grid density."""

    grid: Grid
    atoms: tuple = ()
    density: Field | None = None

    def __post_init__(self):
        L = self.grid.half_width
        norm_atoms = []
        for pos, mass in self.atoms:
            p = tuple(float(c) for c in np.atleast_1d(np.asarray(pos, dtype=float)))
            if len(p) != self.grid.dim:
                raise ValueError(f"atom position {p} has wrong dimension")
            if not all(abs(c) <= L for c in p):   # NaN too
                raise ValueError(f"atom position {p} is not a finite point of the box "
                                 f"[-{L}, {L}]^n")
            if not mass > 0:
                raise ValueError(f"atom mass must be positive, got {mass}")
            norm_atoms.append((p, float(mass)))
        object.__setattr__(self, "atoms", tuple(norm_atoms))
        if self.density is not None:
            if self.density.grid != self.grid:
                raise ValueError("density grid does not match measure grid")
            if np.any(self.density.values < 0):
                raise ValueError("density must be nonnegative")

    @cached_property
    def atom_positions(self) -> np.ndarray:
        if not self.atoms:
            return np.zeros((0, self.grid.dim))
        return np.array([pos for pos, _ in self.atoms], dtype=float)

    @cached_property
    def atom_masses(self) -> np.ndarray:
        return np.array([m for _, m in self.atoms], dtype=float)

    @property
    def total_mass(self) -> float:
        total = float(np.sum(self.atom_masses))
        if self.density is not None:
            total += integrate(self.density)
        return total

    @classmethod
    def from_atoms(cls, grid: Grid, positions, masses) -> "Measure":
        return cls(grid, tuple(zip([tuple(np.atleast_1d(p)) for p in positions], masses)))

    @classmethod
    def from_density(cls, density: Field) -> "Measure":
        return cls(density.grid, (), density)


# -- ball masses of the density part ------------------------------------------

def _density_mass_at_points(grid: Grid, dens: np.ndarray, points: np.ndarray,
                            radii_per_point: np.ndarray) -> np.ndarray:
    """Node-counting ball masses at arbitrary points (n>=2); radii_per_point is (P, C)."""
    out = np.empty_like(radii_per_point)
    flat = dens.ravel() * grid.cell_volume
    for i, p in enumerate(points):
        d = np.sqrt(np.sum((grid.nodes - p) ** 2, axis=-1))
        order = np.argsort(d, kind="stable")
        csum = np.concatenate([[0.0], np.cumsum(flat[order])])
        idx = np.searchsorted(d[order], radii_per_point[i] * BALL_SLACK, side="right")
        out[i] = csum[idx]
    return out


def _wolff_eval(mu: Measure, alpha: float, s: float, R: float,
                points: np.ndarray | None) -> np.ndarray:
    grid = mu.grid
    n, h = grid.dim, grid.spacing
    if not s > 1:
        raise ValueError(f"s must exceed 1, got {s}")
    kappa = (n - alpha * s) / (s - 1.0)
    if kappa <= 0:
        raise ValueError(f"divergent tail: need n - alpha*s > 0, got {n - alpha * s}")
    if not R > 0:
        raise ValueError("R must be positive")

    on_grid = points is None
    pts = grid.nodes if on_grid else points
    P = pts.shape[0]

    t0 = h / 2.0
    if R <= t0:
        return np.zeros(P)
    infinite = math.isinf(R)
    if infinite:
        span = 4.0 * grid.half_width
    else:
        span = R
    n_oct = max(1, int(math.ceil(math.log2(span / t0))))
    shared = t0 * 2.0 ** np.arange(n_oct + 1)
    if infinite:
        t_hi = shared[-1]  # first dyadic radius at which every ball swallows the box
    else:
        shared = np.concatenate([shared[shared < R], [R]])
        t_hi = R

    exponent = 1.0 / (s - 1.0)
    have_atoms = len(mu.atoms) > 0
    if have_atoms:
        dist = np.sqrt(np.sum((pts[:, None, :] - mu.atom_positions[None, :, :]) ** 2, axis=-1))
        extra = np.clip(dist, t0, t_hi)
        knots = np.concatenate([np.broadcast_to(shared, (P, shared.size)), extra], axis=1)
        knots = np.sort(knots, axis=1)
    else:
        knots = np.broadcast_to(shared, (P, shared.size))

    a, b = knots[:, :-1], knots[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        mids = np.sqrt(a * b)

    masses = np.zeros_like(mids)
    if have_atoms:
        masses += np.einsum(
            "pac,a->pc", (dist[:, :, None] <= mids[:, None, :] * BALL_SLACK).astype(float),
            mu.atom_masses,
        )
    if mu.density is not None:
        dens = mu.density.values
        if n == 1:
            masses += interval_mass(grid, dens.ravel(), pts[:, :1], mids)
        elif on_grid and not have_atoms:
            cols = np.stack([ball_sums(grid, dens, r).ravel() for r in mids[0]], axis=1)
            masses += cols * grid.cell_volume
        elif on_grid:
            # shared log-spaced radius table, then linear interpolation per node
            tab_r = np.geomspace(t0, t_hi, 4 * (n_oct + 1))
            tab = np.stack([ball_sums(grid, dens, r).ravel() for r in tab_r], axis=1)
            tab *= grid.cell_volume
            idx = np.clip(np.searchsorted(tab_r, mids), 1, tab_r.size - 1)
            r_lo, r_hi = tab_r[idx - 1], tab_r[idx]
            w_hi = (mids - r_lo) / (r_hi - r_lo)
            rows = np.arange(P)[:, None]
            masses += (1 - w_hi) * tab[rows, idx - 1] + w_hi * tab[rows, idx]
        else:
            masses += _density_mass_at_points(grid, dens, pts, mids)

    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        seg = masses**exponent * 0.5 * (a**-kappa + b**-kappa) * np.log(b / a)
        w = np.sum(seg, axis=1)
        if infinite:
            w += np.float64(mu.total_mass) ** exponent * t_hi**-kappa / kappa
    if not np.all(np.isfinite(w)):
        raise ValueError(f"Wolff potential overflows: the measure's total mass "
                         f"{mu.total_mass:g} to the power 1/(s-1) = {exponent:g} leaves "
                         f"the float range")
    return w


def wolff_potential(mu: Measure, alpha: float, s: float, R: float = math.inf) -> Field:
    """Radial shell integral of [mu(B_t)/t^(n - alpha s)]^(1/(s-1)) dt/t up to R.

    Discretized over dyadic shells starting at h/2, with knots inserted at the
    atom distances of each node; for R = inf the exact power-law tail beyond
    the radius where balls contain the whole box is added in closed form.
    In n >= 2, for a measure with both atoms and a density, the density's
    ball masses are interpolated linearly in a shared log-spaced radius
    table, not counted node by node as in `wolff_at_points`: the two differ
    by up to about 1% of the max on 2D N=16 and 3D N=8, and by less on
    finer grids.
    """
    vals = _wolff_eval(mu, alpha, s, R, None).reshape(mu.grid.shape)
    return Field(mu.grid, vals, nonneg=True)


def wolff_at_points(mu: Measure, alpha: float, s: float, points,
                    R: float = math.inf) -> np.ndarray:
    """Same integral at arbitrary points, shape (P, grid dimension), e.g. on supp(mu)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != mu.grid.dim:
        raise ValueError(f"points must have shape (P, {mu.grid.dim}), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return _wolff_eval(mu, alpha, s, R, pts)
