"""Deterministic seeded test families: fields for inequality checks, measures
for Wolff-side checks.

Field families: "mixed" (the default) cycles through ball indicators,
Gaussian bumps at three scales, two-bump sums and an anisotropic profile;
"bumps" is the Gaussian bumps alone. Measure families: "atoms" is clouds of
3-10 atoms; "measures" starts with a unit atom at the origin and then
alternates atom clouds and bump densities. Each family is a pure function of
(name, seed, count, grid).
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid, ball_mask
from .potentials import Measure

__all__ = ["DEFAULT_FAMILY_SEED", "field_family", "measure_family"]

DEFAULT_FAMILY_SEED = 271828

_BUMP_SCALES = (1 / 4, 1 / 10, 1 / 24)   # relative to the box half-width


def _gauss(grid: Grid, center, sigmas, amplitude):
    x = grid.nodes
    z = sum(((x[:, d] - center[d]) / sigmas[d]) ** 2 for d in range(grid.dim))
    return amplitude * np.exp(-0.5 * z).reshape(grid.shape)


# Every sampler takes (grid, rng, k) and draws from rng; only the bump reads
# k, which picks its scale.

def _indicator_sample(grid, rng, k):
    L = grid.half_width
    radius = rng.uniform(0.06, 0.22) * L
    center = rng.uniform(-0.4 * L, 0.4 * L, size=grid.dim)
    amp = rng.uniform(0.5, 2.0)
    return amp * ball_mask(grid, radius, center).members.astype(float)


def _bump_sample(grid, rng, k):
    L = grid.half_width
    sigma = _BUMP_SCALES[k % 3] * L
    center = rng.uniform(-0.45 * L, 0.45 * L, size=grid.dim)
    amp = rng.uniform(0.5, 2.0)
    return _gauss(grid, center, (sigma,) * grid.dim, amp)


def _two_bump_sample(grid, rng, k):
    L = grid.half_width
    c1 = rng.uniform(-0.45 * L, 0.45 * L, size=grid.dim)
    c2 = rng.uniform(-0.45 * L, 0.45 * L, size=grid.dim)
    a1, a2 = rng.uniform(0.5, 2.0, size=2)
    return _gauss(grid, c1, (L / 6,) * grid.dim, a1) + _gauss(grid, c2, (L / 18,) * grid.dim, a2)


def _aniso_sample(grid, rng, k):
    L = grid.half_width
    center = rng.uniform(-0.35 * L, 0.35 * L, size=grid.dim)
    amp = rng.uniform(0.5, 2.0)
    if grid.dim == 1:
        # skewed two-sided exponential profile
        x = grid.axis - center[0]
        s_right, s_left = L / 6, L / 24
        return amp * np.where(x >= 0, np.exp(-x / s_right), np.exp(x / s_left))
    sigmas = tuple(L / 5 / (1 + 3 * d / max(grid.dim - 1, 1)) for d in range(grid.dim))
    return _gauss(grid, center, sigmas, amp)


# the mixed family's samplers in turn: field i calls sampler i % 4 with
# k = i // 4, so the bump scale advances once per cycle
_MIXED_CYCLE = (_indicator_sample, _bump_sample, _two_bump_sample, _aniso_sample)


def _mixed_sample(grid, rng, i):
    return _MIXED_CYCLE[i % 4](grid, rng, i // 4)


_FIELD_FAMILIES = {"mixed": _mixed_sample, "bumps": _bump_sample}


def field_family(name: str, seed: int, count: int, grid: Grid) -> list:
    if name not in _FIELD_FAMILIES:
        raise ValueError(f"unknown field family {name!r}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    sample = _FIELD_FAMILIES[name]
    rng = np.random.default_rng(seed)
    return [Field(grid, sample(grid, rng, i), nonneg=True) for i in range(count)]


def _atom_cloud(grid, rng, i):
    L = grid.half_width
    k = int(rng.integers(3, 11))
    positions = rng.uniform(-0.5 * L, 0.5 * L, size=(k, grid.dim))
    masses = np.exp(rng.normal(0.0, 0.5, size=k))
    return Measure.from_atoms(grid, positions, masses)


def _measures_sample(grid, rng, i):
    if i == 0:
        return Measure.from_atoms(grid, [np.zeros(grid.dim)], [1.0])
    if i % 2 == 1:
        return _atom_cloud(grid, rng, i)
    return Measure.from_density(Field(grid, _bump_sample(grid, rng, i), nonneg=True))


_MEASURE_FAMILIES = {"atoms": _atom_cloud, "measures": _measures_sample}


def measure_family(name: str, seed: int, count: int, grid: Grid) -> list:
    if name not in _MEASURE_FAMILIES:
        raise ValueError(f"unknown measure family {name!r}")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    sample = _MEASURE_FAMILIES[name]
    rng = np.random.default_rng(seed)
    return [sample(grid, rng, i) for i in range(count)]

