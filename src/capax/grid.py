"""Uniform tensor grids on a box, grid functions, set masks, and exponent tuples.

Nodes are cell centers: x_k = -L + (k + 1/2) h on each axis, h = 2L / N.
Everything outside the box is treated as zero.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "Mask",
    "Params",
    "integrate",
    "lp_norm",
    "ball_mask",
    "cube_mask",
    "annulus_mask",
    "field_to_json",
    "field_from_json",
    "mask_to_json",
    "mask_from_json",
]


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on the box [-L, L]^dim with N points per axis."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise ValueError(
                f"points_per_axis must be a power of two >= 8, got {self.points_per_axis}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        """Node coordinates along one axis (cell centers)."""
        N, h = self.points_per_axis, self.spacing
        x = -self.half_width + (np.arange(N) + 0.5) * h
        x.flags.writeable = False
        return x

    @cached_property
    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (size, dim)."""
        grids = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        pts.flags.writeable = False
        return pts

    @cached_property
    def radii(self) -> np.ndarray:
        """Distance of each node from the origin, grid-shaped."""
        r = np.sqrt(np.sum(self.nodes**2, axis=-1)).reshape(self.shape)
        r.flags.writeable = False
        return r


def _as_grid_array(grid: Grid, values, dtype) -> np.ndarray:
    a = np.asarray(values, dtype=dtype)
    if a.shape == (grid.size,):
        a = a.reshape(grid.shape)
    elif a.shape != grid.shape:
        raise ValueError(f"values shape {a.shape} incompatible with grid shape {grid.shape}")
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Field:
    """Real-valued grid function; values stored grid-shaped, row-major on disk."""

    grid: Grid
    values: np.ndarray
    nonneg: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", _as_grid_array(self.grid, self.values, float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")
        if self.nonneg and np.any(self.values < 0):
            raise ValueError("nonneg field has negative values")


@dataclass(frozen=True)
class Mask:
    """Subset of grid nodes (a set E as a boolean grid function)."""

    grid: Grid
    members: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "members", _as_grid_array(self.grid, self.members, bool))

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.members))

    @property
    def measure(self) -> float:
        """Lebesgue measure of the union of member cells."""
        return self.count * self.grid.cell_volume

    def indicator(self) -> Field:
        return Field(self.grid, self.members.astype(float), nonneg=True)

    def __or__(self, other: "Mask") -> "Mask":
        _require_same_grid(self.grid, other.grid)
        return Mask(self.grid, self.members | other.members)

    def __and__(self, other: "Mask") -> "Mask":
        _require_same_grid(self.grid, other.grid)
        return Mask(self.grid, self.members & other.members)

    def __invert__(self) -> "Mask":
        return Mask(self.grid, ~self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Mask)
            and self.grid == other.grid
            and np.array_equal(self.members, other.members)
        )

    @classmethod
    def empty(cls, grid: Grid) -> "Mask":
        return cls(grid, np.zeros(grid.shape, dtype=bool))

    @classmethod
    def full(cls, grid: Grid) -> "Mask":
        return cls(grid, np.ones(grid.shape, dtype=bool))


def _require_same_grid(a: Grid, b: Grid):
    if a != b:
        raise ValueError(f"incompatible grids: {a} vs {b}")


@dataclass(frozen=True)
class Params:
    """Exponent tuple (n, alpha, s[, q, p, r]) with validity constraints.

    Constraints: s > 1 and 0 < alpha <= n/s (strict inequality required for the
    homogeneous Riesz kernel; equality admitted only in the Bessel case).
    Optional exponents are validated when present: finite q >= 1 and p > 1, 0 < r <= s.
    """

    n: int
    alpha: float
    s: float
    q: float | None = None
    p: float | None = None
    r: float | None = None

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2 or 3, got {self.n}")
        if not self.s > 1:
            raise ValueError(f"s must exceed 1, got {self.s}")
        if not 0 < self.alpha <= self.n / self.s:
            raise ValueError(
                f"alpha must lie in (0, n/s] = (0, {self.n / self.s}], got {self.alpha}"
            )
        if self.q is not None and not 1 <= self.q < np.inf:
            raise ValueError(f"q must be finite and >= 1, got {self.q}")
        if self.p is not None and not 1 < self.p < np.inf:
            raise ValueError(f"p must be finite and exceed 1, got {self.p}")
        if self.r is not None and not 0 < self.r <= self.s:
            raise ValueError(f"r must lie in (0, s], got {self.r}")

    def validate_for(self, kind: str):
        """Extra check for the selected kernel: Riesz requires alpha < n/s strictly."""
        if kind not in ("riesz", "bessel"):
            raise ValueError(f"kind must be 'riesz' or 'bessel', got {kind!r}")
        if kind == "riesz" and not self.alpha < self.n / self.s:
            raise ValueError(f"Riesz case needs alpha < n/s, got alpha={self.alpha}")

    def q_below_s(self, who: str) -> float:
        """q, checked to lie in [1, s); the error names the caller `who`."""
        if self.q is None or not 1 <= self.q < self.s:
            raise ValueError(f"{who} needs params.q in [1, s)")
        return self.q

    @property
    def p_conj(self) -> float:
        if self.p is None:
            raise ValueError("p not set")
        return self.p / (self.p - 1.0)


def integrate(f: Field) -> float:
    """Midpoint-rule integral over the box: h^n * sum of values."""
    return float(f.grid.cell_volume * np.sum(f.values))


def lp_norm(f: Field, t: float) -> float:
    """L^t norm of a grid function, t >= 1."""
    if not (np.isfinite(t) and t >= 1):
        raise ValueError(f"t must be finite and >= 1, got {t}")
    return float(integrate(Field(f.grid, np.abs(f.values) ** t)) ** (1.0 / t))


def _offsets_from(grid: Grid, center) -> np.ndarray:
    """Node coordinates minus center (default origin), shape (size, dim)."""
    c = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float).reshape(grid.dim)
    return grid.nodes - c


def ball_mask(grid: Grid, radius: float, center=None) -> Mask:
    """Nodes within the closed ball of given radius about center (default origin)."""
    if not radius >= 0:   # NaN too
        raise ValueError(f"ball radius must be nonnegative, got {radius}")
    d = np.sqrt(np.sum(_offsets_from(grid, center) ** 2, axis=-1)).reshape(grid.shape)
    return Mask(grid, d <= radius)


def cube_mask(grid: Grid, side: float, center=None) -> Mask:
    """Nodes within the closed axis-aligned cube of given side about center."""
    if not side >= 0:   # NaN too
        raise ValueError(f"cube side must be nonnegative, got {side}")
    d = np.max(np.abs(_offsets_from(grid, center)), axis=-1).reshape(grid.shape)
    return Mask(grid, d <= side / 2.0)


def annulus_mask(grid: Grid, r_inner: float, r_outer: float, center=None) -> Mask:
    if not 0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    d = np.sqrt(np.sum(_offsets_from(grid, center) ** 2, axis=-1)).reshape(grid.shape)
    return Mask(grid, (d >= r_inner) & (d <= r_outer))


# -- serialization: JSON with a header and row-major values -------------------

def _grid_from_header(h: dict) -> Grid:
    return Grid(int(h["dim"]), float(h["half_width"]), int(h["points_per_axis"]))


def field_to_json(f: Field) -> str:
    doc = asdict(f.grid)
    doc["nonneg"] = f.nonneg
    doc["values"] = f.values.ravel().tolist()
    return json.dumps(doc)


def field_from_json(text: str) -> Field:
    doc = json.loads(text)
    grid = _grid_from_header(doc)
    return Field(grid, np.array(doc["values"], dtype=float), nonneg=bool(doc.get("nonneg", False)))


def mask_to_json(m: Mask) -> str:
    doc = asdict(m.grid)
    doc["members"] = [int(v) for v in m.members.ravel()]
    return json.dumps(doc)


def mask_from_json(text: str) -> Mask:
    doc = json.loads(text)
    grid = _grid_from_header(doc)
    return Mask(grid, np.array(doc["members"], dtype=bool))
