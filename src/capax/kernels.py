"""Riesz and Bessel kernel tables on offset lattices, and the one kernel apply.

A table holds the kernel on the centered offset lattice {k h : |k| <= N-1}
per axis, an array of shape (2N-1,)^dim with offset 0 at index N-1: the
Riesz kernel gamma(n, alpha) r^(alpha-n), or the Bessel kernel in closed form
through the modified Bessel function K_nu (`bessel_kernel`). The singular
cell (offset 0) stores the exact average of the local power-law singularity,
which both kernels share, over the cell, obtained by replacing the cell with
the ball of equal volume and integrating radially in closed form.

A table acts on grid values as a linear convolution. `padded_spectrum` puts
the centered table in wrap-around layout on the 2N torus (period 2N per axis,
so the zero-padded grid values never wrap onto themselves) and takes its real
FFT; `torus_convolve` multiplies the values' transform on the 2N torus by a
spectrum, transforms back and slices to the grid. It never transforms the
zero half of the padded torus (FFT pruning: the last axis first with a real
FFT, the other axes from last to first, and back in the opposite order,
slicing each axis to N after its inverse transform), and its result is
bit-identical to the full-torus `irfftn(rfftn(values, s) * spectrum, s)`
sliced to the grid. `apply_kernel` is the h^n-weighted operator K: the torus
product with the table's cached spectrum, multiplied by h^n after the slice,
or the table's cached dense matrix, which carries h^n in its entries. Both
act on the trailing grid axes, so a stack of grid values along leading axes
is transformed in one call, each row as on its own.

The obstacle solver's PCG preconditioner only approximates the inverse of K,
so it is not applied on the 2N torus: `KernelTable.inverse_square_rfft` is the
spectrum of K~^-2 for the table's N-periodic Strang circulant, and acts on the
unpadded grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gamma as gamma_fn, kv

from .grid import Grid

__all__ = [
    "riesz_gamma",
    "KernelTable",
    "riesz_kernel_table",
    "bessel_kernel",
    "bessel_kernel_table",
    "padded_spectrum",
    "torus_convolve",
    "apply_kernel",
]


def riesz_gamma(n: int, alpha: float) -> float:
    """Normalizing constant of the fractional kernel |x|^(alpha-n)."""
    if not 0 < alpha < n:
        raise ValueError(f"need 0 < alpha < n, got alpha={alpha}, n={n}")
    return float(
        gamma_fn((n - alpha) / 2.0) / (np.pi ** (n / 2.0) * 2.0**alpha * gamma_fn(alpha / 2.0))
    )


def unit_ball_volume(n: int) -> float:
    return float(np.pi ** (n / 2.0) / gamma_fn(n / 2.0 + 1.0))


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 for n=1)."""
    return n * unit_ball_volume(n)


def singular_cell_average(n: int, alpha: float, h: float) -> float:
    """Cell average of gamma(n,alpha)|y|^(alpha-n) over the cell at the origin.

    The cell is replaced by the ball of equal volume h^n, radius
    rho = h / v_n^(1/n); the radial integral is closed-form.
    """
    rho = h / unit_ball_volume(n) ** (1.0 / n)
    integral = unit_sphere_area(n) * rho**alpha / alpha
    return riesz_gamma(n, alpha) * integral / h**n


@dataclass(frozen=True)
class KernelTable:
    """Kernel values on the offset lattice {k h, |k| <= N-1}^dim (doubled extent)."""

    grid: Grid
    values: np.ndarray
    alpha: float
    kind: str

    def __post_init__(self):
        expect = (2 * self.grid.points_per_axis - 1,) * self.grid.dim
        if self.values.shape != expect:
            raise ValueError(f"kernel table shape {self.values.shape}, expected {expect}")
        self.values.flags.writeable = False

    @cached_property
    def padded_rfft(self) -> np.ndarray:
        """Cached `padded_spectrum` of the table."""
        return padded_spectrum(self.values)

    @cached_property
    def inverse_square_rfft(self) -> np.ndarray:
        """Cached spectrum 1/(h^n s)^2 of K~^-2 on the grid's own N torus.

        s is the real part of the real FFT of the table's Strang circulant
        (Strang, Stud. Appl. Math. 74, 1986): the N-periodic sequence that
        holds, per axis, offset m for m <= N/2 and m - N above, one gather
        from the centered table. It approximates K's symbol on the N torus,
        so `rfftn`/`irfftn` on the unpadded grid apply K~^-2. s is floored at
        the magnitude of the least mode of `padded_rfft`, the 2N torus
        symbol. That keeps K~^-2 finite and positive where a Strang mode is
        <= 0, as on some 3D tables with alpha near n, and on a positive
        table lifts only the Strang modes below it, by little (under 1e-3
        relative on the tables the tests pin). A floor at the magnitude of
        s's own least mode cost more PCG steps (74 against 55 on a 3D Bessel
        capacity at alpha = 0.95 n/s). Built only when first used.
        """
        N = self.grid.points_per_axis
        m = np.arange(N)
        idx = np.where(m <= N // 2, m, m - N) + N - 1
        symbol = np.fft.rfftn(self.values[np.ix_(*([idx] * self.grid.dim))]).real
        symbol = np.maximum(symbol, abs(self.padded_rfft.real.min()))
        return 1.0 / (self.grid.cell_volume * symbol) ** 2

    @cached_property
    def dense(self) -> np.ndarray:
        """Read-only h^n-weighted operator matrix on flattened grid values.

        Entry (i, j) is the centered table at offset i - j, i.e. at index
        i - j + (N-1) per axis. It holds grid.size^2 entries, so it is built
        only when first used.
        """
        shape = self.values.shape
        # ravel is linear, so pos(i) - pos(j) + center is the flat index of offset i - j
        pos = np.ravel_multi_index(np.indices(self.grid.shape).reshape(self.grid.dim, -1), shape)
        center = np.ravel_multi_index((self.grid.points_per_axis - 1,) * self.grid.dim, shape)
        mat = self.values.ravel()[np.subtract.outer(pos, pos) + center] * self.grid.cell_volume
        mat.flags.writeable = False
        return mat


def _offset_radii(grid: Grid) -> np.ndarray:
    N, h = grid.points_per_axis, grid.spacing
    ax = (np.arange(2 * N - 1) - (N - 1)) * h
    grids = np.meshgrid(*([ax] * grid.dim), indexing="ij")
    return np.sqrt(sum(g**2 for g in grids))


@lru_cache(maxsize=64)
def riesz_kernel_table(grid: Grid, alpha: float) -> KernelTable:
    n = grid.dim
    r = _offset_radii(grid)
    center = (grid.points_per_axis - 1,) * n
    with np.errstate(divide="ignore"):
        vals = riesz_gamma(n, alpha) * r ** (alpha - n)
    vals[center] = singular_cell_average(n, alpha, grid.spacing)
    return KernelTable(grid, vals, alpha, "riesz")


def bessel_kernel(n: int, alpha: float, r) -> np.ndarray:
    """Bessel kernel G_alpha, the kernel of (1 - Laplacian)^(-alpha/2), at radii r > 0:

        G_alpha(r) = r^((alpha-n)/2) K_nu(r) / (2^((n+alpha)/2-1) pi^(n/2) Gamma(alpha/2))

    with nu = (n-alpha)/2 (Adams-Hedberg, Function Spaces and Potential
    Theory, section 1.2). scipy's K_nu underflows to 0 from r ~ 700 on.
    """
    nu = (n - alpha) / 2.0
    r = np.asarray(r, dtype=float)
    norm = 2.0 ** ((n + alpha) / 2.0 - 1.0) * np.pi ** (n / 2.0) * gamma_fn(alpha / 2.0)
    return r ** (-nu) * kv(nu, r) / norm


@lru_cache(maxsize=64)
def bessel_kernel_table(grid: Grid, alpha: float) -> KernelTable:
    n = grid.dim
    if not 0 < alpha < n:
        raise ValueError(f"need 0 < alpha < n for the tabulated Bessel kernel, got {alpha}")
    r = _offset_radii(grid)
    center = (grid.points_per_axis - 1,) * n
    with np.errstate(divide="ignore"):
        vals = bessel_kernel(n, alpha, r)
    vals[center] = singular_cell_average(n, alpha, grid.spacing)
    if not np.all(vals > 0):
        raise ValueError(f"half-width {grid.half_width} is too wide for a Bessel kernel table: "
                         f"K_nu underflows to 0 within its offsets, which reach {r.max():.4g}")
    return KernelTable(grid, vals, alpha, "bessel")


def kernel_table(grid: Grid, alpha: float, kind: str) -> KernelTable:
    if kind == "riesz":
        return riesz_kernel_table(grid, alpha)
    if kind == "bessel":
        return bessel_kernel_table(grid, alpha)
    raise ValueError(f"kind must be 'riesz' or 'bessel', got {kind!r}")


def padded_spectrum(centered: np.ndarray) -> np.ndarray:
    """Real FFT of a centered offset table in wrap-around layout on the 2N torus.

    Index m of the wrap layout holds offset m for m < N and m - 2N for m >= N.
    The slot at offset -N is never reached by a product with grid values; it
    takes the offset -(N-1) value to keep the table positive.
    """
    N = (centered.shape[0] + 1) // 2
    idx = np.concatenate([np.arange(N - 1, 2 * N - 1), [0], np.arange(0, N - 1)])
    wrapped = centered[np.ix_(*([idx] * centered.ndim))]
    axes = tuple(range(centered.ndim))
    return np.fft.rfftn(wrapped, s=(2 * N,) * centered.ndim, axes=axes)


def torus_convolve(values: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Linear convolution of grid values with the table whose `padded_spectrum`
    is `spectrum`: the product on the 2N torus, sliced to the grid.

    The zero half of the padded torus is never transformed (FFT pruning,
    Markel, IEEE Trans. Audio Electroacoust. 19, 1971): `rfft(n=2N)` along
    the last grid axis of the N^n values, then `fft(n=2N)` along the other
    grid axes from last to first, the multiply, then `ifft` along the grid
    axes from first to second-to-last, each sliced to N straight after its
    transform, and `irfft(n=2N)` along the last. numpy's `rfftn`/`irfftn`
    run the same 1D transforms in the same order over the whole torus, so
    the result is bit-identical to
    `irfftn(rfftn(values, s) * spectrum, s)[:N, ...]` with s = (2N,)^n.

    The transforms run over the trailing spectrum.ndim axes of `values`; any
    leading axes index a stack, and each row comes out bit for bit as it
    would alone. The result is a view into the padded transform, not a copy."""
    N = values.shape[-1]
    first = values.ndim - spectrum.ndim   # the first grid axis
    last = values.ndim - 1
    x = np.fft.rfft(values, n=2 * N, axis=last)
    for axis in range(last - 1, first - 1, -1):
        x = np.fft.fft(x, n=2 * N, axis=axis)
    x *= spectrum
    for axis in range(first, last):
        x = np.fft.ifft(x, axis=axis)[(slice(None),) * axis + (slice(0, N),)]
    return np.fft.irfft(x, n=2 * N, axis=last)[..., :N]


def apply_kernel(table: KernelTable, values: np.ndarray, method: str = "fast") -> np.ndarray:
    """h^n-weighted linear convolution of grid values with a kernel table.

    `values` is grid-shaped, or a stack of grid-shaped rows along leading
    axes. Methods: "fast" is the torus product with the table's cached
    spectrum, bit for bit the same on each row of a stack as alone; "dense"
    multiplies by the table's cached operator matrix, which is quicker on
    small grids, and on a stack of several rows rounds in its own order. The
    potentials use "fast" on every grid: the dense product rounds
    differently, and the Choquet integral of a potential is sensitive to
    rounding-level ties between its node values.
    """
    grid = table.grid
    if values.shape[-grid.dim:] != grid.shape:
        raise ValueError("incompatible grids: field shape does not match kernel table")
    if method == "dense":
        # x^T K^T per row; on one row this is the matrix-vector product K x
        return (values.reshape(-1, grid.size) @ table.dense.T).reshape(values.shape)
    if method != "fast":
        raise ValueError(f"method must be 'fast' or 'dense', got {method!r}")
    return torus_convolve(values, table.padded_rfft) * grid.cell_volume
