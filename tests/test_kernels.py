import math

import mpmath
import numpy as np
import pytest

from capax.grid import Grid
from capax.kernels import (KernelTable, bessel_kernel, bessel_kernel_table, riesz_gamma,
                           riesz_kernel_table, singular_cell_average)


def test_riesz_gamma_closed_forms():
    assert abs(riesz_gamma(1, 0.5) - 1 / math.sqrt(2 * math.pi)) < 1e-15
    assert abs(riesz_gamma(2, 1.0) - 1 / (2 * math.pi)) < 1e-15


def test_riesz_gamma_high_precision_oracle():
    n, alpha = 3, 2.0
    with mpmath.workdps(50):
        exact = mpmath.gamma((n - alpha) / 2) / (
            mpmath.pi ** (n / 2) * mpmath.mpf(2) ** alpha * mpmath.gamma(alpha / 2))
    assert abs(riesz_gamma(n, alpha) - float(exact)) <= 1e-14 * float(exact)


def test_riesz_gamma_domain():
    with pytest.raises(ValueError):
        riesz_gamma(1, 1.5)
    with pytest.raises(ValueError):
        riesz_gamma(2, 0.0)


def test_riesz_table_positivity_and_monotone():
    g = Grid(2, 1.0, 16)
    t = riesz_kernel_table(g, 0.8)
    assert np.all(t.values > 0)
    center = g.points_per_axis - 1
    ray = t.values[center, center:]
    assert np.all(np.diff(ray) <= 0)


def test_riesz_singular_cell_1d():
    g = Grid(1, 1.0, 64)
    alpha = 0.37
    t = riesz_kernel_table(g, alpha)
    h = g.spacing
    expected = riesz_gamma(1, alpha) * (1 / h) * 2 * (h / 2) ** alpha / alpha
    assert abs(t.values[g.points_per_axis - 1] - expected) < 1e-14 * expected


def test_riesz_table_scaling():
    alpha, n = 0.6, 1
    fine = riesz_kernel_table(Grid(n, 1.0, 32), alpha)
    coarse = riesz_kernel_table(Grid(n, 2.0, 32), alpha)   # spacing doubled
    ratio = coarse.values / fine.values
    assert np.allclose(ratio, 2.0 ** (alpha - n), rtol=1e-12)


def test_bessel_kernel_vs_subordination_oracle():
    # the heat subordination integral
    #   G_a(R) = (4 pi)^(-a/2) / Gamma(a/2) * int_0^inf exp(-pi R^2/t - t/(4 pi)) t^((a-n)/2 - 1) dt
    # at 30 digits, split where the exponent is least (t = 2 pi R)
    pi = mpmath.pi
    with mpmath.workdps(30):
        for n, alpha in [(1, 0.4), (2, 0.7), (3, 1.2)]:
            a = mpmath.mpf(alpha)
            for R in [1e-3, 0.06, 0.5, 2.0, 9.0]:
                R = mpmath.mpf(R)
                integral = mpmath.quad(lambda t: mpmath.exp(-pi * R**2 / t - t / (4 * pi))
                                       * t ** ((a - n) / 2 - 1), [0, 2 * pi * R, mpmath.inf])
                exact = (4 * pi) ** (-a / 2) / mpmath.gamma(a / 2) * integral
                assert abs(float(bessel_kernel(n, alpha, float(R))) / float(exact) - 1) <= 1e-12


def test_bessel_total_mass():
    g = Grid(1, 8.0, 512)
    t = bessel_kernel_table(g, 0.5)
    mass = float(np.sum(t.values)) * g.spacing
    assert abs(mass - 1.0) <= 0.01


def test_bessel_matches_riesz_near_zero():
    # the ratio approaches 1 like R^(n - alpha) as the argument shrinks
    n, alpha = 1, 0.4
    radii = [3e-2, 1e-2, 3e-3, 1e-3]
    ratios = [float(bessel_kernel(n, alpha, R)) / (riesz_gamma(n, alpha) * R ** (alpha - n))
              for R in radii]
    assert all(np.diff(ratios) > 0)   # monotone refinement toward 1
    assert all(r < 1 for r in ratios)
    assert abs(ratios[-1] - 1.0) <= 0.02


def test_bessel_monotone_and_dominated():
    g = Grid(1, 2.0, 128)
    alpha = 0.4
    tb = bessel_kernel_table(g, alpha)
    tr = riesz_kernel_table(g, alpha)
    center = g.points_per_axis - 1
    ray = tb.values[center:]
    assert np.all(np.diff(ray) <= 0)
    assert np.all(tb.values <= tr.values * (1 + 1e-12))
    radii = np.abs((np.arange(2 * g.points_per_axis - 1) - center) * g.spacing)
    far = radii >= 2.0
    assert np.all(tb.values[far] < tr.values[far])


def test_singular_cell_average_identity():
    # the equal-volume-ball average equals (n/alpha) times the kernel value at
    # the ball radius rho = h / v_n^(1/n)
    from capax.kernels import unit_ball_volume

    for n in (1, 2, 3):
        h = 0.1
        alpha = 0.3 * n
        avg = singular_cell_average(n, alpha, h)
        rho = h / unit_ball_volume(n) ** (1.0 / n)
        kernel_at_rho = riesz_gamma(n, alpha) * rho ** (alpha - n)
        assert abs(avg - (n / alpha) * kernel_at_rho) <= 1e-12 * avg
        assert avg > kernel_at_rho


def test_dense_operator_matrix():
    g = Grid(1, 1.0, 64)
    table = riesz_kernel_table(g, 0.4)
    N, h = g.points_per_axis, g.spacing
    rows = np.array([table.values[i:i + N][::-1] * h for i in range(N)])
    assert np.array_equal(table.dense, rows)
    assert not table.dense.flags.writeable


@pytest.mark.parametrize("make,n,N,alpha", [(riesz_kernel_table, 1, 64, 0.4),
                                             (bessel_kernel_table, 2, 16, 0.7)])
def test_inverse_square_spectrum(make, n, N, alpha):
    # built only when first used; K~^-2 K~^2 is the identity on the 2N torus
    g = Grid(n, 1.0, N)
    cached = make(g, alpha)
    table = KernelTable(g, cached.values, alpha, cached.kind)
    assert "inverse_square_rfft" not in vars(table)
    inv = table.inverse_square_rfft
    axes = tuple(range(g.dim))
    shape = (2 * g.points_per_axis,) * g.dim
    v = np.random.default_rng(3).standard_normal(shape)
    k2v = np.fft.irfftn(np.fft.rfftn(v) * (g.cell_volume * table.padded_rfft) ** 2, s=shape,
                        axes=axes)
    back = np.fft.irfftn(np.fft.rfftn(k2v) * inv, s=shape, axes=axes)
    assert np.allclose(back, v, rtol=0.0, atol=1e-9 * np.abs(v).max())
