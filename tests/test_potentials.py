import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import capax.potentials as potentials
from capax.families import field_family
from capax.grid import Field, Grid, ball_mask
from capax.kernels import (apply_kernel, bessel_kernel_table, riesz_gamma, riesz_kernel_table,
                           torus_convolve, unit_sphere_area)
from capax.potentials import Measure, potential, wolff_at_points, wolff_potential
from conftest import direct_linear_convolve


def test_zero_field_maps_to_zero(g64):
    z = Field(g64, np.zeros(g64.shape), nonneg=True)
    assert np.all(potential(z, 0.4, "riesz").values == 0)
    assert np.all(potential(z, 0.4, "bessel").values == 0)


def test_fast_vs_direct_riesz_2d(rng):
    g = Grid(2, 1.0, 32)
    f = Field(g, rng.uniform(0, 1, g.shape), nonneg=True)
    table = riesz_kernel_table(g, 0.7)
    direct = direct_linear_convolve(f.values, table.values) * g.cell_volume
    for method in ("fast", "dense"):
        out = apply_kernel(table, f.values, method)
        assert np.max(np.abs(out - direct) / direct) <= 1e-10


def test_fast_vs_direct_bessel_1d(rng):
    g = Grid(1, 1.0, 64)
    f = Field(g, rng.uniform(0, 1, g.shape), nonneg=True)
    table = bessel_kernel_table(g, 0.4)
    direct = direct_linear_convolve(f.values, table.values) * g.cell_volume
    for method in ("fast", "dense"):
        out = apply_kernel(table, f.values, method)
        assert np.max(np.abs(out - direct) / direct) <= 1e-10


def test_potential_stays_on_fft(g64, rng):
    # The default potential must be the FFT product bit for bit, even on grids
    # where the solver uses the dense matrix: choquet_integral takes its levels
    # from the distinct node values of its input, and a 1e-16 change that
    # splits or merges symmetric ties moves it by up to 5% at levels=32.
    f = Field(g64, ball_mask(g64, 0.3).members.astype(float), nonneg=True)
    table = riesz_kernel_table(g64, 0.4)
    expect = torus_convolve(f.values, table.padded_rfft) * g64.cell_volume
    assert np.array_equal(potential(f, 0.4, "riesz").values, expect)


def test_potential_applies_through_module_binding(g64, monkeypatch):
    # potential() looks apply_kernel up in its module at call time, so a
    # replacement of capax.potentials.apply_kernel sees every call
    f = Field(g64, ball_mask(g64, 0.3).members.astype(float), nonneg=True)
    calls = []

    def recording_apply(table, values, method="fast"):
        calls.append((table.kind, table.alpha, method))
        return apply_kernel(table, values, method)

    monkeypatch.setattr(potentials, "apply_kernel", recording_apply)
    for kind in ("riesz", "bessel"):
        potential(f, 0.4, kind)
    assert calls == [("riesz", 0.4, "fast"), ("bessel", 0.4, "fast")]


def test_bad_method_and_grid_mismatch(g64):
    f = Field(g64, np.ones(g64.shape), nonneg=True)
    for method in ("wrong", "direct"):     # the direct sum is a test oracle only
        with pytest.raises(ValueError):
            apply_kernel(riesz_kernel_table(g64, 0.4), f.values, method)
    table = riesz_kernel_table(Grid(1, 1.0, 32), 0.4)
    with pytest.raises(ValueError):
        apply_kernel(table, f.values)


def test_ball_indicator_center_value_1d():
    g = Grid(1, 1.0, 256)
    alpha, R = 0.4, 0.25
    pot = potential(ball_mask(g, R).indicator(), alpha, "riesz").values
    exact = riesz_gamma(1, alpha) * unit_sphere_area(1) * R**alpha / alpha
    center = int(np.argmin(np.abs(g.axis)))
    assert abs(pot[center] / exact - 1) <= 0.02


def test_ball_indicator_center_value_2d():
    g = Grid(2, 1.0, 128)
    alpha, R = 0.7, 0.25
    pot = potential(ball_mask(g, R).indicator(), alpha, "riesz").values
    exact = riesz_gamma(2, alpha) * unit_sphere_area(2) * R**alpha / alpha
    idx = np.unravel_index(np.argmin(g.radii), g.shape)
    assert abs(pot[idx] / exact - 1) <= 0.03


def test_monotonicity_and_exact_scaling(g64, rng):
    a = rng.uniform(0, 1, g64.shape)
    b = a + rng.uniform(0, 1, g64.shape)
    pa = potential(Field(g64, a, nonneg=True), 0.4, "riesz").values
    pb = potential(Field(g64, b, nonneg=True), 0.4, "riesz").values
    assert np.all(pa <= pb + 1e-14)
    p2 = potential(Field(g64, 2.0 * a, nonneg=True), 0.4, "riesz").values
    assert np.array_equal(p2, 2.0 * pa)


def test_holder_interpolation_pointwise(g64, rng):
    # I(a^(1-t) b^t) <= (I a)^(1-t) (I b)^t for nonnegative a, b
    theta = 0.37
    a = rng.uniform(0.0, 1.0, g64.shape)
    b = rng.uniform(0.0, 1.0, g64.shape)
    mixed = potential(Field(g64, a ** (1 - theta) * b**theta, nonneg=True), 0.4, "riesz").values
    ia = potential(Field(g64, a, nonneg=True), 0.4, "riesz").values
    ib = potential(Field(g64, b, nonneg=True), 0.4, "riesz").values
    assert np.all(mixed <= ia ** (1 - theta) * ib**theta * (1 + 1e-12))


def test_bessel_below_riesz_for_nonneg(g64, rng):
    f = Field(g64, rng.uniform(0, 1, g64.shape), nonneg=True)
    gr = potential(f, 0.4, "riesz").values
    gb = potential(f, 0.4, "bessel").values
    assert np.all(gb <= gr * (1 + 1e-12))


def test_measure_validation(g64):
    with pytest.raises(ValueError):
        Measure.from_atoms(g64, [[2.0]], [1.0])      # outside the box
    with pytest.raises(ValueError):
        Measure.from_atoms(g64, [[0.0]], [-1.0])     # nonpositive mass
    with pytest.raises(ValueError):
        Measure(g64, (), Field(g64, -np.ones(g64.shape)))
    mu = Measure.from_atoms(g64, [[0.1], [-0.2]], [1.0, 2.0])
    assert mu.total_mass == pytest.approx(3.0)


def test_wolff_zero_measure(g64):
    mu = Measure(g64, (), Field(g64, np.zeros(g64.shape), nonneg=True))
    assert np.all(wolff_potential(mu, 0.4, 2.0).values == 0)


def test_wolff_dirac_closed_form():
    g = Grid(1, 1.0, 256)
    alpha, s = 0.4, 2.0
    kappa = (1 - alpha * s) / (s - 1)
    mu = Measure.from_atoms(g, [[0.0]], [1.0])
    w = wolff_potential(mu, alpha, s).values
    x = np.abs(g.axis)
    band = (x > 0.05) & (x < 0.5)
    exact = ((s - 1) / (1 - alpha * s)) * x[band] ** (-kappa)
    assert np.max(np.abs(w[band] / exact - 1)) <= 0.03


def test_wolff_truncation_monotone(g64):
    mu = Measure.from_atoms(g64, [[0.1], [-0.3]], [1.0, 0.7])
    w1 = wolff_potential(mu, 0.4, 2.0, R=0.5).values
    w2 = wolff_potential(mu, 0.4, 2.0, R=1.0).values
    w = wolff_potential(mu, 0.4, 2.0).values
    assert np.all(w1 <= w2 + 1e-14)
    assert np.all(w2 <= w + 1e-14)


def test_wolff_mass_scaling_exact(g64):
    mu = Measure.from_atoms(g64, [[0.1]], [1.0])
    s = 2.5
    w1 = wolff_potential(mu, 0.3, s).values
    w2 = wolff_potential(Measure.from_atoms(g64, [[0.1]], [2.0]), 0.3, s).values
    assert np.allclose(w2, 2.0 ** (1 / (s - 1)) * w1, rtol=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([Grid(1, 1.0, 32), Grid(2, 1.0, 8)]),
       st.lists(st.tuples(st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2),
                          st.floats(0.1, 10.0)), min_size=1, max_size=3),
       st.booleans(), st.sampled_from([math.inf, 0.5]), st.integers(-300, 300))
@example(Grid(2, 1.0, 8), [([0.1, -0.2], 3.0)], True, math.inf, -300)
@example(Grid(2, 1.0, 8), [([0.1, -0.2], 3.0)], True, math.inf, 300)
def test_wolff_scales_exactly_with_the_masses_at_s2(g, atoms, with_density, R, k):
    # at s = 2 the potential is linear in mu, and a power-of-two scaling of
    # every mass is exact in floating point
    bump = np.exp(-g.radii**2 / 0.1)

    def wolff(scale):
        density = Field(g, scale * bump, nonneg=True) if with_density else None
        mu = Measure(g, tuple((pos[:g.dim], scale * m) for pos, m in atoms), density)
        return wolff_potential(mu, 0.5 * g.dim / 2, 2.0, R).values

    assert np.array_equal(wolff(2.0**k), 2.0**k * wolff(1.0))


def test_wolff_overflow_raises_value_error():
    g = Grid(1, 1.0, 32)
    dens = np.exp(-g.axis**2 / 0.05)
    mu = Measure.from_density(Field(g, 1e160 * dens / dens.max(), nonneg=True))
    with pytest.raises(ValueError, match="total mass"):
        wolff_potential(mu, 0.4, 1.5)
    assert np.all(np.isfinite(wolff_potential(mu, 0.3, 3.0).values))   # power 1/2


def test_wolff_density_vs_atom_consistency():
    # a concentrated density behaves like its atom counterpart away from it;
    # the density path has no per-node jump knots, so agreement is limited by
    # the dyadic shell quantization (units and conventions must still match)
    g = Grid(1, 1.0, 256)
    h = g.spacing
    k = 128
    dens = np.zeros(g.shape)
    dens[k] = 1.0 / h
    mu_d = Measure.from_density(Field(g, dens, nonneg=True))
    mu_a = Measure.from_atoms(g, [[g.axis[k]]], [1.0])
    wd = wolff_potential(mu_d, 0.4, 2.0).values
    wa = wolff_potential(mu_a, 0.4, 2.0).values
    far = np.abs(g.axis - g.axis[k]) > 0.1
    assert np.max(np.abs(wd[far] / wa[far] - 1)) <= 0.10


@pytest.mark.parametrize("grid", [Grid(2, 1.0, 16), Grid(3, 1.0, 8)], ids=["2d", "3d"])
@pytest.mark.parametrize("R", [math.inf, 0.5])
def test_wolff_density_grid_matches_points_nd(grid, R):
    # the on-grid stencil sums and the per-point sorted-distance sums count
    # the same nodes, so the two evaluations agree to rounding, relative to
    # the max
    for f in field_family("mixed", 5, 4, grid):
        mu = Measure.from_density(f)
        on_grid = wolff_potential(mu, 0.4, 2.0, R).values.ravel()
        at_nodes = wolff_at_points(mu, 0.4, 2.0, grid.nodes, R)
        top = np.max(at_nodes)
        assert top > 0
        assert np.max(np.abs(on_grid - at_nodes)) <= 1e-12 * top


@pytest.mark.parametrize("grid", [Grid(2, 1.0, 16), Grid(3, 1.0, 8)], ids=["2d", "3d"])
def test_wolff_atoms_plus_density_on_grid_within_one_percent(grid):
    # with atoms present, the on-grid evaluation interpolates the density's
    # ball masses in a log-spaced radius table instead of counting nodes per
    # point, so it is close to wolff_at_points, not equal (0.42% of the max
    # in 2D, 0.38% in 3D)
    atoms = (((0.3, -0.2, 0.1)[:grid.dim], 0.5), ((-0.4, 0.1, 0.2)[:grid.dim], 1.0))
    mu = Measure(grid, atoms, field_family("mixed", 5, 2, grid)[1])
    on_grid = wolff_potential(mu, 0.4, 2.0).values.ravel()
    at_nodes = wolff_at_points(mu, 0.4, 2.0, grid.nodes)
    assert np.max(np.abs(on_grid - at_nodes)) <= 0.01 * np.max(at_nodes)


def test_wolff_points_must_have_the_grid_dimension(g64, g2d):
    # [0.1, 0.5] on a 1D grid is two points, not one 2-coordinate point
    mu1 = Measure.from_atoms(g64, [[0.0]], [1.0])
    assert wolff_at_points(mu1, 0.4, 2.0, [[0.1], [0.5]]).shape == (2,)
    mu2 = Measure.from_atoms(g2d, [[0.0, 0.0]], [1.0])
    for mu, points in ((mu1, [0.1, 0.5]), (mu1, 0.1), (mu2, [[0.1]]), (mu2, [[0.1, 0.2, 0.3]])):
        with pytest.raises(ValueError, match=r"points must have shape \(P, "):
            wolff_at_points(mu, 0.4, 2.0, points)


def test_truncated_wolff_vanishes_where_balls_miss_the_density():
    # balls of radius < R = 0.5 about 214 of the 256 nodes hold no node of the
    # density's support; the FFT ball sums left 1e-20 to 1e-17 there, so the
    # on-grid potential was exactly 0 at only 50 nodes
    g = Grid(2, 1.0, 16)
    mu = Measure.from_density(field_family("mixed", 5, 1, g)[0])
    on_grid = wolff_potential(mu, 0.4, 2.0, 0.5).values.ravel()
    at_nodes = wolff_at_points(mu, 0.4, 2.0, g.nodes, 0.5)
    assert np.count_nonzero(at_nodes == 0.0) == 214
    assert np.array_equal(on_grid == 0.0, at_nodes == 0.0)


def test_wolff_boundedness_single_atom(g64):
    mu = Measure.from_atoms(g64, [[0.037]], [1.0])
    w_nodes = wolff_potential(mu, 0.4, 2.0).values
    w_atom = wolff_at_points(mu, 0.4, 2.0, mu.atom_positions)
    assert np.max(w_nodes) <= w_atom[0] * (1 + 1e-12)


def test_wolff_divergent_parameters_rejected(g64):
    mu = Measure.from_atoms(g64, [[0.0]], [1.0])
    with pytest.raises(ValueError):
        wolff_potential(mu, 0.6, 2.0)   # n - alpha s <= 0
