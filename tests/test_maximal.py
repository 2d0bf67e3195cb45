import math

import numpy as np
import pytest

from capax.grid import Field, Grid
from capax.kernels import riesz_gamma
from capax.maximal import (BALL_SLACK, a1_constant, ball_stencil, dyadic_radii,
                           maximal_function)


def test_dyadic_radius_set():
    g = Grid(1, 1.0, 64)
    radii = dyadic_radii(g, truncated=False)
    assert radii[0] == g.spacing
    assert abs(radii[-1] - 2.0) < 1e-12
    trunc = dyadic_radii(g, truncated=True)
    assert all(r <= 1 + 1e-12 for r in trunc)
    assert len(trunc) < len(radii)


def test_maximal_constant_exact():
    # exact in n=1 by the interpolation construction; FFT rounding only in n>=2
    g1 = Grid(1, 1.0, 16)
    w1 = Field(g1, np.full(g1.shape, 3.0), nonneg=True)
    assert np.array_equal(maximal_function(w1).values, w1.values)
    g2 = Grid(2, 1.0, 16)
    w2 = Field(g2, np.full(g2.shape, 3.0), nonneg=True)
    assert np.allclose(maximal_function(w2).values, 3.0, rtol=1e-12)


def test_maximal_spike_against_enumeration_oracle():
    g = Grid(1, 1.0, 64)
    h, N, L = g.spacing, g.points_per_axis, g.half_width
    k = 40
    w = np.zeros(g.shape)
    w[k] = 1.0
    got = maximal_function(Field(g, w, nonneg=True)).values

    # direct enumeration of in-box overlap averages at each dyadic radius
    edges = -L + h * np.arange(N + 1)
    expected = np.zeros(N)
    for r in dyadic_radii(g, truncated=False):
        for i in range(N):
            lo, hi = max(g.axis[i] - r, -L), min(g.axis[i] + r, L)
            ov = max(0.0, min(hi, edges[k + 1]) - max(lo, edges[k]))
            expected[i] = max(expected[i], ov / (hi - lo))
    assert np.allclose(got, expected, rtol=1e-12, atol=0)
    # headline behavior: value at distance d is about h / (2 max(d, h))
    d = abs(g.axis[10] - g.axis[k])
    assert got[10] == pytest.approx(h / (2 * max(d, h)), rel=0.75)


def test_maximal_nd_zero_where_balls_miss_support():
    # w = 1 on the 4x4 corner block: at the 135 nodes whose dyadic balls
    # (truncated at radius 1) hold no block node the torus product leaves
    # rounding residue, which the support counts zero exactly; every node
    # agrees with node counting
    g = Grid(2, 1.0, 16)
    w = np.zeros(g.shape)
    w[:4, :4] = 1.0
    got = maximal_function(Field(g, w, nonneg=True), truncated=True).values
    nodes = np.stack(np.meshgrid(g.axis, g.axis, indexing="ij"), axis=-1).reshape(-1, 2)
    dist = np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=-1)
    expected = np.zeros(g.size)
    for r in dyadic_radii(g, truncated=True):
        inside = dist <= r * BALL_SLACK
        expected = np.maximum(expected, (inside @ w.ravel()) / inside.sum(axis=1))
    expected = expected.reshape(g.shape)
    assert np.count_nonzero(expected == 0.0) == 135
    assert np.all(got[expected == 0.0] == 0.0)
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def test_truncated_below_untruncated():
    g = Grid(1, 2.0, 64)
    rng = np.random.default_rng(3)
    w = Field(g, rng.uniform(0, 1, g.shape), nonneg=True)
    mt = maximal_function(w, truncated=True).values
    mu = maximal_function(w, truncated=False).values
    assert np.all(mt <= mu + 1e-15)


def test_maximal_center_weight_lower_bound():
    # the smallest ball average retains at least the center-cell share
    g1 = Grid(1, 1.0, 32)
    rng = np.random.default_rng(5)
    w1 = rng.uniform(0, 1, g1.shape)
    m1 = maximal_function(Field(g1, w1, nonneg=True)).values
    assert np.all(m1 >= w1 / 2 - 1e-14)
    g2 = Grid(2, 1.0, 16)
    w2 = rng.uniform(0, 1, g2.shape)
    m2 = maximal_function(Field(g2, w2, nonneg=True)).values
    assert np.all(m2 >= w2 / 5 - 1e-14)


def test_ball_stencil_counts():
    g = Grid(2, 1.0, 16)
    s = ball_stencil(g, g.spacing)
    assert int(s.sum()) == 5   # center plus four axis neighbors


def test_a1_constant_of_constant_weight():
    g = Grid(1, 1.0, 64)
    assert a1_constant(Field(g, np.full(g.shape, 7.0), nonneg=True)) == 1.0


def test_a1_scale_invariance():
    g = Grid(1, 1.0, 64)
    rng = np.random.default_rng(8)
    w = rng.uniform(0.1, 1, g.shape)
    a = a1_constant(Field(g, w, nonneg=True))
    b = a1_constant(Field(g, 2.0 * w, nonneg=True))
    assert a == b


def test_a1_infinite_sentinel():
    g = Grid(1, 1.0, 64)
    w = np.ones(g.shape)
    w[10] = 0.0
    assert a1_constant(Field(g, w, nonneg=True)) == math.inf


def test_truncated_maximal_function_without_a_dyadic_radius():
    # the spacing 2 exceeds the truncation radius 1, so no ball is taken:
    # M w = |w|, and the A1 constant is 1 although w vanishes at some nodes
    g = Grid(1, 8.0, 8)
    assert dyadic_radii(g, truncated=True) == []
    w = Field(g, [0.0, 0.0, 1.0, 3.0, 2.0, 0.0, 0.0, 0.0], nonneg=True)
    assert np.array_equal(maximal_function(w, truncated=True).values, w.values)
    assert a1_constant(w, truncated=True) == 1.0
    assert a1_constant(w) == math.inf   # untruncated balls reach the zeros


def test_a1_rejects_bad_weights():
    g = Grid(1, 1.0, 64)
    with pytest.raises(ValueError):
        a1_constant(Field(g, -np.ones(g.shape)))
    with pytest.raises(ValueError):
        a1_constant(Field(g, np.zeros(g.shape)))


def test_a1_riesz_kernel_weight_refinement_stable():
    alpha = 0.4
    values = []
    for N in (64, 128, 256):
        g = Grid(1, 1.0, N)
        w = riesz_gamma(1, alpha) * np.abs(g.axis) ** (alpha - 1)
        values.append(a1_constant(Field(g, w, nonneg=True)))
    assert all(math.isfinite(v) for v in values)
    for a, b in zip(values, values[1:]):
        assert abs(b / a - 1) <= 0.10
