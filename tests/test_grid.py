import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capax.grid import (Field, Grid, Mask, Params, annulus_mask, ball_mask, cube_mask,
                        field_from_json, field_to_json, integrate, lp_norm,
                        mask_from_json, mask_to_json)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 1.0, 64)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 64)
    for half_width in (math.inf, math.nan):   # inf gave inf spacing and NaN nodes
        with pytest.raises(ValueError, match="half_width must be finite and positive"):
            Grid(1, half_width, 64)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 48)   # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 1.0, 4)    # too small


def test_grid_nodes_are_cell_centers():
    g = Grid(1, 1.0, 8)
    h = g.spacing
    assert h == 0.25
    assert np.allclose(g.axis, -1 + (np.arange(8) + 0.5) * h)
    assert 0.0 not in g.axis


def test_integrate_zero(g64):
    assert integrate(Field(g64, np.zeros(g64.shape))) == 0.0


def test_integrate_full_box_indicator():
    g = Grid(1, 1.0, 128)
    assert abs(integrate(Mask.full(g).indicator()) - 2.0) <= 1e-12


def test_integrate_matches_extended_precision(rng):
    g = Grid(1, 1.0, 256)
    vals = rng.standard_normal(g.shape)
    mine = integrate(Field(g, vals))
    exact = g.spacing * math.fsum(vals.tolist())
    assert abs(mine - exact) <= 1e-12 * max(abs(exact), 1.0)


def test_lp_norm_zero_and_constant(g64):
    assert lp_norm(Field(g64, np.zeros(g64.shape)), 3.0) == 0.0
    c = 2.5
    vol = 2.0
    for t in [1.0, 2.0, 3.5]:
        got = lp_norm(Field(g64, np.full(g64.shape, c)), t)
        assert abs(got - c * vol ** (1 / t)) <= 1e-12 * got


def test_lp_norm_definition_unrolled(g64, rng):
    vals = rng.uniform(-1, 1, g64.shape)
    f = Field(g64, vals)
    direct = math.sqrt(integrate(Field(g64, vals**2)))
    assert abs(lp_norm(f, 2.0) - direct) <= 1e-14


def test_lp_norm_rejects_bad_exponent(g64):
    with pytest.raises(ValueError):
        lp_norm(Field(g64, np.ones(g64.shape)), 0.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.floats(0.1, 5.0))
def test_integrate_linear_and_monotone(seed_a, seed_b, scale):
    g = Grid(1, 1.0, 16)
    a = np.random.default_rng(seed_a).uniform(0, 1, g.shape)
    b = np.random.default_rng(seed_b).uniform(0, 1, g.shape)
    ia, ib = integrate(Field(g, a)), integrate(Field(g, b))
    assert abs(integrate(Field(g, a + scale * b)) - (ia + scale * ib)) <= 1e-12 * (1 + ia + ib)
    assert integrate(Field(g, np.minimum(a, b))) <= min(ia, ib) + 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.floats(1.0, 4.0))
def test_lp_triangle_inequality(seed_a, seed_b, t):
    g = Grid(1, 1.0, 16)
    a = np.random.default_rng(seed_a).standard_normal(g.shape)
    b = np.random.default_rng(seed_b).standard_normal(g.shape)
    lhs = lp_norm(Field(g, a + b), t)
    rhs = lp_norm(Field(g, a), t) + lp_norm(Field(g, b), t)
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_mask_boolean_algebra(seed_a, seed_b):
    g = Grid(1, 1.0, 16)
    a = Mask(g, np.random.default_rng(seed_a).uniform(size=g.shape) < 0.5)
    b = Mask(g, np.random.default_rng(seed_b).uniform(size=g.shape) < 0.5)
    assert (a | b) == (b | a)
    assert (a & b) == (b & a)
    assert ~(a | b) == (~a & ~b)
    assert ~(~a) == a
    assert (a | Mask.empty(g)) == a
    assert (a & Mask.full(g)) == a


def test_mask_grid_mismatch():
    a = Mask.full(Grid(1, 1.0, 16))
    b = Mask.full(Grid(1, 1.0, 32))
    with pytest.raises(ValueError):
        _ = a | b


def test_params_validation():
    Params(1, 0.4, 2.0)
    with pytest.raises(ValueError):
        Params(1, 0.6, 2.0)    # alpha > n/s
    with pytest.raises(ValueError):
        Params(1, 0.4, 1.0)    # s must exceed 1
    with pytest.raises(ValueError):
        Params(1, 0.4, 2.0, q=0.5)
    with pytest.raises(ValueError):
        Params(1, 0.4, 2.0, p=1.0)
    with pytest.raises(ValueError):
        Params(1, 0.4, 2.0, r=3.0)
    with pytest.raises(ValueError, match="q must be finite and >= 1"):
        Params(1, 0.4, 2.0, q=math.inf)
    with pytest.raises(ValueError, match="p must be finite and exceed 1"):
        Params(1, 0.4, 2.0, p=math.inf)
    # Bessel admits alpha = n/s, Riesz does not
    edge = Params(1, 0.5, 2.0)
    edge.validate_for("bessel")
    with pytest.raises(ValueError):
        edge.validate_for("riesz")


def test_params_derived():
    p = Params(1, 0.3, 3.0, q=1.5, p=2.0)
    assert abs(p.p_conj - 2.0) < 1e-15


def test_field_validation(g64):
    with pytest.raises(ValueError):
        Field(g64, np.full(g64.shape, np.nan))
    with pytest.raises(ValueError):
        Field(g64, -np.ones(g64.shape), nonneg=True)
    with pytest.raises(ValueError):
        Field(g64, np.ones(12))


def test_mask_constructors(g64):
    b = ball_mask(g64, 0.25)
    c = cube_mask(g64, 0.5)
    assert b.count > 0 and b == (b & c)   # in 1d the ball is the cube
    a = annulus_mask(g64, 0.2, 0.4)
    assert a.count > 0
    assert (a & ball_mask(g64, 0.1)).count == 0


def test_field_serialization_roundtrip(g2d, rng):
    f = Field(g2d, rng.uniform(0, 1, g2d.shape), nonneg=True)
    f2 = field_from_json(field_to_json(f))
    assert f2.grid == g2d and f2.nonneg
    assert np.array_equal(f2.values, f.values)
    doc = json.loads(field_to_json(f))
    assert doc["dim"] == 2 and doc["points_per_axis"] == 32
    assert len(doc["values"]) == g2d.size   # row-major flat payload


def test_mask_serialization_roundtrip(g64):
    m = ball_mask(g64, 0.3)
    m2 = mask_from_json(mask_to_json(m))
    assert m2 == m
