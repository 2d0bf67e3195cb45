import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from capax.grid import Field, Grid, Mask, Params, ball_mask, cube_mask
from capax.capacity import (capacity, choquet_integral, lq_cap_norm, solve_scope, _layer_cake,
                            _solve)
from capax.families import field_family
from capax.kernels import kernel_table
from capax.potentials import potential
from capax.solver import obstacle_program
from capax.spaces import NormEstimate, f_norm, n_norm


def test_empty_set_capacity(g64, params):
    res = capacity(Mask.empty(g64), params)
    assert res.value == 0.0 and res.converged
    assert np.all(res.extremal == 0)


@pytest.mark.parametrize("call", [
    lambda E, P: capacity(E, P, "gauss"),
    lambda E, P: choquet_integral(E.indicator(), P, "gauss"),
    lambda E, P: potential(E.indicator(), P.alpha, "gauss"),
], ids=["capacity", "choquet_integral", "potential"])
def test_unknown_kernel_kind_names_the_kind(g64, params, call):
    with pytest.raises(ValueError, match="'gauss'"):
        call(ball_mask(g64, 0.3), params)


def test_params_dimension_must_match_grid():
    # alpha * s = 1.4 is valid for n = 2 but exceeds the grid's n = 1
    g = Grid(1, 1.0, 32)
    P2 = Params(2, 0.7, 2.0)
    with pytest.raises(ValueError, match="grid dimension"):
        capacity(ball_mask(g, 0.3), P2)
    with pytest.raises(ValueError, match="grid dimension"):
        choquet_integral(Field(g, np.exp(-g.radii**2 / 0.1), nonneg=True), P2, levels=4)


def test_capacity_against_interior_point_oracle(g64, params, capacity_qp):
    E = ball_mask(g64, 0.25)
    mine = capacity(E, params, tol=1e-9)
    assert mine.converged

    from capax.kernels import riesz_kernel_table

    table = riesz_kernel_table(g64, params.alpha)
    N, h = g64.points_per_axis, g64.spacing
    K = np.array([table.values[i:i + N][::-1] * h for i in range(N)])
    idx = np.where(E.members)[0]
    oracle = capacity_qp(K, idx, h)
    assert abs(mine.value - oracle) / oracle <= 1e-6


def test_capacity_result_invariants(g64, params):
    res = capacity(ball_mask(g64, 0.2), params, tol=1e-7)
    assert res.converged
    assert res.residual <= 1e-7
    assert res.gap <= 1e-7 * max(res.value, 1.0)
    assert np.all(res.extremal >= 0)


def test_dilation_law_on_matched_grids():
    # cap(lam E) on the lam-dilated grid equals lam^(n - alpha s) cap(E)
    alpha, s, N = 0.4, 2.0, 128
    base = Params(1, alpha, s)
    cap1 = capacity(ball_mask(Grid(1, 1.0, N), 0.2), base, tol=1e-8).value
    for lam in (0.5, 2.0):
        g = Grid(1, lam * 1.0, N)
        cap_lam = capacity(ball_mask(g, lam * 0.2), base, tol=1e-8).value
        assert abs(cap_lam / (lam ** (1 - alpha * s) * cap1) - 1) <= 0.03


def test_capacity_monotone_and_subadditive(g64, params):
    tol = 1e-7
    A = ball_mask(g64, 0.12)
    B = ball_mask(g64, 0.25)
    C = cube_mask(g64, 0.3, center=[0.4])
    capA = capacity(A, params, tol=tol).value
    capB = capacity(B, params, tol=tol).value
    capBC = capacity(B | C, params, tol=tol).value
    capC = capacity(C, params, tol=tol).value
    assert capA <= capB + 2 * tol
    assert capB <= capBC + 2 * tol
    assert capBC <= capB + capC + 4 * tol


_PROPERTY_GRIDS = st.sampled_from([Grid(1, 1.0, 32), Grid(2, 1.0, 8)])
_PROGRAMS = st.tuples(st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from(["riesz", "bessel"]))
_UNION = st.lists(st.tuples(st.sampled_from([ball_mask, cube_mask]), st.floats(0.05, 0.8),
                            st.lists(st.floats(-0.7, 0.7), min_size=2, max_size=2)),
                  min_size=1, max_size=2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_PROPERTY_GRIDS, st.sampled_from([1.5, 2.0, 3.0]), st.sampled_from(["riesz", "bessel"]),
       _UNION, _UNION)
@example(Grid(1, 1.0, 32), 1.5, "riesz", [(ball_mask, 0.5, [0.0, 0.0])],
         [(ball_mask, 0.0625, [0.0, 0.0])]).via("a dual value one ulp above the value")
def test_capacity_axioms_on_random_unions(g, s, kind, shapes_a, shapes_b):
    # Adams-Hedberg, Function Spaces and Potential Theory, 2.3: capacities
    # are monotone and subadditive. A certified value lies within
    # tol * max(v, 1) above the optimum, and its dual value below it
    tol = 1e-6
    A = B = Mask.empty(g)
    for make, size, center in shapes_a:
        A = A | make(g, size, center[:g.dim])
    for make, size, center in shapes_b:
        B = B | make(g, size, center[:g.dim])
    rows = np.stack([E.members for E in (A, B, A | B)]).astype(float)
    table = kernel_table(g, 0.5 * g.dim / s, kind)
    cap_a, cap_b, cap_ab = results = obstacle_program(table, rows, s, tol=tol)
    for res in results:
        assert res.converged and res.dual_value <= res.value
    slack = 2 * tol * max(cap_ab.value, 1.0)
    assert max(cap_a.value, cap_b.value) <= cap_ab.value + slack
    assert cap_ab.value <= cap_a.value + cap_b.value + slack


@st.composite
def _ordered_fields(draw):
    """Two nonnegative fields g <= g2 on one grid, each zero at some nodes; g2
    is g plus a rise of size up to 1 or up to 1e-9, so that C(g2) can lie
    just above C(g)."""
    g = draw(_PROPERTY_GRIDS)
    values = arrays(float, g.shape, elements=st.floats(0.0, 1.0) | st.just(0.0),
                    fill=st.nothing())   # every node drawn, so most values differ
    low = draw(values)
    rise = draw(st.sampled_from([1.0, 1e-9])) * draw(values)
    return Field(g, low, nonneg=True), Field(g, low + rise, nonneg=True)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_ordered_fields(), _PROGRAMS)
def test_choquet_integral_monotone_in_g(fields, program):
    # levels = grid.size samples every breakpoint, so the layer cake is the
    # exact sum of its steps. Each certified capacity lies within
    # tol * max(cap, 1) above the optimum, so the computed C(g) exceeds the
    # true one by at most tol * (C(g) + max g), and C(g2) is at least its true value
    (g, g2), (s, kind) = fields, program
    tol = 1e-6
    P = Params(g.grid.dim, 0.5 * g.grid.dim / s, s)
    low, high = choquet_integral([g, g2], P, kind, levels=g.grid.size, tol=tol)
    assert low <= high + tol * (low + float(np.max(g.values)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_PROPERTY_GRIDS, _PROGRAMS, _UNION, st.floats(1e-3, 1e3))
def test_choquet_integral_of_scaled_indicator(g, program, shapes, c):
    # the layer cake of c 1_E is one step of height c over cap(E)
    s, kind = program
    P = Params(g.dim, 0.5 * g.dim / s, s)
    E = Mask.empty(g)
    for make, size, center in shapes:
        E = E | make(g, size, center[:g.dim])
    cap = capacity(E, P, kind).value
    value = choquet_integral(Field(g, c * E.members, nonneg=True), P, kind, levels=g.size)
    assert abs(value - c * cap) <= 1e-12 * c * cap


def test_extremal_uniqueness_across_initializations(params, rng):
    g = Grid(1, 1.0, 128)
    E = ball_mask(g, 0.2)
    tol = 1e-6
    r1 = capacity(E, params, tol=tol)
    # a random multiplier; a constant one would ray-scale to the cold seed
    r2 = capacity(E, params, tol=tol, warm=rng.uniform(0.1, 1.0, g.shape))
    assert r2.converged and not np.array_equal(r1.extremal, r2.extremal)
    dist = (g.spacing * np.sum(np.abs(r1.extremal - r2.extremal) ** params.s)) ** (1 / params.s)
    assert dist <= 10 * tol


def test_lebesgue_lower_bound_stability():
    # |E|^(1 - alpha s / n) <= c * cap(E) with a grid-stable best constant
    alpha, s = 0.4, 2.0
    P = Params(1, alpha, s)
    exponent = 1 - alpha * s
    cs = []
    for N in (64, 128):
        g = Grid(1, 1.0, N)
        ratios = []
        for R in (0.1, 0.2, 0.35):
            E = ball_mask(g, R)
            ratios.append(E.measure**exponent / capacity(E, P, tol=1e-7).value)
        cs.append(max(ratios))
    assert all(math.isfinite(c) for c in cs)
    assert abs(cs[1] / cs[0] - 1) <= 0.25


def test_choquet_layer_cake_identities(g64, params):
    tol = 1e-8
    E = ball_mask(g64, 0.25)
    capE = capacity(E, params, tol=tol).value
    assert abs(choquet_integral(E.indicator(), params, tol=tol) - capE) <= 2 * tol
    scaled = Field(g64, 3.7 * E.members, nonneg=True)
    assert abs(choquet_integral(scaled, params, tol=tol) - 3.7 * capE) <= 3.7 * 2 * tol

    A, B = ball_mask(g64, 0.12), ball_mask(g64, 0.3)
    two = Field(g64, A.members + B.members.astype(float), nonneg=True)
    capA = capacity(A, params, tol=tol).value
    capB = capacity(B, params, tol=tol).value
    got = choquet_integral(two, params, tol=tol)
    assert abs(got / (capA + capB) - 1) <= 0.01


@pytest.mark.filterwarnings("error")
def test_layer_cake_samples_a_subnormal_smallest_value(params):
    # the ratio of the largest breakpoint to 5e-324 overflows: it raised a
    # RuntimeWarning and dropped breakpoint 0 from the sample
    g = Grid(1, 1.0, 32)
    fields = []
    for tiny in (5e-324, 1e-300):
        vals = np.zeros(g.shape)
        vals[:8] = [tiny, *np.linspace(0.1, 1.0, 7)]
        thresholds, distinct, idx = _layer_cake(vals, 4)
        assert list(idx) == [0, 1, 6] and thresholds[1] == tiny
        for k in (1, 4):   # power-of-two rescalings select the same breakpoints
            assert list(_layer_cake(np.ldexp(vals, k), 4)[2]) == [0, 1, 6]
        fields.append(Field(g, vals, nonneg=True))
    subnormal, normal = choquet_integral(fields, params, levels=4)
    assert math.isfinite(subnormal) and abs(subnormal - normal) <= 1e-12 * normal


def test_choquet_rejects_negative(g64, params):
    with pytest.raises(ValueError):
        choquet_integral(Field(g64, -np.ones(g64.shape)), params)


def test_choquet_level_doubling(params):
    g = Grid(1, 1.0, 128)
    bump = Field(g, np.exp(-g.axis**2 / (2 * 0.15**2)), nonneg=True)
    v = potential(bump, params.alpha, "riesz").values
    field = Field(g, v**2, nonneg=True)
    c48 = choquet_integral(field, params, levels=48, tol=1e-7)
    c96 = choquet_integral(field, params, levels=96, tol=1e-7)
    assert abs(c96 / c48 - 1) <= 0.005


def test_choquet_seeds_only_from_converged_solves(g2d, monkeypatch):
    # above 64 nodes (grid.size^3 > DIRECT_MAX_WORK) a sweep solves its sets
    # one by one along the chain, each seeded by the last converged solve
    mod = sys.modules["capax.capacity"]     # the package attribute is the function
    orig = mod.obstacle_program
    seeds, results = [], []

    def second_unconverged(table, obstacle, s, warm=None, **kw):
        seeds.append(warm)
        res = orig(table, obstacle, s, warm=warm, **kw)
        if len(results) == 1:
            res = dataclasses.replace(res, converged=False)
        results.append(res)
        return res

    monkeypatch.setattr(mod, "obstacle_program", second_unconverged)
    u = np.exp(-g2d.radii**2 / 0.05)
    choquet_integral(Field(g2d, u, nonneg=True), Params(2, 0.7, 2.0), levels=4)
    assert len(results) == 5 and seeds[0] is None
    assert seeds[1] is results[0].multiplier
    assert seeds[2] is results[0].multiplier      # the unconverged solve does not seed
    assert seeds[3] is results[2].multiplier and seeds[4] is results[3].multiplier


def test_choquet_solves_one_cold_stack(g64, params, monkeypatch):
    # on at most 64 nodes, one solver call per sweep, whose rows are the
    # support and the sampled superlevel sets, all cold; a row that does not
    # converge is counted and not memoized, while the other rows are
    mod = sys.modules["capax.capacity"]     # the package attribute is the function
    orig = mod.obstacle_program
    calls = []

    def second_unconverged(table, obstacle, s, warm=None, **kw):
        calls.append((np.array(obstacle), warm))
        results = orig(table, obstacle, s, warm=warm, **kw)
        results[1] = dataclasses.replace(results[1], converged=False)
        return results

    monkeypatch.setattr(mod, "obstacle_program", second_unconverged)
    u = np.exp(-g64.axis**2 / 0.05)
    with solve_scope() as scope:
        choquet_integral(Field(g64, u, nonneg=True), params, levels=4)
    assert len(calls) == 1
    sets, warm = calls[0]
    assert warm is None and sets.shape == (5,) + g64.shape
    assert np.array_equal(sets[0], u > 0)
    for above, row in zip(sets, sets[1:]):
        # each sampled row is {u > t} at a node value t, strictly inside the last
        assert np.array_equal(row, u > u[row == 0].max())
        assert row.sum() < above.sum() and np.all(row <= above)
    assert scope.counts() == {"solves": 5, "memo_hits": 0, "nonconverged": 1}
    (memo,) = scope.memo.values()
    assert set(memo) == {row.tobytes() for k, row in enumerate(sets) if k != 1}


@pytest.mark.parametrize("N", [64, 128])
def test_stacked_sweeps_match_one_field_calls(N, params, solve_calls):
    # on 64 nodes the fields' sets share stacks, whose products round in their
    # own order; on 128 each field keeps its own warm chain, so the values
    # are the one-field calls' exactly
    g = Grid(1, 1.0, N)
    fields = [Field(g, np.abs(f.values), nonneg=True) for f in field_family("mixed", 5, 6, g)]
    fields.insert(2, Field(g, np.zeros(g.shape), nonneg=True))
    caps = choquet_integral(fields, params, levels=16)
    rows = len(solve_calls)
    norms = lq_cap_norm(fields, 1.5, params, levels=16)
    alone_caps = [choquet_integral(f, params, levels=16) for f in fields]
    alone_norms = [lq_cap_norm(f, 1.5, params, levels=16) for f in fields]
    assert caps[2] == norms[2] == 0.0
    if N == 128:
        assert caps == alone_caps and norms == alone_norms
    else:
        assert rows > N    # more rows than one stack takes
        for got, want in zip(caps + norms, alone_caps + alone_norms):
            assert abs(got - want) <= 1e-14 * want


def test_field_lists_share_one_grid(params):
    g32, g64 = Grid(1, 1.0, 32), Grid(1, 1.0, 64)
    mixed = [Field(g32, np.ones(g32.shape)), Field(g64, np.ones(g64.shape))]
    for sweep in (lambda u: choquet_integral(u, params, levels=4),
                  lambda u: lq_cap_norm(u, 1.5, params, levels=4)):
        with pytest.raises(ValueError, match="one grid"):
            sweep(mixed)
        assert sweep([]) == []


def test_choquet_monotone(g64, params):
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, g64.shape)
    b = a + rng.uniform(0, 0.5, g64.shape)
    ca = choquet_integral(Field(g64, a, nonneg=True), params, levels=24, tol=1e-7)
    cb = choquet_integral(Field(g64, b, nonneg=True), params, levels=24, tol=1e-7)
    assert ca <= cb * (1 + 1e-6)


def test_lq_cap_norm_identities(g64, params):
    tol = 1e-8
    E = ball_mask(g64, 0.25)
    capE = capacity(E, params, tol=tol).value
    q = 1.5
    got = lq_cap_norm(E.indicator(), q, params, tol=tol)
    assert abs(got - capE ** (1 / q)) <= 1e-6
    # exact absolute homogeneity at a power-of-two factor
    u = Field(g64, np.exp(-g64.axis**2 / 0.08), nonneg=True)
    n1 = lq_cap_norm(u, q, params, levels=24, tol=tol)
    n2 = lq_cap_norm(Field(g64, 2.0 * u.values, nonneg=True), q, params, levels=24, tol=tol)
    assert n2 == 2.0 * n1


def test_lq_cap_norm_vs_csim_constant(g64, params, rng):
    f = Field(g64, rng.uniform(0, 1, g64.shape), nonneg=True)
    v = potential(f, params.alpha, "riesz")
    s = params.s
    lq = lq_cap_norm(v, s, params, levels=32, tol=1e-7)
    from capax.grid import lp_norm

    ratio = lq**s / lp_norm(f, s) ** s
    assert math.isfinite(ratio) and ratio > 0


def test_f_norm_zero_and_indicator(g64, params):
    z = Field(g64, np.zeros(g64.shape))
    est = f_norm(z, Params(1, 0.4, 2.0, r=1.3))
    assert est.upper == 0.0
    P = Params(1, 0.4, 2.0, r=1.3)
    E = ball_mask(g64, 0.25)
    capE = capacity(E, P, tol=1e-8).value
    c = 2.0
    est2 = f_norm(Field(g64, c * E.members), P, tol=1e-8)
    assert abs(est2.upper / (c * capE ** (P.r / P.s)) - 1) <= 0.03
    assert est2.lower <= est2.upper
    assert est2.details["converged"]


def test_f_norm_at_extreme_amplitudes():
    # the program is solved on the sup-normalized obstacle; at 1e154 the raw
    # obstacle's powers overflowed and the estimate came back (0, 0)
    g = Grid(1, 1.0, 32)
    P = Params(1, 0.4, 2.0, q=1.0, p=2.0, r=1.0)
    unit = np.abs(field_family("mixed", 5, 2, g)[1].values)
    unit /= unit.max()
    ref = f_norm(Field(g, unit, nonneg=True), P)
    for amp in (1e154, 1e-150):
        est = f_norm(Field(g, amp * unit, nonneg=True), P)
        assert est.details["converged"] and est.lower <= est.upper
        assert est.upper / amp == pytest.approx(ref.upper, rel=1e-14)
        assert est.lower / amp == pytest.approx(ref.lower, rel=1e-14)
        assert np.allclose(est.witness.values / amp, ref.witness.values, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="float range"):
        f_norm(Field(g, 1e160 * unit, nonneg=True), P)    # h^n sum f^2 ~ 1e320


def test_f_norm_sandwich_with_lq_cap(g64):
    # the obstacle norm is equivalent to the L^(s/r)(cap) quasi-norm
    P = Params(1, 0.4, 2.0, r=1.0)
    rng = np.random.default_rng(12)
    ratios = []
    for _ in range(4):
        u = Field(g64, rng.uniform(0, 1, g64.shape) ** 2, nonneg=True)
        fn = f_norm(u, P, tol=1e-7).upper
        lq = lq_cap_norm(u, P.s / P.r, P, levels=24, tol=1e-7)
        ratios.append(fn / lq)
    assert all(0.1 <= r <= 10 for r in ratios)
    assert max(ratios) / min(ratios) <= 5.0


def test_norm_estimate_validation():
    with pytest.raises(ValueError):
        NormEstimate(2.0, 1.0)
    est = NormEstimate(1.0, 2.0, flags=("heuristic-lower",))
    doc = json.loads(est.to_json())
    assert doc["heuristic_flags"] == ["heuristic-lower"]


def test_solver_budget_degradation(g64, params):
    # outside a scope a capacity is this one solve, as
    # test_capacity_outside_scope_is_a_direct_solve pins
    res = obstacle_program(kernel_table(g64, params.alpha, "riesz"),
                           ball_mask(g64, 0.25).indicator().values, params.s, tol=1e-12,
                           max_iter=5)
    assert not res.converged
    assert res.iterations <= 5
    assert res.value > 0 and math.isfinite(res.gap)


def test_choquet_and_lq_cap_reject_zero_levels(g64, params):
    ramp = Field(g64, np.linspace(0.0, 1.0, g64.points_per_axis), nonneg=True)
    with pytest.raises(ValueError, match="levels"):
        choquet_integral(ramp, params, levels=0)
    with pytest.raises(ValueError, match="levels"):
        lq_cap_norm(ramp, 1.5, params, levels=0)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
def test_nonpositive_tol_rejected_on_every_solve_path(g64, params, tol):
    ramp = Field(g64, np.linspace(0.0, 1.0, g64.points_per_axis), nonneg=True)
    calls = [lambda: capacity(ball_mask(g64, 0.25), params, tol=tol),
             lambda: choquet_integral(ramp, params, tol=tol),
             lambda: lq_cap_norm(ramp, 1.5, params, tol=tol),
             lambda: f_norm(ramp, params, tol=tol),
             lambda: n_norm(ramp, params, tol=tol, budget=2)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be positive"):
            call()


# -- solve memo -----------------------------------------------------------------

@pytest.fixture
def solve_calls(monkeypatch):
    """Record every obstacle row passed to the capacity module's obstacle_program:
    a grid-shaped obstacle is one row, a stack one row per obstacle."""
    mod = sys.modules["capax.capacity"]     # the package attribute is the function
    orig = mod.obstacle_program
    calls = []

    def recording(table, obstacle, s, **kw):
        calls.extend(np.array(obstacle, dtype=float).reshape((-1,) + table.grid.shape))
        return orig(table, obstacle, s, **kw)

    monkeypatch.setattr(mod, "obstacle_program", recording)
    return calls


def test_memo_solves_repeated_obstacle_once(g64, params, solve_calls):
    E = ball_mask(g64, 0.25)
    with solve_scope() as scope:
        first = capacity(E, params)
        again = capacity(E, params, warm=capacity(ball_mask(g64, 0.2), params).multiplier)
    assert len(solve_calls) == 2          # E once, the warm start's set once
    assert scope.counts() == {"solves": 2, "memo_hits": 1, "nonconverged": 0}
    assert again.value == first.value
    assert np.array_equal(again.extremal, first.extremal)


def test_memo_works_per_row_of_a_stack(g64, params, solve_calls):
    # a stack sends only its unsolved rows, each once, to the solver
    A = ball_mask(g64, 0.25).indicator().values
    B = ball_mask(g64, 0.1).indicator().values
    with solve_scope() as scope:
        first = _solve(params, g64, A, "riesz", 1e-6)
        stacked = _solve(params, g64, np.stack([B, A, B]), "riesz", 1e-6)
    assert len(solve_calls) == 2 and np.array_equal(solve_calls[1], B)
    assert scope.counts() == {"solves": 2, "memo_hits": 2, "nonconverged": 0}
    assert stacked[1] is first and stacked[0] is stacked[2] and stacked[0].converged


def test_memo_does_not_leak_between_calls(g64, params, solve_calls, cold_family_witnesses):
    g = Field(g64, np.exp(-g64.axis**2 / 0.08), nonneg=True)
    P = dataclasses.replace(params, r=1.0)
    a = n_norm(g, P, levels=16, budget=4)
    first = len(solve_calls)
    # the call adopts the scope its family witnesses were built in, so no
    # obstacle is solved twice, the build's included
    assert len({row.tobytes() for row in solve_calls}) == first
    # n_norm's family witnesses are built once per configuration on purpose;
    # with that cache emptied, a second call repeats every solve of the first
    cold_family_witnesses.cache_clear()
    b = n_norm(g, P, levels=16, budget=4)
    assert first > 0 and len(solve_calls) == 2 * first
    assert (a.lower, a.upper) == (b.lower, b.upper)
    solve_calls.clear()
    c = n_norm(g, P, levels=16, budget=4)    # the cache is warm: fewer rows, same estimate
    warm = len(solve_calls)
    assert 0 < warm < first and (c.lower, c.upper) == (a.lower, a.upper)
    solve_calls.clear()
    with solve_scope() as scope:    # the call joins an open scope
        n_norm(g, P, levels=16, budget=4)
    # each memo hit is a repeat that a call without the memo would solve again
    assert len(solve_calls) == scope.solves == warm and scope.memo_hits > 0


def test_family_witness_build_counts_unconverged_rows_on_every_call(
        g64, params, monkeypatch, cold_family_witnesses):
    # the build's solves are not counted in the caller's scope, but its
    # unconverged rows are, on every call that uses the built witnesses
    mod = sys.modules["capax.capacity"]     # the package attribute is the function
    orig = mod.obstacle_program
    calls = []

    def first_row_unconverged(table, obstacle, s, **kw):
        results = orig(table, obstacle, s, **kw)
        calls.append(len(obstacle))
        if len(calls) == 1:    # the build's first sweep stack
            results[0] = dataclasses.replace(results[0], converged=False)
        return results

    monkeypatch.setattr(mod, "obstacle_program", first_row_unconverged)
    g = Field(g64, np.exp(-g64.axis**2 / 0.08), nonneg=True)
    P = dataclasses.replace(params, r=1.0)
    counts = []
    for _ in range(2):
        with solve_scope() as scope:
            n_norm(g, P, levels=16, budget=4)
        counts.append(scope.counts())
    assert cold_family_witnesses.cache_info().hits == 1
    assert counts[0] == counts[1] and counts[0]["nonconverged"] == 1


def test_memoized_result_is_read_only(g64, params):
    obstacle = ball_mask(g64, 0.25).indicator().values
    with solve_scope():
        res = _solve(params, g64, obstacle, "riesz", 1e-6)
    assert res.converged
    assert not res.extremal.flags.writeable and not res.multiplier.flags.writeable
    # every result is read-only, outside a scope too
    bare = _solve(params, g64, obstacle, "riesz", 1e-6)
    assert not bare.extremal.flags.writeable and not bare.multiplier.flags.writeable
    assert not capacity(ball_mask(g64, 0.25), params).extremal.flags.writeable


def test_memo_skips_unconverged_results(g64, params, solve_calls, monkeypatch):
    mod = sys.modules["capax.capacity"]
    recording = mod.obstacle_program

    def small_budget(table, obstacle, s, **kw):
        return recording(table, obstacle, s, **dict(kw, max_iter=5))

    monkeypatch.setattr(mod, "obstacle_program", small_budget)
    E = ball_mask(g64, 0.25)
    with solve_scope() as scope:
        r1 = capacity(E, params, tol=1e-12)
        r2 = capacity(E, params, tol=1e-12)
    assert not r1.converged and not r2.converged
    assert len(solve_calls) == 2
    assert scope.counts() == {"solves": 2, "memo_hits": 0, "nonconverged": 2}
    assert scope.memo == {}


def test_capacity_outside_scope_is_a_direct_solve(g64, params):
    E = ball_mask(g64, 0.2) | cube_mask(g64, 0.3, center=[0.5])
    res = capacity(E, params, tol=1e-7)
    direct = obstacle_program(kernel_table(g64, params.alpha, "riesz"),
                              E.indicator().values, params.s, tol=1e-7)
    assert res.value == direct.value and res.gap == direct.gap
    assert res.iterations == direct.iterations
    assert np.array_equal(res.extremal, direct.extremal)
    assert np.array_equal(res.multiplier, direct.multiplier)
