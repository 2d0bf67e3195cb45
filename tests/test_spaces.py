import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from capax.grid import Field, Grid, Params, ball_mask
from capax.capacity import capacity, choquet_integral, lq_cap_norm, solve_scope, _solve
from capax.families import DEFAULT_FAMILY_SEED, field_family
from capax.potentials import potential
from capax.solver import ProgramResult
from capax.spaces import (_KV_DESCENT_STEPS, _dyadic_cube_ratio, _kv_objective, _majorants,
                          _otilde_objective, a1_weight_witness,
                          beta_functional, f_norm, kv_norm, lambda_functional, m_norm, n_norm,
                          otilde_norm)


P_RS = Params(1, 0.4, 2.0, q=1.5, p=2.0, r=2.0)    # r = s slot
P_RL = Params(1, 0.4, 2.0, q=1.5, p=2.0, r=1.0)    # r < s slot
P_Q = Params(1, 0.4, 2.0, q=1.5)


def _indicator(g, radius=0.2):
    return ball_mask(g, radius).indicator()


def test_all_evaluators_vanish_on_zero(g64):
    z = Field(g64, np.zeros(g64.shape))
    assert m_norm(z, P_RS).upper == 0.0
    assert otilde_norm(z, P_Q).upper == 0.0
    assert kv_norm(z, P_Q).upper == 0.0
    assert n_norm(z, P_RL).upper == 0.0
    assert lambda_functional(z, P_Q).upper == 0.0
    assert beta_functional(z, P_Q).upper == 0.0
    # so do the objectives, with no branch for a zero input
    assert _otilde_objective(z.values, z.values, 1.5, 2.0, g64.cell_volume) == 0.0
    assert _kv_objective(z.values, g64, P_Q, "riesz") == 0.0


@pytest.mark.parametrize("evaluator", [otilde_norm, kv_norm, lambda_functional,
                                       beta_functional])
@pytest.mark.parametrize("q", [None, 2.0, 2.5])
def test_q_range_error_names_evaluator(g64, evaluator, q):
    # checked before the zero-input early return
    z = Field(g64, np.zeros(g64.shape))
    name = evaluator.__name__
    with pytest.raises(ValueError, match=rf"^{name} needs params.q in \[1, s\)$"):
        evaluator(z, replace(P_Q, q=q))


@pytest.mark.parametrize("evaluator, params, kwargs, message", [
    (m_norm, replace(P_RS, p=None), {}, "params.p and params.r must be set for m_norm"),
    (m_norm, replace(P_RS, r=None), {}, "params.p and params.r must be set for m_norm"),
    (n_norm, replace(P_RL, p=None), {}, "n_norm needs params.p and params.r"),
    (n_norm, replace(P_RL, r=None), {}, "n_norm needs params.p and params.r"),
    (n_norm, P_RL, {"variant": "a1"}, "unknown variant 'a1'"),
])
def test_input_checks_run_before_zero_return(g64, evaluator, params, kwargs, message):
    z = Field(g64, np.zeros(g64.shape))
    with pytest.raises(ValueError, match=rf"^{message}$"):
        evaluator(z, params, **kwargs)


@pytest.mark.parametrize("params, kind, tol, match", [
    (Params(2, 0.7, 2.0, q=1.5, p=2.0, r=1.0), "riesz", 1e-6, "grid dimension"),
    (P_RL, "foo", 1e-6, "'foo'"),
    (P_RL, "riesz", 0.0, "tol must be positive"),
], ids=["dimension", "kind", "tol"])
def test_zero_input_is_checked_as_a_nonzero_one(g64, params, kind, tol, match):
    # the zero shortcuts used to return before any solve checked its inputs
    z = Field(g64, np.zeros(g64.shape))
    calls = [lambda: choquet_integral(z, params, kind, tol=tol),
             lambda: lq_cap_norm(z, 1.5, params, kind, tol=tol),
             lambda: lq_cap_norm([z, z], 1.5, params, kind, tol=tol)]
    calls += [lambda ev=ev: ev(z, params, kind, tol=tol)
              for ev in (m_norm, otilde_norm, kv_norm, n_norm, f_norm, lambda_functional,
                         beta_functional)]
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


_G32 = Grid(1, 1.0, 32)
# the first four mixed fields stay normal floats at every scale 2^k below
_FIELDS = field_family("mixed", 5, 4, _G32)
_SCALED = {   # test id -> (evaluator, params, keywords)
    "m_norm": (m_norm, P_RL, dict(budget=2, levels=8)),
    "otilde_norm": (otilde_norm, P_Q, dict(levels=8, max_rounds=1)),
    "kv_norm": (kv_norm, P_Q, dict(levels=8)),
    "n_norm": (n_norm, P_RL, dict(budget=2, levels=8)),
    "f_norm": (f_norm, P_RL, {}),
    "f_norm_r1.3": (f_norm, replace(P_RL, r=1.3), {}),
    "lambda_functional": (lambda_functional, P_Q, dict(levels=8)),
    "beta_functional": (beta_functional, P_Q, dict(levels=8)),
}


@pytest.fixture(scope="module")
def unscaled():
    """Bounds or values at scale 1, computed once per input: key -> result."""
    return {}


@pytest.mark.parametrize("name", sorted(_SCALED))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(k=st.integers(-900, 900), j=st.integers(0, len(_FIELDS) - 1))
@example(k=-900, j=3).via("the smallest scale")
@example(k=900, j=3).via("the largest scale")
def test_power_of_two_scaling_is_exact(unscaled, name, k, j):
    # the frame solves every program on |f| / max|f|, which a factor 2^k
    # leaves bit for bit, so the bounds scale by exactly 2^k
    evaluator, params, kw = _SCALED[name]

    def bounds(f):
        est = evaluator(f, params, **kw)
        return est.lower, est.upper

    f = _FIELDS[j]
    if (name, j) not in unscaled:
        unscaled[name, j] = bounds(f)
    lower, upper = unscaled[name, j]
    scaled = Field(_G32, math.ldexp(1.0, k) * f.values, nonneg=True)
    if evaluator is f_norm:
        try:   # the program's value, (max|u|^(1/r))^s, must be a float
            (float(np.max(scaled.values)) ** (1.0 / params.r)) ** params.s
        except OverflowError:
            with pytest.raises(ValueError, match="float range"):
                bounds(scaled)
            return
    assert bounds(scaled) == (math.ldexp(lower, k), math.ldexp(upper, k))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(k=st.integers(-900, 900))
@example(k=-900).via("the smallest scale")
@example(k=900).via("the largest scale")
def test_power_of_two_scaling_of_lq_cap_norm_lists(unscaled, k):
    fields = _FIELDS + [Field(_G32, np.zeros(_G32.shape))]
    if "lq_cap_norm" not in unscaled:
        unscaled["lq_cap_norm"] = lq_cap_norm(fields, 1.5, P_Q, levels=8)
    scaled = [Field(_G32, math.ldexp(1.0, k) * f.values) for f in fields]
    got = lq_cap_norm(scaled, 1.5, P_Q, levels=8)
    assert got == [math.ldexp(v, k) for v in unscaled["lq_cap_norm"]]


def test_exact_homogeneity_all_evaluators(g64):
    f = _indicator(g64)
    f2 = Field(g64, 2.0 * f.values, nonneg=True)
    table = [   # (evaluator, call, witness degree)
        (m_norm, dict(params=P_RS, budget=4), 0),
        (m_norm, dict(params=P_RL, budget=4), 0),
        (otilde_norm, dict(params=P_Q, levels=16, max_rounds=1), 0),
        (kv_norm, dict(params=P_Q, levels=16), 1),
        (n_norm, dict(params=P_RL, budget=2, levels=16), 0),
        (lambda_functional, dict(params=P_Q, levels=16), 1),
        (beta_functional, dict(params=P_Q, levels=16), 1),
    ]
    for evaluator, call, degree in table:
        one, two = evaluator(f, **call), evaluator(f2, **call)
        assert two.upper == 2.0 * one.upper
        assert two.lower == 2.0 * one.lower
        assert np.array_equal(two.witness.values, 2.0**degree * one.witness.values)
        if evaluator is m_norm:
            assert two.details["raw_upper"] == 2.0 * one.details["raw_upper"]


def test_m_norm_raw_upper_in_input_units(g64):
    # amplitude 3: the raw bound of the sup-normalized input would be off by 3
    one = m_norm(_indicator(g64), P_RS, budget=4)
    three = m_norm(Field(g64, 3.0 * _indicator(g64).values, nonneg=True), P_RS, budget=4)
    assert three.details["raw_upper"] == 3.0 * one.details["raw_upper"]
    assert three.upper >= three.details["raw_upper"]


def test_m_norm_bounds_and_witness(g64):
    est = m_norm(_indicator(g64), P_RS, budget=8)
    assert 0 < est.lower <= est.upper
    assert est.witness is not None and est.witness.nonneg
    est2 = m_norm(_indicator(g64), P_RL, budget=8)
    assert "equivalence-upper" in est2.flags


def test_m_norm_cube_oracle_exhaustive():
    # brute force over every dyadic cube at N=32 against the r=s upper bound
    g = Grid(1, 1.0, 32)
    P = Params(1, 0.4, 2.0, p=2.0, r=2.0)
    f = _indicator(g, 0.23)
    est = m_norm(f, P, budget=2)
    f_pow = np.abs(f.values) ** P.p
    N = g.points_per_axis
    best = 0.0
    size = N
    while size >= 1:
        lo = N // 2 - size // 2
        members = np.zeros(g.shape, dtype=bool)
        members[lo:lo + size] = True
        cap_sz = _solve(P, g, members.astype(float), "riesz", 1e-6).value
        for start in range(0, N, size):
            box = float(np.sum(f_pow[start:start + size])) * g.cell_volume
            best = max(best, box / cap_sz)
        size //= 2
    # raw cube bound before the clip against the certified lower bound
    assert est.details["raw_upper"] == pytest.approx(best ** (1 / P.p), rel=1e-12)
    assert est.upper >= est.details["raw_upper"]


def test_m_norm_monotone_in_f(g64):
    small = _indicator(g64, 0.12)
    large = _indicator(g64, 0.3)
    es = m_norm(small, P_RS, budget=4)
    el = m_norm(large, P_RS, budget=4)
    assert es.upper <= el.upper * (1 + 1e-9)
    assert es.lower <= el.lower * (1 + 1e-9)


def test_otilde_witness_revalidated(g64):
    est = otilde_norm(_indicator(g64), P_Q, levels=24)
    assert est.witness is not None
    assert est.details["witness_lq_cap_norm"] <= 1.0 + 0.02
    assert "heuristic-lower" in est.flags


def test_otilde_monotone_with_witness_transfer(g64):
    # g1 <= g2, so g2's weight bounds the infimum of g1 by at most g2's upper
    g1 = _indicator(g64, 0.1)
    g2 = _indicator(g64, 0.25)
    big = otilde_norm(g2, P_Q, levels=24)
    small = _otilde_objective(g1.values, big.witness.values, P_Q.q, P_Q.s, g64.cell_volume)
    assert small <= big.upper * (1 + 1e-9)


def test_kv_monotone_with_majorant_transfer(g64):
    # g2's majorant also majorizes g1 <= g2, so it bounds the infimum of g1 by
    # the value it attains for g2
    g1 = _indicator(g64, 0.1)
    g2 = _indicator(g64, 0.25)
    big = kv_norm(g2, P_Q, levels=16)
    assert np.all(big.witness.values >= g1.values)
    small = _kv_objective(big.witness.values, g64, P_Q, "riesz")
    assert small == pytest.approx(big.upper, rel=1e-12)


def test_kv_descent_keeps_the_best_majorant_after_a_rejected_step(monkeypatch):
    # at s = 1.5 some projected descent steps raise the objective; such a
    # step is halved and the best majorant so far is kept
    g = Grid(1, 1.0, 32)
    f = field_family("mixed", DEFAULT_FAMILY_SEED, 1, g)[0]
    seen = []

    def recording(h, *args):
        seen.append(_kv_objective(h, *args))
        return seen[-1]

    monkeypatch.setattr("capax.spaces._kv_objective", recording)
    est = kv_norm(f, Params(1, 0.4, 1.5, q=1.2), levels=8)
    # the objective of |f| for the proof's majorant, the three candidates,
    # then one trial per descent step
    candidates, trials = seen[1:4], seen[4:]
    assert len(trials) == _KV_DESCENT_STEPS
    best, rejected = min(candidates), 0
    for val in trials:
        if val < best:
            best = val
        else:
            rejected += 1
    assert rejected > 0
    assert est.upper == best * np.max(f.values)


def test_kv_otilde_equivalence_band(g64):
    rng = np.random.default_rng(77)
    bands = []
    for _ in range(3):
        f = Field(g64, rng.uniform(0, 1, g64.shape) ** 2, nonneg=True)
        nk = kv_norm(f, P_Q, levels=16).upper
        no = otilde_norm(f, P_Q, levels=16, max_rounds=2).upper
        bands.append(max(nk / no, no / nk))
    assert max(bands) <= 5.0


def test_n_norm_plain_below_a1_variant(g64):
    f = _indicator(g64)
    plain = n_norm(f, P_RL, variant="plain", budget=4, levels=16)
    a1v = n_norm(f, P_RL, variant="a1_quasicontinuous", budget=4, levels=16)
    assert plain.upper <= a1v.upper * (1 + 1e-9)
    assert a1v.details["witness_a1"] is not None
    assert math.isfinite(a1v.details["witness_a1"])
    assert a1v.details["witness_lq_cap_norm"] <= 1.0 + 0.02
    assert a1v.details["construction"].startswith("iterated_potential")


def test_n_norm_stops_reweighting_without_a_certificate(g64, monkeypatch):
    # a reweighting solve with no certificate returns the zero extremal, which
    # has no L^s normalization: the rounds stop, as if there were none
    f = _indicator(g64)
    with monkeypatch.context() as m:
        m.setattr("capax.spaces._N_ROUNDS", 0)
        family_only = n_norm(f, P_RL, budget=4, levels=16)
    solves = []

    def no_certificate(params, grid, obstacle, kind, tol):
        solves.append(obstacle)
        return ProgramResult(np.zeros(grid.shape), 0.0, 1.0, math.inf, 0.0, 1, False)

    monkeypatch.setattr("capax.spaces._solve", no_certificate)
    est = n_norm(f, P_RL, budget=4, levels=16)
    assert len(solves) == 1
    assert (est.lower, est.upper, est.details) == (family_only.lower, family_only.upper,
                                                   family_only.details)
    assert np.array_equal(est.witness.values, family_only.witness.values)


def test_n_norm_r_larger_one_witness(g64):
    P = Params(1, 0.4, 2.0, p=2.0, r=1.4)
    est = n_norm(_indicator(g64), P, variant="a1_quasicontinuous", budget=2, levels=16)
    assert est.details["construction"] == "iterated_potential_r>1"
    assert est.upper > 0


def test_a1_weight_witness_normalization(g64):
    from capax.grid import lp_norm

    P = Params(1, 0.4, 2.0, r=1.4)
    h = Field(g64, np.exp(-g64.axis**2 / 0.05), nonneg=True)
    hn = Field(g64, h.values / lp_norm(h, P.s), nonneg=True)
    ww = a1_weight_witness(hn, P, "riesz", levels=24, with_a1=True)
    # re-validation reruns the level quadrature on the rescaled weight, so it
    # agrees with 1 only up to the quadrature's rescaling wobble
    check = lq_cap_norm(ww.weight, P.s / P.r, P, levels=24)
    assert abs(check - 1.0) <= 0.02
    assert math.isfinite(ww.a1_value)


def test_lambda_beta_indicator_pattern(g64):
    E = ball_mask(g64, 0.2)
    u = E.indicator()
    q = P_Q.q
    capE = capacity(E, P_Q, tol=1e-7).value
    el = lambda_functional(u, P_Q, levels=16)
    eb = beta_functional(u, P_Q, levels=16)
    lq = lq_cap_norm(u, q, P_Q, levels=16)
    assert 0 < eb.upper <= 5 * capE ** (1 / q)
    values = [lq, el.upper, eb.upper]
    assert max(values) / min(values) <= 3.0
    # witnesses majorize the obstacle through their potential
    for est in (el, eb):
        v = potential(est.witness, P_Q.alpha, "riesz").values
        assert np.all(v[E.members] >= 1.0 - 1e-6)


def test_majorant_witnesses_in_input_units(g64):
    # amplitude 3: a witness of the sup-normalized input would be off by 3
    E = ball_mask(g64, 0.2)
    u = Field(g64, 3.0 * E.members, nonneg=True)
    kv = kv_norm(u, P_Q, levels=16)
    eb = beta_functional(u, P_Q, levels=16)
    assert np.all(kv.witness.values >= u.values)   # an admissible majorant of u
    for est in (kv, eb):   # the witness attains the upper bound
        attained = _kv_objective(est.witness.values, g64, P_Q, "riesz")
        assert attained == pytest.approx(est.upper, rel=1e-12)
    for est in (lambda_functional(u, P_Q, levels=16), eb):
        v = potential(est.witness, P_Q.alpha, "riesz").values
        assert np.all(v[E.members] >= 3.0 * (1 - 1e-6))


def test_lower_never_exceeds_upper(g64):
    rng = np.random.default_rng(31)
    f = Field(g64, rng.uniform(0, 1, g64.shape), nonneg=True)
    for est in (m_norm(f, P_RS, budget=4), m_norm(f, P_RL, budget=4),
                otilde_norm(f, P_Q, levels=16, max_rounds=1),
                kv_norm(f, P_Q, levels=16),
                n_norm(f, P_RL, budget=2, levels=16)):
        assert est.lower <= est.upper * (1 + 1e-12)


@pytest.fixture
def solve_stacks(monkeypatch):
    """Record each call to the capacity module's obstacle_program as its stack
    of obstacle rows; a grid-shaped obstacle is a stack of one."""
    mod = sys.modules["capax.capacity"]     # the package attribute is the function
    orig = mod.obstacle_program
    stacks = []

    def recording(table, obstacle, s, **kw):
        stacks.append(np.array(obstacle, dtype=float).reshape((-1,) + table.grid.shape))
        return orig(table, obstacle, s, **kw)

    monkeypatch.setattr(mod, "obstacle_program", recording)
    return stacks


def test_majorants_solve_one_stack_of_two(g64, solve_stacks):
    uhat = np.exp(-g64.axis**2 / 0.05)
    majorants = _majorants(uhat, P_Q, "riesz", g64, 1e-6)
    assert len(majorants) == 2 and len(solve_stacks) == 1
    assert np.array_equal(solve_stacks[0], np.stack([uhat ** (P_Q.q / P_Q.s), uhat]))


def test_otilde_norm_of_a_field_list_matches_one_field_calls(g64, solve_stacks):
    # the fields' programs run as one stack, whose products round in their own order
    fields = [_indicator(g64), Field(g64, 2.0 * np.exp(-g64.axis**2 / 0.05), nonneg=True),
              Field(g64, np.zeros(g64.shape))]
    ests = otilde_norm(fields, P_Q, levels=16, max_rounds=2)
    stacked = len(solve_stacks)
    alone = [otilde_norm(f, P_Q, levels=16, max_rounds=2) for f in fields]
    assert stacked < len(solve_stacks) - stacked
    assert ests[2].upper == alone[2].upper == 0.0
    for est, want in zip(ests, alone):
        assert abs(est.upper - want.upper) <= 1e-12 * want.upper
        assert est.lower == est.upper and est.flags == want.flags
        check, want_check = (e.details.get("witness_lq_cap_norm", 0.0) for e in (est, want))
        assert abs(check - want_check) <= 1e-12 * want_check
    assert otilde_norm([], P_Q) == []
    with pytest.raises(ValueError, match="one grid"):
        otilde_norm([fields[0], _indicator(Grid(1, 1.0, 32))], P_Q, levels=16)


def test_n_norm_builds_family_witnesses_once_per_configuration(g64, cold_family_witnesses):
    f = Field(g64, np.exp(-g64.axis**2 / 0.05), nonneg=True)

    def estimate():
        est = n_norm(f, P_RL, budget=4, levels=16)
        return est.lower, est.upper, est.details, est.witness.values.tobytes()

    cold = estimate()
    warm = estimate()
    assert cold_family_witnesses.cache_info()[:2] == (1, 1)   # one hit, one miss
    assert warm == cold
    # a cold build in an open scope whose memo already holds the family's
    # rows: the build solves in a scope of its own, so its value is the same
    with solve_scope():
        n_norm(_indicator(g64), P_RL, budget=4, levels=16)
        capacity(ball_mask(g64, 0.3), P_RL)
        cold_family_witnesses.cache_clear()
        assert estimate() == cold


def test_dyadic_cubes_solve_one_stack(g64, solve_stacks):
    f_pow = np.exp(-g64.axis**2 / 0.05)
    ratio, size = _dyadic_cube_ratio(f_pow, g64, P_RS, "riesz", 1e-6)
    assert len(solve_stacks) == 1
    cubes = solve_stacks[0]
    assert cubes.shape == (7,) + g64.shape     # sizes 64, 32, ..., 1: log2(64) + 1
    assert [int(c.sum()) for c in cubes] == [64, 32, 16, 8, 4, 2, 1]
    assert ratio > 0 and size in (64, 32, 16, 8, 4, 2, 1)
