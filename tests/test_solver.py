import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import capax.solver as solver
from capax.capacity import capacity
from capax.grid import Field, Grid, Mask, Params, ball_mask, cube_mask
from capax.kernels import apply_kernel, kernel_table, riesz_kernel_table
from capax.potentials import potential


def _agree(v, w, tol):
    # two certified values both lie within tol * max(value, 1) above the optimum
    return abs(v - w) <= 2 * tol * max(v, w, 1.0)


@pytest.mark.parametrize("n,N,alpha", [(1, 64, 0.25), (2, 32, 0.5)])
@pytest.mark.parametrize("kind", ["riesz", "bessel"])
@pytest.mark.parametrize("s", [1.2, 1.5, 3.0])
def test_newton_first_away_from_s2(n, N, alpha, kind, s, capacity_dual):
    tol = 1e-6
    g = Grid(n, 1.0, N)
    P = Params(n, alpha, s)
    K = kernel_table(g, alpha, kind).dense
    for E in (ball_mask(g, 0.3), cube_mask(g, 0.5)):
        res = capacity(E, P, kind, tol=tol)
        assert res.converged
        assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
        oracle = capacity_dual(K, np.flatnonzero(E.members), g.cell_volume, s)
        assert _agree(res.value, oracle, tol)


def test_cg_capped_at_free_set_size():
    # At alpha = 0.95 n/s, s = 1.05, on a superlevel set cut inside a tie of
    # three nodes, uncapped CG spent 11,196 steps in one Newton step on
    # 955 unknowns, and the default budget ran out at value 20.62 with
    # gap_rel 0.56 (the optimum is 12.61)
    tol = 1e-6
    g = Grid(2, 1.0, 32)
    P = Params(2, 0.95 * 2 / 1.05, 1.05)
    u = potential(Field(g, np.exp(-g.radii**2 / 0.05), nonneg=True), P.alpha, "bessel").values
    members = np.zeros(g.size, dtype=bool)
    members[np.argsort(-u.ravel(), kind="stable")[:955]] = True
    res = capacity(Mask(g, members.reshape(g.shape)), P, "bessel", tol=tol)
    assert res.converged
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)


_SHAPES = st.lists(st.tuples(st.sampled_from([ball_mask, cube_mask]), st.floats(0.2, 0.8),
                             st.lists(st.floats(-0.6, 0.6), min_size=3, max_size=3)),
                   min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 16), (3, 8)]), st.sampled_from([1.2, 2.0, 3.0]),
       st.sampled_from(["riesz", "bessel"]), _SHAPES)
def test_fft_path_agrees_with_dense_path(grid, s, kind, shapes):
    # on a random union of balls and cubes, the solve on the FFT path (PCG
    # preconditioned by K~^-2 on the N torus) and on the dense path both
    # certify, and their values agree within the certificates' tolerance
    tol = 1e-6
    n, N = grid
    g = Grid(n, 1.0, N)
    E = Mask(g, np.zeros(g.shape, dtype=bool))
    for make, size, center in shapes:
        E = E | make(g, size, center[:n])
    assume(E.members.any())
    P = Params(n, 0.5 * n / s, s)
    results = []
    for bound in (10**6, 0):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver, "DENSE_MAX_NODES", bound)
            results.append(capacity(E, P, kind, tol=tol))
    dense, fft = results
    for res in results:
        assert res.converged
        assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
    assert _agree(dense.value, fft.value, tol)


@pytest.mark.parametrize("n,N,alpha,method", [(1, 64, 0.25, "dense"), (2, 16, 0.5, "dense"),
                                              (1, 512, 0.25, "fast"), (2, 32, 0.5, "fast")])
@pytest.mark.parametrize("kind", ["riesz", "bessel"])
def test_size_selected_operator(n, N, alpha, method, kind, monkeypatch):
    tol = 1e-6
    E = ball_mask(Grid(n, 1.0, N), 0.3)
    P = Params(n, alpha, 2.0)
    used = set()

    def recording_apply(table, values, how="fast"):
        used.add(how)
        return apply_kernel(table, values, how)

    with monkeypatch.context() as m:
        m.setattr(solver, "apply_kernel", recording_apply)
        res = capacity(E, P, kind, tol=tol)
    assert used == {method}
    assert res.converged
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
    with monkeypatch.context() as m:
        m.setattr(solver, "DENSE_MAX_NODES", 0)
        fft = capacity(E, P, kind, tol=tol)
    assert fft.converged
    assert _agree(res.value, fft.value, tol)


def _forbid_cg(*args, **kwargs):
    raise AssertionError("CG ran where the direct free-set step applies")


def _recording_cg(monkeypatch, drop_prec=False):
    # records (max_iter, preconditioned, steps, tol) of every CG run, where
    # preconditioned means the solver's preconditioner moves the right-hand
    # side; drop_prec runs each one with the identity preconditioner
    runs = []
    orig = solver._cg

    def recording(mv, rhs, tol, max_iter, prec):
        pre = not np.array_equal(prec(rhs), rhs)
        x, k = orig(mv, rhs, tol, max_iter, (lambda r: r) if drop_prec else prec)
        runs.append((max_iter, pre, k, tol))
        return x, k

    monkeypatch.setattr(solver, "_cg", recording)
    return runs


def _plain_cg(mv, rhs, tol, max_iter):
    # unpreconditioned conjugate gradients, written out as the reference
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    if rs == 0.0:
        return x, 0
    rhs_norm = math.sqrt(rs)
    k = 0
    while k < max_iter:
        Ap = mv(p)
        k += 1
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break
        a = rs / pAp
        x += a * p
        r -= a * Ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= tol * rhs_norm:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, k


def _spd(n, rng):
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def test_cg_without_preconditioner_is_plain_cg(rng):
    A = _spd(12, rng)
    rhs = rng.standard_normal(12)
    for max_iter in range(1, 13):
        x, k = solver._cg(lambda v: A @ v, rhs, 1e-12, max_iter, lambda r: r)
        x_ref, k_ref = _plain_cg(lambda v: A @ v, rhs, 1e-12, max_iter)
        assert k == k_ref and np.array_equal(x, x_ref)


def test_cg_with_exact_inverse_takes_one_step(rng):
    A = _spd(12, rng)
    A_inv = np.linalg.inv(A)
    rhs = rng.standard_normal(12)
    x, k = solver._cg(lambda v: A @ v, rhs, 1e-10, 12, prec=lambda r: A_inv @ r)
    assert k == 1
    assert np.allclose(A @ x, rhs, rtol=0.0, atol=1e-10 * np.linalg.norm(rhs))


def test_fft_newton_step_is_preconditioned(monkeypatch):
    # 4,096 nodes take the FFT path; one Newton step whose CG run takes 22
    # steps (24 in all) unpreconditioned takes 7 (9 in all) with PCG
    tol = 1e-6
    E = ball_mask(Grid(2, 1.0, 64), 0.3)
    P = Params(2, 0.7, 2.0)
    with monkeypatch.context() as m:
        runs = _recording_cg(m)
        res = capacity(E, P, "riesz", tol=tol)
    assert runs and all(pre for _, pre, _, _ in runs)
    assert res.converged and res.iterations <= 15
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
    with monkeypatch.context() as m:
        _recording_cg(m, drop_prec=True)
        plain = capacity(E, P, "riesz", tol=tol)
    assert plain.converged and plain.iterations > res.iterations
    assert _agree(res.value, plain.value, tol)


def test_pcg_stops_at_certificate_accuracy(monkeypatch):
    # each PCG run stops at tol / 100, not at rounding level: the solve still
    # certifies, within the certificates' tolerance of the solve whose PCG
    # runs stop at 1e-12, and takes no more Newton steps (one PCG run each)
    tol = 1e-6
    E = ball_mask(Grid(2, 1.0, 64), 0.3)
    P = Params(2, 0.7, 2.0)
    with monkeypatch.context() as m:
        runs = _recording_cg(m)
        res = capacity(E, P, "riesz", tol=tol)
    assert runs and all(run_tol == tol / 100 for _, _, _, run_tol in runs)
    assert res.converged
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
    with monkeypatch.context() as m:
        m.setattr(solver, "PCG_TOL_RATIO", 1e-12 / tol)
        tight_runs = _recording_cg(m)
        tight = capacity(E, P, "riesz", tol=tol)
    assert tight_runs and all(run_tol == 1e-12 for _, _, _, run_tol in tight_runs)
    assert tight.converged and _agree(res.value, tight.value, tol)
    assert len(runs) <= len(tight_runs)


def _strang_symbol(table):
    # real FFT of the table's N-periodic Strang circulant: per axis the
    # offsets -N/2+1 .. N/2, rolled so that offset 0 comes first
    N, n = table.grid.points_per_axis, table.grid.dim
    window = table.values[(slice(N // 2, N // 2 + N),) * n]
    return np.fft.rfftn(np.roll(window, -(N // 2 - 1), axis=tuple(range(n)))).real


@pytest.mark.parametrize("alpha,positive", [(0.95 * 3 / 1.05, False), (1.0, True)])
def test_3d_preconditioner_floors_nonpositive_spectrum(alpha, positive, monkeypatch):
    # at alpha = 0.95 n/s the 3D Riesz table's Strang symbol and 2N torus
    # symbol have modes <= 0; floored at the magnitude of the 2N symbol's
    # least mode, K~^-2 still preconditions every CG run; on a positive table
    # the floor only lifts the Strang modes below it, here by under 1e-4
    tol = 1e-6
    g = Grid(3, 1.0, 8)
    table = riesz_kernel_table(g, alpha)
    strang = _strang_symbol(table)
    assert bool((table.padded_rfft.real > 0.0).all()) == positive
    assert bool((strang > 0.0).all()) == positive
    inv = table.inverse_square_rfft
    assert np.all(np.isfinite(inv)) and np.all(inv > 0.0)
    if positive:
        floored = np.maximum(strang, table.padded_rfft.real.min())
        assert np.allclose(floored, strang, rtol=1e-4, atol=0.0)
        assert np.array_equal(inv, 1.0 / (g.cell_volume * floored) ** 2)
    runs = _recording_cg(monkeypatch)
    res = capacity(ball_mask(g, 0.7), Params(3, alpha, 1.05), "riesz", tol=tol)
    assert runs and all(pre for _, pre, _, _ in runs)
    assert res.converged
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)


def test_3d_bessel_preconditioner_where_only_strang_symbol_is_nonpositive(monkeypatch):
    # the Strang symbol of this table has a mode <= 0 (-0.007) while the 2N
    # torus symbol has none (least mode 0.073); floored at that least mode,
    # PCG certifies in 55 steps (54 with K~^-2 on the 2N torus, 74 with the
    # Strang symbol floored at the magnitude of its own least mode)
    tol = 1e-6
    g = Grid(3, 1.0, 16)
    alpha = 0.95 * 3 / 1.05
    table = kernel_table(g, alpha, "bessel")
    assert _strang_symbol(table).min() <= 0.0 < table.padded_rfft.real.min()
    runs = _recording_cg(monkeypatch)
    res = capacity(ball_mask(g, 0.5), Params(3, alpha, 1.05), "bessel", tol=tol)
    assert runs and all(pre for _, pre, _, _ in runs)
    assert res.converged and res.iterations <= 60
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)


def test_scaled_inverse_without_scaling_where_fprime_vanishes():
    # f' = 0 on all of F leaves S = I: the preconditioner is R_F K~^-2 E_F,
    # with K~^-2 applied on the grid's own N torus
    g = Grid(1, 1.0, 64)
    table = riesz_kernel_table(g, 0.4)
    free = ball_mask(g, 0.3).members
    r = np.random.default_rng(5).standard_normal(int(free.sum()))
    prec = solver._scaled_inverse(table, free, np.zeros(g.shape))
    v = np.zeros(g.shape)
    v[free] = r
    expect = np.fft.irfft(np.fft.rfft(v) * table.inverse_square_rfft, g.points_per_axis)
    assert np.array_equal(prec(r), expect[free])


@pytest.mark.parametrize("grad, cost", [(1.0, 1), (0.0, 0)])
def test_singular_direct_step_falls_back_to_pcg(grad, cost):
    # f' = 0 on the free set makes K_F^T diag(f') K_F zero, so the direct
    # solve fails and PCG runs: on a zero right-hand side it takes no step,
    # else its first step finds p.Hp = 0 and stops; either way the direction
    # is zero
    g = Grid(1, 1.0, 64)
    table = riesz_kernel_table(g, 0.4)
    free = ball_mask(g, 0.3).members.ravel()
    fprime, rhs = np.zeros(g.size), np.where(free, grad, 0.0)
    assert solver._direct_step(table.dense, free, fprime, rhs) is None
    d, spent = solver._newton_direction(table, "dense", free, fprime, rhs, 1000, 1e-6)
    assert spent == cost and d.shape == (free.sum(),) and not d.any()


def test_row_without_certificate_beside_a_certified_row():
    # <b, b> of an obstacle of max 1e-200 underflows to 0, so the row's ray
    # scaling, multiplier and primal point vanish: K u = 0 on {b > 0}
    # certifies nothing, and its Newton direction is zero (see
    # test_singular_direct_step_falls_back_to_pcg), so it leaves the stack
    # after its first line search with no certificate, while the ball beside
    # it improves its own certificate and is accepted
    g = Grid(1, 1.0, 64)
    table = kernel_table(g, 0.4, "riesz")
    b = ball_mask(g, 0.3).members.astype(float)
    ball, tiny = solver.obstacle_program(table, np.stack([b, 1e-200 * b]), 2.0)
    assert not tiny.converged and tiny.gap == math.inf and tiny.multiplier is None
    assert (tiny.value, tiny.residual, tiny.dual_value, tiny.iterations) == (0.0, 1.0, 0.0, 2)
    assert tiny.extremal.shape == g.shape and not tiny.extremal.any()
    alone = solver.obstacle_program(table, b, 2.0)
    assert ball.converged and ball.iterations == alone.iterations
    assert _agree(ball.value, alone.value, 1e-6)


@pytest.mark.parametrize("kind", ["riesz", "bessel"])
@pytest.mark.parametrize("s", [1.05, 2.0, 3.0])
def test_direct_newton_step_on_dense_grids(kind, s, monkeypatch):
    # on 64 nodes every free set is within the work bound 64 * |F|^2 <= 64^3,
    # so with the default budget no Newton step runs CG
    tol = 1e-6
    g = Grid(1, 1.0, 64)
    P = Params(1, 0.25, s)
    u = potential(Field(g, np.exp(-g.radii**2 / 0.05), nonneg=True), P.alpha, "bessel").values
    for E in (ball_mask(g, 0.3), Mask(g, u >= 0.5 * u.max())):
        with monkeypatch.context() as m:
            m.setattr(solver, "_cg", _forbid_cg)
            res = capacity(E, P, kind, tol=tol)
        assert res.converged
        assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
        with monkeypatch.context() as m:
            m.setattr(solver, "DENSE_MAX_NODES", 0)
            fft = capacity(E, P, kind, tol=tol)
        assert fft.converged
        assert _agree(res.value, fft.value, tol)


def test_cg_step_beyond_direct_work_bound(monkeypatch):
    # the first Newton step's free set is the whole set: 256 * 97^2 > 64^3
    tol = 1e-6
    g = Grid(2, 1.0, 16)
    E = ball_mask(g, 0.6)
    assert g.size * E.members.sum() ** 2 > solver.DIRECT_MAX_WORK
    with monkeypatch.context() as m:
        runs = _recording_cg(m)
        res = capacity(E, Params(2, 0.5, 2.0), "riesz", tol=tol)
    assert runs and all(pre for _, pre, _, _ in runs)
    assert res.converged
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
    # on 256 nodes in 1D, Bessel s = 1.5, K~^-2 on the N torus cut the steps
    # of balls 0.3 and 0.6 from 201 with the identity preconditioner to 47
    # (46 with K~^-2 on the 2N torus)
    g = Grid(1, 1.0, 256)
    P = Params(1, 0.4, 1.5)
    steps = plain_steps = 0
    for r in (0.3, 0.6):
        E = ball_mask(g, r)
        assert g.size * E.members.sum() ** 2 > solver.DIRECT_MAX_WORK
        with monkeypatch.context() as m:
            runs = _recording_cg(m)
            res = capacity(E, P, "bessel", tol=tol)
        assert runs and all(pre for _, pre, _, _ in runs)
        assert res.converged
        assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
        with monkeypatch.context() as m:
            m.setattr(solver, "DENSE_MAX_NODES", 0)
            fft = capacity(E, P, "bessel", tol=tol)
        assert fft.converged and _agree(res.value, fft.value, tol)
        with monkeypatch.context() as m:
            _recording_cg(m, drop_prec=True)
            plain = capacity(E, P, "bessel", tol=tol)
        assert plain.converged and _agree(res.value, plain.value, tol)
        steps += res.iterations
        plain_steps += plain.iterations
    assert steps < plain_steps


def test_cg_step_when_budget_below_free_set(monkeypatch):
    # the seed and the first Newton step leave max_iter - 2 < |F| steps, which
    # a direct step (charged |F|) cannot pay for; CG then may spend all of them
    g = Grid(1, 1.0, 64)
    E = ball_mask(g, 0.3)
    n_set = int(E.members.sum())
    runs = _recording_cg(monkeypatch)
    res = solver.obstacle_program(kernel_table(g, 0.4, "riesz"), E.indicator().values, 2.0,
                                  tol=1e-12, max_iter=n_set)
    assert runs and runs[0][0] == n_set - 2
    assert res.iterations <= n_set
    assert res.value > 0 and math.isfinite(res.gap)


@pytest.mark.parametrize("kind", ["riesz", "bessel"])
@pytest.mark.parametrize("s", [1.001, 1.003])
def test_s_near_one_gives_finite_result(kind, s):
    # the optimal ray factor (c s)^(-1/(s-1)) overflowed a float here
    res = capacity(ball_mask(Grid(1, 1.0, 64), 0.2), Params(1, 0.4, s), kind)
    assert math.isfinite(res.value) and res.value > 0
    assert math.isfinite(res.gap) and math.isfinite(res.residual)
    assert np.all(np.isfinite(res.extremal))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_obstacle_rejected(bad):
    # a non-finite node must raise rather than surface as an unconverged
    # result with value 0.0 and gap inf
    g = Grid(1, 1.0, 64)
    b = ball_mask(g, 0.3).members.astype(float)
    b[32] = bad
    with pytest.raises(ValueError, match="finite"):
        solver.obstacle_program(kernel_table(g, 0.4, "riesz"), b, 2.0)


@pytest.mark.parametrize("n,alpha,method", [(1, 0.4, "dense"), (2, 0.7, "fast")])
def test_returned_multiplier_is_ray_optimal(n, alpha, method):
    # certificates take the dual value the ascent holds for its iterate, so
    # the returned multiplier must sit at its optimal ray point (t = 1) with
    # that dual value; 64 nodes take the dense path, 4,096 the PCG path
    g = Grid(n, 1.0, 64)
    table = kernel_table(g, alpha, "riesz")
    b = ball_mask(g, 0.3).members.astype(float)
    s = 2.0
    res = solver.obstacle_program(table, b, s)
    assert res.converged
    lam = res.multiplier
    (t,), (dual,) = solver._ray(lam.reshape(1, -1), apply_kernel(table, lam, method).reshape(1, -1),
                                b.reshape(1, -1), g.cell_volume, s)
    assert abs(t - 1.0) <= 1e-12
    assert abs(dual - res.dual_value) <= 1e-12 * abs(res.dual_value)


def _nested_sets(g, count):
    # superlevel sets of a smooth bump's potential, largest first
    u = potential(Field(g, np.exp(-g.radii**2 / 0.1), nonneg=True), 0.5, "riesz").values
    return np.stack([(u > q).astype(float) for q in np.quantile(u, np.linspace(0.2, 0.9, count))])


@pytest.mark.parametrize("n,N,alpha,s", [(1, 64, 0.4, 2.0), (1, 64, 0.4, 1.5), (2, 32, 0.7, 2.0)])
def test_stacked_rows_agree_with_single_solves(n, N, alpha, s, monkeypatch):
    # 64 nodes take the dense path; 1,024 take the FFT path, where each row
    # runs its own PCG
    tol = 1e-6
    g = Grid(n, 1.0, N)
    table = kernel_table(g, alpha, "riesz")
    rows = _nested_sets(g, 4)
    runs = _recording_cg(monkeypatch)
    stacked = solver.obstacle_program(table, rows, s, tol=tol)
    assert bool(runs) == (n == 2) and all(pre for _, pre, _, _ in runs)
    assert isinstance(stacked, list) and len(stacked) == len(rows)
    for row, res in zip(rows, stacked):
        alone = solver.obstacle_program(table, row, s, tol=tol)
        assert res.converged and alone.converged
        assert res.extremal.shape == g.shape and res.multiplier.shape == g.shape
        assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)
        assert _agree(res.value, alone.value, tol)


def _same_result(res, ref):
    for name in ("value", "residual", "gap", "dual_value", "iterations", "converged"):
        assert getattr(res, name) == getattr(ref, name)
    assert np.array_equal(res.extremal, ref.extremal)
    assert np.array_equal(res.multiplier, ref.multiplier)


@pytest.mark.parametrize("kind", ["riesz", "bessel"])
def test_indicator_seed_is_the_whole_support(kind):
    # a {0, 1} obstacle is its own top level set, so the cold seed is the
    # warm seed b, the whole support, and every capacity and Choquet sweep
    # runs the same arithmetic as with that seed
    g = Grid(1, 1.0, 64)
    table = kernel_table(g, 0.4, kind)
    ball = ball_mask(g, 0.3).members.astype(float)
    _same_result(solver.obstacle_program(table, ball, 1.5),
                 solver.obstacle_program(table, ball, 1.5, warm=ball))
    sets = _nested_sets(g, 6)
    for res, ref in zip(solver.obstacle_program(table, sets, 2.0),
                        solver.obstacle_program(table, sets, 2.0, warm=sets)):
        _same_result(res, ref)


def _sqrt_bump(g):
    return np.sqrt(np.exp(-np.sum(g.nodes**2, axis=-1) / 0.1)).reshape(g.shape)


def test_top_level_seed_certifies_smooth_obstacle_near_s_one():
    # seeded with the whole support, this solve found no ascent step after
    # 204 steps with gap_rel 0.26; seeded on the top level set it certifies
    tol, s = 1e-6, 1.1
    g = Grid(2, 1.0, 16)
    table = kernel_table(g, 0.5 * 2 / s, "riesz")
    res = solver.obstacle_program(table, _sqrt_bump(g), s, tol=tol)
    assert res.converged
    assert res.residual <= tol and res.gap <= tol * max(res.value, 1.0)


def test_top_level_seed_saves_newton_steps():
    # whole-support seed (warm=b): 155 steps; top level set: 88
    tol, s = 1e-6, 2.0
    g = Grid(1, 1.0, 64)
    table = kernel_table(g, 0.5 / s, "riesz")
    b = _sqrt_bump(g)
    cold = solver.obstacle_program(table, b, s, tol=tol)
    whole = solver.obstacle_program(table, b, s, tol=tol, warm=b)
    assert cold.converged and whole.converged
    assert cold.iterations < whole.iterations
    assert _agree(cold.value, whole.value, tol)


def test_stack_of_one_is_the_single_solve():
    g = Grid(1, 1.0, 64)
    table = kernel_table(g, 0.4, "bessel")
    b = ball_mask(g, 0.3).members.astype(float)
    warm = np.random.default_rng(2).uniform(0.1, 1.0, g.shape)
    for seed in (None, warm):
        single = solver.obstacle_program(table, b, 1.5, warm=seed)
        (stacked,) = solver.obstacle_program(table, b[None], 1.5,
                                             warm=None if seed is None else seed[None])
        _same_result(stacked, single)


@pytest.mark.parametrize("s", [1.5, 2.0])
def test_stack_of_one_is_the_single_solve_on_the_fft_path(s):
    g = Grid(2, 1.0, 32)
    table = kernel_table(g, 0.7, "riesz")
    b = ball_mask(g, 0.4).members.astype(float)
    single = solver.obstacle_program(table, b, s)
    (stacked,) = solver.obstacle_program(table, b[None], s)
    assert single.converged and single.iterations > 1
    _same_result(stacked, single)


def test_zero_row_of_a_stack_is_the_zero_result():
    g = Grid(1, 1.0, 64)
    table = kernel_table(g, 0.4, "riesz")
    b = ball_mask(g, 0.3).members.astype(float)
    first, zero, last = solver.obstacle_program(table, np.stack([b, 0.0 * b, b]), 2.0)
    assert zero.converged and zero.iterations == 0
    assert (zero.value, zero.residual, zero.gap, zero.dual_value) == (0.0, 0.0, 0.0, 0.0)
    assert not zero.extremal.any() and zero.extremal.shape == g.shape
    assert first.converged and last.converged and first.value == last.value
    assert solver.obstacle_program(table, np.zeros((0,) + g.shape), 2.0) == []


def test_row_out_of_budget_leaves_the_others_certified():
    # at s = 1.5 and tol 1e-8 the balls of 4 and 6 nodes certify within 40
    # steps, and the ball of 38 nodes runs out of them
    tol, max_iter = 1e-8, 40
    g = Grid(1, 1.0, 64)
    table = kernel_table(g, 0.4, "riesz")
    rows = np.stack([ball_mask(g, r).members.astype(float) for r in (0.05, 0.1, 0.6)])
    small, medium, large = solver.obstacle_program(table, rows, 1.5, tol=tol, max_iter=max_iter)
    assert small.converged and medium.converged and not large.converged
    assert all(res.iterations <= max_iter for res in (small, medium, large))
    assert large.iterations == max_iter and large.value > 0 and math.isfinite(large.gap)
    for row, res in zip(rows[:2], (small, medium)):
        alone = solver.obstacle_program(table, row, 1.5, tol=tol, max_iter=max_iter)
        assert alone.converged and _agree(res.value, alone.value, tol)


@pytest.mark.parametrize("shape", [(64, 1), (2, 63), (2, 1, 64)])
def test_obstacle_stack_shape_must_match_grid(shape):
    table = kernel_table(Grid(1, 1.0, 64), 0.4, "riesz")
    with pytest.raises(ValueError, match="shape"):
        solver.obstacle_program(table, np.ones(shape), 2.0)
    with pytest.raises(ValueError, match="warm"):
        solver.obstacle_program(table, np.ones((2, 64)), 2.0, warm=np.ones(64))
