import math

import numpy as np
import pytest

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
        assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)
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
    assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)


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
    assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)
    with monkeypatch.context() as m:
        m.setattr(solver, "DENSE_MAX_NODES", 0)
        fft = capacity(E, P, kind, tol=tol)
    assert fft.converged
    assert _agree(res.value, fft.value, tol)


def _forbid_cg(*args, **kwargs):
    raise AssertionError("CG ran where the direct free-set step applies")


def _recording_cg(monkeypatch, drop_prec=False):
    # records (max_iter, preconditioned, steps) of every CG run; drop_prec
    # runs each one as plain CG
    runs = []
    orig = solver._cg

    def recording(mv, rhs, tol, max_iter, prec=None):
        x, k = orig(mv, rhs, tol, max_iter, None if drop_prec else prec)
        runs.append((max_iter, prec is not None, k))
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
        x, k = solver._cg(lambda v: A @ v, rhs, 1e-12, max_iter)
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
    # 4,096 nodes take the FFT path; one Newton step whose CG run took 32
    # steps (34 in all) unpreconditioned takes 9 (11 in all) with PCG
    tol = 1e-6
    E = ball_mask(Grid(2, 1.0, 64), 0.3)
    P = Params(2, 0.7, 2.0)
    with monkeypatch.context() as m:
        runs = _recording_cg(m)
        res = capacity(E, P, "riesz", tol=tol)
    assert runs and all(pre for _, pre, _ in runs)
    assert res.converged and res.iterations <= 15
    assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)
    with monkeypatch.context() as m:
        _recording_cg(m, drop_prec=True)
        plain = capacity(E, P, "riesz", tol=tol)
    assert plain.converged and plain.iterations > res.iterations
    assert _agree(res.value, plain.value, tol)


@pytest.mark.parametrize("alpha,preconditioned", [(0.95 * 3 / 1.05, False), (1.0, True)])
def test_3d_preconditioner_needs_positive_spectrum(alpha, preconditioned, monkeypatch):
    # at alpha = 0.95 n/s the 3D Riesz table's torus spectrum has modes <= 0,
    # so K~^-2 does not exist there and every CG run is plain
    tol = 1e-6
    g = Grid(3, 1.0, 8)
    assert (riesz_kernel_table(g, alpha).inverse_square_rfft is not None) == preconditioned
    runs = _recording_cg(monkeypatch)
    res = capacity(ball_mask(g, 0.7), Params(3, alpha, 1.05), "riesz", tol=tol)
    assert runs and all(pre == preconditioned for _, pre, _ in runs)
    assert res.converged
    assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)


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
        assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)
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
    runs = _recording_cg(monkeypatch)
    res = capacity(E, Params(2, 0.5, 2.0), "riesz", tol=tol)
    assert runs
    assert res.converged
    assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)


def test_cg_step_when_budget_below_free_set(monkeypatch):
    # the seed and the first Newton step leave max_iter - 2 < |F| steps, which
    # a direct step (charged |F|) cannot pay for; CG then may spend all of them
    g = Grid(1, 1.0, 64)
    E = ball_mask(g, 0.3)
    n_set = int(E.members.sum())
    runs = _recording_cg(monkeypatch)
    res = capacity(E, Params(1, 0.4, 2.0), tol=1e-12, max_iter=n_set)
    assert runs and runs[0][0] == n_set - 2
    assert res.iterations <= n_set
    assert res.value > 0 and math.isfinite(res.gap)


@pytest.mark.parametrize("kind", ["riesz", "bessel"])
@pytest.mark.parametrize("s", [1.001, 1.003])
def test_s_near_one_gives_finite_result(kind, s):
    # the optimal ray factor (c s)^(-1/(s-1)) overflowed a float here
    res = capacity(ball_mask(Grid(1, 1.0, 64), 0.2), Params(1, 0.4, s), kind)
    assert math.isfinite(res.value) and res.value > 0
    assert math.isfinite(res.gap) and math.isfinite(res.feasibility_residual)
    assert np.all(np.isfinite(res.extremal.values))


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
    t, dual = solver._ray(lam, apply_kernel(table, lam, method), b, g.cell_volume, s)
    assert abs(t - 1.0) <= 1e-12
    assert abs(dual - res.dual_value) <= 1e-12 * abs(res.dual_value)
