import math

import numpy as np
import pytest

import capax.solver as solver
from capax.capacity import capacity
from capax.grid import Field, Grid, Mask, Params, ball_mask, cube_mask
from capax.kernels import kernel_table
from capax.potentials import apply_kernel, bessel_potential


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
    u = bessel_potential(Field(g, np.exp(-g.radii**2 / 0.05), nonneg=True), P.alpha).values
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


def _counting_cg(monkeypatch):
    calls = []
    orig = solver._cg

    def counting(*args, **kwargs):
        calls.append(kwargs["max_iter"])
        return orig(*args, **kwargs)

    monkeypatch.setattr(solver, "_cg", counting)
    return calls


@pytest.mark.parametrize("kind", ["riesz", "bessel"])
@pytest.mark.parametrize("s", [1.05, 2.0, 3.0])
def test_direct_newton_step_on_dense_grids(kind, s, monkeypatch):
    # on 64 nodes every free set is within the work bound 64 * |F|^2 <= 64^3,
    # so with the default budget no Newton step runs CG
    tol = 1e-6
    g = Grid(1, 1.0, 64)
    P = Params(1, 0.25, s)
    u = bessel_potential(Field(g, np.exp(-g.radii**2 / 0.05), nonneg=True), P.alpha).values
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
    calls = _counting_cg(monkeypatch)
    res = capacity(E, Params(2, 0.5, 2.0), "riesz", tol=tol)
    assert calls
    assert res.converged
    assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)


def test_cg_step_when_budget_below_free_set(monkeypatch):
    # the seed and the first Newton step leave max_iter - 2 < |F| steps, which
    # a direct step (charged |F|) cannot pay for; CG then may spend all of them
    g = Grid(1, 1.0, 64)
    E = ball_mask(g, 0.3)
    n_set = int(E.members.sum())
    calls = _counting_cg(monkeypatch)
    res = capacity(E, Params(1, 0.4, 2.0), tol=1e-12, max_iter=n_set)
    assert calls and calls[0] == n_set - 2
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
