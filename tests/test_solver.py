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
