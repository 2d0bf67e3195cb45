import pytest

import capax.solver as solver
from capax.capacity import capacity
from capax.grid import Grid, Params, ball_mask, cube_mask
from capax.potentials import apply_kernel


def _frozen_polish(op_apply, b, active, lam0, c, s, b_max, tol, budget):
    """Stand-in for the Newton polish that returns its starting dual unchanged."""
    a = op_apply(lam0)
    u = solver._primal(a, c, s)
    return solver._certificate(u, op_apply(u), lam0, a, b, active, c, s, b_max), 1


def _agree(v, w, tol):
    # two certified values both lie within tol * max(value, 1) above the optimum
    return abs(v - w) <= 2 * tol * max(v, w, 1.0)


def test_chambolle_pock_fallback_certifies(g64, params, monkeypatch):
    tol = 1e-6
    E = ball_mask(g64, 0.25)
    newton_first = capacity(E, params, tol=tol)
    assert newton_first.converged
    monkeypatch.setattr(solver, "_newton_polish", _frozen_polish)
    res = capacity(E, params, tol=tol)
    assert res.converged and res.iterations > newton_first.iterations
    assert res.feasibility_residual <= tol
    assert res.gap <= tol * max(res.value, 1.0)
    assert _agree(res.value, newton_first.value, tol)


@pytest.mark.parametrize("n,N,alpha", [(1, 64, 0.25), (2, 32, 0.5)])
@pytest.mark.parametrize("kind", ["riesz", "bessel"])
@pytest.mark.parametrize("s", [1.2, 1.5, 3.0])
def test_newton_first_away_from_s2(n, N, alpha, kind, s, monkeypatch):
    tol = 1e-6
    g = Grid(n, 1.0, N)
    P = Params(n, alpha, s)
    for E in (ball_mask(g, 0.3), cube_mask(g, 0.5)):
        res = capacity(E, P, kind, tol=tol)
        assert res.converged
        assert res.feasibility_residual <= tol and res.gap <= tol * max(res.value, 1.0)
        with monkeypatch.context() as m:
            m.setattr(solver, "_newton_polish", _frozen_polish)
            fallback = capacity(E, P, kind, tol=tol)
        assert fallback.converged
        assert _agree(res.value, fallback.value, tol)


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
