import numpy as np
import pytest

from capax.grid import Grid, Params


@pytest.fixture
def g64():
    return Grid(1, 1.0, 64)


@pytest.fixture
def g2d():
    return Grid(2, 1.0, 32)


@pytest.fixture
def params():
    return Params(1, 0.4, 2.0, q=1.5, p=2.0, r=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(987)


def _dense_capacity_qp(K, idx, h):
    """Reference value of min h*sum(f^2) s.t. K[idx] f >= 1, f >= 0 (s = 2, dense K).

    Uses the Clarabel interior-point solver through cvxpy when it is installed,
    and otherwise scipy's SLSQP with analytic gradients on the same QP.
    """
    try:
        import cvxpy as cp
    except ImportError:
        cp = None
    N = K.shape[1]
    A = K[idx]
    if cp is not None:
        f = cp.Variable(N, nonneg=True)
        prob = cp.Problem(cp.Minimize(h * cp.sum_squares(f)), [A @ f >= 1])
        prob.solve(solver=cp.CLARABEL)
        return prob.value
    from scipy.optimize import minimize

    f0 = np.ones(N) / float(np.min(A @ np.ones(N)))
    res = minimize(lambda f: h * (f @ f), f0, jac=lambda f: 2.0 * h * f, method="SLSQP",
                   bounds=[(0.0, None)] * N,
                   constraints=[{"type": "ineq", "fun": lambda f: A @ f - 1.0,
                                 "jac": lambda f: A}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    if not res.success:
        raise RuntimeError(f"SLSQP oracle failed: {res.message}")
    return float(res.fun)


@pytest.fixture
def capacity_qp():
    return _dense_capacity_qp
