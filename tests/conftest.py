import numpy as np
import pytest

from capax.grid import Grid, Params


def direct_linear_convolve(values: np.ndarray, centered: np.ndarray) -> np.ndarray:
    """Direct summation: out[i] = sum_j centered[i - j + (N-1)] * values[j]."""
    N = values.shape[0]
    dim = values.ndim
    rev = (slice(None, None, -1),) * dim
    out = np.empty_like(values, dtype=float)
    for idx in np.ndindex(values.shape):
        block = centered[tuple(slice(k, k + N) for k in idx)]
        out[idx] = np.sum(block[rev] * values)
    return out


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


def _dense_capacity_dual(K, idx, h, s):
    """Reference value of min h*sum(f^s) s.t. K[idx] f >= 1, f >= 0 (dense K), from below.

    Maximizes the Fenchel dual
        g(lam) = sum(lam) - (1 - 1/s) (h s)^(-1/(s-1)) sum (a_+)^(s/(s-1)),
        a = K[idx]^T lam,
    over lam >= 0 with scipy's L-BFGS-B. Its gradient is 1 - K[idx] f(a) with
    f(a) = (a_+/(h s))^(1/(s-1)), the Lagrangian's minimizer. The result is
    the dual value, a lower bound on the minimum for any lam >= 0.

    L-BFGS-B can stop with an ABNORMAL line search at the optimum, so the
    result is accepted on its KKT residual, the largest entry of the gradient
    projected onto the bounds lam >= 0, and not on the reported status.
    """
    from scipy.optimize import minimize

    A = K[idx]
    sp = s / (s - 1.0)
    coef = (1.0 - 1.0 / s) * (h * s) ** (-1.0 / (s - 1.0))

    def neg_dual(lam):
        a = np.maximum(A.T @ lam, 0.0)
        f = (a / (h * s)) ** (1.0 / (s - 1.0))
        return coef * np.sum(a**sp) - np.sum(lam), A @ f - 1.0

    res = minimize(neg_dual, np.zeros(len(idx)), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * len(idx),
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20000, "maxcor": 30})
    kkt = np.max(np.abs(np.where(res.x > 0.0, res.jac, np.minimum(res.jac, 0.0))))
    if kkt > 1e-7:
        raise RuntimeError(f"L-BFGS-B oracle failed: {res.message} (KKT residual {kkt:.3g})")
    return float(-res.fun)


@pytest.fixture
def capacity_dual():
    return _dense_capacity_dual
