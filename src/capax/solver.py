"""Obstacle-program solver: projected semismooth Newton on the Fenchel dual.

Solves   min  h^n sum_i f_i^s   s.t.  (K f)(x) >= b(x) on {b > 0},  f >= 0,
where K is the h^n-weighted operator of a Riesz or Bessel kernel table,
applied by `kernels.apply_kernel`: on grids of at most DENSE_MAX_NODES nodes
as the table's cached dense matrix, above that on the 2N torus with FFTs.
The objective is strictly convex, so the minimizer is unique. The
certificates are computed with the same operator as the iterates, so the
choice does not affect acceptance; `potential()` stays on the FFT because
Choquet integrals of potentials are sensitive to the rounding-level ties
that the two products resolve differently.

The method is a projected semismooth Newton ascent on the dual (a
primal-dual active-set method in the sense of Hintermueller-Ito-Kunisch,
SIAM J. Optim. 2002), seeded with the warm multiplier or with the obstacle
scaled along its optimal ray. Certificates never rely on the raw iterates:
the primal value is evaluated at an exactly rescaled feasible point, and the
gap against the Fenchel dual value of a nonnegative multiplier. The ascent
keeps every multiplier at its optimal ray point, where the dual value it
already holds is exact, so a certificate takes that value and multiplier
as they are.

Each Newton step solves its system on the free set F. On the dense path,
when the assembly work grid.size * |F|^2 is at most DIRECT_MAX_WORK and the
remaining budget is at least |F|, the step assembles the free-set Hessian
from the dense matrix and solves it directly; otherwise it runs conjugate
gradients matrix-free. On the FFT path, when the table's torus spectrum is
positive (`KernelTable.inverse_square_rfft` is not None), CG is preconditioned
with the opposite-order operator S R_F K~^-2 E_F S (Steinbach-Wendland, Adv.
Comput. Math. 9, 1998; Hiptmair, Comput. Math. Appl. 52, 2006): E_F extends
by zero, R_F restricts to F, K~^-2 is one `kernels.torus_convolve` with the
table's inverse squared spectrum and S = diag(1/sqrt f') on F, with f'
floored at PREC_FLOOR times its max on F. Otherwise CG runs plain.

The iteration budget counts every step that applies the operator: the seed
of the Newton run, each Newton step and each conjugate-gradient step,
preconditioned or not; the preconditioner applies K~^-2, not K. A direct
step is charged |F|, about the matrix-vector products its assembly costs,
which is also the most one CG run may spend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelTable, apply_kernel, torus_convolve

__all__ = ["ProgramResult", "obstacle_program", "MAX_ITER"]

# Default operator-apply budget of one obstacle solve.
MAX_ITER = 20000

# Largest grid (in nodes) on which K is applied as a dense matrix. One apply,
# dense against FFT (2-core x86-64, numpy 2.4): n=1 N=256 10.9 vs 26.6 us,
# N=512 65.0 vs 28.2 us; n=2 N=16 8.6 vs 46.5 us, N=32 206 vs 88 us. The
# crossover lies between 256 and 512 nodes; at 256 the matrix takes 512 KB.
DENSE_MAX_NODES = 256

# Largest assembly work grid.size * |F|^2 (multiply-adds) at which a Newton
# step on the dense path solves the assembled free-set Hessian instead of
# running CG; it admits every free set on 64 nodes. Twelve Choquet sweeps
# (levels 32, 2-core x86-64, OpenBLAS) against CG alone: at this bound CPU
# time fell 14-21% on n=1 N=128, 256 and n=2 N=16. At 2^22 wall time fell a
# further 12-51%, but CPU time rose up to 1.7x, because OpenBLAS ran the
# larger products on two threads.
DIRECT_MAX_WORK = 64**3

# Floor of f' in the CG preconditioner, relative to its max on the free set:
# it keeps 1/sqrt(f') finite where f' underflows as s -> 1+.
PREC_FLOOR = 1e-3


@dataclass
class ProgramResult:
    extremal: np.ndarray     # feasible minimizer estimate, grid-shaped
    value: float             # h^n * sum(extremal^s)
    residual: float          # max over {b>0} of (b - K extremal)+, relative to max(b)
    gap: float               # value minus a certified dual lower bound
    dual_value: float
    iterations: int
    converged: bool
    multiplier: np.ndarray | None = None   # dual variable of the best certificate


def _ray(lam: np.ndarray, a: np.ndarray, b: np.ndarray, c: float, s: float):
    """Best scaling t >= 0 of lam for the Fenchel dual, and the dual value at t*lam.

    g(lam) = <lam, b> - (1 - 1/s) (c s)^(-1/(s-1)) sum (a_+)^(s/(s-1)) with
    a = K lam, maximized in closed form over the ray t*lam. With w = a_+/(c s)
    the penalty is c (s-1) sum w^(s/(s-1)), and the maximum t*B/s is taken at
    t = (B / (c s sum w^(s/(s-1))))^(s-1), B = <lam, b>. It is evaluated in
    logs with w normalised by its max, since the powers overflow as s -> 1+.
    """
    B = float((lam * b).sum())
    w = np.maximum(a, 0.0)
    w /= c * s
    w_max = float(w.max())
    if w_max <= 0.0 or B <= 0.0:
        return 0.0, 0.0
    w /= w_max
    w **= s / (s - 1.0)
    S = float(w.sum())
    t = math.exp((s - 1.0) * math.log(B / (c * s * S)) - s * math.log(w_max))
    return t, t * B / s


def _primal(a: np.ndarray, c: float, s: float) -> np.ndarray:
    """Stationary primal point f(a) = (a_+/(c s))^(1/(s-1)) of the Lagrangian, a = K lam."""
    u = np.maximum(a, 0.0)
    u /= c * s
    u **= 1.0 / (s - 1.0)
    return u


def _certificate(u, Ku, lam, dual, b_act, act, c, s, b_max):
    """Certify the pair (u, lam), given Ku = K u and the dual value of lam.

    lam is ray-optimal: the ascent keeps every iterate at its optimal ray
    point, so `dual` is its Fenchel dual value and bounds the optimum from
    below. u is rescaled onto the constraint set exactly. `act` holds the flat
    indices of {b > 0} and b_act = b there. Returns (gap_rel, f, value,
    residual, dual, multiplier), or None when K u <= 0 somewhere on {b > 0}.
    """
    Ku_act = Ku.take(act)
    if not Ku_act.min() > 0.0:
        return None
    gamma = float((b_act / Ku_act).max())
    f = gamma * u
    value = float(c * (f**s).sum())
    shortfall = gamma * Ku_act
    np.subtract(b_act, shortfall, out=shortfall)
    residual = max(float(shortfall.max()), 0.0) / b_max
    return (value - dual) / max(value, 1.0), f, value, residual, dual, lam


def _better(best, cert):
    if cert is not None and (best is None or cert[0] < best[0]):
        return cert
    return best


def _accepted(best, tol: float) -> bool:
    return best is not None and best[0] <= tol and best[3] <= tol


def _newton_ascent(op_apply, dense, k_inv2, b, active, lam0, c, s, b_max, tol, budget):
    """Projected semismooth Newton ascent on the Fenchel dual from lam0.

    lam0 is nonnegative and vanishes off the active set {b > 0}.

    Stationarity gives f(a) = (a_+/(c s))^(1/(s-1)) with a = K lam; the dual
    gradient on the active set is b - K f(a). Multipliers at zero whose
    gradient points outward stay at zero. On the remaining free set F each
    step solves (K diag(f'(a)) K) d = grad and backtracks along the projected
    step until the ray-optimal dual value rises. When `dense` is the
    operator's matrix, grid.size * |F|^2 <= DIRECT_MAX_WORK and at least |F|
    budget steps remain, the system is assembled and solved directly;
    otherwise, or if it is singular, by conjugate gradients, matrix-free.
    When `k_inv2` applies K~^-2 (FFT path, positive spectrum), CG is
    preconditioned with S R_F K~^-2 E_F S (see `_scaled_inverse`); else it
    runs plain. Every iterate is kept at its optimal ray point, so the dual
    value the ascent holds for it is its Fenchel dual value; each iterate is
    certified with that value, as its own multiplier, together with its
    primal point f(a).

    Stops once a certificate is accepted, the budget is spent or no ascent
    step is found. The seed, each Newton step and each CG step, preconditioned
    or not, count one against the budget, and a direct solve counts |F|.
    Returns (best certificate or None, steps used).
    """
    # per-solve constants; the flat indices and take() also serve the FFT
    # path's grid-shaped (2D, 3D) arrays
    act = np.flatnonzero(active)
    b_act = b.take(act)
    inactive = ~active
    expo = 1.0 / (s - 1.0)
    a = op_apply(lam0)
    t, dual = _ray(lam0, a, b, c, s)
    lam, a = t * lam0, t * a
    steps = 1
    best = None
    while True:
        u = _primal(a, c, s)
        Ku = op_apply(u)
        best = _better(best, _certificate(u, Ku, lam, dual, b_act, act, c, s, b_max))
        if _accepted(best, tol) or steps >= budget:
            break
        grad = b - Ku
        grad[inactive] = 0.0
        free = (lam > 0.0) | (grad > 0.0)   # lam and grad vanish off {b > 0}
        fprime = np.divide(u, a, out=np.zeros(a.shape), where=a > 0.0)
        fprime *= expo   # f'(a)

        steps += 1
        n_free = int(np.count_nonzero(free))
        d = None
        if (dense is not None and budget - steps >= n_free
                and b.size * n_free**2 <= DIRECT_MAX_WORK):
            d = _direct_step(dense, free, fprime, grad)
        if d is not None:
            steps += n_free
        else:
            def hess_mv(v):
                vv = np.zeros(b.shape)
                vv[free] = v
                return op_apply(fprime * op_apply(vv))[free]

            # in exact arithmetic CG terminates within |F| steps; beyond that
            # it only spends budget on rounding noise
            prec = None if k_inv2 is None else _scaled_inverse(k_inv2, free, fprime)
            d, cg_steps = _cg(hess_mv, grad[free], tol=1e-12,
                              max_iter=min(budget - steps, n_free), prec=prec)
            steps += cg_steps
        if not d.any():
            break
        step = np.zeros(b.shape)
        step[free] = d
        t_step = 1.0
        improved = False
        for _ in range(25):
            lam_try = t_step * step
            lam_try += lam
            np.maximum(lam_try, 0.0, out=lam_try)
            a_try = op_apply(lam_try)
            t, dual_try = _ray(lam_try, a_try, b, c, s)
            if dual_try > dual * (1.0 + 1e-15) or (dual <= 0 and dual_try > dual):
                lam, a, dual = t * lam_try, t * a_try, dual_try
                improved = True
                break
            t_step *= 0.5
        if not improved:
            break
    return best, steps


def _direct_step(dense, free, fprime, grad):
    """Solve the free-set Newton system K_F^T diag(f') K_F d = grad_F directly.

    K_F holds the columns of the dense operator on the free set F. Returns
    None when the assembled matrix is singular.
    """
    KF = dense[:, free.ravel()]
    H = KF.T @ (fprime.reshape(-1, 1) * KF)
    try:
        return np.linalg.solve(H, grad[free])
    except np.linalg.LinAlgError:
        return None


def _scaled_inverse(k_inv2, free, fprime):
    """Preconditioner r -> S R_F K~^-2 E_F S r of the free-set Newton system.

    S = diag(1/sqrt f') on F, with f' floored at PREC_FLOOR times its max on
    F; k_inv2 applies K~^-2 to grid values. None when f' vanishes on F.
    """
    fp = fprime[free]
    floor = PREC_FLOOR * float(fp.max())
    if floor <= 0.0:
        return None
    scale = 1.0 / np.sqrt(np.maximum(fp, floor))

    def prec(r):
        v = np.zeros(free.shape)
        v[free] = scale * r
        return scale * k_inv2(v)[free]

    return prec


def _cg(mv, rhs, tol, max_iter, prec=None):
    """Conjugate gradients from zero; returns (solution, iterations).

    `prec` applies a symmetric positive definite preconditioner; None runs
    plain CG. Either way the run stops once the residual norm is at most
    tol times the norm of rhs.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rs = float(r @ r)
    if rs == 0.0:
        return x, 0
    rhs_norm = math.sqrt(rs)
    z = r if prec is None else prec(r)
    rz = float(r @ z)
    p = z.copy()
    k = 0
    while k < max_iter:
        Ap = mv(p)
        k += 1
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break
        a = rz / pAp
        x += a * p
        r -= a * Ap
        if math.sqrt(float(r @ r)) <= tol * rhs_norm:
            break
        z = r if prec is None else prec(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, k


def obstacle_program(table: KernelTable, obstacle: np.ndarray, s: float,
                     tol: float = 1e-6, max_iter: int = MAX_ITER,
                     warm=None) -> ProgramResult:
    """Solve the obstacle program; `obstacle` is a grid-shaped array.

    Raises ValueError unless the obstacle is finite and nonnegative.

    `warm` is a nonnegative multiplier from an earlier solve (the `multiplier`
    of its ProgramResult), or None. Its restriction to {b > 0} seeds the
    Newton run when it is nonzero there; otherwise the seed is the obstacle
    itself, scaled along its optimal ray.

    A result is accepted only on its certificates: gap <= tol * max(value, 1)
    between the value at an exactly rescaled feasible point and a Fenchel dual
    bound, and feasibility residual <= tol. `max_iter` bounds the operator-
    applying steps (the Newton seed, Newton steps and CG steps, with a direct
    free-set solve on grids of at most DENSE_MAX_NODES nodes counted as |F|
    steps), which are reported as `iterations`. On budget exhaustion, or when
    no ascent step is found, the best certified feasible value is returned
    with converged=False.
    """
    grid = table.grid
    if obstacle.shape != grid.shape:
        raise ValueError("obstacle shape does not match grid")
    b = np.asarray(obstacle, dtype=float)
    b_max = float(b.max())
    if not (b_max < math.inf and b.min() >= 0.0):   # also false on NaN
        raise ValueError("obstacle must be finite and nonnegative")
    if not s > 1:
        raise ValueError(f"s must exceed 1, got {s}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if b_max == 0.0:   # {b > 0} is empty
        return ProgramResult(np.zeros(grid.shape), 0.0, 0.0, 0.0, 0.0, 0, True)

    c = grid.cell_volume
    active = b > 0

    method = "dense" if grid.size <= DENSE_MAX_NODES else "fast"

    def op(v):
        return apply_kernel(table, v, method)

    dense = k_inv2 = None
    if method == "dense":
        dense = table.dense
    elif table.inverse_square_rfft is not None:
        def k_inv2(v):
            return torus_convolve(v, table.inverse_square_rfft)

    lam = b
    if warm is not None:
        seed = np.where(active, np.asarray(warm, dtype=float), 0.0)
        np.maximum(seed, 0.0, out=seed)
        if (seed > 0.0).any():
            lam = seed
    best, iterations = _newton_ascent(op, dense, k_inv2, b, active, lam, c, s, b_max, tol,
                                      max_iter)

    if best is None:
        return ProgramResult(np.zeros(grid.shape), 0.0, 1.0, math.inf, 0.0, iterations, False)
    gap_rel, f, value, residual, dual, lam = best
    return ProgramResult(f, value, residual, max(value - dual, 0.0), dual,
                         iterations, _accepted(best, tol), lam)
