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

`obstacle_program` solves one obstacle or a stack of them. A stack of L
obstacles, shape (L,) + grid.shape, is L independent programs on one table;
a single obstacle is the stack of one, so there is one solver path. The
ascent moves all live rows together: each apply of K (one `apply_kernel`
call), the ray scalings, the certificates, the gradient, the free sets and
the line search work on the whole stack. That makes a Choquet sweep's
superlevel sets cheap where the fixed cost of each call, not its
arithmetic, sets the cost of a solve: on grids of at most 64 nodes, where
every Newton step is a direct solve. The stacked callers are the Choquet
sweeps of `capacity` (every field's sets at once, on at most 64 nodes
only), and in `spaces` the two majorant programs of lambda and beta and the
dyadic cubes of `m_norm`. Each row keeps its own budget, best certificate
and Newton system, and leaves the batch once it is accepted, its budget is
spent or it finds no ascent step. The bookkeeping copies rows only where
some rows differ from the rest: the line search reads the live arrays
themselves while every row is still searching, and the best certificates
are replaced whole when every row improved. Every ProgramResult makes its
arrays read-only, so one result can be shared, as `capacity`'s memo and
`capacity()` share it, without a copy.

The method is a projected semismooth Newton ascent on the dual (a
primal-dual active-set method in the sense of Hintermueller-Ito-Kunisch,
SIAM J. Optim. 2002), seeded with the warm multiplier or, cold, with the
obstacle on its top level set {b >= SEED_LEVEL max b}, scaled along its
optimal ray: the first free set then lies near the last one, where a
whole-support seed spends Newton steps shrinking it. An indicator obstacle
is its own top level set. Certificates never rely on the raw iterates:
the primal value is evaluated at an exactly rescaled feasible point, and the
gap against the Fenchel dual value of a nonnegative multiplier. The ascent
keeps every multiplier at its optimal ray point, where the dual value it
already holds is exact, so a certificate takes that value and multiplier
as they are.

Each Newton step solves each row's system on that row's free set F, row by
row: padding every row's Hessian to the full grid and solving all rows in
one batched `np.linalg.solve` took 1.9-3.3 ms per 64-node Choquet sweep,
against 1.4-2.0 ms row by row. On the dense path,
when the assembly work grid.size * |F|^2 is at most DIRECT_MAX_WORK and the
remaining budget is at least |F|, the step assembles the free-set Hessian
from the dense matrix and solves it directly. Every other step runs
preconditioned conjugate gradients (PCG) matrix-free, with the
opposite-order operator S R_F K~^-2 E_F S (Steinbach-Wendland, Adv. Comput.
Math. 9, 1998; Hiptmair, Comput. Math. Appl. 52, 2006): E_F extends by zero,
R_F restricts to F and S = diag(1/sqrt f') on F, with f' floored at
PREC_FLOOR times its max on F. K~ is the table's Strang circulant on the
grid's own N torus (Strang, Stud. Appl. Math. 74, 1986; Chan-Ng, SIAM Rev.
38, 1996), and K~^-2, the table's `inverse_square_rfft`, is applied by one
unpadded FFT product on the grid. Only the Hessian's two applies of K must
be exact linear convolutions on the 2N torus; the preconditioner only
approximates the inverse, and one of its applies on the N torus costs 0.46x
the padded product on 2D N=64, 0.30x on 3D N=16 and 0.12x on 3D N=32 (2-core
x86-64, numpy 2.4). A PCG run stops at a relative residual of tol / 100
(PCG_TOL_RATIO), the certificate tolerance scaled down, not at rounding
level: by inexact Newton theory (Dembo-Eisenstat-Steihaug, SIAM J. Numer.
Anal. 19, 1982) a direction that accurate still ascends, and since only the
certificates decide acceptance, a looser stop can cost at most another
Newton step, never a wrong answer.

The iteration budget of each row counts every step that applies the
operator to it: the seed of the Newton run, each Newton step and each PCG
step; the preconditioner applies K~^-2, not K, and line-search trials are
free. A direct step is charged |F|, about the matrix-vector products its
assembly costs, which is also the most one PCG run may spend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelTable, apply_kernel

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
# running PCG; it admits every free set on 64 nodes. Four Choquet sweeps
# (mixed fields, levels 32, s = 2, 2-core x86-64, OpenBLAS), CPU ms at this
# bound against PCG alone, best of 3 in each of four rounds: n=1 N=128 42-63
# vs 55-81, N=256 87-108 vs 79-125, n=2 N=16 103-134 vs 120-189. A bound of
# 2^22 cut wall time but cost up to 1.7x the CPU time, because OpenBLAS ran
# the larger products on two threads.
DIRECT_MAX_WORK = 64**3

# Relative residual at which a Newton step's PCG run stops, as a fraction of
# the row's certificate tol (inexact Newton; see the module docstring). On
# the 64x64 capacities of the cap2d benchmark at tol 1e-6 a run takes 6.9
# PCG steps on average instead of 9.1 at a fixed 1e-12, and every solve
# still takes one Newton step.
PCG_TOL_RATIO = 1e-2

# A row without a usable warm start is seeded with its obstacle b restricted
# to the top level set {b >= SEED_LEVEL * max b}, scaled along its optimal
# ray; a {0, c} obstacle is its own top level set, so capacities and Choquet
# sweeps keep the whole-support seed bit for bit. On smooth obstacles the
# whole support starts the active-set iteration far from its last free set
# (64 -> 30 -> 24 -> 21 -> 20 nodes over 5 Newton steps on a norms1d lambda
# majorant row). Direct Newton steps over the first 84 default-seed norms1d
# ops: 1,953 with the whole support, 1,833 at level 0.5, 1,739 at 0.7, 1,756
# at 0.8 and 1,902 at 1.0 (the nodes of the max only). On the 288 cases of
# `tools/solver_battery.py` the whole-support seed certifies 213 in 77,040
# steps and 13.6 s, this one 258 in 29,285 steps and 3.1 s (2-core x86-64).
SEED_LEVEL = 0.7

# Floor of f' in the PCG preconditioner, relative to its max on the free set:
# it keeps 1/sqrt(f') finite where f' underflows as s -> 1+.
PREC_FLOOR = 1e-3


@dataclass
class ProgramResult:
    """One obstacle program's certified solution; its arrays are made read-only."""

    extremal: np.ndarray     # feasible minimizer estimate, grid-shaped
    value: float             # h^n * sum(extremal^s)
    residual: float          # max over {b>0} of (b - K extremal)+, relative to max(b)
    gap: float               # value minus dual_value
    dual_value: float        # certified lower bound on the optimum
    iterations: int
    converged: bool
    multiplier: np.ndarray | None = None   # dual variable of the best certificate

    def __post_init__(self):
        for arr in (self.extremal, self.multiplier):
            if arr is not None:
                arr.setflags(write=False)


def _ray(lam: np.ndarray, a: np.ndarray, b: np.ndarray, c: float, s: float):
    """Best scalings t >= 0 of the rows of lam for the Fenchel dual, and the dual values.

    lam, a = K lam and b hold one flattened program per row. Per row,
    g(lam) = <lam, b> - (1 - 1/s) (c s)^(-1/(s-1)) sum (a_+)^(s/(s-1)),
    maximized in closed form over the ray t*lam. With w = a_+/(c s) the
    penalty is c (s-1) sum w^(s/(s-1)), and the maximum t*B/s is taken at
    t = (B / (c s sum w^(s/(s-1))))^(s-1), B = <lam, b>. It is evaluated in
    logs with w normalised by its max, since the powers overflow as s -> 1+.
    A row with B = 0 or a_+ = 0 gets t = 0. Returns the arrays (t, dual).
    """
    B = (lam * b).sum(axis=1)
    w = np.maximum(a, 0.0)
    w /= c * s
    w_max = w.max(axis=1)
    w /= np.where(w_max > 0.0, w_max, 1.0)[:, None]   # a row with a_+ = 0 stays 0
    w **= s / (s - 1.0)
    t = np.array([math.exp((s - 1.0) * math.log(B_i / (c * s * S_i)) - s * math.log(w_i))
                  if w_i > 0.0 and B_i > 0.0 else 0.0
                  for B_i, S_i, w_i in zip(B.tolist(), w.sum(axis=1).tolist(), w_max.tolist())])
    return t, t * B / s   # B >= 0, so a row off the ray gets dual value 0.0


def _primal(a: np.ndarray, c: float, s: float) -> np.ndarray:
    """Stationary primal point f(a) = (a_+/(c s))^(1/(s-1)) of the Lagrangian, a = K lam."""
    u = np.maximum(a, 0.0)
    u /= c * s
    u **= 1.0 / (s - 1.0)
    return u


def _certificates(u, Ku, dual, b, active, c, s, b_max):
    """Certify the rows (u, lam), given Ku = K u and the dual value of each lam.

    Each lam is ray-optimal: the ascent keeps every iterate at its optimal
    ray point, so `dual` is its Fenchel dual value and bounds the optimum
    from below. Each u is rescaled onto its constraint set exactly. `active`
    marks {b > 0}. Returns (ok, gap_rel, f, value, residual) per row, where
    ok is false on rows with K u <= 0 somewhere on {b > 0}, which certify
    nothing.
    """
    Ku_act = np.where(active, Ku, np.inf)
    ok = Ku_act.min(axis=1) > 0.0
    if not ok.all():
        Ku_act[~ok] = 1.0   # keeps the discarded rows' arithmetic finite
    gamma = (b / Ku_act).max(axis=1)[:, None]
    f = gamma * u
    value = c * (f**s).sum(axis=1)
    residual = np.maximum((b - gamma * Ku_act).max(axis=1), 0.0) / b_max
    return ok, (value - dual) / np.maximum(value, 1.0), f, value, residual


def _newton_direction(table, method, free, fprime, grad, budget, tol):
    """Newton direction of one program on its free set F, and the budget it spends.

    Solves (K diag(f'(a)) K) d = grad on F. When method is "dense",
    grid.size * |F|^2 <= DIRECT_MAX_WORK and the budget is at least |F|, the
    system is assembled from `table.dense` and solved directly at a cost of
    |F|; otherwise, or if it is singular, by PCG, matrix-free, preconditioned
    with S R_F K~^-2 E_F S (see `_scaled_inverse`), at a cost of its steps.
    The PCG run stops at a relative residual of PCG_TOL_RATIO times the
    certificate tolerance `tol`, not at rounding level: an inexact Newton
    direction still ascends, and only the certificates decide acceptance, so
    the looser stop can cost another Newton step but never a wrong answer.
    free, fprime and grad are one flattened row each.
    """
    n_free = int(np.count_nonzero(free))
    if method == "dense" and budget >= n_free and free.size * n_free**2 <= DIRECT_MAX_WORK:
        d = _direct_step(table.dense, free, fprime, grad)
        if d is not None:
            return d, n_free
    rhs = grad[free]
    free, fprime = free.reshape(table.grid.shape), fprime.reshape(table.grid.shape)

    def hess_mv(v):
        vv = np.zeros(free.shape)
        vv[free] = v
        return apply_kernel(table, fprime * apply_kernel(table, vv, method), method)[free]

    # in exact arithmetic PCG terminates within |F| steps; beyond that it
    # only spends budget on rounding noise
    return _cg(hess_mv, rhs, tol=PCG_TOL_RATIO * tol, max_iter=min(budget, n_free),
               prec=_scaled_inverse(table, free, fprime))


class _Rows:
    """Per-row arrays of the programs still in a batch; axis 0 indexes the rows."""

    def __init__(self, **arrays):
        vars(self).update(arrays)

    def keep(self, mask):
        vars(self).update({name: arr[mask] for name, arr in vars(self).items()})


def _newton_ascent(table, method, b, lam0, s, b_max, tol, budget):
    """Projected semismooth Newton ascent on the Fenchel dual, one program per row.

    K is `apply_kernel(table, ., method)`. b holds the flattened obstacles,
    none of them zero, b_max their maxima, and lam0 the nonnegative seeds,
    which vanish off the active sets {b > 0}. The live rows move together:
    one apply of K serves all of them, and so do the certificates, the
    gradient, the free sets and the line search.

    Stationarity gives f(a) = (a_+/(c s))^(1/(s-1)) with a = K lam; the dual
    gradient on the active set is b - K f(a). Multipliers at zero whose
    gradient points outward stay at zero. On the remaining free set F each
    row takes its own Newton direction (`_newton_direction`), then the rows
    search along their projected steps for a rise of the ray-optimal dual
    value (`_line_search`). Every iterate is kept at its optimal ray point,
    so the dual value the ascent holds for it is its Fenchel dual value; each
    iterate is certified with that value, as its own multiplier, together
    with its primal point f(a).

    A row leaves the batch once its certificate is accepted, its budget is
    spent or no ascent step is found. The seed, each Newton step and each PCG
    step count one against the row's budget, and a direct solve counts |F|.
    Returns one ProgramResult per row: its best certificate, or the zero
    result with gap inf when it has none.
    """
    shape = table.grid.shape
    c = table.grid.cell_volume
    expo = 1.0 / (s - 1.0)
    n_rows = len(b)
    out = [None] * n_rows

    def op_apply(v):
        return apply_kernel(table, v.reshape((len(v),) + shape), method).reshape(v.shape)

    def retire(leave):
        """Write out the rows in `leave` and drop them; True when no row is left."""
        if leave.any():
            for i in np.flatnonzero(leave).tolist():
                out[live.row[i]] = _result(shape, tol, int(live.steps[i]), live.gap[i],
                                           live.value[i], live.residual[i], live.cert_dual[i],
                                           live.f[i], live.cert_lam[i])
            if leave.all():
                return True
            live.keep(~leave)
        return False

    a = op_apply(lam0)
    t, dual = _ray(lam0, a, b, c, s)
    live = _Rows(row=np.arange(n_rows), b=b, b_max=b_max, active=b > 0.0,
                 steps=np.ones(n_rows, dtype=int), lam=t[:, None] * lam0, a=t[:, None] * a,
                 dual=dual,
                 # the best certificate so far; its gap is inf until there is one
                 gap=np.full(n_rows, np.inf), value=np.zeros(n_rows),
                 residual=np.zeros(n_rows), cert_dual=np.zeros(n_rows),
                 f=np.zeros(b.shape), cert_lam=np.zeros(b.shape))
    while True:
        live.u = _primal(live.a, c, s)
        live.Ku = op_apply(live.u)
        ok, gap, f, value, residual = _certificates(live.u, live.Ku, live.dual, live.b,
                                                    live.active, c, s, live.b_max)
        better = ok & (gap < live.gap)
        if better.all():
            # copies, since the line search may move lam and dual in place
            live.gap, live.value, live.residual, live.f = gap, value, residual, f
            live.cert_dual, live.cert_lam = live.dual.copy(), live.lam.copy()
        elif better.any():
            for kept, new in ((live.gap, gap), (live.value, value), (live.residual, residual),
                              (live.f, f), (live.cert_dual, live.dual),
                              (live.cert_lam, live.lam)):
                kept[better] = new[better]
        # a row whose certificate did not improve was not accepted before
        accepted = better & (gap <= tol) & (residual <= tol)
        if retire(accepted | (live.steps >= budget)):
            break

        grad = np.where(live.active, live.b - live.Ku, 0.0)
        free = (live.lam > 0.0) | (grad > 0.0)   # lam and grad vanish off {b > 0}
        fprime = np.divide(live.u, live.a, out=np.zeros(grad.shape), where=live.a > 0.0)
        fprime *= expo   # f'(a)
        live.steps += 1
        step = np.zeros(grad.shape)
        moving = []   # the rows with a nonzero step
        costs = []
        for i, left in enumerate((budget - live.steps).tolist()):
            d, cost = _newton_direction(table, method, free[i], fprime[i], grad[i], left, tol)
            costs.append(cost)
            if d.any():
                step[i, free[i]] = d
                moving.append(i)
        live.steps += costs
        if retire(~_line_search(op_apply, live, step, np.array(moving, dtype=int), c, s)):
            break
    return out


def _line_search(op_apply, live, step, searching, c, s):
    """Backtrack the live rows `searching` along their projected steps until
    the ray-optimal dual value of each rises.

    Trial i takes lam + 2^-i step, projected onto lam >= 0, for i < 25, on
    the rows that have not risen yet. Moves the rows that rise to their new
    ray-optimal iterate, and returns the mask of them over the live rows.
    While every live row is searching, a trial reads the live arrays
    themselves, and if every row rises the stack is rebound to the new
    iterates; otherwise the rows that rise are written in place.
    """
    n_live = len(live.lam)
    improved = np.zeros(n_live, dtype=bool)
    t_step = 1.0
    for _ in range(25):
        if not searching.size:
            break
        rows = slice(None) if searching.size == n_live else searching
        lam_try = t_step * step[rows]
        lam_try += live.lam[rows]
        np.maximum(lam_try, 0.0, out=lam_try)
        a_try = op_apply(lam_try)
        t, dual_try = _ray(lam_try, a_try, live.b[rows], c, s)
        old = live.dual[rows]
        up = (dual_try > old * (1.0 + 1e-15)) | ((old <= 0) & (dual_try > old))
        if searching.size == n_live and up.all():
            live.lam, live.a, live.dual = t[:, None] * lam_try, t[:, None] * a_try, dual_try
            improved[:] = True
            break
        won = searching[up]
        live.lam[won], live.a[won] = t[up, None] * lam_try[up], t[up, None] * a_try[up]
        live.dual[won] = dual_try[up]
        improved[won] = True
        searching = searching[~up]
        t_step *= 0.5
    return improved


def _direct_step(dense, free, fprime, grad):
    """Solve the free-set Newton system K_F^T diag(f') K_F d = grad_F directly.

    K_F holds the columns of the dense operator on the free set F. Returns
    None when the assembled matrix is singular.
    """
    KF = dense[:, free]
    H = KF.T @ (fprime[:, None] * KF)
    try:
        return np.linalg.solve(H, grad[free])
    except np.linalg.LinAlgError:
        return None


def _scaled_inverse(table, free, fprime):
    """Preconditioner r -> S R_F K~^-2 E_F S r of the free-set Newton system.

    K~^-2 is the table's `inverse_square_rfft`, a circulant on the grid's own
    N torus, applied by one unpadded `rfftn`/`irfftn` pair on the grid. It
    only has to approximate the inverse, so it skips the 2N torus on which
    K itself must be applied. S = diag(1/sqrt f') on F, with f' floored at
    PREC_FLOOR times its max on F, or S = I when f' vanishes on all of F.
    """
    fp = fprime[free]
    floor = PREC_FLOOR * float(fp.max())
    scale = 1.0 / np.sqrt(np.maximum(fp, floor)) if floor > 0.0 else 1.0
    spectrum = table.inverse_square_rfft
    axes = tuple(range(free.ndim))

    def prec(r):
        v = np.zeros(free.shape)
        v[free] = scale * r
        return scale * np.fft.irfftn(np.fft.rfftn(v) * spectrum, v.shape, axes)[free]

    return prec


def _cg(mv, rhs, tol, max_iter, prec):
    """Preconditioned conjugate gradients from zero; returns (solution, iterations).

    `prec` applies a symmetric positive definite preconditioner. The run
    stops once the residual norm is at most tol times the norm of rhs.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rs = float(r @ r)
    if rs == 0.0:
        return x, 0
    rhs_norm = math.sqrt(rs)
    z = prec(r)
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
        z = prec(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, k


def obstacle_program(table: KernelTable, obstacle: np.ndarray, s: float,
                     tol: float = 1e-6, max_iter: int = MAX_ITER,
                     warm=None) -> ProgramResult | list[ProgramResult]:
    """Solve the obstacle program of a grid-shaped `obstacle`, or of each row of a stack.

    `obstacle` has the grid's shape, and then one ProgramResult is returned,
    or shape (L,) + grid.shape, and then a list of L ProgramResults is
    returned, one per row. A single obstacle is solved as the stack of one.
    Raises ValueError unless the obstacle is finite and nonnegative.

    `warm` is None or an array of the obstacle's shape holding nonnegative
    multipliers from earlier solves (the `multiplier` of a ProgramResult).
    A row's restriction to {b > 0} seeds that row's Newton run when it is
    nonzero there; otherwise the seed is the row's obstacle restricted to
    its top level set {b >= SEED_LEVEL * max b}, scaled along its optimal
    ray. On an obstacle with values in {0, c} that is the obstacle itself,
    the same seed as warm=obstacle.

    A result is accepted only on its certificates: gap <= tol * max(value, 1)
    between the value at an exactly rescaled feasible point and a Fenchel dual
    bound, and feasibility residual <= tol. `max_iter` bounds each row's
    operator-applying steps (the Newton seed, Newton steps and PCG steps,
    with a direct free-set solve on grids of at most DENSE_MAX_NODES nodes
    counted as |F| steps), which are reported as `iterations`. On budget
    exhaustion, or when no ascent step is found, the best certified feasible
    value is returned with converged=False. An all-zero row returns the zero
    result, converged, after no steps.
    """
    grid = table.grid
    single = obstacle.shape == grid.shape
    if not (single or obstacle.shape[1:] == grid.shape):
        raise ValueError("obstacle shape does not match grid")
    if warm is not None and np.shape(warm) != obstacle.shape:
        raise ValueError("warm shape does not match obstacle")
    b = np.asarray(obstacle, dtype=float).reshape(-1, grid.size)
    b_max = b.max(axis=1, initial=0.0)
    if not (b_max.max(initial=0.0) < math.inf and b.min(initial=0.0) >= 0.0):   # NaN too
        raise ValueError("obstacle must be finite and nonnegative")
    if not s > 1:
        raise ValueError(f"s must exceed 1, got {s}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    results = [ProgramResult(np.zeros(grid.shape), 0.0, 0.0, 0.0, 0.0, 0, True)
               if m == 0.0 else None for m in b_max.tolist()]
    solve = np.flatnonzero(b_max > 0.0)   # rows whose {b > 0} is not empty
    if solve.size:
        if solve.size < len(b):
            b, b_max = b[solve], b_max[solve]
        lam = np.where(b >= SEED_LEVEL * b_max[:, None], b, 0.0)   # b itself on {0, c} rows
        if warm is not None:
            seed = np.where(b > 0.0, np.asarray(warm, dtype=float).reshape(-1, grid.size)[solve],
                            0.0)
            np.maximum(seed, 0.0, out=seed)
            lam = np.where((seed > 0.0).any(axis=1)[:, None], seed, lam)
        method = "dense" if grid.size <= DENSE_MAX_NODES else "fast"
        solved = _newton_ascent(table, method, b, lam, s, b_max, tol, max_iter)
        for row, res in zip(solve.tolist(), solved):
            results[row] = res
    return results[0] if single else results


def _result(shape, tol, steps, gap_rel, value, residual, dual, f, lam):
    """The ProgramResult of one row's best certificate (none when gap_rel is inf)."""
    if gap_rel == math.inf:
        return ProgramResult(np.zeros(shape), 0.0, 1.0, math.inf, 0.0, steps, False)
    # the dual value bounds the optimum from below and the value from above;
    # rounding can put the computed dual value an ulp above the value
    value = float(value)
    dual = min(float(dual), value)
    return ProgramResult(f.reshape(shape), value, float(residual), value - dual, dual,
                         steps, bool(gap_rel <= tol and residual <= tol), lam.reshape(shape))
