"""Set capacities, Choquet integrals, weighted quasi-norms, and the obstacle norm.

Every obstacle solve in the library goes through `_solve`, one obstacle or
a stack of them at a time: on grids of at most 64 nodes a Choquet sweep
sends the support and all its sampled superlevel sets in one stack. Inside
a solve scope (`solve_scope`, or a function decorated with `scoped`)
`_solve` keeps a memo with one entry per obstacle row, so each distinct
obstacle program is solved once per scope: Choquet sweeps of different
fields often share superlevel sets, and the evaluators in `spaces` rebuild
the same witnesses. The outermost public
entry points open the scope: the six `spaces` evaluators, `verify`'s checks
and `run_check`, and `cli.run`; nested calls join the open scope and the
memo is dropped when the outermost call returns, so results stay a pure
function of the call's inputs. Outside a scope nothing is memoized. The
scope also counts, row by row, real solves, memo hits and solves that did
not converge.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import Field, Mask, Params
from .kernels import kernel_table
from .solver import DIRECT_MAX_WORK, ProgramResult, obstacle_program

__all__ = [
    "CapacityResult",
    "NormEstimate",
    "capacity",
    "choquet_integral",
    "lq_cap_norm",
    "f_norm",
    "SolveScope",
    "solve_scope",
    "scoped",
]


@dataclass
class CapacityResult:
    value: float
    extremal: Field
    feasibility_residual: float
    gap: float
    iterations: int
    converged: bool
    dual: np.ndarray | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "residual": self.feasibility_residual,
                "gap": self.gap,
                "iterations": self.iterations,
                "converged": self.converged,
            }
        )


@dataclass
class NormEstimate:
    """Two-sided estimate of a variational norm with the witness that attains upper."""

    lower: float
    upper: float
    witness: Field | None = None
    flags: tuple = ()
    details: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper * (1 + 1e-12) + 1e-300):
            raise ValueError(f"invalid estimate: lower={self.lower}, upper={self.upper}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "lower": self.lower,
                "upper": self.upper,
                "heuristic_flags": list(self.flags),
                "witness_ref": None if self.witness is None else "inline",
            }
        )


def _zero_estimate(grid) -> NormEstimate:
    """The exact estimate of every norm at the zero function."""
    return NormEstimate(0.0, 0.0, Field(grid, np.zeros(grid.shape), nonneg=True))


@dataclass
class SolveScope:
    """Memo and solver counters of one solve scope."""

    memo: dict = dataclass_field(default_factory=dict)   # key prefix -> {row bytes: result}
    solves: int = 0          # obstacle rows that reached obstacle_program
    memo_hits: int = 0       # obstacle rows answered from the memo
    nonconverged: int = 0    # solved rows that did not converge

    def counts(self) -> dict:
        return {"solves": self.solves, "memo_hits": self.memo_hits,
                "nonconverged": self.nonconverged}

    def since(self, before: dict) -> dict:
        """Counts accumulated after `before` was taken with counts()."""
        return {k: v - before[k] for k, v in self.counts().items()}


_SCOPE: contextvars.ContextVar = contextvars.ContextVar("capax_solve_scope", default=None)


@contextlib.contextmanager
def solve_scope():
    """Open a solve scope unless one is active; yields the active scope."""
    scope = _SCOPE.get()
    if scope is not None:
        yield scope
        return
    scope = SolveScope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def scoped(fn):
    """Run fn inside a solve scope (joining the active one, if any)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with solve_scope():
            return fn(*args, **kwargs)
    return wrapper


def _solve(params: Params, grid, obstacle, kind: str, tol: float,
           warm=None) -> ProgramResult | list[ProgramResult]:
    """Solve the obstacle program of `obstacle` on the (grid, alpha, kind) table.

    `obstacle` is as in `obstacle_program`: grid-shaped, giving one
    ProgramResult, or a stack of rows, giving a list. `warm`, a grid-shaped
    multiplier or None, goes to `obstacle_program` as it is. Inside a solve
    scope each row is memoized under the key prefix (grid, alpha, kind, s,
    tol), built once per call, and the row's bytes as contiguous float64; the
    warm start is not part of the key, so a repeated obstacle returns the
    first solve's result whatever its warm start. The rows found in the memo,
    and the repeats of a row within the stack, count as memo hits and are not
    solved again; the rest go to `obstacle_program`, through this module's
    binding, in one call (a grid-shaped obstacle goes grid-shaped). Only
    converged results are stored, and a stored result's arrays are
    read-only. Outside a scope every row solves.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if params.n != grid.dim:
        raise ValueError(f"params.n = {params.n} but the grid dimension is {grid.dim}")
    params.validate_for(kind)
    table = kernel_table(grid, params.alpha, kind)
    scope = _SCOPE.get()
    if scope is None:
        return obstacle_program(table, obstacle, params.s, tol=tol, warm=warm)
    single = obstacle.shape == grid.shape
    rows = np.ascontiguousarray(obstacle, dtype=float)
    if single:
        rows = rows[None]
    prefix = (grid, params.alpha, kind, params.s, tol)
    memo = scope.memo.get(prefix, {})
    keys = [row.tobytes() for row in rows]
    todo = {}   # key -> the first row that needs it solved
    for i, key in enumerate(keys):
        if key not in memo:
            todo.setdefault(key, i)
    scope.memo_hits += len(keys) - len(todo)
    found = {}
    if todo:
        # a single obstacle goes to the solver grid-shaped and comes back alone
        pick = 0 if single else list(todo.values())
        solved = obstacle_program(table, rows[pick], params.s, tol=tol, warm=warm)
        found = dict(zip(todo, [solved] if single else solved))
        scope.solves += len(todo)
        for key, res in found.items():
            if not res.converged:
                scope.nonconverged += 1
                continue
            for arr in (res.extremal, res.multiplier):
                if arr is not None:
                    arr.setflags(write=False)
            memo[key] = res
        if memo:
            scope.memo[prefix] = memo
    results = [found[key] if key in found else memo[key] for key in keys]
    return results[0] if single else results


def capacity(E: Mask, params: Params, kind: str = "riesz", tol: float = 1e-6,
             warm: CapacityResult | None = None) -> CapacityResult:
    """Variational capacity of the node set E for the selected kernel.

    Minimizes the s-th power integral of f >= 0 subject to the potential of f
    dominating 1 at every node of E. Sets touching the box boundary carry an
    upward truncation bias since the competitors live on the box only. A
    `warm` result seeds the solve with its `dual` multiplier.
    """
    grid = E.grid
    res = _solve(params, grid, E.indicator().values, kind, tol,
                 None if warm is None else warm.dual)
    return CapacityResult(
        value=res.value,
        extremal=Field(grid, res.extremal, nonneg=True),
        feasibility_residual=res.residual,
        gap=res.gap,
        iterations=res.iterations,
        converged=res.converged,
        dual=res.multiplier,
    )


def choquet_integral(g: Field, params: Params, kind: str = "riesz", levels: int = 48,
                     tol: float = 1e-6) -> float:
    """Layer-cake integral of g >= 0 against the capacity of its superlevel sets.

    Levels are log-spaced over (min positive value, max value], and the flat
    piece below the smallest positive value uses the capacity of the support
    exactly.

    When every Newton step of the solver is a direct solve (grid.size^3 <=
    DIRECT_MAX_WORK, at most 64 nodes), the fixed cost of each call sets the
    cost of a solve, so the support and every sampled superlevel set are
    solved as one stack, each row cold from its own obstacle; such a stack
    has at most grid.size rows, so its dense products stay on one BLAS
    thread. On larger grids each row's PCG runs set the cost, which a stack
    does not share, and a cold start multiplies their steps as s -> 1+, so
    the sets are solved one by one along the nested chain, each seeded with
    the multiplier of the last converged solve (cold if there is none).
    """
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    vals = g.values
    if np.any(vals < 0):
        raise ValueError("choquet_integral expects a nonnegative field")
    vmax = float(np.max(vals)) if vals.size else 0.0
    if vmax <= 0.0:
        return 0.0
    grid = g.grid
    support = vals > 0
    pos_min = float(np.min(vals[support]))

    # The superlevel capacity is a step function jumping exactly at the distinct
    # node values, so the discrete layer cake is a finite sum of steps. Levels
    # are snapped to those breakpoints (log-spaced selection); capacities at
    # unsampled breakpoints are filled in by log-log interpolation along the
    # nested superlevel chain, where the capacity varies smoothly.
    distinct = np.unique(vals[support])
    breaks = distinct[:-1]  # cap({v > vmax}) = 0 contributes nothing
    if vmax <= pos_min * (1 + 1e-14):
        breaks = breaks[:0]   # flat: the support alone carries the integral
    if breaks.size <= levels:
        idx = np.arange(breaks.size)
    else:
        # targets built from the value ratio so that exact (power-of-two)
        # rescalings of the input select identical breakpoints
        targets = pos_min * np.exp(np.linspace(0.0, np.log(breaks[-1] / pos_min), levels))
        idx = np.unique(np.clip(np.searchsorted(breaks / pos_min, targets / pos_min,
                                                side="left"),
                                0, breaks.size - 1))
        idx[-1] = breaks.size - 1

    # the support is {vals > 0}; then every sampled superlevel set, nested
    thresholds = np.concatenate(([0.0], breaks[idx]))
    if grid.size**3 <= DIRECT_MAX_WORK:
        sets = (vals > thresholds.reshape((-1,) + (1,) * grid.dim)).astype(float)
        values = [res.value for res in _solve(params, grid, sets, kind, tol)]
    else:
        values = []
        warm = None
        for t in thresholds:
            res = _solve(params, grid, (vals > t).astype(float), kind, tol, warm=warm)
            values.append(res.value)
            # an unconverged multiplier carries no certificate and can be a
            # worse seed than the obstacle itself, so only converged solves seed
            if res.converged:
                warm = res.multiplier
    total = pos_min * values[0]
    if not idx.size:
        return total
    caps_sampled = np.array(values[1:])
    caps = np.exp(np.interp(np.log(breaks), np.log(breaks[idx]),
                            np.log(np.maximum(caps_sampled, 1e-300))))
    caps[idx] = caps_sampled
    total += float(np.sum(caps * np.diff(distinct)))
    return total


def lq_cap_norm(u: Field, q: float, params: Params, kind: str = "riesz",
                levels: int = 48, tol: float = 1e-6) -> float:
    """Choquet L^q quasi-norm: the layer cake of |u|^q, to the power 1/q.

    The input is sup-normalized first so absolute homogeneity is exact.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    scale = float(np.max(np.abs(u.values)))
    if scale == 0.0:
        return 0.0
    absq = Field(u.grid, (np.abs(u.values) / scale) ** q, nonneg=True)
    layer = choquet_integral(absq, params, kind, levels=levels, tol=tol)
    return scale * layer ** (1.0 / q)


def f_norm(u: Field, params: Params, kind: str = "riesz", tol: float = 1e-6) -> NormEstimate:
    """Obstacle-form norm: inf of the r-th power of the L^s norm of f >= 0 whose
    potential dominates |u|^(1/r) at every node.

    The unique extremal is returned as witness; lower comes from the certified
    dual bound of the same program.
    """
    if params.r is None:
        raise ValueError("params.r must be set for f_norm")
    r = params.r
    vals = np.abs(u.values)
    if not np.any(vals > 0):
        return _zero_estimate(u.grid)
    obstacle = vals ** (1.0 / r)
    res = _solve(params, u.grid, obstacle, kind, tol)
    power = r / params.s
    upper = res.value**power
    lower = max(res.dual_value, 0.0) ** power
    return NormEstimate(
        lower=min(lower, upper),
        upper=upper,
        witness=Field(u.grid, res.extremal, nonneg=True),
        details={"residual": res.residual, "gap": res.gap, "iterations": res.iterations,
                 "converged": res.converged},
    )
