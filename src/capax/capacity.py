"""Set capacities, Choquet integrals and the L^q(cap) quasi-norm.

Every obstacle solve in the library goes through `_solve`, one obstacle or
a stack of them at a time, and every solver input is checked by one helper,
`_check_solve`. `choquet_integral` and `lq_cap_norm` take one field or a
list of fields on one grid: on grids of at most 64 nodes the sweep sends
the supports and sampled superlevel sets of all the fields as stacks of at
most grid.size rows, so `spaces.n_norm` sweeps the L^(s/r)(cap) norms of
all its witnesses at once. Inside a solve scope (`solve_scope`) `_solve`
keeps a memo with one entry per obstacle row, so each distinct obstacle
program is solved once per scope: Choquet sweeps of different fields often
share superlevel sets, and the evaluators in `spaces` rebuild the same
witnesses. The outermost public entry points open the scope: the evaluator
frame `spaces._normalized`, `verify`'s sample loop `_report` (and
`check_upper_tri`, whose candidates solve before it) and `run_check`, and
`cli.run`; nested calls join the open scope and the memo is dropped when
the outermost call returns, so results stay a pure function of the call's
inputs. Outside a scope nothing is memoized. The scope also counts, row by
row, real solves, memo hits and solves that did not converge. A build that
is cached once per configuration (`spaces._family_witnesses`) solves in a
scope of its own (`_own_scope`), so its value never comes from a caller's
memo; every call that uses it adopts that scope (`SolveScope.adopt`): the
build's memoized rows join the caller's memo, so the caller solves none of
them again, cold or warm, and the caller counts none of the build's solves
but each of its unconverged rows. Every solve, `capacity`'s too, returns
the solver's `ProgramResult`, whose arrays are read-only, so a memoized
result is handed out as it is.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import Field, Mask, Params
from .kernels import kernel_table
from .solver import DIRECT_MAX_WORK, ProgramResult, obstacle_program

__all__ = [
    "capacity",
    "choquet_integral",
    "lq_cap_norm",
    "SolveScope",
    "solve_scope",
]


@dataclass
class SolveScope:
    """Memo and solver counters of one solve scope.

    The counts leave out the solves of configuration builds, which are
    cached across scopes (as kernel-table builds are), except that each
    unconverged row of such a build is counted on every call that uses it.
    """

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

    def adopt(self, build: SolveScope) -> None:
        """Take in the scope of a cached build: its memoized rows join this
        memo, where a row this scope already holds stays, and its
        unconverged rows are counted here; its solves and hits are not."""
        for prefix, rows in build.memo.items():
            self.memo[prefix] = {**rows, **self.memo.get(prefix, {})}
        self.nonconverged += build.nonconverged


_SCOPE: contextvars.ContextVar = contextvars.ContextVar("capax_solve_scope", default=None)


@contextlib.contextmanager
def solve_scope():
    """Open a solve scope unless one is active; yields the active scope."""
    scope = _SCOPE.get()
    if scope is not None:
        yield scope
        return
    with _own_scope() as scope:
        yield scope


@contextlib.contextmanager
def _own_scope():
    """Open a new solve scope, also inside an active one, and yield it. Its
    memo and counts are its own; the enclosing scope resumes when it closes."""
    scope = SolveScope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def _check_solve(params: Params, grid, kind: str, tol: float) -> None:
    """Raise ValueError unless obstacle programs of (params, kind, tol) can be
    posed on `grid`. The entry points call it before they return early on a
    zero input, so that input is checked as a nonzero one is."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if params.n != grid.dim:
        raise ValueError(f"params.n = {params.n} but the grid dimension is {grid.dim}")
    params.validate_for(kind)


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
    converged results are stored; every result's arrays are read-only, so a
    stored result is returned as it is. Outside a scope every row solves.
    """
    _check_solve(params, grid, kind, tol)
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
            memo[key] = res
        if memo:
            scope.memo[prefix] = memo
    results = [found[key] if key in found else memo[key] for key in keys]
    return results[0] if single else results


def capacity(E: Mask, params: Params, kind: str = "riesz", tol: float = 1e-6,
             warm: np.ndarray | None = None) -> ProgramResult:
    """Variational capacity of the node set E for the selected kernel.

    Minimizes the s-th power integral of f >= 0 subject to the potential of f
    dominating 1 at every node of E. Sets touching the box boundary carry an
    upward truncation bias since the competitors live on the box only. `warm`,
    the `multiplier` of an earlier result or None, seeds the solve. Returns
    the solve's read-only ProgramResult: its `value` is the capacity and its
    `dual_value` a certified lower bound.
    """
    return _solve(params, E.grid, E.indicator().values, kind, tol, warm)


def _layer_cake(vals: np.ndarray, levels: int):
    """The sampled superlevel thresholds of one field, and how to sum their capacities.

    Returns None for a zero field; else (thresholds, distinct, idx): the
    support's threshold 0 and then each sampled breakpoint, the distinct
    positive node values, and the indices of the sampled breakpoints among
    distinct[:-1].
    """
    vmax = float(np.max(vals)) if vals.size else 0.0
    if vmax <= 0.0:
        return None
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
        # rescalings of the input select identical breakpoints; where the
        # ratio overflows (a subnormal pos_min; Python floats overflow to inf
        # without a warning), from the base-2 logarithm of each ratio, split
        # into its mantissas' logarithms and the exact difference of its
        # exponents, which such rescalings leave alone too
        if float(breaks[-1]) / pos_min < np.inf:
            ratios = breaks / pos_min
            targets = pos_min * np.exp(np.linspace(0.0, np.log(ratios[-1]), levels))
            found = np.searchsorted(ratios, targets / pos_min, side="left")
        else:
            (m_b, e_b), (m_0, e_0) = np.frexp(breaks), np.frexp(pos_min)
            log_ratios = np.log2(m_b) - np.log2(m_0) + (e_b - e_0)
            found = np.searchsorted(log_ratios, np.linspace(0.0, log_ratios[-1], levels),
                                    side="left")
        idx = np.unique(np.clip(found, 0, breaks.size - 1))
        idx[-1] = breaks.size - 1
    # the support is {vals > 0}; then every sampled superlevel set, nested
    return np.concatenate(([0.0], breaks[idx])), distinct, idx


def _layer_sum(distinct: np.ndarray, idx: np.ndarray, values: list) -> float:
    """The layer cake from the capacities `values` of the support and the sampled sets."""
    total = float(distinct[0]) * values[0]
    if not idx.size:
        return total
    breaks = distinct[:-1]
    caps_sampled = np.array(values[1:])
    caps = np.exp(np.interp(np.log(breaks), np.log(breaks[idx]),
                            np.log(np.maximum(caps_sampled, 1e-300))))
    caps[idx] = caps_sampled
    total += float(np.sum(caps * np.diff(distinct)))
    return total


def choquet_integral(g: Field | Sequence[Field], params: Params, kind: str = "riesz",
                     levels: int = 48, tol: float = 1e-6) -> float | list[float]:
    """Layer-cake integral of g >= 0 against the capacity of its superlevel sets.

    `g` is one Field, giving a float, or a sequence of Fields on one grid,
    giving a list with one integral per field; a sequence of no fields gives
    [], and one on several grids raises ValueError. Levels are log-spaced
    over (min positive value, max value], and the flat piece below the
    smallest positive value uses the capacity of the support exactly.

    When every Newton step of the solver is a direct solve (grid.size^3 <=
    DIRECT_MAX_WORK, at most 64 nodes), the fixed cost of each call sets the
    cost of a solve, so the supports and sampled superlevel sets of all the
    fields are solved as stacks, each row cold from its own obstacle, in
    chunks of at most grid.size rows, so that the dense products stay on one
    BLAS thread. On larger grids each row's PCG runs set the cost, which a
    stack does not share, and a cold start multiplies their steps as s -> 1+,
    so each field's sets are solved one by one along its nested chain, each
    seeded with the multiplier of the last converged solve (cold if there is
    none).
    """
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    single = isinstance(g, Field)
    fields = [g] if single else list(g)
    if not fields:
        return []
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("choquet_integral expects fields on one grid")
    _check_solve(params, grid, kind, tol)
    stack = np.stack([f.values for f in fields])
    if np.any(stack < 0):
        raise ValueError("choquet_integral expects a nonnegative field")
    cakes = [_layer_cake(vals, levels) for vals in stack]
    swept = [(vals, cake) for vals, cake in zip(stack, cakes) if cake is not None]
    if not swept:
        return 0.0 if single else [0.0] * len(stack)
    if grid.size**3 <= DIRECT_MAX_WORK:
        sets = np.concatenate([vals > thresholds.reshape((-1,) + (1,) * grid.dim)
                               for vals, (thresholds, _, _) in swept]).astype(float)
        caps = [res.value for start in range(0, len(sets), grid.size)
                for res in _solve(params, grid, sets[start:start + grid.size], kind, tol)]
    else:
        caps = []
        for vals, (thresholds, _, _) in swept:
            warm = None
            for t in thresholds:
                res = _solve(params, grid, (vals > t).astype(float), kind, tol, warm=warm)
                caps.append(res.value)
                # an unconverged multiplier carries no certificate and can be a
                # worse seed than the obstacle itself, so only converged solves seed
                if res.converged:
                    warm = res.multiplier
    totals = []
    start = 0
    for cake in cakes:
        if cake is None:
            totals.append(0.0)
            continue
        thresholds, distinct, idx = cake
        totals.append(_layer_sum(distinct, idx, caps[start:start + len(thresholds)]))
        start += len(thresholds)
    return totals[0] if single else totals


def lq_cap_norm(u: Field | Sequence[Field], q: float, params: Params, kind: str = "riesz",
                levels: int = 48, tol: float = 1e-6) -> float | list[float]:
    """Choquet L^q quasi-norm: the layer cake of |u|^q, to the power 1/q.

    `u` is one Field or a sequence of Fields on one grid, as in
    `choquet_integral`, which sweeps their superlevel sets together. Each
    input is sup-normalized first so absolute homogeneity is exact.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    single = isinstance(u, Field)
    fields = [u] if single else list(u)
    scales = [float(np.max(np.abs(f.values))) for f in fields]
    # a zero field stays zero, and its norm is 0 * 0; the sweep goes through
    # this module's `choquet_integral`, whose binding perfbench's tracer wraps
    layers = choquet_integral([Field(f.grid, (np.abs(f.values) / (scale or 1.0)) ** q,
                                     nonneg=True) for f, scale in zip(fields, scales)],
                              params, kind, levels, tol)
    norms = [scale * layer ** (1.0 / q) for scale, layer in zip(scales, layers)]
    return norms[0] if single else norms
