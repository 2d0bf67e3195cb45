"""Set capacities, Choquet integrals, weighted quasi-norms, and the obstacle norm."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import Field, Mask, Params
from .kernels import kernel_table
from .solver import ProgramResult, obstacle_program

__all__ = [
    "CapacityResult",
    "NormEstimate",
    "capacity",
    "choquet_integral",
    "lq_cap_norm",
    "f_norm",
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


def _solve(params: Params, grid, obstacle, kind: str, tol: float, max_iter: int,
           warm=None) -> ProgramResult:
    params.validate_for(kind)
    table = kernel_table(grid, params.alpha, kind)
    return obstacle_program(table, obstacle, params.s, tol=tol, max_iter=max_iter, warm=warm)


def capacity(E: Mask, params: Params, kind: str = "riesz", tol: float = 1e-6,
             max_iter: int = 20000, warm: CapacityResult | None = None) -> CapacityResult:
    """Variational capacity of the node set E for the selected kernel.

    Minimizes the s-th power integral of f >= 0 subject to the potential of f
    dominating 1 at every node of E. Sets touching the box boundary carry an
    upward truncation bias since the competitors live on the box only.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    grid = E.grid
    warm_pair = None
    if warm is not None:
        warm_dual = None if warm.dual is None else -warm.dual
        warm_pair = (warm.extremal.values, warm_dual)
    res = _solve(params, grid, E.indicator().values, kind, tol, max_iter, warm_pair)
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
                     tol: float = 1e-6, max_iter: int = 20000) -> float:
    """Layer-cake integral of g >= 0 against the capacity of its superlevel sets.

    Levels are log-spaced over (min positive value, max value]; each level's
    solve is seeded with the multiplier of the previous (nested) superlevel
    set, and the flat piece below the smallest positive value uses the
    capacity of the support exactly.
    """
    vals = g.values
    if np.any(vals < 0):
        raise ValueError("choquet_integral expects a nonnegative field")
    vmax = float(np.max(vals)) if vals.size else 0.0
    if vmax <= 0.0:
        return 0.0
    grid = g.grid
    support = vals > 0
    pos_min = float(np.min(vals[support]))

    res_support = _solve(params, grid, support.astype(float), kind, tol, max_iter)
    total = pos_min * res_support.value
    if vmax <= pos_min * (1 + 1e-14):
        return total

    # The superlevel capacity is a step function jumping exactly at the distinct
    # node values, so the discrete layer cake is a finite sum of steps. Levels
    # are snapped to those breakpoints (log-spaced selection); capacities at
    # unsampled breakpoints are filled in by log-log interpolation along the
    # nested superlevel chain, where the capacity varies smoothly.
    distinct = np.unique(vals[support])
    breaks = distinct[:-1]  # cap({v > vmax}) = 0 contributes nothing
    if breaks.size == 0:
        return total
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

    caps_sampled = np.zeros(idx.size)
    warm = (res_support.extremal, None if res_support.multiplier is None
            else -res_support.multiplier)
    for k, j in enumerate(idx):
        mask = vals > breaks[j]
        res = _solve(params, grid, mask.astype(float), kind, tol, max_iter, warm)
        caps_sampled[k] = res.value
        warm = (res.extremal, None if res.multiplier is None else -res.multiplier)

    if idx.size == breaks.size:
        caps = caps_sampled
    else:
        caps = np.exp(np.interp(np.log(breaks), np.log(breaks[idx]),
                                np.log(np.maximum(caps_sampled, 1e-300))))
        caps[idx] = caps_sampled
    total += float(np.sum(caps * np.diff(distinct)))
    return total


def lq_cap_norm(u: Field, q: float, params: Params, kind: str = "riesz",
                levels: int = 48, tol: float = 1e-6, max_iter: int = 20000) -> float:
    """Choquet L^q quasi-norm: the layer cake of |u|^q, to the power 1/q.

    The input is sup-normalized first so absolute homogeneity is exact.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    scale = float(np.max(np.abs(u.values)))
    if scale == 0.0:
        return 0.0
    absq = Field(u.grid, (np.abs(u.values) / scale) ** q, nonneg=True)
    layer = choquet_integral(absq, params, kind, levels=levels, tol=tol, max_iter=max_iter)
    return scale * layer ** (1.0 / q)


def f_norm(u: Field, params: Params, kind: str = "riesz", tol: float = 1e-6,
           max_iter: int = 20000) -> NormEstimate:
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
        return NormEstimate(0.0, 0.0, Field(u.grid, np.zeros(u.grid.shape), nonneg=True))
    obstacle = vals ** (1.0 / r)
    res = _solve(params, u.grid, obstacle, kind, tol, max_iter)
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
