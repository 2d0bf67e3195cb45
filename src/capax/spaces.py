"""Two-sided evaluators for the variational function-space norms.

Each evaluator returns a NormEstimate whose upper bound is attained by an
explicit witness (re-validated independently of the optimizer) and whose
lower bound is certified where possible. Infima over weights are jointly
nonconvex; alternating reweighting refines the upper bound only, and lower
bounds that would require the papers' implicit constants are flagged
'heuristic-lower' and excluded from hard assertions.

The seven evaluators (m, O-tilde, kv, n, f, lambda and beta) check their
input and return through one frame, `_normalized`. It checks the solver
inputs (`capacity._check_solve`), for a zero input too, whose estimate is
exact; else it runs the evaluator's body on |f| / max|f| in a solve scope
(see `capacity`), so an obstacle program met twice is solved once, and
rescales the bounds by max|f| and the witness by max|f| to the evaluator's
witness degree: 0 for the weights and test functions of m, O-tilde and n,
1 for the majorants of kv, lambda and beta, 1/r for the extremal of f. So
absolute homogeneity holds exactly and witnesses are in the input's units.
`otilde_norm` also takes a list of fields on one grid, through the frame's
list form `_normalized_all`, and runs their independent programs as one
stack; lambda evaluates its two majorants that way.

Work that does not depend on the input is done once per configuration, as
kernel tables are built once: `n_norm`'s witnesses from the seeded mixed
family are cached (`_family_witnesses`), built in a solve scope of their
own, so a cached value never depends on a caller's memo or call history.
Every call adopts the build's scope: its memoized rows join the caller's
memo, so a cold call solves no more rows than one without the cache, and
the caller's scope counts the build's unconverged rows, not its solves.
This pays off where one process evaluates `n_norm` more than once in one
configuration, as `verify`'s main3 check does once per sample; a process
that evaluates it once does the same work as without the cache.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

# the Wolff potential and the maximal function are called through their
# modules, whose attributes perfbench's tracer patches to count the calls
from . import maximal, potentials
from .capacity import (choquet_integral, lq_cap_norm, solve_scope, _check_solve, _own_scope,
                       _solve)
from .families import DEFAULT_FAMILY_SEED, field_family
from .grid import Field, Grid, Params, integrate, lp_norm
from .maximal import a1_constant
from .potentials import Measure, potential

__all__ = [
    "NormEstimate",
    "WeightWitness",
    "f_norm",
    "m_norm",
    "otilde_norm",
    "kv_norm",
    "n_norm",
    "lambda_functional",
    "beta_functional",
    "a1_weight_witness",
]

# a reweighting round that lowers the upper bound by less than this relative
# amount ends the loop: otilde_norm keeps that gain, n_norm rejects it
_REWEIGHT_STOP = 1e-4
# projected descent steps of kv_norm, and reweighting rounds of n_norm
_KV_DESCENT_STEPS = 6
_N_ROUNDS = 3


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


@dataclass(frozen=True)
class WeightWitness:
    weight: Field
    a1_value: float | None
    construction: str


def _normalized(f: Field, params: Params, kind: str, tol: float, unit,
                witness_degree: float) -> NormEstimate:
    """Check the solver inputs; then the zero estimate if f = 0, else
    `unit(|f| / scale, scale)` in a solve scope, with scale = max|f|, its
    bounds multiplied by scale and its witness by scale**witness_degree."""
    return _normalized_all([f], params, kind, tol,
                           lambda fhats, scales: [unit(fhats[0], scales[0])],
                           witness_degree)[0]


def _normalized_all(fields: list, params: Params, kind: str, tol: float, units,
                    witness_degree: float) -> list:
    """`_normalized` for a list of fields on one grid, in one call of
    `units(fhats, scales)` on the nonzero fields, which returns their
    estimates in order; [] for no fields, ValueError for several grids."""
    if not fields:
        return []
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("expected fields on one grid")
    _check_solve(params, grid, kind, tol)
    scales = [float(np.max(np.abs(f.values))) for f in fields]
    live = [i for i, scale in enumerate(scales) if scale > 0.0]
    found = {}
    if live:
        with solve_scope():
            found = dict(zip(live, units([np.abs(fields[i].values) / scales[i] for i in live],
                                         [scales[i] for i in live])))
    ests = []
    for i, scale in enumerate(scales):
        if i not in found:
            ests.append(NormEstimate(0.0, 0.0, Field(grid, np.zeros(grid.shape), nonneg=True)))
            continue
        est = found[i]
        witness = est.witness
        if witness_degree:
            witness = Field(grid, witness.values * scale**witness_degree, nonneg=True)
        ests.append(replace(est, lower=est.lower * scale, upper=est.upper * scale,
                            witness=witness))
    return ests


def _best(candidates, objective) -> tuple:
    """The candidate of least objective and that value; ties keep the first."""
    best, value = None, np.inf
    for cand in candidates:
        val = objective(cand)
        if val < value:
            best, value = cand, val
    return best, value


def _heuristic_lower(upper: float, witness: Field, **details) -> NormEstimate:
    """An upper bound attained by `witness`; the lower field repeats it, flagged."""
    return NormEstimate(upper, upper, witness, ("heuristic-lower",), details)


def _l_s_normalized(h: Field, s: float) -> Field | None:
    nrm = lp_norm(h, s)
    if nrm <= 0:
        return None
    return Field(h.grid, h.values / nrm, nonneg=True)


def a1_weight_witness(h: Field, params: Params, kind: str, tol: float = 1e-6,
                      levels: int = 32, with_a1: bool = False) -> WeightWitness:
    """The trace-theorem witness built from a nonnegative h: w = (I h)^r for
    r <= 1 and w = I[h (I h)^(r-1)] for r > 1, normalized in L^(s/r)(cap)."""
    if params.r is None:
        raise ValueError("params.r must be set")
    raw, construction = _a1_raw(h, params, kind)
    nrm = lq_cap_norm(Field(h.grid, raw, nonneg=True), params.s / params.r, params, kind,
                      levels=levels, tol=tol)
    return _weight_witness(h.grid, raw, nrm, construction, kind, with_a1)


def _a1_raw(h: Field, params: Params, kind: str) -> tuple:
    """The unnormalized weight of `a1_weight_witness`, and the name of its construction."""
    r = params.r
    v = potential(h, params.alpha, kind).values
    if r <= 1.0:
        return v**r, "iterated_potential_r<=1"
    inner = Field(h.grid, h.values * v ** (r - 1.0), nonneg=True)
    return potential(inner, params.alpha, kind).values, "iterated_potential_r>1"


def _weight_witness(grid: Grid, raw: np.ndarray, nrm: float, construction: str, kind: str,
                    with_a1: bool) -> WeightWitness:
    """The weight raw / nrm, with its A1 constant when `with_a1`."""
    w_unit = Field(grid, raw / nrm, nonneg=True)
    a1 = a1_constant(w_unit, truncated=(kind == "bessel")) if with_a1 else None
    return WeightWitness(w_unit, a1, construction)


# -- Sobolev multiplier type norm ---------------------------------------------

def _dyadic_cube_ratio(f_pow: np.ndarray, grid: Grid, params: Params, kind: str,
                       tol: float) -> tuple:
    """max over the dyadic cube partition family of integral(K)/cap(K).

    Capacity depends on the cube size only (translation invariance up to box
    truncation), so one centred cube per size serves every position; the
    cubes of all log2(N) + 1 sizes are solved as one stack.
    """
    N, dim = grid.points_per_axis, grid.dim
    sizes = [N >> k for k in range(N.bit_length())]    # N, N/2, ..., 1
    cubes = np.zeros((len(sizes),) + grid.shape)
    for cube, size in zip(cubes, sizes):
        lo = N // 2 - size // 2
        cube[(slice(lo, lo + size),) * dim] = 1.0
    best = 0.0
    best_size = None
    for size, res in zip(sizes, _solve(params, grid, cubes, kind, tol)):
        if res.value > 0:
            blocks = f_pow.reshape(*sum(((N // size, size) for _ in range(dim)), ()))
            sums = blocks.sum(axis=tuple(2 * d + 1 for d in range(dim))) * grid.cell_volume
            ratio = float(np.max(sums)) / res.value
            if ratio > best:
                best, best_size = ratio, size
    return best, best_size


def m_norm(f: Field, params: Params, kind: str = "riesz", budget: int = 32,
           seed: int = DEFAULT_FAMILY_SEED, tol: float = 1e-6,
           levels: int = 32) -> NormEstimate:
    """Trace-inequality norm: least C with the h-family inequality.

    Lower bound: best candidate h normalized in L^s. Upper bound: for r = s
    the dyadic-cube supremum of integral-to-capacity ratios; for r < s the
    Wolff functional of d mu = |f|^p dx (an equivalence-class bound whose
    constant is tracked empirically, flagged accordingly).

    `levels` is unused: no bound here takes a Choquet integral. It stays
    because callers pass it, as perfbench's norms1d op does.
    """
    if params.p is None or params.r is None:
        raise ValueError("params.p and params.r must be set for m_norm")
    p, r, s = params.p, params.r, params.s
    grid = f.grid

    def unit(fhat, scale):
        f_pow = fhat**p

        def minus_trace(hn):   # negated, as the lower bound is the largest value
            v = potential(hn, params.alpha, kind).values
            return -integrate(Field(grid, v**r * f_pow)) ** (1.0 / p)

        hns = [hn for h in field_family("mixed", seed, budget, grid)
               if (hn := _l_s_normalized(h, s)) is not None]
        best_h, minus_lower = _best(hns, minus_trace)
        lower = max(-minus_lower, 0.0)    # 0 when the family has no nonzero h

        flags = ("equivalence-upper",)
        if r == s:
            ratio, cube_size = _dyadic_cube_ratio(f_pow, grid, params, kind, tol)
            upper = ratio ** (1.0 / p)
            details = {"cube_size": cube_size}
        else:
            mu = Measure.from_density(Field(grid, f_pow, nonneg=True))
            w = potentials.wolff_potential(mu, params.alpha, s).values
            kappa_exp = (s - 1.0) * r / (s - r)
            integral = integrate(Field(grid, w**kappa_exp * f_pow))
            upper = integral ** ((s - r) / (s * p))
            details = {}
        details["raw_upper"] = upper * scale
        if upper < lower:
            upper = lower
            flags = flags + ("clipped-to-lower",)
        return NormEstimate(lower, upper, best_h, flags, details)

    return _normalized(f, params, kind, tol, unit, 0)


# -- weighted O-type norm -------------------------------------------------------

def _otilde_objective(g_abs: np.ndarray, w: np.ndarray, q: float, s: float,
                      cell: float) -> float:
    nz = g_abs > 0
    if np.any(w[nz] <= 0):
        return np.inf
    return float((cell * np.sum(g_abs[nz] ** s * w[nz] ** (q - s))) ** (1.0 / s))


def otilde_norm(g: Field | Sequence[Field], params: Params, kind: str = "riesz",
                tol: float = 1e-6, levels: int = 32,
                max_rounds: int = 4) -> NormEstimate | list[NormEstimate]:
    """Infimum over unit-L^q(cap) weights w of the w-weighted s-integral of g.

    The witness is iterated from the constructive proof: the extremal phi of
    the obstacle w^(q/s) feeds the mixture h = |g| w^(q/s-1) + delta*phi, and
    the next weight is the normalized (I h)^(s/q). Only the upper bound is a
    certified bound on the infimum; the lower field repeats it, flagged.

    `g` is one Field, giving one estimate, or a sequence of Fields on one
    grid, giving a list, as in `choquet_integral` ([] for no fields,
    ValueError for several grids). The fields' programs are independent,
    so they run as one stack: one L^q(cap) sweep for the first weights,
    then in each reweighting round one `_solve` call for the obstacles of
    the fields still reweighting and one Choquet sweep for their v^s, and
    one sweep for the witnesses' check. Each field keeps its own stop rules.
    """
    q, s = params.q_below_s("otilde_norm"), params.s
    single = isinstance(g, Field)
    fields = [g] if single else list(g)

    def units(ghats, scales):
        grid = fields[0].grid
        cell = grid.cell_volume
        nq0 = lq_cap_norm([Field(grid, gh, nonneg=True) for gh in ghats], q, params, kind,
                          levels=levels, tol=tol)
        best_w = [gh / nq for gh, nq in zip(ghats, nq0)]
        upper = [_otilde_objective(gh, w, q, s, cell) for gh, w in zip(ghats, best_w)]

        live = list(range(len(ghats)))
        for _ in range(max_rounds):
            if not live:
                break
            obstacles = np.stack([np.maximum(best_w[i], 0.0) ** (q / s) for i in live])
            vs = []
            for i, res in zip(live, _solve(params, grid, obstacles, kind, tol)):
                w = best_w[i]
                mix = np.where(ghats[i] > 0,
                               ghats[i] * np.where(w > 0, w, 1.0) ** (q / s - 1.0), 0.0)
                h_mix = Field(grid, mix + upper[i] * res.extremal, nonneg=True)
                vs.append(potential(h_mix, params.alpha, kind).values)
            layers = choquet_integral([Field(grid, v**s, nonneg=True) for v in vs], params,
                                      kind, levels=levels, tol=tol)
            still = []
            for i, v, layer in zip(live, vs, layers):
                w_new = v ** (s / q) / layer ** (1.0 / q)
                obj = _otilde_objective(ghats[i], w_new, q, s, cell)
                if obj < upper[i]:
                    improved = (upper[i] - obj) / max(upper[i], 1e-300)
                    upper[i], best_w[i] = obj, w_new
                    if improved >= _REWEIGHT_STOP:
                        still.append(i)
            live = still

        witnesses = [Field(grid, w, nonneg=True) for w in best_w]
        checks = lq_cap_norm(witnesses, q, params, kind, levels=levels, tol=tol)
        return [_heuristic_lower(up, w, witness_lq_cap_norm=check)
                for up, w, check in zip(upper, witnesses, checks)]

    ests = _normalized_all(fields, params, kind, tol, units, 0)
    return ests[0] if single else ests


# -- Kalton-Verbitsky norm ------------------------------------------------------

def _kv_objective(h: np.ndarray, grid: Grid, params: Params, kind: str) -> float:
    q, s = params.q, params.s
    v = potential(Field(grid, h, nonneg=True), params.alpha, kind).values
    nz = h > 0
    integrand = np.zeros_like(h)
    integrand[nz] = h[nz] ** s * v[nz] ** (q - s)
    return float((grid.cell_volume * np.sum(integrand)) ** (1.0 / q))


def kv_norm(f: Field, params: Params, kind: str = "riesz", tol: float = 1e-6,
            levels: int = 32) -> NormEstimate:
    """Infimum over majorants h >= |f| of the mixed s-q integral of h and its
    potential; evaluated at the proof's candidates plus projected descent."""
    q, s = params.q_below_s("kv_norm"), params.s
    grid = f.grid

    def unit(fhat, scale):
        candidates = [fhat]
        obj0 = _kv_objective(fhat, grid, params, kind)
        # proof construction: majorant |f| + delta * phi with phi the extremal of
        # the obstacle w^(q/s) for the normalized weight w = |f| / ||f||_{L^q(cap)}
        nq0 = lq_cap_norm(Field(grid, fhat, nonneg=True), q, params, kind,
                          levels=levels, tol=tol)
        w0 = fhat / nq0
        res = _solve(params, grid, w0 ** (q / s), kind, tol)
        candidates.append(fhat + obj0 * res.extremal)
        # smoothed majorant
        smooth = maximal.maximal_function(Field(grid, fhat, nonneg=True)).values
        candidates.append(np.maximum(fhat, 0.5 * smooth))
        best_h, upper = _best(candidates, lambda h: _kv_objective(h, grid, params, kind))

        # projected descent on h >= |f|
        h = best_h.copy()
        step = 0.1
        for _ in range(_KV_DESCENT_STEPS):
            v = potential(Field(grid, h, nonneg=True), params.alpha, kind).values
            nz = h > 0
            grad = np.zeros_like(h)
            grad[nz] = s * h[nz] ** (s - 1.0) * v[nz] ** (q - s)
            inner = np.zeros_like(h)
            inner[nz] = h[nz] ** s * v[nz] ** (q - s - 1.0)
            grad += (q - s) * potential(Field(grid, inner, nonneg=True), params.alpha, kind).values
            scale_h = float(np.max(h)) / max(float(np.max(np.abs(grad))), 1e-300)
            trial = np.maximum(fhat, h - step * scale_h * grad)
            val = _kv_objective(trial, grid, params, kind)
            if val < upper:
                upper, best_h = val, trial
                h = trial
            else:
                step *= 0.5
        return _heuristic_lower(upper, Field(grid, best_h, nonneg=True))

    return _normalized(f, params, kind, tol, unit, 1)


# -- weighted N-type norm -------------------------------------------------------

def n_norm(g: Field, params: Params, kind: str = "riesz", variant: str = "plain",
           tol: float = 1e-6, levels: int = 32, budget: int = 8,
           seed: int = DEFAULT_FAMILY_SEED) -> NormEstimate:
    """Infimum over unit-L^(s/r)(cap) weights of the p'-integral of g against
    w^(1-p'); the a1_quasicontinuous variant restricts to the explicit
    potential-built witnesses (which are A1 weights), the plain variant admits
    arbitrary nonnegative candidates as well.

    The candidates are the witnesses of `budget` fields of the seeded mixed
    family, which do not depend on g and are built once per configuration
    (`_family_witnesses`), then the witness of g itself and, in the plain
    variant, g's own profile."""
    if params.p is None or params.r is None:
        raise ValueError("n_norm needs params.p and params.r")
    if variant not in ("plain", "a1_quasicontinuous"):
        raise ValueError(f"unknown variant {variant!r}")
    p_conj = params.p_conj
    s, r = params.s, params.r
    grid = g.grid
    cell = grid.cell_volume
    with_a1 = variant == "a1_quasicontinuous"

    def unit(ghat, scale):
        # the N objective is the O-tilde objective at q = 1 and s = p'
        def objective(ww):
            return _otilde_objective(ghat, ww.weight.values, 1.0, p_conj, cell)

        family, build = _family_witnesses(grid, params, kind, with_a1, tol, levels, seed,
                                          budget)
        with solve_scope() as scope:     # the frame's scope
            scope.adopt(build)
        built = [_a1_raw(_l_s_normalized(Field(grid, ghat, nonneg=True), s), params, kind)]
        if variant == "plain":
            built.append((ghat, "custom"))   # with_a1 is False here
        best, upper = _best(family + _swept_witnesses(grid, built, params, kind, with_a1,
                                                      tol, levels), objective)

        for _ in range(_N_ROUNDS):
            # reweighting: extremal of the obstacle w^(1/r) restarts the construction
            obstacle = np.maximum(best.weight.values, 0.0) ** (1.0 / r)
            res = _solve(params, grid, obstacle, kind, tol)
            hn = _l_s_normalized(Field(grid, res.extremal, nonneg=True), s)
            if hn is None:
                break
            ww = a1_weight_witness(hn, params, kind, tol=tol, levels=levels, with_a1=with_a1)
            val = objective(ww)
            if val < upper * (1 - _REWEIGHT_STOP):
                upper, best = val, ww
            else:
                break

        check = lq_cap_norm(best.weight, s / r, params, kind, levels=levels, tol=tol)
        return _heuristic_lower(upper, best.weight, witness_lq_cap_norm=check,
                                witness_a1=best.a1_value, construction=best.construction)

    return _normalized(g, params, kind, tol, unit, 0)


def _swept_witnesses(grid: Grid, built: list, params: Params, kind: str, with_a1: bool,
                     tol: float, levels: int) -> tuple:
    """The WeightWitnesses of the (raw weight, construction) pairs `built`,
    normalized by their L^(s/r)(cap) norms from one stacked sweep."""
    norms = lq_cap_norm([Field(grid, raw) for raw, _ in built], params.s / params.r, params,
                        kind, levels=levels, tol=tol)
    return tuple(_weight_witness(grid, raw, nrm, construction, kind, with_a1)
                 for (raw, construction), nrm in zip(built, norms))


@functools.lru_cache(maxsize=8)
def _family_witnesses(grid: Grid, params: Params, kind: str, with_a1: bool, tol: float,
                      levels: int, seed: int, budget: int) -> tuple:
    """`n_norm`'s witnesses from `budget` fields of the seeded mixed family, and
    the solve scope they were built in.

    They do not depend on the input, so they are built once per configuration,
    as kernel tables are, in a solve scope of their own: a cached value never
    comes from a caller's memo. Every `n_norm` call adopts that scope, so its
    memoized rows are not solved again and its unconverged rows are counted."""
    with _own_scope() as scope:
        built = [_a1_raw(hn, params, kind) for h in field_family("mixed", seed, budget, grid)
                 if (hn := _l_s_normalized(h, params.s)) is not None]
        witnesses = _swept_witnesses(grid, built, params, kind, with_a1, tol, levels)
    return witnesses, scope


# -- obstacle-form norm ---------------------------------------------------------

def f_norm(u: Field, params: Params, kind: str = "riesz", tol: float = 1e-6) -> NormEstimate:
    """Obstacle-form norm: inf of the r-th power of the L^s norm of f >= 0 whose
    potential dominates |u|^(1/r) at every node.

    The unique extremal is returned as witness; lower comes from the certified
    dual bound of the same program. The frame solves the program on the
    obstacle (|u| / max|u|)^(1/r), so its tolerances are relative and its
    powers stay in range; with M = max|u|^(1/r) the extremal is then scaled
    by M (witness degree 1/r), the gap by M^s and the bounds by M^r = max|u|.
    Raises ValueError when M^s overflows.
    """
    if params.r is None:
        raise ValueError("params.r must be set for f_norm")
    r, s = params.r, params.s

    def unit(uhat, scale):
        res = _solve(params, u.grid, uhat ** (1.0 / r), kind, tol)
        try:
            gap = res.gap * (scale ** (1.0 / r)) ** s
        except OverflowError:
            raise ValueError(f"f_norm: max|u| = {scale:g} puts the program's value beyond "
                             f"the float range") from None
        upper = res.value ** (r / s)
        return NormEstimate(
            lower=min(max(res.dual_value, 0.0) ** (r / s), upper),
            upper=upper,
            witness=Field(u.grid, res.extremal, nonneg=True),
            details={"residual": res.residual, "gap": gap, "iterations": res.iterations,
                     "converged": res.converged},
        )

    return _normalized(u, params, kind, tol, unit, 1.0 / r)


# -- lambda / beta functionals --------------------------------------------------

def _majorants(uhat: np.ndarray, params: Params, kind: str, grid: Grid,
               tol: float) -> list:
    """The feasible f of lambda and beta: f = g (I g)^(s/q - 1) for the extremal g
    of the obstacle uhat^(q/s) (the proof's construction), and the extremal of
    uhat; each rescaled up until its potential dominates uhat at nodes."""
    q, s = params.q, params.s
    nz = uhat > 0

    def ratio(f):   # max of uhat / I f over the support of uhat
        vf = potential(Field(grid, f, nonneg=True), params.alpha, kind).values
        return float(np.max(uhat[nz] / vf[nz]))

    g_res, u_res = _solve(params, grid, np.stack([uhat ** (q / s), uhat]), kind, tol)
    g = g_res.extremal
    v = potential(Field(grid, g, nonneg=True), params.alpha, kind).values
    f_cand = g * np.maximum(v, 0.0) ** (s / q - 1.0)
    f_cand = f_cand * ratio(f_cand)
    majorants = []
    for f in (f_cand, u_res.extremal):
        slack = ratio(f)
        majorants.append(f * slack if slack > 1.0 else f)
    return majorants


def _least_majorant(u: Field, params: Params, kind: str, tol: float, objectives) -> NormEstimate:
    """The least objective over the `_majorants` f of |u| / max|u|, in the
    evaluators' frame, with that f as witness; `objectives` maps the list of
    majorants to their objective values."""
    def unit(uhat, scale):
        majorants = _majorants(uhat, params, kind, u.grid, tol)
        (best, _), upper = _best(zip(majorants, objectives(majorants)), lambda mv: mv[1])
        return _heuristic_lower(upper, Field(u.grid, best, nonneg=True))

    return _normalized(u, params, kind, tol, unit, 1)


def lambda_functional(u: Field, params: Params, kind: str = "riesz",
                      tol: float = 1e-6, levels: int = 32) -> NormEstimate:
    """Least O-norm of a nonnegative f whose potential dominates |u| at nodes.
    The majorants' O-tilde programs run as one stack, in one `otilde_norm` call."""
    params.q_below_s("lambda_functional")
    return _least_majorant(u, params, kind, tol, lambda fs: [est.upper for est in otilde_norm(
        [Field(u.grid, f, nonneg=True) for f in fs], params, kind, tol=tol, levels=levels,
        max_rounds=2)])


def beta_functional(u: Field, params: Params, kind: str = "riesz",
                    tol: float = 1e-6, levels: int = 32) -> NormEstimate:
    """Least mixed s-q integral of such a majorizing f."""
    params.q_below_s("beta_functional")
    return _least_majorant(u, params, kind, tol,
                           lambda fs: [_kv_objective(f, u.grid, params, kind) for f in fs])
