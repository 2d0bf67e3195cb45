"""Inequality harness: seeded families, empirical best constants, refinement studies.

Each check evaluates one of the capacitary inequalities sample by sample and
reports the lhs/rhs ratios. Constants are recorded, never asserted against
invented targets; the suite asserts finiteness, degenerate-case exactness,
homogeneity invariance, and refinement stability instead.

Every check runs through one sample loop, `_report`: the check supplies only
`sample(i, item)`, which returns one `Sample`, and the report's max_ratio is
the largest ratio among the samples that were not skipped. The loop runs in
one solve scope (see `capacity`); `check_upper_tri`, whose candidates solve
before it, opens that scope around its whole body. A zero or degenerate
input is a skipped sample (`_skip`). A ratio sample (`_ratio`) skips 0/0 and
makes positive/0 an infinite ratio, which fails hard. A band sample
(`_band`) is the max/min of positive quantities; a quantity that is not
positive makes the band infinite, again a hard failure.

A check reads its exponents from its `Params` alone and runs on the family it
is given; `run_check` builds the default family, and a rescaled one is the
caller's to build.
"""

from __future__ import annotations

import io
import csv
import json
import math
from dataclasses import asdict, dataclass, field as dataclass_field, replace
from typing import Callable, NamedTuple

import numpy as np

from .capacity import capacity, choquet_integral, lq_cap_norm, solve_scope
from .families import DEFAULT_FAMILY_SEED, field_family, measure_family
from .grid import Field, Grid, Mask, Params, integrate
from .potentials import Measure, potential, wolff_at_points, wolff_potential
from .spaces import (beta_functional, kv_norm, lambda_functional, m_norm, n_norm, otilde_norm,
                     _l_s_normalized, _otilde_objective)

__all__ = [
    "Sample",
    "ConstantReport",
    "check_csim",
    "check_adams",
    "check_main2",
    "check_ibp",
    "check_boundedness",
    "check_upper_tri",
    "check_wolff_weak",
    "check_newnorm2",
    "check_kv_equiv",
    "check_main3",
    "main2_pairs",
    "run_check",
    "CHECK_NAMES",
    "refinement_study",
    "report_to_json",
    "report_to_csv",
]


@dataclass
class Sample:
    sample_id: int
    lhs: float
    rhs: float
    ratio: float
    skipped: bool = False
    note: str = ""
    quantities: dict = dataclass_field(default_factory=dict)


@dataclass
class ConstantReport:
    inequality_id: str
    params: Params
    family_seed: int
    max_ratio: float
    samples: list
    refinement: list = dataclass_field(default_factory=list)   # (N, max_ratio) rows
    meta: dict = dataclass_field(default_factory=dict)


def _skip(i: int, note: str) -> Sample:
    return Sample(i, 0.0, 0.0, 0.0, skipped=True, note=note)


def _ratio(i: int, lhs: float, rhs: float, **quantities) -> Sample:
    """The sample lhs/rhs: 0/0 is skipped, positive/0 is an infinite hard failure."""
    if rhs == 0.0:
        if lhs == 0.0:
            return Sample(i, lhs, rhs, 0.0, skipped=True, quantities=quantities)
        return Sample(i, lhs, rhs, math.inf, quantities=quantities)
    return Sample(i, lhs, rhs, lhs / rhs, quantities=quantities)


def _band(i: int, note: str, quantities: dict) -> Sample:
    """The sample max/min over quantities; one that is not positive makes the
    band an infinite hard failure, marked with `note`."""
    vals = np.array(list(quantities.values()))
    lhs, rhs = float(vals.max()), float(vals.min())
    if np.any(vals <= 0):
        return Sample(i, lhs, rhs, math.inf, note=note, quantities=quantities)
    return Sample(i, lhs, rhs, lhs / rhs, quantities=quantities)


def _report(inequality_id: str, params: Params, seed: int, items,
            sample: Callable, **meta) -> ConstantReport:
    """The one sample loop, in one solve scope: `sample(i, item)` for each item;
    max_ratio is taken over the samples that were not skipped (0 if none)."""
    with solve_scope():
        samples = [sample(i, item) for i, item in enumerate(items)]
    max_ratio = max((s.ratio for s in samples if not s.skipped), default=0.0)
    return ConstantReport(inequality_id, params, seed, max_ratio, samples, [], meta)


# -- capacitary strong type inequalities ----------------------------------------

def check_adams(params: Params, fields, kind: str = "riesz",
                seed: int = DEFAULT_FAMILY_SEED, levels: int = 32,
                tol: float = 1e-6) -> ConstantReport:
    """Choquet integral of (I f)^q against the defect integral f^s (I f)^(q-s);
    q is params.q, or s when that is unset."""
    q = params.s if params.q is None else params.q

    def sample(i, f):
        vals = f.values
        if not np.any(vals > 0):
            return _skip(i, "zero sample")
        v = potential(f, params.alpha, kind).values
        lhs = choquet_integral(Field(f.grid, v**q, nonneg=True), params, kind,
                               levels=levels, tol=tol)
        integrand = np.where(vals > 0, vals**params.s * v ** (q - params.s), 0.0)
        return _ratio(i, lhs, integrate(Field(f.grid, integrand)))

    return _report("adams", replace(params, q=q), seed, fields, sample)


def check_csim(params: Params, fields, kind: str = "riesz",
               seed: int = DEFAULT_FAMILY_SEED, levels: int = 32,
               tol: float = 1e-6) -> ConstantReport:
    """Maz'ya-type strong inequality: the q = s case of the same computation."""
    rep = check_adams(replace(params, q=params.s), fields, kind, seed, levels, tol)
    rep.inequality_id = "csim"
    return rep


def main2_pairs(grid: Grid, params: Params, count: int, kind: str = "riesz",
                seed: int = DEFAULT_FAMILY_SEED, levels: int = 32, tol: float = 1e-6):
    """(f, w) pairs with unit-L^q(cap) weights built from potential witnesses;
    the last weight is constant."""
    q = params.q_below_s("main2_pairs")
    fs = field_family("mixed", seed, count, grid)
    aux = field_family("bumps", seed + 1, count, grid)
    pairs = []
    for i in range(count):
        if i == count - 1:
            w_raw = np.ones(grid.shape)
        else:
            v = potential(aux[i], params.alpha, kind).values
            w_raw = v ** (params.s / q)
        nrm = lq_cap_norm(Field(grid, w_raw, nonneg=True), q, params, kind,
                          levels=levels, tol=tol)
        pairs.append((fs[i], Field(grid, w_raw / nrm, nonneg=True)))
    return pairs


def check_main2(params: Params, pairs, kind: str = "riesz",
                seed: int = DEFAULT_FAMILY_SEED, levels: int = 32,
                tol: float = 1e-6) -> ConstantReport:
    """Weighted bound: L^q(cap) norm of I f against the w-weighted s-integral."""
    q = params.q_below_s("check_main2")

    def sample(i, pair):
        f, w = pair
        vals = f.values
        if not np.any(vals > 0):
            return _skip(i, "zero sample")
        v = potential(f, params.alpha, kind).values
        lhs = choquet_integral(Field(f.grid, v**q, nonneg=True), params, kind,
                               levels=levels, tol=tol) ** (1.0 / q)
        rhs = _otilde_objective(vals, w.values, q, params.s, f.grid.cell_volume)
        if math.isinf(rhs):
            return Sample(i, lhs, rhs, 0.0, skipped=True, note="weight vanishes on support")
        return _ratio(i, lhs, rhs)

    return _report("main2", params, seed, pairs, sample)


def check_ibp(params: Params, fields, kind: str = "riesz",
              seed: int = DEFAULT_FAMILY_SEED, t: float = 2.0) -> ConstantReport:
    """Pointwise integrating-by-parts bound (I f)^t <= A * I[f (I f)^(t-1)]."""
    if not 1 <= t < math.inf:
        raise ValueError(f"t must be >= 1 and finite, got {t}")

    def sample(i, f):
        vals = f.values
        if not np.any(vals > 0):
            return _skip(i, "zero sample")
        v = potential(f, params.alpha, kind).values
        lhs = v**t
        inner = Field(f.grid, vals * v ** (t - 1.0), nonneg=True)
        rhs = potential(inner, params.alpha, kind).values
        sup = float(np.max(lhs / rhs))
        return Sample(i, float(np.max(lhs)), float(np.max(rhs)), sup,
                      quantities={"sup_ratio": sup})

    return _report("ibp", params, seed, fields, sample, t=t)


# -- Wolff potential checks ------------------------------------------------------

def check_boundedness(params: Params, mu_family, R: float = math.inf,
                      seed: int = DEFAULT_FAMILY_SEED) -> ConstantReport:
    """Global max of W^R against 2^((n - alpha s)/(s-1)) times the supp max of W^(2R)."""
    factor = 2.0 ** ((params.n - params.alpha * params.s) / (params.s - 1.0))
    r2 = R if math.isinf(R) else 2.0 * R

    def sample(i, mu):
        if mu.grid.dim != params.n:
            raise ValueError(f"params.n = {params.n} but the grid dimension is {mu.grid.dim}")
        if mu.density is not None:
            raise ValueError("boundedness check requires atomic measures")
        if not mu.atoms:
            return _skip(i, "empty measure")
        w_nodes = wolff_potential(mu, params.alpha, params.s, R).values
        w_supp = wolff_at_points(mu, params.alpha, params.s, mu.atom_positions, r2)
        return _ratio(i, float(np.max(w_nodes)), factor * float(np.max(w_supp)),
                      n_atoms=len(mu.atoms))

    return _report("boundedness", params, seed, mu_family, sample,
                   R=None if math.isinf(R) else R, factor=factor)


def _deposited_density(mu: Measure) -> np.ndarray:
    """Grid density of mu: the density part plus each atom as mass / cell volume
    on its nearest node. The integral of v dmu is that of v times this density."""
    grid = mu.grid
    dens = np.zeros(grid.shape) if mu.density is None else mu.density.values.copy()
    for pos, mass in zip(mu.atom_positions, mu.atom_masses):
        node = np.rint((pos + grid.half_width) / grid.spacing - 0.5).astype(int)
        dens[tuple(np.clip(node, 0, grid.points_per_axis - 1))] += float(mass) / grid.cell_volume
    return dens


def check_upper_tri(params: Params, mu_family, kind: str = "riesz",
                    seed: int = DEFAULT_FAMILY_SEED, budget: int = 8,
                    levels: int = 32, tol: float = 1e-6) -> ConstantReport:
    """Four equivalent trace quantities for each measure: candidate-h trace
    bound, dual pairing bound, Wolff-mu functional, and Wolff-cap functional.

    Both lower bounds are maxima over a candidate set: the `budget` fields of
    the seeded "mixed" family plus one candidate built from mu for each bound.
    For the trace bound (sup of the integral of (I h)^r dmu over unit-L^s
    h >= 0) it is the generating function h ~ (I mu)^(1/(s-1)); atoms enter
    I mu as mass / cell volume on their nearest node. For the pairing bound
    (sup of the integral of u dmu over the unit ball of L^(s/r)(cap)) it is
    u ~ W_mu^((s-1)r/(s-r)), whose norm is the Wolff-cap Choquet integral to
    the power r/s, so it needs no extra obstacle solve. A candidate whose
    normalizer is not positive is left out.
    """
    r, s = params.r, params.s
    if r is None or not 0 < r < s:
        raise ValueError("check_upper_tri needs params.r in (0, s)")
    with solve_scope():   # the candidates' sweeps share the samples' scope
        grid = mu_family[0].grid if mu_family else None
        cands = field_family("mixed", seed + 2, budget, grid) if grid is not None else []
        cand_pot = []
        cand_unit = []
        for h in cands:
            hn = _l_s_normalized(h, s)
            if hn is None:
                continue
            cand_pot.append(potential(hn, params.alpha, kind).values)
            u_nrm = lq_cap_norm(h, s / r, params, kind, levels=levels, tol=tol)
            cand_unit.append(h.values / u_nrm)

        wolff_R = 1.0 if kind == "bessel" else math.inf
        mu_exp = (s - 1.0) * r / (s - r)
        cap_exp = (s - 1.0) * s / (s - r)

        def sample(i, mu):
            if mu.total_mass <= 0:
                return _skip(i, "zero measure")
            dens = _deposited_density(mu)

            def pairing(v):   # the integral of v dmu
                return integrate(Field(grid, v * dens))

            w = wolff_potential(mu, params.alpha, s, wolff_R).values
            w_pairing = pairing(w**mu_exp)
            w_choquet = choquet_integral(Field(grid, w**cap_exp, nonneg=True), params, kind,
                                         levels=levels, tol=tol)

            traces = [pairing(v**r) for v in cand_pot]
            i_mu = potential(Field(grid, dens, nonneg=True), params.alpha, kind).values
            hn = _l_s_normalized(Field(grid, i_mu ** (1.0 / (s - 1.0)), nonneg=True), s)
            if hn is not None:
                traces.append(pairing(potential(hn, params.alpha, kind).values**r))

            pairings = [pairing(u) for u in cand_unit]
            u_nrm = w_choquet ** (r / s)
            if u_nrm > 0:
                pairings.append(w_pairing / u_nrm)

            return _band(i, "nonpositive quantity", {
                "trace_lb": max(traces, default=0.0), "pairing_lb": max(pairings, default=0.0),
                "wolff_mu": w_pairing ** ((s - r) / s), "wolff_cap": w_choquet ** ((s - r) / s)})

        return _report("upper_tri", params, seed, mu_family, sample)


def check_wolff_weak(mu: Measure, t: float, params: Params, kind: str = "riesz",
                     a_values=(2.0, 4.0, 8.0), tol: float = 1e-6,
                     seed: int = DEFAULT_FAMILY_SEED) -> ConstantReport:
    """Superlevel capacity bound cap({W > a t}) <= A t^(1-s) mu({W > t})."""
    if not t > 0:
        raise ValueError("t must be positive")
    w = wolff_potential(mu, params.alpha, params.s).values
    rhs = t ** (1.0 - params.s) * integrate(Field(mu.grid, (w > t) * _deposited_density(mu)))

    def sample(i, a):
        mask = w > a * t
        lhs = capacity(Mask(mu.grid, mask), params, kind, tol=tol).value if np.any(mask) else 0.0
        return _ratio(i, lhs, rhs, a=a)

    return _report("wolff_weak", params, seed, a_values, sample, t=t)


# -- norm equivalence bands ------------------------------------------------------

def check_newnorm2(params: Params, u_family, kind: str = "riesz",
                   seed: int = DEFAULT_FAMILY_SEED, levels: int = 24,
                   tol: float = 1e-6) -> ConstantReport:
    """Three-way band between the L^q(cap) quasi-norm and the two functionals."""
    q = params.q_below_s("check_newnorm2")

    def sample(i, u):
        if not np.any(np.abs(u.values) > 0):
            return _skip(i, "zero sample")
        return _band(i, "nonpositive", {
            "lq_cap": lq_cap_norm(u, q, params, kind, levels=levels, tol=tol),
            "lambda": lambda_functional(u, params, kind, tol=tol, levels=levels).upper,
            "beta": beta_functional(u, params, kind, tol=tol, levels=levels).upper})

    return _report("newnorm2", params, seed, u_family, sample)


def check_kv_equiv(params: Params, g_family, kind: str = "riesz",
                   seed: int = DEFAULT_FAMILY_SEED, levels: int = 24,
                   tol: float = 1e-6) -> ConstantReport:
    """Two-sided ratio band between the majorant norm and the weighted O-norm,
    reported as kv against otilde."""
    def sample(i, g):
        if not np.any(np.abs(g.values) > 0):
            return _skip(i, "zero sample")
        nk = kv_norm(g, params, kind, tol=tol, levels=levels).upper
        no = otilde_norm(g, params, kind, tol=tol, levels=levels).upper
        return replace(_band(i, "nonpositive", {"kv": nk, "otilde": no}), lhs=nk, rhs=no)

    return _report("kv_equiv", params, seed, g_family, sample)


def check_main3(params: Params, pair_family, kind: str = "riesz",
                seed: int = DEFAULT_FAMILY_SEED, levels: int = 24,
                tol: float = 1e-6, budget: int = 8) -> ConstantReport:
    """Koethe pairing: integral of |f g| for f in the trace-norm unit ball
    against the N-norm of g (f normalized by its certified lower bound)."""
    def sample(i, pair):
        f, g = pair
        mf = m_norm(f, params, kind, budget=budget, seed=seed + 3, tol=tol, levels=levels)
        if mf.lower <= 0 or not np.any(np.abs(g.values) > 0):
            return _skip(i, "degenerate pair")
        f_unit = np.abs(f.values) / mf.lower
        lhs = integrate(Field(f.grid, f_unit * np.abs(g.values)))
        rhs = n_norm(g, params, kind, variant="plain", tol=tol, levels=levels,
                     budget=budget, seed=seed + 4).upper
        return _ratio(i, lhs, rhs)

    return _report("main3", params, seed, pair_family, sample)


# -- check registry, refinement, and serialization -------------------------------

def _fields(params, grid, kind, seed, count, levels, tol) -> list:
    return field_family("mixed", seed, count, grid)


def _measures(name: str):
    def build(params, grid, kind, seed, count, levels, tol) -> list:
        return measure_family(name, seed, count, grid)
    return build


def _main2_family(params, grid, kind, seed, count, levels, tol) -> list:
    return main2_pairs(grid, params, count, kind, seed, levels, tol)


def _main3_family(params, grid, kind, seed, count, levels, tol) -> list:
    return list(zip(field_family("mixed", seed, count, grid),
                    field_family("bumps", seed + 5, count, grid)))


class _Check(NamedTuple):
    """A registered check: `run(params, family, seed=, **keywords)` on the
    family that `family(params, grid, kind, seed, count, levels, tol)`
    builds; `levels` is capped at `max_levels`."""

    run: Callable
    family: Callable
    keywords: tuple
    max_levels: float = math.inf


_CHOQUET = ("kind", "levels", "tol")

_CHECKS = {
    "csim": _Check(check_csim, _fields, _CHOQUET),
    "adams": _Check(check_adams, _fields, _CHOQUET),
    "main2": _Check(check_main2, _main2_family, _CHOQUET),
    "ibp": _Check(check_ibp, _fields, ("kind", "t")),
    "boundedness": _Check(check_boundedness, _measures("atoms"), ("R",)),
    "upper_tri": _Check(check_upper_tri, _measures("measures"), _CHOQUET + ("budget",)),
    "newnorm2": _Check(check_newnorm2, _fields, _CHOQUET, max_levels=24),
    "kv": _Check(check_kv_equiv, _fields, _CHOQUET, max_levels=24),
    "main3": _Check(check_main3, _main3_family, _CHOQUET + ("budget",), max_levels=24),
}

CHECK_NAMES = tuple(_CHECKS)
_KEYWORDS = {k for check in _CHECKS.values() for k in check.keywords}


def run_check(name: str, params: Params, grid: Grid, kind: str = "riesz",
              seed: int = DEFAULT_FAMILY_SEED, count: int = 8, levels: int = 32,
              tol: float = 1e-6, **kw) -> ConstantReport:
    """Build the named check's default family on the grid and run it.

    The exponents are `params`' own. The check registry `_CHECKS` fixes each
    check's family, the keywords it takes and its level cap. Of the extra
    keywords (`t`, `R`, `budget`), a check gets those it takes and ignores the
    rest, so one set serves every check; a keyword that no check takes raises
    TypeError. Reports are bit-reproducible from (name, params, seed, grid,
    count, levels). The whole check runs in one solve scope; `meta["solver"]`
    holds its counts of real solves, memo hits and solves that did not converge.
    """
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {CHECK_NAMES}")
    if set(kw) - _KEYWORDS:
        raise TypeError(f"run_check got keywords no check takes: {sorted(set(kw) - _KEYWORDS)}")
    check = _CHECKS[name]
    levels = min(levels, check.max_levels)
    options = dict(kw, kind=kind, levels=levels, tol=tol)
    with solve_scope() as scope:
        before = scope.counts()
        family = check.family(params, grid, kind, seed, count, levels, tol)
        report = check.run(params, family, seed=seed,
                           **{k: options[k] for k in check.keywords if k in options})
        report.meta["solver"] = scope.since(before)
    return report


def refinement_study(name: str, params: Params, Ns, half_width: float = 1.0,
                     kind: str = "riesz", seed: int = DEFAULT_FAMILY_SEED,
                     count: int = 8, levels: int = 32, tol: float = 1e-6,
                     **kw) -> ConstantReport:
    """Run the named check across grid sizes, with `run_check`'s keywords;
    refinement rows are (N, max_ratio)."""
    if not Ns:
        raise ValueError("a refinement study needs at least one grid size")
    dim = params.n
    rows = []
    last = None
    for N in Ns:
        grid = Grid(dim, half_width, int(N))
        last = run_check(name, params, grid, kind, seed, count, levels, tol, **kw)
        rows.append((int(N), last.max_ratio))
    last.refinement = rows
    return last


def report_to_json(report: ConstantReport) -> str:
    """The report's dataclass fields as JSON, in declaration order."""
    return json.dumps(asdict(report), indent=2)


def report_to_csv(report: ConstantReport | dict) -> str:
    """The sample table as CSV, from a report or from its `report_to_json` document."""
    samples = report.get("samples", []) if isinstance(report, dict) else map(vars, report.samples)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sample_id", "lhs", "rhs", "ratio"])
    for s in samples:
        writer.writerow([s["sample_id"], *(repr(float(s[k])) for k in ("lhs", "rhs", "ratio"))])
    return buf.getvalue()
