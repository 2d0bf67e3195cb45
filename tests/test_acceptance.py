"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole battery targets desk scale (n <= 2, N <= 256).
"""

import json
import math
from dataclasses import replace

import numpy as np

from capax.grid import Field, Grid, Mask, Params, ball_mask, cube_mask
from capax.capacity import capacity, choquet_integral, lq_cap_norm
from capax.families import DEFAULT_FAMILY_SEED, field_family, measure_family
from capax.kernels import (apply_kernel, bessel_kernel_table, riesz_gamma, riesz_kernel_table,
                           unit_sphere_area)
from capax.maximal import a1_constant
from capax.potentials import Measure, potential, wolff_at_points, wolff_potential
from capax.spaces import a1_weight_witness
from capax.verify import (check_boundedness, check_kv_equiv, check_newnorm2, refinement_study,
                          run_check)
from conftest import direct_linear_convolve

ALPHA, S = 0.4, 2.0
P1 = Params(1, ALPHA, S)


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_convolution_oracle():
    g = Grid(2, 1.0, 64)
    rng = np.random.default_rng(11)
    f = Field(g, rng.uniform(0.0, 1.0, g.shape), nonneg=True)
    worst = 0.0
    for table in (riesz_kernel_table(g, 0.7), bessel_kernel_table(g, 0.7)):
        fast = apply_kernel(table, f.values)
        direct = direct_linear_convolve(f.values, table.values) * g.cell_volume
        worst = max(worst, float(np.max(np.abs(fast - direct) / direct)))
    _report(1, f"fast vs direct potentials (n=2, N=64): max rel dev {worst:.2e} <= 1e-10",
            worst <= 1e-10)


def test_criterion_2_closed_form_potentials():
    R = 0.25
    g1 = Grid(1, 1.0, 256)
    pot1 = potential(ball_mask(g1, R).indicator(), ALPHA, "riesz").values
    exact1 = riesz_gamma(1, ALPHA) * unit_sphere_area(1) * R**ALPHA / ALPHA
    err1 = abs(pot1[int(np.argmin(np.abs(g1.axis)))] / exact1 - 1)

    g2 = Grid(2, 1.0, 256)
    alpha2 = 0.7
    pot2 = potential(ball_mask(g2, R).indicator(), alpha2, "riesz").values
    exact2 = riesz_gamma(2, alpha2) * unit_sphere_area(2) * R**alpha2 / alpha2
    err2 = abs(pot2[np.unravel_index(np.argmin(g2.radii), g2.shape)] / exact2 - 1)

    mu = Measure.from_atoms(g1, [[0.0]], [1.0])
    w = wolff_potential(mu, ALPHA, S).values
    x = np.abs(g1.axis)
    band = (x > 0.05) & (x < 0.5)
    kappa = (1 - ALPHA * S) / (S - 1)
    exact_w = ((S - 1) / (1 - ALPHA * S)) * x[band] ** (-kappa)
    err3 = float(np.max(np.abs(w[band] / exact_w - 1)))

    _report(2, f"closed forms: ball center n=1 {err1:.3%} <= 2%, n=2 {err2:.3%} <= 3%, "
               f"Wolff Dirac {err3:.3%} <= 3%",
            err1 <= 0.02 and err2 <= 0.03 and err3 <= 0.03)


def test_criterion_3_capacity_program(capacity_qp):
    g = Grid(1, 1.0, 64)
    E = ball_mask(g, 0.25)
    mine = capacity(E, P1, tol=1e-9)

    from capax.kernels import riesz_kernel_table

    table = riesz_kernel_table(g, ALPHA)
    N, h = g.points_per_axis, g.spacing
    K = np.array([table.values[i:i + N][::-1] * h for i in range(N)])
    idx = np.where(E.members)[0]
    oracle = capacity_qp(K, idx, h)
    oracle_err = abs(mine.value - oracle) / oracle

    cap_base = capacity(ball_mask(Grid(1, 1.0, 256), 0.2), P1, tol=1e-8).value
    dil_err = 0.0
    for lam in (0.5, 2.0):
        gl = Grid(1, lam, 256)
        cl = capacity(ball_mask(gl, lam * 0.2), P1, tol=1e-8).value
        dil_err = max(dil_err, abs(cl / (lam ** (1 - ALPHA * S) * cap_base) - 1))

    tol = 1e-7
    A, B = ball_mask(g, 0.12), ball_mask(g, 0.25)
    C = cube_mask(g, 0.3, center=[0.4])
    capA = capacity(A, P1, tol=tol).value
    capB = capacity(B, P1, tol=tol).value
    capC = capacity(C, P1, tol=tol).value
    capBC = capacity(B | C, P1, tol=tol).value
    mono_ok = capA <= capB + 2 * tol and capB <= capBC + 2 * tol
    sub_ok = capBC <= capB + capC + 4 * tol

    tol_u = 1e-6
    g128 = Grid(1, 1.0, 128)
    E128 = ball_mask(g128, 0.2)
    r1 = capacity(E128, P1, tol=tol_u)
    warm = np.random.default_rng(3).uniform(0.1, 1.0, g128.shape)
    r2 = capacity(E128, P1, tol=tol_u, warm=warm)
    seeded = r2.converged and not np.array_equal(r1.extremal, r2.extremal)
    dist = (g128.spacing * np.sum(np.abs(r1.extremal - r2.extremal) ** S)) ** (1 / S)

    _report(3, f"capacity: oracle rel {oracle_err:.2e} <= 1e-6, dilation {dil_err:.3%} <= 3%, "
               f"monotone/subadditive ok, warm-seeded extremal distance {dist:.2e} "
               f"<= {10 * tol_u:.0e}",
            oracle_err <= 1e-6 and dil_err <= 0.03 and mono_ok and sub_ok
            and seeded and dist <= 10 * tol_u)


def test_criterion_4_choquet_layer_cake():
    tol = 1e-8
    g = Grid(1, 1.0, 64)
    E = ball_mask(g, 0.25)
    capE = capacity(E, P1, tol=tol).value
    c = 3.7
    err_ind = abs(choquet_integral(Field(g, c * E.members), P1, tol=tol) - c * capE)

    g128 = Grid(1, 1.0, 128)
    bump = Field(g128, np.exp(-g128.axis**2 / (2 * 0.15**2)), nonneg=True)
    smooth = Field(g128, potential(bump, ALPHA, "riesz").values ** 2, nonneg=True)
    c48 = choquet_integral(smooth, P1, levels=48, tol=1e-7)
    c96 = choquet_integral(smooth, P1, levels=96, tol=1e-7)
    doubling = abs(c96 / c48 - 1)

    _report(4, f"Choquet: |c*1_E - c*cap| = {err_ind:.2e} <= {2 * c * tol:.1e}, "
               f"level doubling {doubling:.3%} <= 0.5%",
            err_ind <= 2 * c * tol and doubling <= 0.005)


def test_criterion_5_csim_and_adams():
    g = Grid(1, 1.0, 64)
    full = run_check("csim", P1, g, count=32)
    finite = all(math.isfinite(s.ratio) for s in full.samples)

    rep_q = run_check("adams", replace(P1, q=S), g, count=32)
    bit_equal = ([ (s.lhs, s.rhs, s.ratio) for s in full.samples]
                 == [(s.lhs, s.rhs, s.ratio) for s in rep_q.samples])

    drift_ok = True
    drifts = {}
    for q in (1.0, S, S + 1.0):
        rep = refinement_study("adams", replace(P1, q=q), (64, 128, 256), count=8)
        ratios = [r for _, r in rep.refinement]
        worst = max(abs(b / a - 1) for a, b in zip(ratios, ratios[1:]))
        drifts[q] = worst
        drift_ok = drift_ok and worst < 0.25

    _report(5, f"CSIM/Adams: 32-sample ratios finite={finite}, q=s bit-equal={bit_equal}, "
               f"drift per doubling {({k: round(v, 3) for k, v in drifts.items()})} < 25%",
            finite and bit_equal and drift_ok)


def test_criterion_6_ibp_lemma():
    g = Grid(1, 1.0, 64)
    rep1 = run_check("ibp", P1, g, count=8, t=1.0)
    exact_one = all(s.ratio == 1.0 for s in rep1.samples if not s.skipped)

    stable = True
    finite = True
    for t in (1.5, 2.0, 3.0):
        rep = refinement_study("ibp", P1, (64, 128, 256), count=6, t=t)
        ratios = [r for _, r in rep.refinement]
        finite = finite and all(math.isfinite(r) for r in ratios)
        stable = stable and max(abs(b / a - 1) for a, b in zip(ratios, ratios[1:])) < 0.25

    _report(6, f"IBP: t=1 ratios exactly 1 ({exact_one}), t in {{1.5,2,3}} finite and "
               f"refinement-stable ({stable})",
            exact_one and finite and stable)


def test_criterion_7_boundedness_principle():
    factor = 2.0 ** ((1 - ALPHA * S) / (S - 1))
    g = Grid(1, 1.0, 128)

    mu1 = Measure.from_atoms(g, [[0.037]], [1.0])
    w_nodes = wolff_potential(mu1, ALPHA, S).values
    w_atom = wolff_at_points(mu1, ALPHA, S, mu1.atom_positions)
    single_ok = float(np.max(w_nodes)) <= float(w_atom[0]) * (1 + 1e-12)

    mu2 = Measure.from_atoms(g, [[-0.15], [0.15]], [1.0, 1.0])
    rng = np.random.default_rng(5)
    mu10 = Measure.from_atoms(g, rng.uniform(-0.5, 0.5, (10, 1)),
                              np.exp(rng.normal(0, 0.5, 10)))
    rep = check_boundedness(P1, [mu2, mu10])
    multi_ok = all(s.ratio <= factor for s in rep.samples)

    _report(7, f"boundedness: single-atom ratio <= 1 ({single_ok}), two/ten-atom ratios "
               f"{[round(s.ratio, 4) for s in rep.samples]} within the dyadic allowance "
               f"(constant {factor:.4f})",
            single_ok and multi_ok)


def test_criterion_8_upper_triangle():
    drift_ok, finite = True, True
    for r in (S / 2, 2 * S / 3):
        P = Params(1, ALPHA, S, r=r)
        rows = []
        for N in (32, 64):
            rep = run_check("upper_tri", P, Grid(1, 1.0, N), count=16, budget=6,
                            levels=24)
            done = [s for s in rep.samples if not s.skipped]
            finite = finite and all(math.isfinite(s.ratio) for s in done) and len(done) > 0
            rows.append(max(s.ratio for s in done))
        drift_ok = drift_ok and abs(rows[1] / rows[0] - 1) < 0.25

    # Dirac sample against the closed-form Wolff value at the atom
    g = Grid(1, 1.0, 64)
    mu = measure_family("measures", DEFAULT_FAMILY_SEED, 1, g)[0]
    w_atom = wolff_at_points(mu, ALPHA, S, mu.atom_positions)[0]
    kappa = (1 - ALPHA * S) / (S - 1)
    closed = (1.0 / kappa) * (g.spacing / 2.0) ** (-kappa)
    dirac_err = abs(w_atom / closed - 1)

    _report(8, f"upper triangle: 16-sample bands finite={finite}, drift < 25% ({drift_ok}), "
               f"Dirac closed form err {dirac_err:.3%} <= 2%",
            finite and drift_ok and dirac_err <= 0.02)


def test_criterion_9_norm_equivalence_bands():
    ok = True
    msgs = []
    g64 = Grid(1, 1.0, 64)
    doubled = [Field(g64, 2.0 * f.values, nonneg=True)     # run_check's family, doubled
               for f in field_family("mixed", DEFAULT_FAMILY_SEED, 3, g64)]
    for q in (1.0, (1 + S) / 2):
        Pq = replace(P1, q=q)
        for name, check in (("newnorm2", check_newnorm2), ("kv", check_kv_equiv)):
            rows = []
            for N in (32, 64):
                g = Grid(1, 1.0, N)
                rep = run_check(name, Pq, g, count=4, levels=16)
                done = [s for s in rep.samples if not s.skipped]
                ok = ok and len(done) > 0 and all(math.isfinite(s.ratio) for s in done)
                rows.append(max(s.ratio for s in done))
            drift = abs(rows[1] / rows[0] - 1)
            ok = ok and drift < 0.25
            base = run_check(name, Pq, g64, count=3, levels=16)
            scaled = check(Pq, doubled, levels=16)
            exact = all(a.ratio == b.ratio for a, b in zip(base.samples, scaled.samples))
            ok = ok and exact
            msgs.append(f"{name}(q={q}): band {rows[1]:.2f} drift {drift:.2%} exact-homog {exact}")
    _report(9, "; ".join(msgs), ok)


def test_criterion_10_weight_machinery():
    g = Grid(1, 1.0, 64)
    a1_const = a1_constant(Field(g, np.full(g.shape, 5.0), nonneg=True))
    const_ok = a1_const == 1.0

    from capax.grid import lp_norm

    P = Params(1, ALPHA, S, r=4.0 / 3.0)
    cs = []
    for N in (32, 64):
        gN = Grid(1, 1.0, N)
        worst = 0.0
        for h in field_family("bumps", DEFAULT_FAMILY_SEED + 9, 4, gN):
            hn = Field(gN, h.values / lp_norm(h, S), nonneg=True)
            ww = a1_weight_witness(hn, P, "riesz", levels=24)
            check = lq_cap_norm(ww.weight, P.s / P.r, P, levels=24)
            worst = max(worst, check)
        cs.append(worst)
    finite_ok = all(math.isfinite(c) for c in cs)
    stable_ok = abs(cs[1] / cs[0] - 1) < 0.25

    _report(10, f"weights: a1(const) = {a1_const} exactly 1, witness re-validation "
                f"c = {[round(c, 4) for c in cs]} finite and refinement-stable",
            const_ok and finite_ok and stable_ok)


def test_criterion_11_cli_determinism(tmp_path):
    from capax.cli import main

    outs = []
    for tag in ("x", "y"):
        cap_out = tmp_path / f"cap_{tag}.json"
        ver_out = tmp_path / f"ver_{tag}.json"
        assert main(["capacity", "--set", "ball:0.25", "--alpha", "0.4", "--s", "2",
                     "--n", "1", "--N", "64", "--output", str(cap_out)]) == 0
        assert main(["verify", "--check", "adams", "--q", "1", "--n", "1", "--alpha",
                     "0.4", "--s", "2", "--N", "32", "--count", "4", "--levels", "16",
                     "--seed", "3", "--output", str(ver_out)]) == 0
        outs.append((cap_out.read_bytes(), ver_out.read_bytes(),
                     (tmp_path / f"ver_{tag}.csv").read_bytes()))
    same = outs[0] == outs[1]
    _report(11, f"CLI byte-reproducibility from (config, seed): {same}", same)
