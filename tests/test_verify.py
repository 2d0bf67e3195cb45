import json
import math
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from capax.spaces import NormEstimate, _l_s_normalized
from capax.grid import Field, Grid, Params
from capax.families import DEFAULT_FAMILY_SEED, field_family, measure_family
from capax.potentials import Measure, wolff_at_points
from capax.verify import (check_adams, check_boundedness, check_csim, check_ibp, check_kv_equiv,
                          check_main2, check_main3, check_newnorm2, check_upper_tri,
                          check_wolff_weak, ConstantReport, Sample, refinement_study, report_to_csv,
                          report_to_json, run_check)

P = Params(1, 0.4, 2.0, q=1.5, p=2.0, r=1.0)


@pytest.fixture
def solve_scopes(monkeypatch):
    """(scope, rows) for each call to the capacity module's obstacle_program:
    the solve scope it ran in (None outside any) and its number of obstacle rows."""
    mod = sys.modules["capax.capacity"]     # the package attribute is the function
    orig = mod.obstacle_program
    calls = []

    def recording(table, obstacle, s, **kw):
        rows = 1 if obstacle.shape == table.grid.shape else len(obstacle)
        calls.append((mod._SCOPE.get(), rows))
        return orig(table, obstacle, s, **kw)

    monkeypatch.setattr(mod, "obstacle_program", recording)
    return calls


def _rows_in_one_scope(calls) -> int:
    """The rows of `calls`, after asserting that they all ran in one open scope."""
    scope = calls[0][0]
    assert scope is not None and all(other is scope for other, _ in calls)
    return sum(rows for _, rows in calls)


def test_a_direct_check_call_solves_in_one_scope(g64, solve_scopes):
    # the sample loop opens the scope, so the second, repeated sample solves no row
    f = field_family("mixed", DEFAULT_FAMILY_SEED, 2, g64)[1]
    once = check_adams(P, [f], levels=16)
    rows = _rows_in_one_scope(solve_scopes)
    solve_scopes.clear()
    twice = check_adams(P, [f, f], levels=16)
    assert _rows_in_one_scope(solve_scopes) == rows
    assert [s.ratio for s in twice.samples] == [once.samples[0].ratio] * 2


def test_upper_tri_candidates_solve_in_the_samples_scope(solve_scopes):
    # the candidates' L^(s/r)(cap) sweeps run before the sample loop, in its scope
    g = Grid(1, 1.0, 32)
    mu = measure_family("measures", 1, 1, g)[0]
    once = check_upper_tri(P, [mu], budget=2, levels=8)
    rows = _rows_in_one_scope(solve_scopes)
    solve_scopes.clear()
    twice = check_upper_tri(P, [mu, mu], budget=2, levels=8)
    assert _rows_in_one_scope(solve_scopes) == rows
    assert [s.quantities for s in twice.samples] == [once.samples[0].quantities] * 2
    # the sample loop made the checks' decorator redundant
    assert not hasattr(sys.modules["capax.capacity"], "scoped")


def test_family_determinism(g64):
    a = field_family("mixed", 123, 8, g64)
    b = field_family("mixed", 123, 8, g64)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    c = field_family("mixed", 124, 8, g64)
    assert any(not np.array_equal(x.values, y.values) for x, y in zip(a, c))
    assert field_family("mixed", 123, 0, g64) == []
    with pytest.raises(ValueError):
        field_family("unknown", 1, 4, g64)


def test_measure_family_determinism(g64):
    a = measure_family("measures", 9, 6, g64)
    b = measure_family("measures", 9, 6, g64)
    for x, y in zip(a, b):
        assert np.array_equal(x.atom_positions, y.atom_positions)
        assert np.array_equal(x.atom_masses, y.atom_masses)
    assert a[0].atoms and a[0].atom_masses[0] == 1.0   # leading unit atom


def test_family_manifest_statistics(g64):
    # frozen statistics of the documented default family
    from capax.grid import integrate

    fam = field_family("mixed", DEFAULT_FAMILY_SEED, 8, g64)
    masses = [round(integrate(f), 12) for f in fam]
    supports = [int(np.count_nonzero(f.values)) for f in fam]
    manifest = json.loads(open("tests/data/family_manifest.json").read())
    assert masses == manifest["masses"]
    assert supports == manifest["supports"]


def test_csim_finite_and_adams_degeneracy(g64):
    rep = run_check("csim", P, g64, count=6)
    assert all(math.isfinite(s.ratio) for s in rep.samples)
    assert rep.max_ratio > 0
    rep_s = run_check("adams", replace(P, q=P.s), g64, count=6)
    assert [s.ratio for s in rep.samples] == [s.ratio for s in rep_s.samples]
    assert rep.inequality_id == "csim" and rep_s.inequality_id == "adams"


def test_adams_zero_sample_skipped(g64):
    # every field check skips a zero field before any solve, as does main2 a zero f
    zero = Field(g64, np.zeros(g64.shape), nonneg=True)
    one = Field(g64, np.ones(g64.shape), nonneg=True)
    reports = [check_adams(replace(P, q=1.0), [zero], "riesz"), check_ibp(P, [zero]),
               check_newnorm2(P, [zero]), check_kv_equiv(P, [zero]),
               check_main2(P, [(zero, one)])]
    for rep in reports:
        s = rep.samples[0]
        assert s.skipped and s.note == "zero sample"
        assert (s.lhs, s.rhs, s.ratio, s.quantities) == (0.0, 0.0, 0.0, {})
        assert rep.max_ratio == 0.0


def test_ratio_scale_invariance(g64):
    # the run_check family, and the same family doubled
    fam = field_family("mixed", DEFAULT_FAMILY_SEED, 4, g64)
    doubled = [Field(g64, 2.0 * f.values, nonneg=True) for f in fam]
    for check, params, kw in [(check_csim, P, {}), (check_adams, replace(P, q=1.0), {}),
                              (check_ibp, P, {"t": 2.0})]:
        rep1 = check(params, fam, **kw)
        rep2 = check(params, doubled, **kw)
        for a, b in zip(rep1.samples, rep2.samples):
            if not a.skipped and a.ratio > 0:
                assert abs(b.ratio / a.ratio - 1) <= 1e-12


def test_ibp_identity_and_sweep(g64):
    rep1 = run_check("ibp", P, g64, count=4, t=1.0)
    assert all(s.ratio == 1.0 for s in rep1.samples if not s.skipped)
    sweep = [run_check("ibp", P, g64, count=4, t=t).max_ratio for t in (1.0, 1.5, 2.0, 3.0)]
    assert all(math.isfinite(v) and v >= 1.0 - 1e-12 for v in sweep)
    with pytest.raises(ValueError, match="t must be >= 1"):
        check_ibp(P, [], t=0.5)


def test_boundedness_two_atoms_exact_constant(g64):
    factor = 2.0 ** ((P.n - P.alpha * P.s) / (P.s - 1.0))
    mu2 = Measure.from_atoms(g64, [[-0.15], [0.15]], [1.0, 1.0])
    rep = check_boundedness(P, [mu2, Measure(g64, ())])
    assert rep.meta["factor"] == pytest.approx(factor)
    assert rep.samples[0].ratio <= 1.0 + 0.02
    assert rep.samples[0].quantities == {"n_atoms": 2}
    empty = rep.samples[1]
    assert empty.skipped and empty.note == "empty measure" and empty.ratio == 0.0
    assert rep.max_ratio == rep.samples[0].ratio


def test_boundedness_params_dimension_must_match_grid(g64):
    # the factor 2^((n - alpha s)/(s - 1)) reads params.n, so it must be the grid's
    mu = Measure.from_atoms(g64, [[-0.15], [0.15]], [1.0, 1.0])
    with pytest.raises(ValueError, match="grid dimension"):
        check_boundedness(Params(2, 0.7, 2.0), [mu])
    dens = Measure.from_density(field_family("bumps", 1, 1, g64)[0])
    with pytest.raises(ValueError, match="atomic measures"):
        check_boundedness(P, [dens])


def test_boundedness_truncated_variant(g64):
    mu = Measure.from_atoms(g64, [[-0.2], [0.1], [0.3]], [1.0, 0.5, 2.0])
    rep = check_boundedness(P, [mu], R=0.5)
    assert rep.meta["R"] == 0.5
    assert rep.samples[0].ratio <= 1.0 + 0.02


def test_upper_tri_quantities_and_dirac(g64):
    rep = run_check("upper_tri", P, g64, count=4, budget=4, levels=20)
    done = [s for s in rep.samples if not s.skipped]
    assert done and all(math.isfinite(s.ratio) for s in done)
    for s in done:
        for key in ("trace_lb", "pairing_lb", "wolff_mu", "wolff_cap"):
            assert s.quantities[key] > 0
    # first sample of the 'measures' family is a unit Dirac: closed form for
    # the Wolff-mu functional through the potential value at the atom
    mu = measure_family("measures", DEFAULT_FAMILY_SEED, 4, g64)[0]
    s0 = rep.samples[0]
    w_atom = wolff_at_points(mu, P.alpha, P.s, mu.atom_positions)[0]
    kappa = (P.n - P.alpha * P.s) / (P.s - 1.0)
    closed = (1.0 / kappa) * (g64.spacing / 2.0) ** (-kappa)
    assert abs(w_atom / closed - 1) <= 0.02
    expected_q3 = w_atom ** ((P.s - 1.0) * P.r / P.s)
    assert s0.quantities["wolff_mu"] == pytest.approx(expected_q3, rel=1e-9)


def test_upper_tri_degenerate_measures(g64, monkeypatch):
    zero = Field(g64, np.zeros(g64.shape), nonneg=True)
    rep = check_upper_tri(P, [Measure.from_density(zero)], budget=2, levels=8)
    s = rep.samples[0]
    assert s.skipped and s.note == "zero measure" and rep.max_ratio == 0.0
    # a vanishing Wolff-cap integral, with no candidates, zeroes wolff_cap and
    # pairing_lb: the band is an infinite hard failure, not a skip
    monkeypatch.setattr("capax.verify.choquet_integral", lambda *a, **k: 0.0)
    mu = Measure.from_atoms(g64, [[0.1]], [1.0])
    rep = check_upper_tri(P, [mu], budget=0, levels=8)
    s = rep.samples[0]
    qs = s.quantities
    assert qs["wolff_cap"] == 0.0 and qs["pairing_lb"] == 0.0
    assert qs["trace_lb"] > 0 and qs["wolff_mu"] > 0
    assert not s.skipped and s.note == "nonpositive quantity"
    assert s.ratio == math.inf and rep.max_ratio == math.inf
    assert s.lhs == max(qs.values()) and s.rhs == 0.0


def test_upper_tri_leaves_out_a_zero_candidate():
    # on 8 nodes the first "mixed" candidate of seed 1 + 2, a ball indicator,
    # holds no node, so it has no L^s normalization and is left out
    g = Grid(1, 1.0, 8)
    zero = field_family("mixed", 1 + 2, 1, g)[0]
    assert not zero.values.any() and _l_s_normalized(zero, 2.0) is None
    rep = check_upper_tri(P, measure_family("measures", 1, 3, g), seed=1, levels=8)
    assert all(not s.skipped and 1.0 <= s.ratio < math.inf for s in rep.samples)


@pytest.mark.parametrize("kind", ["riesz", "bessel"])
def test_upper_tri_pairing_includes_wolff_candidate(kind):
    # u = W^((s-1)r/(s-r)) / ||u||_{L^(s/r)(cap)} pairs with mu to exactly
    # wolff_mu^(s/(s-r)) / wolff_cap^(r/(s-r)); the pairing bound is a maximum
    # over a candidate set that contains it (Bessel: W truncated at R = 1)
    rep = run_check("upper_tri", P, Grid(1, 1.0, 32), kind=kind, count=4, budget=4,
                    levels=20)
    r, s = P.r, P.s
    done = [smp for smp in rep.samples if not smp.skipped]
    assert done
    for smp in done:
        qs = smp.quantities
        assert all(math.isfinite(v) and v > 0 for v in qs.values())
        wolff_pairing = qs["wolff_mu"] ** (s / (s - r)) / qs["wolff_cap"] ** (r / (s - r))
        assert qs["pairing_lb"] >= wolff_pairing * (1 - 1e-12)


def test_wolff_weak_estimates(g64):
    mu = Measure.from_atoms(g64, [[0.05], [-0.2]], [1.0, 0.5])
    w_max = float(np.max(wolff_at_points(mu, P.alpha, P.s, g64.nodes)))
    rep = check_wolff_weak(mu, 2.0, P)
    assert all(math.isfinite(s.ratio) for s in rep.samples if not s.skipped)
    # a level above the global maximum empties both sides
    rep_hi = check_wolff_weak(mu, w_max * 1.5, P, a_values=(2.0,))
    assert rep_hi.samples[0].skipped
    # {W > a t} is not empty for a < 1 while mu({W > t}) is 0: positive / 0
    # is an infinite hard failure
    rep_pos = check_wolff_weak(mu, w_max * 1.5, P, a_values=(0.5,))
    s = rep_pos.samples[0]
    assert not s.skipped and s.ratio == math.inf and rep_pos.max_ratio == math.inf
    assert s.lhs == pytest.approx(0.674, abs=1e-3) and s.rhs == 0.0
    assert s.quantities == {"a": 0.5}
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="t must be positive"):
            check_wolff_weak(mu, t, P)


def test_newnorm2_and_kv_bands(g64):
    rep = run_check("newnorm2", P, g64, count=3, levels=16)
    done = [s for s in rep.samples if not s.skipped]
    assert done and all(math.isfinite(s.ratio) for s in done)
    rep_kv = run_check("kv", P, g64, count=3, levels=16)
    done_kv = [s for s in rep_kv.samples if not s.skipped]
    assert done_kv and all(math.isfinite(s.ratio) for s in done_kv)
    assert max(s.ratio for s in done_kv) <= 10.0


@pytest.mark.parametrize("attr, check, keys", [
    ("beta_functional", check_newnorm2, ("lq_cap", "lambda", "beta")),
    ("otilde_norm", check_kv_equiv, ("kv", "otilde")),
])
def test_norm_band_nonpositive_is_infinite(g64, monkeypatch, attr, check, keys):
    monkeypatch.setattr(f"capax.verify.{attr}", lambda *a, **k: NormEstimate(0.0, 0.0))
    f = field_family("mixed", DEFAULT_FAMILY_SEED, 2, g64)[1]
    rep = check(P, [f], levels=8)
    s = rep.samples[0]
    assert tuple(s.quantities) == keys and s.quantities[keys[-1]] == 0.0
    assert not s.skipped and s.note == "nonpositive"
    assert s.ratio == math.inf and rep.max_ratio == math.inf
    assert s.lhs == max(s.quantities.values()) > 0 and s.rhs == 0.0


def test_run_check_reports_solver_counts(g64):
    rep = run_check("newnorm2", P, g64, count=2, levels=16)
    solver = rep.meta["solver"]
    assert set(solver) == {"solves", "memo_hits", "nonconverged"}
    assert solver["solves"] > 0 and solver["memo_hits"] > 0 and solver["nonconverged"] == 0
    again = run_check("newnorm2", P, g64, count=2, levels=16)
    assert again.meta["solver"] == solver
    assert json.loads(report_to_json(rep))["meta"]["solver"] == solver
    assert run_check("ibp", P, g64, count=2).meta["solver"]["solves"] == 0


def test_main3_pairing(g64):
    rep = run_check("main3", P, g64, count=3, levels=16, budget=4)
    done = [s for s in rep.samples if not s.skipped]
    assert done and all(math.isfinite(s.ratio) for s in done)
    # a zero f (no unit-ball normalizer) or a zero g is a degenerate pair
    f = field_family("mixed", DEFAULT_FAMILY_SEED, 2, g64)[1]
    zero = Field(g64, np.zeros(g64.shape), nonneg=True)
    rep = check_main3(P, [(zero, f), (f, zero)], levels=8, budget=2)
    for s in rep.samples:
        assert s.skipped and s.note == "degenerate pair" and s.ratio == 0.0
    assert rep.max_ratio == 0.0


def test_main3_report_is_the_same_with_n_norms_cache_warm(g64, cold_family_witnesses):
    # the first run builds n_norm's family witnesses, in a scope of their own
    # whose solves the report does not count; the second finds them built
    cold = report_to_json(run_check("main3", P, g64, count=3, levels=16, budget=4))
    warm = report_to_json(run_check("main3", P, g64, count=3, levels=16, budget=4))
    assert cold_family_witnesses.cache_info().hits > 0
    assert warm == cold and json.loads(cold)["meta"]["solver"]["solves"] > 0


def test_main2_limit_toward_csim(g64):
    # constant unit-norm weight and q near s reproduce the unweighted ratios
    s = P.s
    q = 0.999 * s
    rep_m2 = run_check("main2", replace(P, q=q), g64, count=4, levels=32)
    rep_cs = run_check("csim", P, g64, count=4, levels=32)
    a = rep_m2.samples[-1]     # the constant-weight pair
    b = rep_cs.samples[-1]
    assert not a.skipped and not b.skipped
    assert abs(a.ratio / b.ratio ** (1 / s) - 1) <= 0.05


def test_main2_and_newnorm2_need_q_below_s(g64):
    P_s = replace(P, q=P.s)
    with pytest.raises(ValueError, match=r"^main2_pairs needs params.q in \[1, s\)$"):
        run_check("main2", P_s, g64, count=2)
    for check in (check_main2, check_newnorm2):
        with pytest.raises(ValueError, match=rf"^{check.__name__} needs params.q"):
            check(P_s, [])


def test_main2_weight_vanishing_on_support(g64):
    # the lhs is measured before the pair is skipped, and the rhs is infinite
    f = field_family("mixed", DEFAULT_FAMILY_SEED, 2, g64)[1]
    zero = Field(g64, np.zeros(g64.shape), nonneg=True)
    one = Field(g64, np.ones(g64.shape), nonneg=True)
    rep = check_main2(P, [(f, zero), (f, one)], levels=8)
    vanish, unit = rep.samples
    assert vanish.skipped and vanish.note == "weight vanishes on support"
    assert vanish.rhs == math.inf and vanish.ratio == 0.0
    assert vanish.lhs == unit.lhs > 0
    assert not unit.skipped and rep.max_ratio == unit.ratio


def test_refinement_study_rows():
    rep = refinement_study("ibp", P, (32, 64), kind="riesz", count=3, t=2.0)
    assert [n for n, _ in rep.refinement] == [32, 64]
    assert all(math.isfinite(r) for _, r in rep.refinement)
    with pytest.raises(ValueError, match="at least one grid size"):
        refinement_study("ibp", P, [], t=2.0)


def test_report_serialization_roundtrip(g64):
    rep = run_check("csim", P, g64, count=3)
    j1 = report_to_json(rep)
    j2 = report_to_json(run_check("csim", P, g64, count=3))
    assert j1 == j2
    doc = json.loads(j1)
    assert doc["inequality_id"] == "csim"
    assert len(doc["samples"]) == 3
    csv_text = report_to_csv(rep)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "sample_id,lhs,rhs,ratio"
    assert len(lines) == 4
    # repr round-trip of the ratio column
    first = lines[1].split(",")
    assert float(first[3]) == rep.samples[0].ratio
    # the file layout is the dataclasses' own: their fields, in declaration order
    assert list(doc) == [f.name for f in fields(ConstantReport)]
    assert all(list(s) == [f.name for f in fields(Sample)] for s in doc["samples"])
    assert doc == json.loads(json.dumps(asdict(rep)))
    # an integer quantity stays an integer in the file
    bnd = json.loads(report_to_json(run_check("boundedness", P, g64, count=3)))
    counts = [s["quantities"]["n_atoms"] for s in bnd["samples"] if not s["skipped"]]
    assert counts and all(type(c) is int for c in counts)


def test_unknown_check_rejected(g64):
    with pytest.raises(ValueError):
        run_check("nope", P, g64)


def test_run_check_rejects_keywords_no_check_takes(g64):
    # exponents come from params alone; a stray q= is an error, not ignored
    for kw in ({"q": 1.5}, {"scale": 2.0}, {"bugdet": 4}):
        with pytest.raises(TypeError, match="keywords no check takes"):
            run_check("csim", P, g64, count=2, **kw)
        with pytest.raises(TypeError, match="keywords no check takes"):
            refinement_study("ibp", P, (32,), count=2, **kw)
    # a keyword some other check takes is ignored, as the CLI passes t and R to every check
    assert run_check("csim", P, g64, count=1, t=2.0, R=0.5, budget=2).samples
