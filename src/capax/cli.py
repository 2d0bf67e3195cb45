"""Batch command-line front end.

One command per process: parse flags, dispatch through the `_COMMANDS` table
(and `_NORMS` for `capax norm`) to the library, print a short human summary,
and write machine output only when --output is given. A command that reads a
Field or Mask runs on that input's grid, whose dimension replaces --n. A
--config file holds flat key=value lines; each line is parsed as the flag of
that name (`set=ball:0.2` as `--set=ball:0.2`), with the same checks, and
placed before the command-line flags, so flags win. A
manifest with the config echo, library versions, wall time and solver counts
is written next to each output file; result files themselves contain no
timing, so a rerun of the same config is byte-identical.

Exit codes: 0 success, 1 invalid input, 2 solver-budget degradation: some
obstacle solve did not converge (results still written, flagged).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .capacity import capacity, choquet_integral, lq_cap_norm, solve_scope
from .families import DEFAULT_FAMILY_SEED
from .grid import (Field, Grid, Mask, Params, annulus_mask, ball_mask, cube_mask,
                   field_from_json, field_to_json, mask_from_json)
from .potentials import Measure, potential, wolff_potential
from .spaces import (beta_functional, f_norm, kv_norm, lambda_functional, m_norm, n_norm,
                     otilde_norm)
from .verify import CHECK_NAMES, refinement_study, report_to_csv, report_to_json, run_check

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    command: str
    n: int = 1
    alpha: float = 0.4
    s: float = 2.0
    q: float | None = None
    p: float | None = None
    r: float | None = None
    N: int = 64
    L: float = 1.0
    kind: str = "riesz"
    tol: float = 1e-6
    seed: int = DEFAULT_FAMILY_SEED
    levels: int = 48
    output: str | None = None
    check: str | None = None
    count: int = 8
    set_spec: str | None = None
    input: str | None = None
    t: float = 2.0
    norm: str | None = None
    R: float | None = None
    atoms: str | None = None
    extremal_out: str | None = None
    refine: str | None = None

    def params(self, grid: Grid) -> Params:
        """The exponents, checked in the dimension of the grid the command runs on."""
        return Params(grid.dim, self.alpha, self.s, self.q, self.p, self.r)

    def grid(self) -> Grid:
        return Grid(self.n, self.L, self.N)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="capax", description=__doc__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key=value file; flags override it")
    parser.add_argument("--n", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--s", type=float)
    parser.add_argument("--q", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--r", type=float)
    parser.add_argument("--N", type=int)
    parser.add_argument("--L", type=float)
    parser.add_argument("--kind", choices=("riesz", "bessel"))
    parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--levels", type=int)
    parser.add_argument("--output")
    parser.add_argument("--check", choices=CHECK_NAMES)
    parser.add_argument("--count", type=int)
    parser.add_argument("--set", dest="set_spec",
                        help="mask constructor, e.g. ball:0.25 or ball:0.2+cube:0.3")
    parser.add_argument("--input", help="input file (Field/Mask/report JSON)")
    parser.add_argument("--t", type=float, help="exponent t, for the checks that take one")
    parser.add_argument("--norm", choices=_NORMS)
    parser.add_argument("--R", type=float, help="Wolff truncation radius (omit for infinite)")
    parser.add_argument("--atoms", help="atom list 'x[,y[,z]]:mass;...'")
    parser.add_argument("--extremal-out", dest="extremal_out",
                        help="also write the capacity extremal Field here")
    parser.add_argument("--refine", help="comma-separated grid sizes for a refinement study")
    return parser


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list:
    """The config file's key=value lines as `--flag=value` arguments. A key is
    a flag's name or its dest (`set` or `set_spec`); a `command` key is ignored."""
    flags = {}
    for action in parser._actions:
        if action.dest not in ("help", "config"):
            for opt in action.option_strings:
                flags[opt[2:]] = flags[action.dest] = opt
    args = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "command":
                continue
            if key not in flags:
                raise ValueError(f"unknown config key {key!r}")
            args.append(f"{flags[key]}={value}")
    return args


def parse_args(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        ns = parser.parse_args(_config_flags(parser, ns.config) + list(argv))
    return RunConfig(**{k: v for k, v in vars(ns).items() if v is not None and k != "config"})


def parse_set_spec(grid: Grid, spec: str) -> Mask:
    """ball:R | cube:a | annulus:r1:r2, joined by '+' for unions."""
    mask = Mask.empty(grid)
    for part in spec.split("+"):
        bits = part.split(":")
        name = bits[0]
        try:
            if name == "ball":
                mask = mask | ball_mask(grid, float(bits[1]))
            elif name == "cube":
                mask = mask | cube_mask(grid, float(bits[1]))
            elif name == "annulus":
                mask = mask | annulus_mask(grid, float(bits[1]), float(bits[2]))
            else:
                raise ValueError(f"unknown set constructor {name!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"bad set spec {part!r}: {exc}") from exc
    return mask


def parse_atoms(spec: str, dim: int):
    positions, masses = [], []
    for part in spec.split(";"):
        if not part.strip():
            continue
        coords, mass = part.rsplit(":", 1)
        pos = [float(c) for c in coords.split(",")]
        if len(pos) != dim:
            raise ValueError(f"atom {part!r} has {len(pos)} coordinates, expected {dim}")
        positions.append(pos)
        masses.append(float(mass))
    return positions, masses


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_input(cfg: RunConfig, what: str) -> str:
    if not cfg.input:
        raise ValueError(f"{cfg.command} needs --input ({what})")
    return _read(cfg.input)


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _write_manifest(cfg: RunConfig, output: str, wall_time: float, solver: dict):
    import scipy

    manifest = {
        "config": asdict(cfg),
        "versions": {"capax": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_s": wall_time,
        "solver": solver,
    }
    _write(output + ".manifest.json", json.dumps(manifest, indent=2))


def run(cfg: RunConfig) -> int:
    """Dispatch one command; returns the process exit status.

    The command runs in one solve scope, so each distinct obstacle program is
    solved once; any solve that did not converge makes the status 2.
    """
    start = time.monotonic()
    with solve_scope() as scope:
        before = scope.counts()
        outputs = _COMMANDS[cfg.command](cfg)
        solver = scope.since(before)
    for path, text in outputs:
        _write(path, text)
    if cfg.output:
        _write_manifest(cfg, cfg.output, time.monotonic() - start, solver)
    return 2 if solver["nonconverged"] > 0 else 0


# -- commands: each returns its (path, text) outputs --------------------------

def _output(cfg: RunConfig, serialize) -> list:
    """The --output file as a (path, text) pair, if --output is given."""
    return [(cfg.output, serialize())] if cfg.output else []


def _capacity(cfg: RunConfig) -> list:
    if cfg.set_spec:
        mask = parse_set_spec(cfg.grid(), cfg.set_spec)
    elif cfg.input:
        mask = mask_from_json(_read(cfg.input))
    else:
        raise ValueError("capacity needs --set or --input")
    res = capacity(mask, cfg.params(mask.grid), cfg.kind, tol=cfg.tol)
    print(f"capacity value={res.value:.10g} residual={res.residual:.3g} "
          f"gap={res.gap:.3g} iterations={res.iterations} converged={res.converged}")
    keys = ("value", "residual", "gap", "iterations", "converged")
    outputs = _output(cfg, lambda: json.dumps({k: getattr(res, k) for k in keys}))
    if cfg.extremal_out:
        extremal = Field(mask.grid, res.extremal, nonneg=True)
        outputs.append((cfg.extremal_out, field_to_json(extremal)))
    return outputs


def _potential(cfg: RunConfig) -> list:
    f = field_from_json(_read_input(cfg, "a Field JSON file"))
    out = potential(f, cfg.alpha, cfg.kind)
    print(f"potential kind={cfg.kind} max={np.max(out.values):.10g} "
          f"min={np.min(out.values):.10g}")
    return _output(cfg, lambda: field_to_json(out))


def _wolff(cfg: RunConfig) -> list:
    density = field_from_json(_read(cfg.input)) if cfg.input else None
    grid = cfg.grid() if density is None else density.grid
    atoms = tuple(zip(*parse_atoms(cfg.atoms, grid.dim))) if cfg.atoms else ()
    if not atoms and density is None:
        raise ValueError("wolff needs --atoms and/or --input density")
    mu = Measure(grid, atoms, density)
    out = wolff_potential(mu, cfg.alpha, cfg.s, math.inf if cfg.R is None else cfg.R)
    print(f"wolff max={np.max(out.values):.10g} total_mass={mu.total_mass:.10g}")
    return _output(cfg, lambda: field_to_json(out))


def _choquet(cfg: RunConfig) -> list:
    f = field_from_json(_read_input(cfg, "a nonnegative Field JSON file"))
    value = choquet_integral(f, cfg.params(f.grid), cfg.kind, levels=cfg.levels, tol=cfg.tol)
    print(f"choquet integral={value:.10g}")
    return _output(cfg, lambda: json.dumps({"value": value}))


def _norm(cfg: RunConfig) -> list:
    if not cfg.norm:
        raise ValueError(f"norm needs --norm {{{','.join(_NORMS)}}}")
    f = field_from_json(_read_input(cfg, "a Field JSON file"))
    summary, serialize = _NORMS[cfg.norm](f, cfg.params(f.grid), cfg)
    print(summary)
    return _output(cfg, serialize)


def _verify(cfg: RunConfig) -> list:
    if not cfg.check:
        raise ValueError("verify needs --check")
    grid = cfg.grid()
    params = cfg.params(grid)
    # the exponents are all in params; the check registry passes each check
    # only the keywords it takes
    kw = {"t": cfg.t, "R": math.inf if cfg.R is None else cfg.R}
    if cfg.refine is not None:
        Ns = [int(x) for x in cfg.refine.split(",") if x]
        report = refinement_study(cfg.check, params, Ns, cfg.L, cfg.kind,
                                  cfg.seed, cfg.count, cfg.levels, cfg.tol, **kw)
    else:
        report = run_check(cfg.check, params, grid, cfg.kind, cfg.seed,
                           cfg.count, cfg.levels, cfg.tol, **kw)
    n_done = sum(1 for s in report.samples if not s.skipped)
    print(f"check={report.inequality_id} samples={n_done} max_ratio={report.max_ratio:.6g}")
    for N, ratio in report.refinement:
        print(f"  N={N}: max_ratio={ratio:.6g}")
    if math.isinf(report.max_ratio):
        raise ValueError("infinite ratio in report: inequality check failed hard")
    if not cfg.output:
        return []
    base = cfg.output[:-5] if cfg.output.endswith(".json") else cfg.output
    return [(cfg.output, report_to_json(report)), (base + ".csv", report_to_csv(report))]


def _report(cfg: RunConfig) -> list:
    doc = json.loads(_read_input(cfg, "a report JSON file"))
    if not isinstance(doc, dict):
        raise ValueError(f"{cfg.input} holds no report: its JSON is not an object")
    print(f"inequality: {doc.get('inequality_id')}")
    print(f"max_ratio:  {doc.get('max_ratio')}")
    for s in doc.get("samples", []):
        mark = " (skipped)" if s.get("skipped") else ""
        print(f"  #{s['sample_id']}: lhs={s['lhs']:.6g} rhs={s['rhs']:.6g} "
              f"ratio={s['ratio']:.6g}{mark}")
    return _output(cfg, lambda: report_to_csv(doc))


_COMMANDS = {"capacity": _capacity, "potential": _potential, "wolff": _wolff,
             "choquet": _choquet, "norm": _norm, "verify": _verify, "report": _report}


# -- norms: each maps (field, params, cfg) to a summary line and a serializer -

def _estimate(evaluator, takes_levels: bool = True):
    """A `_NORMS` entry for an evaluator returning a two-sided NormEstimate;
    --levels goes to every evaluator that takes it."""
    def norm(f: Field, params: Params, cfg: RunConfig) -> tuple:
        levels = {"levels": cfg.levels} if takes_levels else {}
        est = evaluator(f, params, cfg.kind, tol=cfg.tol, **levels)
        return (f"{cfg.norm} norm: lower={est.lower:.10g} upper={est.upper:.10g} "
                f"flags={list(est.flags)}", est.to_json)
    return norm


def _lqcap(f: Field, params: Params, cfg: RunConfig) -> tuple:
    if cfg.q is None:
        raise ValueError("lqcap needs --q")
    value = lq_cap_norm(f, cfg.q, params, cfg.kind, levels=cfg.levels, tol=cfg.tol)
    return f"lqcap norm={value:.10g}", lambda: json.dumps({"value": value})


_NORMS = {"m": _estimate(m_norm), "otilde": _estimate(otilde_norm), "kv": _estimate(kv_norm),
          "n": _estimate(n_norm), "f": _estimate(f_norm, takes_levels=False), "lqcap": _lqcap,
          "lambda": _estimate(lambda_functional), "beta": _estimate(beta_functional)}

def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        return run(cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
