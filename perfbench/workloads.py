"""The benchmark's workloads: seeded inputs, one op, and the op's outside check.

Every workload builds its inputs in ``__init__`` (the set-up a fresh process
pays), runs one op per ``op(i)`` call (the timed part), and re-checks the op's
output in ``check(i, out)`` (untimed). ``check`` returns the op's values, which
are compared with the committed reference and between traced and untraced
runs, and raises ``OpFailed`` when the output is not valid.

capax modules are reached through ``importlib.import_module`` and their
attributes are looked up at call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os

import numpy as np

TOL = 1e-6
POOL = 512         # inputs made per run: more than any run completes


class OpFailed(Exception):
    """The op raised, exited non-zero, or its output failed the re-check."""


def _mod(name):
    return importlib.import_module(name)


def _finite(*values):
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


class Cap2d:
    """``capax capacity`` runs in-process at n=2, N=64, alpha=0.7, s=2."""

    name = "cap2d"
    ROUND = 8              # four set shapes, each with both kernels
    ALPHA = 0.7
    KINDS = ("riesz", "bessel")

    def __init__(self, seed: int, workdir: str):
        grid_mod = _mod("capax.grid")
        kernels = _mod("capax.kernels")
        self.grid = grid_mod.Grid(2, 1.0, 64)
        for kind in self.KINDS:
            kernels.kernel_table(self.grid, self.ALPHA, kind).padded_rfft
        rng = np.random.default_rng(seed)
        self.specs = [_set_spec(rng, i) for i in range(POOL)]
        self.workdir = workdir
        self.output_bytes = 0
        self.first = None          # result and extremal bytes of op 0

    def _paths(self, stem):
        base = os.path.join(self.workdir, stem)
        return base + ".json", base + ".extremal.json"

    def op(self, i, stem="op"):
        cli = _mod("capax.cli")
        output, extremal = self._paths(stem)
        cfg = cli.RunConfig(command="capacity", n=2, alpha=self.ALPHA, s=2.0, N=64,
                            kind=self.KINDS[i % 2], tol=TOL, set_spec=self.specs[i % POOL],
                            output=output, extremal_out=extremal)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(cfg)

    def _read(self, stem):
        output, extremal = self._paths(stem)
        with open(output, "rb") as fh:
            result = fh.read()
        with open(extremal, "rb") as fh:
            field = fh.read()
        return result, field

    def check(self, i, code):
        if code != 0:
            raise OpFailed(f"capacity exited with code {code}")
        result, field = self._read("op")
        self.output_bytes += len(result) + len(field)
        self.output_bytes += os.path.getsize(self._paths("op")[0] + ".manifest.json")
        if i == 0:
            self.first = (result, field)
        doc = json.loads(result)
        value = doc["value"]
        if not (_finite(value) and doc["converged"] is True):
            raise OpFailed(f"capacity not finite or not converged: {doc}")
        grid_mod = _mod("capax.grid")
        f = grid_mod.field_from_json(field.decode())
        if f.grid != self.grid or np.any(f.values < 0):
            raise OpFailed("extremal is not a nonnegative field on the run's grid")
        mask = _mod("capax.cli").parse_set_spec(self.grid, self.specs[i % POOL])
        u = _mod("capax.potentials").potential(f, self.ALPHA, self.KINDS[i % 2]).values
        low = float(np.min(u[mask.members]))
        if low < 1.0 - TOL:
            raise OpFailed(f"extremal potential {low!r} < 1 - tol on the set")
        objective = float(self.grid.cell_volume * np.sum(f.values ** 2))    # h^n sum f^s, s = 2
        if abs(objective - value) > 1e-9 * max(value, 1.0):
            raise OpFailed(f"objective {objective!r} does not match value {value!r}")
        return (value,)

    def ref_kinds(self, i):
        return ("certified",)

    def determinism(self):
        """Run op 0 again; its result files must be byte-identical."""
        if self.first is None:
            return "op 0 did not complete"
        code = self.op(0, stem="rerun")
        if code != 0:
            return f"rerun of op 0 exited with code {code}"
        if self._read("rerun") != self.first:
            return "rerun of op 0 wrote different bytes"
        return None


def _set_spec(rng, i):
    """Set specs cycle through ball, cube, annulus and ball+cube unions, each
    twice in a row, while the kernel alternates op by op."""
    shape = (i // 2) % 4
    if shape == 0:
        return f"ball:{rng.uniform(0.1, 0.5):.6f}"
    if shape == 1:
        return f"cube:{rng.uniform(0.2, 0.8):.6f}"
    if shape == 2:
        inner = rng.uniform(0.1, 0.3)
        return f"annulus:{inner:.6f}:{inner + rng.uniform(0.1, 0.3):.6f}"
    return f"ball:{rng.uniform(0.1, 0.4):.6f}+cube:{rng.uniform(0.2, 0.6):.6f}"


def _fields(seed: int):
    grid_mod = _mod("capax.grid")
    grid = grid_mod.Grid(1, 1.0, 64)
    _mod("capax.kernels").kernel_table(grid, 0.4, "riesz").padded_rfft
    return _mod("capax.families").field_family("mixed", seed, POOL, grid)


class Csim1d:
    """``check_csim`` on one seeded field per op, levels 32, n=1, N=64."""

    name = "csim1d"
    ROUND = 4              # the four kinds of field in the mixed family

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.params = _mod("capax.grid").Params(1, 0.4, 2.0)
        self.fields = _fields(seed)

    def op(self, i):
        return _mod("capax.verify").check_csim(self.params, [self.fields[i % POOL]], "riesz",
                                               seed=self.seed, levels=32, tol=TOL)

    def check(self, i, report):
        if len(report.samples) != 1 or report.samples[0].skipped:
            raise OpFailed("csim report does not hold exactly one sample")
        sample = report.samples[0]
        if not (_finite(sample.lhs, sample.rhs, sample.ratio) and sample.lhs > 0
                and sample.rhs > 0):
            raise OpFailed(f"csim sample not finite and positive: {sample}")
        return (sample.lhs, sample.rhs)

    def ref_kinds(self, i):
        return ("choquet", "exact")


EVALUATORS = ("lq_cap_norm", "lambda_functional", "beta_functional", "kv_norm",
              "otilde_norm", "m_norm", "n_norm")


class Norms1d:
    """Single norm evaluations rotating through the seven evaluators.

    The mixed family's fields repeat their structure every ``FAMILY_PERIOD``
    fields (four kinds; bumps of three widths). Evaluator j of round r gets
    field ``FAMILY_PERIOD * r + j``, so each evaluator sees one kind of field
    in every round, every round costs about the same, and a run's mix of work
    does not depend on how many of its few, long rounds it completes.
    """

    name = "norms1d"
    ROUND = len(EVALUATORS)    # one op per evaluator
    FAMILY_PERIOD = 12

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.params = _mod("capax.grid").Params(1, 0.4, 2.0, q=1.0, p=2.0, r=1.0)
        self.fields = _fields(seed)

    def evaluator(self, i):
        return EVALUATORS[i % len(EVALUATORS)]

    def op(self, i):
        name = self.evaluator(i)
        r, j = divmod(i, self.ROUND)
        f, p = self.fields[(self.FAMILY_PERIOD * r + j) % POOL], self.params
        if name == "lq_cap_norm":
            return _mod("capax.capacity").lq_cap_norm(f, 1.0, p, "riesz", levels=16, tol=TOL)
        fn = getattr(_mod("capax.spaces"), name)
        if name == "m_norm":
            return fn(f, p, "riesz", budget=8, seed=self.seed, tol=TOL, levels=16)
        if name == "n_norm":
            return fn(f, p, "riesz", tol=TOL, levels=16, budget=8, seed=self.seed)
        return fn(f, p, "riesz", tol=TOL, levels=16)

    def ref_kinds(self, i):
        if self.evaluator(i) == "lq_cap_norm":
            return ("choquet", "choquet")
        return ("heuristic", "heuristic")

    def check(self, i, out):
        if isinstance(out, float):
            lower = upper = out
        else:
            lower, upper = out.lower, out.upper
        if not (_finite(lower, upper) and 0 <= lower <= upper * (1 + 1e-12) and upper > 0):
            raise OpFailed(f"{self.evaluator(i)}: invalid estimate lower={lower} upper={upper}")
        return (lower, upper)


WORKLOADS = {w.name: w for w in (Cap2d, Csim1d, Norms1d)}
