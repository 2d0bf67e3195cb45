"""Span tracing of capax's layers, installed from outside the package.

Each traced binding is a module attribute that capax's callers look up at call
time, such as ``capax.solver.apply_kernel`` or ``capax.capacity.obstacle_program``.
``Tracer.install`` replaces it with a wrapper that records one span per call
(name, start, end, parent span, op id) in memory; ``uninstall`` puts the
original back. A binding that no longer exists, or whose observer no longer
fits it, is reported as missing and the run goes on without it.

``layer_metrics`` turns the spans into the per-layer metrics listed in
``PER_LAYER``. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import EVALUATORS

# (module, attribute, span name, observer kind). Every binding here is called by
# at least one workload; the self-test checks that.
BINDINGS = [
    ("capax.kernels", "riesz_kernel_table", "kernels.table", "kernel"),
    ("capax.kernels", "bessel_kernel_table", "kernels.table", "kernel"),
    ("capax.solver", "apply_kernel", "potentials.apply", "apply"),
    ("capax.potentials", "apply_kernel", "potentials.apply", "apply"),
    ("capax.capacity", "obstacle_program", "solver.solve", "solve"),
    ("capax.capacity", "choquet_integral", "capacity.choquet", None),
    ("capax.verify", "choquet_integral", "capacity.choquet", None),
    ("capax.spaces", "choquet_integral", "capacity.choquet", None),
    ("capax.capacity", "lq_cap_norm", "spaces.lq_cap_norm", None),
    ("capax.spaces", "lq_cap_norm", "spaces.lq_cap_norm", None),
    *[("capax.spaces", name, "spaces." + name, None) for name in EVALUATORS[1:]],
    ("capax.potentials", "wolff_potential", "potentials.wolff", None),
    ("capax.maximal", "maximal_function", "maximal.maximal_function", None),
    ("capax.verify", "check_csim", "verify.check_csim", "samples"),
    ("capax.cli", "run", "cli.run", None),
    ("capax.cli", "field_to_json", "cli.field_to_json", None),
    ("capax.families", "field_family", "families.field_family", None),
]

# Per-layer metrics, in the order they are printed: (name, unit).
PER_LAYER = [
    ("kernels.builds", "count"),
    ("kernels.build_ms", "ms"),
    ("kernels.hit_ratio", "1"),
    ("potentials.apply_calls", "count/op"),
    ("potentials.apply_us_p50", "us"),
    ("potentials.apply_ms", "ms/op"),
    ("potentials.apply_share", "1"),
    ("potentials.apply_flop_est", "flop/op"),
    ("potentials.apply_bytes_est", "B/op"),
    ("solver.solves", "count/op"),
    ("solver.ms_p50", "ms"),
    ("solver.self_ms", "ms/op"),
    ("solver.iters_p50", "count"),
    ("solver.applies_per_solve", "count"),
    ("solver.cold_frac", "1"),
    ("solver.nonconverged", "count"),
    ("solver.max_gap_rel", "1"),
    ("solver.max_residual", "1"),
    ("solver.repeat_frac", "1"),
    ("capacity.choquet_sweeps", "count/op"),
    ("capacity.solves_per_sweep", "count"),
    ("capacity.choquet_ms_p50", "ms"),
    ("capacity.lqcap_calls", "count/op"),
    ("spaces.evals", "count"),
    ("spaces.solves_per_eval", "count"),
    *[("spaces.eval_ms." + name, "ms") for name in EVALUATORS],
    ("potentials.wolff_calls", "count/op"),
    ("potentials.wolff_ms", "ms/op"),
    ("maximal.calls", "count/op"),
    ("maximal.ms", "ms/op"),
    ("verify.samples", "count"),
    ("verify.sample_ms_p50", "ms"),
    ("cli.output_bytes", "B/op"),
    ("cli.serialize_ms", "ms/op"),
    ("families.gen_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "1"),
    ("trace.missing_bindings", "count"),
]


def _kernel_observer(orig):
    """A call built a table when the lru_cache's miss count went up."""
    last = [orig.cache_info().misses]

    def observe(args, kwargs, table):
        misses = orig.cache_info().misses
        built, last[0] = misses > last[0], misses
        return built
    return observe


def _with_spectrum(orig):
    """Touch the table's cached FFT spectrum, so a cold build's span includes it."""
    @functools.wraps(orig)
    def build(*args, **kwargs):
        table = orig(*args, **kwargs)
        table.padded_rfft
        return table
    return build


def _apply_observer(orig):
    def observe(args, kwargs, out):
        table = args[0] if args else kwargs["table"]
        values = args[1] if len(args) > 1 else kwargs["values"]
        return values.size, table.grid.points_per_axis, table.grid.dim
    return observe


def _solve_observer(orig):
    signature = inspect.signature(orig)

    def observe(args, kwargs, res):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        table = a["table"]
        digest = hashlib.blake2b(np.ascontiguousarray(a["obstacle"], dtype=float).tobytes(),
                                 digest_size=16).digest()
        key = (table.grid, table.alpha, table.kind, a["s"], a["tol"], a["max_iter"], digest)
        return {"key": key, "cold": a["warm"] is None, "iterations": res.iterations,
                "converged": res.converged, "gap_rel": res.gap / max(res.value, 1.0),
                "residual": res.residual}
    return observe


def _samples_observer(orig):
    return lambda args, kwargs, report: len(report.samples)


OBSERVERS = {"kernel": _kernel_observer, "apply": _apply_observer,
             "solve": _solve_observer, "samples": _samples_observer}


class Tracer:
    """Records spans from wrapped bindings and from ``span()`` blocks."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = list(bindings)
        self.names: list[str] = []
        self.spans: list = []          # span id -> (name id, start, end, parent, op, info)
        self.stack = [-1]
        self.op = -1                   # -1 while setting up
        self.missing: list[str] = []
        self.calls: dict[str, int] = {}   # "module.attr" -> calls seen
        self._installed: list = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self):
        for module, attr, name, kind in self.bindings:
            label = f"{module}.{attr}"
            try:
                mod = importlib.import_module(module)
                orig = getattr(mod, attr)
                observe = OBSERVERS[kind](orig) if kind else None
            except (ImportError, AttributeError, TypeError, ValueError):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            fn = _with_spectrum(orig) if kind == "kernel" else orig
            setattr(mod, attr, self._wrap(fn, label, self._name_id(name), observe))
            self._installed.append((mod, attr, orig))
            self.calls.setdefault(label, 0)

    def uninstall(self):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def _wrap(self, fn, label, nid, observe):
        spans, stack, calls = self.spans, self.stack, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            calls[label] += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (nid, t0, perf_counter(), parent, self.op, None)
                stack.pop()
                raise
            t1 = perf_counter()
            stack.pop()
            info = None
            if observe is not None:
                try:
                    info = observe(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass            # a changed signature loses the detail, not the op
            spans[sid] = (nid, t0, t1, parent, self.op, info)
            return out
        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark itself (set-up, one op)."""
        nid = self._name_id(name)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = (nid, t0, t1, parent, self.op, None)

    def columns(self):
        """Spans as arrays: name id, start, end, parent, op."""
        if not self.spans:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty, empty.astype(int), empty.astype(int)
        nid, t0, t1, parent, op, _ = zip(*self.spans)
        return (np.array(nid), np.array(t0), np.array(t1), np.array(parent), np.array(op))

    def dump(self, path):
        """Write every span (and the name table) to an ``.npz`` file."""
        nid, t0, t1, parent, op = self.columns()
        np.savez(path, name_id=nid, start=t0, end=t1, parent=parent, op=op,
                 names=np.array(self.names), missing=np.array(self.missing, dtype=str))


def _apply_cost(size, N, dim):
    """FFT-model flops and bytes of one apply, from array sizes (computed, not measured).

    Per field: real forward and inverse FFTs of the (2N)^dim padding,
    5 M log2 M flops; the complex product on C = (2N)^(dim-1)(N+1) bins, 6 C;
    the cell-volume scaling, N^dim. Bytes: input, padded input and inverse
    output in float64, three complex arrays of C bins, and the output slice
    copied and scaled.
    """
    fields = size / N**dim
    M = (2 * N) ** dim
    C = (2 * N) ** (dim - 1) * (N + 1)
    flops = 5 * M * math.log2(M) + 6 * C + N**dim
    nbytes = 8 * (N**dim + 2 * M + 2 * N**dim) + 16 * 3 * C
    return fields * flops, fields * nbytes


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans, keyed by ``PER_LAYER`` names.

    Figures cover the traced ops (op id >= 0); work counts and summed times
    are given per op. Kernel builds and family generation cover set-up as
    well, as run totals. A layer with no spans reads 0.
    """
    nid, t0, t1, parent, op = tracer.columns()
    info = [s[5] for s in tracer.spans]
    dur = t1 - t0
    n = len(nid)
    child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
    self_time = dur - child[:n]

    def ids(name, ops_only=True):
        if name not in tracer.names:
            return np.zeros(0, dtype=int)
        sel = nid == tracer.names.index(name)
        if ops_only:
            sel &= op >= 0
        return np.flatnonzero(sel)

    def has_parent(idx, name):
        if name not in tracer.names or len(idx) == 0:
            return np.zeros(len(idx), dtype=bool)
        p = parent[idx]
        return (p >= 0) & (nid[np.maximum(p, 0)] == tracer.names.index(name))

    ops = ids("op")
    n_ops = max(len(ops), 1)
    op_ms = float(np.sum(dur[ops])) * 1e3
    m = {}

    tables = ids("kernels.table", ops_only=False)
    built = [i for i in tables if info[i]]
    m["kernels.builds"] = len(built)
    m["kernels.build_ms"] = float(np.sum(dur[built])) * 1e3
    m["kernels.hit_ratio"] = (len(tables) - len(built)) / len(tables) if len(tables) else 0.0

    applies = ids("potentials.apply")
    flops = nbytes = 0.0
    for i in applies:
        if info[i] is None:          # the call raised
            continue
        f, b = _apply_cost(*info[i])
        flops += f
        nbytes += b
    apply_ms = float(np.sum(dur[applies])) * 1e3
    m["potentials.apply_calls"] = len(applies) / n_ops
    m["potentials.apply_us_p50"] = _median(dur[applies]) * 1e6
    m["potentials.apply_ms"] = apply_ms / n_ops
    m["potentials.apply_share"] = apply_ms / op_ms if op_ms > 0 else 0.0
    m["potentials.apply_flop_est"] = flops / n_ops
    m["potentials.apply_bytes_est"] = nbytes / n_ops

    solves = ids("solver.solve")
    sinfo = [info[i] for i in solves if info[i] is not None]
    unique = len({(op[i], info[i]["key"]) for i in solves if info[i] is not None})
    m["solver.solves"] = len(solves) / n_ops
    m["solver.ms_p50"] = _median(dur[solves]) * 1e3
    m["solver.self_ms"] = float(np.sum(self_time[solves])) * 1e3 / n_ops
    m["solver.iters_p50"] = _median([s["iterations"] for s in sinfo])
    m["solver.applies_per_solve"] = (int(np.sum(has_parent(applies, "solver.solve")))
                                     / len(solves) if len(solves) else 0.0)
    m["solver.cold_frac"] = (sum(s["cold"] for s in sinfo) / len(sinfo)) if sinfo else 0.0
    m["solver.nonconverged"] = sum(not s["converged"] for s in sinfo)
    m["solver.max_gap_rel"] = max((s["gap_rel"] for s in sinfo), default=0.0)
    m["solver.max_residual"] = max((s["residual"] for s in sinfo), default=0.0)
    m["solver.repeat_frac"] = (len(sinfo) - unique) / len(sinfo) if sinfo else 0.0

    sweeps = ids("capacity.choquet")
    m["capacity.choquet_sweeps"] = len(sweeps) / n_ops
    m["capacity.solves_per_sweep"] = (int(np.sum(has_parent(solves, "capacity.choquet")))
                                      / len(sweeps) if len(sweeps) else 0.0)
    m["capacity.choquet_ms_p50"] = _median(dur[sweeps]) * 1e3
    m["capacity.lqcap_calls"] = len(ids("spaces.lq_cap_norm")) / n_ops

    eval_nids = {tracer.names.index("spaces." + e) for e in EVALUATORS
                 if "spaces." + e in tracer.names}

    def outer_eval(i):
        """The outermost evaluator span enclosing span i (or i itself), else -1."""
        found = -1
        while i >= 0:
            if nid[i] in eval_nids:
                found = i
            i = parent[i]
        return found

    evals = np.flatnonzero((op >= 0) & np.isin(nid, list(eval_nids)))
    outer = sorted({outer_eval(i) for i in evals} - {-1})
    m["spaces.evals"] = len(outer)
    m["spaces.solves_per_eval"] = (sum(outer_eval(i) >= 0 for i in solves) / len(outer)
                                   if outer else 0.0)
    for e in EVALUATORS:
        name = "spaces." + e
        sel = [i for i in outer if tracer.names[nid[i]] == name]
        m["spaces.eval_ms." + e] = _median(dur[sel]) * 1e3

    wolff = ids("potentials.wolff")
    m["potentials.wolff_calls"] = len(wolff) / n_ops
    m["potentials.wolff_ms"] = float(np.sum(dur[wolff])) * 1e3 / n_ops
    maximal = ids("maximal.maximal_function")
    m["maximal.calls"] = len(maximal) / n_ops
    m["maximal.ms"] = float(np.sum(dur[maximal])) * 1e3 / n_ops

    checks = [i for i in ids("verify.check_csim") if info[i]]
    m["verify.samples"] = sum(info[i] for i in checks)
    m["verify.sample_ms_p50"] = _median([dur[i] / info[i] for i in checks]) * 1e3

    m["cli.serialize_ms"] = float(np.sum(dur[ids("cli.field_to_json")])) * 1e3 / n_ops
    m["families.gen_ms"] = float(np.sum(dur[ids("families.field_family", ops_only=False)])) * 1e3
    m["trace.ops"] = len(ops)
    m["trace.missing_bindings"] = len(tracer.missing)
    return m
